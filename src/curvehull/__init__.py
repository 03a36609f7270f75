"""Exact rational toolkit for small-block semidefinite representations of
convex hulls of curve segments: Schur polynomial identities, diagonal-ideal
determinant factorizations, extreme rays of interval nonnegativity cones,
block moment pencils with independent hull oracles, and a CLI."""

from .diagonal import (BlockPartition, DivisibilityError, SchurMonomialIdeal,
                       TaylorFactorization, TensorMatrix, evaluation_matrix,
                       factor_taylor_determinant, normalize_basis_orders,
                       taylor_remainder_check, vandermonde_cofactor)
from .hull import (CrossValidationReport, CurvePointRejected, CurveSegment,
                   cross_validate, finite_hull_membership, lmi_support_enclosure,
                   moment_curve, sample_curve, support_min_exact)
from .linalg import SymMatrix, psd_check_exact
from .lmi import (Block, BlockLMI, SosxCertificate, emit_sdpa, hankel_lmi,
                  interval_moment_lmi, lmi_from_json, lmi_membership,
                  lmi_to_json, sosx_certificate)
from .multipoly import MultiPoly, poly_det
from .rays import (ExtremeReport, IntervalValidation, LinearSystem,
                   ZeroPattern, chebyshev_det_sign, extreme_candidate,
                   interval_supported_divisor, profile_and_normalize,
                   supporting_face_basis, validate_interval, verify_extreme,
                   zero_conditions_dim)
from .schur import (DecreasingSeq, DivisibilityReport, proper_dominance_check,
                    schur_via_bialternant, schur_via_tableaux,
                    subsequence_divisibility_check)
from .unipoly import (Interval, RationalEnclosure, UniPoly, count_roots_interior,
                      count_roots_with_multiplicity, is_nonnegative_on,
                      isolate_roots, poly_gcd, squarefree_decomposition,
                      squarefree_part)

__version__ = "0.1.0"
