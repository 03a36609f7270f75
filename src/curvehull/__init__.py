"""Exact rational toolkit for small-block semidefinite representations of
convex hulls of curve segments: Schur polynomial identities, diagonal-ideal
determinant factorizations, extreme rays of interval nonnegativity cones,
block moment pencils with independent hull oracles, and a CLI.

The package re-exports nothing: import from its modules
(`from curvehull.unipoly import UniPoly`), so that loading one module loads
only what it depends on."""

__version__ = "0.1.0"
