import json
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehull import lmi
from curvehull.hull import moment_curve
from curvehull.lmi import (Block, BlockLMI, compose_curve, curve_membership, emit_sdpa,
                           hankel_lmi, interval_moment_lmi, lmi_from_json, lmi_membership,
                           lmi_to_json, sosx_certificate)
from curvehull.rays import ZeroPattern
from curvehull.unipoly import _RATIONAL_RE, Interval, UniPoly, _over_lcm

t = UniPoly.t()
UNIT = Interval(0, 1)
GOLDEN = Path(__file__).parent / "golden"


def moment_vector(x, n):
    return tuple(x ** k for k in range(1, n + 1))


def mat(rows):
    """Rows as a Block holds them: a tuple of Fraction tuples."""
    return tuple(tuple(F(x) for x in r) for r in rows)


class TestHankel:
    def test_n2_entries(self):
        blk = hankel_lmi(2).blocks[0]
        assert blk.size == 2
        assert blk.a0 == mat([[1, 0], [0, 0]])
        assert blk.coeff[0] == mat([[0, 1], [1, 0]])
        assert blk.coeff[1] == mat([[0, 0], [0, 1]])

    def test_n4_entries(self):
        blk = hankel_lmi(4).blocks[0]
        assert blk.size == 3
        assert blk.a0 == mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        expected = {
            1: [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            2: [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            3: [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
            4: [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        }
        for i, rows in expected.items():
            assert blk.coeff[i - 1] == mat(rows)

    def test_a_moment_beyond_the_ambient_dimension_is_refused(self):
        # entry (0, 1) of a size-2 block weighted by t^2 is x_3, the first
        # moment beyond x_2; with n = 3 it is x_4 at entry (1, 1)
        with pytest.raises(ValueError, match="moment index 3 exceeds ambient dimension 2"):
            lmi._hankel_block(2, 2, t * t)
        with pytest.raises(ValueError, match="moment index 4 exceeds ambient dimension 3"):
            lmi._hankel_block(3, 2, t * t)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            hankel_lmi(3)


class TestIntervalMoment:
    @pytest.mark.parametrize("n", [0, -1, True, 2.5])
    def test_n_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {n!r}"):
            interval_moment_lmi(n, UNIT)

    def test_n1_is_the_interval(self):
        pencil = interval_moment_lmi(1, UNIT)
        assert [b.size for b in pencil.blocks] == [1, 1]
        # blocks [x_1] and [1 - x_1]
        assert pencil.blocks[0].a0 == mat([[0]])
        assert pencil.blocks[0].coeff[0] == mat([[1]])
        assert pencil.blocks[1].a0 == mat([[1]])
        assert pencil.blocks[1].coeff[0] == mat([[-1]])

    def test_n2_blocks(self):
        pencil = interval_moment_lmi(2, UNIT)
        assert [b.size for b in pencil.blocks] == [2, 1]
        loc = pencil.blocks[1]
        # localized block of t(1-t): x_1 - x_2
        assert loc.a0 == mat([[0]])
        assert loc.coeff[0] == mat([[1]])
        assert loc.coeff[1] == mat([[-1]])

    def test_n3_blocks(self):
        pencil = interval_moment_lmi(3, UNIT)
        assert [b.size for b in pencil.blocks] == [2, 2]
        first, second = pencil.blocks
        # [[x1, x2], [x2, x3]]
        assert first.a0 == mat([[0, 0], [0, 0]])
        assert first.coeff[0] == mat([[1, 0], [0, 0]])
        assert first.coeff[1] == mat([[0, 1], [1, 0]])
        assert first.coeff[2] == mat([[0, 0], [0, 1]])
        # [[1 - x1, x1 - x2], [x1 - x2, x2 - x3]]
        assert second.a0 == mat([[1, 0], [0, 0]])
        assert second.coeff[0] == mat([[-1, 1], [1, 0]])
        assert second.coeff[1] == mat([[0, -1], [-1, 1]])
        assert second.coeff[2] == mat([[0, 0], [0, -1]])

    def test_block_bound(self):
        for n in range(1, 11):
            pencil = interval_moment_lmi(n, UNIT)
            assert pencil.max_block_size == 1 + n // 2

    def test_general_interval(self):
        pencil = interval_moment_lmi(2, Interval(-1, 2))
        for k in range(13):
            x = F(-1) + F(3, 12) * k
            assert lmi_membership(pencil, moment_vector(x, 2))
        assert not lmi_membership(pencil, moment_vector(F(3), 2))


class TestMembership:
    def test_curve_point_on_hankel(self):
        assert lmi_membership(hankel_lmi(4), (1, 1, 1, 1))

    def test_negative_top_moment(self):
        assert not lmi_membership(hankel_lmi(4), (0, 0, 0, -1))

    def test_curve_point_on_interval_pencil(self):
        assert lmi_membership(interval_moment_lmi(2, UNIT), (F(1, 2), F(1, 4)))

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            lmi_membership(hankel_lmi(2), (1, 1, 1))

    def test_curve_containment_grid(self):
        # 101-point grid, every n up to 6
        for n in range(1, 7):
            pencil = interval_moment_lmi(n, UNIT)
            for k in range(101):
                x = F(k, 100)
                assert lmi_membership(pencil, moment_vector(x, n)), (n, x)

    def test_convex_combinations(self):
        rng = random.Random(83)
        for n in (2, 3, 4):
            pencil = interval_moment_lmi(n, UNIT)
            for _ in range(10):
                a, b = F(rng.randint(0, 100), 100), F(rng.randint(0, 100), 100)
                w = F(rng.randint(0, 10), 10)
                pa, pb = moment_vector(a, n), moment_vector(b, n)
                mix = tuple(w * x + (1 - w) * y for x, y in zip(pa, pb))
                assert lmi_membership(pencil, mix)

    def test_outward_separation(self):
        eps = F(1, 100)
        for n in (2, 4, 6):
            pencil = interval_moment_lmi(n, UNIT)
            for k in range(1, 10):
                x = F(k, 10)
                probe = list(moment_vector(x, n))
                probe[-1] -= eps
                assert not lmi_membership(pencil, tuple(probe)), (n, x)


PENCILS_FOR_THE_UNIT_CURVE = {
    "right": lambda n: interval_moment_lmi(n, UNIT),
    "too small": lambda n: interval_moment_lmi(n, Interval(0, F(9, 10))),
    "hankel": lambda n: hankel_lmi(n if n % 2 == 0 else n + 1),
}


class TestComposeCurve:
    """The pencil composed with its curve decides each curve point as
    lmi_membership decides the point itself."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from(sorted(PENCILS_FOR_THE_UNIT_CURVE)),
           st.integers(-30, 40), st.integers(1, 30), st.booleans())
    def test_composed_membership_is_pencil_membership_of_the_curve_point(
            self, n, kind, p, q, substituted):
        pencil = PENCILS_FOR_THE_UNIT_CURVE[kind](n)
        curve = moment_curve(pencil.n, UNIT)
        if not substituted:
            composed, t = compose_curve(pencil, curve.components), F(p, q)
        else:  # t = a + (b - a) s on [a, b] = [-1/3, 2], as the support search runs
            a, w = F(-1, 3), F(7, 3)
            composed = compose_curve(pencil, [c.affine(a, w) for c in curve.components])
            t = a + w * F(p, q)
        assert curve_membership(composed, p, q) is lmi_membership(pencil, curve.point_at(t))

    def test_each_block_is_a_positive_multiple_of_the_pencil_along_the_curve(self):
        pencil = interval_moment_lmi(3, Interval(F(-1, 2), F(2, 3)))
        curve = moment_curve(3, UNIT)
        for blk, rows in zip(pencil.blocks, compose_curve(pencil, curve.components)):
            assert all(e.integer_form()[1] == 1 for r in rows for e in r)
            for x in (F(-3, 7), F(0), F(5, 2)):
                exact = [[blk.a0[i][j] + sum(m[i][j] * c for m, c in zip(blk.coeff,
                                                                          curve.point_at(x)))
                          for j in range(blk.size)] for i in range(blk.size)]
                got = [[e(x) for e in r] for r in rows]
                scale = {g / e for r, er in zip(got, exact) for g, e in zip(r, er) if e}
                assert len(scale) == 1 and scale.pop() > 0
                assert all(g == 0 for r, er in zip(got, exact) for g, e in zip(r, er) if not e)

    def test_curve_points_skip_the_psd_re_check(self):
        # the composed rows are int and mirrored, so symmetric by construction:
        # they go to the elimination directly, while lmi_membership validates
        pencil = interval_moment_lmi(4, UNIT)
        composed = compose_curve(pencil, moment_curve(4, UNIT).components)
        with mock.patch.object(lmi, "psd_check_exact", wraps=lmi.psd_check_exact) as psd:
            assert curve_membership(composed, 1, 3)
            assert not curve_membership(composed, 4, 3)
            assert psd.call_count == 0
            assert lmi_membership(pencil, moment_curve(4, UNIT).point_at(F(1, 3)))
            assert psd.call_count == 2

    def test_a_curve_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="curve has dimension 2, pencil has 3"):
            compose_curve(interval_moment_lmi(3, UNIT), moment_curve(2, UNIT).components)


class TestEvaluate:
    def test_matches_the_sum_of_scaled_matrices(self):
        rng = random.Random(23)

        def rand_sym(d):
            rows = [[None] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    rows[i][j] = rows[j][i] = (F(rng.randint(-9, 9), rng.randint(1, 50))
                                               if rng.random() < 0.6 else F(0))
            return rows

        for _ in range(60):
            d, n = rng.randint(1, 5), rng.randint(1, 6)
            blk = Block(size=d, a0=rand_sym(d), coeff=tuple(rand_sym(d) for _ in range(n)))
            x = [F(rng.randint(-20, 20), rng.randint(1, 30)) if rng.random() < 0.8 else 0
                 for _ in range(n)]
            xs, q = _over_lcm([F(v) for v in x])
            rows = blk.integer_rows(xs, q)
            # rows == c * (A + sum x_i B_i) for one c > 0
            flat = [v for r in rows for v in r]
            want = [a + sum(xi * b[i][j] for xi, b in zip(x, blk.coeff))
                    for i, r in enumerate(blk.a0) for j, a in enumerate(r)]
            assert all(type(v) is int for v in flat)
            nonzero = [(v, w) for v, w in zip(flat, want) if w]
            c = F(nonzero[0][0], nonzero[0][1]) if nonzero else F(1)
            assert c > 0
            assert flat == [c * w for w in want]

    def test_membership_counts(self):
        # a k-block pencil builds no Block and calls psd_check_exact once per
        # block up to the first block that rejects the point
        good = hankel_lmi(4).blocks[0]
        a0 = [list(r) for r in good.a0]
        a0[1][1] -= F(1, 10 ** 30)
        bad = Block(size=good.size, a0=a0, coeff=good.coeff)
        point = moment_vector(F(2, 3), 4)
        k = 4
        for reject in (*range(k), None):
            pencil = BlockLMI(n=4, blocks=tuple(bad if i == reject else good
                                                for i in range(k)))
            with mock.patch.object(lmi, "psd_check_exact",
                                   wraps=lmi.psd_check_exact) as psd, \
                    mock.patch.object(Block, "__post_init__", autospec=True,
                                      side_effect=Block.__post_init__) as built:
                assert lmi_membership(pencil, point) == (reject is None)
            assert psd.call_count == (k if reject is None else reject + 1)
            assert built.call_count == 0

    def test_hankel_block_lowered_below_psd_is_rejected(self):
        # at a curve point the Hankel block is v v^T, v = (1, t, t^2); lowering
        # a diagonal entry by 1/10^30 makes it indefinite (w orthogonal to v
        # with w_0 != 0 gives w^T M w < 0)
        blk = hankel_lmi(4).blocks[0]
        point = moment_vector(F(2, 3), 4)
        assert lmi_membership(hankel_lmi(4), point)
        eps = F(1, 10 ** 30)
        for i in range(blk.size):
            a0 = [list(r) for r in blk.a0]
            a0[i][i] -= eps
            lowered = Block(size=blk.size, a0=a0, coeff=blk.coeff)
            assert not lmi_membership(BlockLMI(n=4, blocks=(lowered,)), point)


class TestCertificates:
    def test_simple_square(self):
        f = (t - F(1, 2)) ** 2
        cert = sosx_certificate(f, ZeroPattern((F(1, 2),), (2,)), 1)
        assert cert.square_root == t - F(1, 2)
        assert cert.declared_rank == 2

    def test_scaled_quartic(self):
        f = 4 * ((t - F(1, 3)) * (t - F(2, 3))) ** 2
        cert = sosx_certificate(f, ZeroPattern((F(1, 3), F(2, 3)), (2, 2)), 4)
        assert cert.scale == 4
        assert cert.square_root == (t - F(1, 3)) * (t - F(2, 3))
        assert cert.declared_rank == 3
        assert cert.scale * cert.square_root ** 2 == f

    def test_the_square_root_carries_its_fractions_when_returned(self):
        f = 4 * ((t - F(1, 3)) * (t - F(2, 3))) ** 2
        cert = sosx_certificate(f, ZeroPattern((F(1, 3), F(2, 3)), (2, 2)), 4)
        assert cert.square_root.coeffs == (F(2, 9), -1, 1)

    def test_odd_multiplicity_rejected(self):
        f = (t - F(1, 2)) ** 3 * (t - F(1, 4))
        with pytest.raises(ValueError, match="must all be even"):
            sosx_certificate(f, ZeroPattern((F(1, 4), F(1, 2)), (1, 3)), 1)
        # g = prod (t - xi)^(b // 2) is 1 here, so the constant 1 would reconstruct
        with pytest.raises(ValueError, match="must all be even"):
            sosx_certificate(UniPoly.one(), ZeroPattern((F(1, 2),), (1,)), 1)

    def test_wrong_reconstruction_rejected(self):
        with pytest.raises(ValueError, match="reconstruction failed"):
            sosx_certificate((t - F(1, 2)) ** 2, ZeroPattern((F(1, 3),), (2,)), 1)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            sosx_certificate((t - F(1, 2)) ** 2, ZeroPattern((F(1, 2),), (2,)), 0)
        # -(t - 1/2)^2 is -1 * (t - 1/2)^2, so scale -1 would reconstruct
        with pytest.raises(ValueError, match="scale must be positive"):
            sosx_certificate(-(t - F(1, 2)) ** 2, ZeroPattern((F(1, 2),), (2,)), -1)


class TestSdpa:
    @pytest.mark.parametrize("name,build,objective", [
        ("hankel2.dat-s", lambda: hankel_lmi(2), (0, 0)),
        ("hankel4.dat-s", lambda: hankel_lmi(4), (0, 0, 0, 0)),
        ("interval_moment3.dat-s", lambda: interval_moment_lmi(3, UNIT), (0, 0, 0)),
    ])
    def test_golden_files(self, name, build, objective):
        assert emit_sdpa(build(), objective) == (GOLDEN / name).read_text()

    def test_objective_emitted(self):
        text = emit_sdpa(hankel_lmi(2), (0, 1))
        assert text.splitlines()[6] == "0 1"

    def test_objective_length_checked(self):
        with pytest.raises(ValueError):
            emit_sdpa(hankel_lmi(2), (0,))

    def test_lossy_flag(self):
        block = Block(1, [[F(1, 3)]], ([[1]],))
        text = emit_sdpa(BlockLMI(1, (block,)), (0,))
        assert "inexact" in text.splitlines()[2]
        assert "0.333333333333333333333333333333" in text

    def test_terminating_decimals_exact(self):
        block = Block(1, [[F(-3, 8)]], ([[F(1, 2)]],))
        text = emit_sdpa(BlockLMI(1, (block,)), (F(1, 4),))
        lines = text.splitlines()
        assert lines[2] == "* entries: exact"
        assert lines[6] == "0.25"
        assert "0 1 1 1 0.375" in lines  # -A = 3/8
        assert "1 1 1 1 0.5" in lines


def read_sdpa(text):
    """Parse sparse SDPA text back to (header comments, pencil, objective):
    F0 = -A and F_i = B_i, upper-triangle entries mirrored."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("*")]
    body = [line for line in lines if not line.startswith("*")]
    n, nblocks = int(body[0]), int(body[1])
    sizes = [int(v) for v in body[2].split()]
    assert len(sizes) == nblocks
    objective = tuple(F(v) for v in body[3].split())
    mats = [[[[F(0)] * d for _ in range(d)] for d in sizes] for _ in range(n + 1)]
    for line in body[4:]:
        matno, blkno, i, j, value = line.split()
        m = mats[int(matno)][int(blkno) - 1]
        m[int(i) - 1][int(j) - 1] = m[int(j) - 1][int(i) - 1] = F(value)
    blocks = tuple(Block(size=d, a0=[[-x for x in r] for r in mats[0][b]],
                         coeff=tuple(mats[v][b] for v in range(1, n + 1)))
                   for b, d in enumerate(sizes))
    return header, BlockLMI(n=n, blocks=blocks), objective


# rationals with 2^a 5^b denominators, so with terminating decimals; half are 0
decimal_rationals = st.one_of(
    st.just(F(0)),
    st.builds(lambda num, a, b: F(num, 2 ** a * 5 ** b),
              st.integers(-10 ** 6, 10 ** 6), st.integers(0, 12), st.integers(0, 12)))


@st.composite
def decimal_pencils(draw):
    n = draw(st.integers(1, 4))

    def sym(d):
        rows = [[F(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = draw(decimal_rationals)
        return rows

    blocks = []
    for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        blocks.append(Block(size=d, a0=sym(d), coeff=tuple(sym(d) for _ in range(n))))
    objective = tuple(draw(decimal_rationals) for _ in range(n))
    return BlockLMI(n=n, blocks=tuple(blocks)), objective


class TestSdpaRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(decimal_pencils())
    def test_terminating_entries_parse_back_exactly(self, drawn):
        pencil, objective = drawn
        header, back, back_objective = read_sdpa(emit_sdpa(pencil, objective))
        assert header[2] == "* entries: exact"
        assert back == pencil
        assert back_objective == objective

    @settings(max_examples=50, deadline=None)
    @given(decimal_pencils(), st.data())
    def test_a_non_terminating_entry_sets_the_inexact_header(self, drawn, data):
        pencil, objective = drawn
        b = data.draw(st.integers(0, len(pencil.blocks) - 1))
        blk = pencil.blocks[b]
        i = data.draw(st.integers(0, blk.size - 1))
        j = data.draw(st.integers(i, blk.size - 1))
        entry = F(3 * data.draw(st.integers(0, 10 ** 6)) + 1,
                  3 * 2 ** data.draw(st.integers(0, 6)))
        rows = [list(r) for r in blk.coeff[0]]
        rows[i][j] = rows[j][i] = entry
        coeff = (rows, *blk.coeff[1:])
        blocks = list(pencil.blocks)
        blocks[b] = Block(size=blk.size, a0=blk.a0, coeff=coeff)
        text = emit_sdpa(BlockLMI(n=pencil.n, blocks=tuple(blocks)), objective)
        header, back, _ = read_sdpa(text)
        assert header[2] == "* entries: inexact (rounded to 30 significant digits)"
        got = back.blocks[b].coeff[0][i][j]
        assert abs(got - entry) <= entry / 10 ** 29


class TestConstruction:
    @pytest.mark.parametrize("make, message", [
        (lambda one: BlockLMI(n=2, blocks=()), "at least one block"),
        (lambda one: BlockLMI(n=0, blocks=(Block(1, one, ()),)), "n must be a positive"),
        (lambda one: BlockLMI(n=True, blocks=(Block(1, one, (one,)),)), "n must be a positive"),
        (lambda one: BlockLMI(n=1.0, blocks=(Block(1, one, (one,)),)), "n must be a positive"),
        (lambda one: Block(size=0, a0=[], coeff=()), "size must be a positive"),
        (lambda one: Block(size=True, a0=one, coeff=(one,)), "size must be a positive"),
    ])
    def test_direct_construction_checks_the_same_counts(self, make, message):
        # the checks live in the classes, so a pencil that is never
        # serialized is held to them too
        with pytest.raises(ValueError, match=message):
            make([[1]])

    @pytest.mark.parametrize("a0, coeff, message", [
        ([[1, 0], [0, 1]], ([[1]],), "block matrices must share the block size"),
        ([[1]], ([[1, 0], [0, 1]],), "block matrices must share the block size"),
        ([[1, 0]], ([[1]],), "matrix is not square"),
        ([[1]], ([[1, 2], [3]],), "matrix is not square"),
        ([[1]], ([[1, 0], [2, 1]],), r"not symmetric at \(1,0\)"),
    ])
    def test_a_block_checks_its_matrices(self, a0, coeff, message):
        with pytest.raises(ValueError, match=message):
            Block(size=1, a0=a0, coeff=coeff)

    @pytest.mark.parametrize("a0, coeff", [([[0.5]], ([[1]],)), ([[1]], ([[F(1, 2)]], [[0.5]]))])
    def test_a_block_refuses_float_entries(self, a0, coeff):
        with pytest.raises(TypeError, match="a float is not an exact rational"):
            Block(size=1, a0=a0, coeff=coeff)

    def test_a_block_holds_fraction_rows_and_compares_by_value(self):
        blk = Block(size=2, a0=[[1, F(1, 2)], [F(1, 2), 0]], coeff=([[0, 1], [1, 0]],))
        assert blk.a0 == ((F(1), F(1, 2)), (F(1, 2), F(0)))
        assert all(type(x) is F for m in (blk.a0, *blk.coeff) for r in m for x in r)
        twin = Block(size=2, a0=((1, F(1, 2)), (F(1, 2), 0)), coeff=(((0, 1), (1, 0)),))
        assert blk == twin and hash(blk) == hash(twin) and len({blk, twin}) == 1
        assert blk != Block(size=2, a0=blk.a0, coeff=([[0, 1], [1, 1]],))


class TestJson:
    def test_roundtrip(self):
        for pencil in (hankel_lmi(4), interval_moment_lmi(3, UNIT),
                       interval_moment_lmi(2, Interval(F(-1, 3), F(5, 2)))):
            payload = lmi_to_json(pencil)
            text = json.dumps(payload)
            back = lmi_from_json(text)
            assert back == pencil

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_pencils_round_trip(self, data):
        n = data.draw(st.integers(1, 6))
        rational = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
        pencils = [hankel_lmi(n)] if n % 2 == 0 else []
        for _ in range(data.draw(st.integers(1, 3))):
            lo = data.draw(rational)
            width = data.draw(rational.filter(lambda w: w > 0))
            pencils.append(interval_moment_lmi(n, Interval(lo, lo + width)))
        blocks = [blk for pencil in pencils for blk in pencil.blocks]
        chosen = data.draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=4))
        pencil = BlockLMI(n=n, blocks=tuple(chosen))
        assert lmi_from_json(json.dumps(lmi_to_json(pencil))) == pencil
        assert lmi_from_json(lmi_to_json(pencil)) == pencil

    @pytest.mark.parametrize("payload", [
        {"n": 1.9, "blocks": [{"size": True, "A": ["1"], "B": [["1"]]}]},
        {"n": "1", "blocks": [{"size": 1, "A": ["1"], "B": [["1"]]}]},
        {"n": True, "blocks": [{"size": 1, "A": ["1"], "B": [["1"]]}]},
        {"n": 1, "blocks": [{"size": True, "A": ["1"], "B": [["1"]]}]},
        {"n": 1, "blocks": [{"size": 1.0, "A": ["1"], "B": [["1"]]}]},
        {"n": 1, "blocks": [{"size": 0, "A": [], "B": [[]]}]},
        {"n": 0, "blocks": []},
        {"n": 1, "blocks": []},
    ])
    def test_counts_must_be_positive_ints_and_blocks_nonempty(self, payload):
        with pytest.raises(ValueError):
            lmi_from_json(payload)
        with pytest.raises(ValueError):
            lmi_from_json(json.dumps(payload))

    @pytest.mark.parametrize("blocks", [
        [{"size": 1, "A": [0.3], "B": [["1"]]}],
        [{"size": 1, "A": [0.5], "B": [["1"]]}],
        [{"size": 1, "A": ["1"], "B": [[1.0]]}],
    ])
    def test_float_entries_are_refused(self, blocks):
        # even a float that is exactly a dyadic rational: the wire format is
        # strings or integers
        with pytest.raises(ValueError, match="malformed pencil payload: TypeError"):
            lmi_from_json({"n": 1, "blocks": blocks})

    @pytest.mark.parametrize("blocks", [
        [{"size": 1, "A": [True], "B": [["1"]]}],
        [{"size": 1, "A": ["1"], "B": [[False]]}],
    ])
    def test_bool_entries_are_refused(self, blocks):
        # JSON true/false are not the numbers 1 and 0
        with pytest.raises(ValueError, match="malformed pencil payload: TypeError: a bool is not"):
            lmi_from_json(json.dumps({"n": 1, "blocks": blocks}))

    @pytest.mark.parametrize("entry", ["1e3", "1E3", "1e30000000", "1.5e-3", " 1", "1/3 ",
                                       ".5", "5.", "0x10", "1_000", "inf", "nan", "", "+",
                                       "1/-3", "1//3"])
    def test_a_string_entry_outside_the_rational_grammar_is_refused(self, entry):
        # an integer, "p/q" or a terminating decimal, as on the command line:
        # Fraction would expand the exponent of "1e30000000" digit by digit
        with pytest.raises(ValueError, match="malformed pencil payload: cannot parse rational"):
            lmi_from_json({"n": 1, "blocks": [{"size": 1, "A": ["1"], "B": [[entry]]}]})

    def test_string_and_integer_entries_load_exactly(self):
        pencil = lmi_from_json({"n": 1, "blocks": [{"size": 2, "A": ["0.3", "3/10", "3/10", 1],
                                                    "B": [["1", 0, 0, "-2"]]}]})
        assert pencil.blocks[0].a0 == mat([[F(3, 10), F(3, 10)], [F(3, 10), 1]])
        assert pencil.blocks[0].coeff[0] == mat([[1, 0], [0, -2]])

    def test_written_entries_follow_the_rational_grammar(self):
        for pencil in (hankel_lmi(4), interval_moment_lmi(5, Interval(F(-7, 3), F(1, 9)))):
            payload = lmi_to_json(pencil)
            entries = [v for blk in payload["blocks"] for m in (blk["A"], *blk["B"]) for v in m]
            assert all(_RATIONAL_RE.fullmatch(v) for v in entries)
            assert any("/" in v for v in entries) or pencil == hankel_lmi(4)
            assert lmi_from_json(json.dumps(payload)) == pencil

    def test_schema_shape(self):
        payload = lmi_to_json(hankel_lmi(2))
        assert payload["n"] == 2
        blk = payload["blocks"][0]
        assert blk["size"] == 2
        assert blk["A"] == ["1", "0", "0", "0"]
        assert blk["B"][0] == ["0", "1", "1", "0"]


# -- SDPA decimals against the hand-rolled routines they replaced --------------

def old_terminating_decimal(q: F):
    """Oracle: the exact decimal string, by counting the factors 2 and 5."""
    den = q.denominator
    a = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    b = 0
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        return None
    e = max(a, b)
    if e == 0:
        return str(q.numerator)
    scaled = abs(q.numerator) * 10 ** e // q.denominator
    digits = str(scaled).rjust(e + 1, "0")
    head, tail = digits[:-e], digits[-e:].rstrip("0")
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def old_sig_digits(q: F, digits: int = 30) -> str:
    """Oracle: normalize by powers of 10, round half up and patch the carry."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    q = abs(q)
    exp = 0
    while q >= 10:
        q /= 10
        exp += 1
    while q < 1:
        q *= 10
        exp -= 1
    scaled = q * 10 ** (digits - 1)
    mantissa = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        mantissa += 1
    m = str(mantissa)
    if len(m) > digits:  # rounding carried over
        m = m[:digits]
        exp += 1
    point = exp + 1
    if 0 < point <= digits:
        out = m[:point] + "." + m[point:]
    elif -6 < point <= 0:
        out = "0." + "0" * (-point) + m
    else:
        out = m[0] + "." + m[1:] + f"e{exp}"
    if "." in out and "e" not in out:
        out = out.rstrip("0").rstrip(".")
    return sign + out


signs = st.sampled_from((1, -1))
# any magnitude from 10^-40 to 10^40, with denominators that do and do not terminate
wide_rationals = st.builds(
    lambda s, num, den, k: s * F(num, den) * F(10) ** k,
    signs, st.integers(1, 10 ** 35), st.integers(1, 10 ** 12), st.integers(-40, 40))
# exact ties at the 30th significant digit: 30 digits, then a 5
ties = st.builds(lambda s, m, k: s * F(2 * m + 1, 2) * F(10) ** k,
                 signs, st.integers(10 ** 29, 10 ** 30 - 1), st.integers(-45, 15))
# just below a power of ten, so that rounding carries: 0.999...95 and kin
carries = st.builds(lambda s, x, d, k: s * (1 - F(1, x * 10 ** d)) * F(10) ** k,
                    signs, st.sampled_from((1, 2, 3, 7, 20)), st.integers(28, 33),
                    st.integers(-40, 40))
terminating = st.builds(lambda s, num, a, b: s * F(num, 2 ** a * 5 ** b),
                        signs, st.integers(0, 10 ** 40), st.integers(0, 40), st.integers(0, 40))
# the decimal point lands at -6, -5, 0, 1, 30 or 31: values in [10^(p-1), 10^p)
at_points = st.builds(lambda s, head, num, den, p: s * (head + F(num % den, den)) * F(10) ** (p - 1),
                      signs, st.integers(1, 9), st.integers(0, 10 ** 12), st.integers(1, 10 ** 6),
                      st.sampled_from((-6, -5, 0, 1, 30, 31)))
sdpa_values = st.one_of(st.just(F(0)), wide_rationals, ties, carries, terminating, at_points)


class TestSdpaDecimals:
    @settings(max_examples=600, deadline=None)
    @given(sdpa_values)
    def test_same_text_as_the_hand_rolled_routines(self, q):
        assert lmi._terminating_decimal(q) == old_terminating_decimal(q)
        assert lmi._sig_digits(q) == old_sig_digits(q)

    @pytest.mark.parametrize("q, text", [
        (F(2 * 10 ** 30 - 1, 2 * 10 ** 30), "1"),  # 0.999...95: carries to 1
        (-F(2 * 10 ** 30 - 1, 2 * 10 ** 30), "-1"),
        (F(2 * 10 ** 30 - 1, 2 * 10 ** 36), "0.000001"),  # carry moves the point to -5
        (F(2 * 10 ** 30 - 1, 2), "1.00000000000000000000000000000e30"),  # carry past 30
        (F(1, 3), "0.333333333333333333333333333333"),
        (F(2, 3) * 10 ** 29, "66666666666666666666666666666.7"),
        (F(2, 3) * 10 ** 30, "666666666666666666666666666667"),
        (F(2, 3) * 10 ** 31, "6.66666666666666666666666666667e30"),
        (F(1, 3) / 10 ** 5, "0.00000333333333333333333333333333333"),
        (F(1, 3) / 10 ** 6, "3.33333333333333333333333333333e-7"),
        (F(2 * 10 ** 29 + 1, 2) / 10 ** 44, "1.00000000000000000000000000001e-15"),  # tie
    ])
    def test_known_texts(self, q, text):
        assert lmi._sig_digits(q) == old_sig_digits(q) == text

    @pytest.mark.parametrize("q, text", [
        (F(0), "0"), (F(-3), "-3"), (F(5, 2), "2.5"), (F(-1, 8), "-0.125"),
        (F(7, 2 ** 40), old_terminating_decimal(F(7, 2 ** 40))),
        (F(1, 3), None), (F(3, 7 * 2 ** 40), None),
    ])
    def test_known_terminating_decimals(self, q, text):
        assert lmi._terminating_decimal(q) == text
