import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blocksew.linalg import QMat, QVec, _combine, _ints, _of_one_den, _over_one_den, solve
from helpers import fraction_matmul, fraction_solve

Q = Fraction
SEED = 4711


def small(rnd):
    return Q(rnd.randint(-5, 5), rnd.randint(1, 4)) if rnd.random() < 0.7 else Q(0)


def huge(rnd):
    return Q(rnd.randint(-(10**300), 10**300), rnd.randint(1, 10**300))


def system(rnd, kind):
    """A seeded system of dim 1-6 of the given kind, as dense Fraction rows."""
    nrows, ncols = rnd.randint(1, 6), rnd.randint(1, 6)
    if kind == "nonsingular":
        ncols = nrows
        # unit upper triangular times a row permutation: always invertible
        rows = [[Q(1) if j == i else (small(rnd) if j > i else Q(0)) for j in range(ncols)] for i in range(nrows)]
        lower = [[small(rnd) if j < i else Q(int(i == j)) for j in range(nrows)] for i in range(nrows)]
        rows = [[sum(lower[i][k] * rows[k][j] for k in range(nrows)) for j in range(ncols)] for i in range(nrows)]
        rnd.shuffle(rows)
    else:
        rows = [[small(rnd) for _ in range(ncols)] for _ in range(nrows)]
    if kind in ("kernel", "inconsistent") and nrows > 1:
        i, j = rnd.sample(range(nrows), 2)
        rows[i] = [Q(rnd.randint(-3, 3), rnd.randint(1, 3)) * x for x in rows[j]]
    if kind == "zero rows":
        for i in rnd.sample(range(nrows), rnd.randint(1, nrows)):
            rows[i] = [Q(0)] * ncols
    if kind in ("kernel", "zero rows"):
        # consistent by construction: rhs = rows @ x0
        x0 = [small(rnd) for _ in range(ncols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    elif kind == "huge rhs":
        rhs = [huge(rnd) for _ in range(nrows)]
    else:
        rhs = [small(rnd) for _ in range(nrows)]
    return rows, rhs


def as_dicts(sol):
    if sol is None:
        return None
    part, kernel = sol
    return dict(part.data), [dict(v.data) for v in kernel]


class TestFractionFreeSolve:
    KINDS = ("nonsingular", "kernel", "inconsistent", "zero rows", "huge rhs")

    def test_matches_fraction_gauss_jordan(self):
        rnd = random.Random(SEED)
        seen = {"solved": 0, "kernel": 0, "inconsistent": 0}
        for t in range(600):
            rows, rhs = system(rnd, self.KINDS[t % len(self.KINDS)])
            mat = QMat.from_rows(rows)
            got = solve(mat, QVec.from_list(rhs))
            want = fraction_solve(rows, rhs)
            assert as_dicts(got) == want, (rows, rhs)
            if got is None:
                seen["inconsistent"] += 1
                continue
            part, kernel = got
            assert mat.apply(part) == QVec.from_list(rhs)
            assert all(mat.apply(v).is_zero() for v in kernel)
            seen["kernel" if kernel else "solved"] += 1
        assert min(seen.values()) >= 50, seen

    def test_huge_rhs_on_nonsingular_matrices(self):
        rnd = random.Random(SEED + 1)
        for _ in range(40):
            rows, _ = system(rnd, "nonsingular")
            rhs = [huge(rnd) for _ in rows]
            got = solve(QMat.from_rows(rows), QVec.from_list(rhs))
            assert as_dicts(got) == fraction_solve(rows, rhs)
            assert got[1] == []

    def test_zero_matrix_and_zero_rhs(self):
        part, kernel = solve(QMat(2, 3), QVec(2))
        assert part.is_zero() and [v.data for v in kernel] == [{0: 1}, {1: 1}, {2: 1}]
        assert solve(QMat(2, 3), QVec.from_list([0, 1])) is None


class TestShape:
    def test_entries_outside_the_shape_are_rejected(self):
        with pytest.raises(IndexError):
            QMat(2, 2, {0: {5: 1}})
        with pytest.raises(IndexError):
            QMat(2, 2, {7: {0: 1}})
        with pytest.raises(IndexError):
            QMat(2, 2, {-1: {0: 1}})
        with pytest.raises(IndexError):
            QMat(2, 2, {0: {-1: 1}})

    def test_zero_entries_are_dropped_like_in_qvec(self):
        # QVec ignores a zero at any index; a matrix does the same
        assert QMat(2, 2, {0: {5: 0}, 7: {0: Fraction(0)}}).is_zero()
        assert QVec(2, {9: 0}).is_zero()
        m = QMat(2, 3, {1: {2: Fraction(1, 2)}})
        assert m.to_rows() == [[0, 0, 0], [0, 0, Fraction(1, 2)]] and not m.is_zero()

    def test_from_rows_stays_in_shape(self):
        m = QMat.from_rows([[1, 0, 2], [0, 0, 3]])
        assert (m.nrows, m.ncols) == (2, 3) and m.rows == {0: {0: 1, 2: 2}, 1: {2: 3}}


def canonical(x) -> bool:
    """Whether a QMat or QVec is in its stored form: den > 0, lowest terms, no zero entry, no empty row."""
    rows = list(x.nums.values()) if isinstance(x, QMat) else [x.nums]
    values = [v for r in rows for v in r.values()]
    return x.den > 0 and math.gcd(x.den, *values) == 1 and all(values) and (isinstance(x, QVec) or all(rows))


class TestStoredForm:
    def test_of_ints_takes_any_nonzero_denominator_to_the_stored_form(self):
        m = QMat._of_ints(2, 3, {0: {0: 4, 1: 0}, 1: {2: 0}}, -6)
        assert (m.nums, m.den) == ({0: {0: -2}}, 3) and m == QMat(2, 3, {0: {0: Q(-2, 3)}})
        v = QVec._of_ints(3, {0: 0, 2: -10}, -4)
        assert (v.nums, v.den) == ({2: 5}, 2) and v == QVec(3, {2: Q(5, 2)})
        assert QMat._of_ints(1, 1, {0: {0: 0}}, -7).den == QVec._of_ints(1, {}, 9).den == 1

    def test_views_are_read_only_copies(self):
        m, v = QMat.from_rows([[Q(1, 2), 0]]), QVec.from_list([0, Q(2, 3)])
        with pytest.raises(TypeError):
            m.rows[0] = {}
        with pytest.raises(TypeError):
            v.data[0] = Q(1)
        m.rows[0][1] = Q(5)
        assert m.rows == {0: {0: Q(1, 2)}} and not hasattr(m, "set_")


# entries from a small signed set, so products often cancel to 0; 0 leaves holes and empty rows
ENTRIES = st.sampled_from([Q(0), Q(0), Q(0), Q(1), Q(-1), Q(2), Q(-1, 2), Q(1, 2), Q(2, 3), Q(-5, 997)])


@st.composite
def sparse_pair(draw):
    """Two random sparse matrices of compatible, possibly non-square, shapes."""
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = [[draw(ENTRIES) for _ in range(k)] for _ in range(n)]
    b = [[draw(ENTRIES) for _ in range(m)] for _ in range(k)]
    return QMat(n, k, {i: dict(enumerate(r)) for i, r in enumerate(a)}), QMat(k, m, {i: dict(enumerate(r)) for i, r in enumerate(b)})


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=sparse_pair())
    def test_product_matches_fraction_loop(self, pair):
        a, b = pair
        got = a @ b
        assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
        # rows compare as dicts: no zero entry and no empty row may survive
        assert got.rows == fraction_matmul(a, b)
        assert all(type(v) is Fraction for r in got.rows.values() for v in r.values())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pair=sparse_pair(), c=ENTRIES, data=st.data())
    def test_every_result_is_in_the_stored_form(self, pair, c, data):
        # so equal values are equal stored integers, and hash alike
        a, b = pair
        vec = QVec.from_list([data.draw(ENTRIES) for _ in range(a.ncols)])
        for m in (a, a @ b, a + a.scale(c), a - a, -a, a.transpose(), QMat.identity(a.ncols)):
            again = QMat(m.nrows, m.ncols, m.rows)
            assert canonical(m) and m == again and hash(m) == hash(again)
        for v in (vec, a.apply(vec), vec.scale(c), vec - vec, vec + vec):
            again = QVec(v.n, v.data)
            assert canonical(v) and v == again and hash(v) == hash(again)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pair=sparse_pair(), c=ENTRIES)
    def test_sum_and_scale_match_entrywise(self, pair, c):
        a, _ = pair
        assert (a + a.scale(c)).to_rows() == [[x + c * x for x in row] for row in a.to_rows()]
        assert (a - a).rows == {}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=sparse_pair(), data=st.data())
    def test_apply_matches_fraction_loop(self, pair, data):
        a, _ = pair
        vec = QVec.from_list([data.draw(ENTRIES) for _ in range(a.ncols)])
        got = a.apply(vec)
        want = {i: sum((x * vec[j] for j, x in r.items()), Q(0)) for i, r in a.rows.items()}
        assert got.n == a.nrows and got.data == {i: v for i, v in want.items() if v}
        assert all(type(v) is Fraction for v in got.data.values())

    def test_apply_that_cancels_to_zero(self):
        a = QMat.from_rows([[1, 1], [Q(1, 3), Q(2, 3)], [0, 0]])
        assert a.apply(QVec.from_list([Q(5, 997), Q(-5, 997)])).data == {1: Q(-5, 2991)}
        assert a.apply(QVec(2)).data == {}
        with pytest.raises(ValueError):
            a.apply(QVec(3))

    def test_product_that_cancels_to_zero(self):
        a = QMat.from_rows([[1, 1], [0, 0], [Q(1, 3), Q(2, 3)]])
        b = QMat.from_rows([[Q(2, 7), 0], [Q(-2, 7), 0]])
        got = a @ b
        assert got.rows == {2: {0: Q(-2, 21)}}
        assert (QMat(3, 2) @ b).rows == {} and (a @ QMat(2, 4)).rows == {}

    def test_one_denominator_round_trip(self):
        values = [Q(1, 6), Q(-3, 4), Q(0), Q(5)]
        nums, den = _over_one_den(values)
        assert (nums, den) == ([2, -9, 0, 60], 12)
        assert _over_one_den(values, 24) == ([4, -18, 0, 120], 24)
        assert _over_one_den([]) == ([], 1)
        assert _of_one_den(dict(enumerate(nums)), den) == {0: Q(1, 6), 1: Q(-3, 4), 3: Q(5)}
        mat = QMat.from_rows([[Q(1, 2), 0], [0, Q(2, 3)]])
        assert (mat.nums, mat.den) == ({0: {0: 3}, 1: {1: 4}}, 6)


# signed rationals: zero, denominator 1, and numerators and denominators over 997
RATIONALS = st.one_of(
    st.sampled_from([Q(0), Q(1), Q(-1), Q(-5, 997), Q(1000, 1009)]),
    st.builds(Q, st.integers(-2000, 2000), st.integers(1, 2000)),
)
NUMERATORS = st.dictionaries(st.integers(0, 5), st.integers(-2000, 2000), max_size=5)


class TestOneDenominatorVocabulary:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mapping=st.dictionaries(st.integers(0, 9), RATIONALS, max_size=8), extra=st.integers(1, 5))
    def test_ints_is_the_mapping_over_one_denominator(self, mapping, extra):
        nums, den = _ints(mapping)
        assert list(nums) == list(mapping) and all(type(x) is int for x in nums.values())
        assert den == math.lcm(*(v.denominator for v in mapping.values()))
        assert {k: Q(x, den) for k, x in nums.items()} == mapping
        assert _ints(mapping, den * extra) == ({k: x * extra for k, x in nums.items()}, den * extra)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(parts=st.lists(st.tuples(NUMERATORS, RATIONALS), max_size=5))
    def test_combine_is_the_fraction_sum(self, parts):
        total, den = _combine(parts)
        want = {}
        for nums, f in parts:
            for k, x in nums.items():
                want[k] = want.get(k, Q(0)) + f * x
        assert den == math.lcm(*(f.denominator for _, f in parts))
        # every key of a part is kept, a cancelled one as a zero
        assert total.keys() == want.keys() and all(type(x) is int for x in total.values())
        assert {k: Q(x, den) for k, x in total.items()} == want

    def test_combine_of_cancelling_and_empty_parts(self):
        assert _combine([]) == ({}, 1)
        assert _combine([({}, Q(1, 3))]) == ({}, 3)
        assert _combine([({0: 3, 1: 1}, Q(1, 2)), ({0: 3}, Q(-1, 2)), ({1: 5}, Q(0))]) == ({0: 0, 1: 1}, 2)
        assert _combine([({0: 1}, Q(5, 997)), ({0: 1}, Q(-5, 997))]) == ({0: 0}, 997)
