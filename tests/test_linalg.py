import random
from fractions import Fraction

import pytest

from blocksew.linalg import QMat, QVec, solve
from helpers import fraction_solve

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
