"""Sparse linear algebra over exact rationals.

Everything in this package that looks like a matrix is a QMat: a sparse
row-dict matrix with Fraction entries.  Solving and kernels go through a
fraction-free (Bareiss) Gauss-Jordan elimination over integers with a fixed
pivot order, so repeated runs produce identical output.

The O(n^3) kernels (the QMat product here, and in other modules the
coordinate-change exponential, the bracket check, slot contraction and the
recursions over series) run on integer numerators over one denominator, and
this module is that format's one home: ``_over_one_den``, ``_ints`` and
``_int_rows`` take rationals there, ``_int_product`` and ``_add_scaled``
combine integer rows, ``_combine`` sums parts under rational factors,
``_of_one_den`` brings the sums back, one Fraction (one gcd) per output entry
instead of one per product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

Q = Fraction
K = TypeVar("K", bound=Hashable)


def as_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def parse_rational(s: str) -> Fraction:
    """Parse a decimal-free rational string like '3/4' or '-2'; a zero
    denominator is a ValueError like any other malformed string."""
    if not isinstance(s, str):
        raise ValueError(f"not a rational string: {s!r}")
    t = s.strip()
    body = t[1:] if t[:1] in "+-" else t
    if not body or not all(part.isdigit() for part in body.split("/", 1)) or body.count("/") > 1:
        raise ValueError(f"not a rational string: {s!r}")
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


class QVec:
    """Sparse rational vector of fixed dimension."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: Optional[Dict[int, Fraction]] = None):
        self.n = n
        self.data: Dict[int, Fraction] = {}
        if data:
            for i, v in data.items():
                v = as_q(v)
                if v:
                    if not 0 <= i < n:
                        raise IndexError(f"index {i} out of range for dim {n}")
                    self.data[i] = v

    @classmethod
    def from_list(cls, values) -> "QVec":
        return cls(len(values), {i: as_q(v) for i, v in enumerate(values)})

    def to_list(self) -> List[Fraction]:
        return [self.data.get(i, Q(0)) for i in range(self.n)]

    def __getitem__(self, i: int) -> Fraction:
        return self.data.get(i, Q(0))

    def __add__(self, other: "QVec") -> "QVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self.data)
        for i, v in other.data.items():
            w = out.get(i, Q(0)) + v
            if w:
                out[i] = w
            else:
                out.pop(i, None)
        return QVec(self.n, out)

    def __sub__(self, other: "QVec") -> "QVec":
        return self + (-other)

    def __neg__(self) -> "QVec":
        return QVec(self.n, {i: -v for i, v in self.data.items()})

    def scale(self, c) -> "QVec":
        c = as_q(c)
        if not c:
            return QVec(self.n)
        return QVec(self.n, {i: c * v for i, v in self.data.items()})

    __rmul__ = scale
    __mul__ = scale

    def norm_inf(self) -> Fraction:
        return max((abs(v) for v in self.data.values()), default=Q(0))

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        return isinstance(other, QVec) and self.n == other.n and self.data == other.data

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.data.items()))))

    def __repr__(self):
        return f"QVec({self.n}, {{{', '.join(f'{i}: {v}' for i, v in sorted(self.data.items()))}}})"


class QMat:
    """Sparse rational matrix, rows as dicts."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Optional[Dict[int, Dict[int, Fraction]]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: Dict[int, Dict[int, Fraction]] = {}
        if rows:
            for i, r in rows.items():
                clean = {j: as_q(v) for j, v in r.items() if v}
                if clean:
                    if not 0 <= i < nrows or not all(0 <= j < ncols for j in clean):
                        raise IndexError(f"entry in row {i} out of range for shape {nrows}x{ncols}")
                    self.rows[i] = clean

    @classmethod
    def _of_clean(cls, nrows: int, ncols: int, rows: Dict[int, Dict[int, Fraction]]) -> "QMat":
        """Wrap rows that are already clean: non-empty dicts of nonzero Fractions."""
        mat = cls.__new__(cls)
        mat.nrows, mat.ncols, mat.rows = nrows, ncols, rows
        return mat

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls._of_clean(n, n, {i: {i: Q(1)} for i in range(n)})

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "QMat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, {i: {j: as_q(v) for j, v in enumerate(r) if as_q(v)} for i, r in enumerate(rows)})

    def to_rows(self) -> List[List[Fraction]]:
        return [[self.get(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def get(self, i: int, j: int) -> Fraction:
        return self.rows.get(i, {}).get(j, Q(0))

    def set_(self, i: int, j: int, v) -> None:
        v = as_q(v)
        if not 0 <= i < self.nrows or not 0 <= j < self.ncols:
            raise IndexError((i, j))
        row = self.rows.setdefault(i, {})
        if v:
            row[j] = v
        else:
            row.pop(j, None)
            if not row:
                self.rows.pop(i, None)

    def __add__(self, other: "QMat") -> "QMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        rows = {i: dict(r) for i, r in self.rows.items()}
        for i, r in other.rows.items():
            row = rows.setdefault(i, {})
            for j, v in r.items():
                w = row[j] + v if j in row else v
                if w:
                    row[j] = w
                else:
                    del row[j]
            if not row:
                del rows[i]
        return QMat._of_clean(self.nrows, self.ncols, rows)

    def __sub__(self, other: "QMat") -> "QMat":
        return self + other.scale(-1)

    def __neg__(self) -> "QMat":
        return self.scale(-1)

    def scale(self, c) -> "QMat":
        c = as_q(c)
        if not c:
            return QMat(self.nrows, self.ncols)
        rows = {i: {j: c * v for j, v in r.items()} for i, r in self.rows.items()}
        return QMat._of_clean(self.nrows, self.ncols, rows)

    __rmul__ = scale
    __mul__ = scale

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        a, da = _int_rows(self)
        b, db = _int_rows(other)
        den = da * db
        rows = {i: _of_one_den(r, den) for i, r in _int_product(a, b).items()}
        return QMat._of_clean(self.nrows, other.ncols, rows)

    def apply(self, vec: QVec) -> QVec:
        if vec.n != self.ncols:
            raise ValueError("dimension mismatch")
        rows, da = _int_rows(self)
        x, dx = _ints(vec.data)
        out = {i: sum(a * x[j] for j, a in r.items() if j in x) for i, r in rows.items()}
        return QVec(self.nrows, _of_one_den(out, da * dx))

    def transpose(self) -> "QMat":
        out: Dict[int, Dict[int, Fraction]] = {}
        for i, r in self.rows.items():
            for j, v in r.items():
                out.setdefault(j, {})[i] = v
        return QMat._of_clean(self.ncols, self.nrows, out)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMat)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(sorted((i, tuple(sorted(r.items()))) for i, r in self.rows.items()))))

    def norm_rowsum(self) -> Fraction:
        """Max absolute row sum; submultiplicative operator norm for inf-norm vectors."""
        return max((sum(abs(v) for v in r.values()) for r in self.rows.values()), default=Q(0))

    def __repr__(self):
        return f"QMat({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.rows.values())})"


def solve(mat: QMat, rhs: QVec) -> Optional[Tuple[QVec, List[QVec]]]:
    """Solve mat @ x = rhs exactly.

    Returns (particular, kernel_basis) with the particular solution supported
    on pivot columns only (minimal support in the fixed pivot order), or None
    if inconsistent.  The kernel basis is deterministic: one vector per free
    column, entry 1 there.

    The elimination is a fraction-free (Bareiss) Gauss-Jordan over integers:
    each row of ``mat`` is scaled by the lcm of its denominators and the rhs by
    one common denominator D, solving for y = D x.  The pivot is the first
    nonzero entry at or below the current rank in the leftmost column, and
    every row becomes (p row - c pivot_row) / p_prev, an exact division; at
    the end every pivot entry equals the last pivot.
    """
    if rhs.n != mat.nrows:
        raise ValueError("dimension mismatch")
    ncols = mat.ncols
    bnums, den = _ints(rhs.data)
    rows = []
    for i in range(mat.nrows):
        r = mat.rows.get(i, {})
        nums, scale = _ints(r)
        row = [0] * (ncols + 1)
        for j, n in nums.items():
            row[j] = n
        row[ncols] = scale * bnums.get(i, 0)
        rows.append(row)
    pivots: List[int] = []
    p_prev = 1
    for col in range(ncols):
        rank = len(pivots)
        sel = next((i for i in range(rank, mat.nrows) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i, row in enumerate(rows):
            if i != rank:
                c = row[col]
                rows[i] = [(p * a - c * b) // p_prev for a, b in zip(row, prow)]
        pivots.append(col)
        p_prev = p
        if rank + 1 == mat.nrows:
            break
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    part = QVec(ncols, {col: Q(rows[k][ncols], p_prev * den) for k, col in enumerate(pivots)})
    kernel = [
        QVec(ncols, {free: Q(1), **{col: Q(-rows[k][free], p_prev) for k, col in enumerate(pivots)}})
        for free in range(ncols)
        if free not in pivots
    ]
    return part, kernel


# ---------------------------------------------------------------------------
# integer numerators over one denominator


def _over_one_den(values: Iterable[Fraction], den: Optional[int] = None) -> Tuple[List[int], int]:
    """Rationals as integer numerators over one denominator, in order.

    The denominator is ``den`` when given (a common multiple of theirs),
    else their least common one; 1 for no values.
    """
    values = list(values)
    if den is None:
        den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _ints(mapping: Dict[K, Fraction], den: Optional[int] = None) -> Tuple[Dict[K, int], int]:
    """``_over_one_den`` of a mapping's values, keyed as the mapping."""
    nums, den = _over_one_den(mapping.values(), den)
    return dict(zip(mapping, nums)), den


def _of_one_den(nums: Dict[K, int], den: int) -> Dict[K, Fraction]:
    """Integer numerators over ``den`` back to rationals; zeros are left out."""
    if den == 1:
        return {k: Q(n) for k, n in nums.items() if n}
    return {k: Q(n, den) for k, n in nums.items() if n}


def _int_rows(mat: QMat) -> Tuple[Dict[int, Dict[int, int]], int]:
    """The rows of a matrix as integer numerators over one denominator."""
    den = math.lcm(*(v.denominator for r in mat.rows.values() for v in r.values()))
    return {i: _ints(r, den)[0] for i, r in mat.rows.items()}, den


def _combine(parts: Iterable[Tuple[Dict[K, int], Fraction]]) -> Tuple[Dict[K, int], int]:
    """sum_k f_k nums_k for integer numerators nums_k and rational factors
    f_k, as numerators over the lcm of the factors' denominators; entries
    that cancel stay as zeros."""
    parts = list(parts)
    den = math.lcm(*(f.denominator for _, f in parts))
    out: Dict[K, int] = {}
    for nums, f in parts:
        s = f.numerator * (den // f.denominator)
        for k, x in nums.items():
            out[k] = out.get(k, 0) + x * s
    return out, den


def _add_scaled(into: Dict[int, Dict[int, int]], rows: Dict[int, Dict[int, int]], f: int) -> None:
    """into += f rows, on integer rows; entries that cancel stay as zeros."""
    for i, r in rows.items():
        row = into.setdefault(i, {})
        for j, x in r.items():
            row[j] = row.get(j, 0) + f * x


def _int_product(a: Dict[int, Dict[int, int]], b: Dict[int, Dict[int, int]]) -> Dict[int, Dict[int, int]]:
    """Sparse product of integer rows, as clean rows: no zero entry, no empty row."""
    out: Dict[int, Dict[int, int]] = {}
    for i, r in a.items():
        acc: Dict[int, int] = {}
        for k, x in r.items():
            brow = b.get(k)
            if brow:
                for j, y in brow.items():
                    acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out
