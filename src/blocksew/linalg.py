"""Sparse linear algebra over exact rationals.

Everything in this package that looks like a matrix is a QMat, and every
vector of one is a QVec.  Both store integer numerators over one
denominator, in one canonical form: the denominator is positive and shares
no factor with every numerator, and no entry (no row) is zero, so equality
is equality of the stored integers.  ``rows``, ``data``, ``get`` and
``to_rows`` build Fractions for outside readers on each read.  Solving and
kernels go through a fraction-free (Bareiss) Gauss-Jordan elimination over
integers with a fixed pivot order, so repeated runs produce identical output.

The O(n^3) kernels (the QMat product here, and in other modules the
coordinate-change exponential, the bracket check, slot contraction and the
recursions over series) run on that format, and this module is its one
home: ``_over_one_den`` and ``_ints`` take rationals there, ``_of_ints``
takes integers over any nonzero denominator to the stored form (through
``_lowest_terms``, which ``series.LaurentJet`` shares),
``_int_product`` and ``_add_scaled`` combine integer rows, ``_combine`` sums
parts under rational factors, and ``_of_one_den`` brings sums back, one
Fraction (one gcd) per output entry instead of one per product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple, TypeVar

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
    """Sparse rational vector of fixed dimension.

    Stored as nonzero integer numerators ``nums`` over one denominator
    ``den``, in lowest terms with ``den > 0``; ``data`` is its rational view.
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, data: Optional[Dict[int, Fraction]] = None):
        clean = {}
        for i, v in (data or {}).items():
            v = as_q(v)
            if v:
                if not 0 <= i < n:
                    raise IndexError(f"index {i} out of range for dim {n}")
                clean[i] = v
        self.n = n
        self.nums, self.den = _ints(clean)

    @classmethod
    def _of_ints(cls, n: int, nums: Dict[int, int], den: int) -> "QVec":
        """The vector nums / den in the stored form (:func:`_lowest_terms`)."""
        vec = cls.__new__(cls)
        vec.n = n
        vec.nums, vec.den = _lowest_terms(nums, den)
        return vec

    @property
    def data(self) -> Mapping[int, Fraction]:
        """The entries as rationals, built on each read; a write into it raises TypeError."""
        return MappingProxyType(_of_one_den(self.nums, self.den))

    @classmethod
    def from_list(cls, values) -> "QVec":
        return cls(len(values), dict(enumerate(values)))

    def to_list(self) -> List[Fraction]:
        return [self[i] for i in range(self.n)]

    def __getitem__(self, i: int) -> Fraction:
        return Q(self.nums.get(i, 0), self.den)

    def __add__(self, other: "QVec") -> "QVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return QVec._of_ints(self.n, *_combine([(self.nums, Q(1, self.den)), (other.nums, Q(1, other.den))]))

    def __sub__(self, other: "QVec") -> "QVec":
        return self + (-other)

    def __neg__(self) -> "QVec":
        return self.scale(-1)

    def scale(self, c) -> "QVec":
        c = as_q(c)
        return QVec._of_ints(self.n, {i: c.numerator * x for i, x in self.nums.items()}, self.den * c.denominator)

    __rmul__ = scale
    __mul__ = scale

    def norm_inf(self) -> Fraction:
        return Q(max(map(abs, self.nums.values()), default=0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return isinstance(other, QVec) and (self.n, self.den, self.nums) == (other.n, other.den, other.nums)

    def __hash__(self):
        return hash((self.n, self.den, tuple(sorted(self.nums.items()))))

    def __repr__(self):
        return f"QVec({self.n}, {{{', '.join(f'{i}: {v}' for i, v in sorted(self.data.items()))}}})"


class QMat:
    """Sparse rational matrix.

    Stored as rows of nonzero integer numerators ``nums``, ``{i: {j: int}}``
    with no empty row, over one denominator ``den``, in lowest terms with
    ``den > 0``; ``rows`` is its rational view.
    """

    __slots__ = ("nrows", "ncols", "nums", "den")

    def __init__(self, nrows: int, ncols: int, rows: Optional[Dict[int, Dict[int, Fraction]]] = None):
        clean = {}
        for i, r in (rows or {}).items():
            r = {j: q for j, v in r.items() if (q := as_q(v))}
            if r:
                if not 0 <= i < nrows or not all(0 <= j < ncols for j in r):
                    raise IndexError(f"entry in row {i} out of range for shape {nrows}x{ncols}")
                clean[i] = r
        self.nrows, self.ncols = nrows, ncols
        self.den = math.lcm(*(v.denominator for r in clean.values() for v in r.values()))
        self.nums = {i: _ints(r, self.den)[0] for i, r in clean.items()}

    @classmethod
    def _of_ints(cls, nrows: int, ncols: int, rows: Dict[int, Dict[int, int]], den: int) -> "QMat":
        """The matrix rows / den in the stored form: zeros and empty rows dropped,
        lowest terms, den > 0.  A row with no zero is kept, not copied."""
        clean = {}
        g = abs(den)
        for i, r in rows.items():
            if 0 in r.values():
                r = {j: x for j, x in r.items() if x}
            if r:
                clean[i] = r
                if g != 1:
                    g = math.gcd(g, *r.values())
        g = g if den > 0 else -g
        mat = cls.__new__(cls)
        mat.nrows, mat.ncols, mat.den = nrows, ncols, den // g
        mat.nums = clean if g == 1 else {i: {j: x // g for j, x in r.items()} for i, r in clean.items()}
        return mat

    @property
    def rows(self) -> Mapping[int, Dict[int, Fraction]]:
        """The rows as rationals, built on each read; a write into it raises TypeError."""
        return MappingProxyType({i: _of_one_den(r, self.den) for i, r in self.nums.items()})

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls._of_ints(n, n, {i: {i: 1} for i in range(n)}, 1)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "QMat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, {i: dict(enumerate(r)) for i, r in enumerate(rows)})

    def to_rows(self) -> List[List[Fraction]]:
        return [[self.get(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def get(self, i: int, j: int) -> Fraction:
        return Q(self.nums.get(i, {}).get(j, 0), self.den)

    def __add__(self, other: "QMat") -> "QMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        rows: Dict[int, Dict[int, int]] = {}
        _add_scaled(rows, self.nums, den // self.den)
        _add_scaled(rows, other.nums, den // other.den)
        return QMat._of_ints(self.nrows, self.ncols, rows, den)

    def __sub__(self, other: "QMat") -> "QMat":
        return self + other.scale(-1)

    def __neg__(self) -> "QMat":
        return self.scale(-1)

    def scale(self, c) -> "QMat":
        c = as_q(c)
        p = c.numerator
        rows = {i: {j: p * x for j, x in r.items()} for i, r in self.nums.items()}
        return QMat._of_ints(self.nrows, self.ncols, rows, self.den * c.denominator)

    __rmul__ = scale
    __mul__ = scale

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return QMat._of_ints(self.nrows, other.ncols, _int_product(self.nums, other.nums), self.den * other.den)

    def apply(self, vec: QVec) -> QVec:
        if vec.n != self.ncols:
            raise ValueError("dimension mismatch")
        x = vec.nums
        out = {i: sum(a * x[j] for j, a in r.items() if j in x) for i, r in self.nums.items()}
        return QVec._of_ints(self.nrows, out, self.den * vec.den)

    def transpose(self) -> "QMat":
        out: Dict[int, Dict[int, int]] = {}
        for i, r in self.nums.items():
            for j, x in r.items():
                out.setdefault(j, {})[i] = x
        return QMat._of_ints(self.ncols, self.nrows, out, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMat)
            and (self.nrows, self.ncols, self.den) == (other.nrows, other.ncols, other.den)
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, tuple(sorted((i, tuple(sorted(r.items()))) for i, r in self.nums.items()))))

    def norm_rowsum(self) -> Fraction:
        """Max absolute row sum; submultiplicative operator norm for inf-norm vectors."""
        return Q(max((sum(map(abs, r.values())) for r in self.nums.values()), default=0), self.den)

    def __repr__(self):
        return f"QMat({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.nums.values())})"


def solve(mat: QMat, rhs: QVec) -> Optional[Tuple[QVec, List[QVec]]]:
    """Solve mat @ x = rhs exactly.

    Returns (particular, kernel_basis) with the particular solution supported
    on pivot columns only (minimal support in the fixed pivot order), or None
    if inconsistent.  The kernel basis is deterministic: one vector per free
    column, entry 1 there.

    The elimination is a fraction-free (Bareiss) Gauss-Jordan over integers:
    with mat = M / d and rhs = b / D in their stored integers, it solves
    M y = d b for y = D x.  The pivot is the first nonzero entry at or below
    the current rank in the leftmost column, and every row becomes
    (p row - c pivot_row) / p_prev, an exact division; at the end every
    pivot entry equals the last pivot.
    """
    if rhs.n != mat.nrows:
        raise ValueError("dimension mismatch")
    ncols = mat.ncols
    rows = []
    for i in range(mat.nrows):
        row = [0] * (ncols + 1)
        for j, x in mat.nums.get(i, {}).items():
            row[j] = x
        row[ncols] = mat.den * rhs.nums.get(i, 0)
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
    part = QVec._of_ints(ncols, {col: rows[k][ncols] for k, col in enumerate(pivots)}, p_prev * rhs.den)
    kernel = [
        QVec._of_ints(ncols, {free: p_prev, **{col: -rows[k][free] for k, col in enumerate(pivots)}}, p_prev)
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


def _lowest_terms(nums: Dict[K, int], den: int) -> Tuple[Dict[K, int], int]:
    """Integer numerators over a nonzero ``den`` in the stored form: zeros
    dropped, lowest terms, den > 0.  ``nums`` is kept, not copied, when it
    has no zero and nothing cancels."""
    if 0 in nums.values():
        nums = {k: x for k, x in nums.items() if x}
    g = math.gcd(den, *nums.values())
    g = g if den > 0 else -g
    return (nums if g == 1 else {k: x // g for k, x in nums.items()}), den // g


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
