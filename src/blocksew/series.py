"""Exact truncated formal series.

Three series-like objects cover everything downstream:

* LaurentJet   -- one variable, exponent window [lo, hi], exact rational
                  coefficients stored as integer numerators over one
                  denominator, in lowest terms (``nums``, ``den``); every
                  operation works on the integers and reduces once.
                  hi=None means the series is known exactly at
                  every order (a Laurent polynomial).  Coefficients below lo
                  are structurally zero; coefficients above hi are unknown.
                  Every operation computes the exact window of the result, so
                  an emitted coefficient is always correct, never an estimate.

* CoordJet     -- a jet a_1 z + a_2 z^2 + ... of an invertible local
                  coordinate change (a_1 != 0).  Coefficients may live in any
                  commutative ring with the usual operators; in practice that
                  is Fraction, or LaurentJet when the jet varies over a base
                  point.

* TruncSeries  -- several variables, truncation order per variable, one
                  rational exponent offset per variable (the monomials are
                  q^(offset+n)), and a bounded log degree per variable.
                  Stored as numerators ``nums`` over one denominator ``den``:
                  integers in lowest terms, or for a vector or matrix
                  series the QVec or QMat values over 1; every operation
                  ends in one TruncSeries._of_ints.

LaurentJet and TruncSeries compare their stored forms; ``coeffs`` and
``terms`` are read-only views for emitters.  A coefficient that is not
rational (a float, a Decimal), or a mix of kinds, is a TypeError.

The zero series has an empty coefficient map in all three.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .linalg import QMat, QVec, _combine, _ints, _lowest_terms, _of_one_den, _over_one_den, as_q

Q = Fraction


class SeriesError(Exception):
    pass


class VariableMismatch(SeriesError):
    pass


class OffsetError(SeriesError):
    pass


class LogOverflow(SeriesError):
    pass


class WindowError(SeriesError):
    pass


class NotInvertible(SeriesError):
    pass


def _min_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _is_ring_zero(x) -> bool:
    if isinstance(x, LaurentJet):
        return x.is_zero()
    if isinstance(x, (QVec, QMat)):
        return x.is_zero()
    return not x


def ring_one_like(x):
    if isinstance(x, LaurentJet):
        return LaurentJet.const(Q(1), var=x.var)
    return Q(1)


def ring_zero_like(x):
    if isinstance(x, LaurentJet):
        return LaurentJet.zero(var=x.var)
    return Q(0)


# ---------------------------------------------------------------------------
# LaurentJet


class LaurentJet:
    """Univariate Laurent series with an explicit exactness window.

    Stored as nonzero integer numerators ``nums`` (exponent -> int) over one
    denominator ``den``, in lowest terms with ``den > 0``, so equality is
    equality of the stored integers; ``coeffs`` is its rational view.
    """

    __slots__ = ("var", "nums", "den", "lo", "hi")

    def __init__(self, coeffs: Dict[int, Fraction], lo: int, hi: Optional[int], var: str = "z"):
        if hi is not None and hi < lo:
            raise WindowError(f"empty window [{lo}, {hi}]")
        clean: Dict[int, Fraction] = {}
        for e, v in coeffs.items():
            if e < lo or (hi is not None and e > hi):
                raise WindowError(f"exponent {e} outside window [{lo}, {hi}]")
            v = as_q(v)
            if v:
                clean[e] = v
        self.var, self.lo, self.hi = var, lo, hi
        # numerators over the lcm of lowest-terms denominators share no factor with it
        self.nums, self.den = _ints(clean)

    @classmethod
    def _of_ints(cls, nums: Dict[int, int], den: int, lo: int, hi: Optional[int], var: str) -> "LaurentJet":
        """The jet nums / den on [lo, hi] in the stored form (``linalg._lowest_terms``);
        the exponents must lie in the window."""
        if hi is not None and hi < lo:
            raise WindowError(f"empty window [{lo}, {hi}]")
        jet = cls.__new__(cls)
        jet.var, jet.lo, jet.hi = var, lo, hi
        jet.nums, jet.den = _lowest_terms(nums, den)
        return jet

    @property
    def coeffs(self) -> Mapping[int, Fraction]:
        """The coefficients as rationals, built on each read; a write into it raises TypeError."""
        return MappingProxyType(_of_one_den(self.nums, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "z") -> "LaurentJet":
        return cls._of_ints({}, 1, 0, None, var)

    @classmethod
    def const(cls, c, var: str = "z") -> "LaurentJet":
        return cls.monomial(c, 0, var)

    @classmethod
    def monomial(cls, c, e: int, var: str = "z") -> "LaurentJet":
        c = as_q(c)
        return cls._of_ints({e: c.numerator}, c.denominator, min(e, 0), None, var)

    # -- basic access ------------------------------------------------------

    def coeff(self, e: int) -> Fraction:
        """Exact coefficient of z^e; raises if e is beyond the known window."""
        if self.hi is not None and e > self.hi:
            raise WindowError(f"coefficient of {self.var}^{e} not covered by window [{self.lo}, {self.hi}]")
        return Q(self.nums.get(e, 0), self.den)

    def valuation(self) -> Optional[int]:
        """Smallest exponent with a nonzero coefficient, None for (window-)zero."""
        return min(self.nums) if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def truncated(self, hi: int) -> "LaurentJet":
        new_hi = hi if self.hi is None else min(hi, self.hi)
        return LaurentJet._of_ints({e: x for e, x in self.nums.items() if e <= new_hi}, self.den, self.lo, new_hi, self.var)

    # -- arithmetic --------------------------------------------------------

    def _check_var(self, other: "LaurentJet") -> None:
        if self.var != other.var:
            raise VariableMismatch(f"{self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, LaurentJet):
            other = LaurentJet.const(other, var=self.var)
        self._check_var(other)
        lo = min(self.lo, other.lo)
        hi = _min_hi(self.hi, other.hi)
        den = math.lcm(self.den, other.den)
        out: Dict[int, int] = {}
        for jet in (self, other):
            f = den // jet.den
            for e, x in jet.nums.items():
                if hi is None or e <= hi:
                    out[e] = out.get(e, 0) + x * f
        return LaurentJet._of_ints(out, den, lo, hi, self.var)

    __radd__ = __add__

    def __neg__(self):
        return LaurentJet._of_ints({e: -x for e, x in self.nums.items()}, self.den, self.lo, self.hi, self.var)

    def __sub__(self, other):
        if not isinstance(other, LaurentJet):
            other = LaurentJet.const(other, var=self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "LaurentJet":
        c = as_q(c)
        nums = {e: c.numerator * x for e, x in self.nums.items()} if c else {}
        return LaurentJet._of_ints(nums, self.den * c.denominator, self.lo, self.hi, self.var)

    def __mul__(self, other):
        if not isinstance(other, LaurentJet):
            return self.scale(other)
        self._check_var(other)
        lo = self.lo + other.lo
        # window of the product, which still matters for a zero factor
        hi = _min_hi(
            None if self.hi is None else self.hi + other.lo,
            None if other.hi is None else other.hi + self.lo,
        )
        ns2 = other.nums
        es2 = sorted(ns2)
        acc: Dict[int, int] = {}
        for e1, n1 in self.nums.items():
            # es2 is sorted, so the terms of e1 inside the window are a prefix
            for e2 in es2 if hi is None else es2[: bisect_right(es2, hi - e1)]:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * ns2[e2]
        return LaurentJet._of_ints(acc, self.den * other.den, lo, hi, self.var)

    __rmul__ = __mul__

    def inv(self, rel_order: Optional[int] = None) -> "LaurentJet":
        """Multiplicative inverse.

        A series known on [lo, hi] with valuation v has hi - v known terms past
        the leading one; the inverse inherits that relative precision.  For an
        exact input (hi=None) pass rel_order explicitly.
        """
        v = self.valuation()
        if v is None:
            raise NotInvertible("inverse of (window-)zero series")
        if self.hi is None:
            if rel_order is None:
                raise WindowError("inverse of an exact series needs an explicit rel_order")
            rel = rel_order
        else:
            rel = self.hi - v
            if rel_order is not None:
                rel = min(rel, rel_order)
        # self = z^v S / den with integer S = s_0 + s_1 z + ..., and
        # 1/S = sum_n t_n z^n / s_0^(n+1) with t_0 = 1 and integer
        # t_n = -sum_{k=1..n} s_k s_0^(k-1) t_(n-k)
        s0 = self.nums[v]
        scaled = [0] * (rel + 1)
        for e, n in self.nums.items():
            if 0 < e - v <= rel:
                scaled[e - v] = n * s0 ** (e - v - 1)
        t = [1]
        for n in range(1, rel + 1):
            # t is t_0..t_(n-1), so reversed(t) pairs s_k with t_(n-k)
            t.append(-sum(map(operator.mul, scaled[1 : n + 1], reversed(t))))
        # den t_n / s_0^(n+1) over the one denominator s_0^(rel+1)
        nums: Dict[int, int] = {}
        power = 1
        for n in range(rel, -1, -1):
            if t[n]:
                nums[n - v] = self.den * t[n] * power
            power *= s0
        return LaurentJet._of_ints(nums, power, -v, -v + rel, self.var)

    def __truediv__(self, other):
        if not isinstance(other, LaurentJet):
            return self.scale(1 / as_q(other))
        return self * _safe_inv(other)

    def __rtruediv__(self, other):
        return LaurentJet.const(other, var=self.var) / self

    def pow(self, k: int) -> "LaurentJet":
        return _powers(self)(k) if k >= 0 else _powers(self.inv())(-k)

    __pow__ = pow

    def derivative(self) -> "LaurentJet":
        return LaurentJet._of_ints(
            {e - 1: e * x for e, x in self.nums.items() if e},
            self.den,
            self.lo - 1,
            None if self.hi is None else self.hi - 1,
            self.var,
        )

    # -- conversion --------------------------------------------------------

    def to_coordjet(self, order: Optional[int] = None) -> "CoordJet":
        v = self.valuation()
        if v is not None and v < 1:
            raise NotInvertible("constant or principal part present; not a coordinate jet")
        exact = self.hi is None
        if order is None:
            if exact:
                order = max(self.nums, default=1)
            else:
                order = self.hi
        if not exact and order > self.hi:
            raise WindowError("requested jet order beyond known window")
        return CoordJet([Q(self.nums.get(k, 0), self.den) for k in range(1, order + 1)], exact=exact)

    def to_trunc_series(self, var: Optional[str] = None) -> "TruncSeries":
        if self.hi is None:
            hi = max(self.nums, default=0)
        else:
            hi = self.hi
        lo = min(self.valuation() if self.nums else 0, 0)
        nums = {((e - lo,), (0,)): x for e, x in self.nums.items()}
        return TruncSeries._of_ints((var or self.var,), (hi - lo,), (Q(lo),), (0,), nums, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentJet.const(other, var=self.var)
        if not isinstance(other, LaurentJet):
            return NotImplemented
        return (self.var, self.den, self.nums) == (other.var, other.den, other.nums)

    def __hash__(self):
        return hash((self.var, self.den, tuple(sorted(self.nums.items()))))

    def __repr__(self):
        terms = " + ".join(f"({v})*{self.var}^{e}" for e, v in sorted(self.coeffs.items())) or "0"
        hi = "inf" if self.hi is None else self.hi
        return f"<{terms} ; window [{self.lo},{hi}]>"


# ---------------------------------------------------------------------------
# CoordJet


class CoordJet:
    """Jet of an invertible coordinate change rho(z) = a_1 z + a_2 z^2 + ...

    ``order`` is the highest known degree; with exact=True all higher
    coefficients are exactly zero (the jet is a polynomial).
    """

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs: Sequence, exact: bool = False):
        self.coeffs = [c if isinstance(c, LaurentJet) else as_q(c) for c in coeffs]
        if not self.coeffs:
            raise NotInvertible("empty jet")
        self.exact = exact

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def a1(self):
        return self.coeffs[0]

    def check_invertible(self) -> None:
        if _is_ring_zero(self.a1):
            raise NotInvertible("linear coefficient a_1 vanishes")

    @classmethod
    def identity(cls, order: int = 1) -> "CoordJet":
        return cls([Q(1)] + [Q(0)] * (order - 1), exact=True)

    @classmethod
    def from_poly(cls, coeffs: Sequence) -> "CoordJet":
        return cls(coeffs, exact=True)

    def coefficient(self, k: int):
        """Coefficient of z^k, k >= 1."""
        if k < 1:
            raise IndexError(k)
        if k > self.order:
            if self.exact:
                return Q(0)
            raise WindowError(f"coefficient {k} beyond jet order {self.order}")
        return self.coeffs[k - 1]

    def truncate(self, order: int) -> "CoordJet":
        if order <= self.order:
            return CoordJet(self.coeffs[:order], exact=False)
        if self.exact:
            pad = [ring_zero_like(self.coeffs[0])] * (order - self.order)
            return CoordJet(self.coeffs + pad, exact=True)
        raise WindowError(f"jet only known to order {self.order}")

    def to_laurent(self, var: str = "z") -> LaurentJet:
        coeffs = {k + 1: c for k, c in enumerate(self.coeffs) if not _is_ring_zero(c)}
        return LaurentJet(coeffs, 1, None if self.exact else self.order, var)

    def scale(self, c) -> "CoordJet":
        c = as_q(c)
        return CoordJet([c * a for a in self.coeffs], exact=self.exact)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoordJet):
            return NotImplemented
        n = max(self.order, other.order)
        try:
            return all(self.coefficient(k) == other.coefficient(k) for k in range(1, n + 1))
        except WindowError:
            return self.coeffs == other.coeffs and self.exact == other.exact

    def __hash__(self):
        # __eq__ reads past the shorter jet as zeros, so trailing zeros must not count
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and _is_ring_zero(coeffs[-1]):
            coeffs.pop()
        return hash(tuple(coeffs))

    def __repr__(self):
        body = " + ".join(f"({c})*z^{k+1}" for k, c in enumerate(self.coeffs) if not _is_ring_zero(c)) or "0"
        return f"CoordJet<{body}{' exact' if self.exact else ''}>"


def _power_step(powers: List[Dict[int, object]], a: Sequence, n: int, zero) -> object:
    """Extend the table of B = b_1 z + b_2 z^2 + ... to degree n; return sum_j a_j [z^n] B^j.

    powers[j] = {m: [z^m] B^j} holds the nonzero entries; on entry powers[1]
    holds the b_m known so far and powers[j], j >= 2, the degrees below n.
    [z^n] B^j = sum_k b_k [z^(n-k)] B^(j-1) reads b_1..b_(n-1) only, so for
    j >= 2 it is filled in here; j runs to len(a) - 1, and the sum skips the
    terms whose a_j or table entry is zero.
    """
    for j in range(2, min(n, len(a) - 1) + 1):
        below, acc = powers[j - 1], zero
        for k, bk in powers[1].items():
            if k <= n - j + 1 and n - k in below:
                acc = acc + bk * below[n - k]
        if not _is_ring_zero(acc):
            powers[j][n] = acc
    return sum((aj * p[n] for aj, p in zip(a, powers) if n in p and not _is_ring_zero(aj)), zero)


def _is_rational(values) -> bool:
    """Whether every value is a Fraction, so that a kernel can run on integer numerators."""
    return all(isinstance(x, Fraction) for x in values)


def _monic_ints(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """A rational jet rho = a_1 z + a_2 z^2 + ... made monic and integral.

    With sigma = rho / a_1 and E the lcm of the denominators of a_j / a_1,
    sigma(E w) / E = w + sum_j u_j w^j has the integer coefficients u_j =
    (a_j / a_1) E^(j-1).  Returns ([1, u_2, u_3, ...], E).
    """
    a1 = coeffs[0]
    nums, e = _over_one_den(a / a1 for a in coeffs[1:])
    u, scale = [1], 1
    for x in nums:
        u.append(x * scale)
        scale *= e
    return u, e


def compose_jets(f: CoordJet, g: CoordJet) -> CoordJet:
    """Group law of coordinate changes: (f o g)(z) = f(g(z)).

    The result is exact only when both inputs are; otherwise its order is the
    minimum of the inexact inputs' orders, which is the full set of exactly
    determined coefficients.  [z^n] f(g) = sum_j a_j [z^n] g^j, on the power
    table of :func:`reverse_jet`.

    When every coefficient of f and g is a Fraction, the table runs on
    integers: with a_j = A_j / D_f and g = G / D_g for an integer jet G,
    [z^n] f(g) = sum_j A_j D_g^(J-j) [z^n] G^j / (D_f D_g^J), J the number
    of a_j read, and each output coefficient is one Fraction.  Any other
    coefficients (LaurentJets of a family jet) run in their own ring.
    """
    g.check_invertible()
    inexact = [h.order for h in (f, g) if not h.exact]
    cap = min(inexact) if inexact else f.order * g.order
    rational = _is_rational([*f.coeffs, *g.coeffs])
    if rational:
        nums, df = _over_one_den(f.coeffs[:cap])
        gs, dg = _over_one_den(g.coeffs[:cap])
        top = len(nums)
        zero, a = 0, [0] + [x * dg ** (top - j) for j, x in enumerate(nums, start=1)]
    else:
        gs, zero = g.coeffs, ring_zero_like(f.coeffs[0])
        a = [zero] + f.coeffs[:cap]
    powers: List[Dict[int, object]] = [{} for _ in a]
    out = []
    for n in range(1, cap + 1):
        if n <= g.order and not _is_ring_zero(gs[n - 1]):
            # a sum from zero, as every table entry: a LaurentJet's window starts at 0 or below
            powers[1][n] = zero + gs[n - 1]
        out.append(_power_step(powers, a, n, zero))
    if rational:
        den = df * dg**top
        out = [Q(x, den) for x in out]
    return CoordJet(out, exact=not inexact)


def reverse_jet(rho: CoordJet, order: Optional[int] = None) -> CoordJet:
    """Compositional inverse jet: compose(rho, reverse(rho)) = identity up to order.

    With B = b_1 z + b_2 z^2 + ... the inverse, [z^n] rho(B) = a_1 b_n +
    sum_{j=2..n} a_j [z^n] B^j vanishes for n >= 2.  The powers of B are built
    degree by degree alongside b (:func:`_power_step`), in O(order^3) ring
    operations.  ``order`` must be at least 1.

    When every coefficient is a Fraction, the reversion runs on integers, on
    the monic integer jet sigma(E w) / E of :func:`_monic_ints` (the scaling
    z -> E w of sigma = rho / a_1).  Its inverse T has integer coefficients
    t_n, and b_n = t_n / (E^(n-1) a_1^n), one Fraction per coefficient.  Any
    other coefficients (LaurentJets of a family jet) run in their own ring.
    """
    rho.check_invertible()
    if order is None:
        order = rho.order
    if order < 1:
        raise ValueError(f"reversion order must be at least 1, not {order}")
    if not rho.exact and order > rho.order:
        raise WindowError("cannot invert beyond the known jet order")
    rational = _is_rational(rho.coeffs)
    # a_j = 0 past an exact jet's order, so no power of B above it is needed
    if rational:
        u, e = _monic_ints(rho.coeffs[:order])
        zero, inv_a1, a = 0, 1, [0] + u
    else:
        zero = ring_zero_like(rho.a1)
        inv_a1 = ring_one_like(rho.a1) / rho.a1
        a = [zero] + rho.coeffs[:order]
    powers: List[Dict[int, object]] = [{}, {1: inv_a1}] + [{} for _ in a[2:]]
    b = [inv_a1]
    for n in range(2, order + 1):
        # powers[1] lacks b_n yet, so the sum is over j >= 2
        excess = _power_step(powers, a, n, zero)
        b.append(-excess * inv_a1 if not _is_ring_zero(excess) else zero)
        if not _is_ring_zero(b[-1]):
            powers[1][n] = b[-1]
    if rational:
        p, q = rho.a1.numerator, rho.a1.denominator
        b = [Q(t * q**n, e ** (n - 1) * p**n) for n, t in enumerate(b, start=1)]
    return CoordJet(b, exact=False)


DEFAULT_EXACT_PRECISION = 24


def jet_compose(outer: LaurentJet, inner: CoordJet) -> LaurentJet:
    """Substitution outer(inner(z)) for a Laurent window and a coordinate jet.

    Negative powers of the inner jet are expanded through its inverse
    a_1^{-1} z^{-1} (1 + ...)^{-1}.  The result window is computed so that all
    emitted coefficients are exact; when both inputs are exact polynomials
    (whose quotient is not) the inverse is taken to the precision of
    :func:`_safe_inv`.
    """
    inner.check_invertible()
    var = outer.var
    power = _powers(inner.to_laurent(var))
    terms = [(x, power(e)) for e, x in outer.nums.items()]
    lo = min((p.lo for _c, p in terms), default=0)
    # unknown outer coefficients above outer.hi pollute exponents > outer.hi
    hi = outer.hi
    for _c, p in terms:
        hi = _min_hi(hi, p.hi)
    # sum_e (x_e / D) inner^e, x_e / D the outer coefficients, as one int per exponent over one denominator
    parts = [({e: y for e, y in p.nums.items() if hi is None or e <= hi}, Q(x, p.den)) for x, p in terms]
    acc, den = _combine(parts)
    return LaurentJet._of_ints(acc, den * outer.den, lo, hi, var)


def _safe_inv(lt: LaurentJet) -> LaurentJet:
    """Inverse of a window, or of an exact polynomial to 4 * degree (at least 24) terms."""
    if lt.hi is None:
        # an exact zero has no degree, and its inverse is NotInvertible like any zero's
        return lt.inv(rel_order=max(max(lt.nums, default=0) * 4, DEFAULT_EXACT_PRECISION))
    return lt.inv()


def _powers(lt: LaurentJet) -> Callable[[int], LaurentJet]:
    """Memo e -> lt^e, negative e included: lt^(e-1) lt above 1, lt^(e+1) lt^-1 below -1.

    lt^-1 is :func:`_safe_inv` of lt, built when a negative power is first read.
    """
    pows = {0: LaurentJet.const(1, var=lt.var), 1: lt}

    def power(e: int) -> LaurentJet:
        if e < 0 and -1 not in pows:
            pows[-1] = _safe_inv(lt)
        step = 1 if e > 0 else -1
        for n in range(2 * step, e + step, step):
            if n not in pows:
                pows[n] = pows[n - step] * pows[step]
        return pows[e]

    return power


def residue(f: LaurentJet):
    """Coefficient of z^{-1}; structurally zero when the window sits above -1."""
    if f.lo > -1:
        return Q(0)
    return f.coeff(-1)


# ---------------------------------------------------------------------------
# TruncSeries


Value = Union[Fraction, QVec, QMat]
Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _vmul(x: Value, y: Value) -> Value:
    """Product of two coefficients; ``*`` covers a rational factor on either
    side, and raises TypeError for a pair that has no product here."""
    if isinstance(x, QMat) and isinstance(y, QMat):
        return x @ y
    if isinstance(x, QMat) and isinstance(y, QVec):
        return x.apply(y)
    return x * y


def _kind(nums: Mapping[Key, object]) -> Optional[type]:
    """What a series' numerators are: int for a rational series, QVec or QMat
    for a vector or matrix series, None when there are none."""
    for x in nums.values():
        return type(x)
    return None


def _numerators(terms: Mapping[Key, Value]) -> Tuple[Dict[Key, object], int]:
    """Coefficients of one kind as stored numerators over one denominator:
    rationals over their lcm, or QVec or QMat values over 1.  A coefficient
    that is none of these, or a mix of kinds, is a TypeError."""
    kinds = {type(v) if isinstance(v, (QVec, QMat)) else Fraction for v in terms.values()}
    if len(kinds) > 1:
        raise TypeError(f"a series holds one kind of coefficient, not {sorted(k.__name__ for k in kinds)}")
    if kinds == {Fraction}:
        # as_q raises TypeError for a float, a Decimal or anything else not rational
        return _ints({key: as_q(v) for key, v in terms.items()})
    return dict(terms), 1


def _stored(nums: Dict[Key, object], den: int) -> Tuple[Dict[Key, object], int]:
    """Numerators of one kind over a nonzero ``den`` in the stored form:
    integers through ``linalg._lowest_terms``; QVec or QMat values divided by
    den, over 1, with the zero ones dropped."""
    if _kind(nums) in (None, int):
        return _lowest_terms(nums, den)
    if den != 1:
        f = Q(1, den)
        nums = {key: x.scale(f) for key, x in nums.items()}
    return {key: x for key, x in nums.items() if not x.is_zero()}, 1


def _accumulate(acc: Dict[Key, object], key: Key, x) -> None:
    """acc[key] += x, for integer and for QVec or QMat numerators; a sum that cancels stays."""
    cur = acc.get(key)
    acc[key] = x if cur is None else cur + x


class TruncSeries:
    """Truncated formal series in several variables with offsets and log terms.

    A key ((n_1..n_k), (l_1..l_k)) with coefficient c represents the monomial
    c * prod_j q_j^(offset_j + n_j) (log q_j)^(l_j), with 0 <= n_j <= trunc_j
    and 0 <= l_j <= logmax_j.

    The coefficients are stored as nonzero numerators ``nums`` ({key:
    numerator}) over one denominator ``den``, of one kind: integers in lowest
    terms with ``den > 0`` for a rational series, or QVec or QMat values (each
    already integers over its own denominator) with ``den == 1`` for a vector
    or matrix series.  Equality and hashing read that stored form; ``terms``
    is the coefficient view.
    """

    __slots__ = ("vars", "trunc", "offset", "logmax", "nums", "den")

    def __init__(
        self,
        vars: Sequence[str],
        trunc: Dict[str, int],
        offset: Optional[Dict[str, Fraction]] = None,
        logmax: Optional[Dict[str, int]] = None,
        terms: Optional[Mapping[Key, Value]] = None,
    ):
        self.vars: Tuple[str, ...] = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise VariableMismatch(f"repeated variable in {self.vars}")
        self.trunc: Tuple[int, ...] = tuple(int(trunc[v]) for v in self.vars)
        off = offset or {}
        self.offset: Tuple[Fraction, ...] = tuple(as_q(off.get(v, 0)) for v in self.vars)
        lm = logmax or {}
        self.logmax: Tuple[int, ...] = tuple(int(lm.get(v, 0)) for v in self.vars)
        checked = {self._key(exps, logs): val for (exps, logs), val in (terms or {}).items()}
        self.nums, self.den = _stored(*_numerators(checked))

    @classmethod
    def _of_ints(cls, vars, trunc, offset, logmax, nums: Dict[Key, object], den: int) -> "TruncSeries":
        """nums / den on the shape (vars, trunc, offset, logmax), as tuples, in the
        stored form (:func:`_stored`); the keys must lie in the shape."""
        s = cls.__new__(cls)
        s.vars, s.trunc, s.offset, s.logmax = vars, trunc, offset, logmax
        s.nums, s.den = _stored(nums, den)
        return s

    def _like(self, nums: Dict[Key, object], den: int, trunc=None, offset=None, logmax=None) -> "TruncSeries":
        """nums / den on the same variables; a tuple given replaces that part of the shape."""
        trunc = self.trunc if trunc is None else trunc
        offset = self.offset if offset is None else offset
        return TruncSeries._of_ints(self.vars, trunc, offset, self.logmax if logmax is None else logmax, nums, den)

    def _key(self, exps: Sequence[int], logs: Sequence[int]) -> Key:
        """The key of a term, once it is checked to lie in the shape."""
        key = exps, logs = tuple(exps), tuple(logs)
        if len(exps) != len(self.vars) or len(logs) != len(self.vars):
            raise VariableMismatch("key arity does not match variables")
        for n, t in zip(exps, self.trunc):
            if not 0 <= n <= t:
                raise WindowError(f"exponent {exps} outside truncation {self.trunc}")
        for l, m in zip(logs, self.logmax):
            if not 0 <= l <= m:
                raise LogOverflow(f"log degree {logs} beyond declared bound {self.logmax}")
        return key

    def _store(self, exps: Tuple[int, ...], logs: Tuple[int, ...], val: Value) -> None:
        """Add val to the coefficient at (exps, logs) in place, as a sum of two series."""
        total = self + self._like(*_numerators({self._key(exps, logs): val}))
        self.nums, self.den = total.nums, total.den

    @property
    def terms(self) -> Mapping[Key, Value]:
        """The coefficients, rationals built on each read or the stored QVec or
        QMat values; a write into it raises TypeError."""
        if _kind(self.nums) is int:
            return MappingProxyType(_of_one_den(self.nums, self.den))
        return MappingProxyType(self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c, vars: Sequence[str], trunc: Dict[str, int], **kw) -> "TruncSeries":
        return cls.monomial(c, vars, trunc, **kw)

    @classmethod
    def monomial(cls, c, vars: Sequence[str], trunc: Dict[str, int], exps: Optional[Dict[str, int]] = None, logs: Optional[Dict[str, int]] = None, **kw) -> "TruncSeries":
        e = tuple(int((exps or {}).get(v, 0)) for v in vars)
        l = tuple(int((logs or {}).get(v, 0)) for v in vars)
        return cls(vars, trunc, terms={(e, l): c}, **kw)

    # -- access ------------------------------------------------------------

    def coefficient(self, exps: Dict[str, int], logs: Optional[Dict[str, int]] = None) -> Value:
        e = tuple(int(exps.get(v, 0)) for v in self.vars)
        l = tuple(int((logs or {}).get(v, 0)) for v in self.vars)
        for n, t in zip(e, self.trunc):
            if n > t:
                raise WindowError(f"coefficient {exps} beyond truncation")
        x = self.nums.get((e, l))
        if x is None:
            return Q(0)
        return Q(x, self.den) if isinstance(x, int) else x

    def is_zero(self) -> bool:
        return not self.nums

    def var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise VariableMismatch(f"no variable {var} in {self.vars}") from None

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "TruncSeries") -> Tuple["TruncSeries", "TruncSeries"]:
        """Renormalize two series to a common offset per variable.

        Offsets differing by a non-integer in any shared variable are an
        error: such series live in different sectors.
        """
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        if self.offset == other.offset:
            return self, other
        shifts_a: List[int] = []
        shifts_b: List[int] = []
        new_off: List[Fraction] = []
        tops: List[Fraction] = []
        for oa, ta, ob, tb in zip(self.offset, self.trunc, other.offset, other.trunc):
            d = oa - ob
            if d.denominator != 1:
                raise OffsetError(f"offsets {oa} and {ob} differ by a non-integer")
            base = min(oa, ob)
            new_off.append(base)
            shifts_a.append(int(oa - base))
            shifts_b.append(int(ob - base))
            # exact absolute window top: offset + trunc
            tops.append(min(oa + ta, ob + tb) - base)
        if min(tops) < 0:
            raise WindowError("no common exact window after offset renormalization")
        trunc, offset = tuple(map(int, tops)), tuple(new_off)

        def rebase(s: "TruncSeries", shifts: List[int]) -> "TruncSeries":
            nums = {}
            for (exps, logs), x in s.nums.items():
                e = tuple(map(operator.add, exps, shifts))
                if all(map(operator.le, e, trunc)):
                    nums[e, logs] = x
            return s._like(nums, s.den, trunc, offset)

        return rebase(self, shifts_a), rebase(other, shifts_b)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        a, b = self._aligned(other)
        kinds = {_kind(a.nums), _kind(b.nums)} - {None}
        if len(kinds) > 1:
            raise TypeError(f"cannot add series of {sorted(k.__name__ for k in kinds)} coefficients")
        trunc = tuple(map(min, a.trunc, b.trunc))
        den = math.lcm(a.den, b.den)
        out: Dict[Key, object] = {}
        for src in (a, b):
            f = den // src.den
            cut = src.trunc != trunc
            for key, x in src.nums.items():
                if not cut or all(map(operator.le, key[0], trunc)):
                    _accumulate(out, key, x if f == 1 else x * f)
        return a._like(out, den, trunc, logmax=tuple(map(max, a.logmax, b.logmax)))

    def __neg__(self) -> "TruncSeries":
        return self._like({key: -x for key, x in self.nums.items()}, self.den)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, c) -> "TruncSeries":
        c = as_q(c)
        p = c.numerator
        return self._like({key: p * x for key, x in self.nums.items()} if p else {}, self.den * c.denominator)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        trunc = tuple(map(min, self.trunc, other.trunc))
        logmax = tuple(map(max, self.logmax, other.logmax))
        # integers multiply as integers; a QVec or QMat factor through _vmul
        mul = operator.mul if {_kind(self.nums), _kind(other.nums)} <= {None, int} else _vmul
        right = list(other.nums.items())
        acc: Dict[Key, object] = {}
        for (e1, l1), x1 in self.nums.items():
            for (e2, l2), x2 in right:
                e = tuple(map(operator.add, e1, e2))
                if any(map(operator.gt, e, trunc)):
                    continue
                l = tuple(map(operator.add, l1, l2))
                if any(map(operator.gt, l, logmax)):
                    raise LogOverflow(f"product log degree {l} exceeds declared bound {logmax}")
                _accumulate(acc, (e, l), mul(x1, x2))
        return self._like(acc, self.den * other.den, trunc, tuple(map(operator.add, self.offset, other.offset)), logmax)

    __rmul__ = scale

    def qdq(self, var: str) -> "TruncSeries":
        """Logarithmic derivative q d/dq in the given variable (offset-aware).

        With offset p/r the monomial q^(p/r + n) log(q)^l goes to
        ((p + r n) q^(p/r + n) log(q)^l + r l q^(p/r + n) log(q)^(l-1)) / r,
        so the numerators stay integers over r times the denominator.
        """
        j = self.var_index(var)
        lam = self.offset[j]
        p, r = lam.numerator, lam.denominator
        acc: Dict[Key, object] = {}
        for (exps, logs), x in self.nums.items():
            power = p + r * exps[j]
            if power:
                _accumulate(acc, (exps, logs), power * x)
            if logs[j]:
                lowered = logs[:j] + (logs[j] - 1,) + logs[j + 1 :]
                _accumulate(acc, (exps, lowered), logs[j] * r * x)
        return self._like(acc, self.den * r)

    def normalized(self) -> "TruncSeries":
        """Fold integer offsets into exponents when all exponents remain >= 0."""
        shifts = [int(o) if o.denominator == 1 and o >= 0 else 0 for o in self.offset]
        nums = {(tuple(map(operator.add, exps, shifts)), logs): x for (exps, logs), x in self.nums.items()}
        return self._like(nums, self.den, tuple(map(operator.add, self.trunc, shifts)), tuple(map(operator.sub, self.offset, shifts)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a = self.normalized()
        b = other.normalized()
        return (a.vars, a.offset, a.den, a.nums) == (b.vars, b.offset, b.den, b.nums)

    def __hash__(self):
        n = self.normalized()
        return hash((n.vars, n.offset, n.den, tuple(sorted(n.nums))))

    def __repr__(self):
        def mono(exps, logs):
            parts = []
            for v, o, n, l in zip(self.vars, self.offset, exps, logs):
                p = o + n
                if p:
                    parts.append(f"{v}^{p}")
                if l:
                    parts.append(f"log({v})^{l}")
            return "*".join(parts) or "1"

        body = " + ".join(
            f"({val})*{mono(e, l)}" for (e, l), val in sorted(self.terms.items())
        ) or "0"
        return f"TruncSeries<{body}>"


def diagonal_contract(d: TruncSeries) -> TruncSeries:
    """Diagonal of a bivariate series: sum_n D_{n,n} q^n.

    Equals Res_{xi=0} D(xi, q/xi) dxi/xi and Res_{pi=0} D(q/pi, pi) dpi/pi.
    Requires a plain bivariate series: no offsets, no log terms.
    """
    if len(d.vars) != 2:
        raise VariableMismatch("diagonal contraction needs a bivariate series")
    if any(d.offset) or any(d.logmax):
        raise OffsetError("diagonal contraction requires zero offsets and no log terms")
    t = min(d.trunc)
    nums = {((exps[0],), (0,)): x for (exps, _logs), x in d.nums.items() if exps[0] == exps[1] <= t}
    return TruncSeries._of_ints(("q",), (t,), (Q(0),), (0,), nums, d.den)
