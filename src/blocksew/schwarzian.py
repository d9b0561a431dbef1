"""Schwarzian calculus on jets and the projective term of the sewing equation.

The Schwarzian derivative S f = f'''/f' - (3/2)(f''/f')^2 vanishes exactly on
Mobius maps and measures deviation from a projective chart.  The projective
term assembles, from Schwarzian data at the sewing pairs and the marked
points, the q-series multiplying a sewn block in its first-order equation:

    (c/12) * (A + B + sum_i C_i)

with A_n = sum_{m<=n-2} a_{m,n} s^(xi)_{n-m-2}, B_n the mirror image with the
indices of b swapped, and C_i the residue of S_eta * h_i.  projective_term_multi
computes it for M pairs at once; projective_term is its case M = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .linalg import _combine, as_q
from .series import (
    CoordJet,
    LaurentJet,
    NotInvertible,
    OffsetError,
    SeriesError,
    TruncSeries,
    VariableMismatch,
    WindowError,
    _kind,
    jet_compose,
    reverse_jet,
)

Q = Fraction

JetLike = Union[CoordJet, LaurentJet]


def _as_laurent(f: JetLike, work: int) -> LaurentJet:
    lt = f.to_laurent() if isinstance(f, CoordJet) else f
    if lt.hi is None or lt.hi > work:
        lt = lt.truncated(work)
    return lt


def schwarzian_jet(f: JetLike, order: int) -> LaurentJet:
    """S f as a window-tracked Laurent series in the jet variable."""
    lt = _as_laurent(f, order + 3)
    d1 = lt.derivative()
    if d1.valuation() is None:
        raise NotInvertible("derivative vanishes on the window")
    d2 = d1.derivative()
    d3 = d2.derivative()
    inv_d1 = d1.inv()
    r = d2 * inv_d1
    s = d3 * inv_d1 - r * r * Q(3, 2)
    if s.hi is not None and s.hi > order:
        s = s.truncated(order)
    return s


def schwarzian(f: JetLike, order: int) -> TruncSeries:
    """Schwarzian derivative as a truncated series (see schwarzian_jet)."""
    return schwarzian_jet(f, order).to_trunc_series()


def transition_quadratic(g: JetLike, h: CoordJet, order: int) -> LaurentJet:
    """S_h g pulled back to the underlying variable: S(g o h^{-1})(h(z)) h'(z)^2.

    g and h are functions of a common variable; the result is the coefficient
    series of the quadratic differential S_h g dh^2 expressed in that variable.
    """
    hinv = reverse_jet(h, order=order + 4)
    glt = _as_laurent(g, order + 4)
    comp = jet_compose(glt, hinv)
    s = schwarzian_jet(comp, order + 2)
    pulled = jet_compose(s, h.truncate(min(h.order, order + 4)) if not h.exact else h)
    hp = _as_laurent(h, order + 3).derivative()
    out = pulled * hp * hp
    if out.hi is not None and out.hi > order:
        out = out.truncated(order)
    return out


def cocycle_check(eta: CoordJet, mu: CoordJet, f: CoordJet, order: int) -> bool:
    """Antisymmetry and the three-term cocycle for Schwarzian differentials.

    All three jets are coordinates in one variable; both identities are checked
    after pulling every quadratic differential back to that variable.
    """
    t_eta_mu = transition_quadratic(eta, mu, order)
    t_mu_eta = transition_quadratic(mu, eta, order)
    if not _jets_equal(t_eta_mu, -t_mu_eta, order):
        return False
    t_f_mu = transition_quadratic(f, mu, order)
    t_eta_f = transition_quadratic(eta, f, order)
    total = t_f_mu + t_eta_f + t_mu_eta
    return _jets_equal(total, LaurentJet.zero(total.var), order)


def _jets_equal(a: LaurentJet, b: LaurentJet, order: int) -> bool:
    """Whether a and b agree at every exponent up to order, both windows covering it."""
    for e in range(min(a.lo, b.lo), order + 1):
        if (a.hi is not None and e > a.hi) or (b.hi is not None and e > b.hi):
            raise WindowError(f"comparison window {order} not covered (exponent {e})")
        # a_e = x / a.den and b_e = y / b.den are equal when x b.den = y a.den
        if a.nums.get(e, 0) * b.den != b.nums.get(e, 0) * a.den:
            return False
    return True


def vir_transition(jet: CoordJet, c, order: int) -> Tuple[TruncSeries, TruncSeries]:
    """Action of a transition jet on the conformal vector: scale and shift.

    Returns ((d eta/d mu)^2, (c/12) S jet) as series in the jet variable; the
    shift must agree with the operator of the jet applied to the conformal
    vector, which is checked independently in the test-suite through the
    module machinery.
    """
    c = as_q(c)
    lt = _as_laurent(jet, order + 3)
    d1 = lt.derivative()
    scale = (d1 * d1).truncated(order)
    shift = schwarzian_jet(jet, order).scale(c / 12)
    return scale.to_trunc_series(), shift.to_trunc_series()


def mobius_from_quadratic(qcoeffs: Sequence, order: int) -> CoordJet:
    """Construct a jet whose Schwarzian is the given power series.

    Solves h'' + Q h / 2 = 0 twice, with (h(0), h'(0)) = (1, 0) and (0, 1),
    and returns h_2/h_1.  Useful as a generator of projective-chart test data.
    """
    qs = [as_q(x) for x in qcoeffs]

    def solve(h0, h1) -> List[Fraction]:
        h = [as_q(h0), as_q(h1)]
        for k in range(0, order):
            conv = sum((qs[j] * h[k - j] for j in range(min(k, len(qs) - 1) + 1) if j < len(qs)), Q(0))
            h.append(-conv / (2 * (k + 1) * (k + 2)))
        return h

    h1 = solve(1, 0)
    h2 = solve(0, 1)
    j1 = LaurentJet({e: v for e, v in enumerate(h1) if v}, 0, order + 1)
    j2 = LaurentJet({e: v for e, v in enumerate(h2) if v}, 0, order + 1)
    f = j2 * j1.inv()
    return f.truncated(order).to_coordjet(order)


# ---------------------------------------------------------------------------
# projective term


def _abs_coeff(s: TruncSeries, k: int) -> int:
    """Numerator, over ``s.den``, of the absolute exponent k in a checked Schwarzian datum."""
    rel = k - s.offset[0]
    if rel.denominator != 1 or rel < 0:
        return 0
    if rel > s.trunc[0]:
        raise WindowError(f"Schwarzian datum truncated below exponent {k}")
    return s.nums.get(((int(rel),), (0,)), 0)


def _check_rational(where: str, *series: TruncSeries) -> None:
    """The term reads integer numerators, so a vector or matrix series is a TypeError."""
    if any(_kind(s.nums) not in (None, int) for s in series):
        raise TypeError(f"{where}: the series must have rational coefficients")


def _check_datum(where: str, sdat: TruncSeries) -> None:
    _check_rational(where, sdat)
    if len(sdat.vars) != 1:
        raise VariableMismatch(f"{where}: Schwarzian data must be univariate")
    if any(logs[0] for _exps, logs in sdat.nums):
        raise SeriesError(f"{where}: Schwarzian data cannot carry log terms")


def _check_pair(
    j: int, s_xi: TruncSeries, s_pi: TruncSeries, a: TruncSeries, b: TruncSeries, width: int, delta: int, order: int
) -> None:
    """Reject pair j unless every coefficient the term reads from it is exact."""
    _check_rational(f"pair {j}", a, b)
    if a.vars != b.vars:
        raise VariableMismatch(f"pair {j}: a in {a.vars} but b in {b.vars}")
    if len(a.vars) not in (2, width):
        raise VariableMismatch(f"pair {j}: a and b must be series in (xi, pi) or in {width} variables")
    if any(a.offset) or any(b.offset):
        raise OffsetError(f"pair {j}: a and b cannot carry offsets")
    # a is read up to xi^(order-2) pi^order, b up to xi^order pi^(order-2), both up to order in the spectators
    spect = (order,) * (len(a.vars) - 2)
    for series, need in ((a, (order - 2, order) + spect), (b, (order, order - 2) + spect)):
        if any(t < w for t, w in zip(series.trunc, need)):
            raise WindowError(f"pair {j}: pair data truncated below requested order {order}")
    for sdat in (s_xi, s_pi):
        _check_datum(f"pair {j}", sdat)
        if order >= 2 and sdat.offset[0] + sdat.trunc[0] < order - 2:
            raise WindowError(f"pair {j}: Schwarzian datum truncated below the requested order")
    # the lift a + b = delta, key by key on the common window, as
    # a_num db + b_num da = delta da db; with equal truncations every stored
    # key lies in it
    an, da, bn, db = a.nums, a.den, b.nums, b.den
    unit = ((0,) * len(a.vars),) * 2
    top = None if a.trunc == b.trunc else [min(ta, tb) for ta, tb in zip(a.trunc, b.trunc)]
    target = delta * da * db
    for key in an.keys() | bn.keys() | {unit}:
        if top is not None and any(n > t for n, t in zip(key[0], top)):
            continue
        if an.get(key, 0) * db + bn.get(key, 0) * da != (target if key == unit else 0):
            raise SeriesError(f"pair {j}: a_j + b_j must equal delta_(j,k)")


def projective_term(
    s_xi: TruncSeries,
    s_pi: TruncSeries,
    s_eta: Sequence[TruncSeries],
    a: TruncSeries,
    b: TruncSeries,
    h: Sequence[TruncSeries],
    c,
    order: int,
) -> TruncSeries:
    """The q-series (c/12)(A + B + sum_i C_i) for a single sewing pair.

    The case M = 1 of :func:`projective_term_multi`: ``a`` and ``b`` are
    bivariate in (xi, pi) with a + b = 1, and each h_i is a series in
    (q, eta_i) whose eta-exponents may be negative through an integer offset.
    """
    return projective_term_multi([(s_xi, s_pi, a, b)], s_eta, h, c, 0, order, ["q"])


def projective_term_multi(
    pairs: Sequence[Tuple[TruncSeries, TruncSeries, TruncSeries, TruncSeries]],
    s_eta: Sequence[TruncSeries],
    h: Sequence[TruncSeries],
    c,
    k_index: int,
    order: int,
    q_vars: Optional[Sequence[str]] = None,
) -> TruncSeries:
    """The projective term (c/12)(sum_j (A_j + B_j) + sum_i C_i) for sewing along M pairs at once.

    ``pairs[j]`` is (S_xi_j, S_pi_j, a_j, b_j) where a_j, b_j are series
    without offsets in (xi_j, pi_j, q_1, .., q_M minus q_j), or in
    (xi_j, pi_j) alone when they do not depend on the other q's; the lift
    condition is a_j + b_j = delta_{j,k}.  A term a_j[m, n, s] adds
    a_j[m, n, s] S_xi_j(n - m - 2) at q_j^n times the spectator powers s, and
    b_j[n, m, s] likewise with S_pi_j.  Each h_i is a series in
    (q_1, .., q_M, eta_i) and adds Res_eta S_eta_i h_i d eta.  Result: a
    series in all q variables.  Truncation shortfalls are errors, not silent
    zeros.  Each (series, datum) pair is summed on their stored integer
    numerators, over the product of their two denominators, and the parts,
    each times c/12 over that product, meet over the lcm in one stored
    series; no input is converted.
    """
    c = as_q(c)
    width = len(pairs) + 1
    names = tuple(q_vars) if q_vars is not None else tuple(f"q{j+1}" for j in range(width - 1))
    if len(names) != width - 1:
        raise VariableMismatch(f"{len(names)} q variables for {width - 1} pairs")
    if len(s_eta) != len(h):
        raise ValueError("one h per marked-point Schwarzian datum")
    # (numerators, factor) of each (series, datum) pair's contribution
    parts: List[Tuple[Dict[Tuple[int, ...], int], Fraction]] = []
    for j, (s_xi, s_pi, a, b) in enumerate(pairs):
        _check_pair(j, s_xi, s_pi, a, b, width, int(j == k_index), order)
        pad = (0,) * (width - len(a.vars))
        # a is keyed (m, n, spectators), b (n, m, spectators); n - m - 2 lies in [0, order - 2]
        for v, sdat, mi, ni in ((a, s_xi, 0, 1), (b, s_pi, 1, 0)):
            # a stored key lies in the shape, so only a log bound allows a log term
            if any(v.logmax) and any(any(logs) for _exps, logs in v.nums):
                raise SeriesError(f"pair {j}: a and b cannot carry log terms")
            datum = [_abs_coeff(sdat, k) for k in range(order - 1)]
            # and only a truncation past order lets a spectator exponent pass it
            spectators_fit = max(v.trunc[2:], default=0) <= order
            acc: Dict[Tuple[int, ...], int] = {}
            for (exps, _logs), val in v.nums.items():
                n = exps[ni]
                k = n - exps[mi] - 2
                if n > order or k < 0:
                    continue
                rest = exps[2:] + pad
                if not spectators_fit and max(rest) > order:
                    continue
                sv = datum[k]
                if sv:
                    key = rest[:j] + (n,) + rest[j:]
                    acc[key] = acc.get(key, 0) + val * sv
            parts.append((acc, c / (12 * v.den * sdat.den)))
    for i, (sdat, hi) in enumerate(zip(s_eta, h)):
        _check_datum(f"marked point {i}", sdat)
        _check_rational(f"marked point {i}", hi)
        if len(hi.vars) != width:
            raise VariableMismatch(f"marked point {i}: h must be a series in (q_1..q_M, eta)")
        if any(hi.offset[:-1]):
            raise OffsetError(f"marked point {i}: h cannot carry a q-offset")
        if any(t < order for t in hi.trunc[:-1]):
            raise WindowError(f"marked point {i}: h truncated below requested q-order {order}")
        acc = {}
        for (exps, logs), val in hi.nums.items():
            if any(logs):
                raise SeriesError(f"marked point {i}: h cannot carry log terms")
            key = exps[:-1]
            k = -(hi.offset[-1] + exps[-1]) - 1  # pairs against the eta^k coefficient of the datum
            if max(key, default=0) > order or k < 0 or k.denominator != 1:
                continue
            sv = _abs_coeff(sdat, int(k))
            if sv:
                acc[key] = acc.get(key, 0) + val * sv
        parts.append((acc, c / (12 * hi.den * sdat.den)))
    acc, den = _combine(parts)
    logs = (0,) * len(names)
    shape = TruncSeries(names, dict.fromkeys(names, order))
    return shape._like({(key, logs): x for key, x in acc.items()}, den)
