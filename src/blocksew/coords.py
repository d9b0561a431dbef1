"""The group of local coordinate changes and its action on graded modules.

A jet rho(z) = a_1 z + a_2 z^2 + ... with a_1 != 0 acts on a graded module
through

    rho'(0)^(weight) . exp(sum_{n>0} c_n L_n)

where the c_n are the unique coefficients writing rho as c_0 exp(sum c_n
z^{n+1} d/dz) z.  The triangular solve for the c_n, the operator itself, and
the transition jets between two coordinates all live here.  Everything is
generic over the coefficient ring: plain rationals for pointwise jets, or
LaurentJet coefficients when the jet varies over a base point (used by the
conjugation check below and by the genus-zero machinery).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fock import FockModule, Vector, vacuum_module, vec_is_homogeneous, vec_weight_max, weight
from .linalg import QMat, _add_scaled, _int_product, _ints, _over_one_den, as_q
from .series import (
    CoordJet,
    LaurentJet,
    NotInvertible,
    WindowError,
    _is_rational,
    _is_ring_zero,
    _monic_ints,
    _powers,
    compose_jets,
    reverse_jet,
    ring_one_like,
    ring_zero_like,
)

Q = Fraction


class InsufficientJetOrder(WindowError):
    pass


class ExpCoeffs(NamedTuple):
    """Coefficients of rho = c_0 exp(sum_{n>0} c_n z^{n+1} d/dz) z."""

    c0: object
    cs: List  # cs[n-1] = c_n


def _exp(cs: Sequence, act: Callable[[int, Dict], Dict], vec: Dict, d: int = 1) -> Tuple[Dict, int]:
    """exp(X) vec for X = sum_n c_n X_n / d on a sparse vector, act(n, v) = X_n v,
    as a vector of numerators and their one denominator.

    The powers P_k = (d X)^k vec run out at some K, because each X_n strictly
    moves a bounded grading; then exp(X) vec = sum_k P_k d^(K-k) K!/k! over
    d^K K!.  Only products and sums are taken, so integer c_n, vec and act
    stay in the integers, and ring elements (LaurentJets) work too.
    Ring-zero c_n and entries are skipped.
    """
    powers = [vec]
    while True:
        nxt: Dict = {}
        for n, cn in enumerate(cs, start=1):
            if _is_ring_zero(cn):
                continue
            for mu, c in act(n, powers[-1]).items():
                w = nxt.get(mu)
                add = cn * c
                nxt[mu] = add if w is None else w + add
        nxt = {mu: c for mu, c in nxt.items() if not _is_ring_zero(c)}
        if not nxt:
            break
        powers.append(nxt)
    # P_K weighs 1, each step down multiplies by d k, and P_0 weighs d^K K!
    weights = [1] * len(powers)
    for k in range(len(powers) - 1, 0, -1):
        weights[k - 1] = weights[k] * d * k
    acc: Dict = {}
    for p, f in zip(powers, weights):
        for mu, c in p.items():
            c = c if f == 1 else c * f
            cur = acc.get(mu)
            acc[mu] = c if cur is None else cur + c
    return acc, weights[0]


def exp_vf_on_z(cs: Sequence, cap: int, one=Q(1)):
    """exp(sum c_n z^{n+1} d/dz) z as a degree-indexed list up to degree cap."""

    # z^{n+1} d/dz sends p_m z^m to m p_m z^{m+n}
    def vf(n, p):
        return {m + n: pm * m for m, pm in p.items() if m + n <= cap}

    if _is_rational([one, *cs]):
        # on integers: c_n = t_n / d, and the vector field keeps integers integral
        ts, d = _over_one_den(cs)
        poly, den = _exp(ts, vf, {1: one.numerator}, d)
        return [Q(poly.get(m, 0), den * one.denominator) for m in range(cap + 1)]
    poly, den = _exp(cs, vf, {1: one})
    zero, inv = one * 0, Q(1, den)
    return [poly[m] * inv if m in poly else zero for m in range(cap + 1)]


def _monic_exp_ints(u: Sequence[int]) -> Tuple[List[int], int]:
    """The c_n of a monic integer jet w + u_2 w^2 + ... + u_K w^K as integers
    C_1..C_(K-1) over one denominator F: c_n = C_n / F.

    The solve of :func:`extract_c` on V_k[d] = F^k k! [w^d] T_k, the
    coefficients of (F D)^k w for the integer vector field F D = sum C_n
    w^(n+1) d/dw: V_k[d] = sum_n C_n (d - n) V_(k-1)[d - n], V_1[d] = C_(d-1).
    At degree d, c_(d-1) = u_d - sum_(k=2..d-1) V_k[d] / (F^k k!) is taken
    over F^(d-1) (d-1)!.  F starts at 1 and grows to the lcm with the
    reduced denominator of c_(d-1) where that does not divide it; then every
    C_n and V_k grow by the factor, to the powers 1 and k.  So each quotient
    is exact and none is truncated.
    """
    K = len(u)
    f = 1
    cs: List[int] = []
    # vtab[k][d] = d V_k[d], the nonzero ones for d up to the current degree
    vtab: List[Dict[int, int]] = [{} for _ in range(K)]
    for d in range(2, K + 1):
        # weight F^(d-1-k) (d-1)!/k! for V_k[d]: 1 at k = d-1, times F k per step down
        acc, wk = 0, 1
        for k in range(d - 1, 1, -1):
            prev, vk = vtab[k - 1], 0
            for n, cn in enumerate(cs[: d - k], start=1):
                if cn and d - n in prev:
                    vk += cn * prev[d - n]
            if vk:
                acc += vk * wk
                vtab[k][d] = vk * d
            wk *= f * k
        # c_(d-1) = (u_d F^(d-1) (d-1)! - acc) / (F^(d-1) (d-1)!), with wk = F^(d-2) (d-1)! here
        den = wk * f
        num = u[d - 1] * den - acc
        g = math.gcd(num, den)
        need = den // g
        if f % need:
            grow = need // math.gcd(f, need)
            f *= grow
            cs = [c * grow for c in cs]
            for k, row in enumerate(vtab[1:], start=1):
                scale = grow**k
                for m in row:
                    row[m] *= scale
        cm = num // g * (f // need)
        cs.append(cm)
        if cm:
            vtab[1][d] = cm * d
    return cs, f


def _ring_exp_coeffs(rho: CoordJet) -> List:
    """c_1..c_(K-1) of :func:`extract_c` in the ring of the jet's coefficients."""
    K = rho.order
    zero = ring_zero_like(rho.a1)
    c0 = rho.a1
    cs: List = []
    # dtab[k][d] = d [z^d] T_k, the nonzero ones for d up to the current degree; T_k starts at z^{k+1}
    dtab: List[Dict[int, object]] = [{} for _ in range(K)]
    for d in range(2, K + 1):
        expd = zero
        for k in range(2, d):
            prev, acc = dtab[k - 1], zero
            for n, cn in enumerate(cs[: d - k], start=1):
                if d - n in prev and not _is_ring_zero(cn):
                    acc = acc + cn * prev[d - n]
            tk = acc * Q(1, k)
            if not _is_ring_zero(tk):
                expd = expd + tk
                dtab[k][d] = tk * d
        cm = rho.coefficient(d) / c0 - expd
        cs.append(cm)
        if not _is_ring_zero(cm):
            dtab[1][d] = cm * d
    return cs


def extract_c(rho: CoordJet) -> ExpCoeffs:
    """Triangular solve for the exponential coefficients of a coordinate jet.

    One pass in degree order over T_k = D^k z / k!, D = sum c_n z^{n+1} d/dz:
    [z^d] T_k = (1/k) sum_n c_n (d - n) [z^{d-n}] T_{k-1}, and for k >= 2 that
    reads c_1..c_{d-2} only, while [z^d] T_1 = c_{d-1}.  So the coefficient of
    z^d in exp(D) z = sum_k T_k fixes c_{d-1} once the k >= 2 terms at degree
    d are known.  The result is re-expanded and checked against the input.

    When every coefficient is a Fraction, the solve runs on integers: the
    scaling z -> E w of :func:`series._monic_ints` turns rho / a_1 into a
    monic integer jet whose c_n are c_n E^n, solved by
    :func:`_monic_exp_ints`, and each c_n is one Fraction.  Any other
    coefficients (LaurentJets of a family jet) run in their own ring.
    """
    rho.check_invertible()
    K = rho.order
    one = ring_one_like(rho.a1)
    c0 = rho.a1
    if _is_rational(rho.coeffs):
        u, e = _monic_ints(rho.coeffs)
        nums, f = _monic_exp_ints(u)
        cs: List = [Q(x, f * e**n) for n, x in enumerate(nums, start=1)]
    else:
        cs = _ring_exp_coeffs(rho)
    # round-trip self-check
    expd = exp_vf_on_z(cs, K, one=one)
    for k in range(1, K + 1):
        if not _is_ring_zero(c0 * expd[k] - rho.coefficient(k)):
            raise ArithmeticError(f"triangular solve failed to reproduce coefficient {k}")
    return ExpCoeffs(c0=c0, cs=cs)


def c2_formula(rho: CoordJet):
    """c_2 in closed form, (1/6) rho'''(0)/rho'(0) - (1/4) (rho''(0)/rho'(0))^2; reads a_1..a_3."""
    rho.check_invertible()
    d1 = rho.coefficient(1)
    d2 = rho.coefficient(2) * 2
    d3 = rho.coefficient(3) * 6
    r2 = d2 / d1
    return (d3 / d1) * Q(1, 6) - (r2 * r2) * Q(1, 4)


def gamma_xi(xi, order: int) -> CoordJet:
    """Jet of 1/(xi+z) - 1/xi = sum_{n>=1} (-1)^n xi^{-n-1} z^n."""
    xi = as_q(xi)
    if not xi:
        raise NotInvertible("gamma is undefined at xi = 0")
    return CoordJet([Q(-1) ** n * xi ** (-n - 1) for n in range(1, order + 1)])


def varrho(eta: CoordJet, mu: CoordJet, order: Optional[int] = None) -> CoordJet:
    """Transition jet between two coordinates: compose(eta, reverse(mu))."""
    return compose_jets(eta, reverse_jet(mu, order=order))


# ---------------------------------------------------------------------------
# the operator on graded modules


def _exp_coeffs(rho: CoordJet, top_weight: int) -> ExpCoeffs:
    """c_0..c_N of rho for N = top_weight, the c_n that act on weights up to N.

    c_n depends on a_1..a_{n+1} only, so the jet is cut to order N+1 (an exact
    jet is padded with zeros) before the solve.
    """
    need = top_weight + 1
    if rho.order < need and not rho.exact:
        raise InsufficientJetOrder(f"jet order {rho.order} insufficient for weight {top_weight} (need {need})")
    return extract_c(rho.truncate(need))


def _exp_action(ec: ExpCoeffs, module: FockModule, vec):
    """Apply c_0^{weight} exp(sum c_n L_n) to a vector, for c_n covering its weights.

    The exponential is a finite sum because positive Virasoro modes strictly
    lower the weight.  Rational coefficients and vectors run on integers,
    with one Fraction per output entry; ring-valued ones (family jets) run
    on the module's rational action.
    """
    # L_n kills every vector of weight below n
    cs, c0 = ec.cs[: vec_weight_max(vec)], ec.c0
    if _is_rational([c0, *cs, *vec.values()]):
        # c_n = t_n / d, vec = nums / dv, and L_n is an integer action over the module's denominator
        ts, d = _over_one_den(cs)
        nums, dv = _ints(vec)
        acc, den = _exp(ts, module._virasoro_ints, nums, d * module._virasoro_den)
        den *= dv
        return {
            mu: Q(x * c0.numerator ** weight(mu), den * c0.denominator ** weight(mu)) for mu, x in acc.items() if x
        }
    acc, den = _exp(cs, module.apply_virasoro, vec)
    # c_0^weight / den, one scalar per weight
    scales = {w: c0**w * Q(1, den) for w in {weight(mu) for mu in acc}}
    return {mu: scales[weight(mu)] * c for mu, c in acc.items() if not _is_ring_zero(c)}


def u_apply(rho: CoordJet, module: FockModule, vec):
    """Apply rho'(0)^{weight} exp(sum c_n L_n) to an exact module vector.

    Works for ring-valued vectors and jets as well (family jets).
    """
    if not vec:
        return {}
    return _exp_action(_exp_coeffs(rho, vec_weight_max(vec)), module, vec)


def u_matrix(rho: CoordJet, module: FockModule, n_max: int) -> QMat:
    """Matrix of the coordinate-change operator on the weight truncation.

    Block lower-triangular in the weight filtration: the induced map on each
    graded quotient is the scalar rho'(0)^n.  With t = sum c_n L_n = T/D for
    an integer matrix T, the powers P_k = T^k vanish past the top weight (t
    lowers it), so exp(t) = sum_k P_k D^(K-k) K!/k! over D^K K!, K the last
    k with P_k != 0.  The factor rho'(0)^(weight) scales the rows.
    """
    ec = _exp_coeffs(rho, n_max)
    dim = module.dim(n_max)
    # T from the integer rows of each L_n, over D = lcm of the denominators of c_n L_n
    terms = [(cn, module.virasoro_matrix(n, n_max, n_max)) for n, cn in enumerate(ec.cs, start=1) if cn]
    fs, d = _over_one_den(cn / ln.den for cn, ln in terms)
    tint: Dict[int, Dict[int, int]] = {}
    for (_, ln), f in zip(terms, fs):
        _add_scaled(tint, ln.nums, f)
    powers = [{i: {i: 1} for i in range(dim)}]
    for _ in range(n_max + 1):
        power = _int_product(tint, powers[-1])
        if not power:
            break
        powers.append(power)
    top = len(powers) - 1
    # with K = top, P_k weighs D^(K-k) K!/k!: 1 at k = K, and each step down multiplies by D k
    acc: Dict[int, Dict[int, int]] = {}
    f = 1
    for k in range(top, -1, -1):
        _add_scaled(acc, powers[k], f)
        f *= d * k
    # row i gains c_0^w = p^w q^(n_max - w) / q^n_max, w its weight
    c0 = as_q(ec.c0)
    p, q = c0.numerator, c0.denominator
    for i, mu in enumerate(module.basis(n_max)):
        w = weight(mu)
        scale = p**w * q ** (n_max - w)
        acc[i] = {j: x * scale for j, x in acc[i].items()}
    return QMat._of_ints(dim, dim, acc, d**top * math.factorial(top) * q**n_max)


def u_matrix_inverse(rho: CoordJet, module: FockModule, n_max: int) -> QMat:
    return u_matrix(reverse_jet(rho, order=n_max + 1), module, n_max)


def u_matrix_dual(rho: CoordJet, module: FockModule, n_max: int) -> QMat:
    """Operator of rho on the graded dual, in the dual basis.

    The dual Virasoro modes are transposes with reflected index, so the
    exponential factor is the transpose of exp(sum c_n L_{-n}).  The
    Shapovalov form is diagonal in the partition basis, G = diag(<mu, mu>),
    and L_n is adjoint to L_{-n}, so L_{-n}^T = G L_n G^{-1} on the
    truncation and the operator is G u_matrix(rho) G^{-1}.
    """
    # <mu, mu> = prod_k k^{m_k} m_k! for a partition mu with m_k parts equal to k
    norms = [math.prod(k ** mu.count(k) * math.factorial(mu.count(k)) for k in set(mu)) for mu in module.basis(n_max)]
    mat = u_matrix(rho, module, n_max)
    # z_i / z_j = z_i (L / z_j) / L, L the lcm of the norms
    lcm = math.lcm(*norms)
    cofactors = [lcm // z for z in norms]
    rows = {i: {j: x * norms[i] * cofactors[j] for j, x in row.items()} for i, row in mat.nums.items()}
    return QMat._of_ints(mat.nrows, mat.ncols, rows, mat.den * lcm)


# ---------------------------------------------------------------------------
# change-of-variable conjugation check


def family_jet(alpha: CoordJet, var: str = "z", work_order: Optional[int] = None, max_degree: Optional[int] = None) -> CoordJet:
    """The jet x -> alpha(t+x) - alpha(t) with coefficients Laurent in t.

    Coefficient of x^m is sum_{j>=m} binom(j, m) a_j t^{j-m}; for a truncated
    alpha of order K that series is known to t-order K-m.
    """
    K = alpha.order
    deg_cap = max_degree if max_degree is not None else K
    # a_j = nums[j - 1] / den
    nums, den = _over_one_den(alpha.coeffs)
    coeffs: List[LaurentJet] = []
    for m in range(1, deg_cap + 1):
        data = {j - m: math.comb(j, m) * nums[j - 1] for j in range(m, K + 1)}
        hi = None if alpha.exact else K - m
        jet = LaurentJet._of_ints(data, den, 0, hi, var)
        if work_order is not None:
            jet = jet.truncated(work_order)
        coeffs.append(jet)
    return CoordJet(coeffs, exact=False)


def huang_conjugation_check(
    alpha: CoordJet,
    v: Vector,
    w: Vector,
    module: FockModule,
    z_lo: int,
    z_hi: int,
    shared: Optional[Dict] = None,
) -> Tuple[bool, Dict]:
    """Check the change-of-variable rule for vertex operators on a z-window.

    Left side: conjugate Y(v, z) by the operator of alpha and apply to w.
    Right side: Y(U(alpha-family) v, alpha(z)) w, expanded with exact window
    tracking.  Returns (equal, report); the report lists any coefficient
    discrepancies as (partition, exponent, lhs, rhs).

    ``shared`` memoizes the work that depends on alpha alone and records that
    alpha; a call with another alpha on the same dict is a ValueError.
    """
    shared = {} if shared is None else shared
    known = shared.setdefault("alpha", alpha)
    if (known.coeffs, known.exact) != (alpha.coeffs, alpha.exact):
        raise ValueError(f"shared work was filled for alpha {known}, not {alpha}")
    dv = vec_is_homogeneous(v)
    if dv is None:
        raise ValueError("v must be homogeneous")
    ww = vec_weight_max(w)
    k_top = dv + ww - 1  # Y(u)_k w = 0 above this for wt(u) <= dv
    work = z_hi + max(0, k_top) + 4

    # -- left side
    top = ww + dv + max(z_hi, 0) + 1  # above every weight Y(v)_k w reaches on the window
    if ("left", top) not in shared:
        # one solve serves every z-mode; the inverse needs alpha to the same order
        fwd = _exp_coeffs(alpha, top)
        shared["left", top] = (fwd, reverse_jet(alpha.truncate(top + 1), order=top + 1))
    fwd, alpha_inv = shared["left", top]
    if ("inverse", top, ww) not in shared:
        shared["inverse", top, ww] = _exp_coeffs(alpha_inv, ww)
    w_in = _exp_action(shared["inverse", top, ww], module, w)
    lhs: Dict[tuple, Dict[int, Fraction]] = {}
    for e in range(z_lo, z_hi + 1):
        k = -e - 1
        vec = _exp_action(fwd, module, module.apply_vertex(v, k, w_in))
        for mu, c in vec.items():
            lhs.setdefault(mu, {})[e] = c

    # -- right side
    gkey = ("g", tuple(sorted(v.items())), work)
    if gkey not in shared:
        fam = family_jet(alpha, var="z", work_order=work, max_degree=max(dv + 1, 2))
        shared[gkey] = u_apply(fam, vacuum_module(), {mu: LaurentJet.const(c, var="z") for mu, c in v.items()})
    gvec = shared[gkey]
    if ("powers", work) not in shared:
        shared["powers", work] = _powers(alpha.to_laurent("z").truncated(work))
    apow = shared["powers", work]
    rhs: Dict[tuple, Dict[int, Fraction]] = {}
    for mu_u, g in gvec.items():
        du = weight(mu_u)
        for k in range(-z_hi - 1, du + ww):
            target = module.apply_vertex({mu_u: Q(1)}, k, w)
            if not target:
                continue
            s = g * apow(-k - 1)
            if s.hi is not None and s.hi < z_hi:
                raise WindowError(
                    f"window [{s.lo},{s.hi}] does not cover requested top {z_hi}; increase the jet order of alpha"
                )
            for e in range(max(z_lo, s.lo), z_hi + 1):
                c = s.coeff(e)
                if not c:
                    continue
                for tau, x in target.items():
                    slot = rhs.setdefault(tau, {})
                    slot[e] = slot.get(e, Q(0)) + c * x

    # -- compare
    report = []
    keys = set(lhs) | set(rhs)
    for tau in sorted(keys):
        for e in range(z_lo, z_hi + 1):
            a = lhs.get(tau, {}).get(e, Q(0))
            b = rhs.get(tau, {}).get(e, Q(0))
            if a != b:
                report.append((tau, e, a, b))
    return (not report), {"discrepancies": report, "window": (z_lo, z_hi)}


def huang_conjugation_checks(
    alpha: CoordJet,
    pairs: Sequence[Tuple[Vector, Vector]],
    module: FockModule,
    z_lo: int,
    z_hi: int,
) -> List[Tuple[bool, Dict]]:
    """huang_conjugation_check for every (v, w) pair, in order.

    The reversion of alpha, the c_n of alpha and of its inverse, the powers
    of alpha and U(family jet) v are computed once per jet order, working
    order and v, and shared by the pairs that need them.
    """
    shared: Dict = {}
    return [huang_conjugation_check(alpha, v, w, module, z_lo, z_hi, shared) for v, w in pairs]
