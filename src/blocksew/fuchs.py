"""Formal solutions and convergence certificates for simple-pole systems.

Systems q_j d/dq_j psi = A^j psi + omega^j are solved coefficientwise: away
from resonances each step inverts (n - A_0) through its adjugate polynomial,
in integers; at a resonant n the step is a singular linear solve whose
remaining freedom must be supplied as seeds.  Log terms are handled level by
level from the highest log degree down, each level being a log-free system
with a modified inhomogeneity.  Several variables are solved through the
first variable's equation with the remaining ones treated as outer expansion
indices; the other equations are then checked on the result.

Certificates replay the majorant argument in exact arithmetic: with the
max-row-sum norm (submultiplicative, which is all the argument uses),
constants alpha, B, beta, gamma and c are produced such that
||psi_n|| <= c gamma^n r_1^{-n} holds for every computed coefficient, giving
a certified radius r_0 < r_1/gamma.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .linalg import QMat, QVec, _combine, as_q, solve
from .series import SeriesError, TruncSeries

Q = Fraction


class FuchsError(SeriesError):
    pass


class MissingSeed(FuchsError):
    def __init__(self, key, kernel_dim):
        super().__init__(f"resonant step {key} needs {kernel_dim} seed coefficient(s)")
        self.key = key
        self.kernel_dim = kernel_dim


class SeedError(FuchsError):
    """A given seed that the walk does not read, or reads with the wrong length."""

    def __init__(self, key, reason):
        super().__init__(f"seed {key}: {reason}")
        self.key = key
        self.reason = reason


class InconsistentResonance(FuchsError):
    def __init__(self, key):
        super().__init__(f"resonant step {key} has no solution")
        self.key = key


class BoundViolation(FuchsError):
    def __init__(self, n, lhs, rhs):
        super().__init__(f"coefficient bound fails at n={n}: {lhs} > {rhs}")
        self.index = n


class FuchsSystem:
    """Coefficient streams of q_j d/dq_j psi = A^j psi + omega^j.

    a[j][n_tuple] is the matrix coefficient of q^(n_tuple) in A^j, and
    likewise omega[j][n_tuple]; missing keys are zero.  tail[j] = (C, a) is an
    optional declared geometric bound ||A^j_n||, ||omega^j_n|| <= C a^|n| for
    indices beyond the truncation.
    """

    def __init__(
        self,
        dim: int,
        variables: Tuple[str, ...],
        trunc: Tuple[int, ...],
        a: List[Dict[Tuple[int, ...], QMat]],
        omega: List[Dict[Tuple[int, ...], QVec]],
        tail: Optional[List[Optional[Tuple[Fraction, Fraction]]]] = None,
    ):
        m = len(variables)
        if len(a) != m or len(omega) != m:
            raise FuchsError("one coefficient stream per variable")
        for stream in a:
            for mat in stream.values():
                if (mat.nrows, mat.ncols) != (dim, dim):
                    raise FuchsError("matrix coefficient shape mismatch")
        for stream in omega:
            for vec in stream.values():
                if vec.n != dim:
                    raise FuchsError("vector coefficient shape mismatch")
        self.dim = dim
        self.variables = variables
        self.trunc = trunc
        self.a = a
        self.omega = omega
        self.tail = tail if tail else [None] * m
        if any(t is not None and min(map(as_q, t)) < 0 for t in self.tail):
            raise FuchsError("a declared tail bound C a^n needs C >= 0 and a >= 0")

    @classmethod
    def single(
        cls,
        a_coeffs: Sequence[QMat],
        omega_coeffs: Sequence[QVec],
        dim: Optional[int] = None,
        var: str = "q",
        tail: Optional[Tuple[Fraction, Fraction]] = None,
    ) -> "FuchsSystem":
        n = dim if dim is not None else (a_coeffs[0].nrows if a_coeffs else omega_coeffs[0].n)
        a = {(k,): m for k, m in enumerate(a_coeffs) if not m.is_zero()}
        w = {(k,): v for k, v in enumerate(omega_coeffs) if not v.is_zero()}
        t = max(len(a_coeffs), len(omega_coeffs)) - 1
        return cls(n, (var,), (max(t, 0),), [a], [w], [tail])

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def a0(self, j: int = 0) -> QMat:
        zero_key = (0,) * self.n_vars
        return self.a[j].get(zero_key, QMat(self.dim, self.dim))

    def _stream_series(self, stream: Dict[Tuple[int, ...], Union[QMat, QVec]], order: int, logmax: int) -> TruncSeries:
        """One coefficient stream (``a[j]`` or ``omega[j]``) as a series truncated at ``order``."""
        logs = (0,) * self.n_vars
        return TruncSeries(
            self.variables,
            {v: order for v in self.variables},
            logmax={v: logmax for v in self.variables},
            terms={(tuple(key), logs): val for key, val in stream.items() if all(k <= order for k in key)},
        )


def _step(a0: QMat, n: int) -> QMat:
    """The leading step n I - A_0 of the recursion at exponent n."""
    return QMat.identity(a0.nrows).scale(n) - a0


def _resolvent(a0: QMat) -> Callable[[int], Tuple[List[List[int]], int]]:
    """n -> (D adj(nD - A), det(nD - A)) in integers, where A = D A_0 is integer.

    Wherever the determinant is nonzero, (n - A_0)^{-1} is the first matrix
    over the second.  For a d x d A_0, Faddeev-LeVerrier gives
    adj(x - A) = sum_k M_k x^(d-1-k) and det(x - A) = sum_k c_k x^(d-k) once,
    in integers (each division by k is exact); each n is then one Horner
    evaluation, memoized so that log levels and outer exponents share it.
    """
    dim, rows, den = a0.nrows, a0.nums, a0.den
    # M_0 = I, c_0 = 1; c_k = -tr(A M_{k-1}) / k and M_k = A M_{k-1} + c_k I
    ms = [[[int(i == j) for j in range(dim)] for i in range(dim)]]
    cs = [1]
    for k in range(1, dim + 1):
        am = [[sum(x * ms[-1][c][j] for c, x in rows.get(i, {}).items()) for j in range(dim)] for i in range(dim)]
        cs.append(-sum(am[i][i] for i in range(dim)) // k)
        ms.append([[x + cs[-1] * (i == j) for j, x in enumerate(r)] for i, r in enumerate(am)])
    ms.pop()  # M_d = 0 (Cayley-Hamilton)
    memo: Dict[int, Tuple[List[List[int]], int]] = {}

    def at(n: int) -> Tuple[List[List[int]], int]:
        if n not in memo:
            x = n * den
            adj = ms[0]
            for m in ms[1:]:
                adj = [[x * u + v for u, v in zip(r, s)] for r, s in zip(adj, m)]
            memo[n] = [[den * u for u in r] for r in adj], sum(c * x ** (dim - k) for k, c in enumerate(cs))
        return memo[n]

    return at


def resonances(sys: FuchsSystem, order: int) -> Dict[int, int]:
    """{n: kernel size} for each natural n <= order whose leading step is singular."""
    out: Dict[int, int] = {}
    for n in range(order + 1):
        kernel = solve(_step(sys.a0(), n), QVec(sys.dim))[1]
        if kernel:
            out[n] = len(kernel)
    return out


def solve_formal(
    sys: FuchsSystem,
    seeds: Optional[Dict] = None,
    order: int = 10,
    log_bound: int = 0,
) -> TruncSeries:
    """The unique formal solution consistent with the given seeds.

    Seeds are keyed by (exponent tuple, log tuple) -- or (n, l) for a single
    variable -- and hold coefficients for the kernel basis of the singular
    step, in the deterministic order produced by the linear solver; a seed the
    walk would not read, at this order or above it, raises :class:`SeedError`.
    Only the first variable's equation drives the recursion; for several
    variables the remaining equations should be checked with :func:`residual`.
    """
    seeds = _normalize_seeds(seeds or {}, sys.n_vars)
    m = sys.n_vars
    for j, (t, tail) in enumerate(zip(sys.trunc, sys.tail)):
        # streams without a declared tail are complete polynomials; with one,
        # coefficients beyond the truncation exist but are unknown
        if order > t and tail is not None and tail[0]:
            raise FuchsError(f"order {order} exceeds the declared truncation {t} of variable {j}")
    psi: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], QVec] = {}

    # A^j_k and omega^j_k as integers over one denominator each, and every
    # psi coefficient likewise, so each step's rhs is summed with int products
    a_int = [{k: (mat.nums, mat.den) for k, mat in sys.a[j].items() if any(k)} for j in range(m)]
    w_int = [{k: (vec.nums, vec.den) for k, vec in sys.omega[j].items()} for j in range(m)]

    def step_rhs(j: int, exps: Tuple[int, ...], logs: Tuple[int, ...]) -> Tuple[Dict[int, int], int]:
        parts = []  # (numerators, factor)
        if not any(logs) and exps in w_int[j]:
            nums, den = w_int[j][exps]
            parts.append((nums, Q(1, den)))
        for key, (mat, den) in a_int[j].items():
            pv = psi.get((tuple(e - k for e, k in zip(exps, key)), logs))
            if pv is not None:
                x, dx = pv.nums, pv.den
                nums = {i: sum(a * x[c] for c, a in r.items() if c in x) for i, r in mat.items()}
                parts.append((nums, Q(1, den * dx)))
        higher = psi.get((exps, logs[:j] + (logs[j] + 1,) + logs[j + 1 :]))
        if higher is not None:
            parts.append((higher.nums, Q(-(logs[j] + 1), higher.den)))
        return _combine(parts)

    a0s = [sys.a0(j) for j in range(m)]
    resolvents = [_resolvent(a0) for a0 in a0s]

    def coefficient(key, rhs) -> QVec:
        # the first variable whose leading step is regular gives the
        # coefficient through its resolvent, in integers over one
        # denominator; else the first variable's kernel and the seed at key;
        # cross-equation consistency is checked a posteriori
        coeffs = seeds.pop(key, ())
        for j, n in enumerate(key[0]):
            adj, det = resolvents[j](n)
            if det:
                if coeffs:
                    raise SeedError(key, f"the step leaves 0 coefficient(s) free, got {len(coeffs)}")
                nums, den = rhs(j)
                return QVec._of_ints(sys.dim, {i: sum(r[c] * x for c, x in nums.items()) for i, r in enumerate(adj)}, den * det)
        nums, den = rhs(0)
        sol = solve(_step(a0s[0], key[0][0]), QVec._of_ints(sys.dim, nums, den))
        if sol is None:
            raise InconsistentResonance(key)
        part, kernel = sol
        if len(coeffs) != len(kernel):
            if not coeffs:
                raise MissingSeed(key, len(kernel))
            raise SeedError(key, f"the step leaves {len(kernel)} coefficient(s) free, got {len(coeffs)}")
        for cf, basis_vec in zip(coeffs, kernel):
            part = part + basis_vec.scale(as_q(cf))
        return part

    # highest log degree first, then exponents by total degree; each step
    # reads only coefficients of higher log degree or lower exponents
    for logs in sorted(product(range(log_bound + 1), repeat=m), key=lambda t: (-sum(t), t)):
        for outer in sorted(product(range(order + 1), repeat=m - 1), key=lambda t: (sum(t), t)):
            for n1 in range(order + 1):
                exps = (n1,) + outer
                vec = coefficient((exps, logs), lambda j: step_rhs(j, exps, logs))
                if not vec.is_zero():
                    psi[(exps, logs)] = vec
    # a seed left over must be one the walk reads above the order
    for exps, logs in list(seeds):
        if len(exps) != m or len(logs) != m or min(exps) < 0 or not all(0 <= l <= log_bound for l in logs):
            raise SeedError((exps, logs), f"names no step (natural exponents, log degrees in [0, {log_bound}])")
        coefficient((exps, logs), lambda j: ({}, 1))
    # the coefficients stay QVecs, each over its own denominator: a step's grows with n
    return sys._stream_series({}, order, log_bound)._like(psi, 1)


def _normalize_seeds(seeds: Dict, n_vars: int) -> Dict:
    out = {}
    for key, val in seeds.items():
        if n_vars == 1 and len(key) == 2 and all(isinstance(x, int) for x in key):
            key = ((key[0],), (key[1],))
        exps, logs = key
        out[(tuple(exps), tuple(logs))] = list(val)
    return out


def residual(sys: FuchsSystem, psi: TruncSeries, j: int = 0) -> TruncSeries:
    """q_j d psi - (A^j psi + omega^j), truncated to psi's order."""
    var = sys.variables[j]
    order = psi.trunc[psi.var_index(var)]
    logmax = max(psi.logmax)
    res = ode_residual(sys._stream_series(sys.a[j], order, logmax), psi, var)
    # a zero omega lies in every sector; its series at offset 0 would cut psi's window or clash with its offset
    return res - sys._stream_series(sys.omega[j], order, logmax) if sys.omega[j] else res


def ode_residual(omega: TruncSeries, psi: TruncSeries, var: str = "q") -> TruncSeries:
    """q d psi - Omega psi for a supplied matrix-valued coefficient series.

    A zero residual certifies that a sewn series satisfies the given
    first-order system to the available order.
    """
    return psi.qdq(var) - omega * psi


# ---------------------------------------------------------------------------
# certificates


class Certificate(NamedTuple):
    """Exact constants realizing ||psi_n|| <= c gamma^n r1^{-n}.

    All fields are rationals; norms is the list of checked coefficient norms,
    so the inequality is re-checkable from the stored record alone.
    """

    r1: Fraction
    alpha: Fraction
    cap_b: Fraction
    beta: Fraction
    gamma: Fraction
    c: Fraction
    r0: Fraction
    n_checked: int
    adjustments: int
    norms: List[Fraction]

    def recheck(self) -> bool:
        return all(
            self.r1 ** n * nn <= self.c * self.gamma ** n for n, nn in enumerate(self.norms)
        )

    def to_dict(self) -> Dict[str, object]:
        from .linalg import format_rational as fr

        return {
            "r1": fr(self.r1),
            "alpha": fr(self.alpha),
            "B": fr(self.cap_b),
            "beta": fr(self.beta),
            "gamma": fr(self.gamma),
            "c": fr(self.c),
            "r0": fr(self.r0),
            "n_checked": self.n_checked,
            "adjustments": self.adjustments,
            "norms": [fr(x) for x in self.norms],
        }


def _coeff_norms(psi: TruncSeries) -> List[Fraction]:
    if len(psi.vars) != 1:
        raise FuchsError("certificates are single-variable")
    if any(psi.logmax):
        raise FuchsError("certificates require a log-free solution")
    order = psi.trunc[0]
    out = []
    for n in range(order + 1):
        v = psi.nums.get(((n,), (0,)), 0)
        out.append(v.norm_inf() if isinstance(v, QVec) else Q(abs(v), psi.den))
    return out


def majorant_alpha(sys: FuchsSystem, r1: Fraction) -> Fraction:
    """Coefficient majorant sum ||A_n|| r1^n (+ geometric tail), and omega's.

    Dominates the sup of ||A|| over the closed r1-disc, which is what every
    downstream inequality needs.
    """
    r1 = as_q(r1)
    tail = sys.tail[0]
    total_a = sum((m.norm_rowsum() * r1 ** k[0] for k, m in sys.a[0].items()), Q(0))
    total_w = sum((v.norm_inf() * r1 ** k[0] for k, v in sys.omega[0].items()), Q(0))
    if tail is not None:
        cc, aa = as_q(tail[0]), as_q(tail[1])
        if cc:
            if aa * r1 >= 1:
                raise FuchsError("r1 must be strictly inside the declared tail radius")
            t = sys.trunc[0]
            geom = cc * (aa * r1) ** (t + 1) / (1 - aa * r1)
            total_a += geom
            total_w += geom
    return max(total_a, total_w)


def certify(sys: FuchsSystem, psi: TruncSeries, r1) -> Certificate:
    """Majorant certificate for a computed formal solution.

    Replays the inductive bound of the convergence proof in exact arithmetic:
    alpha bounds the coefficient streams on the r1-disc, beta bounds the
    resolvent steps beyond B = ||A_0||, gamma = max(1, alpha beta) (raised
    above 1 when degenerate, where the induction cannot close), and c is
    found by finitely many adjustments.  Every computed coefficient is then
    checked against c gamma^n r1^{-n}; a violation reports its index and
    signals an inconsistent input solution.
    """
    if sys.n_vars != 1:
        raise FuchsError("certificates are single-variable")
    r1 = as_q(r1)
    if r1 <= 0:
        raise FuchsError("r1 must be positive")
    norms = _coeff_norms(psi)
    alpha = majorant_alpha(sys, r1)
    cap_b = sys.a0().norm_rowsum()
    n_min = int(cap_b) + 1  # smallest integer > B
    beta = Q(n_min, 1) / (n_min - cap_b) if cap_b else Q(1)
    gamma = max(Q(1), alpha * beta)
    if gamma <= 1:
        gamma = Q(2)  # the inductive step needs gamma > 1 to absorb the unit term
    n0 = max(n_min, 2)
    c = Q(1)
    adjustments = 0
    closure = 1 / (gamma ** n0 - 1)
    if closure > c:
        c = closure
        adjustments += 1
    for n in range(0, min(n0, len(norms) - 1) + 1):
        base = r1 ** n * norms[n] / gamma ** n
        if base > c:
            c = base
            adjustments += 1
    for n, nn in enumerate(norms):
        lhs = r1 ** n * nn
        rhs = c * gamma ** n
        if lhs > rhs:
            raise BoundViolation(n, lhs, rhs)
    r0 = r1 / (2 * gamma)
    return Certificate(
        r1=r1,
        alpha=alpha,
        cap_b=cap_b,
        beta=beta,
        gamma=gamma,
        c=c,
        r0=r0,
        n_checked=len(norms) - 1,
        adjustments=adjustments,
        norms=norms,
    )
