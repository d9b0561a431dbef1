"""Shared oracles and generators for the test-suite.

Oracles here are deliberately independent of the package internals: the
partition counter uses the pentagonal-number recurrence, series products are
checked against a direct double loop, and compositional inverses against the
Lagrange inversion formula.  One reference shares a kernel on purpose:
``fuchs_walk_per_step`` replays the Fuchs walk with ``linalg.solve`` at
every step, the path the integer resolvent steps replaced, and
``list_exp_vf_on_z`` is the degree-indexed list loop that ``exp_vf_on_z``
ran before it shared the module exponential, and ``closed_form_binomial_jet``
is the binomial closed form that ``sewing._binomial_jet`` used before it read
the jet power table.  ``fraction_exp_action`` and ``vector_bracket_failures``
are the Fraction loops that the coordinate-change exponential and
``voa check-relations`` ran before they ran on integer numerators, and
``fraction_compose_jets``, ``fraction_reverse_jet`` and
``fraction_exp_coeffs`` those of the rational jet kernels (on the power
table of ``fraction_power_step``), which ``rational_jet`` and
``random_rational_jet`` build inputs for.  The ``fraction_*`` jet
operations (sum, scaling, product, inverse, derivative, truncation, powers
and ``fraction_jet_compose``) are those of ``LaurentJet`` when it stored one
Fraction per coefficient; they read a LaurentJet or a ``FractionJet`` and
return a ``FractionJet``, which compares equal to the triple
``(coeffs, lo, hi)``; ``FractionSeries`` is ``TruncSeries`` when it
stored one Fraction (or QVec or QMat) per key, added term by term;
``vec_add`` and ``vec_scale`` are the Fock vector sum and scaling they and
the tests build expected vectors with, and ``heisenberg_reference`` is the
Fraction a_k action that the Fock mode images are built without.  The last four
helpers build the diagonal and block matrices and the pointwise Schwarzian
that tests compare package results with.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
import math
import random
from typing import NamedTuple, Optional

from blocksew.fock import _acc
from blocksew.linalg import QMat, QVec, as_q, solve
from blocksew.series import CoordJet, LaurentJet, LogOverflow, NotInvertible, OffsetError, VariableMismatch, WindowError

Q = Fraction


@lru_cache(maxsize=None)
def euler_partition_count(n: int) -> int:
    """p(n) by the pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * euler_partition_count(n - g1)
        if g2 <= n:
            total += sign * euler_partition_count(n - g2)
        k += 1
    return total


def convolve(a, b, order):
    """Direct convolution oracle for univariate coefficient lists."""
    out = [Q(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] += x * y
    return out


def lagrange_inverse(a, order):
    """Coefficients of the compositional inverse via Lagrange inversion.

    a[k] is the coefficient of z^(k+1) of the input; requires a[0] != 0.
    b_n = (1/n) [w^(n-1)] (w / rho(w))^n.
    """
    out = []
    for n in range(1, order + 1):
        # (w / rho(w))^n = (a0 + a1 w + ...)^{-n} with a_k := a[k]
        # compute (sum a_k w^k)^{-1} to order n-1, then its n-th power
        inv = [Q(0)] * n
        inv[0] = 1 / Q(a[0])
        for m in range(1, n):
            inv[m] = -inv[0] * sum(Q(a[k]) * inv[m - k] for k in range(1, min(m, len(a) - 1) + 1))
        power = [Q(1)] + [Q(0)] * (n - 1)
        for _ in range(n):
            power = convolve(power, inv, n - 1)
        out.append(power[n - 1] / n)
    return out


def random_jet_coeffs(rnd: random.Random, order: int, lead_range=(1, 5)):
    lead = Q(rnd.randint(*lead_range))
    if rnd.random() < 0.5:
        lead = -lead
    return [lead] + [Q(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(order - 1)]


def random_rational(rnd: random.Random, num=6, den=4) -> Fraction:
    return Q(rnd.randint(-num, num), rnd.randint(1, den))


def fraction_solve(rows, rhs):
    """Solve rows @ x = rhs by Gauss-Jordan over Fractions, leftmost pivots first.

    The rhs is eliminated as one more column, so the system is inconsistent
    exactly when that column gets a pivot.  Returns None then, else
    (particular, kernel) as {column: value} dicts: the particular solution on
    pivot columns and one kernel vector per free column, entry 1 there.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[Q(x) for x in row] + [Q(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols + 1):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [inv * v for v in aug[rank]]
        for i, row in enumerate(aug):
            c = row[col]
            if i != rank and c:
                aug[i] = [v - c * w for v, w in zip(row, aug[rank])]
        pivots.append(col)
        if len(pivots) == len(aug):
            break
    if ncols in pivots:
        return None
    part = {col: aug[k][ncols] for k, col in enumerate(pivots) if aug[k][ncols]}
    kernel = []
    for free in (j for j in range(ncols) if j not in pivots):
        vec = {free: Q(1)}
        vec.update({col: -aug[k][free] for k, col in enumerate(pivots) if aug[k][free]})
        kernel.append(vec)
    return part, kernel


def fraction_fuchs_solution(a, omega, seeds, order):
    """psi_0..psi_order of q psi' = A psi + omega from the plain recurrence.

    a[k] and omega[k] are the dense Fraction coefficients of q^k; each step
    solves (n - A_0) psi_n = omega_n + sum_{k>=1} A_k psi_{n-k} with
    :func:`fraction_solve` and adds seeds[n] times the kernel basis.
    """
    dim = len(a[0])
    psi = []
    for n in range(order + 1):
        rhs = list(omega[n]) if n < len(omega) else [Q(0)] * dim
        for k in range(1, min(n, len(a) - 1) + 1):
            rhs = [r + sum(x * y for x, y in zip(row, psi[n - k])) for r, row in zip(rhs, a[k])]
        step = [[(n if i == j else 0) - a[0][i][j] for j in range(dim)] for i in range(dim)]
        part, kernel = fraction_solve(step, rhs)
        assert len(seeds.get(n, [])) == len(kernel), f"step {n} needs {len(kernel)} seed(s)"
        x = [part.get(i, Q(0)) for i in range(dim)]
        for cf, vec in zip(seeds.get(n, []), kernel):
            x = [xi + cf * vec.get(i, 0) for i, xi in enumerate(x)]
        psi.append(x)
    return psi


def fuchs_walk_per_step(sys_, seeds, order, log_bound=0):
    """The terms of ``solve_formal(sys_, seeds, order, log_bound)``, one linalg.solve per step.

    The walk that ``solve_formal`` made before its steps went through the
    adjugate: every step sums its right-hand side in Fractions (a matrix
    product is a Fraction loop here) and solves ``n I - A^j_0`` with
    ``linalg.solve`` for every variable j.  The first variable whose solution
    is unique gives the coefficient, else the first variable's kernel takes
    the seed at the step.  Seeds are {(exps, logs): coefficients}, and every
    one the walk reads must have the kernel's length.
    """
    m, dim = sys_.n_vars, sys_.dim
    out = {}

    def apply(mat, vec):
        return QVec(dim, {i: sum((a * vec[j] for j, a in r.items()), Q(0)) for i, r in mat.rows.items()})

    def rhs(j, exps, logs):
        total = QVec(dim) if any(logs) else sys_.omega[j].get(exps, QVec(dim))
        for key, mat in sys_.a[j].items():
            prev = (tuple(e - k for e, k in zip(exps, key)), logs)
            if any(key) and prev in out:
                total = total + apply(mat, out[prev])
        higher = (exps, logs[:j] + (logs[j] + 1,) + logs[j + 1 :])
        if higher in out:
            total = total - out[higher].scale(logs[j] + 1)
        return total

    for logs in sorted(product(range(log_bound + 1), repeat=m), key=lambda t: (-sum(t), t)):
        for outer in sorted(product(range(order + 1), repeat=m - 1), key=lambda t: (sum(t), t)):
            for n1 in range(order + 1):
                exps = (n1,) + outer
                sols = [
                    solve(QMat.identity(dim).scale(n) - sys_.a0(j), rhs(j, exps, logs))
                    for j, n in enumerate(exps)
                ]
                sol = next((s for s in sols if s is not None and not s[1]), sols[0])
                assert sol is not None, (exps, logs)
                part, kernel = sol
                coeffs = seeds.get((exps, logs), [])
                assert len(coeffs) == len(kernel), (exps, logs)
                for cf, vec in zip(coeffs, kernel):
                    part = part + vec.scale(cf)
                if not part.is_zero():
                    out[(exps, logs)] = part
    return out


def list_exp_vf_on_z(cs, cap, one=Q(1)):
    """exp(sum c_n z^{n+1} d/dz) z as a list of the coefficients of z^0..z^cap.

    Every term D^k z / k! is a full zero-padded list; D adds c_n (m p_m) to
    degree m + n for every nonzero p_m and c_n with m + n <= cap.
    """

    def is_zero(x):
        return x.is_zero() if isinstance(x, LaurentJet) else not x

    def derive(poly):
        out = [LaurentJet.zero(var=poly[0].var) if isinstance(poly[0], LaurentJet) else Q(0)] * (cap + 1)
        for m, pm in enumerate(poly):
            for n, cn in enumerate(cs, start=1):
                if m and m + n <= cap and not is_zero(pm) and not is_zero(cn):
                    out[m + n] = out[m + n] + cn * (pm * m)
        return out

    term = [one * 0] * (cap + 1)
    if cap >= 1:
        term[1] = one
    acc = list(term)
    k = 1
    while any(not is_zero(t) for t in term):
        term = [t * Q(1, k) for t in derive(term)]
        acc = [a + t if not is_zero(t) else a for a, t in zip(acc, term)]
        k += 1
    return acc


def fraction_exp_action(ec, module, vec):
    """c_0^weight exp(sum c_n L_n) vec in Fractions: term_k = (sum c_n L_n term_(k-1)) / k,
    the terms summed until one is zero."""
    cs = ec.cs[: max((sum(mu) for mu in vec), default=0)]
    acc, term, k = dict(vec), dict(vec), 1
    while term:
        nxt = {}
        for n, cn in enumerate(cs, start=1):
            if cn:
                for mu, c in module.apply_virasoro(n, term).items():
                    nxt[mu] = nxt.get(mu, 0) + cn * c
        term = {mu: c / k for mu, c in nxt.items() if c}
        for mu, c in term.items():
            acc[mu] = acc.get(mu, 0) + c
        k += 1
    return {mu: ec.c0 ** sum(mu) * c for mu, c in acc.items() if c}


JET_LEADS = (Q(1), Q(-2, 3), Q(997, 5))


def rational_jet(lead, den, terms, exact):
    """The jet with a_1 = lead and a_(j+2) = num / den^k for the j-th (num, k) of terms."""
    return CoordJet([lead] + [Q(num, den**k) for num, k in terms], exact=exact)


def random_rational_jet(rnd, order, den, lead, exact):
    """A rational_jet of the given order; about a third of its a_j past a_1 are zero."""
    terms = [(0 if rnd.random() < 0.35 else rnd.randint(-9, 9), rnd.randint(0, 2)) for _ in range(order - 1)]
    return rational_jet(lead, den, terms, exact)


def fraction_power_step(powers, a, n):
    """Extend the Fraction power table of B to degree n and return sum_j a_j [z^n] B^j.

    powers[j] = {m: [z^m] B^j} holds the nonzero entries, powers[1] the b_m
    known so far; [z^n] B^j = sum_k b_k [z^(n-k)] B^(j-1) for j >= 2."""
    for j in range(2, min(n, len(a) - 1) + 1):
        below, acc = powers[j - 1], Q(0)
        for k, bk in powers[1].items():
            if k <= n - j + 1 and n - k in below:
                acc += bk * below[n - k]
        if acc:
            powers[j][n] = acc
    return sum((aj * p[n] for aj, p in zip(a, powers) if n in p and aj), Q(0))


def fraction_compose_jets(f, g):
    """f(g(z)) for rational jets, [z^n] f(g) = sum_j a_j [z^n] g^j on a Fraction power table of g."""
    inexact = [h.order for h in (f, g) if not h.exact]
    cap = min(inexact) if inexact else f.order * g.order
    a = [Q(0)] + f.coeffs[:cap]
    powers = [{} for _ in a]
    out = []
    for n in range(1, cap + 1):
        if n <= g.order and g.coeffs[n - 1]:
            powers[1][n] = g.coeffs[n - 1]
        out.append(fraction_power_step(powers, a, n))
    return CoordJet(out, exact=not inexact)


def fraction_reverse_jet(rho, order=None):
    """Inverse of a rational jet to ``order``: b_n = -[z^n] sum_(j>=2) a_j B^j / a_1, on a Fraction power table of B."""
    order = rho.order if order is None else order
    inv_a1 = 1 / rho.a1
    a = [Q(0)] + rho.coeffs[:order]
    powers = [{}, {1: inv_a1}] + [{} for _ in a[2:]]
    b = [inv_a1]
    for n in range(2, order + 1):
        b.append(-fraction_power_step(powers, a, n) * inv_a1)
        if b[-1]:
            powers[1][n] = b[-1]
    return CoordJet(b, exact=False)


def fraction_exp_coeffs(rho):
    """c_1..c_(K-1) of a rational jet of order K, by the triangular solve in Fractions.

    dtab[k][d] = d [z^d] T_k for T_k = D^k z / k!, D = sum c_n z^(n+1) d/dz;
    [z^d] T_k = (1/k) sum_n c_n (d - n) [z^(d-n)] T_(k-1), and c_(d-1) is
    a_d / a_1 less the k >= 2 terms at degree d."""
    K = rho.order
    cs = []
    dtab = [{} for _ in range(K)]
    for d in range(2, K + 1):
        expd = Q(0)
        for k in range(2, d):
            prev, acc = dtab[k - 1], Q(0)
            for n, cn in enumerate(cs[: d - k], start=1):
                if d - n in prev and cn:
                    acc += cn * prev[d - n]
            tk = acc / k
            if tk:
                expd += tk
                dtab[k][d] = tk * d
        cm = rho.coefficient(d) / rho.a1 - expd
        cs.append(cm)
        if cm:
            dtab[1][d] = cm * d
    return cs


class FractionJet(NamedTuple):
    """A Laurent jet as its Fraction coefficients on the window [lo, hi], hi None for an exact jet."""

    coeffs: dict
    lo: int
    hi: Optional[int]


def _lowest_top(*tops):
    """The smallest of the finite window tops, None when every top is None."""
    finite = [h for h in tops if h is not None]
    return min(finite) if finite else None


def _nonzero_up_to(coeffs, hi):
    return {e: v for e, v in coeffs.items() if v and (hi is None or e <= hi)}


def fraction_jet_sum(x, y):
    """x + y for LaurentJets or FractionJets, cut at the lower top."""
    hi = _lowest_top(x.hi, y.hi)
    out = {}
    for src in (x.coeffs, y.coeffs):
        for e, v in src.items():
            out[e] = out.get(e, Q(0)) + v
    return FractionJet(_nonzero_up_to(out, hi), min(x.lo, y.lo), hi)


def fraction_jet_scale(x, c):
    return FractionJet(_nonzero_up_to({e: c * v for e, v in x.coeffs.items()}, None), x.lo, x.hi)


def fraction_product(x, y):
    """x * y by a Fraction double loop on the windows."""
    lo = x.lo + y.lo
    hi = _lowest_top(None if x.hi is None else x.hi + y.lo, None if y.hi is None else y.hi + x.lo)
    out = {}
    for e1, v1 in x.coeffs.items():
        for e2, v2 in y.coeffs.items():
            if hi is None or e1 + e2 <= hi:
                out[e1 + e2] = out.get(e1 + e2, Q(0)) + v1 * v2
    return FractionJet(_nonzero_up_to(out, None), lo, hi)


def fraction_inverse(x, rel_order=None):
    """1/x by the Fraction recursion for 1/(1 + t), to the relative order of the window or rel_order."""
    v = min(x.coeffs)
    rel = rel_order if x.hi is None else (x.hi - v if rel_order is None else min(x.hi - v, rel_order))
    lead = x.coeffs[v]
    u = [x.coeffs.get(v + k, Q(0)) / lead for k in range(rel + 1)]
    inv = [Q(1)]
    for n in range(1, rel + 1):
        inv.append(-sum((u[k] * inv[n - k] for k in range(1, n + 1)), Q(0)))
    return FractionJet({n - v: c / lead for n, c in enumerate(inv) if c}, -v, -v + rel)


def fraction_derivative(x):
    return FractionJet({e - 1: e * v for e, v in x.coeffs.items() if e}, x.lo - 1, None if x.hi is None else x.hi - 1)


def fraction_truncated(x, hi):
    hi = hi if x.hi is None else min(hi, x.hi)
    return FractionJet(_nonzero_up_to(x.coeffs, hi), x.lo, hi)


def fraction_power(x, e):
    """x^e as |e| - 1 products of x, or of its inverse below 0, from the left; an
    exact x is inverted to 4 * its degree terms, and at least 24."""
    if e == 0:
        return FractionJet({0: Q(1)}, 0, None)
    base = FractionJet(dict(x.coeffs), x.lo, x.hi)
    if e < 0:
        base = fraction_inverse(x, max(4 * max(x.coeffs), 24) if x.hi is None else None)
    out = base
    for _ in range(abs(e) - 1):
        out = fraction_product(out, base)
    return out


def fraction_jet_compose(outer, inner):
    """outer(inner(z)) for a rational CoordJet inner: the sum of c_e inner^e, cut at
    the lowest top of outer and the powers, on a window from the lowest power's lo."""
    lt = FractionJet({k: c for k, c in enumerate(inner.coeffs, start=1) if c}, 1, None if inner.exact else inner.order)
    terms = [(c, fraction_power(lt, e)) for e, c in outer.coeffs.items()]
    hi = _lowest_top(outer.hi, *(p.hi for _, p in terms))
    out = {}
    for c, p in terms:
        for e, v in p.coeffs.items():
            out[e] = out.get(e, Q(0)) + c * v
    return FractionJet(_nonzero_up_to(out, hi), min((p.lo for _, p in terms), default=0), hi)


def _value_is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, (QVec, QMat)) else not x


def _value_product(x, y):
    """The product of two series coefficients: a matrix acts on a vector, matrices multiply, a rational scales."""
    if isinstance(x, QMat) and isinstance(y, QMat):
        return x @ y
    if isinstance(x, QMat) and isinstance(y, QVec):
        return x.apply(y)
    return x * y


class FractionSeries:
    """TruncSeries as it was when it stored one Fraction, QVec or QMat per key in ``terms``.

    The reference the integer-numerator TruncSeries is compared with: the
    same shape rules, the same errors, every coefficient added one at a time.
    """

    def __init__(self, vars, trunc, offset=None, logmax=None, terms=None):
        self.vars = tuple(vars)
        self.trunc = tuple(int(trunc[v]) for v in self.vars)
        self.offset = tuple(as_q((offset or {}).get(v, 0)) for v in self.vars)
        self.logmax = tuple(int((logmax or {}).get(v, 0)) for v in self.vars)
        self.terms = {}
        for (exps, logs), val in (terms or {}).items():
            self._store(tuple(exps), tuple(logs), val)

    def _store(self, exps, logs, val):
        for n, t in zip(exps, self.trunc):
            if not 0 <= n <= t:
                raise WindowError(f"exponent {exps} outside truncation {self.trunc}")
        for l, m in zip(logs, self.logmax):
            if not 0 <= l <= m:
                raise LogOverflow(f"log degree {logs} beyond declared bound {self.logmax}")
        if isinstance(val, (int, str)):
            val = as_q(val)
        if not _value_is_zero(val):
            key = (exps, logs)
            if key in self.terms:
                cur = self.terms[key] + val
                if _value_is_zero(cur):
                    del self.terms[key]
                else:
                    self.terms[key] = cur
            else:
                self.terms[key] = val

    def _like(self, trunc=None, offset=None, logmax=None):
        out = FractionSeries.__new__(FractionSeries)
        out.vars, out.terms = self.vars, {}
        out.trunc = self.trunc if trunc is None else trunc
        out.offset = self.offset if offset is None else offset
        out.logmax = self.logmax if logmax is None else logmax
        return out

    def _aligned(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        if self.offset == other.offset:
            return self, other
        shifts_a, shifts_b, new_off, tops = [], [], [], []
        for oa, ta, ob, tb in zip(self.offset, self.trunc, other.offset, other.trunc):
            if (oa - ob).denominator != 1:
                raise OffsetError(f"offsets {oa} and {ob} differ by a non-integer")
            base = min(oa, ob)
            new_off.append(base)
            shifts_a.append(int(oa - base))
            shifts_b.append(int(ob - base))
            tops.append(min(oa + ta, ob + tb) - base)
        if min(tops) < 0:
            raise WindowError("no common exact window after offset renormalization")
        trunc, offset = tuple(map(int, tops)), tuple(new_off)

        def rebase(s, shifts):
            out = s._like(trunc, offset)
            for (exps, logs), val in s.terms.items():
                e = tuple(n + sh for n, sh in zip(exps, shifts))
                if all(x <= t for x, t in zip(e, trunc)):
                    out._store(e, logs, val)
            return out

        return rebase(self, shifts_a), rebase(other, shifts_b)

    def __add__(self, other):
        a, b = self._aligned(other)
        out = a._like(tuple(map(min, a.trunc, b.trunc)), logmax=tuple(map(max, a.logmax, b.logmax)))
        for src in (a, b):
            for (exps, logs), val in src.terms.items():
                if all(n <= t for n, t in zip(exps, out.trunc)):
                    out._store(exps, logs, val)
        return out

    def __neg__(self):
        out = self._like()
        out.terms = {key: -val for key, val in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_q(c)
        out = self._like()
        if c:
            out.terms = {key: c * val for key, val in self.terms.items()}
        return out

    def __mul__(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        out = self._like(
            tuple(map(min, self.trunc, other.trunc)),
            tuple(a + b for a, b in zip(self.offset, other.offset)),
            tuple(map(max, self.logmax, other.logmax)),
        )
        for (e1, l1), v1 in self.terms.items():
            for (e2, l2), v2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(n > t for n, t in zip(e, out.trunc)):
                    continue
                l = tuple(a + b for a, b in zip(l1, l2))
                if any(lv > lm for lv, lm in zip(l, out.logmax)):
                    raise LogOverflow(f"product log degree {l} exceeds declared bound {out.logmax}")
                out._store(e, l, _value_product(v1, v2))
        return out

    def qdq(self, var):
        j = self.vars.index(var)
        out = self._like()
        lam = self.offset[j]
        for (exps, logs), val in self.terms.items():
            power = lam + exps[j]
            if power:
                out._store(exps, logs, power * val)
            if logs[j]:
                lowered = logs[:j] + (logs[j] - 1,) + logs[j + 1 :]
                out._store(exps, lowered, Q(logs[j]) * val)
        return out

    def normalized(self):
        shifts = [int(o) if o.denominator == 1 and o >= 0 else 0 for o in self.offset]
        out = self._like(tuple(t + s for t, s in zip(self.trunc, shifts)), tuple(o - s for o, s in zip(self.offset, shifts)))
        out.terms = {(tuple(n + s for n, s in zip(exps, shifts)), logs): val for (exps, logs), val in self.terms.items()}
        return out


def vec_add(a, b):
    out = dict(a)
    for mu, c in b.items():
        _acc(out, mu, c)
    return out


def vec_scale(c, a):
    c = as_q(c)
    return {k: c * v for k, v in a.items()} if c else {}


def heisenberg_reference(momentum, k, vec):
    """a_k on a vector, by its definition: a_0 is the momentum, a_{-k} creates
    a part k, a_k removes one times k and the multiplicity of k.  Coefficients
    may be rationals or ring elements; what the mode images are checked against."""
    out = {}
    for mu, c in vec.items():
        if k == 0:
            if momentum:
                _acc(out, mu, c * momentum)
        elif k < 0:
            _acc(out, tuple(sorted(mu + (-k,), reverse=True)), c)
        elif mult := mu.count(k):
            nu = list(mu)
            nu.remove(k)
            _acc(out, tuple(nu), c * k * mult)
    return out


def vector_bracket_failures(module, n, rng):
    """The failure list of ``voa check-relations``, one basis vector at a time:
    [X_m, X_k] v against s X_{m+k} v + delta_{m+k,0} z v for every partition
    v of weight <= n, then L_2 of the conformal vector against 1/2 |0> and
    a_0 |0> against the momentum."""
    from blocksew.fock import CONFORMAL

    failures = []
    families = (
        ("heisenberg", module.apply_heisenberg, rng, lambda m, k: 0, lambda m: Q(m)),
        ("virasoro", module.apply_virasoro, min(rng, 3), lambda m, k: m - k, lambda m: Q(m**3 - m, 12)),
    )
    for name, act, r, s, z in families:
        for m in range(-r, r + 1):
            for k in range(-r, r + 1):
                for vec in [{mu: Q(1)} for mu in module.basis(n)]:
                    got = vec_add(act(m, act(k, vec)), vec_scale(-1, act(k, act(m, vec))))
                    want = vec_scale(Q(s(m, k)), act(m + k, vec)) if s(m, k) else {}
                    if m + k == 0:
                        want = vec_add(want, vec_scale(z(m), vec))
                    if got != want:
                        failures.append([name, m, k])
    if module.apply_virasoro(2, CONFORMAL) != {(): Q(1, 2)}:
        failures.append(["central-charge"])
    if module.apply_heisenberg(0, {(): Q(1)}) != heisenberg_reference(module.momentum, 0, {(): Q(1)}):
        failures.append(["momentum"])
    return failures


def closed_form_binomial_jet(z0, k, work, var):
    """(z0 + t)^k for z0 != 0 from binomial coefficients: exact for k >= 0, on [0, work] for k < 0."""
    if k >= 0:
        return LaurentJet({j: math.comb(k, j) * z0 ** (k - j) for j in range(k + 1)}, 0, None, var)
    coeffs = {0: z0 ** k}
    for j in range(1, work + 1):
        # binom(k, j) z0^(k-j) = binom(k, j-1) z0^(k-j+1) (k-j+1)/(j z0)
        coeffs[j] = coeffs[j - 1] * Q(k - j + 1, j) / z0
    return LaurentJet(coeffs, 0, work, var)


def fraction_projective_term(pairs, marked, c, order):
    """{(n_1, .., n_M): coefficient} of (c/12)(sum_j (A_j + B_j) + sum_i C_i), by definition.

    ``pairs[j]`` is (s_xi, s_pi, a, b).  s_xi and s_pi map exponents k >= 0
    of the Schwarzian data to coefficients; a maps (m, n, *s) and b maps
    (n, m, *s) to coefficients, where s lists the exponents of the q's other
    than q_j in order.  A_j adds a[m, n, s] s_xi[n - m - 2] to the monomial
    q_j^n prod q_other^s, and B_j adds b[n, m, s] s_pi[n - m - 2].
    ``marked[i]`` is (s_eta, h) with h mapping (n_1, .., n_M, e), e the
    absolute eta exponent, to coefficients; C_i = Res_eta S_eta h d eta adds
    h[n, e] s_eta[-e - 1] to q^n.  Monomials past q^order in any variable
    are dropped.
    """
    out = {}

    def add(key, v):
        if v and max(key, default=0) <= order:
            out[key] = out.get(key, Q(0)) + v

    for j, (s_xi, s_pi, a, b) in enumerate(pairs):
        for (m, n, *s), v in a.items():
            add(tuple(s[:j]) + (n,) + tuple(s[j:]), v * s_xi.get(n - m - 2, 0))
        for (n, m, *s), v in b.items():
            add(tuple(s[:j]) + (n,) + tuple(s[j:]), v * s_pi.get(n - m - 2, 0))
    for s_eta, h in marked:
        for (*n, e), v in h.items():
            add(tuple(n), v * s_eta.get(-e - 1, 0))
    return {key: w for key, v in out.items() if (w := v * Q(c) / 12)}


def fraction_sew(table, pairs, inputs, orders, log_bounds):
    """Terms of the q^{L_0} contraction of a block table, one (n, l) at a time.

    ``pairs[j]`` is (module slot, dual slot, weight dims, nilpotent blocks as
    dense row lists); ``inputs`` maps every other slot to a dense list.  For
    each choice of (n_j, l_j) per pair, every entry whose pair-j indices both
    lie in the weight-n_j block contributes its value times
    ``(N_{n_j}^{l_j} / l_j!)[b][a]`` per pair and its retained inputs.
    Returns {(exps, logs): value} without zero values.
    """

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))] for i in range(len(x))]

    # per pair: (start, dim, [N^l / l! for l <= bound]) for each weight n <= order
    blocks = []
    for (_pm, _pd, dims, nils), order, bound in zip(pairs, orders, log_bounds):
        per_n, start = [], 0
        for n in range(order + 1):
            d = dims[n]
            power = [[Q(int(i == j)) for j in range(d)] for i in range(d)]
            scaled, fact = [], 1
            for l in range(bound + 1):
                if l:
                    power = matmul(nils[n], power)
                    fact *= l
                scaled.append([[v / fact for v in row] for row in power])
            per_n.append((start, d, scaled))
            start += d
        blocks.append(per_n)
    pair_slots = {s for p in pairs for s in p[:2]}
    terms = {}

    def choose(j, exps, logs):
        if j < len(pairs):
            for n, (_s, d, scaled) in enumerate(blocks[j]):
                for l in range(len(scaled)):
                    if d:
                        choose(j + 1, exps + (n,), logs + (l,))
            return
        total = Q(0)
        for key, c in table.items():
            prod = Q(c)
            for (pm, pd, _dims, _nils), n, l, per_n in zip(pairs, exps, logs, blocks):
                start, d, scaled = per_n[n]
                b, a = key[pm] - start, key[pd] - start
                prod *= scaled[l][b][a] if 0 <= b < d and 0 <= a < d else 0
            for s, vec in inputs.items():
                if s not in pair_slots:
                    prod *= vec[key[s]]
            total += prod
        if total:
            terms[(exps, logs)] = total

    choose(0, (), ())
    return terms


def fraction_matmul(a, b):
    """Sparse rows product of two QMats with one Fraction multiply-add per pair.

    The product loop the package used before its integer kernel; returns
    clean rows {i: {j: nonzero value}}, for comparison with ``QMat.rows``.
    """
    out = {}
    b_rows = b.rows
    for i, r in a.rows.items():
        acc = {}
        for k, x in r.items():
            for j, y in b_rows.get(k, {}).items():
                acc[j] = acc.get(j, Q(0)) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def scalar_pow_weight(module, c, n_max):
    """Diagonal matrix c^(weight) on a module's weight-<=n_max truncation."""
    c = Q(c)
    basis = module.basis(n_max)
    return QMat(len(basis), len(basis), {i: {i: c ** sum(mu)} for i, mu in enumerate(basis)})


def weight_diag(module, n_max):
    """Diagonal matrix of the integer grading on a module's truncation."""
    basis = module.basis(n_max)
    return QMat(len(basis), len(basis), {i: {i: Q(sum(mu))} for i, mu in enumerate(basis) if sum(mu)})


def submatrix(mat, row_range, col_range):
    """The block of rows [r0, r1) and columns [c0, c1) of a QMat."""
    r0, r1 = row_range
    c0, c1 = col_range
    out = {}
    for i, r in mat.rows.items():
        if not r0 <= i < r1:
            continue
        sub = {j - c0: v for j, v in r.items() if c0 <= j < c1}
        if sub:
            out[i - r0] = sub
    return QMat(r1 - r0, c1 - c0, out)


def schwarzian_at(f, p):
    """Exact value of S f at a rational point, from the derivatives of the polynomial jet f."""
    if not f.exact:
        raise WindowError("pointwise Schwarzian needs an exact polynomial jet")
    p = Q(p)

    def deriv_at(k):
        tot = Q(0)
        for j in range(k, f.order + 1):
            a = f.coefficient(j)
            if a:
                fall = Q(1)
                for t in range(k):
                    fall *= j - t
                tot += a * fall * p ** (j - k)
        return tot

    d1, d2, d3 = deriv_at(1), deriv_at(2), deriv_at(3)
    if not d1:
        raise NotInvertible(f"derivative vanishes at {p}")
    return d3 / d1 - Q(3, 2) * (d2 / d1) ** 2
