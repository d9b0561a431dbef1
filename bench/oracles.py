"""Correctness oracles for benchmark outputs.

Nothing here imports blocksew: every check recomputes the expected answer
from the mathematical definition with plain ``fractions.Fraction`` and
compares it with what the program printed.  Each check returns ``None`` when
the output is right and a short reason string when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Q = Fraction


# -- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_number(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
        if g1 > n:
            break
        sign = 1 if k % 2 else -1
        total += sign * partition_number(n - g1)
        if g2 <= n:
            total += sign * partition_number(n - g2)
        k += 1
    return total


@lru_cache(maxsize=None)
def partitions(n: int):
    """Partitions of n as descending tuples, in ascending tuple order."""
    out = []

    def build(rest, cap, acc):
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(rest, cap), 0, -1):
            build(rest - p, p, acc + (p,))

    build(n, n, ())
    return tuple(sorted(out))


def basis(n_max: int):
    return [mu for n in range(n_max + 1) for mu in partitions(n)]


# -- coordinate changes ---------------------------------------------------------


def check_u_op(doc, taylor, trunc):
    """The operator is block lower-triangular with rho'(0)^n on weight block n."""
    a1 = Q(taylor[0])
    b = basis(trunc)
    if doc.get("shape") != [len(b), len(b)]:
        return "wrong shape"
    if doc.get("basis") != [",".join(map(str, mu)) for mu in b]:
        return "basis labels differ from the weight-ordered partition basis"
    wt = [sum(mu) for mu in b]
    got = {(e["i"], e["j"]): Q(e["c"]) for e in doc["entries"]}
    for (i, j), c in got.items():
        if wt[i] > wt[j]:
            return f"entry ({i},{j}) raises the weight"
        if wt[i] == wt[j] and (i != j or c != a1 ** wt[i]):
            return f"weight-diagonal block entry ({i},{j}) is not rho'(0)^n delta"
    for i in range(len(wt)):
        if (i, i) not in got:
            return f"missing diagonal entry {i}"
    return None


# -- Schwarzian and projective term -----------------------------------------------


def series_mul(a, b, cap):
    out = [Q(0)] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x:
            for j, y in enumerate(b[: cap + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def series_inv(a, cap):
    """1/a for a power series with a[0] != 0."""
    out = [Q(0)] * (cap + 1)
    out[0] = 1 / a[0]
    for n in range(1, cap + 1):
        s = sum(a[k] * out[n - k] for k in range(1, min(n, len(a) - 1) + 1))
        out[n] = -s / a[0]
    return out


def schwarzian_coeffs(taylor, order):
    """S f = f'''/f' - 3/2 (f''/f')^2 to z^order, f = sum taylor[k-1] z^k."""
    f = [Q(0)] + [Q(x) for x in taylor]
    f += [Q(0)] * (order + 4 - len(f))
    d1 = [(k + 1) * f[k + 1] for k in range(order + 3)]
    d2 = [(k + 1) * d1[k + 1] for k in range(order + 2)]
    d3 = [(k + 1) * d2[k + 1] for k in range(order + 1)]
    inv = series_inv(d1, order)
    r = series_mul(d2, inv, order)
    s3 = series_mul(d3, inv, order)
    rr = series_mul(r, r, order)
    return [x - Q(3, 2) * y for x, y in zip(s3, rr)]


def series_terms(doc):
    """{(exponents, logs): value} of a printed series (values as Fractions or lists)."""

    def val(c):
        if isinstance(c, str):
            return Q(c)
        return tuple(val(x) for x in c)

    return {(tuple(t["n"]), tuple(t["l"])): val(t["c"]) for t in doc["terms"]}


def check_univariate(doc, var, coeffs, offset=Q(0)):
    if doc["vars"] != [var] or Q(doc["offset"][var]) != offset:
        return "wrong variables or offset"
    if doc["trunc"][var] != len(coeffs) - 1:
        return f"truncation {doc['trunc'][var]} != {len(coeffs) - 1}"
    want = {((n,), (0,)): c for n, c in enumerate(coeffs) if c}
    if series_terms(doc) != want:
        return "series coefficients differ"
    return None


def check_schwarzian(doc, taylor, order):
    return check_univariate(doc, "z", schwarzian_coeffs(taylor, order))


def _datum(sd):
    """{absolute exponent: coefficient} of a univariate Schwarzian datum."""
    (var,) = sd["vars"]
    off = Q(sd["offset"].get(var, "0"))
    return {n + off: Q(t["c"]) for t in sd["terms"] for n in t["n"]}


def projective_term_expected(req_doc, order):
    """(c/12)(A_n + B_n + sum_i C_i,n) from the definition of the pair data."""
    s_xi, s_pi = _datum(req_doc["S_xi"]), _datum(req_doc["S_pi"])
    out = [Q(0)] * (order + 1)
    for t in req_doc["a"]["terms"]:
        m, n = t["n"]
        if n <= order:
            out[n] += Q(t["c"]) * s_xi.get(Q(n - m - 2), Q(0))
    for t in req_doc["b"]["terms"]:
        n, m = t["n"]
        if n <= order:
            out[n] += Q(t["c"]) * s_pi.get(Q(n - m - 2), Q(0))
    for sd, h in zip(req_doc["S_eta"], req_doc["h"]):
        s_eta = _datum(sd)
        eta_off = Q(h["offset"].get(h["vars"][1], "0"))
        for t in h["terms"]:
            nq, ne = t["n"]
            k = -(eta_off + ne) - 1
            if nq <= order and k >= 0:
                out[nq] += Q(t["c"]) * s_eta.get(k, Q(0))
    c = Q(req_doc.get("c", "1"))
    return [x * c / 12 for x in out]


def projective_term_multi_expected(pairs, c, order):
    """{((e_1, e_2), (0, 0)): value} of the two-pair projective term, k = 0.

    Pair j contributes a_j[m, n, s] S_xi_j(n - m - 2) and b_j[n, m, s]
    S_pi_j(n - m - 2) to q_j^n q_other^s, scaled by c/12.
    """
    out = {}
    for j, p in enumerate(pairs):
        for key, s_val in (("a", _datum(p["S_xi"])), ("b", _datum(p["S_pi"]))):
            for t in p[key]["terms"]:
                x, y, s = t["n"]
                m, n = (x, y) if key == "a" else (y, x)
                if n > order or n - m - 2 < 0 or s > order:
                    continue
                k = ((n, s) if j == 0 else (s, n), (0, 0))
                out[k] = out.get(k, Q(0)) + Q(t["c"]) * s_val.get(Q(n - m - 2), Q(0))
    return {k: v * c / 12 for k, v in out.items() if v}


# -- sewing ---------------------------------------------------------------------------


def character_expected(order, momentum, normalized):
    coeffs = [Q(partition_number(n)) for n in range(order + 1)]
    return coeffs, (Q(0) if normalized else momentum * momentum / 2)


def sew_run_expected(block, inputs, order):
    """Contract the pair (pm, pd) against the identity pairing weight by weight."""
    pm, pd = block["pair"]
    dims = [partition_number(n) for n in range(order + 1)]
    starts = [sum(dims[:n]) for n in range(order + 1)]
    out = [Q(0)] * (order + 1)
    for e in block["entries"]:
        idx = e["idx"]
        if idx[pm] != idx[pd]:
            continue
        prod = Q(e["c"])
        for s, i in enumerate(idx):
            if s not in (pm, pd):
                vec = inputs[str(s)]
                prod *= Q(vec[i]) if i < len(vec) else 0
        i = idx[pm]
        for n in range(order + 1):
            if starts[n] <= i < starts[n] + dims[n]:
                out[n] += prod
    return out


# -- Fuchsian systems -------------------------------------------------------------------


def _system(system):
    """(A_k matrices, omega_k vectors, dimension) of a system document."""
    a = [[[Q(x) for x in row] for row in m] for m in system["A"]]
    return a, [[Q(x) for x in v] for v in system["omega"]], len(a[0])


def fuchs_solution(system, order):
    """psi_n from n psi_n = sum_k A_k psi_{n-k} + omega_n, seeds at resonances.

    The systems the benchmark generates have an upper-triangular A_0; at a
    resonance the seeded components are given and the rest are solved by
    back substitution.
    """
    a, w, d = _system(system)
    seeds = {int(k.split(",")[0]): [Q(x) for x in v] for k, v in system.get("seeds", {}).items()}
    psi = []
    for n in range(order + 1):
        rhs = list(w[n]) if n < len(w) else [Q(0)] * d
        for k in range(1, min(n, len(a) - 1) + 1):
            prev = psi[n - k]
            for i in range(d):
                rhs[i] += sum(a[k][i][j] * prev[j] for j in range(d) if prev[j])
        x = [Q(0)] * d
        free = iter(seeds.get(n, []))
        for i in range(d - 1, -1, -1):
            diag = n - a[0][i][i]
            s = rhs[i] + sum(a[0][i][j] * x[j] for j in range(i + 1, d))
            x[i] = s / diag if diag else next(free)
        psi.append(x)
    return psi


def check_fuchs_recurrence(doc, system, order):
    """Every printed psi_n satisfies n psi_n = sum_k A_k psi_{n-k} + omega_n."""
    a, w, d = _system(system)
    if doc["vars"] != ["q"] or doc["trunc"]["q"] != order:
        return "wrong variables or truncation"
    terms = series_terms(doc)
    if any(l != (0,) for (_, l) in terms):
        return "unexpected log terms"
    psi = [list(terms.get(((n,), (0,)), (Q(0),) * d)) for n in range(order + 1)]
    for n in range(order + 1):
        rhs = list(w[n]) if n < len(w) else [Q(0)] * d
        for k in range(0, min(n, len(a) - 1) + 1):
            prev = psi[n - k]
            for i in range(d):
                rhs[i] += sum(a[k][i][j] * prev[j] for j in range(d) if prev[j])
        if [n * x for x in psi[n]] != rhs:
            return f"recurrence fails at n={n}"
    seeds = {int(k.split(",")[0]) for k in system.get("seeds", {})}
    if seeds and fuchs_solution(system, min(order, max(seeds)))[-1] != psi[max(seeds)]:
        return "seeded coefficient differs"
    return None


def check_certificate(doc, system, order):
    """The printed norms are those of the true solution and satisfy the bound."""
    psi = fuchs_solution(system, order)
    norms = [max(abs(x) for x in v) for v in psi]
    if [Q(x) for x in doc["norms"]] != norms:
        return "certificate norms are not those of the formal solution"
    r1, c, gamma = Q(doc["r1"]), Q(doc["c"]), Q(doc["gamma"])
    if doc["n_checked"] != order or gamma <= 1 or c <= 0:
        return "certificate header is inconsistent"
    if any(r1 ** n * nn > c * gamma ** n for n, nn in enumerate(norms)):
        return "majorant bound violated"
    if Q(doc["r0"]) != r1 / (2 * gamma):
        return "r0 != r1 / (2 gamma)"
    return None
