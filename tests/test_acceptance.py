"""Acceptance suite: every criterion at exact (rational) equality.

One test per criterion; each prints a PASS line on success (run pytest with
-s to see them).  The tolerances are exact equality of rationals, matrices,
or truncated series throughout -- nothing is compared approximately.
"""

import math
import random
from fractions import Fraction

import pytest

from blocksew.cli import main
from blocksew.coords import (
    c2_formula,
    extract_c,
    gamma_xi,
    huang_conjugation_check,
    u_apply,
    u_matrix,
)
from blocksew.fock import (
    BOSON,
    CONFORMAL,
    VACUUM,
    FockModule,
    partitions_of,
    vacuum_module,
    weight,
)
from blocksew.fuchs import (
    BoundViolation,
    FuchsSystem,
    certify,
    residual,
    solve_formal,
)
from blocksew.linalg import QMat, QVec
from blocksew.schwarzian import (
    projective_term,
    schwarzian_jet,
    cocycle_check,
    vir_transition,
    _jets_equal,
)
from blocksew.series import CoordJet, TruncSeries, compose_jets, jet_compose
from blocksew.sewing import (
    INFINITY,
    SewingBlock,
    SpherePoint,
    genus0_invariance_check,
    l0_times,
    q_l0_resolvent,
    residue_identity_check,
    sew,
)
from helpers import euler_partition_count, random_jet_coeffs, random_rational, scalar_pow_weight, schwarzian_at, vec_add, vec_scale

Q = Fraction
SEED = 108


def report(n, label):
    print(f"ACCEPTANCE {n:2d} PASS - {label}")


def test_c01_group_law_on_fock_truncation():
    module = vacuum_module()
    n = 6
    assert module.dim(n) == 30
    rnd = random.Random(SEED)
    for _ in range(50):
        r1 = CoordJet(random_jet_coeffs(rnd, 8))
        r2 = CoordJet(random_jet_coeffs(rnd, 8))
        lhs = u_matrix(compose_jets(r1, r2), module, n)
        rhs = u_matrix(r1, module, n) @ u_matrix(r2, module, n)
        assert lhs == rhs
    report(1, "operator of a composition = product of operators, 50 random jets, W<=6")


def test_c02_triangular_solve_and_closed_form():
    rnd = random.Random(SEED + 1)
    for _ in range(100):
        rho = CoordJet(random_jet_coeffs(rnd, 6))
        ec = extract_c(rho)
        a1, a2, a3 = (rho.coefficient(k) for k in (1, 2, 3))
        assert ec.c0 == a1
        assert ec.cs[0] * ec.c0 == a2
        assert ec.cs[1] * ec.c0 + ec.cs[0] ** 2 * ec.c0 == a3
        assert c2_formula(rho) == ec.cs[1]
    report(2, "triangular relations and the closed form for c2, 100 random jets")


def test_c03_inversion_exchange_identity():
    module = vacuum_module()
    n = 6
    u1 = u_matrix(gamma_xi(1, n + 1), module, n)
    for xi in (Q(1), Q(2), Q(-3), Q(5, 7)):
        lhs = u_matrix(gamma_xi(xi, n + 1), module, n) @ scalar_pow_weight(module, xi, n)
        rhs = scalar_pow_weight(module, 1 / xi, n) @ u1
        assert lhs == rhs
    report(3, "inversion exchange identity on W<=6 for xi in {1, 2, -3, 5/7}")


def test_c04_conjugation_of_vertex_operators():
    module = vacuum_module()
    lam = Q(3, 2)
    alphas = {
        "scaling": CoordJet.from_poly([lam]),
        "quadratic": CoordJet.from_poly([1, 1]),
        "mobius": CoordJet([Q(1)] * 40),
    }
    states = [{mu: Q(1)} for w in range(4) for mu in partitions_of(w)]
    for name, alpha in alphas.items():
        for v in states:
            for w in states:
                ok, rep = huang_conjugation_check(alpha, v, w, module, -4, 6)
                assert ok, (name, v, w, rep["discrepancies"][:2])
    # the scaling case must reduce to weight conjugation:
    # lam^wt . Y(v)_k . lam^-wt = lam^(wt v - k - 1) Y(v)_k as matrices
    for v in states:
        dv = weight(next(iter(v)))
        for k in range(-3, 4):
            tgt = 6 + max(0, dv - k - 1)
            mode = module.vertex_matrix(v, k, 6, tgt)
            lhs = scalar_pow_weight(module, lam, tgt) @ mode @ scalar_pow_weight(module, 1 / lam, 6)
            assert lhs == mode.scale(lam ** (dv - k - 1))
    report(4, "vertex-operator conjugation on window z^-4..z^6, wt(v),wt(w) <= 3")


def test_c05_algebra_relations():
    module = vacuum_module()
    basis8 = [{mu: Q(1)} for w in range(9) for mu in partitions_of(w)]
    for m in range(-4, 5):
        for k in range(-4, 5):
            for vec in basis8:
                got = vec_add(
                    module.apply_heisenberg(m, module.apply_heisenberg(k, vec)),
                    vec_scale(-1, module.apply_heisenberg(k, module.apply_heisenberg(m, vec))),
                )
                want = vec_scale(Q(m), vec) if m + k == 0 else {}
                assert got == want
    for m in range(-3, 4):
        for k in range(-3, 4):
            for vec in basis8:
                got = vec_add(
                    module.apply_virasoro(m, module.apply_virasoro(k, vec)),
                    vec_scale(-1, module.apply_virasoro(k, module.apply_virasoro(m, vec))),
                )
                want = vec_scale(Q(m - k), module.apply_virasoro(m + k, vec))
                if m + k == 0:
                    want = vec_add(want, vec_scale(Q(m ** 3 - m, 12), vec))
                assert got == want
    assert module.apply_virasoro(2, CONFORMAL) == {(): Q(1, 2)}
    for n in range(-3, 4):
        tgt = 6 + max(0, -n)
        lhs = module.contragredient_matrix(CONFORMAL, n + 1, 6, tgt)
        assert lhs == module.virasoro_matrix(-n, tgt, 6).transpose()
    report(5, "mode and Virasoro relations (c=1) at weight 8; transpose rule at weight 6")


def test_c06_schwarzian_suite():
    rnd = random.Random(SEED + 2)
    # Mobius vanishing: z/(1-z) and 2z/(1+3z)
    for coeffs in ([Q(1)] * 12, [Q(2) * Q(-3) ** k for k in range(12)]):
        assert schwarzian_jet(CoordJet(coeffs), 6).is_zero()
    # chain rule and cocycle on random order-6 jets
    for _ in range(10):
        g = CoordJet(random_jet_coeffs(rnd, 9))
        h = CoordJet(random_jet_coeffs(rnd, 9))
        lhs = schwarzian_jet(compose_jets(g, h), 5)
        hp = h.to_laurent().truncated(8).derivative()
        rhs = jet_compose(schwarzian_jet(g, 7), h) * hp * hp + schwarzian_jet(h, 5)
        assert _jets_equal(lhs, rhs, 4)
    for _ in range(6):
        eta, mu, f = (CoordJet(random_jet_coeffs(rnd, 10)) for _ in range(3))
        assert cocycle_check(eta, mu, f, 6)
    # transition action on the conformal vector: derivative formula vs the
    # operator route through the Fock module, central charge 1
    module = vacuum_module()
    u = CoordJet.from_poly([1, 1])
    scale, shift = vir_transition(u, 1, 6)
    assert shift.coefficient({"z": 0}) == Q(1, 12) * schwarzian_at(u, Q(0))
    for p in (Q(0), Q(1, 2), Q(-1, 3)):
        fam = CoordJet(
            [
                sum(Q(math.comb(j, m)) * u.coefficient(j) * p ** (j - m) for j in range(m, u.order + 1))
                for m in range(1, 8)
            ]
        )
        img = u_apply(fam, module, CONFORMAL)
        assert img.get((), Q(0)) == Q(1, 12) * schwarzian_at(u, p)
        d1 = sum(j * u.coefficient(j) * p ** (j - 1) for j in range(1, u.order + 1))
        assert img.get((1, 1), Q(0)) * 2 == d1 * d1
    report(6, "Schwarzian: Mobius kernel, chain rule, cocycle, conformal-vector shift")


def test_c07_sewing_character():
    module = vacuum_module()
    block = SewingBlock.pairing(module, 10)
    series = sew(block, {}, module, 10, normalized=True)
    frozen = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    got = [series.coefficient({"q": n}) for n in range(11)]
    assert got == [Q(x) for x in frozen]
    assert got == [Q(euler_partition_count(n)) for n in range(11)]
    lam = Q(1, 3)
    fmod = FockModule(lam)
    fblock = SewingBlock.pairing(fmod, 6)
    standard = sew(fblock, {}, fmod, 6)
    assert standard.offset == (lam * lam / 2,)
    assert [standard.coefficient({"q": n}) for n in range(7)] == got[:7]
    report(7, "partition character 1,1,2,3,5,7,11,15,22,30,42 and the momentum offset")


def test_c08_two_sided_residue_identity():
    module = vacuum_module()
    states = [{mu: Q(1)} for w in range(4) for mu in partitions_of(w)]
    for u in states:
        for a in range(4):
            for b in range(4):
                f = TruncSeries.monomial(1, ("x", "y"), {"x": 6, "y": 6}, {"x": a, "y": b})
                ok, order, _ = residue_identity_check(u, f, module, 6)
                assert ok and order == 6, (u, a, b)
    one = TruncSeries.constant(1, ("x", "y"), {"x": 6, "y": 6})
    ok, _o, series = residue_identity_check(CONFORMAL, one, module, 6)
    assert ok
    resolvent = q_l0_resolvent(module, 6)
    assert series == resolvent.qdq("q")
    assert series == l0_times(module, resolvent)
    report(8, "residue identity to q^6 over wt<=3 states, bidegree<=(3,3); omega case = L0 resolvent")


def test_c09_genus0_invariance():
    module = vacuum_module()
    n = 11
    block = SewingBlock.pairing(module, n)
    points = [
        SpherePoint(Q(0), CoordJet.identity(), module, dual=False),
        SpherePoint(INFINITY, CoordJet.identity(), module, dual=True),
    ]
    for v in (VACUUM, BOSON, CONFORMAL):
        for k in range(-2, 3):
            ok, fails = genus0_invariance_check(block, points, v, k, 6)
            assert ok, (v, k, fails[:2])
    report(9, "two-point sphere invariance at weight <= 6 for 1, a, omega and k in -2..2")


def test_c10_fuchs_solver_and_certificates():
    # the three formal-solution examples, residuals identically zero
    s1 = FuchsSystem.single([QMat(1, 1)], [QVec(1), QVec.from_list([1])])
    p1 = solve_formal(s1, {(0, 0): [0]}, order=6)
    assert p1.coefficient({"q": 1}) == QVec.from_list([1]) and residual(s1, p1).is_zero()
    s2 = FuchsSystem.single([QMat.from_rows([[2]])], [QVec(1)])
    p2 = solve_formal(s2, {(2, 0): [1]}, order=6)
    assert p2.coefficient({"q": 2}) == QVec.from_list([1]) and residual(s2, p2).is_zero()
    s3 = FuchsSystem.single([QMat.from_rows([[0, 1], [0, 0]])], [QVec(2)])
    p3 = solve_formal(s3, {(0, 1): [1], (0, 0): [1]}, order=6, log_bound=1)
    assert p3.coefficient({"q": 0}, {"q": 1}) == QVec.from_list([1, 0])
    assert residual(s3, p3).is_zero()
    # certificate for the exponential at r1 = 1/2, checked through n = 30
    se = FuchsSystem.single([QMat(1, 1), QMat.from_rows([[1]])], [QVec(1)])
    pe = solve_formal(se, {(0, 0): [1]}, order=30)
    for n in range(31):
        assert pe.coefficient({"q": n})[0] == Q(1, math.factorial(n))
    cert = certify(se, pe, Q(1, 2))
    assert cert.n_checked == 30 and cert.recheck()
    for n in range(31):
        assert Q(1, math.factorial(n)) <= cert.c * cert.gamma ** n * cert.r1 ** (-n)
    bad = TruncSeries(("q",), {"q": 30}, terms=dict(pe.terms))
    bad._store((17,), (0,), QVec.from_list([Q(10) ** 15]))
    with pytest.raises(BoundViolation) as exc:
        certify(se, bad, Q(1, 2))
    assert exc.value.index == 17
    report(10, "formal solutions (incl. log case) with zero residual; certificate and rejection")


def test_c11_projective_term_linearity_vanishing_oracle():
    rnd = random.Random(SEED + 3)
    order = 6

    def plain(vars_):
        return TruncSeries(vars_, {v: 8 for v in vars_})

    def rand_datum(var):
        s = plain((var,))
        for k in range(9):
            s._store((k,), (0,), random_rational(rnd))
        return s

    def rand_pair():
        a = plain(("xi", "pi"))
        for _ in range(8):
            a._store((rnd.randint(0, 8), rnd.randint(0, 8)), (0, 0), random_rational(rnd))
        b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 8, "pi": 8}) - a
        return a, b

    # vanishing: all data in one chart
    a, b = rand_pair()
    out = projective_term(plain(("xi",)), plain(("pi",)), [], a, b, [], 1, order)
    assert out.is_zero()
    # oracle comparison on 20 random inputs
    for _ in range(20):
        s_xi, s_pi = rand_datum("xi"), rand_datum("pi")
        a, b = rand_pair()
        out = projective_term(s_xi, s_pi, [], a, b, [], 12, order)
        oracle = [Q(0)] * (order + 1)
        for (exps, _l), val in a.terms.items():
            m, n = exps
            if n <= order and n - m - 2 >= 0:
                oracle[n] += val * s_xi.coefficient({"xi": n - m - 2})
        for (exps, _l), val in b.terms.items():
            n, m = exps
            if n <= order and n - m - 2 >= 0:
                oracle[n] += val * s_pi.coefficient({"pi": n - m - 2})
        assert [out.coefficient({"q": n}) for n in range(order + 1)] == oracle
    # linearity by superposition
    s1, s2, s_pi = rand_datum("xi"), rand_datum("xi"), rand_datum("pi")
    a, b = rand_pair()
    zero_pi = plain(("pi",))
    t1 = projective_term(s1, zero_pi, [], a, b, [], 1, order)
    t2 = projective_term(s2, zero_pi, [], a, b, [], 1, order)
    t12 = projective_term(s1 + s2, zero_pi, [], a, b, [], 1, order)
    assert t12 == t1 + t2
    report(11, "projective term: chart vanishing, 20 oracle matches, superposition")


def test_c12_cli_determinism(capsys):
    runs = []
    for _ in range(2):
        code = main(["sew", "character", "--order", "8", "--format", "csv", "--seed", "3"])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code = main(["schwarz", "cocycle", "--seed", "11", "--count", "3", "--order", "4"])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    with capsys.disabled():
        report(12, "repeated CLI runs with fixed seeds are byte-identical")
