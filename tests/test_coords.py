import random
from fractions import Fraction

import pytest

from blocksew.coords import (
    ExpCoeffs,
    InsufficientJetOrder,
    _exp_action,
    _exp_coeffs,
    c2_formula,
    extract_c,
    exp_vf_on_z,
    family_jet,
    gamma_xi,
    huang_conjugation_check,
    huang_conjugation_checks,
    u_apply,
    u_matrix,
    u_matrix_dual,
    u_matrix_inverse,
    varrho,
)
from blocksew.fock import BOSON, CONFORMAL, VACUUM, FockModule, partitions_of, vacuum_module, weight
from blocksew.linalg import QMat
from blocksew.series import CoordJet, LaurentJet, NotInvertible, WindowError, compose_jets, ring_one_like
from hypothesis import given, settings, strategies as st

from helpers import (
    JET_LEADS,
    fraction_exp_action,
    fraction_exp_coeffs,
    fraction_matmul,
    list_exp_vf_on_z,
    random_jet_coeffs,
    random_rational,
    random_rational_jet,
    rational_jet,
    scalar_pow_weight,
)

Q = Fraction
SEED = 31337


def per_degree_c(rho):
    """The c_n by one re-expansion per degree: c_m is the coefficient of
    z^(m+1) in rho / c_0 minus that of exp(sum_{n<m} c_n z^{n+1} d/dz) z."""
    one = ring_one_like(rho.a1)
    cs = []
    for m in range(1, rho.order):
        expd = exp_vf_on_z(cs, m + 1, one=one)
        cs.append(rho.coefficient(m + 1) / rho.a1 - expd[m + 1])
    return cs


def with_window(c):
    return (c.coeffs, c.lo, c.hi) if isinstance(c, LaurentJet) else c


class TestExtractC:
    def test_against_per_degree_solve_over_rationals(self):
        rnd = random.Random(SEED + 2)
        for order in list(range(1, 13)) * 2:
            rho = CoordJet(random_jet_coeffs(rnd, order))
            ec = extract_c(rho)
            assert ec.c0 == rho.a1 and ec.cs == per_degree_c(rho)

    def test_against_per_degree_solve_over_laurent_jets(self):
        # family jets, and coefficients on random windows: the windows match too
        rnd = random.Random(SEED + 3)
        jets = [family_jet(CoordJet(random_jet_coeffs(rnd, k)), var="t", max_degree=k - 1) for k in (4, 6, 8)]
        for _ in range(12):
            order = rnd.randint(2, 6)
            lead = LaurentJet({0: Fraction(rnd.choice([1, -2, 3])), 1: random_rational(rnd)}, 0, rnd.choice([None, 3]), "t")
            rest = []
            for _k in range(order - 1):
                lo, hi = rnd.choice([0, 1]), rnd.choice([None, 2, 4])
                top = 4 if hi is None else hi
                rest.append(LaurentJet({e: random_rational(rnd) for e in range(lo, top + 1)}, lo, hi, "t"))
            jets.append(CoordJet([lead] + rest))
        for rho in jets:
            ec = extract_c(rho)
            assert [with_window(c) for c in ec.cs] == [with_window(c) for c in per_degree_c(rho)]

    def test_against_the_fraction_solve(self):
        rnd = random.Random(SEED + 20)
        for den in (3, 997):
            for lead in JET_LEADS:
                for exact in (False, True):
                    for order in range(1, 17):
                        rho = random_rational_jet(rnd, order, den, lead, exact)
                        ec = extract_c(rho)
                        assert ec.c0 is rho.a1 and ec.cs == fraction_exp_coeffs(rho), rho

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        lead=st.sampled_from(JET_LEADS),
        den=st.sampled_from([3, 997]),
        terms=st.lists(st.tuples(st.one_of(st.just(0), st.integers(-9, 9)), st.integers(0, 2)), max_size=15),
        exact=st.booleans(),
    )
    def test_property_against_the_fraction_solve(self, lead, den, terms, exact):
        rho = rational_jet(lead, den, terms, exact)
        assert extract_c(rho).cs == fraction_exp_coeffs(rho)

    def test_pure_scaling(self):
        ec = extract_c(CoordJet.from_poly([2]).truncate(4))
        assert ec.c0 == 2 and all(c == 0 for c in ec.cs)

    def test_triangular_relations(self):
        # c0 = a1, c1 c0 = a2, c2 c0 + c1^2 c0 = a3
        rnd = random.Random(SEED)
        for _ in range(20):
            rho = CoordJet(random_jet_coeffs(rnd, 5))
            ec = extract_c(rho)
            a1, a2, a3 = (rho.coefficient(k) for k in (1, 2, 3))
            assert ec.c0 == a1
            assert ec.cs[0] * ec.c0 == a2
            assert ec.cs[1] * ec.c0 + ec.cs[0] ** 2 * ec.c0 == a3

    def test_quadratic_example(self):
        ec = extract_c(CoordJet.from_poly([1, 1]).truncate(4))
        assert (ec.c0, ec.cs[0], ec.cs[1]) == (Q(1), Q(1), Q(-1))

    def test_gamma_one_jet(self):
        ec = extract_c(gamma_xi(1, 5))
        assert ec.c0 == -1 and ec.cs[0] == -1 and all(c == 0 for c in ec.cs[1:])

    def test_gamma_one_against_conjugation_identity(self):
        # the closed form e^{xi L1} (-xi^-2)^{wt} follows from the scaling
        # conjugation of L_1; compare the two operator constructions
        module = vacuum_module()
        n = 4
        for xi in (Q(1), Q(2), Q(-3)):
            got = u_matrix(gamma_xi(xi, n + 1), module, n)
            l1 = module.virasoro_matrix(1, n, n)
            exp = QMat.identity(module.dim(n))
            term = QMat.identity(module.dim(n))
            k = 1
            while not term.is_zero():
                term = (l1 @ term).scale(xi * Q(1, k))
                exp = exp + term
                k += 1
            want = exp @ scalar_pow_weight(module, -(xi ** -2), n)
            assert got == want

    def test_roundtrip_reexpansion(self):
        rnd = random.Random(SEED + 1)
        for _ in range(20):
            rho = CoordJet(random_jet_coeffs(rnd, 7))
            ec = extract_c(rho)
            expd = exp_vf_on_z(ec.cs, 7)
            got = [ec.c0 * expd[k] for k in range(1, 8)]
            assert got == rho.coeffs

    def test_rejects_singular(self):
        with pytest.raises(NotInvertible):
            extract_c(CoordJet([Q(0), Q(1)]))


class TestExpVfOnZ:
    """exp_vf_on_z, on the module exponential's loop, against the list loop it replaced."""

    def test_against_the_list_loop(self):
        # rational c_n with zero entries; a rational one, and a LaurentJet one on a finite window
        rnd = random.Random(SEED + 4)
        for cap in range(13):
            for _ in range(4):
                cs = [random_rational(rnd) if rnd.random() < 0.6 else Q(0) for _ in range(rnd.randint(0, cap + 2))]
                assert exp_vf_on_z(cs, cap) == list_exp_vf_on_z(cs, cap)
                one = LaurentJet.const(1, var="t").truncated(rnd.randint(0, 6))
                got, want = exp_vf_on_z(cs, cap, one=one), list_exp_vf_on_z(cs, cap, one=one)
                assert [with_window(c) for c in got] == [with_window(c) for c in want]
        assert exp_vf_on_z([Q(0)] * 3, 3) == [Q(0), Q(1), Q(0), Q(0)] and exp_vf_on_z([Q(1)], 0) == [Q(0)]

    def test_against_the_list_loop_over_laurent_coefficients(self):
        # c_n on finite windows starting at 0, as a family jet's are: the windows match too
        rnd = random.Random(SEED + 5)

        def jet(hi):
            return LaurentJet({e: random_rational(rnd) for e in range(hi + 1) if rnd.random() < 0.7}, 0, hi, "t")

        for cap in range(13):
            for _ in range(2):
                one = LaurentJet.const(1, var="t").truncated(rnd.randint(2, 6))
                cs = [jet(rnd.randint(0, 6)) if rnd.random() < 0.6 else LaurentJet.zero("t") for _ in range(cap + 1)]
                got, want = exp_vf_on_z(cs, cap, one=one), list_exp_vf_on_z(cs, cap, one=one)
                assert [with_window(c) for c in got] == [with_window(c) for c in want]


class TestC2Formula:
    def test_cubic(self):
        assert c2_formula(CoordJet.from_poly([1, 0, 1])) == 1

    def test_quadratic(self):
        assert c2_formula(CoordJet.from_poly([1, 1])) == -1

    def test_scaling(self):
        assert c2_formula(CoordJet.from_poly([2])) == 0

    def test_needs_order_three(self):
        with pytest.raises(WindowError):
            c2_formula(CoordJet([Q(1), Q(1)]))

    def test_matches_triangular_solve(self):
        rnd = random.Random(SEED + 2)
        for _ in range(20):
            rho = CoordJet(random_jet_coeffs(rnd, 5))
            assert c2_formula(rho) == extract_c(rho).cs[1]


class TestGamma:
    def test_expansion(self):
        assert gamma_xi(1, 3).coeffs == [Q(-1), Q(1), Q(-1)]

    def test_scaling_identity(self):
        # gamma_xi(xi z) = xi^{-1} gamma_1(z)
        for xi in (Q(2), Q(-3), Q(5, 7)):
            lhs = compose_jets(gamma_xi(xi, 6), CoordJet.from_poly([xi]))
            assert lhs == gamma_xi(1, 6).scale(1 / xi)

    def test_involution(self):
        g = gamma_xi(1, 6)
        assert compose_jets(g, g) == CoordJet.identity(6)

    def test_rejects_zero(self):
        with pytest.raises(NotInvertible):
            gamma_xi(0, 3)


class TestUOperator:
    def test_scaling_action(self):
        module = vacuum_module()
        for mu in partitions_of(3):
            out = u_apply(CoordJet.from_poly([2]), module, {mu: Q(1)})
            assert out == {mu: Q(8)}

    def test_matrix_matches_u_apply_column_by_column(self):
        # reference: the operator applied to each basis vector as a dict vector
        rnd = random.Random(SEED + 7)
        heights = {"small": (4, 3), "large": (10**9, 997)}
        for momentum in (Q(0), Q(-5, 3)):
            module = FockModule(momentum)
            for n in (3, 6):
                index = {mu: i for i, mu in enumerate(module.basis(n))}
                for num, den in heights.values():
                    rho = CoordJet(
                        [Q(rnd.choice([-3, -2, 2, 5]))]
                        + [Q(rnd.randint(-num, num), rnd.randint(1, den)) for _ in range(n + 2)]
                    )
                    # a jet past n+1, one of order exactly n+1, and an exact jet shorter than n+1
                    for jet in (rho, rho.truncate(n + 1), CoordJet.from_poly([rho.a1, rho.coefficient(2)])):
                        ref = {}
                        for mu, col in index.items():
                            for tau, c in u_apply(jet, module, {mu: Q(1)}).items():
                                ref.setdefault(index[tau], {})[col] = c
                        assert u_matrix(jet, module, n) == QMat(len(index), len(index), ref), (momentum, n, jet)

    @staticmethod
    def fraction_exponential(rho, module, n):
        """The operator by its first construction: rho'(0)^wt times exp(t) summed
        term by term, t^k / k! = (t @ t^(k-1) / (k-1)!) / k, in Fraction products."""
        ec = extract_c(rho.truncate(n + 1))
        dim = module.dim(n)
        t = QMat(dim, dim)
        for k, ck in enumerate(ec.cs, start=1):
            if ck:
                t = t + module.virasoro_matrix(k, n, n).scale(ck)
        exp = term = QMat.identity(dim)
        for k in range(1, n + 2):
            term = QMat(dim, dim, fraction_matmul(t, term)).scale(Q(1, k))
            if term.is_zero():
                break
            exp = exp + term
        return fraction_matmul(scalar_pow_weight(module, ec.c0, n), exp)

    def test_matrix_matches_fraction_exponential(self):
        rnd = random.Random(SEED + 10)
        for momentum in (Q(0), Q(1, 3)):
            module = FockModule(momentum)
            for n in range(7):
                for lead in (Q(1), Q(-3), Q(5, 7)):
                    small = [lead] + random_jet_coeffs(rnd, n + 1)[1:]
                    wide = [lead] + [Q(rnd.randint(-50, 50), 997 ** rnd.randint(1, 2)) for _ in range(n)]
                    for rho in (CoordJet(small), CoordJet(wide), CoordJet(wide[:2], exact=True)):
                        assert u_matrix(rho, module, n).rows == self.fraction_exponential(rho, module, n), (
                            momentum,
                            n,
                            rho,
                        )

    def test_exp_action_on_integers_matches_the_fraction_loop(self):
        # rational c_n and vectors run on integer numerators; the same data as
        # constant LaurentJets take the ring path; both must give the Fraction loop's vector
        rnd = random.Random(SEED + 11)
        const = lambda c: LaurentJet.const(c, var="t")
        for momentum in (Q(0), Q(1, 3), Q(-5, 3)):
            module = FockModule(momentum)
            for lead in (Q(1), Q(-3), Q(5, 7)):
                rho = CoordJet([lead] + [Q(rnd.randint(-996, 996), 997) for _ in range(6)])
                ec = _exp_coeffs(rho, 5)
                ring_ec = ExpCoeffs(const(ec.c0), [const(c) for c in ec.cs])
                for weights in ((0,), (3,), (1, 4), (0, 2, 5)):
                    basis = [mu for mu in module.basis(5) if weight(mu) in weights]
                    vec = {mu: random_rational(rnd, 9, 997) or Q(1) for mu in rnd.sample(basis, min(6, len(basis)))}
                    want = fraction_exp_action(ec, module, vec)
                    assert _exp_action(ec, module, vec) == want, (momentum, lead, vec)
                    ring = _exp_action(ring_ec, module, {mu: const(c) for mu, c in vec.items()})
                    assert {mu: c.coeff(0) for mu, c in ring.items()} == want, (momentum, lead, vec)

    def test_identity_matrix(self):
        module = vacuum_module()
        assert u_matrix(CoordJet.identity(), module, 4) == QMat.identity(module.dim(4))

    def test_leading_term_strict_triangularity(self):
        # U(rho) - rho'(0)^{weight} strictly lowers the weight filtration
        module = vacuum_module()
        rnd = random.Random(SEED + 3)
        basis = module.basis(5)
        for _ in range(5):
            rho = CoordJet(random_jet_coeffs(rnd, 7))
            diff = u_matrix(rho, module, 5) - scalar_pow_weight(module, rho.a1, 5)
            for i, row in diff.rows.items():
                for j in row:
                    assert weight(basis[i]) < weight(basis[j])

    def test_eq22_inversion_exchange(self):
        module = vacuum_module()
        n = 6
        u1 = u_matrix(gamma_xi(1, n + 1), module, n)
        for xi in (Q(1), Q(2), Q(-3), Q(5, 7)):
            lhs = u_matrix(gamma_xi(xi, n + 1), module, n) @ scalar_pow_weight(module, xi, n)
            rhs = scalar_pow_weight(module, 1 / xi, n) @ u1
            assert lhs == rhs

    def test_homomorphism(self):
        module = vacuum_module()
        rnd = random.Random(SEED + 4)
        for _ in range(10):
            r1 = CoordJet(random_jet_coeffs(rnd, 6))
            r2 = CoordJet(random_jet_coeffs(rnd, 6))
            assert u_matrix(compose_jets(r1, r2), module, 4) == u_matrix(r1, module, 4) @ u_matrix(r2, module, 4)

    def test_insufficient_jet_order(self):
        # weight 4 needs a_1..a_5: u_apply and u_matrix refuse the same short jet
        module = vacuum_module()
        short = CoordJet([Q(1)] * 4)
        with pytest.raises(InsufficientJetOrder):
            u_matrix(short, module, 4)
        with pytest.raises(InsufficientJetOrder):
            u_apply(short, module, {(2, 2): Q(1)})
        assert u_matrix(short, module, 3) == u_matrix(CoordJet([Q(1)] * 5), module, 3)
        assert u_apply(short, module, {(2, 1): Q(1)}) == u_apply(CoordJet([Q(1)] * 5), module, {(2, 1): Q(1)})

    def test_inverse(self):
        module = vacuum_module()
        rho = CoordJet(random_jet_coeffs(random.Random(SEED + 5), 7))
        assert u_matrix(rho, module, 5) @ u_matrix_inverse(rho, module, 5) == QMat.identity(module.dim(5))

    def test_dual_homomorphism_and_identity(self):
        module = vacuum_module()
        rnd = random.Random(SEED + 6)
        assert u_matrix_dual(CoordJet.identity(), module, 4) == QMat.identity(module.dim(4))
        r1 = CoordJet(random_jet_coeffs(rnd, 6))
        r2 = CoordJet(random_jet_coeffs(rnd, 6))
        assert u_matrix_dual(compose_jets(r1, r2), module, 4) == u_matrix_dual(r1, module, 4) @ u_matrix_dual(
            r2, module, 4
        )

    @staticmethod
    def transposed_lowering_exponential(rho, module, n):
        """The dual operator as first defined: rho'(0)^wt exp(sum c_n L_{-n})^T on the truncation."""
        ec = extract_c(rho.truncate(n + 1))
        dim = module.dim(n)
        t = QMat(dim, dim)
        for k, ck in enumerate(ec.cs, start=1):
            t = t + module.virasoro_matrix(-k, n, n).scale(ck)
        exp = term = QMat.identity(dim)
        for k in range(1, n + 2):
            term = (t @ term).scale(Q(1, k))
            exp = exp + term
        return scalar_pow_weight(module, ec.c0, n) @ exp.transpose()

    def test_dual_matches_transposed_lowering_exponential(self):
        rnd = random.Random(SEED + 9)
        for momentum in (Q(0), Q(1, 3), Q(-5, 3)):
            module = FockModule(momentum)
            for n in range(8):
                exact = CoordJet(random_jet_coeffs(rnd, rnd.randint(1, n + 1)), exact=True)
                inexact = CoordJet(random_jet_coeffs(rnd, n + 1))
                for rho in (exact, inexact):
                    assert u_matrix_dual(rho, module, n) == self.transposed_lowering_exponential(rho, module, n), (
                        momentum,
                        n,
                        rho,
                    )

    def test_raising_mode_transpose_is_shapovalov_conjugate(self):
        # <mu, mu> read off the module: the annihilators a_{mu_i} take a_{-mu}|p> to <mu, mu> |p>
        n = 6
        for momentum in (Q(0), Q(1, 3), Q(-5, 3)):
            module = FockModule(momentum)
            norms = []
            for mu in module.basis(n):
                vec = {mu: Q(1)}
                for part in mu:
                    vec = module.apply_heisenberg(part, vec)
                norms.append(vec[()])
            g = QMat(len(norms), len(norms), {i: {i: z} for i, z in enumerate(norms)})
            g_inv = QMat(len(norms), len(norms), {i: {i: 1 / z} for i, z in enumerate(norms)})
            for k in (1, 2, 3):
                raising = module.virasoro_matrix(-k, n, n)
                assert raising.transpose() == g @ module.virasoro_matrix(k, n, n) @ g_inv


class TestVarrho:
    def test_self_transition_is_identity(self):
        rho = CoordJet(random_jet_coeffs(random.Random(SEED + 7), 6))
        assert varrho(rho, rho) == CoordJet.identity(6)

    def test_cocycle(self):
        rnd = random.Random(SEED + 8)
        for _ in range(8):
            e1, e2, e3 = (CoordJet(random_jet_coeffs(rnd, 6)) for _ in range(3))
            lhs = varrho(e3, e1)
            rhs = compose_jets(varrho(e3, e2), varrho(e2, e1))
            assert lhs == rhs

    def test_sewing_node_transition_is_scaled_inversion(self):
        # two coordinates tied by xi * pi = q: the transition jet from the
        # xi-side to the pi-side is q * gamma_(xi0), verified symbolically
        # through an auxiliary parametrization
        q0, xi0 = Q(3, 7), Q(2)
        order = 7
        s_param = CoordJet.from_poly([1, 1])  # xi - xi0 = s + s^2
        # pi - pi0 = q0/(xi0 + (s+s^2)) - q0/xi0 as a jet in s
        xi_jet = s_param.to_laurent("s").truncated(order + 2)
        denom = xi_jet + LaurentJet.const(xi0, var="s")
        pi_jet = (LaurentJet.const(q0, var="s") * denom.inv()) - LaurentJet.const(q0 / xi0, var="s")
        eta = pi_jet.to_coordjet(order)
        trans = varrho(eta, s_param, order=order)
        assert trans == gamma_xi(xi0, order).scale(q0)


class TestHuangConjugation:
    def test_vacuum_is_trivial(self):
        module = vacuum_module()
        ok, rep = huang_conjugation_check(CoordJet.from_poly([1, 1]), VACUUM, {(2, 1): Q(1)}, module, -3, 3)
        assert ok, rep

    def test_scaling_reduces_to_weight_conjugation(self):
        module = vacuum_module()
        lam = Q(3, 2)
        for v in (BOSON, CONFORMAL):
            ok, rep = huang_conjugation_check(CoordJet.from_poly([lam]), v, {(1, 1): Q(1)}, module, -4, 4)
            assert ok, rep

    def test_quadratic_on_conformal(self):
        module = vacuum_module()
        ok, rep = huang_conjugation_check(
            CoordJet.from_poly([1, 1]), CONFORMAL, {(1, 1): Q(1)}, module, -4, 4
        )
        assert ok, rep

    def test_mobius_full_window(self):
        module = vacuum_module()
        mob = CoordJet([Q(1)] * 30)
        ok, rep = huang_conjugation_check(mob, BOSON, {(2,): Q(1)}, module, -4, 4)
        assert ok, rep

    def test_multi_pair_check_matches_single_pair_calls(self):
        module = vacuum_module()
        states = [{mu: Q(1)} for w in range(3) for mu in partitions_of(w)]
        pairs = [(v, w) for v in states for w in states]
        # both pair orders: shared work must serve the pairs met before and after it
        cases = [(CoordJet.from_poly([Q(-4, 3)]), pairs), (CoordJet.from_poly([1, 1]), pairs[::-1])]
        for alpha, ordered in cases + [(CoordJet([Q(1)] * 40), pairs)]:
            want = [huang_conjugation_check(alpha, v, w, module, -3, 4) for v, w in ordered]
            assert huang_conjugation_checks(alpha, ordered, module, -3, 4) == want, alpha
        # the first pair fits a jet of order 9, later ones do not
        short = CoordJet([Q(1)] * 9)
        assert huang_conjugation_checks(short, pairs[:1], module, -4, 6) == [
            huang_conjugation_check(short, *pairs[0], module, -4, 6)
        ]
        with pytest.raises(InsufficientJetOrder):
            huang_conjugation_checks(short, pairs, module, -4, 6)
        with pytest.raises(InsufficientJetOrder):
            for v, w in pairs:
                huang_conjugation_check(short, v, w, module, -4, 6)

    def test_shared_work_is_refused_for_another_alpha(self):
        # the memo's keys name no alpha: work filled for one alpha must not serve another
        module = vacuum_module()
        shared: dict = {}
        scaling, quadratic = CoordJet.from_poly([Q(3, 2)]), CoordJet.from_poly([1, 1])
        first = huang_conjugation_check(scaling, CONFORMAL, {(1, 1): Q(1)}, module, -4, 4, shared)
        assert huang_conjugation_check(scaling, CONFORMAL, {(1, 1): Q(1)}, module, -4, 4, shared) == first
        with pytest.raises(ValueError):
            huang_conjugation_check(quadratic, CONFORMAL, {(1, 1): Q(1)}, module, -4, 4, shared)
        with pytest.raises(ValueError):
            huang_conjugation_check(CoordJet([Q(3, 2)]), CONFORMAL, {(1, 1): Q(1)}, module, -4, 4, shared)

    def test_family_jet_windows(self):
        fam = family_jet(CoordJet([Q(1)] * 8), max_degree=3)
        # coefficient of x^m is known to t-order 8 - m for a truncated jet
        for m, jet in enumerate(fam.coeffs, start=1):
            assert jet.hi == 8 - m

    def test_window_too_small_is_an_error(self):
        module = vacuum_module()
        tiny = CoordJet([Q(1)] * 9)  # too short for the requested window
        with pytest.raises(InsufficientJetOrder):
            huang_conjugation_check(tiny, CONFORMAL, {(2, 1): Q(1)}, module, -4, 6)
