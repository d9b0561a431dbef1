import math
import random
from fractions import Fraction

import pytest

from blocksew.coords import u_apply
from blocksew.fock import CONFORMAL, vacuum_module
from blocksew.schwarzian import (
    cocycle_check,
    mobius_from_quadratic,
    projective_term,
    projective_term_multi,
    schwarzian,
    schwarzian_jet,
    transition_quadratic,
    vir_transition,
    _jets_equal,
)
from blocksew.series import (
    CoordJet,
    LaurentJet,
    OffsetError,
    SeriesError,
    TruncSeries,
    VariableMismatch,
    WindowError,
    compose_jets,
    jet_compose,
)
from helpers import fraction_projective_term, random_jet_coeffs, random_rational, schwarzian_at

Q = Fraction
SEED = 424242


def mobius_jet(a, b, c, d, order=14):
    # (a z + b)/(c z + d) with b = 0 so the constant term vanishes
    num = LaurentJet({1: Q(a)}, 0, None)
    den = LaurentJet({0: Q(d), 1: Q(c)}, 0, None)
    return (num * den.inv(rel_order=order + 2)).to_coordjet(order)


class TestSchwarzianDerivative:
    def test_mobius_vanishing(self):
        for (a, c, d) in ((1, -1, 1), (2, 3, 1), (1, 5, 2)):
            s = schwarzian_jet(mobius_jet(a, 0, c, d), 8)
            assert s.is_zero()

    def test_general_mobius_with_constant_term(self):
        num = LaurentJet({0: Q(2), 1: Q(3)}, 0, None)
        den = LaurentJet({0: Q(1), 1: Q(5)}, 0, None)
        f = num * den.inv(rel_order=16)
        assert schwarzian_jet(f, 8).is_zero()

    def test_exponential_closed_form(self):
        # S(e^z) = -1/2 identically
        ez = LaurentJet({k: Q(1, math.factorial(k)) for k in range(16)}, 0, 15)
        s = schwarzian_jet(ez, 10)
        assert s.coeffs == {0: Q(-1, 2)}

    def test_inverse_coordinate(self):
        f = LaurentJet({-1: Q(1)}, -1, None)
        assert schwarzian_jet(f, 6).is_zero()

    def test_chain_rule(self):
        rnd = random.Random(SEED)
        for _ in range(10):
            g = CoordJet(random_jet_coeffs(rnd, 9))
            h = CoordJet(random_jet_coeffs(rnd, 9))
            lhs = schwarzian_jet(compose_jets(g, h), 5)
            hp = h.to_laurent().truncated(8).derivative()
            rhs = jet_compose(schwarzian_jet(g, 7), h) * hp * hp + schwarzian_jet(h, 5)
            assert _jets_equal(lhs, rhs, 4)

    def test_antisymmetry_of_transition(self):
        rnd = random.Random(SEED + 1)
        eta = CoordJet(random_jet_coeffs(rnd, 9))
        mu = CoordJet(random_jet_coeffs(rnd, 9))
        t1 = transition_quadratic(eta, mu, 4)
        t2 = transition_quadratic(mu, eta, 4)
        assert _jets_equal(t1, -t2, 4)

    def test_truncseries_return_type(self):
        out = schwarzian(CoordJet.from_poly([1, 1]), 6)
        assert isinstance(out, TruncSeries)
        # S(z+z^2) = -6/(1+2z)^2, value -6 at the origin
        assert out.coefficient({"z": 0}) == -6

    def test_pointwise_values(self):
        u = CoordJet.from_poly([1, 1])
        for p in (Q(0), Q(1, 2), Q(-1, 3)):
            d1 = 1 + 2 * p
            want = -Q(3, 2) * (2 / d1) ** 2
            assert schwarzian_at(u, p) == want


class TestCocycle:
    def test_equal_coordinates_vanish(self):
        rnd = random.Random(SEED + 2)
        g = CoordJet(random_jet_coeffs(rnd, 9))
        h = CoordJet(random_jet_coeffs(rnd, 9))
        assert cocycle_check(g, g, h, 4)

    def test_mobius_terms_vanish(self):
        eta = mobius_jet(1, 0, -1, 1)
        mu = mobius_jet(2, 0, 3, 1)
        f = mobius_jet(1, 0, 5, 2)
        t = transition_quadratic(eta, mu, 4)
        assert t.is_zero()
        assert cocycle_check(eta, mu, f, 4)

    def test_random_order_six(self):
        rnd = random.Random(SEED + 3)
        for _ in range(6):
            eta, mu, f = (CoordJet(random_jet_coeffs(rnd, 10)) for _ in range(3))
            assert cocycle_check(eta, mu, f, 6)


class TestVirTransition:
    def test_identity(self):
        scale, shift = vir_transition(CoordJet.identity(4), 1, 4)
        assert scale == TruncSeries.constant(1, ("z",), {"z": 4})
        assert shift.is_zero()

    def test_mobius_has_no_shift(self):
        mob = mobius_jet(1, 0, 3, 1)
        scale, shift = vir_transition(mob, 1, 5)
        assert shift.is_zero()
        assert not scale.is_zero()

    def test_shift_agrees_with_operator_on_conformal_vector(self):
        # two code paths: derivative formula vs the triangular solve plus the
        # finite exponential acting on the conformal vector, central charge 1
        module = vacuum_module()
        u = CoordJet.from_poly([1, 1])
        for p in (Q(0), Q(1, 2), Q(-1, 3), Q(2)):
            fam = CoordJet(
                [
                    sum(
                        Q(math.comb(j, m)) * u.coefficient(j) * p ** (j - m)
                        for j in range(m, u.order + 1)
                    )
                    for m in range(1, 8)
                ]
            )
            img = u_apply(fam, module, CONFORMAL)
            scale_at_p = img.get((1, 1), Q(0)) * 2
            shift_at_p = img.get((), Q(0))
            d1 = sum(j * u.coefficient(j) * p ** (j - 1) for j in range(1, u.order + 1))
            assert scale_at_p == d1 * d1
            assert shift_at_p == Q(1, 12) * schwarzian_at(u, p)


class TestQuadraticSolve:
    def test_roundtrip_random(self):
        rnd = random.Random(SEED + 4)
        for _ in range(8):
            qs = [random_rational(rnd) for _ in range(4)]
            f = mobius_from_quadratic(qs, 12)
            s = schwarzian_jet(f, 7)
            for k in range(0, min(s.hi, 7) + 1):
                want = qs[k] if k < len(qs) else Q(0)
                assert s.coeffs.get(k, Q(0)) == want

    def test_zero_gives_mobius(self):
        f = mobius_from_quadratic([], 10)
        assert schwarzian_jet(f, 6).is_zero()


def plain(vars_, order):
    return TruncSeries(vars_, {v: order for v in vars_})


def rand_bivariate(rnd, order, var1="xi", var2="pi"):
    s = plain((var1, var2), order)
    for _ in range(8):
        s._store((rnd.randint(0, order), rnd.randint(0, order)), (0, 0), random_rational(rnd))
    return s


def rand_univariate(rnd, order, var):
    s = plain((var,), order)
    for k in range(order + 1):
        s._store((k,), (0,), random_rational(rnd))
    return s


def oracle_pair_series(s_xi, s_pi, a, b, order):
    """Independent extraction through explicit Laurent residues."""
    out = [Q(0)] * (order + 1)
    for n in range(order + 1):
        poly_a = {}
        poly_b = {}
        for (m, nn), val in ((k[0], v) for k, v in a.terms.items()):
            if nn == n:
                poly_a[m - n + 1] = poly_a.get(m - n + 1, Q(0)) + val
        for (nn, m), val in ((k[0], v) for k, v in b.terms.items()):
            if nn == n:
                poly_b[m - n + 1] = poly_b.get(m - n + 1, Q(0)) + val
        for poly, sdat in ((poly_a, s_xi), (poly_b, s_pi)):
            if not poly:
                continue
            jet = LaurentJet(poly, min(min(poly), 0), None)  # exact Laurent polynomial
            sjet = LaurentJet(
                {k: sdat.coefficient({sdat.vars[0]: k}) for k in range(sdat.trunc[0] + 1)},
                0,
                sdat.trunc[0],
            )
            prod = sjet * jet
            if prod.lo <= -1 and (prod.hi is None or prod.hi >= -1):
                out[n] += prod.coeff(-1)
    return out


class TestProjectiveTerm:
    def test_vanishes_in_a_common_projective_chart(self):
        order = 6
        rnd = random.Random(SEED + 5)
        zero_xi = plain(("xi",), 8)
        zero_pi = plain(("pi",), 8)
        zero_eta = plain(("eta",), 8)
        a = rand_bivariate(rnd, 8)
        b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 8, "pi": 8}) - a
        h = TruncSeries.monomial(1, ("q", "eta"), {"q": 8, "eta": 4}, offset={"eta": Q(-1)})
        out = projective_term(zero_xi, zero_pi, [zero_eta], a, b, [h], 1, order)
        assert out.is_zero()

    def test_single_marked_point_residue(self):
        s0 = Q(7, 3)
        seta = TruncSeries.constant(s0, ("eta",), {"eta": 8})
        h = TruncSeries.monomial(1, ("q", "eta"), {"q": 8, "eta": 4}, offset={"eta": Q(-1)})
        half = TruncSeries.constant(Q(1, 2), ("xi", "pi"), {"xi": 8, "pi": 8})
        out = projective_term(plain(("xi",), 8), plain(("pi",), 8), [seta], half, half, [h], 12, 6)
        assert out == TruncSeries.constant(s0, ("q",), {"q": 6})

    def test_pure_xi_squared_field(self):
        sxi = TruncSeries.constant(1, ("xi",), {"xi": 8})
        a = TruncSeries.monomial(1, ("xi", "pi"), {"xi": 8, "pi": 8}, {"xi": 2})
        b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 8, "pi": 8}) - a
        out = projective_term(sxi, plain(("pi",), 8), [], a, b, [], 1, 6)
        oracle = oracle_pair_series(sxi, plain(("pi",), 8), a, b, 6)
        assert [out.coefficient({"q": n}) for n in range(7)] == oracle

    def test_requires_unit_sum(self):
        a = rand_bivariate(random.Random(SEED + 6), 6)
        with pytest.raises(SeriesError):
            projective_term(plain(("xi",), 6), plain(("pi",), 6), [], a, a, [], 1, 4)

    def test_insufficient_truncation(self):
        a = TruncSeries.constant(Q(1, 2), ("xi", "pi"), {"xi": 3, "pi": 3})
        with pytest.raises(WindowError):
            projective_term(plain(("xi",), 8), plain(("pi",), 8), [], a, a, [], 1, 6)

    def test_matches_double_series_oracle_on_random_inputs(self):
        rnd = random.Random(SEED + 7)
        order = 6
        for _ in range(20):
            s_xi = rand_univariate(rnd, 8, "xi")
            s_pi = rand_univariate(rnd, 8, "pi")
            a = rand_bivariate(rnd, 8)
            b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 8, "pi": 8}) - a
            out = projective_term(s_xi, s_pi, [], a, b, [], 12, order)
            oracle = oracle_pair_series(s_xi, s_pi, a, b, order)
            assert [out.coefficient({"q": n}) for n in range(order + 1)] == oracle

    def test_linearity_in_data(self):
        rnd = random.Random(SEED + 8)
        order = 5
        s1 = rand_univariate(rnd, 8, "xi")
        s2 = rand_univariate(rnd, 8, "xi")
        s_pi = rand_univariate(rnd, 8, "pi")
        a = rand_bivariate(rnd, 8)
        b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 8, "pi": 8}) - a
        t1 = projective_term(s1, s_pi, [], a, b, [], 1, order)
        t2 = projective_term(s2, s_pi, [], a, b, [], 1, order)
        t12 = projective_term(s1 + s2, s_pi.scale(2), [], a, b, [], 1, order)
        # additive in the xi-datum; the pi-datum entered twice
        assert t12 == t1 + t2 + projective_term(plain(("xi",), 8), s_pi, [], a, b, [], 1, order)

    def test_additivity_in_marked_point_fields(self):
        rnd = random.Random(SEED + 11)
        order = 4
        seta = rand_univariate(rnd, 8, "eta")
        half = TruncSeries.constant(Q(1, 2), ("xi", "pi"), {"xi": 8, "pi": 8})
        zero_xi, zero_pi = plain(("xi",), 8), plain(("pi",), 8)

        def h_series():
            h = TruncSeries(("q", "eta"), {"q": 8, "eta": 6}, offset={"eta": Q(-3)})
            for _ in range(6):
                h._store((rnd.randint(0, 8), rnd.randint(0, 6)), (0, 0), random_rational(rnd))
            return h

        h1, h2 = h_series(), h_series()
        t1 = projective_term(zero_xi, zero_pi, [seta], half, half, [h1], 1, order)
        t2 = projective_term(zero_xi, zero_pi, [seta], half, half, [h2], 1, order)
        t12 = projective_term(zero_xi, zero_pi, [seta], half, half, [h1 + h2], 1, order)
        assert t12 == t1 + t2
        both = projective_term(zero_xi, zero_pi, [seta, seta], half, half, [h1, h2], 1, order)
        assert both == t1 + t2

    def test_invariant_under_mobius_change_of_chart_germ(self):
        # data produced from chart germs depend only on the projective
        # structure: post-composing every germ with a Mobius map leaves the
        # extracted Schwarzian data, hence the term, unchanged
        rnd = random.Random(SEED + 9)
        order = 5
        germ_xi = CoordJet(random_jet_coeffs(rnd, 10))
        germ_pi = CoordJet(random_jet_coeffs(rnd, 10))
        a = rand_bivariate(rnd, 8)
        b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 8, "pi": 8}) - a

        def datum(germ, var):
            return schwarzian_jet(germ, 8).to_trunc_series(var)

        base = projective_term(datum(germ_xi, "xi"), datum(germ_pi, "pi"), [], a, b, [], 1, order)
        mob1 = mobius_jet(2, 0, 3, 1, order=12)
        mob2 = mobius_jet(1, 0, -2, 1, order=12)
        twisted = projective_term(
            datum(compose_jets(mob1, germ_xi), "xi"),
            datum(compose_jets(mob2, germ_pi), "pi"),
            [],
            a,
            b,
            [],
            1,
            order,
        )
        assert base == twisted


class TestProjectiveTermMulti:
    def test_two_pairs_reduce_to_single(self):
        rnd = random.Random(SEED + 10)
        order = 4
        s_xi = rand_univariate(rnd, 6, "xi")
        s_pi = rand_univariate(rnd, 6, "pi")
        a = rand_bivariate(rnd, 6)
        b = TruncSeries.constant(1, ("xi", "pi"), {"xi": 6, "pi": 6}) - a
        zero_pair = (
            plain(("xi2",), 6),
            plain(("pi2",), 6),
            plain(("xi2", "pi2"), 6),
            plain(("xi2", "pi2"), 6),
        )
        out = projective_term_multi(
            [(s_xi, s_pi, a, b), zero_pair], [], [], 12, k_index=0, order=order
        )
        single = projective_term(s_xi, s_pi, [], a, b, [], 12, order)
        for n in range(order + 1):
            assert out.coefficient({"q1": n, "q2": 0}) == single.coefficient({"q": n})

    def test_delta_lift_condition(self):
        a = TruncSeries.constant(Q(1, 2), ("xi", "pi"), {"xi": 6, "pi": 6})
        with pytest.raises(SeriesError):
            projective_term_multi([(plain(("xi",), 6), plain(("pi",), 6), a, a)], [], [], 1, k_index=1, order=3)


def series_of(vars_, trunc, coeffs, offset=None):
    """A log-free TruncSeries from {exponent tuple: value}, exponents relative to ``offset``."""
    return TruncSeries(
        vars_,
        dict.fromkeys(vars_, trunc),
        offset=offset,
        terms={(k, (0,) * len(vars_)): v for k, v in coeffs.items()},
    )


def random_engine_case(rnd, n_pairs, k_index, n_marked, order):
    """Seeded input of projective_term_multi, as (plain dicts for the reference, package series).

    Pair data reach past ``order`` and into the spectator q's; a Schwarzian
    datum may start at exponent 1 through an integer offset; each h has a
    negative eta offset, so its eta exponents run from -3 up.
    """
    t = order + 2

    def datum(var):
        off = rnd.randint(0, 1)
        coeffs = {k: random_rational(rnd) for k in range(off, t + 1)}
        return coeffs, series_of((var,), t - off, {(k - off,): v for k, v in coeffs.items()}, {var: off})

    raw_pairs, pairs = [], []
    for j in range(n_pairs):
        names = (f"xi{j}", f"pi{j}") + tuple(f"s{j}_{i}" for i in range(n_pairs - 1))
        a = {tuple(rnd.randint(0, t) for _ in names): random_rational(rnd) for _ in range(24)}
        unit = (0,) * len(names)
        b = {k: -v for k, v in a.items()}
        b[unit] = int(j == k_index) - a.get(unit, 0)
        b = {k: v for k, v in b.items() if v}
        (sx, sx_series), (sp, sp_series) = datum(f"xi{j}"), datum(f"pi{j}")
        raw_pairs.append((sx, sp, a, b))
        pairs.append((sx_series, sp_series, series_of(names, t, a), series_of(names, t, b)))
    raw_marked, s_eta, h = [], [], []
    for i in range(n_marked):
        se, se_series = datum(f"eta{i}")
        names = tuple(f"q{j + 1}" for j in range(n_pairs)) + (f"eta{i}",)
        rel = {tuple(rnd.randint(0, t) for _ in names): random_rational(rnd) for _ in range(16)}
        raw_marked.append((se, {k[:-1] + (k[-1] - 3,): v for k, v in rel.items()}))
        s_eta.append(se_series)
        h.append(series_of(names, t, rel, {names[-1]: -3}))
    return (raw_pairs, raw_marked), (pairs, s_eta, h)


class TestProjectiveTermEngine:
    """Both public functions against the Fraction reference, and the checks they share."""

    def assert_matches_reference(self, rnd, n_pairs, k_index, n_marked, order=6):
        (raw_pairs, raw_marked), (pairs, s_eta, h) = random_engine_case(rnd, n_pairs, k_index, n_marked, order)
        c = random_rational(rnd) or Q(5)
        want = fraction_projective_term(raw_pairs, raw_marked, c, order)
        assert want, "the case should not be vacuous"
        zeros = (0,) * n_pairs
        out = projective_term_multi(pairs, s_eta, h, c, k_index=k_index, order=order)
        assert out.vars == tuple(f"q{j + 1}" for j in range(n_pairs))
        assert out.terms == {(k, zeros): v for k, v in want.items()}
        if n_pairs == 1:
            (s_xi, s_pi, a, b), = pairs
            single = projective_term(s_xi, s_pi, s_eta, a, b, h, c, order)
            assert single.vars == ("q",) and single.terms == out.terms

    def test_one_pair_matches_reference(self):
        rnd = random.Random(SEED + 20)
        for n_marked in (0, 1, 2):
            for _ in range(4):
                self.assert_matches_reference(rnd, 1, 0, n_marked)

    def test_two_pairs_match_reference_for_each_k(self):
        rnd = random.Random(SEED + 21)
        for k_index in (0, 1):
            for n_marked in (0, 1):
                for _ in range(3):
                    self.assert_matches_reference(rnd, 2, k_index, n_marked)

    def test_three_pairs_match_reference(self):
        rnd = random.Random(SEED + 22)
        for k_index in (0, 2):
            self.assert_matches_reference(rnd, 3, k_index, 1, order=4)

    def test_zero_and_cancelling_contributions_leave_no_key(self):
        # c = 0 gives no term; a pair whose A and B cancel (a symmetric in
        # (xi, pi), S_xi = S_pi) and a marked point met by its negative add
        # nothing, and their keys are absent too; data over 997
        rnd = random.Random(SEED + 24)
        order, t = 6, 8
        (raw_pairs, raw_marked), (pairs, s_eta, h) = random_engine_case(rnd, 2, 0, 1, order)
        assert projective_term_multi(pairs, s_eta, h, 0, k_index=0, order=order).terms == {}
        assert fraction_projective_term(raw_pairs, raw_marked, 0, order) == {}

        def over_997():
            return Q(rnd.choice([-1, 1]) * rnd.randint(1, 996), 997)

        names = ("xi1", "pi1", "s1_0")
        sym = {}
        for _ in range(12):
            m, n, sp = (rnd.randint(0, t) for _ in names)
            sym[m, n, sp] = sym[n, m, sp] = over_997()
        minus = {k: -v for k, v in sym.items()}
        sdat = {k: over_997() for k in range(t + 1)}
        cancelling = (
            series_of(("xi1",), t, {(k,): v for k, v in sdat.items()}),
            series_of(("pi1",), t, {(k,): v for k, v in sdat.items()}),
            series_of(names, t, sym),
            series_of(names, t, minus),
        )
        zero_pair = (plain(("xi1",), t), plain(("pi1",), t), plain(names, t), plain(names, t))
        se, hr = raw_marked[0]
        c = Q(12, 997)
        out = projective_term_multi([pairs[0], cancelling], [s_eta[0]] * 2, [h[0], -h[0]], c, k_index=0, order=order)
        want = fraction_projective_term([raw_pairs[0], (sdat, sdat, sym, minus)], [(se, hr), (se, {k: -v for k, v in hr.items()})], c, order)
        assert want and out.terms == {(k, (0, 0)): v for k, v in want.items()}
        assert out == projective_term_multi([pairs[0], zero_pair], [], [], c, k_index=0, order=order)
        # each cancelling half alone adds terms
        assert fraction_projective_term([({}, {}, {}, {}), (sdat, sdat, sym, {})], [], c, order)
        assert fraction_projective_term([], [(se, hr)], c, order)

    def test_pair_data_without_spectators_is_constant_in_them(self):
        _raw, (((s_xi, s_pi, a, b),), _s_eta, _h) = random_engine_case(random.Random(SEED + 23), 1, 0, 0, 5)
        a3, b3 = (series_of(("xi", "pi", "s"), 7, {e + (0,): v for (e, _l), v in x.terms.items()}) for x in (a, b))
        other = (plain(("xi2",), 7), plain(("pi2",), 7), plain(("xi2", "pi2"), 7), plain(("xi2", "pi2"), 7))
        short = projective_term_multi([(s_xi, s_pi, a, b), other], [], [], 3, k_index=0, order=5)
        full = projective_term_multi([(s_xi, s_pi, a3, b3), other], [], [], 3, k_index=0, order=5)
        assert short == full and not short.is_zero()

    # each check below is one the multi-pair path lacked: it returned a series without raising

    def half(self, trunc=8, vars_=("xi", "pi"), offset=None):
        return series_of(vars_, trunc, {(0,) * len(vars_): Q(1, 2)}, offset)

    def test_multi_rejects_pair_data_truncated_below_order(self):
        half = self.half(trunc=3)
        with pytest.raises(WindowError):
            projective_term_multi([(plain(("xi",), 8), plain(("pi",), 8), half, half)], [], [], 1, k_index=0, order=6)

    def test_rejects_pair_data_short_in_xi_or_in_a_spectator(self):
        # a is read up to xi^(order - 2); spectators up to q^order
        a = TruncSeries.constant(Q(1, 2), ("xi", "pi"), {"xi": 3, "pi": 8})
        with pytest.raises(WindowError):
            projective_term(plain(("xi",), 8), plain(("pi",), 8), [], a, self.half(), [], 1, 6)
        spect = TruncSeries.constant(Q(1, 2), ("xi", "pi", "s"), {"xi": 8, "pi": 8, "s": 3})
        zero = (plain(("xi2",), 8), plain(("pi2",), 8), plain(("xi2", "pi2", "s"), 8), plain(("xi2", "pi2", "s"), 8))
        with pytest.raises(WindowError):
            projective_term_multi([(plain(("xi",), 8), plain(("pi",), 8), spect, spect), zero], [], [], 1, k_index=0, order=6)

    def test_multi_rejects_a_marked_point_count_mismatch(self):
        half, seta = self.half(), series_of(("eta",), 8, {(0,): Q(7, 3)})
        with pytest.raises(ValueError):
            projective_term_multi([(plain(("xi",), 8), plain(("pi",), 8), half, half)], [seta], [], 1, k_index=0, order=6)

    def test_multi_rejects_h_with_a_q_offset(self):
        # q^1 eta^-1 used to come back at q^0
        half, seta = self.half(), series_of(("eta",), 8, {(0,): Q(7, 3)})
        h = series_of(("q", "eta"), 8, {(0, 0): 1}, {"q": 1, "eta": -1})
        for fn in (
            lambda: projective_term_multi([(plain(("xi",), 8), plain(("pi",), 8), half, half)], [seta], [h], 1, 0, 6),
            lambda: projective_term(plain(("xi",), 8), plain(("pi",), 8), [seta], half, half, [h], 1, 6),
        ):
            with pytest.raises(OffsetError):
                fn()

    def test_multi_rejects_h_truncated_in_q(self):
        half, seta = self.half(), series_of(("eta",), 8, {(0,): Q(7, 3)})
        h = TruncSeries.monomial(1, ("q", "eta"), {"q": 3, "eta": 8}, offset={"eta": -1})
        with pytest.raises(WindowError):
            projective_term_multi([(plain(("xi",), 8), plain(("pi",), 8), half, half)], [seta], [h], 1, k_index=0, order=6)

    def test_multi_rejects_schwarzian_datum_short_of_the_window(self):
        half = self.half()
        with pytest.raises(WindowError):
            projective_term_multi([(plain(("xi",), 1), plain(("pi",), 8), half, half)], [], [], 1, k_index=0, order=6)

    def test_multi_rejects_pair_data_of_the_wrong_arity(self):
        half3 = self.half(vars_=("xi", "pi", "s"))
        with pytest.raises(VariableMismatch):
            projective_term_multi([(plain(("xi",), 8), plain(("pi",), 8), half3, half3)], [], [], 1, k_index=0, order=6)

    def test_offsets_on_pair_data_are_rejected(self):
        # xi pi^4 stored plainly and stored with offset xi: 1 compare equal, but
        # the offset used to be ignored: 3 q^4 against 2 q^4
        s_xi = series_of(("xi",), 8, {(1,): 3, (2,): 2})
        one = series_of(("xi", "pi"), 8, {(0, 0): 1})
        plain_a = series_of(("xi", "pi"), 8, {(1, 4): 1})
        shifted_a = series_of(("xi", "pi"), 8, {(0, 4): 1}, {"xi": 1})
        assert plain_a == shifted_a
        out = projective_term(s_xi, plain(("pi",), 8), [], plain_a, one - plain_a, [], 12, 6)
        assert out == series_of(("q",), 6, {(4,): 3})
        with pytest.raises(OffsetError):
            projective_term(s_xi, plain(("pi",), 8), [], shifted_a, one - shifted_a, [], 12, 6)
        with pytest.raises(OffsetError):
            projective_term_multi([(s_xi, plain(("pi",), 8), shifted_a, one - shifted_a)], [], [], 12, 0, 6)

    def test_log_terms_in_schwarzian_data_are_rejected(self):
        # 5 xi log(xi) in S_xi used to be dropped: the term came back 0
        s_log = TruncSeries(("xi",), {"xi": 8}, logmax={"xi": 1}, terms={((1,), (1,)): Q(5)})
        one = series_of(("xi", "pi"), 8, {(0, 0): 1})
        a = series_of(("xi", "pi"), 8, {(1, 4): 1})
        with pytest.raises(SeriesError):
            projective_term(s_log, plain(("pi",), 8), [], a, one - a, [], 12, 6)
        h = series_of(("q", "eta"), 8, {(0, 0): 1}, {"eta": -2})
        eta_log = TruncSeries(("eta",), {"eta": 8}, logmax={"eta": 1}, terms={((1,), (1,)): Q(5)})
        with pytest.raises(SeriesError):
            projective_term(plain(("xi",), 8), plain(("pi",), 8), [eta_log], one, one.scale(0), [h], 12, 6)

    def test_lift_is_checked_on_the_common_window_only(self):
        # a + b = 1 up to xi^6 pi^6, where both are known; b also reaches
        # xi^8 pi^8, and its terms out there have no partner in a
        s_xi = series_of(("xi",), 8, {(1,): 3, (2,): 2})
        a = series_of(("xi", "pi"), 6, {(0, 0): Q(1, 3), (1, 4): 2, (2, 6): -1})
        b_terms = {(0, 0): Q(2, 3), (1, 4): -2, (2, 6): 1, (7, 2): 5, (3, 8): -4}
        b = series_of(("xi", "pi"), 8, b_terms)
        out = projective_term(s_xi, plain(("pi",), 8), [], a, b, [], 12, 6)
        assert out == series_of(("q",), 6, {(4,): 6, (6,): -2})
        off = dict(b_terms)
        off[(2, 6)] = 2  # inside the common window
        with pytest.raises(SeriesError):
            projective_term(s_xi, plain(("pi",), 8), [], a, series_of(("xi", "pi"), 8, off), [], 12, 6)

    def test_lift_mismatch_away_from_the_unit_key_is_an_error(self):
        # equal truncations: every key is compared, the unit key and the rest
        one = series_of(("xi", "pi"), 8, {(0, 0): 1})
        a = series_of(("xi", "pi"), 8, {(1, 4): 1, (3, 5): Q(1, 2)})
        b = one - a + series_of(("xi", "pi"), 8, {(3, 5): Q(1, 7)})
        with pytest.raises(SeriesError):
            projective_term(plain(("xi",), 8), plain(("pi",), 8), [], a, b, [], 12, 6)
        with pytest.raises(SeriesError):
            projective_term(plain(("xi",), 8), plain(("pi",), 8), [], a, one.scale(2) - a, [], 12, 6)
