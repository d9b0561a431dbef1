import random
from fractions import Fraction

import pytest

from blocksew.series import (
    CoordJet,
    LaurentJet,
    LogOverflow,
    OffsetError,
    TruncSeries,
    VariableMismatch,
    compose_jets,
    diagonal_contract,
    jet_compose,
    residue,
    reverse_jet,
)
from helpers import convolve, lagrange_inverse, random_jet_coeffs, random_rational

Q = Fraction
SEED = 20250808


def geom(order, var="q"):
    return TruncSeries((var,), {var: order}, terms={((n,), (0,)): Q(1) for n in range(order + 1)})


class TestMul:
    def test_difference_of_squares(self):
        one = TruncSeries.constant(1, ("q",), {"q": 3})
        q = TruncSeries.monomial(1, ("q",), {"q": 3}, {"q": 1})
        prod = (one + q) * (one - q)
        assert prod == one - q * q

    def test_offsets_add(self):
        h = TruncSeries.monomial(1, ("q",), {"q": 2}, offset={"q": Q(1, 2)})
        assert h * h == TruncSeries.monomial(1, ("q",), {"q": 2}, {"q": 1})

    def test_geometric_square_against_convolution_oracle(self):
        g = geom(5)
        gg = g * g
        oracle = convolve([Q(1)] * 6, [Q(1)] * 6, 5)
        assert [gg.coefficient({"q": n}) for n in range(6)] == oracle
        assert oracle == [Q(n + 1) for n in range(6)]

    def test_variable_mismatch(self):
        a = TruncSeries.constant(1, ("q",), {"q": 2})
        b = TruncSeries.constant(1, ("p",), {"p": 2})
        with pytest.raises(VariableMismatch):
            a * b

    def test_log_degree_overflow_is_an_error(self):
        l = TruncSeries.monomial(1, ("q",), {"q": 2}, logs={"q": 1}, logmax={"q": 1})
        with pytest.raises(LogOverflow):
            l * l

    def test_log_degrees_add_within_bound(self):
        l = TruncSeries.monomial(1, ("q",), {"q": 4}, logs={"q": 1}, logmax={"q": 2})
        plain = TruncSeries.monomial(1, ("q",), {"q": 4}, {"q": 1}, logmax={"q": 2})
        prod = l * plain
        assert prod.coefficient({"q": 1}, {"q": 1}) == 1

    def test_incommensurable_offsets_rejected(self):
        a = TruncSeries.monomial(1, ("q",), {"q": 2}, offset={"q": Q(1, 2)})
        b = TruncSeries.monomial(1, ("q",), {"q": 2}, offset={"q": Q(1, 3)})
        with pytest.raises(OffsetError):
            a + b

    def test_integer_offset_renormalization(self):
        a = TruncSeries.monomial(1, ("q",), {"q": 4}, offset={"q": Q(3, 2)})
        b = TruncSeries.monomial(1, ("q",), {"q": 4}, offset={"q": Q(1, 2)})
        s = a + b
        assert s.offset == (Q(1, 2),)
        assert s.coefficient({"q": 0}) == 1 and s.coefficient({"q": 1}) == 1


class TestRingAxioms:
    def rand_series(self, rnd, order=4, nvars=1):
        vars_ = tuple("q" if nvars == 1 else f"q{i}" for i in range(nvars))
        s = TruncSeries(vars_, {v: order for v in vars_})
        for _ in range(6):
            exps = tuple(rnd.randint(0, order) for _ in vars_)
            s._store(exps, (0,) * nvars, random_rational(rnd))
        return s

    def test_associativity_distributivity(self):
        rnd = random.Random(SEED)
        for _ in range(25):
            a, b, c = (self.rand_series(rnd) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_bivariate_ring(self):
        rnd = random.Random(SEED + 1)
        for _ in range(10):
            a, b, c = (self.rand_series(rnd, order=3, nvars=2) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestCoordJetEquality:
    def test_equal_jets_hash_equal(self):
        pairs = [
            (CoordJet([1, 2], exact=True), CoordJet([1, 2, 0], exact=True)),
            (CoordJet([1, 2], exact=True), CoordJet([1, 2, 0, 0])),
            (CoordJet([Q(3), Q(0), Q(-1, 2)]), CoordJet([Q(3), Q(0), Q(-1, 2)], exact=True)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
        assert len({a for pair in pairs[:2] for a in pair}) == 1


class TestCompose:
    def test_identity_outer(self):
        rho = CoordJet(random_jet_coeffs(random.Random(SEED), 5))
        z = LaurentJet.monomial(1, 1)
        assert jet_compose(z, rho).to_coordjet() == rho

    def test_square_outer(self):
        out = jet_compose(LaurentJet.monomial(1, 2), CoordJet.from_poly([1, 1]))
        assert out.coeffs == {2: Q(1), 3: Q(2), 4: Q(1)}

    def test_rejects_singular_inner(self):
        from blocksew.series import NotInvertible

        with pytest.raises(NotInvertible):
            jet_compose(LaurentJet.monomial(1, 2), CoordJet([Q(0), Q(1)]))

    def test_negative_power_mobius(self):
        mob = CoordJet([Q(1)] * 8)  # z/(1-z) to order 8
        out = jet_compose(LaurentJet.monomial(1, -1), mob)
        # (z/(1-z))^{-1} = z^{-1} - 1 exactly; all higher window coefficients zero
        assert out.coeff(-1) == 1 and out.coeff(0) == -1
        assert all(out.coeff(e) == 0 for e in range(1, out.hi + 1))

    def test_compose_associative_up_to_truncation(self):
        rnd = random.Random(SEED + 2)
        for _ in range(10):
            f = LaurentJet({e: random_rational(rnd) for e in range(-2, 5)}, -2, 6)
            g = CoordJet(random_jet_coeffs(rnd, 7))
            h = CoordJet(random_jet_coeffs(rnd, 7))
            left = jet_compose(jet_compose(f, g), h)
            right = jet_compose(f, compose_jets(g, h))
            top = min(left.hi, right.hi)
            lo = min(left.lo, right.lo)
            assert all(
                left.coeffs.get(e, Q(0)) == right.coeffs.get(e, Q(0))
                for e in range(lo, top + 1)
            )


class TestReverse:
    def test_linear(self):
        assert reverse_jet(CoordJet.from_poly([2]), 3).coeffs[0] == Q(1, 2)

    def test_quadratic_against_lagrange_oracle(self):
        rho = CoordJet.from_poly([1, 1])
        got = reverse_jet(rho, 4).coeffs
        assert got == [Q(1), Q(-1), Q(2), Q(-5)]
        assert got == lagrange_inverse([Q(1), Q(1)], 4)

    def test_random_against_lagrange_oracle(self):
        rnd = random.Random(SEED + 3)
        for _ in range(8):
            coeffs = random_jet_coeffs(rnd, 6)
            assert reverse_jet(CoordJet(coeffs), 6).coeffs == lagrange_inverse(coeffs, 6)

    def test_mobius(self):
        mob = CoordJet([Q(1)] * 6)  # z/(1-z)
        inv = reverse_jet(mob)
        assert inv.coeffs == [Q(1), Q(-1), Q(1), Q(-1), Q(1), Q(-1)]  # z/(1+z)

    def test_two_sided_inverse(self):
        rnd = random.Random(SEED + 4)
        for _ in range(8):
            rho = CoordJet(random_jet_coeffs(rnd, 6))
            rev = reverse_jet(rho)
            ident = CoordJet.identity(6)
            assert compose_jets(rho, rev) == ident
            assert compose_jets(rev, rho) == ident


class TestResidue:
    def test_simple_pole(self):
        assert residue(LaurentJet.monomial(1, -1)) == 1

    def test_mixed(self):
        f = LaurentJet({-2: Q(1), -1: Q(3), 1: Q(1)}, -2, 4)
        assert residue(f) == 3

    def test_no_principal_part_gives_zero(self):
        assert residue(LaurentJet({1: Q(5)}, 0, 3)) == 0

    def test_product_against_coefficient_extraction(self):
        rnd = random.Random(SEED + 5)
        s = LaurentJet({e: random_rational(rnd) for e in range(0, 5)}, 0, 6)
        a = LaurentJet({e: random_rational(rnd) for e in range(-3, 3)}, -3, 4)
        prod = s * LaurentJet.monomial(1, 1) * a
        oracle = sum(
            (s.coeffs.get(i, Q(0)) * a.coeffs.get(-2 - i, Q(0)) for i in range(0, 5)),
            Q(0),
        )
        assert residue(prod) == oracle


class TestDiagonal:
    def test_monomials(self):
        d = TruncSeries.monomial(1, ("xi", "pi"), {"xi": 3, "pi": 3}, {"xi": 1, "pi": 1})
        assert diagonal_contract(d) == TruncSeries.monomial(1, ("q",), {"q": 3}, {"q": 1})
        mixed = d + TruncSeries.monomial(1, ("xi", "pi"), {"xi": 3, "pi": 3}, {"xi": 2, "pi": 1})
        assert diagonal_contract(mixed) == TruncSeries.monomial(1, ("q",), {"q": 3}, {"q": 1})

    def test_product_expansion(self):
        one_xi = TruncSeries.constant(1, ("xi", "pi"), {"xi": 2, "pi": 2}) + TruncSeries.monomial(
            1, ("xi", "pi"), {"xi": 2, "pi": 2}, {"xi": 1}
        )
        one_pi = TruncSeries.constant(1, ("xi", "pi"), {"xi": 2, "pi": 2}) + TruncSeries.monomial(
            1, ("xi", "pi"), {"xi": 2, "pi": 2}, {"pi": 1}
        )
        d = one_xi * one_pi
        expected = TruncSeries.constant(1, ("q",), {"q": 2}) + TruncSeries.monomial(
            1, ("q",), {"q": 2}, {"q": 1}
        )
        assert diagonal_contract(d) == expected

    def test_two_residue_forms_agree(self):
        # coefficient n equals Res_xi [ D(xi, q/xi) ]_{q^n} dxi/xi, and the
        # mirror-image pi-form, for every n up to the truncation
        rnd = random.Random(SEED + 6)
        d = TruncSeries(("xi", "pi"), {"xi": 5, "pi": 5})
        for _ in range(12):
            d._store((rnd.randint(0, 5), rnd.randint(0, 5)), (0, 0), random_rational(rnd))
        diag = diagonal_contract(d)
        for n in range(6):
            via_xi = Q(0)
            via_pi = Q(0)
            for (m, k), val in ((key[0], v) for key, v in d.terms.items()):
                if k == n and m - k == 0:
                    via_xi += val
                if m == n and k - m == 0:
                    via_pi += val
            assert diag.coefficient({"q": n}) == via_xi == via_pi

    def test_rejects_offsets_and_logs(self):
        d = TruncSeries.monomial(
            1, ("xi", "pi"), {"xi": 2, "pi": 2}, offset={"xi": Q(1, 2)}
        )
        with pytest.raises(OffsetError):
            diagonal_contract(d)


class TestQdq:
    def test_powers_and_logs(self):
        s = TruncSeries.monomial(1, ("q",), {"q": 3}, {"q": 2}, logs={"q": 1}, logmax={"q": 1}, offset={"q": Q(1, 2)})
        d = s.qdq("q")
        assert d.coefficient({"q": 2}, {"q": 1}) == Q(5, 2)
        assert d.coefficient({"q": 2}, {"q": 0}) == 1
