import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blocksew import jsonio
from blocksew.linalg import QMat, QVec
from blocksew.series import (
    CoordJet,
    LaurentJet,
    LogOverflow,
    NotInvertible,
    OffsetError,
    SeriesError,
    TruncSeries,
    VariableMismatch,
    WindowError,
    _is_ring_zero,
    _kind,
    _powers,
    compose_jets,
    diagonal_contract,
    jet_compose,
    residue,
    reverse_jet,
    ring_one_like,
    ring_zero_like,
)
from helpers import (
    JET_LEADS,
    FractionSeries,
    convolve,
    fraction_compose_jets,
    fraction_derivative,
    fraction_inverse,
    fraction_jet_compose,
    fraction_jet_scale,
    fraction_jet_sum,
    fraction_power,
    fraction_product,
    fraction_reverse_jet,
    fraction_truncated,
    lagrange_inverse,
    random_jet_coeffs,
    random_rational,
    random_rational_jet,
    rational_jet,
)

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


OFFSETS = [Q(0), Q(2), Q(-1), Q(1, 3), Q(-5, 2)]


def shape(s):
    return s.vars, s.trunc, s.offset, s.logmax


def random_shaped(rnd, vars_, offset, logs=True):
    """A series with random truncations and log bounds; log terms only when ``logs``."""
    trunc = {v: rnd.randint(0, 4) for v in vars_}
    logmax = {v: rnd.randint(0, 2) for v in vars_}
    s = TruncSeries(vars_, trunc, offset=offset, logmax=logmax)
    for _ in range(5):
        exps = tuple(rnd.randint(0, trunc[v]) for v in vars_)
        ls = tuple(rnd.randint(0, logmax[v]) if logs else 0 for v in vars_)
        s._store(exps, ls, random_rational(rnd))
    return s


class TestDerivedShapes:
    """``==`` compares vars, offset and terms only, so the truncation and log
    bound of each derived series are pinned here, against these rules:

    * ``-s``, ``c * s`` and ``s.qdq(v)`` keep the shape of ``s``;
    * ``s.normalized()`` folds an integer offset o >= 0 into the exponents:
      truncation t + o, offset 0; other offsets and every log bound stay;
    * ``s + t`` takes per variable the lower offset b, the truncation
      min(o_s + t_s, o_t + t_t) - b (the common exact window) and the larger
      log bound;
    * ``s * t`` takes the smaller truncation, the sum of the offsets and the
      larger log bound.
    """

    def check_types(self, s):
        assert all(type(n) is int for n in s.trunc + s.logmax)
        assert all(type(o) is Fraction for o in s.offset)

    def test_derived_shapes(self):
        rnd = random.Random(SEED + 2)
        for case in range(60):
            vars_ = ("q", "p", "r")[: 1 + case % 3]
            offset = {v: rnd.choice(OFFSETS) for v in vars_}
            s = random_shaped(rnd, vars_, offset)
            # equal offsets in a quarter of the cases, else integer gaps (the aligned path)
            gap = {v: 0 if case % 4 == 0 else rnd.randint(-2, 2) for v in vars_}
            t = random_shaped(rnd, vars_, {v: offset[v] + gap[v] for v in vars_}, logs=False)
            c = random_rational(rnd) or Q(1)
            for derived in (-s, c * s, s * c, s.scale(c), s.qdq(rnd.choice(vars_))):
                assert shape(derived) == shape(s)
                self.check_types(derived)

            folded = [o.denominator == 1 and o >= 0 for o in s.offset]
            n = s.normalized()
            assert n.vars == s.vars and n.logmax == s.logmax
            assert n.trunc == tuple(tr + int(o) if f else tr for tr, o, f in zip(s.trunc, s.offset, folded))
            assert n.offset == tuple(Q(0) if f else o for o, f in zip(s.offset, folded))
            self.check_types(n)

            total = s + t
            base = tuple(map(min, s.offset, t.offset))
            assert total.vars == s.vars
            assert total.offset == base
            assert total.trunc == tuple(
                int(min(os + ts, ot + tt) - b) for os, ts, ot, tt, b in zip(s.offset, s.trunc, t.offset, t.trunc, base)
            )
            assert total.logmax == tuple(map(max, s.logmax, t.logmax))
            self.check_types(total)

            prod = s * t
            assert prod.vars == s.vars
            assert prod.trunc == tuple(map(min, s.trunc, t.trunc))
            assert prod.offset == tuple(a + b for a, b in zip(s.offset, t.offset))
            assert prod.logmax == tuple(map(max, s.logmax, t.logmax))
            self.check_types(prod)


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


def poly_mul(p, q, cap):
    """p * q cut at degree cap, a schoolbook loop that skips zero terms."""
    out = [ring_zero_like(p[0])] * (cap + 1)
    for i, x in enumerate(p):
        if _is_ring_zero(x):
            continue
        for j, y in enumerate(q[: cap + 1 - i]):
            if not _is_ring_zero(y):
                out[i + j] = out[i + j] + x * y
    return out


def poly_compose_jets(f, g):
    """f(g(z)) as sum_j a_j g^j, each power g^j = g^(j-1) * g by one poly_mul."""
    g.check_invertible()
    inexact = [h.order for h in (f, g) if not h.exact]
    cap = min(inexact) if inexact else f.order * g.order
    zero = ring_zero_like(f.coeffs[0])
    gpoly = [zero] + g.coeffs[:cap] + [zero] * (cap - g.order)
    power = [ring_one_like(f.coeffs[0])] + [zero] * cap
    out = [zero] * (cap + 1)
    for aj in f.coeffs:
        power = poly_mul(power, gpoly, cap)
        if not _is_ring_zero(aj):
            for k, x in enumerate(power):
                if not _is_ring_zero(x):
                    out[k] = out[k] + aj * x
    return CoordJet(out[1:], exact=not inexact)


def compose_reverse_jet(rho, order=None):
    """The reversion by composition: at each degree n, compose rho with the
    partial inverse b_1..b_(n-1) and read b_n off [z^n] rho(B) = 0."""
    rho.check_invertible()
    if order is None:
        order = rho.order
    inv_a1 = ring_one_like(rho.a1) / rho.a1
    b = [inv_a1]
    for n in range(2, order + 1):
        partial = CoordJet(b + [ring_zero_like(rho.a1)], exact=False)
        comp = poly_compose_jets(rho.truncate(max(rho.order, n) if rho.exact else rho.order), partial)
        excess = comp.coefficient(n)
        b.append(-excess * inv_a1 if not _is_ring_zero(excess) else ring_zero_like(rho.a1))
    return CoordJet(b, exact=False)


def window_of(x):
    """A coefficient with its window, so that two LaurentJets compare window and all."""
    return (x.coeffs, x.lo, x.hi) if isinstance(x, LaurentJet) else x


def random_window_jet(rnd, unit=False):
    """A LaurentJet on a random window; with ``unit`` its constant term is a nonzero integer."""
    lo = 0 if unit else rnd.choice([0, 0, 1])
    hi = rnd.choice([None, 2, 3, 5])
    top = 4 if hi is None else hi
    coeffs = {e: random_rational(rnd) for e in range(lo, top + 1)}
    if unit:
        coeffs[0] = Q(rnd.choice([1, -2, 3]))
    return LaurentJet(coeffs, lo, hi, "t")


def random_coord_jet(rnd, laurent, exact):
    """A coordinate jet of order 1..4 over Fractions or over LaurentJets on finite
    windows; past a_1, some coefficients are zero, or zero on a finite window."""
    order = rnd.randint(1, 4)
    if not laurent:
        return CoordJet(random_jet_coeffs(rnd, order), exact=exact)
    rest = [LaurentJet({}, 0, 2, "t") if rnd.random() < 0.2 else random_window_jet(rnd) for _ in range(order - 1)]
    return CoordJet([random_window_jet(rnd, unit=True)] + rest, exact=exact)


class TestComposeJets:
    def test_against_polynomial_powers(self):
        # both rings, all four exactness pairs, and mixed rings; windows compared too
        rnd = random.Random(SEED + 14)
        seen = set()
        for t in range(160):
            f_laurent, g_laurent, f_exact, g_exact = (bool(t >> i & 1) for i in range(4))
            f = random_coord_jet(rnd, f_laurent, f_exact)
            g = random_coord_jet(rnd, g_laurent, g_exact)
            got, want = compose_jets(f, g), poly_compose_jets(f, g)
            assert got.exact == want.exact == (f_exact and g_exact)
            assert [window_of(c) for c in got.coeffs] == [window_of(c) for c in want.coeffs], (f, g)
            seen.add((f_laurent, g_laurent, f_exact, g_exact))
        assert len(seen) == 16


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

    def test_against_sympy_series_reversion(self):
        sympy_rings = pytest.importorskip("sympy.polys.rings")
        from sympy.polys.domains import QQ
        from sympy.polys.ring_series import rs_series_reversion

        R, x, y = sympy_rings.ring("x, y", QQ)
        rnd = random.Random(SEED + 11)
        for order in range(1, 11):
            coeffs = random_jet_coeffs(rnd, order)
            poly = sum((QQ(c.numerator, c.denominator) * x ** (k + 1) for k, c in enumerate(coeffs)), R.zero)
            rev = rs_series_reversion(poly, x, order + 1, y)
            want = [rev.coeff(y ** n) for n in range(1, order + 1)]
            assert reverse_jet(CoordJet(coeffs)).coeffs == [Q(int(c.numerator), int(c.denominator)) for c in want]

    def test_against_composition_reversion_over_rationals(self):
        rnd = random.Random(SEED + 12)
        for t in range(30):
            order = rnd.randint(1, 9)
            exact = t % 3 == 0
            rho = CoordJet(random_jet_coeffs(rnd, order), exact=exact)
            target = order + 3 if exact else rnd.randint(1, order)
            assert reverse_jet(rho, target).coeffs == compose_reverse_jet(rho, target).coeffs

    def test_against_composition_reversion_over_laurent_jets(self):
        # coefficients on finite windows: the windows of the result match too
        rnd = random.Random(SEED + 13)
        for t in range(25):
            order = rnd.randint(1, 6)
            exact = t % 4 == 0
            rho = CoordJet([random_window_jet(rnd, unit=True)] + [random_window_jet(rnd) for _ in range(order - 1)], exact=exact)
            target = order + 2 if exact else order
            got = reverse_jet(rho, target).coeffs
            want = compose_reverse_jet(rho, target).coeffs
            assert [window_of(c) for c in got] == [window_of(c) for c in want]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=12),
        lead=st.sampled_from([Q(1), Q(-1), Q(2), Q(-3, 2), Q(5, 7)]),
        extra=st.integers(0, 4),
    )
    def test_truncation_consistent(self, coeffs, lead, extra):
        # the inverse at order N is the inverse at order N + k cut to N
        rho = CoordJet([lead] + coeffs)
        n = max(1, rho.order - extra)
        assert reverse_jet(rho, n).coeffs == reverse_jet(rho).coeffs[:n]
        assert reverse_jet(rho.truncate(n)).coeffs == reverse_jet(rho).coeffs[:n]


def same_jet(got, want):
    return got.coeffs == want.coeffs and got.exact == want.exact and got.order == want.order


# (num, k) for a coefficient num / den^k; a third of the numerators are zero
JET_TERMS = st.lists(st.tuples(st.one_of(st.just(0), st.integers(-9, 9)), st.integers(0, 2)), max_size=15)


class TestRationalKernels:
    """The integer paths of reverse_jet and compose_jets against their Fraction loops."""

    def test_order_below_one_is_an_error(self):
        rho = CoordJet([Q(2), Q(1)])
        for order in (0, -1):
            with pytest.raises(ValueError):
                reverse_jet(rho, order)

    def test_against_the_fraction_loops(self):
        rnd = random.Random(SEED + 20)
        for den in (3, 997):
            for lead in JET_LEADS:
                for exact in (False, True):
                    for order in range(1, 17):
                        rho = random_rational_jet(rnd, order, den, lead, exact)
                        for target in {1, order, rnd.randint(1, order)} | ({order + 3} if exact else set()):
                            assert same_jet(reverse_jet(rho, target), fraction_reverse_jet(rho, target)), (rho, target)
                        # two exact jets compose to order f.order * g.order: keep that small
                        g_exact = rnd.random() < 0.5 and order <= 8
                        g = random_rational_jet(rnd, rnd.randint(1, 2 if exact and g_exact else 16), den, rnd.choice(JET_LEADS), g_exact)
                        assert same_jet(compose_jets(rho, g), fraction_compose_jets(rho, g)), (rho, g)
                        assert same_jet(compose_jets(g, rho), fraction_compose_jets(g, rho)), (g, rho)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        lead=st.sampled_from(JET_LEADS),
        den=st.sampled_from([3, 997]),
        terms=JET_TERMS,
        exact=st.booleans(),
        g_terms=JET_TERMS,
        g_exact=st.booleans(),
        extra=st.integers(0, 4),
    )
    def test_property_against_the_fraction_loops(self, lead, den, terms, exact, g_terms, g_exact, extra):
        if exact and g_exact:
            terms, g_terms = terms[:3], g_terms[:3]
        rho = rational_jet(lead, den, terms, exact)
        g = rational_jet(Q(1, den) - lead, den, g_terms, g_exact)
        n = rho.order + extra if exact else max(1, rho.order - extra)
        assert same_jet(reverse_jet(rho, n), fraction_reverse_jet(rho, n))
        assert same_jet(compose_jets(rho, g), fraction_compose_jets(rho, g))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lead=st.sampled_from(JET_LEADS), den=st.sampled_from([3, 997]), terms=JET_TERMS, exact=st.booleans(), extra=st.integers(0, 4))
    def test_compose_with_reverse_is_the_identity(self, lead, den, terms, exact, extra):
        rho = rational_jet(lead, den, terms, exact)
        n = rho.order + extra if exact else max(1, rho.order - extra)
        comp = compose_jets(rho, reverse_jet(rho, n))
        assert comp.coeffs == [Q(1)] + [Q(0)] * (n - 1) and not comp.exact


def random_laurent(rnd, zero=False):
    """A LaurentJet on a random window that may start below 0 and may be exact."""
    lo = rnd.randint(-3, 2)
    hi = None if rnd.random() < 0.3 else lo + rnd.randint(0, 6)
    top = lo + 5 if hi is None else hi
    coeffs = {} if zero else {e: random_rational(rnd, num=20, den=12) for e in range(lo, top + 1) if rnd.random() < 0.7}
    return LaurentJet(coeffs, lo, hi, "z")


def termwise_jet_compose(outer, inner):
    """outer(inner(z)) as one LaurentJet addition per term c_e inner^e, cut at outer.hi."""
    lt = inner.to_laurent(outer.var)
    inv = lt.inv(rel_order=max(max(lt.coeffs) * 4, 24)) if lt.hi is None else lt.inv()
    acc = LaurentJet.zero(outer.var)
    for n, (e, c) in enumerate(sorted(outer.coeffs.items())):
        power = LaurentJet.const(1, var=outer.var)
        for _ in range(abs(e)):
            power = power * (lt if e > 0 else inv)
        acc = power.scale(c) if n == 0 else acc + power.scale(c)
    if outer.hi is not None and (acc.hi is None or acc.hi > outer.hi):
        acc = acc.truncated(outer.hi)
    return acc


class TestLaurentKernels:
    def test_jet_compose_against_termwise_sum(self):
        rnd = random.Random(SEED + 9)
        seen = {"outer cut": 0, "inner cut": 0, "exact": 0}
        for t in range(120):
            outer = random_laurent(rnd, zero=t % 15 == 0)
            order = rnd.randint(1, 6)
            inner = CoordJet(random_jet_coeffs(rnd, order), exact=t % 4 == 0)
            try:
                want = termwise_jet_compose(outer, inner)
            except WindowError:
                # a zero outer keeps the window [0, outer.hi], empty when outer.hi < 0
                with pytest.raises(WindowError):
                    jet_compose(outer, inner)
                continue
            got = jet_compose(outer, inner)
            assert (got.coeffs, got.lo, got.hi) == (want.coeffs, want.lo, want.hi), (outer, inner)
            seen["exact"] += got.hi is None
            seen["outer cut"] += got.hi is not None and got.hi == outer.hi
            seen["inner cut"] += got.hi is not None and got.hi != outer.hi
        assert min(seen.values()) >= 5, seen

    def test_product_against_fraction_reference(self):
        rnd = random.Random(SEED + 7)
        seen = {"exact": 0, "negative lo": 0, "zero factor": 0}
        for t in range(300):
            x = random_laurent(rnd, zero=t % 10 == 0)
            y = random_laurent(rnd)
            for p, q in ((x, y), (y, x)):
                got = p * q
                assert (got.coeffs, got.lo, got.hi) == fraction_product(p, q), (p, q)
                assert all(type(c) is Fraction for c in got.coeffs.values())
            seen["exact"] += x.hi is None and y.hi is None
            seen["negative lo"] += x.lo < 0 or y.lo < 0
            seen["zero factor"] += x.is_zero()
        assert min(seen.values()) >= 20, seen

    def test_zero_factor_keeps_the_window(self):
        zero = LaurentJet({}, -1, 2, "z")
        exact = LaurentJet({0: Q(1), 3: Q(2)}, 0, None, "z")
        for got in (zero * exact, exact * zero):
            assert (got.coeffs, got.lo, got.hi) == ({}, -1, 2)
        got = LaurentJet({}, 1, 4, "z") * LaurentJet({-2: Q(3)}, -2, 0, "z")
        assert (got.coeffs, got.lo, got.hi) == ({}, -1, 1)

    def test_inverse_against_fraction_reference(self):
        rnd = random.Random(SEED + 8)
        checked = 0
        for _ in range(300):
            x = random_laurent(rnd)
            if x.is_zero():
                continue
            rel_order = rnd.randint(0, 8) if x.hi is None or rnd.random() < 0.5 else None
            got = x.inv(rel_order=rel_order)
            assert (got.coeffs, got.lo, got.hi) == fraction_inverse(x, rel_order), (x, rel_order)
            prod = x * got
            assert prod.coeffs == ({0: Q(1)} if prod.hi is None or prod.hi >= 0 else {})
            checked += 1
        assert checked >= 200

    def test_inverse_of_a_window_zero_is_an_error(self):
        with pytest.raises(NotInvertible):
            LaurentJet({}, -1, 3, "z").inv()
        with pytest.raises(WindowError):
            LaurentJet({0: Q(2)}, 0, None, "z").inv()

    def test_pow_against_repeated_fraction_products(self):
        rnd = random.Random(SEED + 10)
        checked = 0
        for lo in (-1, 0):
            for _ in range(10):
                hi = lo + rnd.randint(0, 5)
                coeffs = {e: random_rational(rnd, num=20, den=12) for e in range(lo, hi + 1) if rnd.random() < 0.7}
                coeffs[lo] = coeffs.get(lo) or Q(rnd.choice([-3, 2, 5]), rnd.randint(1, 4))  # invertible
                x = LaurentJet(coeffs, lo, hi, "z")
                for k in range(-3, 4):
                    # x^k as |k| - 1 Fraction products of x (or of its Fraction inverse), x^0 = 1
                    want = ({0: Q(1)}, 0, None)
                    if k:
                        base = x if k > 0 else LaurentJet(*fraction_inverse(x), "z")
                        want = (base.coeffs, base.lo, base.hi)
                        for _ in range(abs(k) - 1):
                            want = fraction_product(LaurentJet(*want, "z"), base)
                    got = x.pow(k)
                    assert (got.coeffs, got.lo, got.hi) == want, (x, k)
                    checked += 1
        assert checked == 140

    def test_pow_raises_where_the_inverse_does(self):
        exact = LaurentJet({0: Q(2), 1: Q(1)}, 0, None, "z")
        assert exact.pow(3).coeffs == {0: 8, 1: 12, 2: 6, 3: 1}
        with pytest.raises(WindowError):
            exact.pow(-1)
        zero = LaurentJet({}, -1, 3, "z")
        assert (zero.pow(2).coeffs, zero.pow(2).lo, zero.pow(2).hi) == ({}, -2, 2)
        for k in (-1, -2):
            with pytest.raises(NotInvertible):
                zero.pow(k)


def agrees_with(op, want):
    """op() against a FractionJet reference: the same coefficients and window,
    in the stored form; a WindowError where the reference window is empty."""
    if want.hi is not None and want.hi < want.lo:
        with pytest.raises(WindowError):
            op()
        return
    got = op()
    assert_stored_form(got)
    assert (got.coeffs, got.lo, got.hi) == want


def assert_stored_form(jet):
    """Integer numerators over a positive denominator, in lowest terms, none zero, all in the window."""
    assert type(jet.den) is int and jet.den > 0
    assert all(type(x) is int and x for x in jet.nums.values())
    assert math.gcd(jet.den, *jet.nums.values()) == 1
    assert all(jet.lo <= e and (jet.hi is None or e <= jet.hi) for e in jet.nums)


def check_against_fraction_reference(x, y, c, cut, rel_order, inner):
    """Every LaurentJet operation on x (and y) against its Fraction reference."""
    agrees_with(lambda: x + y, fraction_jet_sum(x, y))
    agrees_with(lambda: x - y, fraction_jet_sum(x, fraction_jet_scale(y, Q(-1))))
    agrees_with(lambda: -x, fraction_jet_scale(x, Q(-1)))
    agrees_with(lambda: x.scale(c), fraction_jet_scale(x, c))
    agrees_with(lambda: x * y, fraction_product(x, y))
    agrees_with(lambda: y * x, fraction_product(y, x))
    agrees_with(x.derivative, fraction_derivative(x))
    agrees_with(lambda: x.truncated(cut), fraction_truncated(x, cut))
    agrees_with(lambda: jet_compose(x, inner), fraction_jet_compose(x, inner))
    for r in {None, rel_order}:
        if x.is_zero():
            with pytest.raises(NotInvertible):
                x.inv(r)
        elif x.hi is None and r is None:
            with pytest.raises(WindowError):
                x.inv(r)
        else:
            agrees_with(lambda: x.inv(r), fraction_inverse(x, r))
    power = _powers(x)
    for e in range(-3, 4):
        if e < 0 and x.is_zero():
            with pytest.raises(NotInvertible):
                power(e)
        else:
            agrees_with(lambda: power(e), fraction_power(x, e))


@st.composite
def laurent_jets(draw):
    """A LaurentJet on a window from -3 up, exact or not; its coefficients may be zero on the whole window."""
    lo = draw(st.integers(-3, 2))
    hi = draw(st.one_of(st.none(), st.integers(lo, lo + 5)))
    exps = draw(st.sets(st.integers(lo, lo + 4 if hi is None else hi), max_size=5))
    return LaurentJet({e: draw(st.fractions(-9, 9, max_denominator=12)) for e in sorted(exps)}, lo, hi, "z")


class TestLaurentStoredForm:
    """LaurentJet on integer numerators over one denominator, against the Fraction operations it replaced."""

    def test_operations_against_the_fraction_reference(self):
        rnd = random.Random(SEED + 21)
        seen = {"exact": 0, "window": 0, "negative lo": 0, "zero on window": 0}
        for t in range(120):
            x = random_laurent(rnd, zero=t % 8 == 0)
            y = random_laurent(rnd, zero=t % 11 == 0)
            inner = CoordJet(random_jet_coeffs(rnd, rnd.randint(1, 5)), exact=t % 3 == 0)
            check_against_fraction_reference(x, y, random_rational(rnd), x.lo + rnd.randint(-1, 6), rnd.randint(0, 6), inner)
            seen["exact"] += x.hi is None
            seen["window"] += x.hi is not None and not x.is_zero()
            seen["negative lo"] += x.lo < 0
            seen["zero on window"] += x.is_zero() and x.hi is not None
        assert min(seen.values()) >= 5, seen

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        x=laurent_jets(),
        y=laurent_jets(),
        c=st.fractions(-5, 5, max_denominator=6),
        cut=st.integers(-4, 8),
        rel_order=st.integers(0, 6),
        inner=st.lists(st.fractions(-5, 5, max_denominator=4), min_size=1, max_size=5),
        exact=st.booleans(),
    )
    def test_property_against_the_fraction_reference(self, x, y, c, cut, rel_order, inner, exact):
        inner = CoordJet([inner[0] or Q(1)] + inner[1:], exact=exact)
        check_against_fraction_reference(x, y, c, cut, rel_order, inner)

    def test_coefficients_are_a_read_only_view(self):
        jet = LaurentJet({-1: Q(1, 2), 2: Q(3)}, -1, 4, "z")
        assert (jet.nums, jet.den) == ({-1: 1, 2: 6}, 2)
        with pytest.raises(TypeError):
            jet.coeffs[0] = Q(1)
        with pytest.raises(TypeError):
            del jet.coeffs[2]
        assert jet.coeffs == {-1: Q(1, 2), 2: Q(3)} and jet.coeff(2) == 3 and type(jet.coeff(2)) is Fraction

    def test_equal_jets_built_different_ways_are_equal_and_hash_equal(self):
        half = LaurentJet({0: Q(2, 4)}, 0, None, "z")
        pairs = [
            (half, LaurentJet.const(Q(1, 2))),
            (half, LaurentJet({0: "1/2"}, 0, None, "z")),
            # the denominators 3 and 2 cancel against the numerators' factors
            (LaurentJet({0: Q(2, 3), 1: Q(4, 3)}, 0, None, "z") * LaurentJet.const(Q(3, 2)), LaurentJet({0: 1, 1: 2}, 0, None, "z")),
            (LaurentJet({1: Q(5, 6)}, 0, 3, "z") + LaurentJet({1: Q(1, 6)}, 0, None, "z"), LaurentJet.monomial(1, 1)),
            (LaurentJet({0: Q(3), 1: Q(6)}, 0, 4, "z").inv() * LaurentJet.const(3), LaurentJet({0: 1, 1: -2, 2: 4, 3: -8, 4: 16}, 0, 4, "z")),
        ]
        for a, b in pairs:
            assert_stored_form(a)
            assert a == b and hash(a) == hash(b), (a, b)
        assert pairs[2][0].den == 1
        assert LaurentJet.zero() == LaurentJet({0: Q(0)}, 0, 3, "z") == LaurentJet.const(0)

    def test_a_coefficient_that_is_not_rational_is_a_type_error(self):
        # a float would otherwise crash later, inside a product
        for bad in (0.5, 1.0, LaurentJet.const(1), [1], None):
            with pytest.raises(TypeError):
                LaurentJet({0: bad}, 0, None, "z")
        assert LaurentJet({0: 2, 1: "-3/4", 2: True}, 0, None, "z").coeffs == {0: 2, 1: Q(-3, 4), 2: 1}


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


DIM = 2
KINDS = ("rational", "vector", "matrix")


def series_value(kind, rational):
    """A coefficient of the kind, from a source of rationals (called once per entry)."""
    if kind == "rational":
        return rational()
    if kind == "vector":
        return QVec.from_list([rational() for _ in range(DIM)])
    return QMat.from_rows([[rational() for _ in range(DIM)] for _ in range(DIM)])


def series_and_reference(vars_, trunc, offset, logmax, terms):
    """The same data as a TruncSeries and as its Fraction reference."""
    return TruncSeries(vars_, trunc, offset, logmax, terms), FractionSeries(vars_, trunc, offset, logmax, terms)


def assert_series_stored_form(s):
    """Numerators of one kind: integers over a positive denominator in lowest terms, none zero,
    or nonzero QVec or QMat values over 1; every key inside the shape."""
    kinds = {type(x) for x in s.nums.values()}
    assert len(kinds) <= 1, kinds
    assert type(s.den) is int and s.den > 0
    if kinds <= {int}:
        assert all(s.nums.values()) and math.gcd(s.den, *s.nums.values()) == 1
    else:
        assert s.den == 1 and not any(x.is_zero() for x in s.nums.values())
    for exps, logs in s.nums:
        assert all(0 <= n <= t for n, t in zip(exps, s.trunc)) and len(exps) == len(s.vars)
        assert all(0 <= l <= m for l, m in zip(logs, s.logmax)) and len(logs) == len(s.vars)


def series_agrees(op, ref):
    """op() against the FractionSeries ref(): the same shape and coefficients, in
    the stored form; the same error type where the reference raises."""
    try:
        want = ref()
    except (SeriesError, TypeError) as e:
        with pytest.raises(type(e)):
            op()
        return type(e)
    got = op()
    assert_series_stored_form(got)
    assert (got.vars, got.trunc, got.offset, got.logmax) == (want.vars, want.trunc, want.offset, want.logmax)
    assert dict(got.terms) == want.terms
    return None


def check_series_against_reference(x, fx, y, fy, c):
    """Every TruncSeries operation on x (and y) against the Fraction reference;
    the errors raised, by type."""
    errors = set()
    if _kind(x.nums) == _kind(y.nums) or not x.nums or not y.nums:
        errors.add(series_agrees(lambda: x + y, lambda: fx + fy))
        errors.add(series_agrees(lambda: x - y, lambda: fx - fy))
    series_agrees(lambda: -x, lambda: -fx)
    series_agrees(lambda: x - x, lambda: fx - fx)
    for k in (0, Q(-997, 5), c):
        series_agrees(lambda: x.scale(k), lambda: fx.scale(k))
    errors.add(series_agrees(lambda: x * y, lambda: fx * fy))
    errors.add(series_agrees(lambda: y * x, lambda: fy * fx))
    for v in x.vars:
        series_agrees(lambda: x.qdq(v), lambda: fx.qdq(v))
    series_agrees(x.normalized, fx.normalized)
    # == and hash read the stored form of the normalized series
    again = TruncSeries(x.vars, dict(zip(x.vars, x.trunc)), dict(zip(x.vars, x.offset)), dict(zip(x.vars, x.logmax)), x.terms)
    for other in (again, x.normalized()):
        assert other == x and hash(other) == hash(x)
    assert (x == y) == (x.normalized().terms == y.normalized().terms and x.normalized().offset == y.normalized().offset)
    with pytest.raises(TypeError):
        x.terms[((0,) * len(x.vars),) * 2] = Q(1)
    return errors - {None}


def random_series_pair(rnd, kinds, nvars):
    """Two series of the given kinds whose offsets differ by integers, with random windows and log bounds."""
    vars_ = ("q", "x")[:nvars]
    base = rnd.choice([Q(0), Q(1, 3), Q(-5, 2)])
    out = []
    for kind in kinds:
        trunc = {v: rnd.randint(0, 4) for v in vars_}
        offset = {v: base + rnd.randint(-2, 2) for v in vars_}
        logmax = {v: rnd.randint(0, 2) for v in vars_}
        terms = {}
        for _ in range(rnd.choice([0, 1, 3, 6])):
            key = (tuple(rnd.randint(0, trunc[v]) for v in vars_), tuple(rnd.randint(0, logmax[v]) for v in vars_))
            terms[key] = series_value(kind, lambda: random_rational(rnd, num=9, den=6))
        out += series_and_reference(vars_, trunc, offset, logmax, terms)
    return out


KIND_PAIRS = [(a, b) for a in KINDS for b in KINDS if (a, b) != ("vector", "vector")] + [("vector", "vector")]


@st.composite
def series_pairs(draw):
    """Two series and their references: kinds with a product or a sum, offsets one sector apart by integers."""
    vars_ = ("q", "x")[: draw(st.integers(1, 2))]
    kinds = draw(st.sampled_from(KIND_PAIRS))
    base = draw(st.sampled_from([Q(0), Q(1, 3), Q(-5, 2)]))
    rational = st.fractions(-9, 9, max_denominator=12)
    out = []
    for kind in kinds:
        trunc = {v: draw(st.integers(0, 3)) for v in vars_}
        offset = {v: base + draw(st.integers(-2, 2)) for v in vars_}
        logmax = {v: draw(st.integers(0, 2)) for v in vars_}
        keys = draw(
            st.lists(
                st.tuples(
                    st.tuples(*(st.integers(0, trunc[v]) for v in vars_)),
                    st.tuples(*(st.integers(0, logmax[v]) for v in vars_)),
                ),
                max_size=5,
                unique=True,
            )
        )
        out += series_and_reference(vars_, trunc, offset, logmax, {k: series_value(kind, lambda: draw(rational)) for k in keys})
    return out


class TestSeriesStoredForm:
    """TruncSeries on numerators over one denominator, against the Fraction series it replaced."""

    def test_operations_against_the_fraction_reference(self):
        rnd = random.Random(SEED + 31)
        seen = dict.fromkeys(["rational", "vector", "matrix", "offsets differ", "truncations differ", "logs", "zero"], 0)
        errors = set()
        for t in range(150):
            kinds = KIND_PAIRS[t % len(KIND_PAIRS)]
            x, fx, y, fy = random_series_pair(rnd, kinds, rnd.randint(1, 2))
            errors |= check_series_against_reference(x, fx, y, fy, random_rational(rnd))
            seen[kinds[0]] += 1
            seen["offsets differ"] += x.offset != y.offset
            seen["truncations differ"] += x.trunc != y.trunc
            seen["logs"] += any(any(logs) for _e, logs in x.nums)
            seen["zero"] += x.is_zero()
        assert min(seen.values()) >= 5, seen
        # shapes that do not fit are errors in both, of one type
        assert {LogOverflow, TypeError} <= errors, errors

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pair=series_pairs(), c=st.fractions(-5, 5, max_denominator=6))
    def test_property_against_the_fraction_reference(self, pair, c):
        x, fx, y, fy = pair
        check_series_against_reference(x, fx, y, fy, c)

    def test_terms_is_a_read_only_view(self):
        s = TruncSeries(("q",), {"q": 3}, terms={((0,), (0,)): Q(1, 2), ((2,), (0,)): Q(3)})
        assert (s.nums, s.den) == ({((0,), (0,)): 1, ((2,), (0,)): 6}, 2)
        assert s.terms == {((0,), (0,)): Q(1, 2), ((2,), (0,)): Q(3)}
        vec = TruncSeries(("q",), {"q": 3}, terms={((1,), (0,)): QVec.from_list([Q(1, 2), 0])})
        assert (vec.nums, vec.den) == ({((1,), (0,)): QVec.from_list([Q(1, 2), 0])}, 1)
        for series in (s, vec):
            with pytest.raises(TypeError):
                series.terms[(0,), (0,)] = Q(1)
            with pytest.raises(TypeError):
                del series.terms[next(iter(series.nums))]
        assert s.coefficient({"q": 2}) == 3 and type(s.coefficient({"q": 2})) is Fraction and s.coefficient({"q": 1}) == 0

    def test_equal_series_built_different_ways_are_equal_and_hash_equal(self):
        shape = (("q",), {"q": 3})
        half = TruncSeries(*shape, terms={((1,), (0,)): Q(2, 4)})
        stored = TruncSeries(*shape)
        stored._store((1,), (0,), Q(1, 4))
        stored._store((1,), (0,), "1/4")
        stored._store((2,), (0,), Q(1, 3))
        stored._store((2,), (0,), Q(-1, 3))
        doc = {"vars": ["q"], "trunc": {"q": 3}, "terms": [{"n": [1], "l": [0], "c": "1/2"}, {"n": [2], "l": [0], "c": "0"}]}
        routes = [
            TruncSeries.monomial(Q(1, 2), *shape, {"q": 1}),
            TruncSeries(*shape, terms={((1,), (0,)): "1/2", ((0,), (0,)): 0}),
            TruncSeries.monomial(Q(1, 6), *shape, {"q": 1}) + TruncSeries.monomial(Q(1, 3), *shape, {"q": 1}),
            TruncSeries.monomial(Q(3, 4), *shape, {"q": 1}).scale(Q(2, 3)),
            stored,
            jsonio.series_from_json(doc),
            # an integer offset folds into the exponents
            TruncSeries.monomial(Q(1, 2), ("q",), {"q": 2}, offset={"q": 1}),
            LaurentJet.monomial(Q(1, 2), 1, "q").to_trunc_series(),
            TruncSeries.monomial(Q(1, 2), *shape, {"q": 1}).qdq("q"),
            TruncSeries.monomial(Q(2, 3), *shape) * TruncSeries.monomial(Q(3, 4), *shape, {"q": 1}),
        ]
        for other in routes:
            assert_series_stored_form(other)
            assert other == half and hash(other) == hash(half), other
        assert (half.nums, half.den) == ({((1,), (0,)): 1}, 2)
        vec = TruncSeries(*shape, terms={((1,), (0,)): QVec.from_list([Q(1, 2), 1])})
        halves = TruncSeries(*shape, terms={((1,), (0,)): QVec.from_list([Q(1, 4), Q(1, 2)])})
        assert halves + halves == vec and hash(halves + halves) == hash(vec) and halves.scale(2) == vec
        assert TruncSeries(*shape) == TruncSeries(*shape, terms={((0,), (0,)): QMat(2, 2)}) == half - half

    def test_a_coefficient_that_is_not_rational_is_a_type_error(self):
        # a float or a Decimal would be kept and printed as one
        for bad in (0.5, Decimal("0.5"), LaurentJet.const(1), [1], None):
            with pytest.raises(TypeError):
                TruncSeries.constant(bad, ["q"], {"q": 3})
        assert TruncSeries.constant(True, ["q"], {"q": 3}).terms == {((0,), (0,)): 1}

    def test_a_mix_of_coefficient_kinds_is_a_type_error(self):
        shape = (("q",), {"q": 3})
        vec, mat = QVec.from_list([1, 2]), QMat.from_rows([[1, 0], [0, 1]])
        for a, b in ((Q(1), vec), (vec, mat), (mat, Q(1))):
            with pytest.raises(TypeError):
                TruncSeries(*shape, terms={((0,), (0,)): a, ((1,), (0,)): b})
            s = TruncSeries(*shape, terms={((0,), (0,)): a})
            with pytest.raises(TypeError):
                s + TruncSeries(*shape, terms={((1,), (0,)): b})
            with pytest.raises(TypeError):
                s._store((1,), (0,), b)
            # a zero series has no kind, so it adds to any
            assert s + TruncSeries(*shape, terms={((1,), (0,)): b}).scale(0) == s
