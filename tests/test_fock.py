import itertools
import math
import random
import threading
from fractions import Fraction

import pytest

from blocksew.fock import (
    BOSON,
    CONFORMAL,
    VACUUM,
    FockModule,
    NilpotentToyModule,
    UnsupportedVertexWeight,
    partition_count,
    partitions_of,
    vacuum_module,
    weight,
)
from blocksew.linalg import QMat
from blocksew.series import LaurentJet
from helpers import euler_partition_count, heisenberg_reference, random_rational, vec_add, vec_scale, weight_diag

Q = Fraction


def commutator(apply_a, apply_b, vec):
    return vec_add(apply_a(apply_b(vec)), vec_scale(-1, apply_b(apply_a(vec))))


class TestBasis:
    def test_graded_dimensions_match_pentagonal_oracle(self):
        for n in range(13):
            assert partition_count(n) == euler_partition_count(n)

    def test_partition_count_matches_enumeration(self):
        # the count no longer lists partitions, so the listing is its oracle
        for n in range(-2, 26):
            assert partition_count(n) == len(partitions_of(n))

    def test_graded_lex_order_is_deterministic(self):
        assert partitions_of(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))

    def test_dim(self):
        assert FockModule.dim(6) == 30


class TestHeisenberg:
    def test_defining_relation_on_vacuum(self):
        m = vacuum_module()
        assert m.apply_heisenberg(1, m.apply_heisenberg(-1, VACUUM)) == VACUUM
        assert m.apply_heisenberg(2, VACUUM) == {}

    def test_commutators_at_weight_8(self):
        # at a fractional momentum the integer action carries q, the momentum's denominator
        basis = [{mu: Q(1)} for w in range(9) for mu in partitions_of(w)]
        for m in (vacuum_module(), FockModule(Q(1, 3)), FockModule(Q(-5, 3))):
            for a in range(-4, 5):
                for b in range(-4, 5):
                    for vec in basis:
                        got = commutator(
                            lambda x, a=a: m.apply_heisenberg(a, x),
                            lambda x, b=b: m.apply_heisenberg(b, x),
                            vec,
                        )
                        want = vec_scale(Q(a), vec) if a + b == 0 else {}
                        assert got == want, (m.momentum, a, b, vec)

    def test_momentum_zero_mode(self):
        f = FockModule(Q(2, 3))
        assert f.apply_heisenberg(0, {(1,): Q(1)}) == {(1,): Q(2, 3)}

    def test_matrix_commutator_oracle(self):
        m = vacuum_module()
        n = 6
        for a in (-3, -1, 2):
            for b in (-2, 1, 3):
                big = n + abs(a) + abs(b)
                mid_b = n + max(0, -b)
                ma = m.heisenberg_matrix(a, mid_b, big)
                mb = m.heisenberg_matrix(b, n, mid_b)
                mid_a = n + max(0, -a)
                ma2 = m.heisenberg_matrix(a, n, mid_a)
                mb2 = m.heisenberg_matrix(b, mid_a, big)
                comm = ma @ mb - mb2 @ ma2
                if a + b == 0:
                    incl = QMat(m.dim(big), m.dim(n), {i: {i: Q(a)} for i in range(m.dim(n))})
                    assert comm == incl
                else:
                    assert comm.is_zero()


class TestVirasoro:
    def test_l0_grading(self):
        m = vacuum_module()
        for w in range(7):
            for mu in partitions_of(w):
                assert m.apply_virasoro(0, {mu: Q(1)}) == ({mu: Q(w)} if w else {})

    def test_central_charge_one(self):
        m = vacuum_module()
        basis = [{mu: Q(1)} for w in range(7) for mu in partitions_of(w)]
        for a in range(-3, 4):
            for b in range(-3, 4):
                for vec in basis:
                    got = commutator(
                        lambda x, a=a: m.apply_virasoro(a, x),
                        lambda x, b=b: m.apply_virasoro(b, x),
                        vec,
                    )
                    want = vec_scale(Q(a - b), m.apply_virasoro(a + b, vec))
                    if a + b == 0:
                        want = vec_add(want, vec_scale(Q(a ** 3 - a, 12), vec))
                    assert got == want, (a, b, vec)

    def test_l2_on_conformal_vector(self):
        m = vacuum_module()
        assert m.apply_virasoro(2, CONFORMAL) == {(): Q(1, 2)}

    def test_momentum_shifts_l0_by_half_square(self):
        lam = Q(1, 3)
        f = FockModule(lam)
        for w in range(5):
            for mu in partitions_of(w):
                got = f.apply_virasoro(0, {mu: Q(1)})
                assert got == ({mu: Q(w) + lam * lam / 2} if (w or lam) else {})


class TestVertexModes:
    def test_vacuum_gives_identity_at_minus_one(self):
        m = vacuum_module()
        for k in range(-3, 3):
            for mu in partitions_of(3):
                got = m.apply_vertex(VACUUM, k, {mu: Q(1)})
                assert got == ({mu: Q(1)} if k == -1 else {})

    def test_boson_gives_heisenberg(self):
        m = vacuum_module()
        for k in range(-4, 5):
            for w in range(6):
                for mu in partitions_of(w):
                    want = heisenberg_reference(m.momentum, k, {mu: Q(1)})
                    assert m.apply_vertex(BOSON, k, {mu: Q(1)}) == m.apply_heisenberg(k, {mu: Q(1)}) == want

    def test_conformal_gives_virasoro(self):
        m = vacuum_module()
        for k in range(-3, 5):
            for w in range(6):
                for mu in partitions_of(w):
                    assert m.apply_vertex(CONFORMAL, k, {mu: Q(1)}) == m.apply_virasoro(k - 1, {mu: Q(1)})

    def test_grading_shift(self):
        # modes shift the integer grading by wt(v) - m - 1
        m = vacuum_module()
        v = {(2, 1): Q(1)}
        for k in range(-3, 6):
            for mu in partitions_of(4):
                out = m.apply_vertex(v, k, {mu: Q(1)})
                for tau in out:
                    assert weight(tau) == 4 + 3 - k - 1

    def test_weight_bound_enforced(self):
        m = vacuum_module()
        with pytest.raises(UnsupportedVertexWeight):
            m.apply_vertex({(5,): Q(1)}, 0, VACUUM)
        with pytest.raises(UnsupportedVertexWeight):
            m.apply_vertex({**BOSON, (5,): Q(1)}, 0, VACUUM)

    def test_inhomogeneous_state_is_the_sum_of_its_components(self):
        rnd = random.Random(11)
        for m in (vacuum_module(), FockModule(Q(-2, 3))):
            for v in ({**VACUUM, **BOSON, **CONFORMAL}, {(4,): Q(3), (2, 1): Q(-1, 5), (1,): Q(2)}):
                for k in range(-3, 5):
                    vec = {mu: random_rational(rnd) for w in range(4) for mu in partitions_of(w)}
                    want: dict = {}
                    for mu, c in v.items():
                        want = vec_add(want, m.apply_vertex({mu: c}, k, vec))
                    assert m.apply_vertex(v, k, vec) == want, (m.momentum, v, k)

    def test_creation_axiom_at_weight_four(self):
        # Y(v, z)|0> = v + O(z), so the mode at -1 recovers the state
        m = vacuum_module()
        for mu in partitions_of(4):
            v = {mu: Q(1)}
            assert m.apply_vertex(v, -1, VACUUM) == v
            for k in range(0, 5):
                assert m.apply_vertex(v, k, VACUUM) == {}


class TestContragredient:
    def test_virasoro_transpose_rule(self):
        m = vacuum_module()
        for n in range(-2, 3):
            tgt = 5 + max(0, -n)
            lhs = m.contragredient_matrix(CONFORMAL, n + 1, 5, tgt)
            rhs = m.virasoro_matrix(-n, tgt, 5).transpose()
            assert lhs == rhs

    def test_vacuum_identity(self):
        m = vacuum_module()
        assert m.contragredient_matrix(VACUUM, -1, 4, 4) == QMat.identity(m.dim(4))

    def test_boson_dual_rule(self):
        # a_n on the dual is -(a_{-n})^T
        m = vacuum_module()
        for k in range(-3, 4):
            tgt = 4 + max(0, -k)
            lhs = m.contragredient_matrix(BOSON, k, 4, tgt)
            rhs = m.heisenberg_matrix(-k, tgt, 4).transpose().scale(-1)
            assert lhs == rhs

    def test_double_contragredient_returns_module_modes(self):
        m = vacuum_module()
        states = [BOSON, CONFORMAL, {(3,): Q(1)}, {(2, 1): Q(1)}]
        for v in states:
            d = weight(next(iter(v)))
            for k in range(-2, 3):
                tgt = 5 + max(0, d - k - 1)
                # apply the dual construction twice: back to the module modes
                dd = QMat(m.dim(tgt), m.dim(5))
                voa = vacuum_module()
                u = dict(v)
                import math

                for j in range(0, d + 1):
                    kk = 2 * d - j - k - 2
                    if u:
                        a = m.contragredient_matrix(u, kk, tgt, 5)
                        dd = dd + a.transpose().scale(Q((-1) ** d, math.factorial(j)))
                    u = voa.apply_virasoro(1, u)
                assert dd == m.vertex_matrix(v, k, 5, tgt)

    def test_weight_diag_symmetric(self):
        m = vacuum_module()
        d = weight_diag(m, 5)
        assert d == d.transpose()


class TestCaching:
    def test_concurrent_reads_match_fresh_computation(self):
        m = FockModule(0)
        m.virasoro_matrix(2, 5, 5)  # warm-up
        results = []

        def reader():
            results.append(m.virasoro_matrix(2, 5, 5))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fresh = FockModule(0).virasoro_matrix(2, 5, 5)
        assert all(r == fresh for r in results)


def _add_scaled(out, vec, scale):
    for mu, c in vec.items():
        out[mu] = out.get(mu, Q(0)) + c * scale


def sugawara_reference(m, n, vec):
    """L_n = (1/2) sum over every j of :a_j a_{n-j}:, the larger index acting first,
    on the reference a_k."""
    top = max([weight(mu) for mu in vec] + [0])
    out = {}
    for j in range(n - top, top + 1):
        lo, hi = sorted((j, n - j))
        _add_scaled(out, heisenberg_reference(m.momentum, lo, heisenberg_reference(m.momentum, hi, vec)), Q(1, 2))
    return out


def current_coeff(n, j):
    """binom(-j-1, n-1), the coefficient of a_j in d^{n-1}a / (n-1)!."""
    return Q(math.prod(-j - 1 - t for t in range(n - 1)), math.factorial(n - 1))


def vertex_reference(m, v, k, vec):
    """Y(v)_k as the normally ordered product of derivative currents, summed
    over mode tuples with annihilators acting first, on the reference a_k."""
    top = max([weight(mu) for mu in vec] + [0])
    out = {}
    for parts, cv in v.items():
        if not parts:
            _add_scaled(out, vec if k == -1 else {}, cv)
            continue
        target = k + 1 - sum(parts)
        lo = target - (len(parts) - 1) * top
        for head in itertools.product(range(lo, top + 1), repeat=len(parts) - 1):
            js = head + (target - sum(head),)
            coeff = cv * math.prod(current_coeff(n, j) for n, j in zip(parts, js))
            term = vec
            for j in sorted(js, reverse=True):
                term = heisenberg_reference(m.momentum, j, term)
            _add_scaled(out, term, coeff)
    return out


def same_vectors(got, want):
    """Equal nonzero entries, and equal windows for LaurentJet coefficients."""

    def entries(vec):
        return {
            mu: (c, c.lo, c.hi) if isinstance(c, LaurentJet) else c
            for mu, c in vec.items()
            if (not c.is_zero() if isinstance(c, LaurentJet) else c)
        }

    return entries(got) == entries(want)


class TestMonomialImageCache:
    """apply_virasoro and apply_vertex sum the cached images of basis monomials."""

    @staticmethod
    def seeded_vectors(rnd, laurent, count):
        for _ in range(count):
            vec = {}
            for mu in rnd.sample(FockModule.basis(4), 5):
                c = random_rational(rnd) or Q(1)
                if laurent:
                    hi = rnd.randint(2, 6)
                    c = LaurentJet({0: c, 1: random_rational(rnd), hi: Q(1)}, rnd.choice([-1, 0]), hi, "t")
                vec[mu] = c
            yield vec

    def test_virasoro_matches_direct_sugawara(self):
        rnd = random.Random(20)
        for momentum in (Q(0), Q(-5, 3)):
            m = FockModule(momentum)
            for laurent in (False, True):
                for vec in self.seeded_vectors(rnd, laurent, 5):
                    for n in range(-3, 4):
                        assert same_vectors(m.apply_virasoro(n, vec), sugawara_reference(m, n, vec)), (n, vec)

    def test_integer_images_are_the_sugawara_sum(self):
        # each image is kept as integers over its mode's denominator, q the momentum's denominator:
        # q for a_k, 2 q^2 for L_n, q^len(nu) for Y(nu)_m; every cached value is an int
        # repeated parts, at the start and at the end of a state, are summed as unordered runs
        states = [VACUUM, BOSON, {(3,): Q(1)}, {(2, 1): Q(1)}, {(1, 1, 1): Q(1)}, {(2, 2): Q(1)}, {(2, 1, 1): Q(1)}]
        for momentum in (Q(0), Q(1, 3), Q(-5, 3)):
            m, q = FockModule(momentum), momentum.denominator
            assert m._virasoro_den == 2 * q**2
            for mu in FockModule.basis(5):
                for n in range(-3, 4):
                    want = {tau: c for tau, c in sugawara_reference(m, n, {mu: Q(1)}).items() if c}
                    img, ints = m.apply_virasoro(n, {mu: Q(1)}), m._image((1, 1), n + 1, mu)
                    assert img == want == {tau: Q(x, m._virasoro_den) for tau, x in ints.items()}, (momentum, n, mu)
                    ints = m._image((1,), n, mu)
                    want = heisenberg_reference(momentum, n, {mu: Q(1)})
                    assert {tau: Q(x, q) for tau, x in ints.items()} == want, (momentum, n, mu)
                    for v in states:
                        (nu,) = v
                        ints = m._image(nu, n, mu)
                        want = {tau: c for tau, c in vertex_reference(m, v, n, {mu: Q(1)}).items() if c}
                        assert {tau: Q(x, q ** len(nu)) for tau, x in ints.items()} == want, (momentum, nu, n, mu)
            assert all(type(x) is int for img in m._images.values() for x in img.values())

    def test_vertex_matches_normal_ordered_product(self):
        rnd = random.Random(21)
        states = [VACUUM, BOSON, CONFORMAL, {(2,): Q(1)}, {(3,): Q(-2)}, {(2, 1): Q(1)}, {(1, 1, 1): Q(1, 3)}]
        for momentum in (Q(0), Q(-5, 3)):
            m = FockModule(momentum)
            for laurent in (False, True):
                for vec in self.seeded_vectors(rnd, laurent, 2):
                    for v in states:
                        for k in range(-3, 4):
                            assert same_vectors(m.apply_vertex(v, k, vec), vertex_reference(m, v, k, vec)), (v, k)


class TestWeightAwareSnapshots:
    """Snapshots skip the columns whose image leaves [0, tgt_n]."""

    @staticmethod
    def full_snapshot(m, action, src_n, tgt_n):
        """Every source column, with the entries above the target truncation dropped."""
        index = {mu: i for i, mu in enumerate(m.basis(tgt_n))}
        rows = {}
        for col, mu in enumerate(m.basis(src_n)):
            for tau, c in action({mu: Q(1)}).items():
                if weight(tau) <= tgt_n:
                    rows.setdefault(index[tau], {})[col] = c
        return QMat(m.dim(tgt_n), m.dim(src_n), rows)

    def dual_reference(self, m, v, k, src_n, tgt_n):
        d = weight(next(iter(v)))
        total, u = QMat(m.dim(tgt_n), m.dim(src_n)), dict(v)
        for j in range(d + 1):
            if u:
                kk = 2 * d - j - k - 2
                a = self.full_snapshot(m, lambda x, u=u: m.apply_vertex(u, kk, x), tgt_n, src_n)
                total = total + a.transpose().scale(Q((-1) ** d, math.factorial(j)))
            u = vacuum_module().apply_virasoro(1, u)
        return total

    def test_snapshots_match_full_snapshots(self):
        for momentum in (Q(0), Q(-5, 3)):
            m = FockModule(momentum)
            for src, tgt in [(0, 0), (2, 5), (5, 2), (4, 4), (6, 3)]:
                for k in range(-3, 4):
                    full = self.full_snapshot(m, lambda x: heisenberg_reference(momentum, k, x), src, tgt)
                    assert m.heisenberg_matrix(k, src, tgt) == full, (k, src, tgt)
                    full = self.full_snapshot(m, lambda x: m.apply_virasoro(k, x), src, tgt)
                    assert m.virasoro_matrix(k, src, tgt) == full, (k, src, tgt)
                    # the last state's terms have different part counts, so different denominators
                    for v in (BOSON, CONFORMAL, {(2, 1): Q(1)}, {(2,): Q(1, 3), (1, 1): Q(-2)}):
                        full = self.full_snapshot(m, lambda x: m.apply_vertex(v, k, x), src, tgt)
                        assert m.vertex_matrix(v, k, src, tgt) == full, (v, k, src, tgt)
                        assert m.contragredient_matrix(v, k, src, tgt) == self.dual_reference(m, v, k, src, tgt)

    def test_integer_rows_are_the_one_stored_form(self):
        # a snapshot is cached once, as integer rows over one denominator; a
        # second read is the cached matrix, and it equals a cold build, row order too
        for momentum in (Q(0), Q(-5, 3)):
            m, cold = FockModule(momentum), FockModule(momentum)
            for read in ("heisenberg_matrix", "virasoro_matrix"):
                for k, src, tgt in ((-2, 3, 5), (0, 4, 4), (2, 5, 3)):
                    got = getattr(m, read)(k, src, tgt)
                    assert getattr(m, read)(k, src, tgt) is got
                    assert all(type(x) is int for r in got.nums.values() for x in r.values())
                    want = getattr(cold, read)(k, src, tgt)
                    assert got == want and list(got.nums.items()) == list(want.nums.items())

    def test_weight_bound_enforced_on_skipped_columns(self):
        # every column of a weight-5 mode at index 9 is skipped; the bound still holds
        with pytest.raises(UnsupportedVertexWeight):
            FockModule(0).vertex_matrix({(5,): Q(1)}, 9, 2, 2)


class TestToyModule:
    def test_log_bound_from_nilpotency(self):
        toy = NilpotentToyModule([2], [QMat.from_rows([[0, 1], [0, 0]])], offset=Q(1, 5))
        assert toy.log_bound == 1
        assert toy.weight_dims(3) == [2, 0, 0, 0]

    def test_rejects_non_nilpotent(self):
        bad = NilpotentToyModule([1], [QMat.from_rows([[1]])])
        with pytest.raises(ValueError):
            bad.log_bound
