import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from blocksew.fuchs import (
    BoundViolation,
    FuchsError,
    FuchsSystem,
    InconsistentResonance,
    MissingSeed,
    SeedError,
    certify,
    majorant_alpha,
    ode_residual,
    resonances,
    residual,
    solve_formal,
    _resolvent,
)
from blocksew.linalg import QMat, QVec, solve
from blocksew.series import TruncSeries
from helpers import fraction_fuchs_solution, fuchs_walk_per_step, random_rational

Q = Fraction
SEED = 9090


def scalar_system(a_list, w_list, tail=None):
    return FuchsSystem.single(
        [QMat.from_rows([[x]]) for x in a_list],
        [QVec.from_list([x]) for x in w_list],
        tail=tail,
    )


class TestSolveFormal:
    def test_pure_inhomogeneity(self):
        sys_ = scalar_system([0], [0, 1])
        psi = solve_formal(sys_, {(0, 0): [0]}, order=5)
        assert psi == TruncSeries(("q",), {"q": 5}, terms={((1,), (0,)): QVec.from_list([1])})
        assert residual(sys_, psi).is_zero()

    def test_resonant_monomial(self):
        sys_ = scalar_system([2], [0])
        assert resonances(sys_, 6) == {2: 1}
        psi = solve_formal(sys_, {(2, 0): [1]}, order=6)
        assert psi == TruncSeries(("q",), {"q": 6}, terms={((2,), (0,)): QVec.from_list([1])})
        assert residual(sys_, psi).is_zero()

    def test_nilpotent_log_case(self):
        sys_ = FuchsSystem.single([QMat.from_rows([[0, 1], [0, 0]])], [QVec(2)])
        psi = solve_formal(sys_, {(0, 1): [1], (0, 0): [1]}, order=4, log_bound=1)
        want = TruncSeries(
            ("q",),
            {"q": 4},
            logmax={"q": 1},
            terms={
                ((0,), (0,)): QVec.from_list([1, 1]),
                ((0,), (1,)): QVec.from_list([1, 0]),
            },
        )
        assert psi == want
        assert residual(sys_, psi).is_zero()

    def test_exponential(self):
        sys_ = scalar_system([0, 1], [0])
        psi = solve_formal(sys_, {(0, 0): [1]}, order=25)
        for n in range(26):
            assert psi.coefficient({"q": n})[0] == Q(1, math.factorial(n))
        assert residual(sys_, psi).is_zero()

    def test_missing_seed(self):
        sys_ = scalar_system([0], [0])
        with pytest.raises(MissingSeed) as e:
            solve_formal(sys_, {}, order=2)
        assert e.value.kernel_dim == 1

    def test_inconsistent_resonance_reports_index(self):
        sys_ = FuchsSystem.single(
            [QMat.from_rows([[0, 1], [0, 0]])], [QVec.from_list([0, 1])]
        )
        with pytest.raises(InconsistentResonance) as e:
            solve_formal(sys_, {(0, 0): [0]}, order=2)
        assert e.value.key == ((0,), (0,))

    def test_nonresonant_solution_unique_and_deterministic(self):
        rnd = random.Random(SEED)
        a0 = QMat.from_rows([[Q(1, 2), Q(1, 3)], [0, Q(7, 2)]])  # no natural eigenvalues
        a1 = QMat.from_rows([[random_rational(rnd) for _ in range(2)] for _ in range(2)])
        w0 = QVec.from_list([1, 2])
        sys_ = FuchsSystem.single([a0, a1], [w0])
        assert resonances(sys_, 10) == {}
        p1 = solve_formal(sys_, {}, order=8)
        p2 = solve_formal(sys_, {}, order=8)
        assert p1 == p2
        assert residual(sys_, p1).is_zero()

    def test_multi_variable_exponential(self):
        sys_ = FuchsSystem(
            1,
            ("q1", "q2"),
            (1, 1),
            [{(1, 0): QMat.from_rows([[1]])}, {(0, 1): QMat.from_rows([[2]])}],
            [{}, {}],
        )
        psi = solve_formal(sys_, {((0, 0), (0, 0)): [1]}, order=5)
        for i in range(6):
            for j in range(6):
                got = psi.coefficient({"q1": i, "q2": j})
                want = Q(2 ** j, math.factorial(i) * math.factorial(j))
                assert (got[0] if got else Q(0)) == want
        assert residual(sys_, psi, 0).is_zero()
        assert residual(sys_, psi, 1).is_zero()

    @pytest.mark.parametrize("second_is_nilpotent", [True, False])
    def test_multi_variable_log_walk(self, second_is_nilpotent):
        # A^1_0 = A^2_0 = N nilpotent: psi = (I + N log q1 + N log q2)(a, b).
        # With A^2 = 0 instead, psi = (I + N log q1)(a, b), and every singular
        # step takes one seed coefficient from the kernel of the first
        # variable's step, never two from the second's.
        nil = QMat.from_rows([[0, 1], [0, 0]])
        second = nil if second_is_nilpotent else QMat(2, 2)
        sys_ = FuchsSystem(2, ("q1", "q2"), (0, 0), [{(0, 0): nil}, {(0, 0): second}], [{}, {}])
        a, b = Q(3), Q(-2, 5)
        log2 = b if second_is_nilpotent else 0
        seeds = {((0, 0), (1, 1)): [0], ((0, 0), (0, 1)): [log2], ((0, 0), (1, 0)): [b], ((0, 0), (0, 0)): [a]}
        psi = solve_formal(sys_, seeds, order=3, log_bound=1)
        want = {((0, 0), (0, 0)): QVec.from_list([a, b]), ((0, 0), (1, 0)): QVec.from_list([b, 0])}
        if second_is_nilpotent:
            want[((0, 0), (0, 1))] = QVec.from_list([b, 0])
        assert psi.terms == want == fuchs_walk_per_step(sys_, seeds, 3, 1)
        assert residual(sys_, psi, 0).is_zero()
        assert residual(sys_, psi, 1).is_zero()

    def test_seed_above_the_order_is_read_at_a_higher_order(self):
        sys_ = scalar_system([5], [0])
        seeds = {(5, 0): [Q(2, 3)]}
        assert solve_formal(sys_, seeds, order=3) == solve_formal(sys_, {}, order=3)
        psi = solve_formal(sys_, seeds, order=6)
        assert psi == TruncSeries(("q",), {"q": 6}, terms={((5,), (0,)): QVec.from_list([Q(2, 3)])})
        assert residual(sys_, psi).is_zero()

    @pytest.mark.parametrize(
        "a0, seeds, key",
        [
            (0, {(0, 0): [1], (2, 0): [7]}, ((2,), (0,))),  # step 2 is regular
            (0, {(0, 0): [1], (-1, 3): [5]}, ((-1,), (3,))),  # a negative exponent
            (-1, {(-1, 0): [5]}, ((-1,), (0,))),  # though the step -1 - A_0 is singular
            (0, {(0, 0): [1], (0, 1): [5]}, ((0,), (1,))),  # a log degree above log_bound = 0
            (0, {(0, 0): [1], (9, 0): [7]}, ((9,), (0,))),  # above the order, at a regular step
            (0, {(0, 0): [1, 2]}, ((0,), (0,))),  # step 0 leaves one coefficient free
            (5, {(5, 0): [1, 2]}, ((5,), (0,))),  # so does step 5, above the order
        ],
    )
    def test_seed_the_walk_does_not_read(self, a0, seeds, key):
        with pytest.raises(SeedError) as e:
            solve_formal(scalar_system([a0, 1], [0]), seeds, order=3)
        assert e.value.key == key

    def test_tail_forbids_extrapolation(self):
        sys_ = scalar_system([0, 1], [0], tail=(Q(1), Q(2)))
        with pytest.raises(FuchsError):
            solve_formal(sys_, {(0, 0): [1]}, order=5)


def triangular_system(rnd, dim, resonance=None, n_coeffs=3):
    """Dense coefficients of a dim x dim system with upper-triangular A_0.

    The diagonal of A_0 is half-integer, so no step is singular, unless
    ``resonance`` = r puts r in the last diagonal slot; then the last rows of
    A_k (k >= 1) and the last entries of omega vanish, so step r has a
    one-dimensional kernel and stays consistent.
    """
    diag = [Q(rnd.choice([-1, 1]) * (2 * rnd.randint(0, 3) + 1), 2) for _ in range(dim)]
    if resonance is not None:
        diag[-1] = Q(resonance)
    a = [[[diag[i] if i == j else (random_rational(rnd) if j > i else Q(0)) for j in range(dim)] for i in range(dim)]]
    a += [[[random_rational(rnd) for _ in range(dim)] for _ in range(dim)] for _ in range(n_coeffs - 1)]
    omega = [[random_rational(rnd) for _ in range(dim)] for _ in range(n_coeffs)]
    if resonance is not None:
        for k in range(1, n_coeffs):
            a[k][-1] = [Q(0)] * dim
        for w in omega:
            w[-1] = Q(0)
    return a, omega


def as_system(a, omega):
    return FuchsSystem.single([QMat.from_rows(m) for m in a], [QVec.from_list(w) for w in omega])


class TestIntegerRecurrence:
    """solve_formal against a Fraction recurrence that shares no code with it."""

    @pytest.mark.parametrize("resonance", [None, 0, 2])
    def test_dim3_order80_matches_fraction_recurrence(self, resonance):
        rnd = random.Random(SEED + (resonance or 0) + 10)
        a, omega = triangular_system(rnd, 3, resonance)
        seeds = {} if resonance is None else {resonance: [Q(-5, 3)]}
        sys_ = as_system(a, omega)
        psi = solve_formal(sys_, {(n, 0): v for n, v in seeds.items()}, order=80)
        want = fraction_fuchs_solution(a, omega, seeds, 80)
        for n in range(81):
            assert psi.terms.get(((n,), (0,)), QVec(3)).to_list() == want[n], n
        assert max(x.denominator for x in want[80]).bit_length() > 300

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10**6),
        dim=st.integers(1, 3),
        resonant=st.booleans(),
        order=st.integers(0, 12),
        extra=st.integers(1, 6),
    )
    def test_truncation_is_consistent(self, seed, dim, resonant, order, extra):
        a, omega = triangular_system(random.Random(seed), dim, 0 if resonant else None)
        sys_ = as_system(a, omega)
        seeds = {(0, 0): [Q(7, 2)]} if resonant else {}
        low = solve_formal(sys_, seeds, order=order)
        high = solve_formal(sys_, seeds, order=order + extra)
        assert low.terms == {k: v for k, v in high.terms.items() if k[0][0] <= order}
        assert residual(sys_, low).is_zero()


def random_step_matrix(rnd, dim):
    """A rational A_0 and its eigenvalues: P T P^{-1} with T upper triangular.

    Half of T's diagonal is natural (0..8, so some steps n - A_0 are singular,
    some twice), the rest half-integer; P is unit lower triangular.
    """
    diag = [Q(rnd.randint(0, 8)) if rnd.random() < 0.5 else Q(2 * rnd.randint(-4, 4) + 1, 2) for _ in range(dim)]
    t = QMat.from_rows([[diag[i] if i == j else (random_rational(rnd) if j > i else 0) for j in range(dim)] for i in range(dim)])
    p = QMat.from_rows([[1 if i == j else (random_rational(rnd) if j < i else 0) for j in range(dim)] for i in range(dim)])
    # P = I + L with L strictly lower triangular, so P^{-1} = sum_k (-L)^k
    p_inv = power = QMat.identity(dim)
    for _ in range(dim - 1):
        power = power @ (QMat.identity(dim) - p)
        p_inv = p_inv + power
    return p @ t @ p_inv, diag


class TestResolvent:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_adjugate_inverts_every_step(self, dim):
        rnd = random.Random(SEED + 20 + dim)
        dense = QMat.from_rows([[random_rational(rnd, den=7) for _ in range(dim)] for _ in range(dim)])
        for a0, eigenvalues in [random_step_matrix(rnd, dim) for _ in range(6)] + [(dense, None)]:
            at = _resolvent(a0)
            for n in range(9):
                adj, det = at(n)
                step = QMat.identity(dim).scale(n) - a0
                assert step @ QMat.from_rows(adj) == QMat.identity(dim).scale(det)
                assert (det == 0) == bool(solve(step, QVec(dim))[1])
                assert eigenvalues is None or (det == 0) == (n in eigenvalues)
                assert at(n) is at(n)  # memoized per n


def nonzero_rational(rnd):
    return Q(rnd.choice([-1, 1]) * rnd.randint(1, 6), rnd.randint(1, 4))


def jordan_system(rnd, dim, log_bound, n_coeffs=3):
    """A^1_0 with one nilpotent Jordan block of size log_bound + 1, then a
    half-integer diagonal; omega_0 = 0.  Step 0 takes one seed per log level
    and is consistent whatever the seeds and the A_k (k >= 1) are."""
    size = log_bound + 1
    a0 = [[Q(1) if j == i + 1 < size else Q(0) for j in range(dim)] for i in range(dim)]
    for i in range(size, dim):
        a0[i][i] = Q(2 * rnd.randint(-3, 3) + 1, 2)
    a = [a0] + [[[random_rational(rnd) for _ in range(dim)] for _ in range(dim)] for _ in range(n_coeffs - 1)]
    omega = [[Q(0)] * dim] + [[random_rational(rnd) for _ in range(dim)] for _ in range(n_coeffs - 1)]
    seeds = {((0,), (l,)): [nonzero_rational(rnd)] for l in range(log_bound + 1)}
    return as_system(a, omega), seeds


def two_variable_system(rnd, second_is_nilpotent):
    """q1, q2 with A^1_0 = [[0, 1], [0, 0]] and A^2_0 that matrix or 0, random
    A^j_k at k = (1, 0), (0, 1), (1, 1) and omega^j away from (0, 0); log
    bound 1.  Steps (0, n2 > 0) are singular in q1 and regular in q2."""
    nil = QMat.from_rows([[0, 1], [0, 0]])
    keys = [(1, 0), (0, 1), (1, 1)]

    def stream(a0):
        out = {k: QMat.from_rows([[random_rational(rnd) for _ in range(2)] for _ in range(2)]) for k in keys}
        return {(0, 0): a0, **out} if not a0.is_zero() else out

    a = [stream(nil), stream(nil if second_is_nilpotent else QMat(2, 2))]
    omega = [{k: QVec.from_list([random_rational(rnd), random_rational(rnd)]) for k in keys} for _ in range(2)]
    seeds = {((0, 0), logs): [nonzero_rational(rnd)] for logs in product(range(2), repeat=2)}
    return FuchsSystem(2, ("q1", "q2"), (1, 1), a, omega), seeds


class TestWalkAgainstPerStepSolves:
    """solve_formal against the walk with one linalg.solve per step (tests/helpers.py)."""

    def check(self, sys_, seeds, order, log_bound=0):
        psi = solve_formal(sys_, seeds, order=order, log_bound=log_bound)
        m = sys_.n_vars
        assert (psi.vars, psi.trunc, psi.logmax, psi.offset) == (sys_.variables, (order,) * m, (log_bound,) * m, (0,) * m)
        assert psi.terms == fuchs_walk_per_step(sys_, seeds, order, log_bound)
        return psi

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_non_resonant(self, dim):
        rnd = random.Random(SEED + 30 + dim)
        for _ in range(3):
            a, omega = triangular_system(rnd, dim)
            self.check(as_system(a, omega), {}, 20)

    @pytest.mark.parametrize("resonance", [0, 1, 3])
    def test_resonant_with_seeds(self, resonance):
        rnd = random.Random(SEED + 40 + resonance)
        for dim in (1, 2, 3):
            a, omega = triangular_system(rnd, dim, resonance)
            self.check(as_system(a, omega), {((resonance,), (0,)): [random_rational(rnd)]}, 15)

    @pytest.mark.parametrize("log_bound", [1, 2])
    def test_log_levels(self, log_bound):
        rnd = random.Random(SEED + 50 + log_bound)
        for dim in (log_bound + 1, log_bound + 2):
            sys_, seeds = jordan_system(rnd, dim, log_bound)
            psi = self.check(sys_, seeds, 12, log_bound)
            assert any(logs[0] for _, logs in psi.terms)
            assert residual(sys_, psi).is_zero()

    @pytest.mark.parametrize("second_is_nilpotent", [True, False])
    def test_two_variables(self, second_is_nilpotent):
        rnd = random.Random(SEED + 60 + second_is_nilpotent)
        for _ in range(2):
            sys_, seeds = two_variable_system(rnd, second_is_nilpotent)
            psi = self.check(sys_, seeds, 4, 1)
            # steps (0, n2 > 0) are singular in q1, so q2's resolvent gives them
            assert any(exps[0] == 0 < exps[1] for exps, _ in psi.terms)


class TestNormChoice:
    def test_submultiplicative_on_random_matrices(self):
        rnd = random.Random(SEED + 1)
        for _ in range(25):
            m = QMat.from_rows([[random_rational(rnd) for _ in range(3)] for _ in range(3)])
            n = QMat.from_rows([[random_rational(rnd) for _ in range(3)] for _ in range(3)])
            v = QVec.from_list([random_rational(rnd) for _ in range(3)])
            assert (m @ n).norm_rowsum() <= m.norm_rowsum() * n.norm_rowsum()
            assert m.apply(v).norm_inf() <= m.norm_rowsum() * v.norm_inf()


class TestCertify:
    def test_exponential_bound_to_thirty(self):
        sys_ = scalar_system([0, 1], [0])
        psi = solve_formal(sys_, {(0, 0): [1]}, order=30)
        cert = certify(sys_, psi, Q(1, 2))
        assert cert.n_checked == 30
        assert cert.recheck()
        for n in range(31):
            assert Q(1, math.factorial(n)) <= cert.c * cert.gamma ** n * cert.r1 ** (-n)
        assert cert.r0 < cert.r1 / cert.gamma

    def test_constant_solution(self):
        sys_ = scalar_system([0], [0])
        psi = solve_formal(sys_, {(0, 0): [Q(3, 7)]}, order=10)
        cert = certify(sys_, psi, Q(1, 2))
        assert cert.recheck()
        assert cert.alpha == 0

    def test_corrupted_coefficient_rejected_with_index(self):
        sys_ = scalar_system([0, 1], [0])
        psi = solve_formal(sys_, {(0, 0): [1]}, order=30)
        bad = TruncSeries(("q",), {"q": 30}, terms=dict(psi.terms))
        bad._store((17,), (0,), QVec.from_list([Q(10) ** 15]))
        with pytest.raises(BoundViolation) as e:
            certify(sys_, bad, Q(1, 2))
        assert e.value.index == 17

    def test_geometric_pattern_with_tail(self):
        # coefficient norms exactly alpha0 * s^{-n}: the adjustment loop for c
        # terminates within ceil(B) + 1 raises past the closure step
        s = Q(2)
        alpha0 = Q(1, 3)
        a0 = QMat.from_rows([[Q(5, 2), 0], [0, Q(1, 2)]])
        coeffs = [a0]
        for n in range(1, 7):
            coeffs.append(QMat.from_rows([[alpha0 / s ** n, 0], [0, alpha0 / s ** n]]))
        sys_ = FuchsSystem.single(coeffs, [QVec.from_list([1, 1])], tail=(alpha0, 1 / s))
        psi = solve_formal(sys_, {}, order=6)
        assert residual(sys_, psi).is_zero()
        r1 = Q(1, 4)  # strictly inside the tail radius s
        cert = certify(sys_, psi, r1)
        assert cert.recheck()
        assert cert.adjustments <= int(cert.cap_b) + 2
        assert cert.cap_b == Q(5, 2)

    def test_alpha_dominates_disc_values(self):
        # for any |q| <= r1 the truncated sum of ||A_n|| q^n stays below alpha
        rnd = random.Random(SEED + 2)
        coeffs = [
            QMat.from_rows([[random_rational(rnd) for _ in range(2)] for _ in range(2)])
            for _ in range(5)
        ]
        sys_ = FuchsSystem.single(coeffs, [QVec(2)])
        r1 = Q(1, 3)
        alpha = majorant_alpha(sys_, r1)
        for q in (r1, -r1, Q(1, 4), Q(-1, 5), Q(0)):
            total = QMat(2, 2)
            for n, m in enumerate(coeffs):
                total = total + m.scale(q ** n)
            assert total.norm_rowsum() <= alpha

    def test_r1_outside_tail_radius_rejected(self):
        sys_ = scalar_system([0, 1], [0], tail=(Q(1), Q(4)))
        psi = solve_formal(scalar_system([0, 1], [0]), {(0, 0): [1]}, order=5)
        with pytest.raises(FuchsError):
            certify(sys_, psi, Q(1, 2))

    @pytest.mark.parametrize("tail", [(Q(-5), Q(1)), (Q(1), Q(-3)), ("-1/2", "1")])
    def test_negative_tail_rejected(self, tail):
        # C = -5 lowered alpha to -2 and certified a larger r0 than C = 5; a = -3 passed
        # the radius check |a r1| < 1 as a r1 = -3/2 and certified a divergent tail
        with pytest.raises(FuchsError, match="C >= 0 and a >= 0"):
            scalar_system([0, 1], [0], tail=tail)


class TestOdeResidual:
    def test_grading_diagonal_annihilates_character(self):
        # components psi_n = p(n) q^n, Omega = diag(n): q d/dq picks out n q^n
        from blocksew.fock import partition_count

        order = 8
        dim = order + 1
        psi = TruncSeries(("q",), {"q": order})
        for n in range(order + 1):
            psi._store((n,), (0,), QVec(dim, {n: Q(partition_count(n))}))
        omega = TruncSeries(("q",), {"q": order})
        omega._store((0,), (0,), QMat(dim, dim, {n: {n: Q(n)} for n in range(1, dim)}))
        assert ode_residual(omega, psi).is_zero()

    def test_constant_solution_zero_omega(self):
        psi = TruncSeries(("q",), {"q": 6}, terms={((0,), (0,)): QVec.from_list([3, -2])})
        omega = TruncSeries(("q",), {"q": 6})
        assert ode_residual(omega, psi).is_zero()

    def test_two_by_two_system_built_from_generator(self):
        # assemble Omega and psi from one generator: psi = (e^q, q e^q),
        # q psi' = Omega psi with Omega = [[q, 0], [q, 1]]
        order = 8
        psi = TruncSeries(("q",), {"q": order})
        for n in range(order + 1):
            first = Q(1, math.factorial(n))
            second = Q(1, math.factorial(n - 1)) if n >= 1 else Q(0)
            psi._store((n,), (0,), QVec.from_list([first, second]))
        omega = TruncSeries(("q",), {"q": order})
        omega._store((1,), (0,), QMat.from_rows([[1, 0], [0, 1]]))
        omega._store((0,), (0,), QMat.from_rows([[0, 0], [0, 1]]))
        assert ode_residual(omega, psi).is_zero()

    def test_nonzero_residual_reported(self):
        psi = TruncSeries(("q",), {"q": 4}, terms={((1,), (0,)): QVec.from_list([1])})
        omega = TruncSeries(("q",), {"q": 4})
        res = ode_residual(omega, psi)
        assert not res.is_zero()
        assert res.coefficient({"q": 1}) == QVec.from_list([1])
