import math
import random
from fractions import Fraction

import pytest

from blocksew.coords import u_matrix_dual, u_matrix_inverse
from blocksew.fock import (
    BOSON,
    CONFORMAL,
    VACUUM,
    FockModule,
    NilpotentToyModule,
    vacuum_module,
    weight,
)
from blocksew.linalg import QMat, QVec
from blocksew.series import CoordJet, TruncSeries, diagonal_contract, reverse_jet
from blocksew.sewing import (
    INFINITY,
    SewingBlock,
    SpherePoint,
    TruncationShortfall,
    _binomial_jet,
    _contract_pair,
    _diagonal_of_product,
    expand_section_at_point,
    genus0_invariance_check,
    l0_times,
    q_l0_resolvent,
    residue_identity_check,
    sew,
    sew_multi,
)
from helpers import closed_form_binomial_jet, euler_partition_count, fraction_sew, random_rational, submatrix

Q = Fraction
SEED = 777


def toy_module(offset=Q(2, 5)):
    return NilpotentToyModule([2], [QMat.from_rows([[0, 1], [0, 0]])], offset=offset)


def log_toy_module():
    """Nonzero nilpotents at weights 0 and 2; the weight-2 one has N^2 != 0."""
    n0 = QMat.from_rows([[0, Q(3, 2)], [0, 0]])
    n2 = QMat.from_rows([[0, Q(2, 3), 1], [0, 0, Q(-5, 4)], [0, 0, 0]])
    return NilpotentToyModule([2, 1, 3, 2], [n0, QMat(1, 1), n2, QMat(2, 2)], offset=Q(-3, 7))


def random_sew_case(rnd, modules, top, n_side, n_entries):
    """A seeded block with one pair per module and n_side retained slots.

    Pair slots cover weight ``top``; the slots sit in a shuffled order.  Most
    entries are diagonal or inside one weight block of their pair; the rest
    take any dual index, so some straddle two blocks.  Returns (block, pair
    positions, dense inputs).
    """
    side = [1, 2, 1]
    layout = [("pair", j, 0) for j in range(len(modules))] + [("pair", j, 1) for j in range(len(modules))]
    layout += [("side", s, 0) for s in range(n_side)]
    rnd.shuffle(layout)
    slot_dims = [modules[j].weight_dims(top) if kind == "pair" else side for kind, j, _ in layout]
    pairs = [(layout.index(("pair", j, 0)), layout.index(("pair", j, 1))) for j in range(len(modules))]
    table = {}
    for _ in range(n_entries):
        key = [rnd.randrange(sum(d)) for d in slot_dims]
        for pm, pd in pairs:
            dims = slot_dims[pm]
            weights = [n for n, d in enumerate(dims) for _ in range(d)]
            b = key[pm]
            roll = rnd.random()
            if roll < 0.5:
                key[pd] = b
            elif roll < 0.8:
                start = sum(dims[: weights[b]])
                key[pd] = start + rnd.randrange(dims[weights[b]])
        table[tuple(key)] = random_rational(rnd)
    inputs = {}
    for s, (kind, _j, _) in enumerate(layout):
        if kind == "side":
            inputs[s] = [random_rational(rnd) if rnd.random() < 0.6 else Q(0) for _ in range(sum(side))]
    return SewingBlock(slot_dims, table, pairs[0]), pairs, inputs


def reference_pair(pm, pd, module, top):
    dims = module.weight_dims(top)
    return (pm, pd, dims, [module.nilpotent_block(n).to_rows() for n in range(top + 1)])


def reference_resolvent(module, order):
    """q^{L_0}(identity) built block by block: weight-n block N_n^l / l! at (n, l)."""
    dims = module.weight_dims(order)
    total = sum(dims)
    out = TruncSeries(("q",), {"q": order}, offset={"q": module.offset}, logmax={"q": module.log_bound})
    for n, d in enumerate(dims):
        start = sum(dims[:n])
        nil = module.nilpotent_block(n).to_rows()
        power = [[Q(int(i == j)) for j in range(d)] for i in range(d)]
        for l in range(module.log_bound + 1):
            glob = {start + i: {start + j: power[i][j] / math.factorial(l) for j in range(d)} for i in range(d)}
            out._store((n,), (l,), QMat(total, total, glob))
            power = [[sum(nil[i][k] * power[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return out


class TestResolvent:
    def test_semisimple_is_projector_series(self):
        m = vacuum_module()
        r = q_l0_resolvent(m, 4)
        assert r.offset == (Q(0),) and r.logmax == (0,)
        dims = m.weight_dims(4)
        for n in range(5):
            mat = r.coefficient({"q": n})
            start = sum(dims[:n])
            expect = QMat(sum(dims), sum(dims), {start + i: {start + i: 1} for i in range(dims[n])})
            assert mat == expect

    def test_matches_blockwise_reference(self):
        for module in (vacuum_module(), FockModule(Q(1, 3)), toy_module(), log_toy_module()):
            for order in range(7):
                r = q_l0_resolvent(module, order)
                want = reference_resolvent(module, order)
                assert (r.vars, r.trunc, r.offset, r.logmax) == (want.vars, want.trunc, want.offset, want.logmax)
                assert r.terms == want.terms, (module, order)

    def test_q_derivative_is_l0_action(self):
        for module in (vacuum_module(), FockModule(Q(1, 3)), toy_module(), log_toy_module()):
            r = q_l0_resolvent(module, 4)
            assert r.qdq("q") == l0_times(module, r)

    def test_toy_log_expansion_matches_hand_computation(self):
        toy = toy_module()
        r = q_l0_resolvent(toy, 2)
        ident = QMat.identity(2)
        nil = QMat.from_rows([[0, 1], [0, 0]])
        assert r.coefficient({"q": 0}, {"q": 0}) == ident
        assert r.coefficient({"q": 0}, {"q": 1}) == nil

    def test_toy_module_rejects_non_square_block(self):
        for block in (QMat(2, 3), QMat(3, 2), QMat(3, 3)):
            with pytest.raises(ValueError, match="shape mismatch"):
                NilpotentToyModule([1, 2], [QMat(1, 1), block])


class TestSew:
    def test_vacuum_character_is_partition_series(self):
        m = vacuum_module()
        block = SewingBlock.pairing(m, 10)
        s = sew(block, {}, m, 10, normalized=True)
        for n in range(11):
            assert s.coefficient({"q": n}) == euler_partition_count(n)

    def test_momentum_module_shifts_by_offset(self):
        lam = Q(1, 3)
        f = FockModule(lam)
        block = SewingBlock.pairing(f, 6)
        s = sew(block, {}, f, 6)
        assert s.offset == (lam * lam / 2,)
        norm = sew(block, {}, f, 6, normalized=True)
        assert [s.coefficient({"q": n}) for n in range(7)] == [
            norm.coefficient({"q": n}) for n in range(7)
        ]

    def test_weight_blocks_sum_to_the_pairing(self):
        # blocks above the order, and the parts of the slots past it, never contribute
        for module in (vacuum_module(), FockModule(Q(-5, 3)), log_toy_module()):
            for normalized in (False, True):
                whole = sew(SewingBlock.pairing(module, 5), {}, module, 5, normalized=normalized)
                parts = [sew(SewingBlock.pairing(module, 8, weight=w), {}, module, 5, normalized=normalized) for w in range(9)]
                assert all(p.is_zero() for p in parts[6:])
                total = parts[0]
                for p in parts[1:]:
                    total = total + p
                assert total == whole

    def test_order_zero_is_top_projection(self):
        m = vacuum_module()
        block = SewingBlock.pairing(m, 5)
        s = sew(block, {}, m, 0, normalized=True)
        assert s.coefficient({"q": 0}) == 1

    def test_linearity_in_block_and_inputs(self):
        m = vacuum_module()
        rnd = random.Random(SEED)
        dims = m.weight_dims(3)
        total = sum(dims)
        # 3-slot block: one retained slot plus the sewing pair
        def rand_block():
            table = {}
            for _ in range(12):
                table[(rnd.randrange(total), rnd.randrange(total), rnd.randrange(total))] = random_rational(rnd)
            return SewingBlock([dims, dims, dims], table, pair_slots=(1, 2))

        b1, b2 = rand_block(), rand_block()
        merged = SewingBlock(
            [dims, dims, dims],
            {k: b1.table.get(k, Q(0)) + b2.table.get(k, Q(0)) for k in set(b1.table) | set(b2.table)},
            pair_slots=(1, 2),
        )
        w = QVec(total, {rnd.randrange(total): random_rational(rnd) for _ in range(4)})
        s1 = sew(b1, {0: w}, m, 3)
        s2 = sew(b2, {0: w}, m, 3)
        s12 = sew(merged, {0: w}, m, 3)
        assert s12 == s1 + s2
        w2 = QVec(total, {rnd.randrange(total): random_rational(rnd) for _ in range(4)})
        sw = sew(b1, {0: w + w2}, m, 3)
        assert sw == s1 + sew(b1, {0: w2}, m, 3)

    def test_semisimple_coefficient_is_blockwise_pairing(self):
        m = vacuum_module()
        block = SewingBlock.pairing(m, 4)
        s = sew(block, {}, m, 4, normalized=True)
        dims = m.weight_dims(4)
        for n in range(5):
            start = sum(dims[:n])
            want = sum((block.table.get((start + a, start + a), Q(0)) for a in range(dims[n])), Q(0))
            assert s.coefficient({"q": n}) == want

    def test_truncation_shortfall_reports_requirement(self):
        m = vacuum_module()
        block = SewingBlock.pairing(m, 3)
        with pytest.raises(TruncationShortfall) as e:
            sew(block, {}, m, 7)
        assert e.value.required == 7

    def test_toy_module_log_terms(self):
        toy = toy_module()
        block = SewingBlock.pairing(toy, 2)
        s = sew(block, {}, toy, 1)
        assert s.offset == (Q(2, 5),)
        assert s.coefficient({"q": 0}, {"q": 0}) == 2  # trace of the identity block
        assert s.coefficient({"q": 0}, {"q": 1}) == 0  # the nilpotent is traceless
        # an off-diagonal functional sees the log slot
        table = {(0, 1): Q(1)}
        block2 = SewingBlock([toy.weight_dims(1), toy.weight_dims(1)], table, pair_slots=(0, 1))
        s2 = sew(block2, {}, toy, 1)
        assert s2.coefficient({"q": 0}, {"q": 1}) == 1

    def test_normalized_vs_standard_differ_by_offset_only_when_semisimple(self):
        lam = Q(2, 7)
        f = FockModule(lam)
        block = SewingBlock.pairing(f, 5)
        std = sew(block, {}, f, 5)
        norm = sew(block, {}, f, 5, normalized=True)
        shifted = TruncSeries(
            ("q",), {"q": 5}, offset={"q": lam * lam / 2}, terms=dict(norm.terms)
        )
        assert std == shifted


class TestSewMulti:
    def test_tensor_of_pairings_gives_product_characters(self):
        m = vacuum_module()
        f = FockModule(Q(1, 2))
        b1 = SewingBlock.pairing(m, 5)
        b2 = SewingBlock.pairing(f, 5)
        both = b1.tensor(b2)
        out = sew_multi(both, {}, [(0, 1, m), (2, 3, f)], [5, 5])
        assert out.offset == (Q(0), Q(1, 8))
        for n1 in range(6):
            for n2 in range(6):
                want = Q(euler_partition_count(n1) * euler_partition_count(n2))
                assert out.coefficient({"q1": n1, "q2": n2}) == want

    def test_multi_matches_iterated_single_on_pairing(self):
        m = vacuum_module()
        block = SewingBlock.pairing(m, 4)
        single = sew(block, {}, m, 4, normalized=False)
        multi = sew_multi(block, {}, [(0, 1, m)], [4], var_names=["q"])
        assert single == multi

    def test_mismatched_module_dims_raise_like_sew(self):
        # sew_multi used to contract against the wrong blocks and return {0: 2, 1: 1, 2: 3}
        block = SewingBlock.pairing(vacuum_module(), 4)
        toy = NilpotentToyModule([2, 1, 3], [QMat(2, 2), QMat(1, 1), QMat(3, 3)])
        with pytest.raises(ValueError) as single:
            sew(block, {}, toy, 2)
        with pytest.raises(ValueError) as multi:
            sew_multi(block, {}, [(0, 1, toy)], [2])
        assert str(multi.value) == str(single.value)

    def test_orders_must_match_pairs(self):
        m = vacuum_module()
        both = SewingBlock.pairing(m, 3).tensor(SewingBlock.pairing(m, 3))
        # too few orders used to raise KeyError 'q1', too many were dropped by zip
        for orders in ([3], [3, 3, 3]):
            with pytest.raises(ValueError):
                sew_multi(both, {}, [(0, 1, m), (2, 3, m)], orders)


    def test_retained_input_must_fill_its_slot(self):
        # a short vector read as zeros past its end: sew used to return an empty series
        m = vacuum_module()
        d = [1, 1, 2]
        block = SewingBlock([d, d, d], {(0, 0, 3): 1}, (0, 1))
        short, full = QVec.from_list([1]), QVec.from_list([0, 0, 0, 1])
        for vec in (short, QVec.from_list([0, 0, 0, 1, 0])):
            with pytest.raises(ValueError):
                sew(block, {2: vec}, m, 2)
            with pytest.raises(ValueError):
                sew_multi(block, {2: vec}, [(0, 1, m)], [2])
        assert sew(block, {2: full}, m, 2) == TruncSeries.constant(1, ("q",), {"q": 2})


class TestSewAgainstReference:
    """sew and sew_multi against the per-(n, l), per-entry Fraction contraction."""

    MODULES = (vacuum_module(), FockModule(Q(-5, 3)), log_toy_module())

    def test_single_pair(self):
        rnd = random.Random(SEED)
        for module in self.MODULES:
            for n_side in (0, 1, 2):
                for order in range(5 if module.log_bound == 0 else 4):
                    block, ((pm, pd),), inputs = random_sew_case(rnd, [module], order + 1, n_side, 40)
                    qin = {s: QVec.from_list(v) for s, v in inputs.items()}
                    ref = reference_pair(pm, pd, module, order)
                    for normalized in (False, True):
                        bound = 0 if normalized else module.log_bound
                        s = sew(block, qin, module, order, normalized=normalized)
                        assert s.terms == fraction_sew(block.table, [ref], inputs, [order], [bound])
                        assert s.offset == (Q(0) if normalized else module.offset,)
                        assert s.logmax == (bound,)
                    multi = sew_multi(block, qin, [(pm, pd, module)], [order], var_names=["q"])
                    assert multi == sew(block, qin, module, order)

    def test_log_terms_reach_second_power(self):
        toy = log_toy_module()
        assert toy.log_bound == 2
        pairing = SewingBlock.pairing(toy, 3)
        # corner of the weight-2 block, under N^2
        block = SewingBlock(pairing.slot_dims, {**pairing.table, (3, 5): Q(1)}, pairing.pair_slots)
        s = sew(block, {}, toy, 3)
        assert s.coefficient({"q": 2}, {"q": 2}) == Q(2, 3) * Q(-5, 4) / 2

    def test_two_pairs(self):
        rnd = random.Random(SEED + 1)
        for mods in ((log_toy_module(), FockModule(Q(-5, 3))), (vacuum_module(), log_toy_module())):
            for n_side in (0, 1, 2):
                for orders in ((0, 2), (2, 1), (3, 3)):
                    block, pairs, inputs = random_sew_case(rnd, list(mods), max(orders) + 1, n_side, 60)
                    qin = {s: QVec.from_list(v) for s, v in inputs.items()}
                    refs = [reference_pair(pm, pd, m, o) for (pm, pd), m, o in zip(pairs, mods, orders)]
                    out = sew_multi(block, qin, [(pm, pd, m) for (pm, pd), m in zip(pairs, mods)], list(orders))
                    want = fraction_sew(block.table, refs, inputs, orders, [m.log_bound for m in mods])
                    assert out.terms == want
                    assert out.offset == tuple(m.offset for m in mods)


def cancelling_rational(rnd):
    """A small signed rational from few values, so that sums often cancel."""
    return rnd.choice([Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(5, 997)])


def random_block(rnd):
    slot_dims = [[rnd.randint(1, 2) for _ in range(rnd.randint(1, 3))] for _ in range(rnd.randint(1, 3))]
    table = {}
    for _ in range(rnd.randint(0, 12)):
        table[tuple(rnd.randrange(sum(d)) for d in slot_dims)] = cancelling_rational(rnd)
    return SewingBlock(slot_dims, table)


class TestBlockKernels:
    """contract_slot and tensor against the Fraction loops they replaced."""

    @staticmethod
    def fraction_contract_slot(table, s, mat):
        out = {}
        rows = mat.rows
        for key, c in table.items():
            for j, v in rows.get(key[s], {}).items():
                nk = key[:s] + (j,) + key[s + 1 :]
                w = out.get(nk, Q(0)) + c * v
                if w:
                    out[nk] = w
                else:
                    out.pop(nk, None)
        return out

    def test_contract_slot_matches_fraction_loop(self):
        rnd = random.Random(SEED + 20)
        cancelled = 0
        for _ in range(300):
            block = random_block(rnd)
            s = rnd.randrange(block.arity)
            dim = block.slot_dim(s)
            ncols = rnd.randint(1, 4)
            rows = {i: {j: cancelling_rational(rnd) for j in range(ncols) if rnd.random() < 0.5} for i in range(dim)}
            mat = QMat(dim, ncols, {i: r for i, r in rows.items() if rnd.random() < 0.8})
            got = block.contract_slot(s, mat)
            want = self.fraction_contract_slot(block.table, s, mat)
            assert got.table == want and got.slot_dims == block.slot_dims
            assert all(type(v) is Fraction for v in got.table.values())
            assert all(type(x) is int and x for x in got.nums.values())
            cancelled += len(got.table) < len({k[:s] + (j,) + k[s + 1 :] for k in block.table for j in mat.nums.get(k[s], {})})
        assert cancelled >= 5

    def test_tensor_matches_fraction_loop(self):
        rnd = random.Random(SEED + 21)
        for _ in range(200):
            b1, b2 = random_block(rnd), random_block(rnd)
            got = b1.tensor(b2)
            assert got.table == {k1 + k2: v1 * v2 for k1, v1 in b1.table.items() for k2, v2 in b2.table.items()}
            assert got.slot_dims == b1.slot_dims + b2.slot_dims and got.pair_slots is None
            assert all(type(v) is Fraction for v in got.table.values())
            assert all(type(x) is int and x for x in got.nums.values())

    def test_diagonal_of_product_matches_full_product(self):
        rnd = random.Random(SEED + 22)
        for _ in range(60):
            ta, tb = {"xi": rnd.randint(0, 4), "pi": rnd.randint(0, 4)}, {"xi": rnd.randint(0, 4), "pi": rnd.randint(0, 4)}
            a = TruncSeries(("xi", "pi"), ta)
            b = TruncSeries(("xi", "pi"), tb)
            for _ in range(rnd.randint(0, 8)):
                exps = (rnd.randint(0, ta["xi"]), rnd.randint(0, ta["pi"]))
                a._store(exps, (0, 0), QMat(3, 3, {rnd.randrange(3): {rnd.randrange(3): cancelling_rational(rnd)}}))
            for _ in range(rnd.randint(0, 8)):
                b._store((rnd.randint(0, tb["xi"]), rnd.randint(0, tb["pi"])), (0, 0), cancelling_rational(rnd))
            full = a * b
            diag = _diagonal_of_product(a, b)
            assert diag.trunc == full.trunc
            assert diag.terms == {k: v for k, v in full.terms.items() if k[0][0] == k[0][1]}
            assert diagonal_contract(diag) == diagonal_contract(full)


def over_997(rnd):
    return Q(rnd.choice([-1, 1]) * rnd.randint(1, 996), 997)


def block_997(rnd, module, top, side_dims=None):
    """A pairing-shaped block of ``module`` to weight ``top`` with entries over
    997 inside its weight blocks, and a retained slot of ``side_dims`` if given."""
    dims = module.weight_dims(top)
    table = {}
    for n, d in enumerate(dims):
        start = sum(dims[:n])
        for _ in range(2 * d):
            key = (start + rnd.randrange(d), start + rnd.randrange(d))
            table[key + ((rnd.randrange(sum(side_dims)),) if side_dims else ())] = over_997(rnd)
    return SewingBlock([dims, dims] + ([side_dims] if side_dims else []), table, (0, 1))


class TestIntegerEngine:
    """Integer tables handed from tensor to contract_slot to sew_multi, against
    the Fraction loops on data over 997, so that a dropped denominator shows."""

    def test_chain_matches_fraction_reference(self):
        rnd = random.Random(SEED + 30)
        toy, fock = log_toy_module(), FockModule(Q(-5, 3))
        top = 3
        for _ in range(3):
            b1, b2 = block_997(rnd, toy, top), block_997(rnd, fock, top, [1, 2])
            # slots: the toy pair 0, 1; the Fock pair 2, 3; one retained slot 4
            both = b1.tensor(b2)
            want = {k1 + k2: v1 * v2 for k1, v1 in b1.table.items() for k2, v2 in b2.table.items()}
            assert both.table == want
            dim = both.slot_dim(3)
            mat = QMat(dim, dim, {i: {j: over_997(rnd) for j in range(dim) if rnd.random() < 0.3} for i in range(dim)})
            chained = both.contract_slot(3, mat)
            want = TestBlockKernels.fraction_contract_slot(want, 3, mat)
            assert chained.table == want
            side = [over_997(rnd) for _ in range(3)]
            refs = [reference_pair(0, 1, toy, top), reference_pair(2, 3, fock, top)]
            dens = []
            for orders in ((top, top), (1, 2), (2, 1)):
                out = sew_multi(chained, {4: QVec.from_list(side)}, [(0, 1, toy), (2, 3, fock)], list(orders))
                assert out.terms == fraction_sew(want, refs, {4: side}, orders, [toy.log_bound, fock.log_bound])
                dens += [v.denominator for v in out.terms.values()]
            assert any(d % 997 == 0 for d in dens)
            for part, den in _contract_pair(chained.nums, chained.den, toy.weight_dims(top), toy, toy.log_bound).values():
                assert part and all(type(x) is int and x for x in part.values()) and den % chained.den == 0

    def test_contract_pair_leaves_out_cancelled_sums(self):
        # diagonal entries of one weight block with opposite values cancel at l = 0:
        # rest (5,) in the weight-0 block, and all of (n, l) = (2, 0); no entry
        # sits where N_0 or N_2 reads, so no l >= 1 term is made
        toy = log_toy_module()
        nums = {(0, 0, 5): 3, (1, 1, 5): -3, (0, 0, 6): 2, (3, 3, 1): 1, (4, 4, 1): -1}
        assert _contract_pair(nums, 7, toy.weight_dims(2), toy, toy.log_bound) == {(0, 0): ({(6,): 2}, 7)}

    def test_table_view_refuses_writes(self):
        # the rational view is read-only: a write raises instead of being lost
        block = SewingBlock([[1, 1]], {(0,): Q(1, 3), (1,): Q(2, 3)})
        with pytest.raises(TypeError):
            block.table[(0,)] = Q(5)
        with pytest.raises(TypeError):
            del block.table[(1,)]
        assert block.table == {(0,): Q(1, 3), (1,): Q(2, 3)}
        assert (block.nums, block.den) == ({(0,): 1, (1,): 2}, 3)


class TestResidueIdentity:
    def test_vacuum_trivial(self):
        m = vacuum_module()
        f = TruncSeries.constant(1, ("x", "y"), {"x": 5, "y": 5})
        ok, order, _ = residue_identity_check(VACUUM, f, m, 5)
        assert ok and order == 5

    def test_conformal_with_unit_f_gives_l0_resolvent(self):
        m = vacuum_module()
        f = TruncSeries.constant(1, ("x", "y"), {"x": 6, "y": 6})
        ok, _o, series = residue_identity_check(CONFORMAL, f, m, 5)
        assert ok
        assert series == q_l0_resolvent(m, 5).qdq("q")

    def test_momentum_module_offset_carried(self):
        f = FockModule(Q(1, 2))
        fser = TruncSeries.constant(1, ("x", "y"), {"x": 4, "y": 4})
        ok, _o, series = residue_identity_check(CONFORMAL, fser, f, 4)
        assert ok
        assert series.offset == (Q(1, 8),)

    def test_f_known_below_order_is_a_shortfall(self):
        # the q^n coefficient reads f up to bidegree (n, n): f known to (1, 1) cannot give q^5
        m = vacuum_module()
        for trunc in ({"x": 1, "y": 1}, {"x": 5, "y": 4}, {"x": 4, "y": 6}):
            f = TruncSeries.constant(1, ("x", "y"), trunc)
            with pytest.raises(TruncationShortfall) as e:
                residue_identity_check(CONFORMAL, f, m, 5)
            assert e.value.required == 5
        ok, _o, series = residue_identity_check(CONFORMAL, TruncSeries.constant(1, ("x", "y"), {"x": 5, "y": 7}), m, 5)
        assert ok and series == q_l0_resolvent(m, 5).qdq("q")

    def test_boson_with_monomials(self):
        m = vacuum_module()
        fxp = TruncSeries.monomial(1, ("x", "y"), {"x": 6, "y": 6}, {"x": 1, "y": 1})
        ok, _, _ = residue_identity_check(BOSON, fxp, m, 6)
        assert ok

    def test_weight_three_spanning_bidegree_two(self):
        m = vacuum_module()
        for u in ({(3,): Q(1)}, {(2, 1): Q(1)}, {(1, 1, 1): Q(1)}):
            for a in (0, 2):
                for b in (1, 2):
                    f = TruncSeries.monomial(1, ("x", "y"), {"x": 4, "y": 4}, {"x": a, "y": b})
                    ok, _, _ = residue_identity_check(u, f, m, 4)
                    assert ok, (u, a, b)


def test_binomial_jet_against_closed_form():
    for z0 in (Q(1), Q(-2, 3), Q(3)):
        for k in range(-3, 4):
            for work in range(1, 7):
                got = _binomial_jet(z0, k, work, "s")
                want = closed_form_binomial_jet(z0, k, work, "s")
                assert (got.coeffs, got.lo, got.hi, got.var) == (want.coeffs, want.lo, want.hi, "s"), (z0, k, work)
    got = _binomial_jet(Q(0), -2, 3, "s")
    assert (got.coeffs, got.lo, got.hi) == ({-2: 1}, -2, None)


class TestGenus0Invariance:
    def setup_method(self):
        self.m = vacuum_module()
        self.n = 11
        self.block = SewingBlock.pairing(self.m, self.n)
        self.points = [
            SpherePoint(Q(0), CoordJet.identity(), self.m, dual=False),
            SpherePoint(INFINITY, CoordJet.identity(), self.m, dual=True),
        ]

    def test_conformal_vector_reduces_to_transpose_rule(self):
        for k in range(-2, 3):
            ok, fails = genus0_invariance_check(self.block, self.points, CONFORMAL, k, 5)
            assert ok, (k, fails[:2])

    def test_vacuum_constant_residues(self):
        for k in (-1, 0, 1):
            ok, fails = genus0_invariance_check(self.block, self.points, VACUUM, k, 5)
            assert ok, (k, fails[:2])

    def test_boson_weight_six(self):
        for k in range(-2, 3):
            ok, fails = genus0_invariance_check(self.block, self.points, BOSON, k, 6)
            assert ok, (k, fails[:2])

    def test_broken_block_detected(self):
        bad = SewingBlock(
            [list(d) for d in self.block.slot_dims],
            {**self.block.table, (0, 1): Q(1)},
            self.block.pair_slots,
        )
        ok, fails = genus0_invariance_check(bad, self.points, BOSON, 1, 3)
        assert not ok and fails

    def test_inhomogeneous_state_rejected(self):
        # the working order was computed from the weight before the check: a TypeError
        block = SewingBlock.pairing(self.m, 8)
        with pytest.raises(ValueError, match="v must be homogeneous"):
            genus0_invariance_check(block, self.points, {(1,): Q(1), (2,): Q(1)}, 0, 2)

    def test_twisted_coordinates(self):
        r1 = CoordJet.from_poly([1, 1])
        r2 = CoordJet.from_poly([2, 0, 1])
        u1 = u_matrix_inverse(r1, self.m, self.n)
        u2 = u_matrix_dual(reverse_jet(r2.truncate(self.n + 1), self.n + 1), self.m, self.n)
        tblock = self.block.contract_slot(0, u1).contract_slot(1, u2)
        tpoints = [
            SpherePoint(Q(0), r1, self.m, dual=False),
            SpherePoint(INFINITY, r2, self.m, dual=True),
        ]
        for v in (BOSON, CONFORMAL):
            for k in (-1, 0, 1):
                ok, fails = genus0_invariance_check(tblock, tpoints, v, k, 3)
                assert ok, (v, k, fails[:2])

    @staticmethod
    def full_then_filter(block, points, v, k, weight_cap):
        """Reference: act on every slot of the whole block, then drop the
        keys that have an index above the weight cap."""
        dv = weight(next(iter(v)))
        work = weight_cap + abs(k) + dv + 6
        tables = []
        for s, pt in enumerate(points):
            n_slot = block.slot_trunc(s)
            mode = pt.module.contragredient_matrix if pt.dual else pt.module.vertex_matrix
            act = QMat(block.slot_dim(s), block.slot_dim(s))
            for mu_u, jet in expand_section_at_point(v, k, pt, work).items():
                if jet.valuation() is None:
                    continue
                for e in range(jet.valuation(), weight(mu_u) + weight_cap):
                    if jet.coeff(e):
                        act = act + mode({mu_u: Q(1)}, e, n_slot, n_slot).scale(jet.coeff(e))
            tables.append(TestBlockKernels.fraction_contract_slot(block.table, s, act))
        weights = [[w for w, d in enumerate(dims) for _ in range(d)] for dims in block.slot_dims]
        failures = []
        for key in sorted(set().union(*tables)):
            if any(weights[s][idx] > weight_cap for s, idx in enumerate(key)):
                continue
            total = sum((t.get(key, Q(0)) for t in tables), Q(0))
            if total:
                failures.append((key, total))
        return not failures, failures

    def test_restricted_check_matches_full_contraction(self):
        n, cap = 8, 3
        block = SewingBlock.pairing(self.m, n)
        broken = SewingBlock(block.slot_dims, {**block.table, (0, 1): Q(1)}, block.pair_slots)
        rnd = random.Random(SEED + 1)
        noisy_table = dict(block.table)
        for _ in range(40):
            # entries on both sides of the cap, in both slots
            noisy_table[(rnd.randrange(block.slot_dim(0)), rnd.randrange(block.slot_dim(1)))] = random_rational(rnd)
        noisy = SewingBlock(block.slot_dims, noisy_table, block.pair_slots)
        r1, r2 = CoordJet.from_poly([1, 1]), CoordJet.from_poly([2, 0, 1])
        twisted = [
            SpherePoint(Q(0), r1, self.m, dual=False),
            SpherePoint(INFINITY, r2, self.m, dual=True),
        ]
        cases = [
            (block, self.points, CONFORMAL, -1),
            (broken, self.points, BOSON, 1),
            (noisy, self.points, BOSON, 0),
            (noisy, twisted, CONFORMAL, 1),
        ]
        failing = 0
        for blk, pts, v, k in cases:
            got = genus0_invariance_check(blk, pts, v, k, cap)
            assert got == self.full_then_filter(blk, pts, v, k, cap), (v, k)
            failing += not got[0]
        assert failing >= 2

    def test_failures_match_fraction_sum_over_997(self):
        rnd = random.Random(SEED + 32)
        n, cap = 6, 3
        block = SewingBlock.pairing(self.m, n)
        table, low = dict(block.table), sum(self.m.weight_dims(cap))
        for _ in range(30):
            # inputs of weight <= cap, in both slots, so that the check reads them
            table[(rnd.randrange(low), rnd.randrange(low))] = over_997(rnd)
        noisy = SewingBlock(block.slot_dims, table, block.pair_slots)
        for v, k in ((BOSON, 1), (CONFORMAL, 1), (CONFORMAL, -1)):
            got = genus0_invariance_check(noisy, self.points, v, k, cap)
            assert got == self.full_then_filter(noisy, self.points, v, k, cap) and not got[0]
            assert all(type(total) is Fraction and total for _key, total in got[1])
            assert any(total.denominator % 997 == 0 for _key, total in got[1])

    def test_restricted_action_matches_full_then_submatrix(self):
        # the check asks for each mode with source truncation min(cap, n_slot)
        m, n = FockModule(Q(0)), 5
        for cap in (2, 5, 7):
            src = min(cap, n)
            for mode in (m.vertex_matrix, m.contragredient_matrix):
                for v in (VACUUM, BOSON, CONFORMAL, {(2,): Q(1)}):
                    for e in range(-3, 4):
                        full = mode(v, e, n, n)
                        assert mode(v, e, src, n) == submatrix(full, (0, full.nrows), (0, m.dim(src))), (cap, v, e)
        # a cap above the slot truncation passes when the action only lowers weights
        block = SewingBlock.pairing(m, 3)
        points = [SpherePoint(Q(1), CoordJet.identity(), m), SpherePoint(Q(2), CoordJet.identity(), m, dual=True)]
        got = genus0_invariance_check(block, points, VACUUM, 0, 4)
        assert got == self.full_then_filter(block, points, VACUUM, 0, 4)

    def test_slot_truncation_shortfall(self):
        small = SewingBlock.pairing(self.m, 3)
        with pytest.raises(TruncationShortfall):
            genus0_invariance_check(small, self.points, CONFORMAL, -2, 3)
