"""Contraction of multilinear blocks along a module pairing, in powers of q.

A block is a coefficient table on truncated graded slots; sewing contracts a
designated (module, dual-module) slot pair against the graded resolvent

    q^(offset) * sum_n q^n sum_a  e^(N_n log q) m(n,a) (x) dual m(n,a)

with N_n the nilpotent part of L_0 at weight n.  The engine also provides the
two-sided residue identity that justifies the contraction and a genus-zero
invariance check on the two-pointed sphere with arbitrary coordinate jets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from operator import ge
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .coords import family_jet, gamma_xi, u_apply
from .fock import FockModule, Vector, vacuum_module, vec_is_homogeneous, weight
from .linalg import QMat, QVec, _add_scaled, _combine, _ints, _of_one_den, _over_one_den, as_q
from .series import (
    CoordJet,
    LaurentJet,
    TruncSeries,
    WindowError,
    _accumulate,
    _powers,
    _vmul,
    diagonal_contract,
    jet_compose,
    reverse_jet,
)

Q = Fraction

INFINITY = "inf"


class TruncationShortfall(WindowError):
    def __init__(self, msg: str, required: int):
        super().__init__(msg)
        self.required = required


# ---------------------------------------------------------------------------
# resolvent


def q_l0_resolvent(module, order: int) -> TruncSeries:
    """The series q^L0 applied to the identity element of End(M), blockwise.

    Returns a matrix-valued series: the value at (n, l) is the global matrix
    whose weight-n block is N_n^l / l!, so that q d/dq of the output equals
    L_0 times the output, exactly.  It is the one-pair contraction of the
    identity block {(b, a, b, a): 1}, b and a in one weight block; off the
    diagonal only l >= 1 reads it, so a module without log terms keeps b == a.
    """
    dims = module.weight_dims(order)
    total = sum(dims)
    logbound = module.log_bound
    identity = {}
    for n, d in enumerate(dims):
        start = sum(dims[:n])
        for b in range(start, start + d):
            for a in range(start, start + d) if logbound else (b,):
                identity[b, a, b, a] = 1
    values = {}
    for (n, l), (part, den) in _contract_pair(identity, 1, dims, module, logbound).items():
        rows: Dict[int, Dict[int, int]] = {}
        for (b, a), x in part.items():
            rows.setdefault(b, {})[a] = x
        values[(n,), (l,)] = QMat._of_ints(total, total, rows, den)
    return TruncSeries(("q",), {"q": order}, offset={"q": module.offset}, logmax={"q": logbound}, terms=values)


def l0_times(module, series: TruncSeries) -> TruncSeries:
    """Left action of L_0 = offset + weight + nilpotent part on a matrix-valued
    series whose value at q^n lives in the weight-n block."""
    dims = module.weight_dims(series.trunc[0])
    total = sum(dims)
    lam = module.offset
    values = {}
    for (exps, logs), mat in series.nums.items():
        n = exps[0]
        start = sum(dims[:n])
        nil = module.nilpotent_block(n)
        rows = {start + i: {start + j: x for j, x in row.items()} for i, row in nil.nums.items()}
        values[exps, logs] = mat.scale(lam + n) + QMat._of_ints(total, total, rows, nil.den) @ mat
    return series._like(values, 1)


# ---------------------------------------------------------------------------
# blocks and sewing


class SewingBlock:
    """Multilinear functional as a sparse coefficient table on truncated slots.

    ``slot_dims[s]`` lists the weight-space dimensions of slot s up to its
    truncation; table keys are tuples of global graded indices, one per slot.
    The table is kept as nonzero integer numerators ``nums`` over one
    denominator ``den``, and every kernel hands integers to the next one;
    ``table`` is its rational view.
    """

    def __init__(
        self,
        slot_dims: Sequence[List[int]],
        table: Dict[Tuple[int, ...], Fraction],
        pair_slots: Optional[Tuple[int, int]] = None,
    ):
        self.slot_dims = [list(d) for d in slot_dims]
        self.arity = len(self.slot_dims)
        clean = {tuple(k): q for k, v in table.items() if (q := as_q(v))}
        self.nums, self.den = _ints(clean)
        self.pair_slots = pair_slots

    @classmethod
    def _of_clean(cls, slot_dims, nums: Dict[Tuple[int, ...], int], den: int, pair_slots=None) -> "SewingBlock":
        """Wrap integers that are already clean: tuple keys, nonzero numerators over ``den``."""
        block = cls(slot_dims, {}, pair_slots)
        block.nums, block.den = nums, den
        return block

    @property
    def table(self) -> Mapping[Tuple[int, ...], Fraction]:
        """The coefficients as rationals, built on each read; a write into it raises TypeError."""
        return MappingProxyType(_of_one_den(self.nums, self.den))

    def slot_trunc(self, s: int) -> int:
        return len(self.slot_dims[s]) - 1

    def slot_dim(self, s: int) -> int:
        return sum(self.slot_dims[s])

    @classmethod
    def pairing(cls, module, n_max: int, weight: Optional[int] = None) -> "SewingBlock":
        """Two-slot block pairing a module truncation with its graded dual.

        With ``weight``, only the pairing's weight-``weight`` block, on the
        same slots: the pairing is the sum of these blocks.
        """
        dims = module.weight_dims(n_max)
        indices = range(sum(dims)) if weight is None else range(sum(dims[:weight]), sum(dims[: weight + 1]))
        return cls._of_clean([dims, dims], dict.fromkeys(((i, i) for i in indices), 1), 1, pair_slots=(0, 1))

    def tensor(self, other: "SewingBlock") -> "SewingBlock":
        """The block of both functionals' product, slots of ``self`` first."""
        right = list(other.nums.items())
        nums = {k1 + k2: n1 * n2 for k1, n1 in self.nums.items() for k2, n2 in right}
        return SewingBlock._of_clean(self.slot_dims + other.slot_dims, nums, self.den * other.den, None)

    def contract_slot(self, s: int, mat: QMat) -> "SewingBlock":
        """Precompose slot s with a linear map: new[.., j, ..] = sum_i old[.., i, ..] mat[i, j]."""
        rows, dm = mat.nums, mat.den
        acc: Dict[Tuple[int, ...], int] = {}
        for key, c in self.nums.items():
            row = rows.get(key[s])
            if not row:
                continue
            head, tail = key[:s], key[s + 1 :]
            for j, v in row.items():
                nk = head + (j,) + tail
                acc[nk] = acc.get(nk, 0) + c * v
        nums = {k: x for k, x in acc.items() if x}
        return SewingBlock._of_clean(self.slot_dims, nums, self.den * dm, self.pair_slots)

    def reduce_retained(
        self, inputs: Dict[int, QVec], keep: Sequence[int]
    ) -> Tuple[Dict[Tuple[int, ...], int], int]:
        """Contract every slot outside ``keep`` with its input; keys become the kept indices.

        Each other slot goes through :meth:`contract_slot` with its input as a
        one-column matrix.  Returns the numerators and their denominator.
        With no other slot this only reorders keys, and returns the block's
        own numerators when ``keep`` lists every slot in order: callers only
        read them.
        """
        keep = tuple(keep)
        retained = [s for s in range(self.arity) if s not in keep]
        missing = [s for s in retained if s not in inputs]
        if missing:
            raise ValueError(f"missing inputs for slots {missing}")
        for s in retained:
            if inputs[s].n != self.slot_dim(s):
                # QVec reads zeros past its end, which would drop entries silently
                raise ValueError(f"input for slot {s}: expected a list of {self.slot_dim(s)} rationals")
        block = self
        for s in retained:
            vec = inputs[s]
            column = QMat._of_ints(self.slot_dim(s), 1, {i: {0: x} for i, x in vec.nums.items()}, vec.den)
            block = block.contract_slot(s, column)
        if keep == tuple(range(self.arity)):
            return block.nums, block.den
        return {tuple(key[s] for s in keep): c for key, c in block.nums.items()}, block.den


def _pair_dims(block: SewingBlock, pm: int, pd: int, module, order: int) -> List[int]:
    """The module's weight dimensions up to ``order``, once the pair (pm, pd) is checked to carry them."""
    cover = min(block.slot_trunc(pm), block.slot_trunc(pd))
    if cover < order:
        raise TruncationShortfall(
            f"pair ({pm},{pd}): emitting q^{order} needs weight {order}, block covers {cover}",
            required=order,
        )
    dims = module.weight_dims(order)
    if dims != block.slot_dims[pm][: order + 1] or dims != block.slot_dims[pd][: order + 1]:
        raise ValueError("pair slots do not match the module's weight dimensions")
    return dims


def _contract_pair(
    nums: Dict[Tuple[int, ...], int], den: int, dims: List[int], module, log_bound: int
) -> Dict[Tuple[int, int], Tuple[Dict[Tuple[int, ...], int], int]]:
    """Contract the first two key positions (i_M, i_dual) of a table of
    numerators over ``den`` against q^{L_0}.

    Returns {(n, l): ({rest of key: sum of c * (N_n^l / l!)[b][a]}, its
    denominator)} over the entries whose pair indices b, a both lie in one
    weight-n block of ``dims``; the other entries never contribute and are
    dropped in the one pass over the table; an index's block is found by
    bisecting the block starts, so no per-index map is built.  At l = 0 the
    matrix is the identity, so only b == a is read.  Each (n, l) sums
    integers over den times the one denominator of N_n^l / l!; zero sums,
    and (n, l) with none left, are left out.
    """
    starts = [sum(dims[:n]) for n in range(len(dims))]
    # (n, l) -> rest of key -> numerator over den * dens[n, l]
    sums: Dict[Tuple[int, int], Dict[tuple, int]] = {}
    # (n, l) -> the one denominator of N_n^l / l!; 1 for the identity at l = 0
    dens: Dict[Tuple[int, int], int] = {}
    by_block: Dict[int, list] = {}
    for key, c in nums.items():
        b, a = key[0], key[1]
        # b's block is the last one starting at or below it (n = -1 for a
        # negative b, which the bound test then rejects)
        n = bisect_right(starts, b) - 1
        lo, hi = starts[n], starts[n] + dims[n]
        if not (lo <= b < hi and lo <= a < hi):
            continue
        if b == a:
            acc = sums.setdefault((n, 0), {})
            acc[key[2:]] = acc.get(key[2:], 0) + c
        if log_bound:
            by_block.setdefault(n, []).append((b - starts[n], a - starts[n], key[2:], c))
    for n, entries in by_block.items():
        nil = module.nilpotent_block(n)
        power, fact = nil, 1
        for l in range(1, log_bound + 1):
            if power.is_zero():
                break
            fact *= l
            rows = power.nums
            dens[n, l] = power.den * fact
            acc = sums.setdefault((n, l), {})
            for b, a, rest, c in entries:
                v = rows.get(b, {}).get(a)
                if v:
                    acc[rest] = acc.get(rest, 0) + v * c
            power = nil @ power
    out = {}
    for nl in sorted(sums):
        part = {rest: x for rest, x in sums[nl].items() if x}
        if part:
            out[nl] = part, den * dens.get(nl, 1)
    return out


def sew(
    block: SewingBlock,
    inputs: Dict[int, QVec],
    module,
    order: int,
    normalized: bool = False,
) -> TruncSeries:
    """Contract the sewing pair of a block against q^{L_0} (or q^{wtd L_0}).

    This is :func:`sew_multi` on the one pair, in the variable q.  The
    standard variant carries the module offset and log-q terms from the
    nilpotent part of L_0; the normalized variant uses the integer grading
    and has neither.  Emitting order q^K requires the pair slots to cover
    weight K; a shortfall is an error carrying the minimal required weight.
    """
    if block.pair_slots is None:
        raise ValueError("block has no designated sewing pair")
    out = sew_multi(block, inputs, [(*block.pair_slots, module)], [order], ["q"])
    if not normalized:
        return out
    # no log term feeds l = 0, so the l = 0 terms are the integer-graded contraction
    return out._like({key: x for key, x in out.nums.items() if key[1] == (0,)}, out.den, offset=(Q(0),), logmax=(0,))


def sew_multi(
    block: SewingBlock,
    inputs: Dict[int, QVec],
    pairs: Sequence[Tuple[int, int, object]],
    orders: Sequence[int],
    var_names: Optional[Sequence[str]] = None,
) -> TruncSeries:
    """Iterated single-pair contraction along several pairs, one q per pair.

    ``pairs[j]`` is (module_slot, dual_slot, module); multilinearity makes the
    order of contraction irrelevant, and each pair gets an independent formal
    variable with its own offset and log bound.  Each (n, l) of the
    contraction ends with one numerator over its own denominator; the
    numerators that share a denominator are gathered, and the groups meet
    over the lcm in one stored series.
    """
    m = len(pairs)
    if len(orders) != m:
        raise ValueError(f"{len(orders)} orders for {m} pairs")
    names = list(var_names) if var_names else [f"q{j+1}" for j in range(m)]
    modules = [p[2] for p in pairs]
    dims = [_pair_dims(block, pm, pd, mod, order) for (pm, pd, mod), order in zip(pairs, orders)]
    bounds = [mod.log_bound for mod in modules]
    out = TruncSeries(
        tuple(names),
        dict(zip(names, orders)),
        offset={v: mod.offset for v, mod in zip(names, modules)},
        logmax=dict(zip(names, bounds)),
    )
    # denominator -> {(exps, logs): numerator}
    by_den: Dict[int, Dict[tuple, int]] = {}

    # keys hold the pair indices of pairs j.. in pair order, numerators over den
    def rec(j: int, exps: Tuple[int, ...], logs: Tuple[int, ...], partial: Dict[Tuple[int, ...], int], den: int):
        if j == m:
            by_den.setdefault(den, {})[exps, logs] = partial.get((), 0)
            return
        for (n, l), (part, pden) in _contract_pair(partial, den, dims[j], modules[j], bounds[j]).items():
            rec(j + 1, exps + (n,), logs + (l,), part, pden)

    rec(0, (), (), *block.reduce_retained(inputs, [s for (pm, pd, _) in pairs for s in (pm, pd)]))
    return out._like(*_combine((nums, Q(1, den)) for den, nums in by_den.items()))


# ---------------------------------------------------------------------------
# two-sided residue identity


def _diagonal_of_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """The terms of a * b on the diagonal xi = pi, for plain bivariate a and b.

    Only the pairs of terms that land on the diagonal are multiplied, in the
    order a * b visits them; the window is that of a * b.
    """
    trunc = tuple(map(min, a.trunc, b.trunc))
    top = min(trunc)
    # (i, j) + (k, l) is on the diagonal when l - k = i - j
    by_gap: Dict[int, list] = {}
    for ((k, l), _logs), y in b.nums.items():
        by_gap.setdefault(l - k, []).append((k, y))
    acc: Dict[tuple, object] = {}
    for ((i, j), _logs), x in a.nums.items():
        for k, y in by_gap.get(i - j, ()):
            if i + k <= top:
                _accumulate(acc, ((i + k, i + k), (0, 0)), _vmul(x, y))
    return a._like(acc, a.den * b.den, trunc)


def residue_identity_check(
    u: Vector,
    f: TruncSeries,
    module: FockModule,
    order: int,
) -> Tuple[bool, int, TruncSeries]:
    """Both residue forms of the sewing contraction of Y(u) against f.

    Side one inserts the mode action on the module factor; side two inserts
    the inversion-twisted action on the dual factor.  Both reduce to the
    diagonal contraction of a bivariate matrix-valued series, and must agree
    to the requested q-order.  Returns (equal, order, the common series with
    the module's L_0 offset attached).  The coefficient of q^n reads f up to
    bidegree (n, n), so f must be known to ``order`` in both variables.
    """
    du = vec_is_homogeneous(u)
    if du is None:
        raise ValueError("u must be homogeneous")
    if len(f.vars) != 2 or any(f.offset) or any(f.logmax):
        raise ValueError("f must be a plain bivariate series")
    if min(f.trunc) < order:
        raise TruncationShortfall(f"f is known to {f.trunc}, emitting q^{order} needs {order} in both", required=order)
    total = sum(module.weight_dims(order))
    weights = [weight(mu) for mu in module.basis(order)]

    voa = vacuum_module()
    uprime = u_apply(gamma_xi(1, du + 2), voa, u)
    by_weight: Dict[int, Vector] = {}
    for mu, c in uprime.items():
        by_weight.setdefault(weight(mu), {})[mu] = c
    # side one puts Y(u)_k[i][j] at (i, j) in group (wt i, wt j); side two
    # applies the contragredient modes B of u' to the dual factor of the
    # identity block, (1 x B), which puts B[i][j] at (j, i) in group (wt j, wt i)
    sides = []
    for mode, parts, flip in (
        (module.vertex_matrix, {du: u}, False),
        (module.contragredient_matrix, by_weight, True),
    ):
        mats = [mode(comp, k, order, order) for d, comp in parts.items() for k in range(d - 1 - order, d + order)]
        # every group sums integers over the lcm of the modes' denominators
        den = math.lcm(*(mat.den for mat in mats))
        groups: Dict[Tuple[int, int], Dict[int, Dict[int, int]]] = {}
        for mat in mats:
            mult = den // mat.den
            for i, row in mat.nums.items():
                for j, x in row.items():
                    r, c = (j, i) if flip else (i, j)
                    acc = groups.setdefault((weights[r], weights[c]), {}).setdefault(r, {})
                    acc[c] = acc.get(c, 0) + mult * x
        values = {(key, (0, 0)): QMat._of_ints(total, total, rows, den) for key, rows in groups.items()}
        sides.append(TruncSeries(("xi", "pi"), {"xi": order, "pi": order}, terms=values))

    f2 = f._like({key: x for key, x in f.nums.items() if max(key[0]) <= order}, f.den, (order, order))
    lhs = diagonal_contract(_diagonal_of_product(sides[0], f2))
    rhs = diagonal_contract(_diagonal_of_product(sides[1], f2))
    dressed = lhs._like(lhs.nums, lhs.den, offset=(as_q(module.offset),))
    return lhs == rhs, order, dressed


# ---------------------------------------------------------------------------
# genus-zero invariance on the two-pointed sphere


class SpherePoint(NamedTuple):
    """Marked point on the sphere with a coordinate jet.

    position is a rational number or INFINITY; the local coordinate is
    jet(z - position) at a finite point and jet(1/z) at infinity.  dual=True
    marks slots carrying the graded dual of the module.
    """

    position: Union[Fraction, str]
    jet: CoordJet
    module: FockModule
    dual: bool = False


def _binomial_jet(z0: Fraction, k: int, work: int, var: str) -> LaurentJet:
    """(z0 + t)^k as a t-series; exact for k >= 0, truncated window otherwise."""
    if z0 == 0:
        return LaurentJet.monomial(1, k, var)
    base = LaurentJet._of_ints({0: z0.numerator, 1: z0.denominator}, z0.denominator, 0, None, var)
    return _powers(base)(k) if k >= 0 else _powers(base.truncated(work))(k)


def expand_section_at_point(
    v: Vector, k: int, point: SpherePoint, work: int
) -> Dict[tuple, LaurentJet]:
    """Expansion of the global form v z^k dz in the point's local coordinate.

    Returns, per vacuum-module basis vector, the scalar Laurent coefficient
    series in the local variable of the point.
    """
    voa = vacuum_module()
    var = "s"
    dv = vec_is_homogeneous(v)
    if dv is None:
        raise ValueError("v must be homogeneous")
    if point.position == INFINITY:
        # t = 1/z: transition family is the inversion jet, and
        # z^k dz = -t^{-k-2} dt
        fam = CoordJet(
            [
                LaurentJet._of_ints({m + 1: (-1) ** m}, 1, 0, work, var)
                for m in range(1, dv + 2)
            ],
            exact=False,
        )
        base = u_apply(fam, voa, {mu: LaurentJet.const(c, var=var) for mu, c in v.items()})
        g = LaurentJet.monomial(-1, -k - 2, var)
        cur = {mu: jet * g for mu, jet in base.items()}
    else:
        z0 = as_q(point.position)
        g = _binomial_jet(z0, k, work, var)
        cur = {mu: g.scale(c) for mu, c in v.items()}

    rho = point.jet
    if not (rho.exact and rho.order == 1 and rho.coefficient(1) == 1):
        # transform the trivialization through s = rho(t)
        need = max(dv + 1, 2)
        fam = family_jet(rho, var=var, work_order=work, max_degree=need)
        moved = u_apply(fam, voa, cur)
        rho_lt = rho.to_laurent(var)
        if rho_lt.hi is None:
            rho_lt = rho_lt.truncated(work)
        dinv = rho_lt.derivative().inv()
        tinv = reverse_jet(rho, order=min(rho.order, work) if not rho.exact else work)
        cur = {mu: jet_compose(jet * dinv, tinv) for mu, jet in moved.items()}
    return cur


def genus0_invariance_check(
    block: SewingBlock,
    points: Sequence[SpherePoint],
    v: Vector,
    k: int,
    weight_cap: int,
) -> Tuple[bool, List]:
    """Invariance of a block under the residue action of v z^k dz.

    Sums, over slots, the block evaluated with the section acting on that
    slot, and reports whether everything vanishes on inputs up to the weight
    cap.  Slot truncations must absorb the largest weight raise of the
    action; otherwise a shortfall error names the needed truncation.
    """
    if len(points) != block.arity:
        raise ValueError("one marked point per slot")
    dv = vec_is_homogeneous(v)
    if dv is None:
        raise ValueError("v must be homogeneous")
    work = weight_cap + abs(k) + dv + 6
    # indices below limits[s] are the inputs of weight <= weight_cap in slot s
    limits = [sum(dims[: weight_cap + 1]) for dims in block.slot_dims]
    # only checked keys are computed: a key is checked for slot s when every
    # other slot stays within the weight cap (slot s itself is read whole);
    # one pass counts each key's slots past their limit: none puts it in
    # every slot's table, one in that slot's, more in none
    checked: List[Dict[Tuple[int, ...], int]] = [{} for _ in points]
    for key, c in block.nums.items():
        over = sum(map(ge, key, limits))
        if not over:
            for nums in checked:
                nums[key] = c
        elif over == 1:
            checked[[*map(ge, key, limits)].index(True)][key] = c
    acted_tables: List[SewingBlock] = []
    for s, pt in enumerate(points):
        n_slot = block.slot_trunc(s)
        # only sources of weight <= weight_cap are ever read
        src_n = min(weight_cap, n_slot)
        coeffs = expand_section_at_point(v, k, pt, work)
        # the section's modes on slot s, (matrix, coefficient / matrix denominator)
        modes: List[Tuple[QMat, Fraction]] = []
        shape = (block.slot_dim(s), limits[s])
        for mu_u, jet in coeffs.items():
            du = weight(mu_u)
            val = jet.valuation()
            if val is None:
                continue
            e_lo = val
            # checked keys have sources <= weight_cap; modes above act on nothing checked
            e_hi = du + weight_cap - 1
            if jet.hi is not None and jet.hi < e_hi:
                raise TruncationShortfall(
                    f"slot {s}: window [{jet.lo},{jet.hi}] below mode top {e_hi}",
                    required=e_hi,
                )
            raise_max = du - e_lo - 1
            if weight_cap + raise_max > n_slot:
                raise TruncationShortfall(
                    f"slot {s}: truncation {n_slot} cannot absorb weight raise {raise_max}",
                    required=weight_cap + raise_max,
                )
            for e in range(e_lo, e_hi + 1):
                x = jet.nums.get(e)
                if not x:
                    continue
                if pt.dual:
                    mode = pt.module.contragredient_matrix({mu_u: Q(1)}, e, src_n, n_slot)
                else:
                    mode = pt.module.vertex_matrix({mu_u: Q(1)}, e, src_n, n_slot)
                if (mode.nrows, mode.ncols) != shape:
                    raise ValueError("shape mismatch")
                modes.append((mode, Q(x, jet.den * mode.den)))
        # act = sum of c_e Y(mu_u)_e, summed on integer rows over one denominator
        fs, den = _over_one_den(f for _, f in modes)
        rows: Dict[int, Dict[int, int]] = {}
        for (mode, _), f in zip(modes, fs):
            _add_scaled(rows, mode.nums, f)
        act = QMat._of_ints(*shape, rows, den)
        # the new index of slot s stays within the weight cap: act has limits[s] columns
        acted = SewingBlock._of_clean(block.slot_dims, checked[s], block.den, block.pair_slots)
        acted_tables.append(acted.contract_slot(s, act))

    sums, den = _combine((t.nums, Q(1, t.den)) for t in acted_tables)
    failures = [(key, Q(x, den)) for key, x in sorted(sums.items()) if x]
    return (not failures), failures
