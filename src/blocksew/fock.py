"""Rank-one free boson: Fock modules over a momentum, mode operators, Virasoro.

The vacuum module (momentum 0) is the vertex algebra we compute in; Fock
modules of rational momentum lambda are its irreducible modules.  Basis
vectors are partitions mu = (mu_1 >= ... >= mu_k > 0), standing for
a_{-mu_1} ... a_{-mu_k} |lambda>, ordered graded-lexicographically so matrix
layouts are deterministic.

Mode actions are computed exactly on vectors (no truncation of
intermediates); matrices between weight truncations are snapshots of the
exact action and record their weight shift, so operator identities hold as
exact matrix identities whenever the target truncation covers the shift.
The image of a basis monomial under a mode is built once, from the integer
current q a_k (q the momentum's denominator), and kept as integers over a
denominator fixed by the mode: q for a_k, 2 q^2 for L_n, q^len(nu) for
Y(nu)_m.

Conventions: [a_m, a_n] = m delta_{m+n,0}, a_0 = lambda, normal ordering puts
creation modes left.  Virasoro operators come from the quadratic Sugawara
expression; the central charge is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Dict, List, Optional, Tuple

from .linalg import QMat, _combine, as_q

Q = Fraction

Partition = Tuple[int, ...]
Vector = Dict[Partition, Fraction]

MAX_VERTEX_WEIGHT = 4


class UnsupportedVertexWeight(ValueError):
    pass


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n as descending tuples, sorted in tuple order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out: List[Partition] = []

    def build(rest: int, maxpart: int, acc: Tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(rest, maxpart), 0, -1):
            build(rest - p, p, acc + (p,))

    build(n, n, ())
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence, without listing the partitions."""
    if n <= 0:
        return int(n == 0)
    total, k = 0, 1
    while (pent := k * (3 * k - 1) // 2) <= n:
        total += (1 if k % 2 else -1) * (partition_count(n - pent) + partition_count(n - pent - k))
        k += 1
    return total


def weight(mu: Partition) -> int:
    return sum(mu)


def vec_weight_max(a: Vector) -> int:
    return max((weight(mu) for mu in a), default=0)


def vec_is_homogeneous(a: Vector) -> Optional[int]:
    ws = {weight(mu) for mu in a}
    if len(ws) > 1:
        return None
    return ws.pop() if ws else 0


VACUUM: Vector = {(): Q(1)}
BOSON: Vector = {(1,): Q(1)}
CONFORMAL: Vector = {(1, 1): Q(1, 2)}


class FockModule:
    """Fock module of the rank-one Heisenberg algebra with momentum lambda.

    The integer grading operator has eigenvalue |mu| on a partition vector;
    the Virasoro zero mode adds the constant lambda^2/2.
    """

    def __init__(self, momentum=0):
        self.momentum = as_q(momentum)
        self.offset = self.momentum * self.momentum / 2
        self._matrix_cache: Dict[tuple, QMat] = {}
        # L_n = Y(a_{-1}^2 |0>)_{n+1} / 2, so each entry of an L_n image is an
        # integer over 2 q^2, q the momentum's denominator
        self._virasoro_den = 2 * self.momentum.denominator ** 2
        # q^len(nu) Y(nu)_m mu as integers, keyed (nu, m, mu); a_k is Y((1,))_k
        self._images: Dict[Tuple[Partition, int, Partition], Dict[Partition, int]] = {}

    # -- basis bookkeeping ---------------------------------------------------

    @staticmethod
    def basis(n_max: int) -> List[Partition]:
        out: List[Partition] = []
        for n in range(n_max + 1):
            out.extend(partitions_of(n))
        return out

    @staticmethod
    def dim(n_max: int) -> int:
        return sum(partition_count(n) for n in range(n_max + 1))

    @staticmethod
    @lru_cache(maxsize=None)
    def _index_table(n_max: int) -> Dict[Partition, int]:
        return {mu: i for i, mu in enumerate(FockModule.basis(n_max))}

    # -- exact mode actions ----------------------------------------------------

    def apply_heisenberg(self, k: int, vec: Vector) -> Vector:
        return self._apply([(partial(self._image, (1,), k), Q(1, self.momentum.denominator))], vec)

    def apply_virasoro(self, n: int, vec: Vector) -> Vector:
        """Sugawara L_n = (1/2) sum_j :a_j a_{n-j}: applied exactly.

        Coefficients may be rationals or ring elements such as LaurentJets."""
        return self._apply([(partial(self._image, (1, 1), n + 1), Q(1, self._virasoro_den))], vec)

    def apply_vertex(self, v: Vector, m: int, vec: Vector) -> Vector:
        """Mode of the vertex operator attached to a vacuum-module vector v.

        Uses the free-field formula: for v = a_{-n_1}...a_{-n_k}|0>, the field
        is the normally ordered product of the derivative currents
        d^{n_i - 1} a(z) / (n_i - 1)!.  v may mix weights; each of its terms
        must have weight at most MAX_VERTEX_WEIGHT.
        """
        return self._apply(self._vertex_terms(v, m), vec)

    @staticmethod
    def _apply(terms, vec: Vector) -> Vector:
        """sum of f c image(mu) over the (image, f) terms and the entries c mu
        of vec.  c may be a rational or a ring element; it is multiplied once
        per image entry x, by the rational f x."""
        out: Vector = {}
        for image, f in terms:
            for mu, c in vec.items():
                for tau, x in image(mu).items():
                    _acc(out, tau, c * (f * x))
        return out

    def _vertex_terms(self, v: Vector, m: int):
        """Y(v)_m as (image, factor) terms: c / q^len(nu) times the integer image of each c nu in v."""
        terms = []
        for nu, c in v.items():
            _check_vertex_weight(weight(nu))
            terms.append((partial(self._image, nu, m), c * Q(1, self.momentum.denominator ** len(nu))))
        return terms

    def _current(self, k: int, vec: Dict[Partition, int]) -> Dict[Partition, int]:
        """q a_k on a vector of integers, q and p the momentum's denominator and
        numerator: a_0 multiplies by p, a_{-k} creates times q, a_k removes times
        q k mult.  Distinct monomials have distinct images, so nothing collides."""
        q, out = self.momentum.denominator, {}
        for mu, c in vec.items():
            if k < 0:
                out[tuple(sorted(mu + (-k,), reverse=True))] = c * q
            elif k == 0:
                if self.momentum:
                    out[mu] = c * self.momentum.numerator
            elif mult := mu.count(k):
                nu = list(mu)
                nu.remove(k)
                out[tuple(nu)] = c * q * k * mult
        return out

    def _virasoro_ints(self, n: int, vec: Dict[Partition, int]) -> Dict[Partition, int]:
        """_virasoro_den L_n on a vector of integers, an integer vector; entries may be zero."""
        out: Dict[Partition, int] = {}
        for mu, c in vec.items():
            for tau, x in self._image((1, 1), n + 1, mu).items():
                out[tau] = out.get(tau, 0) + c * x
        return out

    def _image(self, parts: Partition, m: int, mu: Partition) -> Dict[Partition, int]:
        """q^len(parts) Y(parts)_m mu as integers, built once by _build_image.

        An L_n image is read here too, as Y(a_{-1}^2)_{n+1} = 2 L_n over
        _virasoro_den = 2 q^2."""
        img = self._images.get((parts, m, mu))
        if img is None:
            # stored once complete, so a reader in another thread never sees a partial image
            img = self._images[(parts, m, mu)] = self._build_image(parts, m, mu)
        return img

    def _build_image(self, parts: Partition, m: int, mu: Partition) -> Dict[Partition, int]:
        """q^len(parts) Y(parts)_m mu as integers, from the integer current.

        The sum runs over the j-tuples of sum m + 1 - |parts| whose positive
        entries are parts of mu (the annihilators act first, on mu itself), each
        term the normally ordered product weighted by the integers binom(-j-1, n-1).
        That product is symmetric in the parts, so they are taken in descending
        order and the j's of each run of equal parts do not increase; a term
        then counts the orderings of its j's."""
        ps = sorted(parts, reverse=True)
        k, wmax, acc = len(ps), weight(mu), {}
        # for each i: where the run of ps[i] begins, and how many of it follow i
        runs = [(ps.index(p), ps.index(p) + ps.count(p) - 1 - i) for i, p in enumerate(ps)]

        def rec(i: int, rest: int, coeff: int, js: Tuple[int, ...]) -> None:
            if i == k:
                vec = {mu: coeff} if rest == 0 else {}  # rest != 0 only for the vacuum
                for j in sorted(js, reverse=True):  # annihilation (j >= 0) first
                    vec = self._current(j, vec)
                for tau, x in vec.items():
                    acc[tau] = acc.get(tau, 0) + x
                return
            # the later entries of this run are at most j, the others at most
            # wmax (a positive j is a part of mu), and they sum to rest - j
            first, later = runs[i]
            run, lo = js[first:], -(((k - 1 - i - later) * wmax - rest) // (later + 1))
            hi = min(wmax, run[-1] if run else wmax, rest if i == k - 1 else wmax)
            for j in range(lo, hi + 1):
                if (j <= 0 or j in mu) and (c := _current_coeff(ps[i], j)):
                    # (t-th of its run) / (s-th equal j) each step: a run's weight is
                    # its number of orderings, and every prefix's weight is an integer
                    rec(i + 1, rest - j, coeff * c * (len(run) + 1) // (run.count(j) + 1), js + (j,))

        rec(0, m + 1 - sum(parts), 1, ())
        return {tau: x for tau, x in acc.items() if x}

    # -- matrices ----------------------------------------------------------

    def _mode_matrix(self, key: tuple, shift: int, src_n: int, tgt_n: Optional[int], build) -> QMat:
        """The cached matrix of a mode raising the weight by ``shift``, from
        weights up to src_n to weights up to tgt_n (by default src_n plus the
        rise); ``build(src_n, tgt_n)`` makes it on the first request."""
        if tgt_n is None:
            tgt_n = src_n + max(0, shift)
        key += (src_n, tgt_n)
        if key not in self._matrix_cache:
            self._matrix_cache[key] = build(src_n, tgt_n)
        return self._matrix_cache[key]

    def heisenberg_matrix(self, k: int, src_n: int, tgt_n: Optional[int] = None) -> QMat:
        build = partial(self._snapshot, partial(self._image, (1,), k), -k, self.momentum.denominator)
        return self._mode_matrix(("a", k), -k, src_n, tgt_n, build)

    def virasoro_matrix(self, n: int, src_n: int, tgt_n: Optional[int] = None) -> QMat:
        build = partial(self._snapshot, partial(self._image, (1, 1), n + 1), -n, self._virasoro_den)
        return self._mode_matrix(("L", n), -n, src_n, tgt_n, build)

    def vertex_matrix(self, v: Vector, m: int, src_n: int, tgt_n: Optional[int] = None) -> QMat:
        d = vec_is_homogeneous(v)
        if d is None:
            raise ValueError("vertex modes need a homogeneous vector")
        shift = d - m - 1
        # the terms' images meet over one denominator, which depends on v alone
        terms = self._vertex_terms(v, m)
        image = lambda mu: _combine((img(mu), f) for img, f in terms)[0]
        build = partial(self._snapshot, image, shift, math.lcm(*(f.denominator for _, f in terms)))
        return self._mode_matrix(("Y", _vec_key(v), m), shift, src_n, tgt_n, build)

    def contragredient_matrix(self, v: Vector, m: int, src_n: int, tgt_n: Optional[int] = None) -> QMat:
        """Mode of v on the graded dual, in the dual basis.

        Defined by pairing against the module action twisted by the inversion
        operator e^{zL_1} (-z^{-2})^{L_0}, expanded symbolically; for the
        conformal vector this gives the transpose rule L_n -> L_{-n}^T.
        """
        d = vec_is_homogeneous(v)
        if d is None:
            raise ValueError("contragredient modes need a homogeneous vector")

        def build(src_n: int, tgt_n: int) -> QMat:
            total = QMat(self.dim(tgt_n), self.dim(src_n))
            u = dict(v)
            for j in range(0, d + 1):
                kk = 2 * d - j - m - 2
                if u:
                    # Y_M(u)_kk : M^{<=tgt} -> M^{<=src}; its transpose acts on duals
                    a = self.vertex_matrix(u, kk, tgt_n, src_n)
                    coeff = Q((-1) ** d, math.factorial(j))
                    total = total + a.transpose().scale(coeff)
                u = vacuum_module().apply_virasoro(1, u)
            return total

        return self._mode_matrix(("Yd", _vec_key(v), m), d - m - 1, src_n, tgt_n, build)

    def _snapshot(self, image, shift: int, den: int, src_n: int, tgt_n: int) -> QMat:
        """Matrix of a mode raising the weight by ``shift``, from the images of
        the basis monomials as integers over ``den``; columns whose image lies
        outside [0, tgt_n] are never computed."""
        table = self._index_table(tgt_n)
        rows: Dict[int, Dict[int, int]] = {}
        for cidx, mu in enumerate(self.basis(src_n)):
            if 0 <= weight(mu) + shift <= tgt_n:
                for tau, x in image(mu).items():
                    rows.setdefault(table[tau], {})[cidx] = x
        return QMat._of_ints(self.dim(tgt_n), self.dim(src_n), rows, den)

    # -- sewing interface ----------------------------------------------------

    def weight_dims(self, n_max: int) -> List[int]:
        return [partition_count(n) for n in range(n_max + 1)]

    def nilpotent_block(self, n: int) -> QMat:
        return QMat(partition_count(n), partition_count(n))

    @property
    def log_bound(self) -> int:
        return 0


def _check_vertex_weight(d: int) -> None:
    if d > MAX_VERTEX_WEIGHT:
        raise UnsupportedVertexWeight(f"vertex modes supported up to weight {MAX_VERTEX_WEIGHT}, got {d}")


def _acc(out: Vector, mu: Partition, c: Fraction) -> None:
    w = out.get(mu, 0) + c
    if w:
        out[mu] = w
    else:
        out.pop(mu, None)


def _vec_key(v: Vector):
    return tuple(sorted(v.items()))


@lru_cache(maxsize=None)
def _current_coeff(n: int, j: int) -> int:
    """Mode coefficient binom(-j-1, n-1) of a_j in the current d^{n-1}a/(n-1)!."""
    r = n - 1
    num = 1
    for t in range(r):
        num *= (-j - 1 - t)
    return num // math.factorial(r)


@lru_cache(maxsize=None)
def vacuum_module() -> FockModule:
    return FockModule(0)


class NilpotentToyModule:
    """Hand-declared graded module with a nilpotent part of L_0.

    This is declared data to exercise log-q paths, not a vertex-algebra
    construction: per weight a dimension and a nilpotent matrix, plus a
    rational offset between L_0 and the integer grading.
    """

    def __init__(self, dims: List[int], nilpotents: List[QMat], offset=0):
        if len(dims) != len(nilpotents):
            raise ValueError("dims and nilpotents must align")
        for d, m in zip(dims, nilpotents):
            if (m.nrows, m.ncols) != (d, d):
                raise ValueError("nilpotent block shape mismatch")
        self.dims = list(dims)
        self.nilpotents = list(nilpotents)
        self.offset = as_q(offset)

    def weight_dims(self, n_max: int) -> List[int]:
        if n_max >= len(self.dims):
            return self.dims + [0] * (n_max + 1 - len(self.dims))
        return self.dims[: n_max + 1]

    def nilpotent_block(self, n: int) -> QMat:
        if n < len(self.nilpotents):
            return self.nilpotents[n]
        return QMat(0, 0)

    @property
    def log_bound(self) -> int:
        bound = 0
        for m in self.nilpotents:
            k, power = 0, m
            while not power.is_zero():
                k += 1
                power = power @ m
                if k > m.nrows:
                    raise ValueError("declared nilpotent part is not nilpotent")
            bound = max(bound, k)
        return bound
