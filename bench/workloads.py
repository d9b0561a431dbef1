"""Seeded request lists for the three benchmark workloads.

Every workload is a fixed list of requests that one client issues in
sequence.  The *shape* of the list (which command, at which size) is a
fixed stratified multiset, so that runs on different seeds do the same
amount of work; the seed picks the contents (coefficients, momenta,
heights, jets) and the order in which the requests are issued.  The program
only ever sees the generated inputs.

A CLI request is ``{"id", "argv", "stdin", "check"}``: ``argv`` follows
``blocksew``, ``stdin`` is the JSON document piped in (or None) and
``check`` tells the oracle what the output must be.  A lib-sweep request is
``{"id", "call", "args", "check"}`` for the API worker in ``libsweep.py``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from oracles import fuchs_solution, partition_number

NONZERO_MOMENTA = ["1/3", "-2/3", "4/3", "-5/3"]


def _rat(rnd: random.Random, height: str) -> str:
    """A non-zero rational of a fixed size class, so that every seed costs alike.

    Exact arithmetic pays for denominators, so each class has one: small is
    +-{1, 2, 4, 5}/3, large is +-(100..996)/997.
    """
    if height == "small":
        num, den = rnd.choice([1, 2, 4, 5]), 3
    else:
        num, den = rnd.randint(100, 996), 997
    return str(Fraction(num if rnd.random() < 0.5 else -num, den))


def _some(rnd, population, share):
    """A fixed share of ``population`` at seeded positions: sparse data whose
    size, and so its cost, is the same for every seed."""
    population = list(population)
    return sorted(rnd.sample(population, round(share * len(population))))


def _momentum(rnd, zero: bool) -> str:
    return "0" if zero else rnd.choice(NONZERO_MOMENTA)


def _jet(rnd, length, height, exact):
    return {"exact": exact, "taylor": [_rat(rnd, height) for _ in range(length)]}


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# -- cli-checks ---------------------------------------------------------------------

HUANG_SLOTS = [("lam-z", 2), ("quadratic", 2), ("mobius", 2)]
CHARACTER_SLOTS = [(30, True), (30, False)]


def _sparse_block(rnd, n_slots, order):
    """A sparse block whose pair (0, 1) covers weight `order`; other slots weight <= 3."""
    pair_dims = [partition_number(n) for n in range(order + 1)]
    side_dims = [partition_number(n) for n in range(4)]
    slots = [pair_dims, pair_dims] + [side_dims] * (n_slots - 2)
    total_pair, total_side = sum(pair_dims), sum(side_dims)
    # a fixed number of distinct entries, a fixed share of them diagonal in the pair
    n_entries = 6 * total_pair
    n_diagonal = round(0.7 * n_entries)
    entries = {}
    while len(entries) < n_entries:
        i = rnd.randrange(total_pair)
        j = i if len(entries) < n_diagonal else rnd.randrange(total_pair)
        idx = (i, j) + tuple(rnd.randrange(total_side) for _ in range(n_slots - 2))
        entries[idx] = _rat(rnd, "small")
    inputs = {}
    for s in range(2, n_slots):
        nonzero = set(_some(rnd, range(total_side), 0.75))
        inputs[str(s)] = [_rat(rnd, "small") if k in nonzero else "0" for k in range(total_side)]
    block = {
        "slots": slots,
        "pair": [0, 1],
        "entries": [{"idx": list(k), "c": c} for k, c in sorted(entries.items())],
    }
    return block, inputs


def cli_checks(rnd):
    reqs = []
    for case, wmax in HUANG_SLOTS:
        lam = _rat(rnd, "small")
        reqs.append(
            {
                "argv": ["coord", "check-huang", "--case", case, f"--lam={lam}", "--wmax", str(wmax)],
                "stdin": None,
                "check": {"kind": "ok", "fields": {"case": case, "checked": sum(partition_number(w) for w in range(wmax + 1)) ** 2}},
            }
        )
    for order in (5, 6):
        reqs.append(
            {
                "argv": ["sew", "residue-check", "--order", str(order), "--wmax", "2", "--bidegree", "2"],
                "stdin": None,
                "check": {"kind": "ok", "fields": {"order": order, "wmax": 2}},
            }
        )
    for cap, (kmin, kmax) in ((5, (-2, 2)), (6, (-1, 1))):
        reqs.append(
            {
                "argv": ["sew", "invariance", "--weight-cap", str(cap), f"--kmin={kmin}", f"--kmax={kmax}"],
                "stdin": None,
                "check": {"kind": "ok", "fields": {"weight_cap": cap, "k": [kmin, kmax]}},
            }
        )
    for trunc, mom in ((7, "1/2"), (7, "0")):
        reqs.append(
            {
                "argv": ["voa", "check-relations", "--trunc", str(trunc), "--range", "2", f"--momentum={mom}"],
                "stdin": None,
                "check": {"kind": "ok", "fields": {"trunc": trunc, "range": 2}},
            }
        )
    for n_slots, order, zero_momentum in ((3, 8, True), (4, 7, False), (3, 9, False)):
        block, inputs = _sparse_block(rnd, n_slots, order)
        mom = _momentum(rnd, zero_momentum)
        doc = {"module": {"type": "fock", "momentum": mom}, "block": block, "inputs": inputs, "order": order}
        reqs.append(
            {
                "argv": ["sew", "run", "-"],
                "stdin": _dumps(doc),
                "check": {"kind": "sew-run", "order": order, "momentum": mom},
            }
        )
    for order, normalized in CHARACTER_SLOTS:
        mom = _momentum(rnd, False)
        reqs.append(
            {
                "argv": ["sew", "character", "--order", str(order), f"--momentum={mom}", "--format", "json"]
                + ([] if normalized else ["--standard"]),
                "stdin": None,
                "check": {"kind": "character", "order": order, "momentum": mom, "normalized": normalized},
            }
        )
    return reqs


# -- cli-jets-ode -----------------------------------------------------------------

FUCHS_SOLVE_SLOTS = [(2, 250, False), (3, 250, True), (4, 160, False), (5, 150, False)]
FUCHS_CERTIFY_SLOTS = [(2, 200), (3, 150), (4, 120)]
FUCHS_RESIDUAL_SLOTS = [(3, 100)]
SD_ORDERS = [60, 90]
COCYCLE_SLOTS = [(3, 8), (2, 10)]
TERM_ORDERS = [20, 24]


def fuchs_system(rnd, dim, resonant, n_coeffs=3):
    """Upper-triangular A_0 with a half-integer diagonal, so no step n - A_0 is singular.

    A resonant system puts eigenvalue 0 in the last row and omega_0 = 0, so
    the n = 0 step has a one-dimensional kernel that a seed fixes and no
    consistency condition can fail.
    """
    diag = [str(Fraction(rnd.choice([-1, 1]) * (2 * rnd.randint(0, 3) + 1), 2)) for _ in range(dim)]
    if resonant:
        diag[-1] = "0"
    a0 = [[diag[i] if i == j else (_rat(rnd, "small") if j > i else "0") for j in range(dim)] for i in range(dim)]
    mats = [a0] + [[[_rat(rnd, "small") for _ in range(dim)] for _ in range(dim)] for _ in range(n_coeffs - 1)]
    omega = [[_rat(rnd, "small") for _ in range(dim)] for _ in range(n_coeffs)]
    if resonant:
        omega[0] = ["0"] * dim
    doc = {"A": mats, "omega": omega}
    if resonant:
        doc["seeds"] = {"0,0": [_rat(rnd, "small")]}
    return doc


def cli_jets_ode(rnd):
    reqs = []
    for count, order in COCYCLE_SLOTS:
        seed = rnd.randrange(10**6)
        reqs.append(
            {
                "argv": ["schwarz", "cocycle", "--seed", str(seed), "--count", str(count), "--order", str(order)],
                "stdin": None,
                "check": {"kind": "ok", "fields": {"count": count, "order": order, "seed": seed}},
            }
        )
    for order in SD_ORDERS:
        jet = _jet(rnd, order + 3, "small", exact=False)
        reqs.append(
            {
                "argv": ["schwarz", "sd", "-", "--order", str(order)],
                "stdin": _dumps(jet),
                "check": {"kind": "schwarzian", "taylor": jet["taylor"], "order": order},
            }
        )
    for order in TERM_ORDERS:
        doc = _term_bundle(rnd, order)
        reqs.append({"argv": ["schwarz", "term", "-"], "stdin": _dumps(doc), "check": {"kind": "term", "order": order}})
    for dim, order, resonant in FUCHS_SOLVE_SLOTS:
        system = fuchs_system(rnd, dim, resonant)
        reqs.append(
            {
                "argv": ["fuchs", "solve", "-", "--order", str(order)],
                "stdin": _dumps(system),
                "check": {"kind": "fuchs-solve", "order": order},
            }
        )
    for dim, order in FUCHS_CERTIFY_SLOTS:
        system = fuchs_system(rnd, dim, False)
        reqs.append(
            {
                "argv": ["fuchs", "certify", "-", "--order", str(order), "--r1", "1/4"],
                "stdin": _dumps(system),
                "check": {"kind": "fuchs-certify", "order": order},
            }
        )
    for dim, order in FUCHS_RESIDUAL_SLOTS:
        system = fuchs_system(rnd, dim, False)
        psi = fuchs_solution(system, order)  # a true solution, from the oracle
        psi_doc = {
            "vars": ["q"],
            "trunc": {"q": order},
            "terms": [{"n": [n], "l": [0], "c": [str(x) for x in v]} for n, v in enumerate(psi) if any(v)],
        }
        reqs.append(
            {
                "argv": ["fuchs", "residual", "-"],
                "stdin": _dumps({"psi": psi_doc, "system": system}),
                "check": {"kind": "ok", "fields": {"residual": "0"}},
            }
        )
    return reqs


def _uni(rnd, var, trunc, offset=0):
    return {
        "vars": [var],
        "offset": {var: str(offset)},
        "trunc": {var: trunc},
        "terms": [{"n": [n], "l": [0], "c": _rat(rnd, "small")} for n in _some(rnd, range(trunc + 1), 0.8)],
    }


def _complement(a_terms, unit, delta):
    """The terms of b = delta - a, where ``unit`` is the key of the constant term."""
    b_terms = {k: str(-Fraction(v)) for k, v in a_terms.items()}
    b_terms[unit] = str(delta - Fraction(a_terms.get(unit, "0")))
    return {k: v for k, v in b_terms.items() if v != "0"}


def _term_bundle(rnd, order):
    """Pair data for ``schwarz term``: a + b = 1 in (xi, pi), one marked point."""
    t = order + 2
    grid = [(m, n) for m in range(t + 1) for n in range(t + 1)]
    a_terms = {k: _rat(rnd, "small") for k in _some(rnd, grid, 0.6)}
    b_terms = _complement(a_terms, (0, 0), 1)

    def biv(terms):
        return {
            "vars": ["xi", "pi"],
            "trunc": {"xi": t, "pi": t},
            "terms": [{"n": list(k), "l": [0, 0], "c": v} for k, v in sorted(terms.items())],
        }

    h = {
        "vars": ["q", "eta"],
        "offset": {"eta": str(-t)},
        "trunc": {"q": t, "eta": 2 * t},
        "terms": [
            {"n": list(k), "l": [0, 0], "c": _rat(rnd, "small")}
            for k in _some(rnd, [(nq, ne) for nq in range(t + 1) for ne in range(t)], 0.3)
        ],
    }
    return {
        "S_xi": _uni(rnd, "xi", t),
        "S_pi": _uni(rnd, "pi", t),
        "S_eta": [_uni(rnd, "eta", t)],
        "a": biv(a_terms),
        "b": biv(b_terms),
        "h": [h],
        "c": _rat(rnd, "small"),
        "order": order,
    }


# -- lib-sweep ---------------------------------------------------------------------------

GROUP_LAW_SLOTS = [(6, "small", True), (7, "small", False), (7, "large", False), (7, "small", True)]
TWISTED_SLOTS = [("boson", -1), ("omega", 0), ("boson", 1), ("omega", -1)]
SEW_MULTI_SLOTS = [(10, 8), (10, 6), (8, 8)]
PTM_ORDERS = [14, 18, 22]


def lib_sweep(rnd):
    reqs = []
    for trunc, height, zero_momentum in GROUP_LAW_SLOTS:
        r1 = _jet(rnd, trunc + 1, height, exact=False)["taylor"]
        r2 = _jet(rnd, trunc + 1, height, exact=False)["taylor"]
        reqs.append(
            {
                "call": "group-law",
                "args": {"r1": r1, "r2": r2, "trunc": trunc, "momentum": _momentum(rnd, zero_momentum)},
                "check": {"kind": "group-law", "trunc": trunc, "a1": r1[0], "b1": r2[0]},
            }
        )
    for state, k in TWISTED_SLOTS:
        # r1 tangent to the identity at 0, r2 without a z^2 term at infinity
        r1 = ["1", _rat(rnd, "small"), _rat(rnd, "small")]
        r2 = [_rat(rnd, "small"), "0", _rat(rnd, "small"), _rat(rnd, "small")]
        reqs.append(
            {
                "call": "twisted-genus0",
                "args": {"r1": r1, "r2": r2, "n": 7, "state": state, "k": k, "weight_cap": 3},
                "check": {"kind": "ok", "fields": {"n_failures": 0}},
            }
        )
    for n1, n2 in SEW_MULTI_SLOTS:
        moms = [_momentum(rnd, False), _momentum(rnd, True)]
        reqs.append(
            {
                "call": "sew-multi",
                "args": {"orders": [n1, n2], "momenta": moms},
                "check": {"kind": "sew-multi", "orders": [n1, n2], "momenta": moms},
            }
        )
    for order in PTM_ORDERS:
        pairs = [_multi_pair(rnd, order, delta=1 if j == 0 else 0) for j in range(2)]
        reqs.append(
            {
                "call": "projective-term-multi",
                "args": {"pairs": pairs, "order": order, "c": _rat(rnd, "small")},
                "check": {"kind": "projective-term-multi", "order": order},
            }
        )
    return reqs


def _multi_pair(rnd, order, delta):
    """(S_xi, S_pi, a, b) of one pair of a two-pair sewing: a, b in (xi, pi, q_other), a + b = delta."""
    t = order + 2
    grid = [(m, n, s) for m in range(t + 1) for n in range(t + 1) for s in range(order + 1)]
    a_terms = {k: _rat(rnd, "small") for k in _some(rnd, grid, 0.15)}
    b_terms = _complement(a_terms, (0, 0, 0), delta)

    def tri(terms):
        return {
            "vars": ["xi", "pi", "s"],
            "trunc": {"xi": t, "pi": t, "s": order},
            "terms": [{"n": list(k), "l": [0, 0, 0], "c": v} for k, v in sorted(terms.items())],
        }

    return {"S_xi": _uni(rnd, "xi", t), "S_pi": _uni(rnd, "pi", t), "a": tri(a_terms), "b": tri(b_terms)}


# name -> generator, in the order BENCHMARK.json lists the workloads
WORKLOADS = {"cli-checks": cli_checks, "cli-jets-ode": cli_jets_ode, "lib-sweep": lib_sweep}


def requests(workload: str, seed: int):
    """The workload's request list for a seed: same seed, same list, byte for byte."""
    rnd = random.Random(f"{workload}/{seed}")
    reqs = WORKLOADS[workload](rnd)
    rnd.shuffle(reqs)
    return [dict(r, id=f"{workload}/{i:02d}") for i, r in enumerate(reqs)]


def request_list_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(requests(workload, seed), sort_keys=True).encode()
