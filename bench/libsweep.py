"""The lib-sweep worker: one long-lived process that calls the public API.

    python bench/libsweep.py REQUESTS_JSON SECONDS MIN_PASSES TRACE SPANS_FILE

Reads the request list, runs one untimed warm-up pass so the module caches
are full, then repeats the list for SECONDS (at least MIN_PASSES times) and
prints one JSON report: the wall and CPU time of every call in every timed
pass (each call is made ``REPEATS`` times in a row and timed at its best),
each request's output from the first timed pass and the sha256 of every
output of every pass.  With TRACE=1 every timed pass is followed by a traced
one with a tracer of its own, and the spans of the traced passes are written
to SPANS_FILE as a list with one entry per pass.

Inputs are built before the clock starts and outputs are serialized after
it stops, so a request's latency is the API call alone.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import marshal
import sys
import time
from fractions import Fraction

import blocksew
from blocksew import coords, jsonio, series, sewing
from blocksew.fock import BOSON, CONFORMAL, FockModule

# the package attribute ``blocksew.schwarzian`` is the re-exported function
schwarzian_mod = importlib.import_module("blocksew.schwarzian")

Q = Fraction
REPEATS = 2
MODULES = {}


def module(momentum: str) -> FockModule:
    """Modules persist across calls, as they would in a user's session."""
    if momentum not in MODULES:
        MODULES[momentum] = FockModule(Q(momentum))
    return MODULES[momentum]


def jet(taylor, exact=False):
    return series.CoordJet([Q(x) for x in taylor], exact=exact)


def prep_group_law(a):
    r1, r2, n, m = jet(a["r1"]), jet(a["r2"]), a["trunc"], module(a.get("momentum", "0"))

    def call():
        u12 = coords.u_matrix(blocksew.compose_jets(r1, r2), m, n)
        return u12, u12 == coords.u_matrix(r1, m, n) @ coords.u_matrix(r2, m, n)

    def out(res):
        u12, ok = res
        return {"ok": ok, "u": jsonio.matrix_to_json(u12, [",".join(map(str, mu)) for mu in m.basis(n)])}

    return call, out


def prep_twisted_genus0(a):
    m, n = module("0"), a["n"]
    r1, r2 = jet(a["r1"], exact=True), jet(a["r2"], exact=True)
    v = {"boson": BOSON, "omega": CONFORMAL}[a["state"]]
    points = [
        sewing.SpherePoint(Q(0), r1, m, dual=False),
        sewing.SpherePoint(sewing.INFINITY, r2, m, dual=True),
    ]

    def call():
        block = sewing.SewingBlock.pairing(m, n)
        u1 = coords.u_matrix_inverse(r1, m, n)
        u2 = coords.u_matrix_dual(series.reverse_jet(r2.truncate(n + 1), n + 1), m, n)
        twisted = block.contract_slot(0, u1).contract_slot(1, u2)
        return sewing.genus0_invariance_check(twisted, points, v, a["k"], a["weight_cap"])

    def out(res):
        ok, fails = res
        return {"ok": ok, "n_failures": len(fails)}

    return call, out


def prep_sew_multi(a):
    (n1, n2), (p1, p2) = a["orders"], a["momenta"]
    m1, m2 = module(p1), module(p2)

    def call():
        both = sewing.SewingBlock.pairing(m1, n1).tensor(sewing.SewingBlock.pairing(m2, n2))
        return sewing.sew_multi(both, {}, [(0, 1, m1), (2, 3, m2)], [n1, n2])

    return call, jsonio.series_to_json


def prep_projective_term_multi(a):
    pairs = [
        tuple(jsonio.series_from_json(p[k], k) for k in ("S_xi", "S_pi", "a", "b"))
        for p in a["pairs"]
    ]
    c, order = Q(a["c"]), a["order"]

    def call():
        return schwarzian_mod.projective_term_multi(pairs, [], [], c, k_index=0, order=order)

    return call, jsonio.series_to_json


PREP = {
    "group-law": prep_group_law,
    "twisted-genus0": prep_twisted_genus0,
    "sew-multi": prep_sew_multi,
    "projective-term-multi": prep_projective_term_multi,
}


def run_pass(reqs, tracer=None, repeats=REPEATS):
    """Time each call at its best of ``repeats``; inputs are built before and
    outputs serialized after the clock, untraced.  Returns the timings and
    each request's output."""
    prepared = [PREP[r["call"]](r["args"]) for r in reqs]
    lat, cpu, results = [], [], []
    if tracer is not None:
        tracer.install(["blocksew.coords", "blocksew.sewing", "blocksew.schwarzian"])
    try:
        for i, (call, _) in enumerate(prepared):
            if tracer is not None:
                tracer.request = i
            best = None
            for _ in range(repeats):
                c0, t0 = time.process_time(), time.perf_counter()
                res = call()
                t = (time.perf_counter() - t0, time.process_time() - c0)
                best = t if best is None or t[0] < best[0] else best
            results.append(res)
            lat.append(best[0])
            cpu.append(best[1])
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs = [json.dumps(out(res), sort_keys=True) for (_, out), res in zip(prepared, results)]
    return {"cpu": cpu, "lat": lat, "sha": [hashlib.sha256(o.encode()).hexdigest() for o in outputs]}, outputs


def main(argv):
    path, seconds, min_passes, trace, spans_path = argv[0], float(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    with open(path, encoding="utf-8") as fh:
        reqs = json.load(fh)
    run_pass(reqs, repeats=1)  # warm-up: fill the modules' caches
    if trace:
        from tracer import Tracer
    passes, traced, spans, outputs = [], [], [], None
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        stats, outs = run_pass(reqs)
        outputs = outputs or dict(zip((r["id"] for r in reqs), outs))
        passes.append(stats)
        if trace:
            # a tracer per pass, so that span parents index this pass's spans
            tracer = Tracer()
            traced.append(run_pass(reqs, tracer)[0])
            spans.append(tracer.data())
    if trace:
        with open(spans_path, "wb") as fh:
            marshal.dump(spans, fh)
    report = {
        "passes": passes,
        "traced": traced,
        "outputs": outputs,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
