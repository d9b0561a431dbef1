"""The blocksew benchmark: one seeded workload, timed end to end, checked.

    python3 bench/run.py --workload cli-checks --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout (the package is used from ``src/``;
nothing is installed).  One client issues the workload's fixed request list
in sequence, a closed loop: each CLI request is a ``blocksew`` process that
ends before the next starts; ``lib-sweep`` makes API calls in one long-lived
worker process.  The list is repeated for ``--seconds`` (and at least
``MIN_PASSES`` times).  Each measured process is started by ``launch.py``,
which reports its wall time, CPU time and max RSS.  Every output is checked
by an oracle that shares no code with the package, after the timed passes.
Known-defect probes run last and are reported by name; they never change
the workloads.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See ``spec.json``
for what each metric means and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
PY = sys.executable
# what the ``blocksew`` console script runs
CLI = [PY, "-c", "import sys; from blocksew.cli import main; sys.exit(main())"]
SETUP_IMPORT = {
    "cli": "import blocksew.cli",
    "lib": "import blocksew, blocksew.coords, blocksew.sewing, blocksew.jsonio, importlib; importlib.import_module('blocksew.schwarzian')",
}
SETUP_REPEATS = 11
MIN_PASSES = 4
MIN_TRACED_PASSES = 2
TAIL_PERCENTILE = 80
REQUEST_TIMEOUT_S = 60
SPEC = os.path.join(HERE, "spec.json")
DIGESTS = os.path.join(HERE, "digests.json")


def log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = SRC + (os.pathsep + e["PYTHONPATH"] if e.get("PYTHONPATH") else "")
    return e


def git_sha() -> str:
    """HEAD of the checkout, if the checkout is the top of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def build() -> None:
    """Byte-compile the package once, as an install would, outside all timing."""
    if not os.path.isfile(os.path.join(SRC, "blocksew", "cli.py")):
        raise SystemExit("bench: no blocksew source under ./src; run from the root of a checkout")
    subprocess.run([PY, "-m", "compileall", "-q", SRC], check=True, stdout=subprocess.DEVNULL)
    subprocess.run([PY, "-c", SETUP_IMPORT["cli"]], check=True, env=env())


def setup_times(kind: str, n: int):
    """Times from process start until the CLI module (or the API) is imported."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", SETUP_IMPORT[kind]], check=True, env=env())
        times.append(time.perf_counter() - t0)
    return times


# -- CLI workloads ----------------------------------------------------------------


class Launcher:
    """The small process that starts every measured process (see launch.py)."""

    def __init__(self):
        argv = [PY, os.path.join(HERE, "launch.py")]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env(), text=True)

    def run(self, argv, stdin: bytes, timeout: float):
        """Run one process: its rc, wall, cpu and maxrss_kb, and its stdout and stderr as out and err."""
        job = {k: os.path.join(WORK, k) for k in ("stdin", "stdout", "stderr")}
        with open(job["stdin"], "wb") as fh:
            fh.write(stdin)
        self.proc.stdin.write(json.dumps(dict(job, argv=argv, timeout=timeout)) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        for key, stream in (("out", "stdout"), ("err", "stderr")):
            with open(job[stream], "rb") as fh:
                res[key] = fh.read()
        return res

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_request(launcher, req, traced: bool, spans_path: str):
    argv = CLI + req["argv"] if not traced else [PY, os.path.join(HERE, "tracer.py"), spans_path, "--"] + req["argv"]
    stdin = req["stdin"].encode() if req["stdin"] is not None else b""
    return launcher.run(argv, stdin, REQUEST_TIMEOUT_S)


def cli_pass(launcher, reqs, traced: bool, tag: int):
    results = []
    for i, r in enumerate(reqs):
        spans_path = os.path.join(WORK, f"spans-{tag}-{i}.marshal")
        results.append(run_request(launcher, r, traced, spans_path))
    return results


def run_cli(launcher, reqs, seconds: float, trace: bool):
    """Every pass is timed; with trace, each untraced pass is followed by a traced one."""
    passes, traced_passes = [], []
    start = time.perf_counter()
    while len(passes) < (MIN_TRACED_PASSES if trace else MIN_PASSES) or time.perf_counter() - start < seconds:
        passes.append(cli_pass(launcher, reqs, False, len(passes)))
        if trace:
            traced_passes.append(cli_pass(launcher, reqs, True, len(traced_passes)))
    return passes, traced_passes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdicts(reqs, first, fingerprints, digests):
    """(attempted, failed, reasons).

    ``first[i]`` is ``(rc, stdout, stderr)`` of request i in the first pass;
    it is checked by the oracles (and, on the default seed, against the
    recorded digest).  ``fingerprints[k][i]`` is ``(rc, sha256 of stdout)``
    of request i in pass k, for every timed and traced pass: each one counts
    as an attempt and fails unless its request passed and it matches the
    first pass byte for byte.
    """
    attempted = failed = 0
    reasons = {}
    for i, r in enumerate(reqs):
        rc, out, err = first[i]
        if rc != 0:
            reason = f"exit {rc}: {err.decode(errors='replace').strip()[-200:]}"
        else:
            reason = checks.check(r, out.decode())
            if reason is None and digests is not None and sha256(out) != digests.get(r["id"]):
                reason = "stdout digest differs from the recorded default-seed digest"
        for p in fingerprints:
            attempted += 1
            bad = reason or (None if p[i] == (rc, sha256(out)) else "output differs between passes")
            if bad:
                failed += 1
                reasons.setdefault(r["id"], bad)
    return attempted, failed, reasons


# -- lib-sweep ------------------------------------------------------------------------


def run_lib(launcher, reqs, seconds: float, trace: bool):
    """The worker's report, its spans file and its max RSS in KB."""
    path = os.path.join(WORK, "requests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reqs, fh)
    spans_path = os.path.join(WORK, "spans-lib.marshal")
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    argv = [PY, os.path.join(HERE, "libsweep.py"), path, str(seconds), str(min_passes), "1" if trace else "0", spans_path]
    res = launcher.run(argv, b"", 150)
    if res["rc"] != 0:
        raise RuntimeError(f"lib-sweep worker failed: {res['err'].decode(errors='replace')[-2000:]}")
    return json.loads(res["out"].decode().splitlines()[-1]), spans_path, res["maxrss_kb"]


# -- metrics ------------------------------------------------------------------------------


def tail(samples, pct):
    """Nearest-rank percentile and the number of samples strictly beyond its rank."""
    s = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1], len(s) - rank


def list_time(per_pass):
    """Time to finish the request list: each request at its best over the passes.

    The work is deterministic, so interference only ever adds time; on a
    shared 2-CPU box it comes in stretches of seconds to minutes that slow
    everything by up to 1.7x.  The best of several passes per request keeps
    out the stretches shorter than a run.
    """
    return sum(min(col) for col in zip(*per_pass))


def end_to_end(setup_s, pass_walls, pass_cpus, peak_kb):
    """``pass_walls[k][i]`` / ``pass_cpus[k][i]``: request i of timed pass k."""
    latencies = [x for p in pass_walls for x in p]
    value, beyond = tail(latencies, TAIL_PERCENTILE)
    log(f"bench: latency_tail_s is p{TAIL_PERCENTILE} of {len(latencies)} pooled samples, {beyond} beyond it")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": list_time(pass_walls), "unit": "s"},
        "cpu_s": {"value": list_time(pass_cpus), "unit": "s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_tail_s": {"value": value, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def load_spans(path):
    """The marshalled spans of one traced process: a dict, or a list of them."""
    with open(path, "rb") as fh:
        data = marshal.load(fh)
    return [(d["names"], d["spans"]) for d in (data if isinstance(data, list) else [data])]


def layer_stats(span_sets):
    """Per traced pass: {metric: calls, self_s, distinct keys, bytes} from raw spans.

    ``span_sets`` is a list of (names, spans), each from one tracer: a CLI
    request process, or one lib-sweep pass.  Span parents index their own
    list.  A span's self time is its duration minus the durations of its
    children; reuse keys are counted per list.
    """
    calls, self_s, keys, total_bytes = {}, {}, {}, 0
    for j, (names, spans) in enumerate(span_sets):
        child = [0.0] * len(spans)
        for tag, parent, t0, t1, extra, req in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (tag, parent, t0, t1, extra, req) in enumerate(spans):
            name = names[tag]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[idx]
            if name in ("fock.snapshot", "coords.extract_c"):
                keys.setdefault(name, set()).add((j, extra))
            if name == "jsonio.emit":
                total_bytes += extra
    return calls, self_s, keys, total_bytes


def per_layer(traced_pass_spans, untraced_walls, traced_walls):
    stats = [layer_stats(s) for s in traced_pass_spans]
    calls, _, keys, total_bytes = stats[0]
    metrics = {}
    for name in tracer.layer_names():
        if "." in name:
            metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": statistics.median(s[1].get(name, 0.0) for s in stats), "unit": "s"}
    for name in ("fock.snapshot", "coords.extract_c"):
        n = calls.get(name, 0)
        metrics[f"{name}.reuse"] = {"value": 1 - len(keys.get(name, ())) / n if n else 0.0, "unit": "ratio"}
    metrics["jsonio.emit.bytes"] = {"value": total_bytes, "unit": "bytes"}
    metrics["trace.overhead"] = {"value": list_time(traced_walls) / list_time(untraced_walls), "unit": "ratio"}
    return metrics


# -- known-defect probes ---------------------------------------------------------------------


def probe_lines():
    """Run each recorded repro; one line per probe says whether the defect is still present."""
    lines = []
    for probe in load_json(SPEC)["probes"]:
        stdin = json.dumps(probe["stdin"]).encode()
        proc = subprocess.run(CLI + probe["argv"], input=stdin, capture_output=True, env=env(), timeout=REQUEST_TIMEOUT_S)
        defect = probe["defect"]
        present = proc.returncode == defect["exit"] and all(
            defect[f"{name}_contains"] in text.decode(errors="replace")
            for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr))
            if f"{name}_contains" in defect
        )
        lines.append(f"probe {probe['name']}: {'present' if present else f'not reproduced (exit {proc.returncode})'}")
    return lines


# -- main -----------------------------------------------------------------------------------


def record_digests(launcher):
    """Write the sha256 of every default-seed request's output to digests.json."""
    out = {}
    for wl in workloads.WORKLOADS:
        reqs = workloads.requests(wl, 0)
        if wl == "lib-sweep":
            report, _, _ = run_lib(launcher, reqs, 0, False)
            outputs = [(r, report["outputs"][r["id"]].encode(), 0) for r in reqs]
        else:
            outputs = [(r, res["out"], res["rc"]) for r in reqs for res in [run_request(launcher, r, False, "")]]
        for r, text, rc in outputs:
            if rc != 0 or checks.check(r, text.decode()):
                raise SystemExit(f"bench: {r['id']} fails its oracle; not recording digests")
            out[r["id"]] = sha256(text)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true", help="rewrite digests.json from seed 0 and exit")
    args = ap.parse_args(argv)
    if not args.record_digests and not args.workload:
        ap.error("--workload is required")
    build()
    os.makedirs(WORK, exist_ok=True)
    # started while this process is still small (see launch.py)
    launcher = Launcher()
    try:
        if args.record_digests:
            record_digests(launcher)
            return 0
        return run(args, launcher)
    finally:
        launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)


def run(args, launcher) -> int:
    wl, trace = args.workload, bool(args.trace)
    reqs = workloads.requests(wl, args.seed)
    digests = load_json(DIGESTS) if args.seed == 0 else None
    log(f"bench: {wl} seed={args.seed} requests={len(reqs)} python={platform.python_version()} nproc={os.cpu_count()} git={git_sha()}")
    # set-up is sampled before and after the passes; setup_s is the median
    kind = "lib" if wl == "lib-sweep" else "cli"
    setups = [] if trace else setup_times(kind, SETUP_REPEATS // 2)
    # walls[k][i], cpus[k][i]: request i of untraced pass k; traced_walls likewise
    if wl == "lib-sweep":
        report, spans_path, peak_kb = run_lib(launcher, reqs, args.seconds, trace)
        first = [(0, report["outputs"][r["id"]].encode(), b"") for r in reqs]
        fingerprints = [[(0, h) for h in p["sha"]] for p in report["passes"] + report["traced"]]
        walls, cpus = [p["lat"] for p in report["passes"]], [p["cpu"] for p in report["passes"]]
        traced_walls = [p["lat"] for p in report["traced"]]
        span_sets = [[s] for s in load_spans(spans_path)] if trace else []
    else:
        passes, traced_passes = run_cli(launcher, reqs, args.seconds, trace)
        # each request at its smallest over the passes, as wall_s takes its best time
        peak_kb = max(min(col) for col in zip(*[[r["maxrss_kb"] for r in p] for p in passes]))
        first = [(r["rc"], r["out"], r["err"]) for r in passes[0]]
        fingerprints = [[(r["rc"], sha256(r["out"])) for r in p] for p in passes + traced_passes]
        walls, cpus = [[r["wall"] for r in p] for p in passes], [[r["cpu"] for r in p] for p in passes]
        traced_walls = [[r["wall"] for r in p] for p in traced_passes]
        span_sets = [
            [s for i in range(len(reqs)) for s in load_spans(os.path.join(WORK, f"spans-{k}-{i}.marshal"))]
            for k in range(len(traced_passes))
        ]
    if not trace:
        setups += setup_times(kind, SETUP_REPEATS - len(setups))
    # nothing is timed from here on: the probes run while the outputs are checked
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        probes = pool.submit(probe_lines)
        attempted, failed, reasons = verdicts(reqs, first, fingerprints, digests)
        if trace:
            metrics = per_layer(span_sets, walls, traced_walls)
        else:
            metrics = end_to_end(statistics.median(setups), walls, cpus, peak_kb)
    for rid, why in sorted(reasons.items()):
        log(f"bench: FAILED {rid}: {why}")
    log(f"bench: {len(walls)} timed and {len(traced_walls)} traced passes, {attempted} requests, {failed} failed")
    print("\n".join(probes.result()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
