"""Tests of the benchmark itself (not of blocksew).

    python3 -m pytest bench/test_bench.py

Run from the repository root; the traced runs take about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _request_list_in_fresh_process(workload, seed, hash_seed):
    code = f"import sys, workloads; sys.stdout.buffer.write(workloads.request_list_bytes({workload!r}, {seed}))"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, check=True).stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_request_list(workload):
    first = _request_list_in_fresh_process(workload, SEED, 1)
    assert first == _request_list_in_fresh_process(workload, SEED, 2)
    assert first != _request_list_in_fresh_process(workload, SEED + 1, 1)


@pytest.fixture(scope="module")
def traced_runs():
    """Two untraced and two traced passes of every workload, as a --trace 1 run makes them."""
    out = {}
    for wl in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out[wl] = (json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr)
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_and_untraced_stdout_are_identical(traced_runs, workload):
    # run.py compares every request's stdout and exit status in every timed
    # and traced pass with the first pass byte for byte; any difference
    # counts as a failed request
    result, stderr = traced_runs[workload]
    n = len(workloads.requests(workload, SEED))
    assert result["attempted"] == 4 * n
    assert result["failed"] == 0, stderr


def test_lib_sweep_spans_of_every_traced_pass_are_used(traced_runs):
    result, stderr = traced_runs["lib-sweep"]
    assert "2 traced passes" in stderr
    for name, m in result["metrics"].items():
        assert m["value"] >= 0, name


def test_span_parents_index_their_own_list():
    # two tracers' lists, as two lib-sweep passes write them: (tag, parent, t0, t1, extra, request)
    one = (["a", "b"], [(0, -1, 0.0, 3.0, 0, 0), (1, 0, 0.0, 1.0, 0, 0)])
    calls, self_s, _, _ = run.layer_stats([one, one])
    assert calls == {"a": 2, "b": 2}
    assert self_s == {"a": 4.0, "b": 2.0}


def test_every_per_layer_metric_is_counted_somewhere(traced_runs):
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {m["name"] for m in bench["per_layer"]}
    for result, _ in traced_runs.values():
        assert set(result["metrics"]) == names
    for name in tracer.layer_names():
        if "." in name:
            metric = f"{name}.calls"
            assert any(r["metrics"][metric]["value"] > 0 for r, _ in traced_runs.values()), metric


def test_bypass_predictions_hold(traced_runs):
    jets = traced_runs["cli-jets-ode"][0]["metrics"]
    for name, m in jets.items():
        if name.startswith(("fock.", "coords.", "sewing.")) and name.endswith(".calls"):
            assert m["value"] == 0, name
    for name, m in traced_runs["cli-checks"][0]["metrics"].items():
        if name.startswith("fuchs.") and name.endswith(".calls"):
            assert m["value"] == 0, name


def test_oracles_reject_corrupted_outputs():
    char = {"vars": ["q"], "offset": {"q": "0"}, "trunc": {"q": 3}, "logmax": {"q": 0},
            "terms": [{"n": [n], "l": [0], "c": c} for n, c in enumerate(["1", "1", "2", "3"])]}
    req = {"check": {"kind": "character", "order": 3, "momentum": "1/2", "normalized": True}}
    assert checks.check(req, json.dumps(char)) is None
    char["terms"][3]["c"] = "4"
    assert checks.check(req, json.dumps(char)) is not None

    system = {"A": [[["1/2"]], [["1"]]], "omega": [["1"]]}
    psi = oracles.fuchs_solution(system, 4)
    doc = {"vars": ["q"], "trunc": {"q": 4}, "terms": [{"n": [n], "l": [0], "c": [str(x) for x in v]} for n, v in enumerate(psi)]}
    assert oracles.check_fuchs_recurrence(doc, system, 4) is None
    doc["terms"][2]["c"] = [str(psi[2][0] + 1)]
    assert oracles.check_fuchs_recurrence(doc, system, 4) is not None
