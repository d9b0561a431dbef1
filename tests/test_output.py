"""Bounded-memory output: the streamed series writer, CSV coefficients, the
per-weight character, and the peak memory of both."""

import argparse
import csv
import io
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import blocksew
from blocksew import cli, jsonio
from blocksew.cli import main
from blocksew.fock import FockModule
from blocksew.fuchs import FuchsSystem, solve_formal
from blocksew.linalg import QMat, QVec, format_rational, parse_rational
from blocksew.series import TruncSeries
from blocksew.sewing import SewingBlock, sew
from helpers import random_rational

Q = Fraction

MOMENTA = ("0", "1/3", "-3/2")


def random_series(rnd, kind):
    """A seeded series with ``kind`` coefficients ("scalar", "vector", "matrix"),
    one to three variables, offsets, log terms and possibly no terms."""
    names = rnd.sample(["q", "x", "y", "z1"], rnd.randint(1, 3))
    trunc = {v: rnd.randint(0, 4) for v in names}
    offset = {v: random_rational(rnd) for v in names if rnd.random() < 0.7}
    logmax = {v: rnd.randint(0, 2) for v in names}
    s = TruncSeries(names, trunc, offset=offset, logmax=logmax)
    dim = rnd.randint(1, 3)
    for _ in range(rnd.choice([0, 1, 5, 12])):
        exps = tuple(rnd.randint(0, trunc[v]) for v in names)
        logs = tuple(rnd.randint(0, logmax[v]) for v in names)
        if kind == "scalar":
            val = random_rational(rnd)
        elif kind == "vector":
            val = QVec.from_list([random_rational(rnd) for _ in range(dim)])
        else:
            val = QMat.from_rows([[random_rational(rnd) for _ in range(dim)] for _ in range(dim)])
        s._store(exps, logs, val)
    return s


def emit(series, fmt, out=None):
    cli._emit_series(series, argparse.Namespace(format=fmt, out=out))


class TestStreamedJson:
    @pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
    def test_chunks_equal_the_canonical_document(self, kind):
        rnd = random.Random(kind)
        for _ in range(40):
            s = random_series(rnd, kind)
            assert "".join(jsonio.series_json_chunks(s)) == jsonio.dumps_canonical(jsonio.series_to_json(s))

    def test_no_terms_and_no_variables(self):
        for s in (TruncSeries(("q",), {"q": 3}), TruncSeries((), {})):
            assert "".join(jsonio.series_json_chunks(s)) == jsonio.dumps_canonical(jsonio.series_to_json(s))

    @pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
    def test_stdout_and_out_file(self, kind, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BLOCKSEW_OUTDIR", raising=False)
        rnd = random.Random(f"cli-{kind}")
        for i in range(10):
            s = random_series(rnd, kind)
            want = jsonio.dumps_canonical(jsonio.series_to_json(s))
            emit(s, "json")
            assert capsys.readouterr().out == want
            path = tmp_path / f"s{i}.json"
            emit(s, "json", str(path))
            assert path.read_text(encoding="utf-8") == want


class TestCsvCoefficients:
    def test_vector_and_matrix_fields(self, capsys):
        # a series holds one kind of coefficient, so each kind is its own series
        rows = []
        for key, val in (
            (((0, 0), (0, 0)), Q(-5, 7)),
            (((1, 0), (0, 1)), QVec.from_list([Q(1, 2), -3, 0])),
            (((2, 1), (0, 0)), QMat.from_rows([[1, Q(-2, 3)], [0, 4]])),
        ):
            s = TruncSeries(("q", "x"), {"q": 2, "x": 1}, offset={"q": Q(1, 2)}, logmax={"x": 1}, terms={key: val})
            emit(s, "csv")
            header, row = capsys.readouterr().out.splitlines(keepends=True)
            assert header == "monomial,log,coefficient\n"
            rows.append(row)
        assert rows == [
            "1/2;0,0;0,-5/7\n",
            "3/2;0,0;1,1/2;-3;0\n",
            "5/2;1,0;0,1;-2/3|0;4\n",
        ]

    @pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
    def test_every_row_has_three_fields(self, kind, capsys):
        rnd = random.Random(f"csv-{kind}")
        for _ in range(20):
            s = random_series(rnd, kind)
            emit(s, "csv")
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            assert rows[0] == ["monomial", "log", "coefficient"]
            assert len(rows) == len(s.terms) + 1
            assert all(len(row) == 3 for row in rows)

    def test_fuchs_solve_csv_has_three_fields(self, monkeypatch, capsys):
        doc = '{"A": [[["1/2", "1", "0"], ["0", "-1/2", "1"], ["0", "0", "3/2"]], [["1", "0", "1"], ["0", "1", "0"], ["1", "1", "1"]]], "omega": [["1", "2", "3"]]}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main(["fuchs", "solve", "-", "--order", "8", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 10 and all(len(row) == 3 for row in rows)
        assert all(len(row[2].split(";")) == 3 for row in rows[1:])


def whole_pairing_outputs(order, momentum, normalized):
    """``sew character`` output in json and csv, from one sew of the whole pairing block."""
    module = FockModule(parse_rational(momentum))
    series = sew(SewingBlock.pairing(module, order), {}, module, order, normalized=normalized)
    rows = [f"{format_rational(series.offset[0] + exps[0])},{format_rational(v)}\n" for (exps, _l), v in sorted(series.terms.items())]
    return {"json": jsonio.dumps_canonical(jsonio.series_to_json(series)), "csv": "n,coefficient\n" + "".join(rows)}


def test_character_per_weight_equals_whole_pairing(capsys):
    """Orders 0..30, three momenta, json and csv, normalized and standard: 372 cases."""
    cases = 0
    for order in range(31):
        for momentum in MOMENTA:
            for normalized in (True, False):
                want = whole_pairing_outputs(order, momentum, normalized)
                for fmt in ("json", "csv"):
                    argv = ["sew", "character", "--order", str(order), f"--momentum={momentum}", "--format", fmt]
                    assert main(argv + ([] if normalized else ["--standard"])) == 0
                    assert capsys.readouterr().out == want[fmt], argv
                    cases += 1
    assert cases == 372


def traced_peak(fn):
    """Peak bytes that Python allocates while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_character_peak_memory(capsys):
    # one weight block (5604 entries at weight 30) is held at a time, not the
    # whole 28,629-entry pairing
    peak = traced_peak(lambda: main(["sew", "character", "--order", "30", "--format", "json"]))
    assert capsys.readouterr().out
    assert peak < 2.5e6, peak


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_peak_memory_is_a_fraction_of_the_text(fmt, tmp_path):
    rnd = random.Random(5)
    dim, order = 5, 150
    # upper-triangular A_0 with half-integer diagonal: no step n - A_0 is singular
    a0 = QMat.from_rows(
        [[Q(rnd.choice([-1, 1]) * (2 * rnd.randint(0, 3) + 1), 2) if i == j else (random_rational(rnd) if j > i else 0) for j in range(dim)] for i in range(dim)]
    )
    mats = [a0] + [QMat.from_rows([[random_rational(rnd) for _ in range(dim)] for _ in range(dim)]) for _ in range(2)]
    omega = [QVec.from_list([random_rational(rnd) for _ in range(dim)]) for _ in range(3)]
    psi = solve_formal(FuchsSystem.single(mats, omega), {}, order=order)
    path = tmp_path / f"psi.{fmt}"
    peak = traced_peak(lambda: emit(psi, fmt, str(path)))
    size = os.path.getsize(path)
    assert size > 400_000
    assert peak < size / 4, (peak, size)


def test_cli_import_leaves_dataclasses_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blocksew.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, blocksew.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
