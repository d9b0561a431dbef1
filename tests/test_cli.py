import argparse
import io
import json
import math
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from blocksew import jsonio
from blocksew.cli import build_parser, main
from blocksew.linalg import QMat, QVec, parse_rational
from blocksew.series import CoordJet, TruncSeries
from helpers import euler_partition_count, random_rational, vector_bracket_failures

Q = Fraction


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


class TestDeterminism:
    def test_character_repeated_runs_are_byte_identical(self, capsys):
        c1, o1 = run(["sew", "character", "--order", "8", "--format", "csv"], capsys)
        c2, o2 = run(["sew", "character", "--order", "8", "--format", "csv"], capsys)
        assert c1 == c2 == 0
        assert o1 == o2

    def test_seeded_cocycle_is_reproducible(self, capsys):
        args = ["schwarz", "cocycle", "--seed", "5", "--count", "3", "--order", "4"]
        c1, o1 = run(args, capsys)
        c2, o2 = run(args, capsys)
        assert c1 == c2 == 0
        assert o1 == o2

    def test_outdir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BLOCKSEW_OUTDIR", str(tmp_path))
        code, _ = run(["sew", "character", "--order", "4", "--out", "chr.json"], capsys)
        assert code == 0
        assert (tmp_path / "chr.json").exists()


def _subcommands(parser):
    """{name: parser} of a parser's subcommands; empty when it has none."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def _help_and_error_argvs():
    full = build_parser()
    out = [["-h"], [], ["--bogus"], ["nope"], ["-h", "fuchs"]]
    for group, group_parser in _subcommands(full).items():
        out += [[group, "-h"], [group], [group, "nope"], [group, "--bogus"]]
        for cmd in _subcommands(group_parser):
            out += [[group, cmd, "-h"], [group, cmd, "--bogus"], [group, cmd, "--order", "x"]]
    return out


class TestParser:
    @pytest.mark.parametrize("argv", _help_and_error_argvs(), ids=" ".join)
    def test_help_and_usage_errors_read_as_with_every_group_built(self, argv, capsys):
        # main builds the commands of the group named in argv only
        def printed(parse):
            with pytest.raises(SystemExit) as e:
                parse()
            return e.value.code, capsys.readouterr()

        assert printed(lambda: main(argv)) == printed(lambda: build_parser().parse_args(argv))

    def test_only_the_named_group_gets_its_commands(self):
        def built(argv):
            return {name for name, p in _subcommands(build_parser(argv)).items() if _subcommands(p)}

        assert built(["-h"]) == set()
        assert built(["fuchs", "solve", "-", "--order", "3"]) == {"fuchs"}
        assert built(["--", "sew", "run"]) == {"sew"}
        assert built(None) == {"coord", "voa", "schwarz", "sew", "fuchs"}


class TestCoordCommands:
    def test_extract_c(self, tmp_path, capsys):
        path = write(tmp_path, "jet.json", {"taylor": ["1", "1"], "exact": True})
        code, out = run(["coord", "extract-c", path, "--order", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["c0"] == "1" and doc["cs"][:2] == ["1", "-1"]
        assert doc["c2_closed_form"] == "-1"

    def test_u_op_matrix_has_partition_labels(self, tmp_path, capsys):
        path = write(tmp_path, "jet.json", {"taylor": ["2"], "exact": True})
        code, out = run(["coord", "u-op", path, "--trunc", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"][0] == "" and "2,1" in doc["basis"]
        # scaling jet acts by 2^weight on the diagonal
        diag = {e["i"]: e["c"] for e in doc["entries"] if e["i"] == e["j"]}
        assert diag[0] == "1"

    def test_check_huang_scaling_case(self, capsys):
        code, out = run(["coord", "check-huang", "--case", "lam-z", "--wmax", "2"], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_check_huang_reversed_window_is_schema_error(self, capsys):
        assert main(["coord", "check-huang", "--window", "6", "-4"]) == 2
        assert capsys.readouterr().err == "schema error: --window: expected LO <= HI\n"


class TestVoaCommands:
    def test_dump_mode_virasoro(self, capsys):
        code, out = run(
            ["voa", "dump-mode", "--kind", "virasoro", "--index", "0", "--trunc", "4"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        mat = jsonio.matrix_from_json(doc)
        assert mat.get(1, 1) == 1  # weight-1 vector has L_0 eigenvalue 1

    @pytest.mark.parametrize(
        "kind, index, state, shift",
        [("heisenberg", -2, [], 2), ("virasoro", -1, [], 1), ("vertex", -1, ["--state", "2,1"], 3), ("contragredient", -2, ["--state", "1"], 2)],
    )
    def test_dump_mode_labels_every_row(self, kind, index, state, shift, capsys):
        # a raising mode's rows run past the source truncation; each nonzero entry
        # links a row label to a column label of weight lower by the shift
        argv = ["voa", "dump-mode", "--kind", kind, "--index", str(index), "--trunc", "5", "--momentum=-5/3"]
        code, out = run(argv + state, capsys)
        doc = json.loads(out)
        basis = doc["basis"]
        weight = lambda label: sum(int(p) for p in label.split(",") if p)
        assert code == 0 and len(basis) == max(doc["shape"]) > doc["shape"][1]
        assert doc["entries"] and all(weight(basis[e["i"]]) == weight(basis[e["j"]]) + shift for e in doc["entries"])

    def test_check_relations(self, capsys):
        code, out = run(["voa", "check-relations", "--trunc", "4", "--range", "2"], capsys)
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_check_relations_reports_each_failing_bracket_in_order(self, monkeypatch, capsys):
        from blocksew.fock import FockModule

        # the vacuum component of L_n, n >= 2, carries the central term: doubling it breaks
        # [L_2, L_-2] and L_2 omega = c/2 |0>
        # (an L_n image is the image of Y(a_{-1}^2)_{n+1} = 2 L_n)
        image = FockModule._image

        def doubled_central_term(self, parts, k, mu):
            img = dict(image(self, parts, k, mu))
            if parts == (1, 1) and k >= 3 and () in img:
                img[()] *= 2
            return img

        with monkeypatch.context() as m:
            m.setattr(FockModule, "_image", doubled_central_term)
            code, out = run(["voa", "check-relations", "--trunc", "3", "--range", "2"], capsys)
        assert code == 1
        assert json.loads(out) == {
            "ok": False,
            "trunc": 3,
            "range": 2,
            "failures": [["virasoro", -2, 2]] * 2 + [["virasoro", 2, -2]] * 2 + [["central-charge"]],
        }
        # a_k twice too large for k > 0: the Heisenberg brackets fail first, then the Virasoro ones
        current = FockModule._current
        monkeypatch.setattr(
            FockModule, "_current", lambda self, k, vec: {mu: (2 if k > 0 else 1) * x for mu, x in current(self, k, vec).items()}
        )
        code, out = run(["voa", "check-relations", "--trunc", "2", "--range", "1"], capsys)
        assert code == 1
        assert json.loads(out)["failures"] == (
            [["heisenberg", -1, 1]] * 4
            + [["heisenberg", 1, -1]] * 4
            + [["virasoro", -1, 0]] * 3
            + [["virasoro", -1, 1]] * 3
            + [["virasoro", 0, -1]] * 3
            + [["virasoro", 0, 1]]
            + [["virasoro", 1, -1]] * 3
            + [["virasoro", 1, 0], ["central-charge"]]
        )
        # a_0 is central: the module of momentum 5/3 in place of -5/3 breaks no bracket,
        # only a_0 |0> = lambda |0>
        monkeypatch.setattr(
            FockModule, "_current", lambda self, k, vec: {mu: (-1 if k == 0 else 1) * x for mu, x in current(self, k, vec).items()}
        )
        code, out = run(["voa", "check-relations", "--trunc", "3", "--range", "2", "--momentum=-5/3"], capsys)
        assert code == 1
        assert json.loads(out)["failures"] == [["momentum"]]

    def test_check_relations_matches_the_vector_loop(self, monkeypatch, capsys):
        from blocksew.fock import FockModule

        def failures(trunc, rng, momentum):
            code, out = run(["voa", "check-relations", "--trunc", str(trunc), "--range", str(rng), f"--momentum={momentum}"], capsys)
            doc = json.loads(out)
            assert code == (1 if doc["failures"] else 0)
            return doc["failures"]

        for momentum in ("0", "1/2", "-5/3"):
            for trunc in range(6):
                for rng in range(1, 4):
                    want = vector_bracket_failures(FockModule(Q(momentum)), trunc, rng)
                    assert want == [] and failures(trunc, rng, momentum) == want
        # corrupted images, kept linear and graded so that both checks see one operator:
        # the integer a_1 scaled by 3 on two-part partitions (and so every L_n image built
        # from it), then L_-1 doubled on the boson
        current, image = FockModule._current, FockModule._image

        def heisenberg(self, k, vec):
            out = {}
            for mu, c in vec.items():
                scale = 3 if k == 1 and len(mu) == 2 else 1
                for tau, x in current(self, k, {mu: c}).items():
                    out[tau] = out.get(tau, 0) + scale * x
            return {tau: x for tau, x in out.items() if x}

        def virasoro(self, parts, k, mu):
            img = image(self, parts, k, mu)
            return {tau: 2 * c for tau, c in img.items()} if (parts, k, mu) == ((1, 1), 0, (1,)) else img

        for patch in ((FockModule, "_current", heisenberg), (FockModule, "_image", virasoro)):
            with monkeypatch.context() as m:
                m.setattr(*patch)
                for momentum in ("0", "-5/3"):
                    for trunc, rng in ((2, 1), (3, 2), (4, 3)):
                        want = vector_bracket_failures(FockModule(Q(momentum)), trunc, rng)
                        assert want and failures(trunc, rng, momentum) == want, (patch[1], momentum, trunc, rng)


class TestSchwarzCommands:
    def test_sd_of_mobius_is_zero(self, tmp_path, capsys):
        path = write(tmp_path, "mob.json", {"taylor": ["1"] * 12, "exact": False})
        code, out = run(["schwarz", "sd", path, "--order", "6"], capsys)
        assert code == 0
        assert json.loads(out)["terms"] == []

    def test_term_bundle(self, tmp_path, capsys):
        zero = {"vars": ["xi"], "trunc": {"xi": 8}, "offset": {}, "logmax": {}, "terms": []}
        zero_pi = {"vars": ["pi"], "trunc": {"pi": 8}, "offset": {}, "logmax": {}, "terms": []}
        seta = {
            "vars": ["eta"],
            "trunc": {"eta": 8},
            "offset": {},
            "logmax": {},
            "terms": [{"n": [0], "l": [0], "c": "7/3"}],
        }
        h = {
            "vars": ["q", "eta"],
            "trunc": {"q": 8, "eta": 4},
            "offset": {"eta": "-1"},
            "logmax": {},
            "terms": [{"n": [0, 0], "l": [0, 0], "c": "1"}],
        }
        half = {
            "vars": ["xi", "pi"],
            "trunc": {"xi": 8, "pi": 8},
            "offset": {},
            "logmax": {},
            "terms": [{"n": [0, 0], "l": [0, 0], "c": "1/2"}],
        }
        bundle = {
            "S_xi": zero,
            "S_pi": zero_pi,
            "S_eta": [seta],
            "a": half,
            "b": half,
            "h": [h],
            "c": "12",
            "order": 5,
        }
        path = write(tmp_path, "bundle.json", bundle)
        code, out = run(["schwarz", "term", path], capsys)
        assert code == 0
        series = jsonio.series_from_json(json.loads(out))
        assert series == TruncSeries.constant(Q(7, 3), ("q",), {"q": 5})


class TestSewCommands:
    def test_character_values(self, capsys):
        code, out = run(["sew", "character", "--order", "10", "--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [euler_partition_count(n) for n in range(11)]

    def test_run_bundle_momentum(self, tmp_path, capsys):
        from blocksew.fock import FockModule

        f = FockModule(Q(1, 2))
        dims = f.weight_dims(4)
        total = sum(dims)
        bundle = {
            "module": {"type": "fock", "momentum": "1/2"},
            "block": {
                "slots": [dims, dims],
                "pair": [0, 1],
                "entries": [{"idx": [i, i], "c": "1"} for i in range(total)],
            },
            "inputs": {},
            "order": 4,
        }
        path = write(tmp_path, "sew.json", bundle)
        code, out = run(["sew", "run", path], capsys)
        assert code == 0
        series = jsonio.series_from_json(json.loads(out))
        assert series.offset == (Q(1, 8),)
        assert series.coefficient({"q": 4}) == 5

    def test_residue_check(self, capsys):
        code, out = run(["sew", "residue-check", "--order", "3", "--wmax", "2", "--bidegree", "1"], capsys)
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_invariance(self, capsys):
        code, out = run(["sew", "invariance", "--weight-cap", "3", "--kmin", "-1", "--kmax", "1"], capsys)
        assert code == 0


class TestFuchsCommands:
    def test_solve_and_residual_roundtrip(self, tmp_path, capsys):
        system = {
            "A": [[["0"]], [["1"]]],
            "omega": [["0"]],
            "seeds": {"0,0": ["1"]},
        }
        path = write(tmp_path, "sys.json", system)
        code, out = run(["fuchs", "solve", path, "--order", "6"], capsys)
        assert code == 0
        psi_doc = json.loads(out)
        res_path = write(tmp_path, "res.json", {"system": system, "psi": psi_doc})
        code, out = run(["fuchs", "residual", res_path], capsys)
        assert code == 0
        assert json.loads(out)["residual"] == "0"

    def test_certify(self, tmp_path, capsys):
        system = {
            "A": [[["0"]], [["1"]]],
            "omega": [["0"]],
            "seeds": {"0,0": ["1"]},
            "r1": "1/2",
            "order": 30,
        }
        path = write(tmp_path, "sys.json", system)
        code, out = run(["fuchs", "certify", path], capsys)
        assert code == 0
        cert = json.loads(out)
        assert parse_rational(cert["r0"]) < parse_rational(cert["r1"]) / parse_rational(cert["gamma"])

    def test_certify_rejects_supplied_corrupted_solution(self, tmp_path, capsys):
        import math

        terms = [{"n": [n], "l": [0], "c": [str(Q(1, math.factorial(n)))]} for n in range(31)]
        terms[17]["c"] = [str(Q(10) ** 15)]
        system = {
            "A": [[["0"]], [["1"]]],
            "omega": [["0"]],
            "r1": "1/2",
            "psi": {"vars": ["q"], "trunc": {"q": 30}, "offset": {}, "logmax": {}, "terms": terms},
        }
        path = write(tmp_path, "sys.json", system)
        code, out = run(["fuchs", "certify", path], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["violation_index"] == 17

    def test_certify_rejects_supplied_non_solution(self, tmp_path, capsys):
        # psi = 7 - q^3/9 does not solve q psi' = q psi: a certificate would be wrong
        system = {
            "A": [[["0"]], [["1"]]],
            "omega": [["0"]],
            "psi": {
                "vars": ["q"],
                "trunc": {"q": 3},
                "terms": [{"n": [0], "l": [0], "c": ["7"]}, {"n": [3], "l": [0], "c": ["-1/9"]}],
            },
        }
        code, out = run(["fuchs", "certify", write(tmp_path, "sys.json", system)], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["violation_index"] == 1

    def test_residual_of_a_psi_off_the_integer_powers(self, tmp_path, capsys):
        # a zero omega lies in every sector: psi = q^(1/2) solves q psi' = psi / 2, not q psi' = psi;
        # psi = q does not solve q psi' = 0, which once read "0" after its q^1 term was cut at q^0
        def residual(offset, a):
            psi = {"vars": ["q"], "trunc": {"q": 2}, "offset": {"q": offset}, "terms": [{"n": [0], "l": [0], "c": ["1"]}]}
            doc = {"psi": psi, "system": {"A": [[[a]]], "omega": [["0"]]}}
            code, out = run(["fuchs", "residual", write(tmp_path, "r.json", doc)], capsys)
            return code, json.loads(out)["residual"]

        assert residual("1/2", "1/2") == (0, "0")
        code, res = residual("1/2", "1")
        assert code == 1 and res["offset"] == {"q": "1/2"} and res["terms"] == [{"n": [0], "l": [0], "c": ["-1/2"]}]
        code, res = residual("1", "0")
        assert code == 1 and res["offset"] == {"q": "1"} and res["terms"] == [{"n": [0], "l": [0], "c": ["1"]}]

    def test_solve_prints_integers_beyond_the_default_digit_limit(self, tmp_path, capsys):
        import sys

        a1 = 10**99 + 7  # psi_n = a1^n / n!, past 4300 digits from n = 44 on
        system = {"A": [[["0"]], [[str(a1)]]], "omega": [["0"]], "seeds": {"0,0": ["1"]}}
        path = write(tmp_path, "sys.json", system)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        try:
            if limit is not None:
                sys.set_int_max_str_digits(4300)
            code, out = run(["fuchs", "solve", path, "--order", "50"], capsys)
            assert code == 0
            psi = jsonio.series_from_json(json.loads(out))
            assert psi.terms[((50,), (0,))] == QVec.from_list([Q(a1**50, math.factorial(50))])
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_missing_seed_is_an_error(self, tmp_path, capsys):
        path = write(tmp_path, "sys.json", {"A": [[["0"]], [["1"]]], "omega": [["0"]]})
        assert main(["fuchs", "solve", path, "--order", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: resonant step ((0,), (0,)) needs 1 seed coefficient(s)")

    def test_empty_input_is_schema_error(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text("", encoding="utf-8")
        assert main(["fuchs", "solve", str(p)]) == 2

    def test_malformed_rational_reports_path(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"A": [[["0.5"]]], "omega": []})
        assert main(["fuchs", "solve", path]) == 2


class TestNegativeSizes:
    """A negative size is an input error, never an empty result with exit 0."""

    def rejected(self, argv, capsys, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"schema error: {path}: "), (argv, err)

    def test_coord(self, tmp_path, capsys):
        jet = write(tmp_path, "jet.json", {"taylor": ["2"], "exact": True})
        self.rejected(["coord", "u-op", jet, "--trunc", "-1"], capsys, "--trunc")
        self.rejected(["coord", "check-huang", "--wmax", "-1"], capsys, "--wmax")

    def test_voa(self, capsys):
        self.rejected(["voa", "dump-mode", "--kind", "virasoro", "--index", "1", "--trunc", "-2"], capsys, "--trunc")

    def test_schwarz(self, capsys):
        self.rejected(["schwarz", "cocycle", "--order", "-1"], capsys, "--order")

    def test_sew(self, capsys):
        self.rejected(["sew", "character", "--order", "-1"], capsys, "--order")
        self.rejected(["sew", "invariance", "--weight-cap", "-1"], capsys, "--weight-cap")

    def test_fuchs(self, tmp_path, capsys):
        system = {"A": [[["0"]], [["1"]]], "omega": [["0"]], "seeds": {"0,0": ["1"]}}
        self.rejected(["fuchs", "solve", write(tmp_path, "a.json", system), "--order", "-1"], capsys, "--order")
        doc = write(tmp_path, "b.json", {**system, "order": -3})
        self.rejected(["fuchs", "solve", doc], capsys, "input.order")

    def test_fuchs_log_bound(self, tmp_path, capsys):
        # a negative log bound used to solve nothing and print "terms": [] with exit 0
        doc = write(tmp_path, "a.json", {"A": [[["0"]]], "omega": [["1"]], "log_bound": -1})
        self.rejected(["fuchs", "solve", doc, "--order", "3"], capsys, "input.log_bound")
        self.rejected(["fuchs", "certify", doc, "--order", "3"], capsys, "input.log_bound")


class TestIoErrors:
    """A file that cannot be read or written is an error with exit 2, never a traceback."""

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["fuchs", "solve", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_out_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.json"
        assert main(["sew", "character", "--order", "2", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()


# documents whose rationals or toy-module fields were read through str() or int()
NUMBER_AND_SHAPE_CASES = [
    (["schwarz", "term"], {"c": 0.5}, "input.c"),
    (["schwarz", "term"], {"c": ["1"]}, "input.c"),
    (["sew", "run"], {"module": {"type": "fock", "momentum": 0.5}}, "input.module.momentum"),
    (["sew", "run"], {"module": {"type": "toy", "dims": [1], "nilpotents": [[]], "offset": 0.5}}, "input.module.offset"),
    (["sew", "run"], {"module": {"type": "toy", "dims": ["a"], "nilpotents": [[]]}}, "input.module.dims[0]"),
    (["sew", "run"], {"module": {"type": "toy", "dims": [1], "nilpotents": 3}}, "input.module.nilpotents"),
    (["sew", "run"], {"module": {"type": "toy", "dims": [1, 1], "nilpotents": [[]]}}, "input.module.nilpotents"),
    (["sew", "run"], {"module": {"type": "toy", "dims": [1], "nilpotents": [3]}}, "input.module.nilpotents[0]"),
    (["sew", "run"], {"module": {"type": "toy", "dims": [2], "nilpotents": [[["0", "0"], ["0", "0", "1"]]]}}, "input.module.nilpotents[0]"),
    (["fuchs", "solve"], {"A": [[["0"]], [["1"], ["1", "1"]]]}, "system.A[1]"),
    (["fuchs", "solve"], {"A": [[["0"]], [["1", "0"], ["0", "1"]]]}, "system.A[1]"),
    (["fuchs", "solve"], {"A": [[]], "omega": []}, "system"),
    (["fuchs", "solve"], {"omega": [5]}, "system.omega[0]"),
    (["fuchs", "solve"], {"omega": ["12"]}, "system.omega[0]"),
    (["fuchs", "solve"], {"omega": [["0"], ["1", "2"]]}, "system.omega[1]"),
    (["sew", "run"], {"normalized": "false"}, "input.normalized"),
    (["sew", "run"], {"normalized": 1}, "input.normalized"),
    (["fuchs", "certify"], {"r1": 0.5}, "input.r1"),
    (["fuchs", "solve"], {"tail": {"C": 1, "a": "1/2"}}, "system.tail.C"),
    (["fuchs", "solve"], {"tail": {"C": "1", "a": 2}}, "system.tail.a"),
    (["fuchs", "solve"], {"seeds": {"0,0": [1]}}, "system.seeds.0,0[0]"),
]


class TestMalformedDocuments:
    """A malformed document is a schema error naming its JSON path, never a traceback."""

    def rejected(self, argv, capsys, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"schema error: {path}: "), (argv, err)

    def test_numbers_where_rationals_are_expected(self, tmp_path, capsys):
        self.rejected(["coord", "extract-c", write(tmp_path, "jet.json", {"taylor": [1, 2]})], capsys, "jet.taylor[0]")
        # a string was read digit by digit as a jet, a number gave a traceback
        for taylor in ("12", 5):
            self.rejected(["coord", "extract-c", write(tmp_path, "jet.json", {"taylor": taylor})], capsys, "jet.taylor")
        run_doc = {"block": {"slots": [[1], [1]], "pair": [0, 1], "entries": [{"idx": [0, 0], "c": 1}]}}
        self.rejected(["sew", "run", write(tmp_path, "run.json", run_doc)], capsys, "input.block.entries[0].c")

    def test_sew_run_without_block(self, tmp_path, capsys):
        doc = write(tmp_path, "run.json", {"module": {"type": "fock"}, "order": 2})
        self.rejected(["sew", "run", doc], capsys, "input.block")

    def test_sew_run_malformed_block(self, tmp_path, capsys):
        # each of these used to give a traceback, or a series with exit 0 that ignored part of the input
        dims = [1, 1, 2]
        two = {"slots": [dims, dims], "pair": [0, 1], "entries": [{"idx": [0, 0], "c": "1"}]}
        three = {"slots": [dims, dims, dims], "pair": [0, 1], "entries": [{"idx": [0, 0, 1], "c": "1"}]}
        bad = [
            ([two], {}, "input.block"),
            ({**two, "pair": [0, 5]}, {}, "input.block.pair"),
            ({**two, "pair": "ab"}, {}, "input.block.pair"),
            ({**two, "pair": [1, 1]}, {}, "input.block.pair"),
            ({**two, "slots": "ab"}, {}, "input.block.slots"),
            ({**two, "slots": [dims, ["x"]]}, {}, "input.block.slots[1]"),
            ({**two, "entries": 3}, {}, "input.block.entries"),
            ({**two, "entries": [[0, 0]]}, {}, "input.block.entries[0]"),
            ({**two, "entries": [{"idx": [0, 0, 3], "c": "1"}]}, {}, "input.block.entries[0].idx"),
            ({**two, "entries": [{"idx": [0, 0], "c": "1"}, {"idx": [7, 7], "c": "1"}]}, {}, "input.block.entries[1].idx"),
            ({**two, "entries": [{"idx": [-1, -1], "c": "1"}]}, {}, "input.block.entries[0].idx"),
            ({**two, "entries": [{"idx": ["0", 0], "c": "1"}]}, {}, "input.block.entries[0].idx"),
            (three, {"2": ["1", "0", "1", "2"], "5": ["1"]}, "input.inputs.5"),
            (three, {"2": ["1", "0", "1", "2"], "0": ["1", "0", "0", "0"]}, "input.inputs.0"),
            (three, {"2": ["1", "0"]}, "input.inputs.2"),
            (three, {"x": ["1", "0", "1", "2"]}, "input.inputs.x"),
            # "02" also named slot 2, and the later key won with exit 0
            (three, {"2": ["1", "0", "1", "2"], "02": ["1", "5", "1", "2"]}, "input.inputs.02"),
            (three, {" 2": ["1", "0", "1", "2"]}, "input.inputs. 2"),
            (three, {"+2": ["1", "0", "1", "2"]}, "input.inputs.+2"),
            (three, ["1"], "input.inputs"),
        ]
        for block, inputs, path in bad:
            doc = {"module": {"type": "fock"}, "order": 2, "block": block, "inputs": inputs}
            self.rejected(["sew", "run", write(tmp_path, "run.json", doc)], capsys, path)
        good = {"module": {"type": "fock"}, "order": 2, "block": three, "inputs": {"2": ["1", "3", "1", "2"]}}
        code, out = run(["sew", "run", write(tmp_path, "run.json", good)], capsys)
        assert code == 0 and json.loads(out)["terms"] == [{"n": [0], "l": [0], "c": "3"}]

    def test_schwarz_term_missing_field(self, tmp_path, capsys):
        zero = {"vars": ["pi"], "trunc": {"pi": 4}, "terms": []}
        half = {"vars": ["xi", "pi"], "trunc": {"xi": 4, "pi": 4}, "terms": [{"n": [0, 0], "l": [0, 0], "c": "1/2"}]}
        doc = write(tmp_path, "term.json", {"S_pi": zero, "a": half, "b": half, "order": 3})
        self.rejected(["schwarz", "term", doc], capsys, "input.S_xi")

    def test_schwarz_term_malformed_series(self, tmp_path, capsys):
        # each of these used to give a traceback, an error without a path, or a series
        zero_xi = {"vars": ["xi"], "trunc": {"xi": 4}, "terms": []}
        zero = {"vars": ["pi"], "trunc": {"pi": 4}, "terms": []}
        half = {"vars": ["xi", "pi"], "trunc": {"xi": 4, "pi": 4}, "terms": [{"n": [0, 0], "l": [0, 0], "c": "1/2"}]}
        bad = [
            ({**half, "trunc": {"xi": 4}}, "a.trunc.pi"),
            ({**half, "trunc": [4, 4]}, "a.trunc"),
            ({**half, "vars": "xipi"}, "a.vars"),
            ({**half, "vars": ["xi", "xi"]}, "a.vars"),
            ({**half, "trunc": {"xi": "abc", "pi": 4}}, "a.trunc.xi"),
            ({**half, "trunc": {"xi": "4", "pi": 4}}, "a.trunc.xi"),
            ({**half, "trunc": {"xi": 4.5, "pi": 4}}, "a.trunc.xi"),
            ({**half, "trunc": {"xi": -1, "pi": 4}}, "a.trunc.xi"),
            ({**half, "logmax": {"xi": "x"}}, "a.logmax.xi"),
            ({**half, "offset": ["0"]}, "a.offset"),
            # a key that names no variable was dropped: an offset on "Q" read as offset 0
            ({**half, "offset": {"Q": "1/2"}}, "a.offset.Q"),
            ({**half, "logmax": {"xi": 0, "z": 1}}, "a.logmax.z"),
            ({**half, "trunc": {"xi": 4, "pi": 4, "q": 2}}, "a.trunc.q"),
            ({**half, "terms": {"n": [0, 0]}}, "a.terms"),
            ({**half, "terms": [[0, 0]]}, "a.terms[0]"),
            ({**half, "terms": [{"n": [0], "l": [0, 0], "c": "1/2"}]}, "a.terms[0].n"),
            ({**half, "terms": [{"n": [0, 9], "l": [0, 0], "c": "1/2"}]}, "a.terms[0].n"),
            ({**half, "terms": [{"n": [0, "0"], "l": [0, 0], "c": "1/2"}]}, "a.terms[0].n"),
            ({**half, "terms": [{"n": [0, 0], "l": [0, 0, 0], "c": "1/2"}]}, "a.terms[0].l"),
        ]
        for a, path in bad:
            doc = write(tmp_path, "term.json", {"S_xi": zero_xi, "S_pi": zero, "a": a, "b": half, "order": 3})
            self.rejected(["schwarz", "term", doc], capsys, path)
        doc = write(tmp_path, "term.json", {"S_xi": zero_xi, "S_pi": zero, "a": half, "b": half, "h": [half], "S_eta": [{"vars": "eta"}], "order": 3})
        self.rejected(["schwarz", "term", doc], capsys, "S_eta[0].vars")

    def test_schwarz_term_lists_and_coefficient_kinds(self, tmp_path, capsys):
        # each of these was a TypeError traceback, but the matrix in S_xi, which gave a result
        zero_xi = {"vars": ["xi"], "trunc": {"xi": 4}, "terms": []}
        zero = {"vars": ["pi"], "trunc": {"pi": 4}, "terms": []}
        half = {"vars": ["xi", "pi"], "trunc": {"xi": 4, "pi": 4}, "terms": [{"n": [0, 0], "l": [0, 0], "c": "1/2"}]}
        vector_half = {**half, "terms": [{"n": [0, 0], "l": [0, 0], "c": ["1/2", "1/2"]}]}
        seta = {"vars": ["eta"], "trunc": {"eta": 4}, "terms": [{"n": [0], "l": [0], "c": ["1/2", "1/2"]}]}
        h = {"vars": ["q", "eta"], "trunc": {"q": 4, "eta": 4}, "offset": {"eta": "-1"}, "terms": [{"n": [0, 0], "l": [0, 0], "c": "1"}]}
        base = {"S_xi": zero_xi, "S_pi": zero, "a": half, "b": half, "order": 3}
        bad = [
            ({"h": -1}, "h"),
            ({"S_eta": 0}, "S_eta"),
            ({"S_eta": [seta], "h": [h]}, "S_eta[0].terms[0].c"),
            ({"a": vector_half, "b": vector_half}, "a.terms[0].c"),
            ({"S_xi": {**zero_xi, "terms": [{"n": [0], "l": [0], "c": [["1"]]}]}}, "S_xi.terms[0].c"),
        ]
        for fields, path in bad:
            self.rejected(["schwarz", "term", write(tmp_path, "term.json", {**base, **fields})], capsys, path)

    @pytest.mark.parametrize(
        "argv, doc, path",
        [
            (["coord", "extract-c"], {"taylor": ["1", "1/0"], "exact": True}, "jet.taylor[1]"),
            (["coord", "u-op"], {"taylor": ["1", "1/0"], "exact": True}, "jet.taylor[1]"),
            (["schwarz", "sd"], {"taylor": ["1", "-2/0"]}, "jet.taylor[1]"),
            (
                ["schwarz", "term"],
                {
                    "S_xi": {"vars": ["xi"], "trunc": {"xi": 4}, "terms": []},
                    "S_pi": {"vars": ["pi"], "trunc": {"pi": 4}, "terms": []},
                    "a": {"vars": ["xi", "pi"], "trunc": {"xi": 4, "pi": 4}, "terms": [{"n": [0, 0], "l": [0, 0], "c": "1/0"}]},
                    "b": {"vars": ["xi", "pi"], "trunc": {"xi": 4, "pi": 4}, "terms": []},
                },
                "a.terms[0].c",
            ),
            (["sew", "run"], {"block": {"slots": [[1], [1]], "pair": [0, 1], "entries": [{"idx": [0, 0], "c": "1/0"}]}}, "input.block.entries[0].c"),
            (
                ["sew", "run"],
                {
                    "module": {"type": "toy", "dims": [1], "nilpotents": [[["1/00"]]]},
                    "block": {"slots": [[1], [1]], "pair": [0, 1], "entries": [{"idx": [0, 0], "c": "1"}]},
                },
                "input.module.nilpotents[0][0][0]",
            ),
            (["fuchs", "solve"], {"A": [[["1/0"]]], "omega": [["0"]]}, "system.A[0][0][0]"),
            (["fuchs", "certify"], {"A": [[["0"]], [["1"]]], "omega": [["0/0"]], "seeds": {"0,0": ["1"]}}, "system.omega[0][0]"),
            (
                ["fuchs", "residual"],
                {"psi": {"vars": ["q"], "trunc": {"q": 2}, "terms": [{"n": [0], "l": [0], "c": ["1/0"]}]}, "system": {"A": [[["1/2"]]], "omega": [["0"]]}},
                "psi.terms[0].c[0]",
            ),
        ],
        ids=["extract-c", "u-op", "sd", "term", "run", "run-toy", "solve", "certify", "residual"],
    )
    def test_zero_denominator_on_stdin(self, argv, doc, path, monkeypatch, capsys):
        # "1/0" was a ZeroDivisionError traceback in every command that reads a document
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        self.rejected(argv + ["-"], capsys, path)

    def test_zero_denominator_in_a_matrix_document(self):
        doc = {"shape": [1, 1], "entries": [{"i": 0, "j": 0, "c": "1/0"}]}
        with pytest.raises(jsonio.SchemaError, match=r"^matrix\.entries\[0\]\.c: "):
            jsonio.matrix_from_json(doc)

    def test_matrix_entry_without_j(self):
        # was KeyError: 'j'
        doc = {"shape": [1, 1], "entries": [{"i": 0, "c": "1"}]}
        with pytest.raises(jsonio.SchemaError, match=r"^matrix\.entries\[0\]: "):
            jsonio.matrix_from_json(doc)

    def test_matrix_shape_not_two_integers(self):
        # "ab" was a ValueError from int
        for shape in ("ab", [1], [1, -1], [1, True], [1, "1"]):
            with pytest.raises(jsonio.SchemaError, match=r"^matrix\.shape: "):
                jsonio.matrix_from_json({"shape": shape, "entries": []})

    def test_matrix_entry_repeated(self):
        # a second entry at (0, 0) was read as the last one, {0: {0: 5}}
        entries = [{"i": 0, "j": 0, "c": "3"}, {"i": 1, "j": 1, "c": "1"}, {"i": 0, "j": 0, "c": "5"}]
        with pytest.raises(jsonio.SchemaError, match=r"^matrix\.entries\[2\]: repeats the i and j of matrix\.entries\[0\]$"):
            jsonio.matrix_from_json({"shape": [2, 2], "entries": entries})
        assert jsonio.matrix_from_json({"shape": [2, 2], "entries": entries[:2]}).rows == {0: {0: 3}, 1: {1: 1}}

    def test_matrix_entry_outside_shape(self):
        # "i": 3 in a 1 x 1 shape was an IndexError
        for entry in ({"i": 3, "j": 0, "c": "1"}, {"i": 0, "j": -1, "c": "1"}, {"i": "0", "j": 0, "c": "1"}):
            doc = {"shape": [1, 1], "entries": [{"i": 0, "j": 0, "c": "2"}, entry]}
            with pytest.raises(jsonio.SchemaError, match=r"^matrix\.entries\[1\]: "):
                jsonio.matrix_from_json(doc)

    def test_fuchs_non_integer_log_bound_and_seed_key(self, tmp_path, capsys):
        system = {"A": [[["0"]]], "omega": [["1"]]}
        for bound in (1.5, "1"):
            doc = write(tmp_path, "a.json", {**system, "log_bound": bound})
            self.rejected(["fuchs", "solve", doc], capsys, "input.log_bound")
            self.rejected(["fuchs", "certify", doc], capsys, "input.log_bound")
        for key in ("a,b", "1,2,3", "1"):
            doc = write(tmp_path, "b.json", {**system, "seeds": {key: ["1"]}})
            self.rejected(["fuchs", "solve", doc], capsys, f"system.seeds.{key}")
        doc = write(tmp_path, "c.json", {**system, "seeds": [["1"]]})
        self.rejected(["fuchs", "solve", doc], capsys, "system.seeds")
        doc = write(tmp_path, "d.json", {**system, "seeds": {"0,0": "12"}})
        self.rejected(["fuchs", "solve", doc], capsys, "system.seeds.0,0")
        doc = write(tmp_path, "e.json", {**system, "seeds": {"0,0": ["x"]}})
        self.rejected(["fuchs", "solve", doc], capsys, "system.seeds.0,0[0]")

    def test_fuchs_seeds_the_walk_does_not_read(self, tmp_path, capsys):
        # each printed a series with exit 0, or an error naming no JSON path
        system = {"A": [[["0"]], [["1"]]], "omega": [["0"]]}
        cases = [
            ({"0,0": ["1"], "2,0": ["7"], "-1,3": ["5"]}, "system.seeds.2,0"),
            ({"0,0": ["1"], "-1,3": ["5"]}, "system.seeds.-1,3"),
            ({"0,0": ["1"], "9,0": ["7"]}, "system.seeds.9,0"),
            ({"0,0": ["1", "2"]}, "system.seeds.0,0"),
        ]
        for seeds, path in cases:
            doc = write(tmp_path, "a.json", {**system, "seeds": seeds})
            self.rejected(["fuchs", "solve", doc, "--order", "3"], capsys, path)
            self.rejected(["fuchs", "certify", doc, "--order", "3"], capsys, path)

    def test_fuchs_seed_keys_are_canonical(self, tmp_path, capsys):
        # "00,0" also named step (0, 0), and the later key won: psi_0 = 2 with exit 0
        system = {"A": [[["0"]], [["1"]]], "omega": [["0"]]}
        for seeds, key in [
            ({"0,0": ["1"], "00,0": ["2"]}, "00,0"),
            ({" 0 , 0": ["1"]}, " 0 , 0"),
            ({"+0,0": ["1"]}, "+0,0"),
            ({"0,-0": ["1"]}, "0,-0"),
            ({"0,1_0": ["1"]}, "0,1_0"),
            ({"0": ["1"]}, "0"),
        ]:
            doc = write(tmp_path, "a.json", {**system, "seeds": seeds})
            self.rejected(["fuchs", "solve", doc, "--order", "2"], capsys, f"system.seeds.{key}")
        # a canonical key that names no step still reaches the walk's check
        doc = write(tmp_path, "b.json", {**system, "seeds": {"0,0": ["1"], "-1,3": ["5"]}})
        assert main(["fuchs", "solve", doc, "--order", "2"]) == 2
        assert "names no step" in capsys.readouterr().err

    def test_fuchs_certify_of_a_supplied_psi_takes_no_seeds(self, tmp_path, capsys):
        # the seeds were never read, so one that fuchs solve rejects was accepted
        psi = {"vars": ["q"], "trunc": {"q": 2}, "terms": [{"n": [0], "l": [0], "c": ["1"]}]}
        doc = {"A": [[["0"]]], "omega": [["0"]], "psi": psi}
        self.rejected(["fuchs", "certify", write(tmp_path, "a.json", {**doc, "seeds": {"-1,3": ["5"]}})], capsys, "system.seeds")
        self.rejected(["fuchs", "certify", write(tmp_path, "b.json", {**doc, "seeds": {"0,0": ["1"]}})], capsys, "system.seeds")
        assert run(["fuchs", "certify", write(tmp_path, "c.json", doc)], capsys)[0] == 0

    def test_fuchs_tail_without_field(self, tmp_path, capsys):
        system = {"A": [[["0"]]], "omega": [["1"]]}
        doc = write(tmp_path, "a.json", {**system, "tail": {"a": "1/2"}})
        self.rejected(["fuchs", "solve", doc], capsys, "system.tail.C")
        doc = write(tmp_path, "b.json", {**system, "tail": {"C": "1"}})
        self.rejected(["fuchs", "certify", doc], capsys, "system.tail.a")
        doc = write(tmp_path, "c.json", {**system, "tail": ["1", "1/2"]})
        self.rejected(["fuchs", "solve", doc], capsys, "system.tail")

    def test_fuchs_tail_bound_is_non_negative(self, tmp_path, capsys):
        # C = -5 certified r0 = 1/8 (alpha = -2), above the r0 = 1/12 of C = 5; a = -3
        # certified r0 = 5/28 where the tail sum C a^n r1^n diverges
        system = {"A": [[["0"]], [["1"]]], "omega": [["0"]], "seeds": {"0,0": ["1"]}}
        argv = ["fuchs", "certify", "--order", "1", "--r1", "1/2"]
        for tail, path in [({"C": "-5", "a": "1"}, "system.tail.C"), ({"C": "1", "a": "-3"}, "system.tail.a")]:
            self.rejected(argv + [write(tmp_path, "a.json", {**system, "tail": tail})], capsys, path)
        code, out = run(argv + [write(tmp_path, "b.json", {**system, "tail": {"C": "5", "a": "1"}})], capsys)
        assert code == 0 and json.loads(out)["r0"] == "1/12"

    @pytest.mark.parametrize("argv, doc, path", NUMBER_AND_SHAPE_CASES, ids=[c[2] for c in NUMBER_AND_SHAPE_CASES])
    def test_numbers_and_shapes_in_module_and_scalar_fields(self, tmp_path, capsys, argv, doc, path):
        # an integer used to pass, a float gave an error without a path, "nilpotents": 3 a traceback
        zero = {"vars": ["pi"], "trunc": {"pi": 4}, "terms": []}
        half = {"vars": ["xi", "pi"], "trunc": {"xi": 4, "pi": 4}, "terms": [{"n": [0, 0], "l": [0, 0], "c": "1/2"}]}
        base = {
            "schwarz": {"S_xi": {**zero, "vars": ["xi"], "trunc": {"xi": 4}}, "S_pi": zero, "a": half, "b": half, "order": 3},
            "sew": {"order": 0, "block": {"slots": [[1], [1]], "pair": [0, 1], "entries": [{"idx": [0, 0], "c": "1"}]}},
            "fuchs": {"A": [[["0"]], [["1"]]], "omega": [["0"]], "seeds": {"0,0": ["1"]}},
        }[argv[0]]
        self.rejected(argv + [write(tmp_path, "doc.json", {**base, **doc})], capsys, path)

    def test_jet_exact_is_a_json_boolean(self, tmp_path, capsys):
        # "exact": "false" used to read as true: a truncated jet taken for a polynomial, with exit 0
        for exact in ("false", 0, None):
            doc = write(tmp_path, "jet.json", {"taylor": ["1", "1"], "exact": exact})
            for argv in (["coord", "extract-c", doc], ["coord", "u-op", doc, "--trunc", "3"], ["schwarz", "sd", doc]):
                self.rejected(argv, capsys, "jet.exact")

    def test_residual_system_shapes(self, tmp_path, capsys):
        psi = {"vars": ["z"], "trunc": {"z": 2}, "terms": []}
        bad = [({"A": [[["0"]]], "omega": [5]}, "system.omega[0]"), ({"A": [[["0"]], [[]]], "omega": []}, "system.A[1]")]
        for system, path in bad:
            self.rejected(["fuchs", "residual", write(tmp_path, "r.json", {"psi": psi, "system": system})], capsys, path)

    def test_psi_that_does_not_fit_its_system_or_omega(self, tmp_path, capsys):
        # a TypeError traceback; "residual": "0" with exit 0; "error: dimension mismatch" with no path;
        # a certificate with exit 0
        half = {"vars": ["q"], "trunc": {"q": 2}, "offset": {"q": "1/2"}, "terms": [{"n": [0], "l": [0], "c": "1"}]}
        omega = {"vars": ["q"], "trunc": {"q": 2}, "terms": [{"n": [0], "l": [0], "c": [["1/2"]]}]}
        pair = {"vars": ["q"], "trunc": {"q": 2}, "terms": [{"n": [0], "l": [0], "c": ["1", "2"]}]}
        self.rejected(["fuchs", "residual", write(tmp_path, "a.json", {"psi": half, "Omega": omega})], capsys, "psi.terms[0].c")
        for a in ("0", "1"):
            doc = {"psi": pair, "system": {"A": [[[a]]], "omega": [["0"]]}}
            self.rejected(["fuchs", "residual", write(tmp_path, "b.json", doc)], capsys, "psi.terms[0].c")
        doc = {"A": [[["0"]]], "omega": [["0"]], "psi": pair}
        self.rejected(["fuchs", "certify", write(tmp_path, "c.json", doc)], capsys, "psi.terms[0].c")

    def test_fuchs_residual_psi_off_the_integers_against_a_nonzero_omega(self, tmp_path, capsys):
        # "error: offsets 1/2 and 0 differ by a non-integer", with no JSON path; at offset 1 psi is read
        psi = {"vars": ["q"], "trunc": {"q": 2}, "offset": {"q": "1/2"}, "terms": [{"n": [0], "l": [0], "c": ["1"]}]}
        system = {"A": [[["1/2"]]], "omega": [["1"]]}
        doc = {"psi": psi, "system": system}
        self.rejected(["fuchs", "residual", write(tmp_path, "r.json", doc)], capsys, "psi.offset")
        whole = {**psi, "offset": {"q": "1"}}
        code, out = run(["fuchs", "residual", write(tmp_path, "r.json", {"psi": whole, "system": system})], capsys)
        assert code == 1 and json.loads(out)["residual"]["terms"][0]["c"] == ["-1"]

    def test_fuchs_certify_psi_off_the_integers_against_a_nonzero_omega(self, tmp_path, capsys):
        # "error: offsets 1/2 and 0 differ by a non-integer", with no JSON path
        psi = {"vars": ["q"], "trunc": {"q": 2}, "offset": {"q": "1/2"}, "terms": [{"n": [0], "l": [0], "c": ["1"]}]}
        doc = {"A": [[["1/2"]]], "omega": [["1"]], "psi": psi}
        self.rejected(["fuchs", "certify", write(tmp_path, "c.json", doc)], capsys, "psi.offset")

    def test_series_that_repeats_a_term(self, tmp_path, capsys):
        # the two terms at one (n, l) were read as their sum, with exit 0
        terms = [{"n": [0], "l": [0], "c": ["1"]}, {"n": [1], "l": [0], "c": ["0"]}, {"n": [0], "l": [0], "c": ["2"]}]
        psi = {"vars": ["q"], "trunc": {"q": 2}, "terms": terms}
        doc = {"psi": psi, "system": {"A": [[["0"]]], "omega": [["0"]]}}
        self.rejected(["fuchs", "residual", write(tmp_path, "r.json", doc)], capsys, "psi.terms[2].n")
        # a repeat at a zero coefficient is a repeat too
        psi["terms"] = terms[:2] + [{"n": [1], "l": [0], "c": ["3"]}]
        self.rejected(["fuchs", "residual", write(tmp_path, "r.json", doc)], capsys, "psi.terms[2].n")

    def test_sew_run_block_that_repeats_an_idx(self, tmp_path, capsys):
        # the last of two entries at one idx was kept, with exit 0: "0,0,5"
        entries = [{"idx": [0, 0], "c": "1"}, {"idx": [0, 0], "c": "5"}]
        doc = {"order": 0, "block": {"slots": [[1], [1]], "pair": [0, 1], "entries": entries}}
        self.rejected(["sew", "run", write(tmp_path, "run.json", doc)], capsys, "input.block.entries[1].idx")
        doc["block"]["entries"] = entries[1:]
        code, out = run(["sew", "run", write(tmp_path, "run.json", doc)], capsys)
        assert code == 0 and json.loads(out)["terms"] == [{"n": [0], "l": [0], "c": "5"}]

    def test_psi_in_another_variable(self, tmp_path, capsys):
        # "error: no variable q in ('p',)" and "error: ('q',) vs ('p',)", with no JSON path
        psi = {"vars": ["p"], "trunc": {"p": 2}, "terms": [{"n": [0], "l": [0], "c": ["1"]}]}
        omega = {"vars": ["q"], "trunc": {"q": 2}, "terms": [{"n": [0], "l": [0], "c": [["1/2"]]}]}
        system = {"A": [[["1/2"]]], "omega": [["0"]]}
        for doc in ({"psi": psi, "system": system}, {"psi": psi, "Omega": omega}):
            self.rejected(["fuchs", "residual", write(tmp_path, "r.json", doc)], capsys, "psi.vars")
        self.rejected(["fuchs", "certify", write(tmp_path, "c.json", {**system, "psi": psi})], capsys, "psi.vars")

    def test_psi_is_what_omega_multiplies(self, tmp_path, capsys):
        def series(*cs):
            return {"vars": ["q"], "trunc": {"q": 2}, "terms": [{"n": [n], "l": [0], "c": c} for n, c in enumerate(cs)]}

        def residual(psi, omega):
            return ["fuchs", "residual", write(tmp_path, "r.json", {"psi": psi, "Omega": omega})]

        # a d x d Omega takes vectors of length d or matrices with d rows; a rational Omega takes any one kind
        fits = [
            (series(["1", "0"]), series([["0", "0"], ["0", "0"]])),
            (series([["1", "2", "3"], ["4", "5", "6"]]), series([["0", "0"], ["0", "0"]])),
            (series("0", "1"), series("1")),
            (series(["0", "0"], ["1", "2"]), series("1")),
            (series([["0"]], [["1"]]), series("1")),
        ]
        for psi, omega in fits:
            code, out = run(residual(psi, omega), capsys)
            assert code == 0 and json.loads(out)["residual"] == "0", (psi, omega)
        wrong = [
            (series("1"), series([["1"]]), "psi.terms[0].c"),
            (series(["1", "2"]), series([["1"]]), "psi.terms[0].c"),
            (series([["1", "2"]], [["1", "2"], ["3", "4"]]), series([["1", "2"], ["3", "4"]]), "psi.terms[0].c"),
            (series(["1"], [["1"]]), series([["1"]]), "psi.terms[1].c"),
            (series("1", ["1"]), series("1"), "psi.terms[1].c"),
            (series(["1", "2"], ["1", "2", "3"]), series("1"), "psi.terms[1].c"),
            (series(["1"]), series(["1"]), "Omega.terms[0].c"),
            (series(["1", "2"]), series([["1", "2"]]), "Omega.terms[0].c"),
            (series(["1"]), series("1", [["1"]]), "Omega.terms[1].c"),
            (series(["1"]), series([["1"]], [["1", "0"], ["0", "1"]]), "Omega.terms[1].c"),
        ]
        for psi, omega, path in wrong:
            self.rejected(residual(psi, omega), capsys, path)

    def test_document_that_is_not_an_object(self, tmp_path, capsys):
        self.rejected(["fuchs", "residual", write(tmp_path, "list.json", [1, 2])], capsys, "input")


class TestFlags:
    """A flag wins over the document's field of its name; a malformed flag is a schema error naming it."""

    SYSTEM = {"A": [[["0"]], [["1"]]], "omega": [["0"]], "seeds": {"0,0": ["1"]}}

    def test_flags_win_over_the_document(self, tmp_path, capsys):
        # --r1 used to lose to the document's r1, while --order won over its order
        doc = write(tmp_path, "a.json", {**self.SYSTEM, "order": 8, "r1": "1/2"})
        code, out = run(["fuchs", "certify", doc, "--order", "4", "--r1", "1/8"], capsys)
        assert code == 0 and (json.loads(out)["r1"], json.loads(out)["n_checked"]) == ("1/8", 4)
        code, out = run(["fuchs", "certify", doc], capsys)
        assert code == 0 and (json.loads(out)["r1"], json.loads(out)["n_checked"]) == ("1/2", 8)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["voa", "check-relations", "--momentum", "x"], "--momentum"),
            (["voa", "dump-mode", "--kind", "heisenberg", "--index", "1", "--momentum", "1.5"], "--momentum"),
            (["sew", "character", "--momentum", "x"], "--momentum"),
            (["sew", "character", "--module", "lattice"], "--module"),
            (["coord", "check-huang", "--lam", "x"], "--lam"),
            # a zero denominator was a ZeroDivisionError traceback
            (["voa", "check-relations", "--momentum=1/0"], "--momentum"),
            (["sew", "character", "--momentum=1/0"], "--momentum"),
            (["coord", "check-huang", "--lam=1/0"], "--lam"),
            (["voa", "dump-mode", "--kind", "vertex", "--index", "0", "--state", "0,1"], "--state"),
            (["voa", "dump-mode", "--kind", "vertex", "--index", "0", "--state", "2,x"], "--state"),
            (["voa", "dump-mode", "--kind", "contragredient", "--index", "0", "--state", "-1"], "--state"),
        ],
    )
    def test_malformed_flag(self, argv, flag, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"schema error: {flag}: ")

    def test_malformed_flag_with_an_input(self, tmp_path, capsys):
        jet = write(tmp_path, "jet.json", {"taylor": ["2"], "exact": True})
        for argv, flag in [
            (["coord", "u-op", jet, "--momentum", "y"], "--momentum"),
            (["fuchs", "certify", write(tmp_path, "a.json", self.SYSTEM), "--r1", "x"], "--r1"),
            (["coord", "u-op", jet, "--momentum=1/0"], "--momentum"),
            (["fuchs", "certify", write(tmp_path, "a.json", self.SYSTEM), "--r1", "1/0"], "--r1"),
        ]:
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"schema error: {flag}: "), argv


class TestJsonRoundTrip:
    def test_series_roundtrip_with_matrix_values(self):
        # one kind of coefficient per series
        rnd = random.Random(4)
        for terms in (
            {((1,), (1,)): QMat.from_rows([[Q(1, 2), 0], [3, Q(-7, 3)]]), ((2,), (0,)): QMat.from_rows([[0, 1], [Q(5, 9), 0]])},
            {((2,), (0,)): QVec.from_list([1, Q(5, 9)])},
            {((0,), (0,)): random_rational(rnd), ((3,), (1,)): Q(-7, 6)},
        ):
            s = TruncSeries(("q",), {"q": 3}, offset={"q": Q(1, 2)}, logmax={"q": 1}, terms=terms)
            doc = jsonio.series_to_json(s)
            back = jsonio.series_from_json(doc)
            assert back == s and back.terms == terms

    def test_a_series_document_mixing_coefficient_kinds_is_a_type_error(self):
        # the command line rejects it first, as a schema error naming the term
        doc = {"vars": ["q"], "trunc": {"q": 3}, "terms": [{"n": [0], "l": [0], "c": ["1"]}, {"n": [1], "l": [0], "c": "2"}]}
        with pytest.raises(TypeError):
            jsonio.series_from_json(doc)

    def test_emitted_json_reparses_to_equal_value(self, capsys):
        code, out = run(["sew", "character", "--order", "6", "--format", "json"], capsys)
        assert code == 0
        series = jsonio.series_from_json(json.loads(out))
        assert jsonio.series_to_json(series) == json.loads(out)

    def test_jet_roundtrip(self):
        jet = CoordJet([Q(2), Q(-1, 3), Q(0), Q(4)], exact=True)
        assert jsonio.jet_from_json(jsonio.jet_to_json(jet)) == jet

    def test_decimal_strings_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")
        with pytest.raises(ValueError):
            parse_rational("1e3")

    @pytest.mark.parametrize("text", ["1/0", "-3/00", "0/0"])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_readme_examples(monkeypatch, capsys):
    """Every ``blocksew`` line of the README's command-line block runs and exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [line for line in lines if "blocksew " in line and not line.startswith("#")]
    assert len(commands) >= 10
    for line in commands:
        stdin = ""
        if " | " in line:
            echo, line = line.rsplit(" | ", 1)
            stdin = shlex.split(echo)[1]
        argv = shlex.split(line)
        assert argv[0] == "blocksew", line
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv[1:])
        assert code == 0, (line, capsys.readouterr().err)
        capsys.readouterr()
