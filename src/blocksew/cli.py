"""Batch command-line interface: JSON in, JSON/CSV out, reproducible runs.

Subcommands mirror the package layout:

    coord  {extract-c, u-op, check-huang}
    voa    {dump-mode, check-relations}
    schwarz{sd, cocycle, term}
    sew    {run, character, residue-check, invariance}
    fuchs  {solve, certify, residual}

All randomized checks take --seed (default 0); identical configuration and
inputs produce byte-identical outputs.  Relative --out paths land in
$BLOCKSEW_OUTDIR when that is set.  Identity-check commands exit nonzero on
failure and print a machine-readable discrepancy report.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional

from . import jsonio
from .coords import c2_formula, extract_c, huang_conjugation_checks, u_matrix
from .fock import CONFORMAL, BOSON, VACUUM, FockModule, NilpotentToyModule, vacuum_module
from .fuchs import BoundViolation, FuchsError, SeedError, certify, ode_residual, residual, solve_formal
from .linalg import QMat, QVec, _add_scaled, _int_product, _over_one_den, format_rational
from .schwarzian import cocycle_check, projective_term, schwarzian
from .series import CoordJet, SeriesError, TruncSeries
from .sewing import INFINITY, SewingBlock, SpherePoint, genus0_invariance_check, residue_identity_check, sew

Q = Fraction


def _read_json(path: Optional[str]):
    raw = sys.stdin.read() if path in (None, "-") else open(path, "r", encoding="utf-8").read()
    if not raw.strip():
        raise jsonio.SchemaError("input", "empty document")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise jsonio.SchemaError("input", f"invalid JSON: {e}") from None
    return jsonio._object(doc, "input")


def _setting(args, doc, key: str, read, default):
    """--key when given, else the document's ``key``, else the default, each
    read by ``read`` under its own path (--key or input.key)."""
    flag = getattr(args, key, None)
    if flag is not None:
        return read(flag, f"--{key}")
    return read(doc.get(key, default), f"input.{key}")


def _coefficients(obj, path: str, fits, want: str) -> TruncSeries:
    """The series at path, its coefficients all of one shape that fits(shape) accepts, else a schema error.

    A shape is () for a rational, (n,) for a vector and (rows, cols) for a matrix.
    """
    shapes = set()

    def value(c, cpath):
        v = jsonio.value_from_json(c, cpath)
        shape = (v.nrows, v.ncols) if isinstance(v, QMat) else (v.n,) if isinstance(v, QVec) else ()
        shapes.add(shape)
        if len(shapes) > 1 or not fits(shape):
            raise jsonio.SchemaError(cpath, f"expected {want} (one shape for every term)")
        return v

    return jsonio.series_from_json(obj, path, value)


def _fock_module(args) -> FockModule:
    """The Fock module of --momentum."""
    return FockModule(jsonio.rational_from_json(args.momentum, "--momentum"))


def _emit(text: str, args) -> None:
    _emit_chunks((text,), args)


def _emit_chunks(chunks: Iterable[str], args) -> None:
    """Write text pieces one at a time to --out or stdout; the whole text is never built."""
    out = getattr(args, "out", None)
    if out:
        base = os.environ.get("BLOCKSEW_OUTDIR", "")
        path = out if os.path.isabs(out) or not base else os.path.join(base, out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _csv_value(val) -> str:
    """A coefficient as one CSV field: a rational as is, a vector's entries
    joined by ';', a matrix's rows joined so and separated by '|'."""
    c = jsonio.value_to_json(val)
    if isinstance(c, str):
        return c
    return "|".join(map(";".join, c)) if isinstance(val, QMat) else ";".join(c)


def _series_csv(series: TruncSeries) -> Iterator[str]:
    yield "monomial,log,coefficient\n"
    for (exps, logs), val in sorted(series.terms.items()):
        mono = ";".join(format_rational(o + n) for o, n in zip(series.offset, exps))
        lg = ";".join(str(l) for l in logs)
        yield f"{mono},{lg},{_csv_value(val)}\n"


def _emit_series(series: TruncSeries, args) -> None:
    """The series as CSV rows or as its JSON document, written term by term."""
    chunks = _series_csv(series) if args.format == "csv" else jsonio.series_json_chunks(series)
    _emit_chunks(chunks, args)


def _emit_matrix(mat, module, args) -> int:
    """Print a matrix on the module's basis, each row and column labelled by its partition.

    A raising mode's rows run to a higher weight than its columns; the basis
    orders are nested, so one list of max(nrows, ncols) labels serves both."""
    n = 0
    while module.dim(n) < max(mat.nrows, mat.ncols):
        n += 1
    labels = [",".join(map(str, mu)) for mu in module.basis(n)]
    _emit(jsonio.dumps_canonical(jsonio.matrix_to_json(mat, labels)), args)
    return 0


def _report(ok: bool, report: dict, args) -> int:
    """Print a check's report with its verdict "ok"; the exit status is 0 if ok, else 1."""
    _emit(jsonio.dumps_canonical({"ok": ok, **report}), args)
    return 0 if ok else 1


# -- coord -------------------------------------------------------------------


def cmd_coord_extract_c(args) -> int:
    jet = jsonio.jet_from_json(_read_json(args.input))
    if args.order and (jet.exact or args.order <= jet.order):
        jet = jet.truncate(args.order)
    ec = extract_c(jet)
    doc = {"c0": format_rational(ec.c0), "cs": [format_rational(c) for c in ec.cs]}
    if jet.order >= 3 or jet.exact:
        doc["c2_closed_form"] = format_rational(c2_formula(jet))
    _emit(jsonio.dumps_canonical(doc), args)
    return 0


def cmd_coord_u_op(args) -> int:
    jet = jsonio.jet_from_json(_read_json(args.input))
    module = _fock_module(args)
    return _emit_matrix(u_matrix(jet, module, args.trunc), module, args)


def cmd_coord_check_huang(args) -> int:
    module = vacuum_module()
    lam = jsonio.rational_from_json(args.lam, "--lam")
    cases = {
        "lam-z": CoordJet.from_poly([lam]),
        "quadratic": CoordJet.from_poly([1, 1]),
        "mobius": CoordJet([Q(1)] * 40),
    }
    alpha = cases[args.case]
    lo, hi = args.window
    if lo > hi:
        raise jsonio.SchemaError("--window", "expected LO <= HI")
    failures = []
    states = [{mu: Q(1)} for mu in FockModule.basis(args.wmax)]
    pairs = [(v, w) for v in states for w in states]
    for (v, w), (ok, rep) in zip(pairs, huang_conjugation_checks(alpha, pairs, module, lo, hi)):
        if not ok:
            failures.append(
                {
                    "v": [list(k) for k in v],
                    "w": [list(k) for k in w],
                    "first": [str(x) for x in rep["discrepancies"][0]],
                }
            )
    report = {"case": args.case, "window": [lo, hi], "checked": len(pairs), "failures": failures}
    return _report(not failures, report, args)


# -- voa ---------------------------------------------------------------------


# the named states of --state, and the states sew invariance checks
_STATES = {"vacuum": VACUUM, "boson": BOSON, "omega": CONFORMAL}


def _parse_state(name: str):
    if name in _STATES:
        return dict(_STATES[name])
    parts = jsonio._integers(name, None, "--state", "expected vacuum, boson, omega or a partition such as 2,1")
    if min(parts) < 1:
        raise jsonio.SchemaError("--state", "the parts of a partition are positive integers")
    return {tuple(sorted(parts, reverse=True)): Q(1)}


def cmd_voa_dump_mode(args) -> int:
    module = _fock_module(args)
    n = args.trunc
    if args.kind == "heisenberg":
        mat = module.heisenberg_matrix(args.index, n)
    elif args.kind == "virasoro":
        mat = module.virasoro_matrix(args.index, n)
    elif args.kind == "vertex":
        mat = module.vertex_matrix(_parse_state(args.state), args.index, n)
    else:
        mat = module.contragredient_matrix(_parse_state(args.state), args.index, n)
    return _emit_matrix(mat, module, args)


def _bracket_failures(module: FockModule, mode, m: int, k: int, n: int, s: int, z: Fraction) -> int:
    """How many basis vectors of weight <= n break [X_m, X_k] = s X_{m+k} + z I,
    for X the modes whose snapshots ``mode(index, src_n, tgt_n)`` gives.

    X_k raises weights by at most up(k) = max(0, -k), so with X_k snapshot
    from weights <= n to n + up(k) and X_m from there to top = n + up(m) +
    up(k) (and the other order alike) every product is exact.  The identity
    is checked on integer rows over one common denominator, column by column.
    """
    up = lambda i: max(0, -i)
    top = n + up(m) + up(k)
    # (integer rows, factor): X_m X_k - X_k X_m - s X_{m+k} - z I
    parts = []
    for a, b, sign in ((m, k, 1), (k, m, -1)):
        xa, xb = mode(a, n + up(b), top), mode(b, n, n + up(b))
        parts.append((_int_product(xa.nums, xb.nums), Q(sign, xa.den * xb.den)))
    if s:
        x = mode(m + k, n, top)
        parts.append((x.nums, Q(-s, x.den)))
    if z:
        parts.append(({i: {i: 1} for i in range(module.dim(n))}, -z))
    defect = {}
    for (rows, _), f in zip(parts, _over_one_den(f for _, f in parts)[0]):
        _add_scaled(defect, rows, f)
    return len({j for row in defect.values() for j, x in row.items() if x})


def cmd_voa_check_relations(args) -> int:
    module = _fock_module(args)
    failures = []
    n = args.trunc
    rng = args.range
    # [X_m, X_k] = s(m, k) X_{m+k} + delta_{m+k,0} z(m): name, snapshot accessor, mode range, s, z
    families = (
        ("heisenberg", module.heisenberg_matrix, rng, lambda m, k: 0, lambda m: Q(m)),
        ("virasoro", module.virasoro_matrix, min(rng, 3), lambda m, k: m - k, lambda m: Q(m ** 3 - m, 12)),
    )
    for name, mode, r, s, z in families:
        for m in range(-r, r + 1):
            for k in range(-r, r + 1):
                count = _bracket_failures(module, mode, m, k, n, s(m, k), z(m) if m + k == 0 else Q(0))
                failures += [[name, m, k]] * count
    if module.apply_virasoro(2, CONFORMAL) != {(): Q(1, 2)}:
        failures.append(["central-charge"])
    # a_0 is central, so no bracket sees the momentum
    if module.apply_heisenberg(0, VACUUM) != ({(): module.momentum} if module.momentum else {}):
        failures.append(["momentum"])
    report = {"trunc": n, "range": rng, "failures": failures}
    return _report(not failures, report, args)


# -- schwarz -----------------------------------------------------------------


def cmd_schwarz_sd(args) -> int:
    jet = jsonio.jet_from_json(_read_json(args.input))
    _emit_series(schwarzian(jet, args.order), args)
    return 0


def cmd_schwarz_cocycle(args) -> int:
    rnd = random.Random(args.seed)

    def rjet():
        lead = Q(rnd.choice([x for x in range(-3, 4) if x]))
        return CoordJet([lead] + [Q(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(args.order + 3)])

    failures = []
    for trial in range(args.count):
        eta, mu, f = rjet(), rjet(), rjet()
        if not cocycle_check(eta, mu, f, args.order):
            failures.append(trial)
    report = {"count": args.count, "order": args.order, "seed": args.seed, "failures": failures}
    return _report(not failures, report, args)


def cmd_schwarz_term(args) -> int:
    doc = _read_json(args.input)

    def series(x, path):
        return _coefficients(x, path, lambda shape: shape == (), "a rational")

    def series_list(key):
        xs = doc.get(key, [])
        if not isinstance(xs, list):
            raise jsonio.SchemaError(key, "expected a list of series")
        return [series(x, f"{key}[{i}]") for i, x in enumerate(xs)]

    s_xi, s_pi, a, b = (series(jsonio.require(doc, k, "input"), k) for k in ("S_xi", "S_pi", "a", "b"))
    s_eta, h = series_list("S_eta"), series_list("h")
    c = jsonio.rational_from_json(doc.get("c", "1"), "input.c")
    order = _setting(args, doc, "order", jsonio.natural, 6)
    _emit_series(projective_term(s_xi, s_pi, s_eta, a, b, h, c, order), args)
    return 0


# -- sew ---------------------------------------------------------------------


def _module_from_json(doc, path):
    kind = jsonio._object(doc, path).get("type", "fock")
    if kind == "fock":
        return FockModule(jsonio.rational_from_json(doc.get("momentum", "0"), f"{path}.momentum"))
    if kind == "toy":
        dims = jsonio.require(doc, "dims", path)
        if not isinstance(dims, list):
            raise jsonio.SchemaError(f"{path}.dims", "expected a list of non-negative integers")
        dims = [jsonio.natural(d, f"{path}.dims[{i}]") for i, d in enumerate(dims)]
        nil_doc = jsonio.require(doc, "nilpotents", path)
        if not isinstance(nil_doc, list) or len(nil_doc) != len(dims):
            raise jsonio.SchemaError(f"{path}.nilpotents", f"expected a list of {len(dims)} matrices, one per weight")
        nil = [
            jsonio.matrix_rows_from_json(m, f"{path}.nilpotents[{i}]") if m else QMat(d, d)
            for i, (d, m) in enumerate(zip(dims, nil_doc))
        ]
        return NilpotentToyModule(dims, nil, offset=jsonio.rational_from_json(doc.get("offset", "0"), f"{path}.offset"))
    raise jsonio.SchemaError(path, f"unknown module type {kind!r}")


def cmd_sew_run(args) -> int:
    doc = _read_json(args.input)
    module = _module_from_json(doc.get("module", {}), "input.module")
    block_doc = jsonio._object(jsonio.require(doc, "block", "input"), "input.block")
    slots = jsonio.require(block_doc, "slots", "input.block")
    if not isinstance(slots, list):
        raise jsonio.SchemaError("input.block.slots", "expected a list of dimension lists")
    for s, dims in enumerate(slots):
        if not isinstance(dims, list) or not all(type(d) is int and d >= 0 for d in dims):
            raise jsonio.SchemaError(f"input.block.slots[{s}]", "expected a list of non-negative integers")
    sizes = [sum(dims) for dims in slots]
    pair = block_doc.get("pair")
    if pair is not None:
        pair = jsonio.indices(pair, [len(slots)] * 2, "input.block.pair", "two distinct slot numbers")
        if pair[0] == pair[1]:
            raise jsonio.SchemaError("input.block.pair", "expected two distinct slot numbers")
    entries_doc = block_doc.get("entries", [])
    if not isinstance(entries_doc, list):
        raise jsonio.SchemaError("input.block.entries", "expected a list")
    entries = {}
    for n, e in enumerate(entries_doc):
        path = f"input.block.entries[{n}]"
        idx = jsonio.require(jsonio._object(e, path), "idx", path)
        idx = jsonio.indices(idx, sizes, f"{path}.idx", f"{len(sizes)} indices, each in [0, its slot dimension)")
        if idx in entries:
            first = list(entries).index(idx)
            raise jsonio.SchemaError(f"{path}.idx", f"repeats the idx of input.block.entries[{first}]")
        entries[idx] = jsonio.rational_from_json(jsonio.require(e, "c", path), f"{path}.c")
    block = SewingBlock(slots, entries, pair_slots=pair)
    inputs = {}
    for k, v in jsonio._object(doc.get("inputs", {}), "input.inputs").items():
        path = f"input.inputs.{k}"
        (s,) = jsonio._integers(k, 1, path, "expected a slot number in plain decimal form")
        if s not in range(len(slots)) or s in (pair or ()):
            raise jsonio.SchemaError(path, "names no retained slot")
        inputs[s] = QVec.from_list(jsonio.rationals(v, path, sizes[s]))
    order = _setting(args, doc, "order", jsonio.natural, 6)
    normalized = jsonio.boolean(doc.get("normalized", False), "input.normalized")
    series = sew(block, inputs, module, order, normalized=normalized)
    _emit_series(series, args)
    return 0


def _character_csv(series: TruncSeries) -> Iterator[str]:
    yield "n,coefficient\n"
    for (exps, _logs), val in sorted(series.terms.items()):
        yield f"{format_rational(series.offset[0] + exps[0])},{format_rational(val)}\n"


def cmd_sew_character(args) -> int:
    if args.module != "fock":
        raise jsonio.SchemaError("--module", f"unknown module {args.module!r}")
    module = _fock_module(args)
    # the pairing is the sum of its weight blocks and sewing is linear in the
    # block, so one weight block is sewn at a time and only one is held
    series = None
    for n in range(args.order + 1):
        block = SewingBlock.pairing(module, args.order, weight=n)
        part = sew(block, {}, module, args.order, normalized=args.normalized)
        series = part if series is None else series + part
    if args.format == "csv":
        _emit_chunks(_character_csv(series), args)
    else:
        _emit_series(series, args)
    return 0


def cmd_sew_residue_check(args) -> int:
    module = vacuum_module()
    failures = []
    spans = [{mu: Q(1)} for mu in FockModule.basis(args.wmax)]
    for u in spans:
        for ax in range(args.bidegree + 1):
            for bx in range(args.bidegree + 1):
                f = TruncSeries.monomial(
                    1, ("x", "y"), {"x": args.order, "y": args.order}, {"x": ax, "y": bx}
                )
                ok, _o, _s = residue_identity_check(u, f, module, args.order)
                if not ok:
                    failures.append({"u": [list(k) for k in u], "f": [ax, bx]})
    report = {"order": args.order, "wmax": args.wmax, "failures": failures}
    return _report(not failures, report, args)


def cmd_sew_invariance(args) -> int:
    module = vacuum_module()
    n = args.weight_cap + 6
    block = SewingBlock.pairing(module, n)
    points = [
        SpherePoint(Q(0), CoordJet.identity(), module, dual=False),
        SpherePoint(INFINITY, CoordJet.identity(), module, dual=True),
    ]
    failures = []
    for name, v in _STATES.items():
        for k in range(args.kmin, args.kmax + 1):
            ok, fails = genus0_invariance_check(block, points, v, k, args.weight_cap)
            if not ok:
                failures.append({"v": name, "k": k, "count": len(fails)})
    report = {"weight_cap": args.weight_cap, "k": [args.kmin, args.kmax], "failures": failures}
    return _report(not failures, report, args)


# -- fuchs -------------------------------------------------------------------


def _psi(doc, vars, fits, want: str) -> TruncSeries:
    """The document's psi: a series in vars, the variables of what it must solve, with coefficients as for _coefficients."""
    psi = _coefficients(doc["psi"], "psi", fits, want)
    if psi.vars != vars:
        raise jsonio.SchemaError("psi.vars", f"expected {list(vars)}, the variables of what psi must solve")
    return psi


def _system_psi(doc, system) -> TruncSeries:
    """The document's psi, a series of vectors of the system's dimension in the system's variables,
    at integer offsets if the system's omega is nonzero: omega lies at offset 0."""
    psi = _psi(doc, system.variables, lambda s: s == (system.dim,), f"a vector of the system's dimension {system.dim}")
    if any(system.omega) and any(o.denominator != 1 for o in psi.offset):
        raise jsonio.SchemaError("psi.offset", "a nonzero omega lies at offset 0, so psi's offsets must be integers")
    return psi


def cmd_fuchs_solve(args) -> int:
    doc = _read_json(args.input)
    system, seeds = jsonio.fuchs_system_from_json(doc)
    order = _setting(args, doc, "order", jsonio.natural, 10)
    psi = solve_formal(system, seeds, order=order, log_bound=_setting(args, doc, "log_bound", jsonio.natural, 0))
    _emit_series(psi, args)
    return 0


def cmd_fuchs_certify(args) -> int:
    doc = _read_json(args.input)
    system, seeds = jsonio.fuchs_system_from_json(doc)
    if "psi" in doc:
        if "seeds" in doc:
            raise jsonio.SchemaError("system.seeds", "a supplied psi is certified as given and takes no seeds")
        psi = _system_psi(doc, system)
        # a supplied psi must solve the system before its growth is certified
        res = residual(system, psi)
        if not res.is_zero():
            first = min(exps[0] for exps, _logs in res.nums)
            message = f"psi does not solve the system: residual nonzero at n={first}"
            return _report(False, {"violation_index": first, "message": message}, args)
    else:
        order = _setting(args, doc, "order", jsonio.natural, 30)
        psi = solve_formal(system, seeds, order=order, log_bound=_setting(args, doc, "log_bound", jsonio.natural, 0))
    r1 = _setting(args, doc, "r1", jsonio.rational_from_json, "1/2")
    try:
        cert = certify(system, psi, r1)
    except BoundViolation as e:
        return _report(False, {"violation_index": e.index, "message": str(e)}, args)
    _emit(jsonio.dumps_canonical(cert.to_dict()), args)
    return 0


def cmd_fuchs_residual(args) -> int:
    doc = _read_json(args.input)
    jsonio.require(doc, "psi", "input")
    if "system" in doc:
        system, _ = jsonio.fuchs_system_from_json(doc["system"])
        res = residual(system, _system_psi(doc, system))
    elif "Omega" in doc:
        # psi is what Omega's coefficients multiply: anything for rationals, d rows for d x d matrices
        square = lambda s: not s or (len(s) == 2 and s[0] == s[1])
        omega = _coefficients(doc["Omega"], "Omega", square, "a rational or a square matrix")
        d = next((c.nrows for c in omega.nums.values() if isinstance(c, QMat)), None)
        want = "a rational, a vector or a matrix" if d is None else f"a vector of length {d} or a matrix of {d} rows"
        psi = _psi(doc, omega.vars, lambda s: d is None or s[:1] == (d,), want)
        res = ode_residual(omega, psi, var=psi.vars[0])
    else:
        raise jsonio.SchemaError("input", "need 'system' or 'Omega'")
    ok = res.is_zero()
    return _report(ok, {"residual": "0" if ok else jsonio.series_to_json(res)}, args)


# -- wiring ------------------------------------------------------------------


def _common(p, order_default=None, with_input=False):
    if with_input:
        p.add_argument("input", nargs="?", default="-", help="input JSON file ('-' for stdin)")
    p.add_argument("--order", type=int, default=order_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="output file (relative paths go under $BLOCKSEW_OUTDIR)")


def _coord_commands(sub) -> None:
    p = sub.add_parser("extract-c")
    _common(p, with_input=True)
    p.set_defaults(fn=cmd_coord_extract_c)
    p = sub.add_parser("u-op")
    _common(p, with_input=True)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--momentum", default="0")
    p.set_defaults(fn=cmd_coord_u_op)
    p = sub.add_parser("check-huang")
    _common(p)
    p.add_argument("--case", choices=["lam-z", "quadratic", "mobius"], default="lam-z")
    p.add_argument("--lam", default="3/2")
    p.add_argument("--window", type=int, nargs=2, default=[-4, 6])
    p.add_argument("--wmax", type=int, default=2)
    p.set_defaults(fn=cmd_coord_check_huang)


def _voa_commands(sub) -> None:
    p = sub.add_parser("dump-mode")
    _common(p)
    p.add_argument("--kind", choices=["heisenberg", "virasoro", "vertex", "contragredient"], required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--momentum", default="0")
    p.add_argument("--state", default="boson", help="vacuum|boson|omega or comma-separated partition")
    p.set_defaults(fn=cmd_voa_dump_mode)
    p = sub.add_parser("check-relations")
    _common(p)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--range", type=int, default=3)
    p.add_argument("--momentum", default="0")
    p.set_defaults(fn=cmd_voa_check_relations)


def _schwarz_commands(sub) -> None:
    p = sub.add_parser("sd")
    _common(p, order_default=8, with_input=True)
    p.set_defaults(fn=cmd_schwarz_sd)
    p = sub.add_parser("cocycle")
    _common(p, order_default=4)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(fn=cmd_schwarz_cocycle)
    p = sub.add_parser("term")
    _common(p, with_input=True)
    p.set_defaults(fn=cmd_schwarz_term)


def _sew_commands(sub) -> None:
    p = sub.add_parser("run")
    _common(p, with_input=True)
    p.set_defaults(fn=cmd_sew_run)
    p = sub.add_parser("character")
    _common(p, order_default=10)
    p.add_argument("--module", default="fock")
    p.add_argument("--momentum", default="0")
    p.add_argument("--standard", dest="normalized", action="store_false")
    p.set_defaults(fn=cmd_sew_character, format="csv")
    p = sub.add_parser("residue-check")
    _common(p, order_default=4)
    p.add_argument("--wmax", type=int, default=2)
    p.add_argument("--bidegree", type=int, default=2)
    p.set_defaults(fn=cmd_sew_residue_check)
    p = sub.add_parser("invariance")
    _common(p)
    p.add_argument("--weight-cap", type=int, default=4)
    p.add_argument("--kmin", type=int, default=-2)
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(fn=cmd_sew_invariance)


def _fuchs_commands(sub) -> None:
    p = sub.add_parser("solve")
    _common(p, with_input=True)
    p.set_defaults(fn=cmd_fuchs_solve)
    p = sub.add_parser("certify")
    _common(p, with_input=True)
    p.add_argument("--r1")
    p.set_defaults(fn=cmd_fuchs_certify)
    p = sub.add_parser("residual")
    _common(p, with_input=True)
    p.set_defaults(fn=cmd_fuchs_residual)


_GROUPS = {
    "coord": _coord_commands,
    "voa": _voa_commands,
    "schwarz": _schwarz_commands,
    "sew": _sew_commands,
    "fuchs": _fuchs_commands,
}


def build_parser(argv: Optional[List[str]] = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the arguments it will parse, it fills in
    the commands of their group only (the first non-option argument names it);
    no other group's commands can be reached or shown."""
    ap = argparse.ArgumentParser(prog="blocksew")
    top = ap.add_subparsers(dest="group", required=True)
    wanted = None if argv is None else next((a for a in argv if not a.startswith("-")), None)
    for name, add_commands in _GROUPS.items():
        group = top.add_parser(name)
        if argv is None or name == wanted:
            add_commands(group.add_subparsers(dest="cmd", required=True))
    return ap


# size arguments; a negative value would silently give an empty result
_SIZES = ("order", "trunc", "weight_cap", "wmax", "bidegree", "range", "count")


def main(argv: Optional[List[str]] = None) -> int:
    # exact output may need integers longer than CPython's default str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        for name in _SIZES:
            if (getattr(args, name, None) or 0) < 0:
                raise jsonio.SchemaError("--" + name.replace("_", "-"), "must be non-negative")
        return args.fn(args)
    except jsonio.SchemaError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return 2
    except SeedError as e:
        # fuchs solve and certify read their seeds from the system's "seeds"
        (n,), (l,) = e.key
        sys.stderr.write(f"schema error: system.seeds.{n},{l}: {e.reason}\n")
        return 2
    except (SeriesError, FuchsError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
