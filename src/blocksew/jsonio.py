"""JSON interchange for series, jets, matrices and solver inputs.

Rationals travel as decimal-free strings like "3/4" or "-2"; a series is

    {"vars": [...], "offset": {...}, "trunc": {...}, "logmax": {...},
     "terms": [{"n": [...], "l": [...], "c": "p/q" | [..] | [[..]]}]}

with vector and matrix coefficients as (nested) lists of rational strings.
Emitted documents are canonical: sorted keys, sorted terms, one trailing
newline, so identical inputs give byte-identical artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .fuchs import FuchsSystem
from .linalg import QMat, QVec, format_rational, parse_rational
from .series import CoordJet, TruncSeries, _numerators

Q = Fraction


class SchemaError(ValueError):
    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path


def require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing field")
    return obj[key]


def rational_from_json(x, path: str) -> Fraction:
    try:
        return parse_rational(x)
    except ValueError as e:
        raise SchemaError(path, str(e)) from None


def rationals(x, path: str, n: Optional[int] = None) -> List[Fraction]:
    """A JSON list of rational strings, of length n when n is given."""
    if not isinstance(x, list) or n not in (None, len(x)):
        raise SchemaError(path, "expected a list of rationals" if n is None else f"expected a list of {n} rationals")
    return [rational_from_json(c, f"{path}[{i}]") for i, c in enumerate(x)]


def matrix_rows_from_json(rows, path: str) -> QMat:
    """A matrix given as a list of equally long rows of rational strings."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows) or len(set(map(len, rows))) > 1:
        raise SchemaError(path, "expected a list of equally long rows")
    return QMat.from_rows([rationals(row, f"{path}[{i}]") for i, row in enumerate(rows)])


def value_to_json(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, QVec):
        return [format_rational(x) for x in v.to_list()]
    if isinstance(v, QMat):
        return [[format_rational(x) for x in row] for row in v.to_rows()]
    raise TypeError(f"unsupported coefficient {type(v)}")


def value_from_json(c, path: str):
    if isinstance(c, str):
        return rational_from_json(c, path)
    if isinstance(c, list):
        if c and isinstance(c[0], list):
            return matrix_rows_from_json(c, path)
        return QVec.from_list(rationals(c, path))
    raise SchemaError(path, "coefficient must be a rational string or (nested) list")


def _series_head(s: TruncSeries) -> dict:
    """Every field of a series document but its terms."""
    return {
        "vars": list(s.vars),
        "offset": {v: format_rational(o) for v, o in zip(s.vars, s.offset)},
        "trunc": {v: t for v, t in zip(s.vars, s.trunc)},
        "logmax": {v: m for v, m in zip(s.vars, s.logmax)},
    }


def _series_terms(s: TruncSeries) -> Iterator[dict]:
    """The term documents of a series, in key order, built one at a time."""
    for (exps, logs), val in sorted(s.terms.items()):
        yield {"n": list(exps), "l": list(logs), "c": value_to_json(val)}


def series_to_json(s: TruncSeries) -> dict:
    return {**_series_head(s), "terms": list(_series_terms(s))}


def series_json_chunks(s: TruncSeries) -> Iterator[str]:
    """The text of ``dumps_canonical(series_to_json(s))``, one term at a time.

    The whole document is never built: each field is dumped on its own and
    re-indented to its depth, which is how ``json.dumps`` nests with
    ``indent=1`` (a dumped string holds no raw newline).
    """
    head = _series_head(s)
    sep = "{"
    for key in sorted([*head, "terms"]):
        yield f"{sep}\n {json.dumps(key)}: "
        sep = ","
        if key != "terms":
            yield json.dumps(head[key], sort_keys=True, indent=1).replace("\n", "\n ")
            continue
        item_sep = "["
        for term in _series_terms(s):
            yield item_sep + "\n  " + json.dumps(term, sort_keys=True, indent=1).replace("\n", "\n  ")
            item_sep = ","
        yield "[]" if item_sep == "[" else "\n ]"
    yield "\n}\n"


def natural(x, path: str) -> int:
    """A JSON non-negative integer; a bool, float or string is a schema error."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise SchemaError(path, "expected a non-negative integer")
    return x


def boolean(x, path: str) -> bool:
    """A JSON true or false; a string, number or null is a schema error."""
    if not isinstance(x, bool):
        raise SchemaError(path, "expected true or false")
    return x


def _object(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(path, "expected an object")
    return x


def indices(x, bounds: Sequence[int], path: str, expected: str) -> Tuple[int, ...]:
    """A JSON list of ``len(bounds)`` integers with ``0 <= x[i] < bounds[i]``,
    such as a term's ``n`` or a table entry's index; else a schema error
    saying what was ``expected``."""
    if not isinstance(x, list) or len(x) != len(bounds) or not all(
        type(i) is int and 0 <= i < b for i, b in zip(x, bounds)
    ):
        raise SchemaError(path, f"expected {expected}")
    return tuple(x)


def _integers(text: str, count: Optional[int], path: str, msg: str) -> Tuple[int, ...]:
    """``count`` comma-separated integers (any number when None), each in its one
    plain decimal spelling, so that no two texts name one tuple: "2" and "-1",
    not "02", "+2", " 2", "-0" or "1_0"."""
    parts = text.split(",")
    try:
        ints = tuple(map(int, parts))
    except ValueError:
        ints = None
    if ints is None or list(map(str, ints)) != parts or count not in (None, len(ints)):
        raise SchemaError(path, msg)
    return ints


def _per_variable(x, vars_: List[str], path: str, read) -> dict:
    """A per-variable field such as ``offset``: an object whose every key names a variable."""
    out = {}
    for v, val in _object(x, path).items():
        if v not in vars_:
            raise SchemaError(f"{path}.{v}", f"names no variable of {vars_}")
        out[v] = read(val, f"{path}.{v}")
    return out


def series_from_json(obj: dict, path: str = "series", value=value_from_json) -> TruncSeries:
    """A series document; value(c, path) reads each term's coefficient."""
    _object(obj, path)
    vars_ = require(obj, "vars", path)
    if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_) or len(set(vars_)) != len(vars_):
        raise SchemaError(f"{path}.vars", "expected a list of distinct variable names")
    trunc = _per_variable(require(obj, "trunc", path), vars_, f"{path}.trunc", natural)
    for v in vars_:
        require(trunc, v, f"{path}.trunc")
    offset = _per_variable(obj.get("offset", {}), vars_, f"{path}.offset", rational_from_json)
    logmax = _per_variable(obj.get("logmax", {}), vars_, f"{path}.logmax", natural)
    shape = TruncSeries(vars_, trunc, offset=offset, logmax=logmax)
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise SchemaError(f"{path}.terms", "expected a list")
    # a term's n and l: one integer per variable, each between 0 and its bound
    keys = [
        (f, [b + 1 for b in bounds], f"{len(bounds)} integers, each between 0 and its bound in {list(bounds)}")
        for f, bounds in (("n", shape.trunc), ("l", shape.logmax))
    ]
    values: Dict[tuple, object] = {}
    for i, term in enumerate(terms):
        tp = f"{path}.terms[{i}]"
        _object(term, tp)
        exps, logs = (indices(require(term, f, tp), bounds, f"{tp}.{f}", what) for f, bounds, what in keys)
        if (exps, logs) in values:
            first = list(values).index((exps, logs))
            raise SchemaError(f"{tp}.n", f"repeats the n and l of {path}.terms[{first}]")
        values[exps, logs] = value(require(term, "c", tp), f"{tp}.c")
    # every key is checked above; the rationals go over one lcm, and a mix of
    # coefficient kinds is a TypeError
    return shape._like(*_numerators(values))


def jet_to_json(j: CoordJet) -> dict:
    return {"taylor": [format_rational(c) for c in j.coeffs], "exact": j.exact}


def jet_from_json(obj: dict, path: str = "jet") -> CoordJet:
    coeffs = rationals(require(_object(obj, path), "taylor", path), f"{path}.taylor")
    if not coeffs:
        raise SchemaError(f"{path}.taylor", "empty jet")
    return CoordJet(coeffs, exact=boolean(obj.get("exact", False), f"{path}.exact"))


def matrix_to_json(m: QMat, labels: Optional[List[str]] = None) -> dict:
    out = {
        "shape": [m.nrows, m.ncols],
        "entries": [
            {"i": i, "j": j, "c": format_rational(v)}
            for i, row in sorted(m.rows.items())
            for j, v in sorted(row.items())
        ],
    }
    if labels is not None:
        out["basis"] = labels
    return out


def matrix_from_json(obj: dict, path: str = "matrix") -> QMat:
    shape = require(_object(obj, path), "shape", path)
    if not (isinstance(shape, list) and len(shape) == 2 and all(type(x) is int and x >= 0 for x in shape)):
        raise SchemaError(f"{path}.shape", "expected two non-negative integers")
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise SchemaError(f"{path}.entries", "expected a list of entries")
    rows: Dict[int, Dict[int, Fraction]] = {}
    first: Dict[Tuple[int, int], int] = {}
    for n, e in enumerate(entries):
        ep = f"{path}.entries[{n}]"
        _object(e, ep)
        i, j = indices([e.get("i"), e.get("j")], shape, ep, f"integers 0 <= i < {shape[0]} and 0 <= j < {shape[1]}")
        if first.setdefault((i, j), n) != n:
            raise SchemaError(ep, f"repeats the i and j of {path}.entries[{first[i, j]}]")
        rows.setdefault(i, {})[j] = rational_from_json(require(e, "c", ep), f"{ep}.c")
    return QMat(*shape, rows)


def fuchs_system_from_json(obj: dict, path: str = "system") -> Tuple[FuchsSystem, Dict]:
    """Single-variable system {A: [..], omega: [..], tail: {C, a}, seeds: {..}}."""
    a_raw = require(_object(obj, path), "A", path)
    w_raw = require(obj, "omega", path)
    if not isinstance(a_raw, list) or not isinstance(w_raw, list):
        raise SchemaError(path, "A and omega must be coefficient lists")
    # the first coefficient fixes the dimension; every other must match it
    dim = None
    a_coeffs = []
    for k, mat in enumerate(a_raw):
        a = matrix_rows_from_json(mat, f"{path}.A[{k}]")
        dim = a.nrows if dim is None else dim
        if (a.nrows, a.ncols) != (dim, dim):
            raise SchemaError(f"{path}.A[{k}]", f"expected a {dim} x {dim} matrix")
        a_coeffs.append(a)
    w_coeffs = []
    for k, vec in enumerate(w_raw):
        w_coeffs.append(QVec.from_list(rationals(vec, f"{path}.omega[{k}]", dim)))
        dim = w_coeffs[-1].n
    if not dim:
        raise SchemaError(path, "need at least one coefficient, of dimension at least 1")
    tail = None
    if obj.get("tail") is not None:
        t = _object(obj["tail"], f"{path}.tail")
        tail = tuple(rational_from_json(require(t, k, f"{path}.tail"), f"{path}.tail.{k}") for k in ("C", "a"))
        for k, x in zip(("C", "a"), tail):
            if x < 0:
                raise SchemaError(f"{path}.tail.{k}", "a tail bound C a^n needs C >= 0 and a >= 0")
    seeds = {}
    for key, val in _object(obj.get("seeds", {}), f"{path}.seeds").items():
        # one spelling per step, so no two keys name one
        kp = f"{path}.seeds.{key}"
        seeds[_integers(key, 2, kp, "seed keys are 'n,l', two integers in plain decimal form")] = rationals(val, kp)
    return FuchsSystem.single(a_coeffs, w_coeffs, dim=dim, tail=tail), seeds


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"
