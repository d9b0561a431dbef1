"""Dispatch from a request's ``check`` record to the oracle for its output."""

from __future__ import annotations

import json
from fractions import Fraction

import oracles

Q = Fraction


def _ok_fields(doc, fields):
    if doc.get("ok") is not True:
        return "verdict is not ok"
    if doc.get("failures", []) != []:
        return "failures reported"
    for k, v in fields.items():
        if doc.get(k) != v:
            return f"field {k!r} is {doc.get(k)!r}, expected {v!r}"
    return None


def _sew_run(doc, req):
    spec = json.loads(req["stdin"])
    order, mom = req["check"]["order"], Q(req["check"]["momentum"])
    want = oracles.sew_run_expected(spec["block"], spec["inputs"], order)
    return oracles.check_univariate(doc, "q", want, offset=mom * mom / 2)


def _character(doc, c):
    coeffs, offset = oracles.character_expected(c["order"], Q(c["momentum"]), c["normalized"])
    return oracles.check_univariate(doc, "q", coeffs, offset=offset)


def _term(doc, req):
    spec = json.loads(req["stdin"])
    order = req["check"]["order"]
    return oracles.check_univariate(doc, "q", oracles.projective_term_expected(spec, order))


def _group_law(doc, c):
    if doc.get("ok") is not True:
        return "u(r1 o r2) != u(r1) u(r2)"
    taylor = [str(Q(c["a1"]) * Q(c["b1"]))]
    return oracles.check_u_op(doc["u"], taylor, c["trunc"])


def _sew_multi(doc, c):
    (n1, n2), (p1, p2) = c["orders"], [Q(p) for p in c["momenta"]]
    if doc["vars"] != ["q1", "q2"] or [Q(doc["offset"][v]) for v in ("q1", "q2")] != [p1 * p1 / 2, p2 * p2 / 2]:
        return "wrong variables or offsets"
    want = {
        ((a, b), (0, 0)): Q(oracles.partition_number(a) * oracles.partition_number(b))
        for a in range(n1 + 1)
        for b in range(n2 + 1)
    }
    return None if oracles.series_terms(doc) == want else "product of characters differs"


def _projective_term_multi(doc, req):
    a = req["args"]
    want = oracles.projective_term_multi_expected(a["pairs"], Q(a["c"]), a["order"])
    return None if oracles.series_terms(doc) == want else "projective term differs"


def check(req, stdout: str):
    """None if the output is right, else the reason it is wrong."""
    try:
        return _check(req, json.loads(stdout))
    except json.JSONDecodeError:
        return "output is not JSON"
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as e:
        return f"output does not have the expected shape: {e!r}"


def _check(req, doc):
    c = req["check"]
    kind = c["kind"]
    if kind == "ok":
        return _ok_fields(doc, c["fields"])
    if kind == "character":
        return _character(doc, c)
    if kind == "sew-run":
        return _sew_run(doc, req)
    if kind == "schwarzian":
        return oracles.check_schwarzian(doc, c["taylor"], c["order"])
    if kind == "term":
        return _term(doc, req)
    if kind == "fuchs-solve":
        return oracles.check_fuchs_recurrence(doc, json.loads(req["stdin"]), c["order"])
    if kind == "fuchs-certify":
        return oracles.check_certificate(doc, json.loads(req["stdin"]), c["order"])
    if kind == "group-law":
        return _group_law(doc, c)
    if kind == "sew-multi":
        return _sew_multi(doc, c)
    if kind == "projective-term-multi":
        return _projective_term_multi(doc, req)
    return f"no oracle for {kind!r}"
