"""Outside-in tracer: spans around the public functions of each layer.

The program's code is left alone.  ``install`` replaces each traced function
by a wrapper that records a span ``(name, parent, start, end, extra,
request)`` in memory; ``spans`` are written out once, when the traced run
ends.  Module
level functions are rebound in *every* ``blocksew`` module that holds them,
because ``from .x import y`` copies the reference; methods are replaced on
their class.  ``blocksew.schwarzian`` as an attribute of the package is the
re-exported function, not the submodule, so modules are looked up through
``importlib.import_module``.

Run as a script, it traces one CLI request:

    python bench/tracer.py SPANS_FILE -- coord u-op - --trunc 8

stdout and the exit status are those of the untraced command; the spans go
to SPANS_FILE as ``marshal`` data: ``{"names": [...], "spans": [...]}``.
"""

from __future__ import annotations

import importlib
import marshal
import sys
import time


def _vec_key(v):
    return tuple(sorted(v.items())) if isinstance(v, dict) else v


def _snapshot_key(method):
    def key(args, kwargs):
        self, rest = args[0], args[1:]
        return hash((id(self), method) + tuple(_vec_key(a) for a in rest) + tuple(sorted(kwargs.items())))

    return key


def _jet_key(args, kwargs):
    return hash(args[0])


# (module, attribute path, metric name, key on the arguments, value of the result)
TARGETS = [
    ("blocksew.fock", "FockModule.apply_heisenberg", "fock.apply_heisenberg", None, None),
    ("blocksew.fock", "FockModule.apply_virasoro", "fock.apply_virasoro", None, None),
    ("blocksew.fock", "FockModule.apply_vertex", "fock.apply_vertex", None, None),
    ("blocksew.fock", "FockModule.heisenberg_matrix", "fock.snapshot", _snapshot_key("a"), None),
    ("blocksew.fock", "FockModule.virasoro_matrix", "fock.snapshot", _snapshot_key("L"), None),
    ("blocksew.fock", "FockModule.vertex_matrix", "fock.snapshot", _snapshot_key("Y"), None),
    ("blocksew.fock", "FockModule.contragredient_matrix", "fock.snapshot", _snapshot_key("Yd"), None),
    ("blocksew.coords", "extract_c", "coords.extract_c", _jet_key, None),
    ("blocksew.coords", "u_apply", "coords.u_apply", None, None),
    ("blocksew.coords", "u_matrix", "coords.u_matrix", None, None),
    ("blocksew.coords", "u_matrix_dual", "coords.u_matrix_dual", None, None),
    ("blocksew.coords", "huang_conjugation_check", "coords.huang_conjugation_check", None, None),
    ("blocksew.linalg", "QMat.__matmul__", "linalg.QMat.matmul", None, None),
    ("blocksew.linalg", "solve", "linalg.solve", None, None),
    ("blocksew.series", "compose_jets", "series.compose_jets", None, None),
    ("blocksew.series", "reverse_jet", "series.reverse_jet", None, None),
    ("blocksew.series", "jet_compose", "series.jet_compose", None, None),
    ("blocksew.series", "LaurentJet.__mul__", "series.LaurentJet.mul", None, None),
    ("blocksew.series", "LaurentJet.__rmul__", "series.LaurentJet.mul", None, None),
    ("blocksew.series", "LaurentJet.inv", "series.LaurentJet.inv", None, None),
    ("blocksew.series", "TruncSeries.__mul__", "series.TruncSeries.mul", None, None),
    ("blocksew.series", "diagonal_contract", "series.diagonal_contract", None, None),
    ("blocksew.schwarzian", "schwarzian", "schwarzian.schwarzian", None, None),
    ("blocksew.schwarzian", "cocycle_check", "schwarzian.cocycle_check", None, None),
    ("blocksew.schwarzian", "projective_term", "schwarzian.projective_term", None, None),
    ("blocksew.schwarzian", "projective_term_multi", "schwarzian.projective_term_multi", None, None),
    ("blocksew.sewing", "sew", "sewing.sew", None, None),
    ("blocksew.sewing", "sew_multi", "sewing.sew_multi", None, None),
    ("blocksew.sewing", "SewingBlock.contract_slot", "sewing.SewingBlock.contract_slot", None, None),
    ("blocksew.sewing", "residue_identity_check", "sewing.residue_identity_check", None, None),
    ("blocksew.sewing", "genus0_invariance_check", "sewing.genus0_invariance_check", None, None),
    ("blocksew.fuchs", "solve_formal", "fuchs.solve_formal", None, None),
    ("blocksew.fuchs", "certify", "fuchs.certify", None, None),
    ("blocksew.fuchs", "residual", "fuchs.residual", None, None),
    ("blocksew.jsonio", "value_from_json", "jsonio.parse", None, None),
    ("blocksew.jsonio", "series_from_json", "jsonio.parse", None, None),
    ("blocksew.jsonio", "jet_from_json", "jsonio.parse", None, None),
    ("blocksew.jsonio", "matrix_from_json", "jsonio.parse", None, None),
    ("blocksew.jsonio", "fuchs_system_from_json", "jsonio.parse", None, None),
    ("blocksew.jsonio", "dumps_canonical", "jsonio.emit", None, len),
    ("blocksew.jsonio", "value_to_json", "jsonio.emit", None, None),
    ("blocksew.jsonio", "series_to_json", "jsonio.emit", None, None),
    ("blocksew.jsonio", "jet_to_json", "jsonio.emit", None, None),
    ("blocksew.jsonio", "matrix_to_json", "jsonio.emit", None, None),
    ("blocksew.cli", "main", "cli", None, None),
]


def layer_names():
    """The traced names in order: ``layer.fn`` reports calls and self time,
    a bare ``layer`` (``cli``) only its self time."""
    return list(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Spans kept in memory; ``request`` tags the spans of one request."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, parent span index or -1, start, end, extra, request)
        self.stack = []
        self.request = 0
        self._undo = []

    def _wrap(self, fn, name, key, value):
        if name not in self.names:
            self.names.append(name)
        tag = self.names.index(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            extra = key(args, kwargs) if key else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if value:
                    extra = value(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (tag, parent, t0, t1, extra, tracer.request)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules=("blocksew.cli",)):
        """Import ``modules`` and wrap every target whose module is loaded."""
        for name in modules:
            importlib.import_module(name)
        loaded = [m for n, m in list(sys.modules.items()) if n == "blocksew" or n.startswith("blocksew.")]
        for mod_name, path, name, key, value in TARGETS:
            if mod_name not in sys.modules:
                continue
            mod = importlib.import_module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, name, key, value))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(orig, name, key, value)
            for m in loaded:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def data(self):
        return {"names": self.names, "spans": self.spans}

    def dump(self, path):
        with open(path, "wb") as fh:
            marshal.dump(self.data(), fh)


def _main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- BLOCKSEW_ARGS...")
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("blocksew.cli")
    sys.argv = ["blocksew"] + cli_args
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
