"""Span tracing of fellkit layers, installed from outside the package.

Each traced function is replaced by one wrapper wherever it is bound in a
``fellkit`` module namespace (a function imported by name into five modules
is rebound in all five), and each traced method on its class.  A wrapper
records one span per call: name, start, end and the span that was open when
it began.  Spans live in flat arrays until the run ends, so a report with a
few hundred thousand calls costs a few megabytes, not a dict per call.

Self time of a span is its duration minus the time its child spans cover;
calls are single-threaded and properly nested, so the children of one span
never overlap and their coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (module, qualified name) of every traced callable, by the module that
# defines it; the span is named "<module>.<qualified name>".  Wrapping by
# identity, not by call site, keeps a metric when a caller moves or a
# re-export is dropped.
TRACED = (
    ("algebra", "FiniteCStarAlgebra.contains"),
    ("cli", "run_report"),
    ("cocycle", "cocycle_identity_residual"),
    ("cocycle", "extract_cocycle"),
    ("dynamics", "a_dynamical_generation_check"),
    ("dynamics", "check_unitary_normalizer_theorem"),
    ("embedding", "bridge_round_trip"),
    ("embedding", "read_off_pair"),
    ("fellbundle", "ConditionalExpectation.verify"),
    ("fellbundle", "FellBundleModel.multiply"),
    ("fellbundle", "check_fell_axioms"),
    ("fellbundle", "is_saturated"),
    ("groupoid", "PairGroupoid.compose"),
    ("linalg", "is_in_span"),
    ("linalg", "operator_norm"),
    ("linalg", "orthonormal_span_basis"),
    ("linalg", "span_dimension"),
    ("serialize", "model_from_json"),
    ("subalgebra", "classify_pair"),
    ("subalgebra", "is_normalizer"),
    ("subalgebra", "normalizer_support"),
)

# The suites run_report dispatches to; their spans are the top-level stages.
STAGES = (("cli", "run_check", "stage."), ("cli", "run_phi", "stage.phi-"))

# Functions that stack a matrix family into one (rows × entries) array, and
# the position of the family among their arguments.
STACKING = {
    "linalg.is_in_span": 1,
    "linalg.orthonormal_span_basis": 0,
    "linalg.span_dimension": 0,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.stack_bytes = 0  # largest stacked family, rows × entries × 16 B

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _enter(self, idx: int) -> int:
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        family_arg = STACKING.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if family_arg is not None and len(args) > family_arg:
                family = args[family_arg]
                if len(family):
                    size = len(family) * getattr(family[0], "size", 1) * 16
                    self.stack_bytes = max(self.stack_bytes, size)
            sid = self._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid)

        return traced

    def wrap_stage(self, prefix: str, fn):
        """Like wrap, but the span is named after the suite (first argument)."""

        @functools.wraps(fn)
        def traced(what, *args, **kwargs):
            sid = self._enter(self._name_index(prefix + what))
            try:
                return fn(what, *args, **kwargs)
            finally:
                self._exit(sid)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.name)
        for sid in range(len(self.name)):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for sid in range(len(self.name)):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[sid]
        return out


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in loaded fellkit modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fellkit" or mod_name.startswith("fellkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name; return the names that could not be found."""
    missing = []
    for mod_name, qualname in TRACED:
        span = f"{mod_name}.{qualname}"
        mod = importlib.import_module(f"fellkit.{mod_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(span)
            continue
        wrapped = tracer.wrap(span, fn)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _rebind(fn, wrapped)
    for mod_name, attr, prefix in STAGES:
        mod = importlib.import_module(f"fellkit.{mod_name}")
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        _rebind(fn, tracer.wrap_stage(prefix, fn))
    return missing
