"""In-memory call spans around the library's public functions, from outside.

The benchmark does not edit ``src/``.  It replaces functions by wrappers at
run time.  ``from .numerics import bussgang_mu`` binds a second name in the
importing module, so a wrapper is written into every loaded ``mimo_recal``
module that holds the original function object; calls through any binding
are then seen.  A target that a later change removes or renames is reported
as absent and counts 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

PACKAGE = "mimo_recal"


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _size(value) -> int:
    return int(np.size(value))


def _broadcast_size(a, b) -> int:
    return int(np.broadcast(np.asarray(a), np.asarray(b)).size)


# (module, function, work counter name or None, work(args, kwargs, result)).
# Modules are named as in ``mimo_recal.<module>``; metric names drop the
# leading underscore of ``_kernels`` because a metric name must start with a
# letter.
TARGETS = (
    ("numerics", "bussgang_mu", "elems",
     lambda a, k, r: _size(_arg(a, k, 0, "x"))),
    ("numerics", "bussgang_lambda", "elems",
     lambda a, k, r: _broadcast_size(_arg(a, k, 0, "a_sat"), _arg(a, k, 1, "sigma_x"))),
    ("hardware", "bussgang_decompose", None, None),
    ("hardware", "sspa_apply", "samples",
     lambda a, k, r: _size(_arg(a, k, 1, "x"))),
    ("hardware", "draw_system_hardware", None, None),
    ("_kernels", "effective_channels", "draws",
     lambda a, k, r: int(_arg(a, k, 0, "h").shape[0])),
    ("analysis", "estimate_sindr_mc", None, None),
    ("analysis", "sindr_zf_closed_all", None, None),
    ("calibration", "simulate_ota_training", None, None),
    ("calibration", "estimate_poly_coeffs_anchored", None, None),
    ("calibration", "linear_calibration", None, None),
    ("calibration", "slp_solve", "iterations", lambda a, k, r: int(r.iterations)),
    ("calibration", "calibrate", None, None),
    ("calibration", "calibration_phases", None, None),
    ("cli", "run_scenario", None, None),
    ("cli", "emit_csv", None, None),
)

# functions whose self time is reported (the rest report calls and inclusive s)
SELF_TIME = {
    "analysis.estimate_sindr_mc",
    "calibration.simulate_ota_training",
    "calibration.estimate_poly_coeffs_anchored",
    "calibration.calibrate",
}

ROOT = "bench.point"


def metric_prefix(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Records spans as ``[name, parent_index, start, end, work]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.work_unreadable: set[str] = set()

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, 0])
        self._stack.append(idx)
        return idx

    def stop(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[3] = end
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        return end - span[2]

    def wrap(self, name: str, fn, work=None):
        # start/stop inlined: this wrapper runs ~50k times per physical point
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = self._work(name, work, args, kwargs, out)
            return out

        return traced

    def _work(self, name, work, args, kwargs, out) -> int:
        # a work count that cannot be read (a changed signature) counts as 0
        # and is named once on stderr, so the run goes on
        try:
            return work(args, kwargs, out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            if name not in self.work_unreadable:
                self.work_unreadable.add(name)
                print(f"trace: work count of {name} unreadable ({exc!r}); counted as 0",
                      file=sys.stderr)
            return 0


def _package_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def resolve(module: str, function: str):
    """The live function object ``mimo_recal.<module>.<function>``, or None."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    fn = getattr(mod, function, None)
    return fn if callable(fn) else None


def patch_everywhere(fn, replacement) -> list[tuple]:
    """Rebind every name in every loaded package module that refers to ``fn``.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    undo = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, fn))
    return undo


def unpatch(undo: list[tuple]) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


def install(tracer: Tracer, targets=TARGETS) -> tuple[list[tuple], list[str]]:
    """Wrap every target for ``tracer``; returns (undo list, absent names)."""
    undo, absent = [], []
    for module, function, _, work in targets:
        name = metric_prefix(module, function)
        fn = resolve(module, function)
        if fn is None:
            absent.append(name)
            continue
        undo.extend(patch_everywhere(fn, tracer.wrap(name, fn, work)))
    return undo, absent


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span: its length minus the time covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[2], span[3]))
    return [span[3] - span[2] - covered_length(children.get(i, ()), span[2], span[3])
            for i, span in enumerate(spans)]


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (inclusive time is
    summed over these only, so recursion is not counted twice)."""
    flags = []
    for span in spans:
        parent = span[1]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][1]
        flags.append(parent < 0)
    return flags


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and work count."""
    selfs = self_times(spans)
    outer = outermost(spans)
    out: dict[str, dict[str, float]] = {}
    for span, self_s, top in zip(spans, selfs, outer):
        row = out.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["work"] += span[4]
        if top:
            row["s"] += span[3] - span[2]
    return out


def root_gaps(spans) -> list[float]:
    """Per root span: |sum of self times in its tree - root length|."""
    selfs = self_times(spans)
    root_of = []
    sums: dict[int, float] = {}
    for i, span in enumerate(spans):
        root = i if span[1] < 0 else root_of[span[1]]
        root_of.append(root)
        sums[root] = sums.get(root, 0.0) + selfs[i]
    return [abs(total - (spans[r][3] - spans[r][2])) for r, total in sums.items()]
