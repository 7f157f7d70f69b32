"""Spans and counters around polegeom's layer boundaries.

The benchmark installs wrappers from its own code; polegeom itself is
not changed.  A wrapper replaces every binding of the wrapped function
in every loaded polegeom module, so names re-imported into another
module (``geometry.enumerate_poles``, ``poles.wedge2_coordinates``) are
traced too.  Spans are kept in memory as ``[name, start, end, parent]``
and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

# span name -> (module, attribute path); each call records a span
SPANS: Dict[str, Tuple[str, str]] = {
    "kernels.scan": ("polegeom.kernels", "scan"),
    "kernels.graph_stats": ("polegeom.kernels", "graph_stats"),
    "forms.pullback": ("polegeom.forms", "TriForm.pullback"),
    "forms.cube": ("polegeom.poles", "structure_cube"),
    "poles.enumerate_poles": ("polegeom.poles", "enumerate_poles"),
    "poles.enumerate_upper_radical": ("polegeom.poles", "enumerate_upper_radical"),
    "poles.pole_variety": ("polegeom.poles", "pole_variety"),
    "poles.variety_degree": ("polegeom.geometry", "_variety_degree"),
    "poles.full_report": ("polegeom.poles", "full_report"),
    "linalg.pfaffian": ("polegeom.linalg", "pfaffian"),
    "projective.span_points": ("polegeom.projective", "span_points"),
    "geometry.build_geometry": ("polegeom.geometry", "build_geometry"),
    "geometry.fingerprint": ("polegeom.geometry", "fingerprint"),
    "geometry.hexagon_check": ("polegeom.geometry", "hexagon_check"),
    "geometry.incidence_graph_stats": ("polegeom.geometry", "incidence_graph_stats"),
    "geometry.spread_check": ("polegeom.geometry", "spread_check"),
    "geometry.normal_spread_check": ("polegeom.geometry", "normal_spread_check"),
    "geometry.expected_polar_lines": ("polegeom.geometry", "expected_polar_lines"),
    "geometry.cone_structure_check": ("polegeom.geometry", "cone_structure_check"),
    "geometry.t11_structure_check": ("polegeom.geometry", "t11_structure_check"),
    "geometry.t4_line_check": ("polegeom.geometry", "t4_line_check"),
    "cli.emit": ("polegeom.cli", "_emit"),
}

# counter name -> (module, attribute path); each call bumps a counter only
COUNTS: Dict[str, Tuple[str, str]] = {
    "projective.wedge2_calls": ("polegeom.projective", "wedge2_coordinates"),
    "projective.from_pair_calls": ("polegeom.projective", "PluckerLine.from_pair"),
    "poly.evaluate_calls": ("polegeom.poly", "MultiPoly.evaluate"),
}

# Field operations run millions of times per pass, and counting them
# costs more than the operations themselves, so they are counted in a
# pass of their own that records no spans.
FIELD_COUNTS: Dict[str, Tuple[str, str]] = {
    "fields.of_calls": ("polegeom.fields", "GF.of"),
    "fields.mul_calls": ("polegeom.fields", "GF.mul"),
}


def _scan_points(counts, args, kwargs, result):
    start, stop = args[3], args[4]
    counts["kernels.points_scanned"] += stop - start


def _lines_emitted(counts, args, kwargs, result):
    counts["poles.lines_emitted"] += len(result)


def _incidences(counts, args, kwargs, result):
    counts["geometry.incidences"] += sum(len(pts) for pts in result.points_by_line)


def _graph_size(counts, args, kwargs, result):
    offsets, neighbors = args[0], args[1]
    counts["geometry.graph_vertices"] += len(offsets) - 1
    counts["geometry.graph_edges"] += len(neighbors) // 2


# counters read off a span's arguments or result
HOOKS: Dict[str, Callable] = {
    "kernels.scan": _scan_points,
    "poles.enumerate_upper_radical": _lines_emitted,
    "geometry.build_geometry": _incidences,
    "kernels.graph_stats": _graph_size,
}


class Tracer:
    """Installs the wrappers, collects spans and counters, restores on exit."""

    def __init__(self, spans: Dict = SPANS, counts: Dict = COUNTS):
        self.targets = (spans, counts)
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, hook = self.counts, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str) -> "_Span":
        """Context manager recording a span from the benchmark's own code."""
        return _Span(self, name)

    # -- installation -------------------------------------------------------

    def _patch(self, target: Tuple[str, str], make: Callable[[Callable], Callable]) -> None:
        module = sys.modules[target[0]]
        owner_name, _, attr = target[1].rpartition(".")
        if owner_name:
            # a method: patch the class attribute, keeping classmethods
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(module, attr)
        new = make(original)
        # every binding of the function in a loaded polegeom module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "polegeom" or mod_name.startswith("polegeom.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, new)

    def install(self) -> None:
        spans, counts = self.targets
        for name, target in spans.items():
            self._patch(target, functools.partial(self._span_wrapper, name))
        for name, target in counts.items():
            self._patch(target, functools.partial(self._count_wrapper, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, -1]

    def __enter__(self):
        stack = self.tracer._stack
        self.rec[3] = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()


# -- analysis -----------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children run one after another on one thread, so the part they cover
    is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self time and inclusive time.

    The inclusive time counts only the outermost span of a name, so a
    function that reaches itself through another traced call is not
    counted twice.
    """
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[idx]
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            row["inclusive_s"] += end - start
    return out


def self_by_kind(spans: List[list], kinds: List[str]) -> Dict[str, Dict[str, float]]:
    """Self time per span name for each job kind.

    ``kinds[i]`` is the kind of the i-th top-level span; every other span
    belongs to the top-level span opened last before it.
    """
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    job = -1
    for idx, (name, _, _, parent) in enumerate(spans):
        if parent == -1:
            job += 1
        row = out.setdefault(kinds[job], {})
        row[name] = row.get(name, 0.0) + own[idx]
    return out
