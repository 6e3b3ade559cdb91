"""Span tracing of prtrp's layers from outside the package.

Tracing replaces module attributes with timing wrappers; nothing under src/
changes. A function imported by name into another module (for example
`prtrp.bidp.greedy_complete` or `prtrp.cli.evaluate_route`) is replaced
there too, so calls made from inside `solve` and the CLI's recheck are seen.
Per-call helpers inside a layer's loops (`disrupted_count`,
`position_lower_bound`) are left unwrapped: a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# layer -> (module, the functions the workloads reach). Layer names are the
# module names.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cli": ("prtrp.cli", ("main", "_load_instance", "_recheck")),
    "instance": ("prtrp.instance", ("load", "validate", "absorb_repair_durations")),
    "power_eval": ("prtrp.power_eval", ("build_index", "evaluate_route")),
    "bounds": ("prtrp.bounds", ("build_bounds_table", "compute_beta")),
    "heuristics": (
        "prtrp.heuristics",
        ("greedy_distance", "greedy_priority_distance", "greedy_complete"),
    ),
    "bidp": ("prtrp.bidp", ("solve",)),
    "mip_export": ("prtrp.mip_export", ("build_model", "write_lp_text", "check_assignment")),
    "oracle": ("prtrp.oracle", ("held_karp_forward",)),
}


class Tracer:
    """Records one span per wrapped call: layer, function, start, end, parent.

    Spans stay in memory; `call_id` tags every span with the benchmark call
    that caused it. Use as a context manager: entering patches the modules,
    leaving restores every original attribute.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.call_id = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "prtrp" or key.startswith("prtrp.")]
        for layer, (mod_name, names) in LAYERS.items():
            home = sys.modules[mod_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> List[list]:
        """Hand over the spans recorded so far and start an empty record."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize(spans: List[list]) -> Tuple[Dict[str, float], Dict[str, float], Counter]:
    """(self seconds per layer, inclusive seconds per function, calls per function).

    A span's self time is its duration minus the durations of its direct
    children; functions are keyed "layer.name".
    """
    child: Dict[int, float] = defaultdict(float)
    for layer, name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    incl: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (layer, name, start, end, _, _) in enumerate(spans):
        self_s[layer] += end - start - child[i]
        incl[f"{layer}.{name}"] += end - start
        calls[f"{layer}.{name}"] += 1
    return self_s, dict(incl), calls


def write_spans(path, groups: Dict[str, List[list]]) -> None:
    """Write span groups as tab-separated lines; parent indexes count within a group."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group\tcall\tlayer\tfunction\tstart_s\tend_s\tparent\n")
        for group, spans in groups.items():
            for layer, name, start, end, parent, call in spans:
                fh.write(f"{group}\t{call}\t{layer}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
