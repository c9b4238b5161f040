"""Spans around calls into flowseg's layers, for the traced run only.

The tracer replaces module attributes with timing wrappers while a traced
sample runs and restores them afterwards, so the untraced code path is the
program exactly as shipped. Spans stay in memory until the run ends.
"""

import importlib
import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name). A dotted attribute names a function
# reached through a module global, e.g. the scipy median filter that
# flowseg.flow calls as ``ndimage.median_filter``.
HOOKS = (
    ("flowseg.cli", "segment_video", "pipeline"),
    ("flowseg.cli", "rasterize", "rasterize"),
    ("flowseg.cli", "render_overlay", "overlay"),
    ("flowseg.cli", "read_frame", "io.read_frame"),
    ("flowseg.cli", "write_frame", "io.write_frame"),
    ("flowseg.cli", "write_ppm", "io.write_ppm"),
    ("flowseg.pipeline", "compute_dense_flow", "flow"),
    ("flowseg.pipeline", "segment_flow", "keypoint"),
    ("flowseg.pipeline", "estimate_group_forces", "forces"),
    ("flowseg.pipeline", "propagate_map", "langevin"),
    ("flowseg.flow", "_decimate", "flow.pyramid"),
    ("flowseg.flow", "_refine", "flow.refine"),
    ("flowseg.flow", "ndimage.median_filter", "flow.median"),
    ("flowseg.flow", "_textured", "flow.texture"),
)

LAYER_OF = {
    "cli": "cli",
    "pipeline": "pipeline",
    "flow": "flow",
    "flow.pyramid": "flow",
    "flow.refine": "flow",
    "flow.median": "flow",
    "flow.texture": "flow",
    "keypoint": "keypoints",
    "forces": "dynamics",
    "langevin": "dynamics",
    "rasterize": "evaluation",
    "overlay": "evaluation",
    "io.read_frame": "io",
    "io.write_frame": "io",
    "io.write_ppm": "io",
    "sample": "harness",
}


# Work done by one call, stored with its span: raster bytes moved by an
# io call (headers excluded), particle steps taken by a propagation call.
WORK_OF = {
    "io.read_frame": lambda args, result: result.data.nbytes,
    "io.write_frame": lambda args, result: args[0].data.nbytes,
    "io.write_ppm": lambda args, result: np.asarray(args[0]).nbytes,
    "langevin": lambda args, result: sum(g.size for g in args[0].groups) * len(result),
}


class _Proxy:
    """Stands in for a module global, overriding one attribute."""

    def __init__(self, target, name, value):
        self._target = target
        setattr(self, name, value)

    def __getattr__(self, name):
        return getattr(self._target, name)


class NullTracer:
    """The untraced path: spans cost one no-op context manager."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent index, work]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name):
        work_of = WORK_OF.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if work_of is not None:
                rec[4] = work_of(args, result)
            return result

        return traced

    @contextmanager
    def hooked(self):
        """Install every hook whose target exists; restore all on exit.

        A missing target is recorded in ``absent`` instead of failing, so
        a renamed private helper costs one span, not the whole run.
        """
        saved = []
        try:
            for module_name, attr, name in HOOKS:
                module = importlib.import_module(module_name)
                owner_attr, _, leaf = attr.partition(".")
                original = getattr(module, owner_attr, None)
                if leaf:
                    target = getattr(original, leaf, None) if original is not None else None
                    replacement = _Proxy(original, leaf, self._wrap(target, name)) if target else None
                else:
                    replacement = self._wrap(original, name) if callable(original) else None
                if replacement is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved.append((module, owner_attr, original))
                setattr(module, owner_attr, replacement)
            yield
        finally:
            for module, owner_attr, original in reversed(saved):
                setattr(module, owner_attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "work": work}) + "\n")


class SpanStats:
    """Durations, self times and per-parent child sums of recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_ns = [0] * len(spans)
        # per span: {child name: summed child duration}
        self.child_by_name: list[dict] = [dict() for _ in spans]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self.child_ns[parent] += end - start
                by_name = self.child_by_name[parent]
                by_name[name] = by_name.get(name, 0) + end - start

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, start, end, _, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def self_ms(self, name: str) -> float:
        return sum(
            (end - start - self.child_ns[i]) / 1e6
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        )

    def median_child_ms(self, parent: str, child: str) -> float:
        """Median over ``parent`` spans of the time their ``child`` spans took."""
        values = [
            self.child_by_name[i].get(child, 0) / 1e6
            for i, span in enumerate(self.spans)
            if span[0] == parent
        ]
        return statistics.median(values) if values else 0.0

    def work(self, name: str) -> int:
        return sum(span[4] for span in self.spans if span[0] == name)

    def layer_self_ms(self) -> dict[str, float]:
        out = dict.fromkeys(LAYER_OF.values(), 0.0)
        for name in {span[0] for span in self.spans}:
            out[LAYER_OF[name]] += self.self_ms(name)
        return out
