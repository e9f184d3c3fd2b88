"""Spans around lorsurf's public functions, recorded from outside the package.

Used inside the processes that execute ops (the traced CLI child and the
library worker), never inside the harness.  Functions are wrapped where
they are bound in the *calling* module's namespace, because lorsurf's
modules import names directly (`from .chartio import write_chart`): every
`lorsurf.*` module attribute that is the original function object is
replaced by the wrapper.  Spans live in memory as
[name, start, end, parent, op] and are written out when the process ends.

`minkowski` and `stencils` helpers are deliberately not wrapped: they are
called thousands of times and their cost shows in their callers' self time.
"""

import builtins
import functools
import os
import sys
import time
import tracemalloc

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, comparable across processes

# (module, attribute) of each wrapped function; the span name is the
# module's short name plus the attribute.
TARGETS = [
    ("lorsurf.cli", "main"),
    ("lorsurf.chartio", "write_chart"),
    ("lorsurf.chartio", "read_chart"),
    ("lorsurf.chartio", "write_mesh_obj"),
    ("lorsurf.chartio", "write_mesh_csv"),
    ("lorsurf.chartio", "write_report"),
    ("lorsurf.reconstruct", "reconstruct"),
    ("lorsurf.reconstruct", "cmc_pair"),
    ("lorsurf.reconstruct", "minimal_from_K"),
    ("lorsurf.reconstruct", "congruence_check"),
    ("lorsurf.natural", "accumulate_LN"),
    ("lorsurf.natural", "natural_residual"),
    ("lorsurf.natural", "cmc_residual"),
    ("lorsurf.natural", "minimal_residual"),
    ("lorsurf.surfaces", "jets_from_mesh"),
    ("lorsurf.surfaces", "fundamental_forms"),
    ("lorsurf.canonical", "canonical_maps"),
    ("lorsurf.canonical", "resample_to_canonical"),
    ("lorsurf.canonical", "verify_canonical"),
    ("lorsurf.chart", "chart_from_provider"),
    ("lorsurf.chart", "Chart.interpolator"),
    ("lorsurf.corpus", "reference_chart"),
]

# Functions whose peak traced allocation is measured in the tracemalloc pass.
ALLOC_TARGETS = [
    ("lorsurf.reconstruct", "reconstruct"),
    ("lorsurf.canonical", "resample_to_canonical"),
    ("lorsurf.chartio", "read_chart"),
]

CHART_FIELDS = ("F", "H", "L", "M", "N", "K")


def span_name(module, attr):
    return module.split(".", 1)[1] + "." + attr


def _chart_floats(chart):
    n = chart.u_grid.size * chart.v_grid.size
    return (chart.u_grid.size + chart.v_grid.size
            + n * sum(getattr(chart, f) is not None for f in CHART_FIELDS))


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count(counts, name, args, result):
    """Work counters computed from a call's arguments and result."""
    if name == "reconstruct.reconstruct":
        nu, nv = args[0].shape
        counts["rk4_node_steps"] += (nu - 1) + nu * (nv - 1)
    elif name == "chartio.write_chart":
        counts["floats"] += _chart_floats(args[0])
        counts["bytes_written"] += _file_size(args[1])
    elif name == "chartio.read_chart":
        counts["floats"] += _chart_floats(result)
    elif name in ("chartio.write_mesh_obj", "chartio.write_mesh_csv"):
        mesh = args[0]
        per_node = 3 if name.endswith("obj") else 5
        counts["floats"] += per_node * mesh.shape[0] * mesh.shape[1]
        counts["bytes_written"] += _file_size(args[3])
    elif name == "chartio.write_report":
        counts["bytes_written"] += _file_size(args[1])


class _CountingFile:
    """Read-side proxy that adds every byte (or character) read to a counter."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts["bytes_read"] += len(data)
        return data

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """In-memory span recorder.  Spans are recorded only while `op` is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = {"rk4_node_steps": 0, "floats": 0, "bytes_written": 0,
                       "bytes_read": 0}
        self.alloc = []  # [name, peak_bytes, op]

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, clock(), None, parent, self.op]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            _count(self.counts, name, args, result)
            return result
        return wrapper

    def _peak(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc.append([name, peak, self.op])
        return wrapper

    def install(self, mode):
        """Wrap the targets: mode "spans" times them, "alloc" measures peaks."""
        targets, make = (TARGETS, self._span) if mode == "spans" else (ALLOC_TARGETS, self._peak)
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lorsurf" or k.startswith("lorsurf."))]
        for module_name, attr in targets:
            name = span_name(module_name, attr)
            owner = sys.modules.get(module_name)
            if owner is None:  # lorsurf.cli is not loaded in the library worker
                continue
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, make(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        if mode == "spans":
            counts = self.counts

            def counting_open(file, mode="r", *args, **kwargs):
                fh = builtins.open(file, mode, *args, **kwargs)
                return _CountingFile(fh, counts) if "r" in mode else fh

            for module_name in ("lorsurf.cli", "lorsurf.chartio"):
                if module_name in sys.modules:
                    sys.modules[module_name].open = counting_open

    def dump(self):
        return {"spans": self.spans, "counts": self.counts, "alloc": self.alloc}


def parse_importtime(text):
    """Cumulative import seconds of lorsurf, scipy and numpy from -X importtime.

    Each is the sum over the outermost import entries of that package (an
    entry nested inside another entry of the same package is not added again).
    """
    roots, stack = [], []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        node = {"name": raw.strip(), "cum": int(parts[1]) * 1e-6, "children": []}
        while stack and stack[-1][0] > depth:
            node["children"].insert(0, stack.pop()[1])
        stack.append((depth, node))
    roots = [node for _, node in stack]

    totals = {"lorsurf": 0.0, "scipy": 0.0, "numpy": 0.0}

    def walk(node, inside):
        top = node["name"].split(".")[0]
        if top in totals and top not in inside:
            totals[top] += node["cum"]
            inside = inside | {top}
        for child in node["children"]:
            walk(child, inside)

    for root in roots:
        walk(root, frozenset())
    return totals
