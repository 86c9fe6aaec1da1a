"""Per-layer tracing from outside the program.

The tracer wraps momentcert's public functions while a traced pass runs
and restores them afterwards, so untraced passes run the code unchanged.
A function bound into other modules with `from ... import` is replaced in
every momentcert module that holds it (reduction._prune_facet_list,
certificate.reduce_with_sources, certificate.hf, corpus.verify, the cli
names), and validation hooks are replaced on their classes.

Each wrapper records calls, inclusive time, self time (inclusive time
minus the time of the wrapped calls made inside it) and counts computed
from arguments and results, so the counts repeat exactly.  The `subsets`
of vertices and is_compact are the solve_exact calls made directly inside
them: the facet subsets the enumeration actually examined.  A call made
while a span of the same name is open is folded into that span.  Spans
(name, start, end, parent, item) are kept in memory for the first traced
pass and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# metric group -> workloads where its metrics must be non-zero
LAYER_WORKLOADS = {
    "floer": ("invariant",),
    "polytope.vertices": ("certify",),
    "polytope.is_compact": ("certify",),
    "polytope.is_delzant": ("certify",),
    "lattice.solve_exact": ("certify",),
    "polytope.feasible": ("reduce", "certify"),
    "polytope.prune": ("reduce", "certify"),
    "reduction.reduce_with_sources": ("reduce", "certify"),
    "polytope.construct": ("corpus", "certify"),
    "lattice.rank_exact": ("corpus", "certify"),
    "lattice.det_exact": ("corpus", "certify"),
    "lattice.smith_normal_form": ("corpus", "certify"),
    "reduction.section": ("corpus", "certify"),
    "reduction.monotone_weights": ("corpus", "certify"),
    "certificate": ("certify",),
    "cli": ("corpus",),
    "documents.parse": ("corpus",),
    "probes.probe_scan": ("corpus",),
    "render.render_svg": ("corpus",),
}

RANK_DIMS = (3, 4, 5, 6, 8, 10, 12)
SUBSET_SCANS = ("polytope.vertices", "polytope.is_compact")
SPAN_CAP = 200_000  # spans kept for the trace file
CLI_COMMANDS = ("info", "hf", "reduce", "certify", "auto-certify", "probe", "render", "corpus")


def _rank_counts(args, kwargs, result):
    return {"rows": 1 << args[0].dim}


def _vertex_counts(args, kwargs, result):
    return {"found": len(result)}


def _feasible_counts(args, kwargs, result):
    return {"constraints": len(args[0])}


def _prune_counts(args, kwargs, result):
    return {"facets_in": len(args[1]), "facets_kept": len(result)}


# (metric name, where, counts): where is ("func", module, attr) for a
# module-level function or ("method", module, class, attr); counts maps
# (args, kwargs, result) to increments of the counters named in PER_LAYER
SPECS = (
    ("floer.rank_gf2", ("func", "floer", "rank_gf2"), _rank_counts),
    ("floer.hf", ("func", "floer", "hf"), None),
    ("polytope.vertices", ("method", "polytope", "Polytope", "vertices"), _vertex_counts),
    ("polytope.is_compact", ("method", "polytope", "Polytope", "is_compact"), None),
    ("polytope.is_delzant", ("method", "polytope", "Polytope", "is_delzant"), None),
    ("polytope.construct", ("method", "polytope", "Polytope", "__post_init__"), None),
    ("polytope.feasible", ("func", "polytope", "feasible"), _feasible_counts),
    ("polytope.prune", ("func", "polytope", "_prune_facet_list"), _prune_counts),
    ("lattice.solve_exact", ("func", "lattice", "solve_exact"), None),
    ("lattice.rank_exact", ("func", "lattice", "rank_exact"), None),
    ("lattice.det_exact", ("func", "lattice", "det_exact"), None),
    ("lattice.smith_normal_form", ("func", "lattice", "smith_normal_form"), None),
    ("reduction.reduce_with_sources", ("func", "reduction", "reduce_with_sources"), None),
    ("reduction.section", ("method", "reduction", "AffineReduction", "__post_init__"), None),
    ("reduction.monotone_weights", ("func", "reduction", "monotone_weights"), None),
    ("certificate.verify", ("func", "certificate", "verify"), None),
    ("certificate.auto_certify_monotone", ("func", "certificate", "auto_certify_monotone"), None),
    ("probes.probe_scan", ("func", "probes", "probe_scan"), None),
    ("render.render_svg", ("func", "render", "render_svg"), None),
) + tuple(
    ("documents.parse", ("func", "documents", name), None)
    for name in ("load_json", "load_polytope", "load_section", "load_certificate",
                 "polytope_from_doc", "section_from_doc", "certificate_from_doc",
                 "marked_points_from_doc")
) + tuple(
    (f"cli.{cmd}", ("func", "cli", "_cmd_" + cmd.replace("-", "_")), None)
    for cmd in CLI_COMMANDS
)


UNITS = {"ms": "ms", "self_ms": "ms"}  # every other quantity is a count


def _group(name, *quantities):
    return [(f"{name}.{q}", UNITS.get(q, "count")) for q in quantities]


# the per-layer metrics the benchmark reports, in order
PER_LAYER = (
    _group("floer.rank_gf2", "calls", "ms", "self_ms", "rows")
    + [(f"floer.rank_gf2.n{k}.ms", "ms") for k in RANK_DIMS]
    + _group("floer.hf", "calls", "ms")
    + _group("polytope.vertices", "calls", "ms", "self_ms", "subsets", "found")
    + _group("polytope.is_compact", "calls", "ms", "self_ms", "subsets")
    + _group("polytope.is_delzant", "calls", "ms")
    + _group("lattice.solve_exact", "calls", "ms")
    + _group("polytope.feasible", "calls", "ms", "constraints")
    + _group("polytope.prune", "calls", "ms", "self_ms", "facets_in", "facets_kept")
    + _group("reduction.reduce_with_sources", "calls", "ms", "self_ms")
    + _group("polytope.construct", "calls", "ms")
    + _group("lattice.rank_exact", "calls", "ms")
    + _group("lattice.det_exact", "calls", "ms")
    + _group("lattice.smith_normal_form", "calls", "ms")
    + _group("reduction.section", "calls", "ms")
    + _group("reduction.monotone_weights", "calls", "ms", "self_ms")
    + _group("certificate.verify", "calls", "ms", "self_ms")
    + _group("certificate.auto_certify_monotone", "calls", "ms", "self_ms")
    + [(f"cli.{cmd}.ms", "ms") for cmd in CLI_COMMANDS]
    + _group("documents.parse", "calls", "ms")
    + _group("probes.probe_scan", "calls", "ms")
    + _group("render.render_svg", "calls", "ms")
    + [("trace.overhead_pct", "%")]
)


def layer_of(metric: str) -> str:
    """The LAYER_WORKLOADS key a per-layer metric belongs to."""
    for key in sorted(LAYER_WORKLOADS, key=len, reverse=True):
        if metric.startswith(key + "."):
            return key
    return ""


class Tracer:
    """Wraps momentcert while installed; aggregates over every traced pass."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self.spans: list[list] = []
        self.record_spans = False
        self.item = -1
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = [mod for name, mod in list(sys.modules.items())
                if name == "momentcert" or name.startswith("momentcert.")]
        for name, where, counts in SPECS:
            module = sys.modules[f"momentcert.{where[1]}"]
            if where[0] == "method":
                owner = getattr(module, where[2])
                original = owner.__dict__[where[3]]
                self._patch(owner, where[3], self._wrap(name, original, counts))
                continue
            original = getattr(module, where[2])
            wrapper = self._wrap(name, original, counts)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, counts):
        tracer = self
        split = name == "floer.rank_gf2"
        subset = name == "lattice.solve_exact"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._exit(frame)
            if split:
                tracer.totals[f"{name}.n{args[0].dim}"]["ms"] += elapsed * 1e3
            if subset and tracer._stack and tracer._stack[-1][0] in SUBSET_SCANS:
                tracer.totals[tracer._stack[-1][0]]["subsets"] += 1
            if counts is not None:
                stats = tracer.totals[name]
                for key, value in counts(args, kwargs, result).items():
                    stats[key] += value
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (an item)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name):
        self._open[name] += 1
        index = -1
        if self.record_spans and len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.item])
        frame = [name, 0.0, time.perf_counter(), index]
        if index >= 0:
            self.spans[index][1] = frame[2]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, children, start, index = frame
        elapsed = end - start
        self._open[name] -= 1
        if index >= 0:
            self.spans[index][2] = end
        stats = self.totals[name]
        stats["calls"] += 1
        stats["ms"] += elapsed * 1e3
        stats["self_ms"] += (elapsed - children) * 1e3
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    # -- results -------------------------------------------------------------

    def per_pass(self, passes: int) -> dict[str, float]:
        """Every PER_LAYER value except the overhead, averaged per pass."""
        out = {}
        for metric, _ in PER_LAYER:
            if metric == "trace.overhead_pct":
                continue
            name, quantity = metric.rsplit(".", 1)
            out[metric] = self.totals[name][quantity] / passes if name in self.totals else 0.0
        return out
