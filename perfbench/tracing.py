"""In-memory span tracer installed around opasim's public functions.

Each wrapped call records a span (name, start, end, parent, thread) in a
list owned by a :class:`Tracer`; nothing is written until the caller asks
for :func:`layer_metrics`. Wrappers are installed under every module
attribute that holds the original function, so a caller that did
``from .medium import transfer_values`` sees the wrapper just like a
caller that looks the name up on ``opasim.medium``.

Pool threads start with an empty span stack; their spans are attributed
to the innermost open ``propagate_ensemble``/``emit_figure`` span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _rows(args, out):
    return {"rows": out.shape[0]}


def _bytes_computed(args, out):
    # arrays read plus the array written, from their shapes
    return {"bytes_computed": _nbytes(*args, out)}


def _transfer_counts(args, out):
    return {"samples": args[0].size, "bytes_computed": _nbytes(args[0], out)}


# (span name, module, attribute, counter over (positional args, result))
LAYERS = (
    ("rng.standard_normal_pairs", "opasim.rng", "standard_normal_pairs", _rows),
    ("ensemble.sample_state_array", "opasim.ensemble", "sample_state_array", _rows),
    ("ensemble.synthesize_rows", "opasim.ensemble", "synthesize_rows", _bytes_computed),
    ("medium.transfer_values", "opasim.medium", "transfer_values", _transfer_counts),
    ("ensemble.lockin_rows", "opasim.ensemble", "lockin_rows", _bytes_computed),
    ("ensemble.propagate_ensemble", "opasim.ensemble", "propagate_ensemble", None),
    ("ensemble.variance_scan", "opasim.ensemble", "variance_scan", None),
    ("ensemble.squeezing_report", "opasim.ensemble", "squeezing_report", None),
    ("figures.emit_figure", "opasim.figures", "emit_figure", None),
    ("spectral.lockin_extract", "opasim.spectral", "lockin_extract", None),
    ("spectral.predict_spectrum", "opasim.spectral", "predict_spectrum", None),
    ("fields.synthesize", "opasim.fields", "synthesize", None),
    ("config.load", "opasim.config", "from_json", None),
    ("config.load", "opasim.config", "with_overrides", None),
)

# spans whose work is spread over a thread pool, one chunk per synthesize_rows
POOL_PARENTS = frozenset({"ensemble.propagate_ensemble", "figures.emit_figure"})
CHUNK_MARK = "ensemble.synthesize_rows"

# names as in opasim.validate.CHECKS
VALIDATE_CHECKS = (
    "lockin-exactness",
    "parseval",
    "closed-form-equivalence",
    "oracle-pipeline-equivalence",
    "vacuum-scan-flat",
    "heisenberg-symplectic",
    "determinism",
)

# every per-layer metric a traced run reports, zero where a layer did no work
PER_LAYER = (
    "rng.standard_normal_pairs.calls",
    "rng.standard_normal_pairs.rows",
    "rng.standard_normal_pairs.busy_s",
    "ensemble.sample_state_array.rows",
    "ensemble.sample_state_array.self_s",
    "ensemble.synthesize_rows.busy_s",
    "ensemble.synthesize_rows.bytes_computed",
    "medium.transfer_values.samples",
    "medium.transfer_values.busy_s",
    "medium.transfer_values.bytes_computed",
    "ensemble.lockin_rows.busy_s",
    "ensemble.lockin_rows.bytes_computed",
    "ensemble.propagate_ensemble.busy_s",
    "ensemble.propagate_ensemble.self_s",
    "ensemble.propagate_ensemble.chunks",
    "ensemble.propagate_ensemble.alloc_peak_mb",
    "figures.emit_figure.busy_s",
    "figures.emit_figure.self_s",
    "figures.emit_figure.chunks",
    "figures.emit_figure.chunk_s_max",
    "figures.emit_figure.alloc_peak_mb",
    "ensemble.variance_scan.busy_s",
    "ensemble.squeezing_report.busy_s",
    "spectral.lockin_extract.calls",
    "spectral.lockin_extract.busy_s",
    "spectral.predict_spectrum.busy_s",
    "fields.synthesize.calls",
    "fields.synthesize.busy_s",
    *(f"validate.{name}.busy_s" for name in VALIDATE_CHECKS),
    "config.load.busy_s",
    "import.busy_s",
    "cli.write_csv.busy_s",
    "cli.write_csv.bytes",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.uncovered_s",
)

_MAX_KEYS = frozenset({"chunk_s_max", "alloc_peak_mb"})


def unit_of(metric: str) -> str:
    key = metric.rsplit(".", 1)[1]
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_s") or key.endswith("_s_max"):
        return "s"
    if "bytes" in key:
        return "B"
    return "count"


@dataclass(eq=False)
class Span:
    name: str
    sid: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    prev_pool: "Span | None" = None
    traces_memory: bool = False


class Tracer:
    """Collects spans in memory; one instance per traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        span = Span(
            name,
            next(self._ids),
            parent.sid if parent is not None else None,
            threading.get_ident(),
            time.perf_counter(),
        )
        stack.append(span)
        if name in POOL_PARENTS:
            span.prev_pool, self._pool_parent = self._pool_parent, span
            # allocations are traced only inside the outermost pool parent,
            # which keeps tracemalloc's per-allocation cost off other layers
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                span.traces_memory = True
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name in POOL_PARENTS:
            self._pool_parent = span.prev_pool
            if span.traces_memory:
                span.counts["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        self.spans.append(span)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts.update(count(args, out))
            return out

        return traced

    def wrap_write_csv(self, fn):
        @functools.wraps(fn)
        def write_csv(stream, header, columns):
            counting = _CountingStream(stream)
            span = self.open("cli.write_csv")
            try:
                fn(counting, header, columns)
            finally:
                self.close(span)
            span.counts["bytes"] = counting.bytes
            return None

        return write_csv


class _CountingStream:
    def __init__(self, stream):
        self._stream = stream
        self.bytes = 0

    def write(self, text: str):
        self.bytes += len(text.encode())
        return self._stream.write(text)


def install(tracer: Tracer):
    """Patch every opasim module attribute that names a traced function.

    Returns a function that restores the originals.
    """
    import opasim.cli  # noqa: F401  (loads every module the CLI reaches)
    import opasim.validate

    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "opasim" or name.startswith("opasim.")
    ]
    wrappers = {}
    for name, modname, attr, count in LAYERS:
        original = getattr(sys.modules[modname], attr)
        wrappers[id(original)] = (original, tracer.wrap(name, original, count))
    write_csv = opasim.cli.write_csv
    wrappers[id(write_csv)] = (write_csv, tracer.wrap_write_csv(write_csv))

    patches = []
    for mod in modules:
        for key, value in vars(mod).items():
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patches.append((mod, key, value, wrappers[id(value)][1]))
    checks = opasim.validate.CHECKS
    patches.append(
        (
            opasim.validate,
            "CHECKS",
            checks,
            tuple((name, tracer.wrap(f"validate.{name}", fn)) for name, fn in checks),
        )
    )
    for mod, key, _, wrapper in patches:
        setattr(mod, key, wrapper)

    def uninstall():
        for mod, key, original, _ in patches:
            setattr(mod, key, original)

    return uninstall


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _chunk_counts(children: list[Span]) -> dict:
    """Chunks of a pool parent: one per synthesize_rows under it.

    A chunk's time runs, in the thread that ran it, from the first traced
    call after the previous chunk (sample_state_array where the chunk
    samples its own rows) to the end of its lockin_rows call. Untraced
    work after the lock-in, such as figures' envelope sums, is left out.
    """
    by_thread = defaultdict(list)
    for child in children:
        by_thread[child.thread].append(child)
    longest = 0.0
    for spans in by_thread.values():
        chunk_start = None
        for span in sorted(spans, key=lambda s: s.start):
            if chunk_start is None:
                chunk_start = span.start
            if span.name == "ensemble.lockin_rows":
                longest = max(longest, span.end - chunk_start)
                chunk_start = None
    chunks = sum(1 for child in children if child.name == CHUNK_MARK)
    return {"chunks": chunks, "chunk_s_max": longest}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one operation's spans, keyed '<span>.<metric>'."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        kids = children.get(span.sid, [])
        covered = _union_length(
            [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        )
        duration = span.end - span.start
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.busy_s"] += duration
        totals[f"{span.name}.self_s"] += duration - covered
        counts = dict(span.counts)
        if span.name in POOL_PARENTS:
            counts.update(_chunk_counts(kids))
        for key, value in counts.items():
            metric = f"{span.name}.{key}"
            if key in _MAX_KEYS:
                totals[metric] = max(totals[metric], value)
            else:
                totals[metric] += value
    return dict(totals)
