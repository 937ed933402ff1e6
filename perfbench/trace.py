"""Traced-run instrumentation: spans around the engine's public calls.

Tracing never edits the engine. :func:`install` replaces a fixed list
of public functions and methods (``_targets``) with wrappers that push a
span on a per-thread stack, so every span knows its parent and the
statement (root ``Database.execute`` call) it belongs to. Spans stay in
memory until the run ends; a server process writes its spans to a JSON
file on shutdown (see ``launcher.py``).

Self time is a span's duration minus the durations of its direct
children. Iterator-returning calls (operator ``execute`` generators,
``TableData.rows``) get one span whose duration accumulates over every
``next()``, so work done lazily while a consumer drains it is still
attributed to the layer that produced it.

:func:`layer_metrics` turns the spans of one time window into the
per-layer metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Iterable, Optional

#: Engine counters read before and after every root statement; their
#: deltas ride on the statement span.
COUNTERS = (
    "exec_plan_cache_hits_total",
    "exec_plan_cache_misses_total",
    "plan_cache_feedback_invalidations_total",
    "expr_kernel_cache_hits_total",
    "expr_kernel_cache_misses_total",
    "analytics_csr_cache_hits_total",
    "analytics_csr_cache_misses_total",
    "storage_rows_inserted_total",
    "storage_rows_updated_total",
    "storage_rows_deleted_total",
)

#: Span name -> layer. Spans not listed here (``server.queue`` carries a
#: measured wait, not a duration of its own) attribute to no layer.
LAYER_OF = {
    "api.execute": "api",
    "governor.setup": "governor",
    "sql.parse": "sql",
    "sql.bind": "sql",
    "plan.optimize": "plan",
    "plan.feedback": "plan",
    "plan.estimator": "plan",
    "expr.compile": "expr",
    "exec.build": "exec",
    "exec.fuse": "exec",
    "exec.run": "exec",
    "exec.subquery": "exec",
    "exec.iterate": "exec",
    "exec.cte": "exec",
    "exec.prune": "exec",
    "storage.encode": "storage",
    "txn.commit": "txn",
    "txn.wal_record_build": "txn",
    "txn.wal_log": "txn",
    "txn.fsync": "txn",
    "analytics.kmeans": "analytics",
    "analytics.pagerank": "analytics",
    "analytics.nb": "analytics",
    "analytics.csr_build": "analytics",
    "obs.record": "obs",
    "server.codec": "server",
}


class Span:
    __slots__ = (
        "id", "name", "start", "end", "dur", "parent", "stmt", "attrs",
    )

    def __init__(self, sid, name, parent, stmt):
        self.id = sid
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.dur = 0.0
        self.parent = parent
        self.stmt = stmt
        self.attrs: Optional[dict] = None

    def as_list(self) -> list:
        return [
            self.id, self.name, self.start, self.end, self.dur,
            self.parent, self.stmt, self.attrs,
        ]


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, tag: str = "bench"):
        self.tag = tag
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new(self, name: str, statement_root: bool = False) -> Span:
        stack = self._stack()
        top = stack[-1] if stack else None
        with self._lock:
            self._ids += 1
            sid = f"{self.tag}:{self._ids}"
        stmt = top.stmt if top is not None else None
        if statement_root and stmt is None:
            stmt = sid
        span = Span(sid, name, top.id if top is not None else None, stmt)
        self.spans.append(span)
        return span

    def resume(self, span: Span) -> None:
        self._stack().append(span)
        now = time.perf_counter()
        if span.start == 0.0:
            span.start = now
        span.end = now  # segment start, consumed by pause()

    def pause(self, span: Span) -> None:
        now = time.perf_counter()
        span.dur += now - span.end
        span.end = now
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [s.as_list() for s in self.spans],
                    "extra": extra or {},
                },
                fh,
            )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

_suspend = threading.local()


@contextlib.contextmanager
def suspended():
    """Run engine calls untraced on this thread (the checker's own
    statements must not count as workload)."""
    previous = getattr(_suspend, "on", False)
    _suspend.on = True
    try:
        yield
    finally:
        _suspend.on = previous


def _is_suspended() -> bool:
    return getattr(_suspend, "on", False)


def _set(span: Span, key: str, value) -> None:
    if span.attrs is None:
        span.attrs = {}
    span.attrs[key] = value


def wrap_call(
    rec: Recorder,
    fn: Callable,
    name: str,
    pre: Optional[Callable] = None,
    post: Optional[Callable] = None,
    statement_root: bool = False,
) -> Callable:
    """A plain call: one span from entry to return (or raise).
    ``pre(args, kwargs)`` runs before the span opens and its value is
    handed to ``post(span, args, result, state)``, which runs after the
    span closed — hook work is wrapper overhead, not layer time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _is_suspended():
            return fn(*args, **kwargs)
        state = pre(args, kwargs) if pre is not None else None
        span = rec.new(name, statement_root)
        rec.resume(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.pause(span)
            if post is not None:
                post(span, args, result, state)

    return wrapper


def trace_iterator(
    rec: Recorder,
    make: Callable[[], Iterable],
    name: str,
    done: Optional[Callable] = None,
):
    """Drive ``make()`` (a generator call or any iterator factory) under
    one span that accumulates across every ``next()``."""
    span = rec.new(name)
    rec.resume(span)
    try:
        iterator = iter(make())
    finally:
        rec.pause(span)
    try:
        while True:
            rec.resume(span)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                rec.pause(span)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
        if done is not None:
            done(span)


def wrap_iter(
    rec: Recorder, fn: Callable, name: str,
    done: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _is_suspended():
            return fn(*args, **kwargs)
        return trace_iterator(
            rec,
            lambda: fn(*args, **kwargs),
            name,
            (lambda span: done(span, args)) if done is not None else None,
        )

    return wrapper


# -- per-target hooks --------------------------------------------------------


def _execute_pre(args, kwargs):
    db = args[0]
    return (
        [db.metrics.counter(c).value for c in COUNTERS],
        db.last_stats,
    )


def _execute_post(span, args, result, state):
    db = args[0]
    before, stats_before = state
    deltas = {
        c: db.metrics.counter(c).value - v
        for c, v in zip(COUNTERS, before)
    }
    _set(span, "counters", {k: v for k, v in deltas.items() if v})
    if result is not None:
        try:
            _set(span, "rows", len(result))
        except TypeError:
            pass
    stats = db.last_stats
    if stats is not None and stats is not stats_before:
        _set(
            span,
            "stats",
            {
                "rows_scanned": stats.rows_scanned,
                "morsels_pruned": stats.morsels_pruned,
                "peak_live_tuples": stats.peak_live_tuples,
                "iterations": stats.iterations,
            },
        )


def _fuse_post(span, args, result, state):
    _set(span, "fused", result is not None)


def _prune_post(span, args, result, state):
    if result is not None:
        kept, pruned = result
        _set(span, "kept", len(kept))
        _set(span, "pruned", int(pruned))


def _encode_post(span, args, result, state):
    _set(span, "rows", int(getattr(args[0], "row_count", 0)))


def _commit_pre(args, kwargs):
    txn = args[1]
    return bool(txn.write_set or txn.created_tables or txn.dropped_tables)


def _commit_post(span, args, result, state):
    _set(span, "writes", state)


def _wal_post(span, args, result, state):
    if isinstance(result, int):
        _set(span, "bytes", result)


def _queue_pre(args, kwargs):
    return args[1], args[2]


def _queue_post(span, args, result, state):
    name, seconds = state
    if name == "queue":
        _set(span, "wait_s", float(seconds))


def _rounds_done(span, args):
    _set(span, "rounds", int(getattr(args[0], "last_iterations", 0) or 0))


def _build_post_factory(rec: Recorder):
    def post(span, args, result, state):
        if result is None:
            return
        bound = result.execute
        result.execute = lambda eval_ctx: trace_iterator(
            rec, lambda: bound(eval_ctx), "exec.run"
        )

    return post


def _targets(rec: Recorder) -> list[tuple]:
    """(module, attribute path, span name, kind, hooks) for every wrapped
    call. ``kind`` is ``call`` or ``iter``; hooks are keyword arguments
    for the wrapper."""
    return [
        ("repro.api.database", "Database.execute", "api.execute", "call",
         {"pre": _execute_pre, "post": _execute_post,
          "statement_root": True}),
        ("repro.api.database", "Database.executemany", "api.execute",
         "call", {"pre": _execute_pre, "post": _execute_post,
                  "statement_root": True}),
        ("repro.api.database", "Database.stage_statement_phase",
         "server.queue", "call",
         {"pre": _queue_pre, "post": _queue_post}),
        ("repro.api.database", "Database._flush_exec_metrics",
         "obs.record", "call", {}),
        ("repro.governor", "QueryContext.__init__", "governor.setup",
         "call", {}),
        ("repro.governor", "QueryContext.report", "governor.setup",
         "call", {}),
        ("repro.sql.parser", "parse_sql", "sql.parse", "call", {}),
        ("repro.sql.binder", "Binder.bind_query", "sql.bind", "call", {}),
        ("repro.sql.binder", "Binder.bind_standalone", "sql.bind",
         "call", {}),
        ("repro.plan.optimizer", "Optimizer.optimize", "plan.optimize",
         "call", {}),
        ("repro.plan.feedback", "CardinalityFeedback.overrides_for",
         "plan.feedback", "call", {}),
        ("repro.plan.feedback", "CardinalityFeedback.wants_replan",
         "plan.feedback", "call", {}),
        ("repro.plan.cardinality", "CardinalityEstimator.__init__",
         "plan.estimator", "call", {}),
        ("repro.expr.compiler", "ExpressionCompiler.compile",
         "expr.compile", "call", {}),
        ("repro.exec.planner", "build_physical", "exec.build", "call",
         {"post": _build_post_factory(rec)}),
        ("repro.exec.fused", "try_build_fused_pipeline", "exec.fuse",
         "call", {"post": _fuse_post}),
        ("repro.storage.zonemap", "ScanPruner.keep_ranges", "exec.prune",
         "call", {"post": _prune_post}),
        ("repro.exec.physical", "ExecutionContext.run_subplan",
         "exec.subquery", "call", {}),
        ("repro.exec.iterate", "IterateOp.execute", "exec.iterate",
         "iter", {"done": _rounds_done}),
        ("repro.exec.cte", "RecursiveCTEOp.execute", "exec.cte", "iter",
         {"done": _rounds_done}),
        ("repro.storage.encoding", "encode_table_data", "storage.encode",
         "call", {"post": _encode_post}),
        ("repro.storage.table", "TableData.rows", "txn.wal_record_build",
         "iter", {}),
        ("repro.txn.manager", "TransactionManager.commit", "txn.commit",
         "call", {"pre": _commit_pre, "post": _commit_post}),
        ("repro.txn.wal", "WriteAheadLog.log_commit", "txn.wal_log",
         "call", {"post": _wal_post}),
        ("os", "fsync", "txn.fsync", "call", {}),
        ("repro.analytics.kmeans", "KMeansDescriptor.run",
         "analytics.kmeans", "call", {}),
        ("repro.analytics.pagerank", "PageRankDescriptor.run",
         "analytics.pagerank", "call", {}),
        ("repro.analytics.naive_bayes", "NaiveBayesTrainDescriptor.run",
         "analytics.nb", "call", {}),
        ("repro.analytics.csr", "CSRGraph.from_edges",
         "analytics.csr_build", "call", {}),
        ("repro.obs.history", "QueryHistory.record_deferred",
         "obs.record", "call", {}),
        ("repro.server.protocol", "encode_frame", "server.codec", "call",
         {}),
        ("repro.server.protocol", "decode_payload", "server.codec",
         "call", {}),
    ]


_installed: Optional[Recorder] = None


def install(tag: str = "bench") -> Recorder:
    """Wrap every target once per process; returns the recorder."""
    global _installed
    if _installed is not None:
        return _installed
    rec = Recorder(tag)
    for modname, path, name, kind, hooks in _targets(rec):
        module = importlib.import_module(modname)
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if kind == "iter":
            wrapped = wrap_iter(rec, fn, name, **hooks)
        else:
            wrapped = wrap_call(rec, fn, name, **hooks)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod
                else wrapped)
        if owner is module and modname != "os":
            # Re-point modules that imported the function by name.
            for other in list(sys.modules.values()):
                if (
                    other is not None
                    and getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is fn
                ):
                    setattr(other, attr, wrapped)
    _installed = rec
    return rec


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _rows(spans: Iterable) -> list[list]:
    return [s.as_list() if isinstance(s, Span) else s for s in spans]


def in_window(spans: Iterable, t0: float, t1: float) -> list[list]:
    """Spans that started inside ``[t0, t1]`` (perf_counter clock, which
    is CLOCK_MONOTONIC and so shared with a server subprocess)."""
    return [s for s in _rows(spans) if t0 <= s[2] <= t1]


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> self time (duration minus direct children)."""
    child_sum: dict[str, float] = {}
    for sid, _n, _s, _e, dur, parent, _st, _a in spans:
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + dur
    return {s[0]: s[4] - child_sum.get(s[0], 0.0) for s in spans}


def statement_breakdown(spans: list[list]) -> list[dict]:
    """Per root statement: wall time, self time per layer and the
    unattributed remainder (the root span's own self time)."""
    selfs = self_times(spans)
    roots = {
        s[0]: s for s in spans
        if s[1] == "api.execute" and s[6] == s[0]
    }
    out: dict[str, dict] = {
        sid: {"wall_s": s[4], "layers": {}, "unattributed_s": 0.0}
        for sid, s in roots.items()
    }
    for s in spans:
        entry = out.get(s[6])
        if entry is None:
            continue
        if s[0] == s[6]:
            entry["unattributed_s"] = selfs[s[0]]
            continue
        layer = LAYER_OF.get(s[1])
        if layer is None:
            entry["unattributed_s"] += selfs[s[0]]
            continue
        entry["layers"][layer] = (
            entry["layers"].get(layer, 0.0) + selfs[s[0]]
        )
    return [out[sid] for sid in roots]


def accounting(spans: list[list]) -> dict:
    """Where the root statements' wall time went: per-layer self time,
    and the layer total plus unattributed time (which must add up to
    the statements' wall time). A span charged to the wrong parent
    shows as a negative self time somewhere, so the smallest self time
    and the sum of absolute self times are reported too: with every
    span in place the latter equals the statements' wall time."""
    breakdown = statement_breakdown(spans)
    layer_self: dict[str, float] = {}
    for b in breakdown:
        for layer, seconds in b["layers"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    roots = {s[0] for s in spans if s[1] == "api.execute" and s[6] == s[0]}
    selfs = self_times(spans)
    in_stmt = [selfs[s[0]] for s in spans if s[6] in roots]
    return {
        "statements": len(breakdown),
        "span_wall_s": sum(b["wall_s"] for b in breakdown),
        "layers_plus_unattributed_s": sum(layer_self.values()) + sum(
            b["unattributed_s"] for b in breakdown
        ),
        "abs_self_s": sum(abs(x) for x in in_stmt),
        "min_self_s": min(in_stmt, default=0.0),
        "layer_self_s": layer_self,
    }


def _outermost_total(spans: list[list], name: str) -> float:
    """Inclusive time of ``name`` spans not nested in another ``name``."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] != name:
            continue
        parent = by_id.get(s[5])
        nested = False
        while parent is not None:
            if parent[1] == name:
                nested = True
                break
            parent = by_id.get(parent[5])
        if not nested:
            total += s[4]
    return total


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(
    spans: list[list],
    requests: Optional[list[float]] = None,
    storage: Optional[dict] = None,
    raw_row_bytes: Optional[float] = None,
) -> dict[str, Optional[float]]:
    """Per-layer metrics of one window. ``requests`` are client-side
    round-trip seconds (wire workloads only); ``storage`` is a
    ``Database.storage_stats()`` taken at the end of the window;
    ``raw_row_bytes`` is the raw width of one written row."""
    roots = [s for s in spans if s[1] == "api.execute" and s[6] == s[0]]
    n = len(roots)

    def named(name):
        return [s for s in spans if s[1] == name]

    def ms_per_stmt(*names):
        # None, not 0, for a layer the window never entered.
        if not n or not any(s[1] in names for s in spans):
            return None
        return sum(_outermost_total(spans, nm) for nm in names) / n * 1e3

    counters: dict[str, float] = {}
    stats_rows_scanned = 0
    peak_live = None
    rows_out = 0
    for s in roots:
        attrs = s[7] or {}
        for k, v in (attrs.get("counters") or {}).items():
            counters[k] = counters.get(k, 0.0) + v
        st = attrs.get("stats")
        if st:
            stats_rows_scanned += st["rows_scanned"]
            peak_live = max(peak_live or 0, st["peak_live_tuples"])
        rows_out += attrs.get("rows", 0) or 0

    def c(name):
        return counters.get(name, 0.0)

    breakdown = statement_breakdown(spans)
    wall = sum(b["wall_s"] for b in breakdown)
    unattributed = sum(b["unattributed_s"] for b in breakdown)

    commits = [s for s in named("txn.commit") if (s[7] or {}).get("writes")]
    wal = named("txn.wal_log")
    wal_bytes = sum((s[7] or {}).get("bytes", 0) for s in wal)
    rows_written = (
        c("storage_rows_inserted_total")
        + c("storage_rows_updated_total")
        + c("storage_rows_deleted_total")
    )
    write_stmts = sum(
        1 for s in roots
        if any(
            (s[7] or {}).get("counters", {}).get(k)
            for k in (
                "storage_rows_inserted_total",
                "storage_rows_updated_total",
                "storage_rows_deleted_total",
            )
        )
    )
    encodes = named("storage.encode")
    prunes = named("exec.prune")
    pruned = sum((s[7] or {}).get("pruned", 0) for s in prunes)
    candidates = pruned + sum((s[7] or {}).get("kept", 0) for s in prunes)
    fuses = named("exec.fuse")
    iterate = named("exec.iterate")
    cte = named("exec.cte")
    queue = [
        (s[7] or {})["wait_s"] for s in named("server.queue")
        if (s[7] or {}).get("wait_s") is not None
    ]

    def mean_ms(name):
        items = named(name)
        if not items:
            return None
        return sum(s[4] for s in items) / len(items) * 1e3

    def per_round_ms(items):
        rounds = sum((s[7] or {}).get("rounds", 0) for s in items)
        return _ratio(sum(s[4] for s in items) * 1e3, rounds)

    metrics: dict[str, Optional[float]] = {
        "server.wire_overhead_ms": (
            (sum(requests) / len(requests)
             - sum(s[4] for s in roots) / n) * 1e3
            if requests and n else None
        ),
        "server.codec_ms": (
            _outermost_total(spans, "server.codec") / len(requests) * 1e3
            if requests else None
        ),
        "server.queue_wait_ms": (
            sum(queue) / len(queue) * 1e3 if queue else None
        ),
        "api.statements": float(n),
        "api.unattributed_frac": _ratio(unattributed, wall),
        "governor.setup_ms": ms_per_stmt("governor.setup"),
        "sql.parse_ms": ms_per_stmt("sql.parse"),
        "sql.parse_calls_per_stmt": _ratio(len(named("sql.parse")), n),
        "sql.bind_ms": ms_per_stmt("sql.bind"),
        "plan.optimize_ms": ms_per_stmt("plan.optimize"),
        "plan.cache_hit_rate": _ratio(
            c("exec_plan_cache_hits_total"),
            c("exec_plan_cache_hits_total")
            + c("exec_plan_cache_misses_total"),
        ),
        "plan.feedback_ms": ms_per_stmt("plan.feedback", "plan.estimator"),
        "plan.estimator_builds_per_stmt": _ratio(
            len(named("plan.estimator")), n
        ),
        "plan.replans": c("plan_cache_feedback_invalidations_total"),
        "expr.compile_ms": ms_per_stmt("expr.compile"),
        "expr.kernel_cache_hit_rate": _ratio(
            c("expr_kernel_cache_hits_total"),
            c("expr_kernel_cache_hits_total")
            + c("expr_kernel_cache_misses_total"),
        ),
        "exec.build_ms": ms_per_stmt("exec.build"),
        "exec.run_ms": ms_per_stmt("exec.run"),
        "exec.fused_frac": _ratio(
            sum(1 for s in fuses if (s[7] or {}).get("fused")), len(fuses)
        ),
        "exec.rows_examined_per_row": _ratio(
            stats_rows_scanned, max(rows_out, 1)
        ) if n else None,
        "exec.morsels_pruned_frac": (
            _ratio(pruned, candidates) if prunes else None
        ),
        "exec.subquery_runs_per_stmt": _ratio(
            len(named("exec.subquery")), n
        ),
        "exec.iterate_round_ms": per_round_ms(iterate),
        "exec.cte_round_ms": per_round_ms(cte),
        "exec.peak_live_tuples": (
            float(peak_live) if peak_live is not None else None
        ),
        "storage.encode_ms": _ratio(
            _outermost_total(spans, "storage.encode") * 1e3, write_stmts
        ),
        "storage.rows_encoded_per_row_written": _ratio(
            sum((s[7] or {}).get("rows", 0) for s in encodes), rows_written
        ),
        "storage.encoded_over_raw": (
            _ratio(storage["encoded_bytes"], storage["raw_bytes"])
            if storage else None
        ),
        "txn.commit_ms": _ratio(sum(s[4] for s in commits) * 1e3,
                                len(commits)),
        "txn.wal_record_build_ms": (
            _ratio(_outermost_total(spans, "txn.wal_record_build") * 1e3,
                   len(wal))
        ),
        "txn.wal_log_ms": mean_ms("txn.wal_log"),
        "txn.wal_bytes_per_user_byte": (
            _ratio(wal_bytes, rows_written * raw_row_bytes)
            if wal and raw_row_bytes else None
        ),
        "txn.fsyncs_per_commit": _ratio(len(named("txn.fsync")), len(wal)),
        "analytics.kmeans_ms": mean_ms("analytics.kmeans"),
        "analytics.pagerank_ms": mean_ms("analytics.pagerank"),
        "analytics.nb_ms": mean_ms("analytics.nb"),
        "analytics.csr_build_ms": mean_ms("analytics.csr_build"),
        "analytics.csr_cache_hit_rate": _ratio(
            c("analytics_csr_cache_hits_total"),
            c("analytics_csr_cache_hits_total")
            + c("analytics_csr_cache_misses_total"),
        ),
        "obs.record_ms": ms_per_stmt("obs.record"),
    }
    return metrics
