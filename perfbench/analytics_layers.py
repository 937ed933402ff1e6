"""``analytics_layers``: the paper's k-Means, PageRank and Naive Bayes
series in one default embedded ``Database``.

Sizes: k-Means n=50,000, d=10, k=5, 3 iterations; PageRank 5,000
vertices, 100,000 directed edges, damping 0.85, 10 iterations; Naive
Bayes training on 100,000 x 10 with a binary label. Each round first
appends ~1% fresh rows to each input table (one committed batch INSERT
per table, ``Database.executemany``), then runs the operator, ITERATE and recursive-CTE forms (Naive
Bayes: operator and plain SQL). The append makes the operators pay the
per-query cost (CSR build, statistics) the paper measures instead of
hitting a warm cache.

The forms must agree: k-Means centers and PageRank scores within
``REL_TOL``; Naive Bayes models equal (classes, attributes and counts
exactly, floats within ``REL_TOL``).
"""

from __future__ import annotations

import math
import random
import time

from . import harness, trace
from .harness import CheckFailed

KMEANS_N, KMEANS_D, KMEANS_K, KMEANS_ITERS = 50_000, 10, 5, 3
PR_VERTICES, PR_EDGES, PR_DAMPING, PR_ITERS = 5_000, 100_000, 0.85, 10
NB_N, NB_D = 100_000, 10
APPEND_SHARE = 0.01
#: Nominal length of one round at the seed commit on a 2-vCPU host. A
#: run does ``seconds // ROUND_S`` rounds, so every run does the same
#: work (table sizes, and so memory, depend on the number of appends).
ROUND_S = 6.0
REL_TOL = 1e-6

#: (form name, algorithm) in the order each round runs them.
FORMS = [
    ("kmeans_operator", "kmeans"), ("kmeans_iterate", "kmeans"),
    ("kmeans_cte", "kmeans"),
    ("pagerank_operator", "pagerank"), ("pagerank_iterate", "pagerank"),
    ("pagerank_cte", "pagerank"),
    ("nb_operator", "nb"), ("nb_sql", "nb"),
]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def kmeans_centers(result) -> list[tuple]:
    """(cluster id, center coordinates...) sorted by id, from either the
    operator's or the SQL forms' column layout."""
    width = len(result.columns)
    if result.columns[-1] == "size":
        width -= 1
    return sorted(tuple(row[:width]) for row in result.rows)


def check_kmeans(reference, other, label: str) -> None:
    a, b = kmeans_centers(reference), kmeans_centers(other)
    if len(a) != len(b) or any(
        ra[0] != rb[0] or not all(_close(x, y) for x, y in zip(ra[1:], rb[1:]))
        for ra, rb in zip(a, b)
    ):
        raise CheckFailed(f"k-Means {label} centers disagree")


def check_pagerank(reference, other, label: str) -> None:
    a, b = dict(reference.rows), dict(other.rows)
    if a.keys() != b.keys() or not all(_close(a[v], b[v]) for v in a):
        raise CheckFailed(f"PageRank {label} scores disagree")


def check_nb(reference, other, label: str) -> None:
    a, b = sorted(reference.rows), sorted(other.rows)
    ok = len(a) == len(b)
    for ra, rb in zip(a, b):
        cls_a, attr_a, prior_a, mean_a, std_a, count_a = ra
        cls_b, attr_b, prior_b, mean_b, std_b, count_b = rb
        ok = ok and (cls_a, attr_a, int(count_a)) == (
            cls_b, attr_b, int(count_b)
        ) and all(
            _close(x, y)
            for x, y in ((prior_a, prior_b), (mean_a, mean_b),
                         (std_a, std_b))
        )
    if not ok:
        raise CheckFailed(f"Naive Bayes {label} models disagree")


CHECKS = {"kmeans": check_kmeans, "pagerank": check_pagerank,
          "nb": check_nb}


class _Rows:
    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]


class Analytics:
    """One loaded database plus the statements of every form."""

    def __init__(self, seed: int, scale: float):
        from repro import Database
        from repro.datagen.graphs import load_edge_table
        from repro.datagen.vectors import (
            feature_names,
            load_centers_table,
            load_vector_table,
        )
        from repro.workloads import (
            kmeans_iterate_sql,
            kmeans_recursive_sql,
            naive_bayes_train_sql,
            pagerank_iterate_sql,
            pagerank_recursive_sql,
        )

        self.rng = random.Random(seed * 31 + 5)
        self.n_points = max(int(KMEANS_N * scale), 200)
        self.n_vertices = max(int(PR_VERTICES * scale), 50)
        self.n_train = max(int(NB_N * scale), 200)
        self.db = Database()
        feats = feature_names(KMEANS_D)
        self.features = feats
        cols = load_vector_table(
            self.db, "pts", self.n_points, KMEANS_D, seed=seed
        )
        load_centers_table(self.db, "ctr", cols, KMEANS_K, seed + 2)
        load_edge_table(
            self.db, "edges", self.n_vertices,
            max(int(PR_EDGES * scale), 500), seed + 3,
        )
        load_vector_table(
            self.db, "train", self.n_train, NB_D, seed=seed + 4,
            with_label=True,
        )
        self.next_point = self.n_points
        self.next_train = self.n_train
        f = ", ".join(feats)
        self.sql = {
            "kmeans_operator": (
                f"SELECT * FROM KMEANS((SELECT {f} FROM pts), "
                f"(SELECT {f} FROM ctr), {KMEANS_ITERS})"
            ),
            "kmeans_iterate": kmeans_iterate_sql(
                "pts", "ctr", feats, KMEANS_ITERS
            ),
            "kmeans_cte": kmeans_recursive_sql(
                "pts", "ctr", feats, KMEANS_ITERS
            ),
            "pagerank_operator": (
                f"SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
                f"{PR_DAMPING}, 0.0, {PR_ITERS})"
            ),
            "pagerank_iterate": pagerank_iterate_sql(
                "edges", PR_DAMPING, PR_ITERS
            ),
            "pagerank_cte": pagerank_recursive_sql(
                "edges", PR_DAMPING, PR_ITERS
            ),
            "nb_operator": (
                f"SELECT * FROM NAIVE_BAYES_TRAIN("
                f"(SELECT label, {f} FROM train))"
            ),
            "nb_sql": naive_bayes_train_sql("train", "label", feats),
        }

    def appends(self) -> list[tuple[str, list[tuple]]]:
        """One batch INSERT per input table, ~1% of its initial size:
        (parameterized statement, rows) for ``Database.executemany``."""
        r = self.rng

        def vec(d):
            return tuple(r.random() for _ in range(d))

        n = max(int(self.n_points * APPEND_SHARE), 1)
        pts = [(self.next_point + i, *vec(KMEANS_D)) for i in range(n)]
        self.next_point += n
        edges = []
        for _ in range(max(int(self.n_vertices * 10 * APPEND_SHARE), 1)):
            a = r.randrange(self.n_vertices)
            b = (a + r.randrange(1, self.n_vertices)) % self.n_vertices
            edges += [(a, b), (b, a)]
        n = max(int(self.n_train * APPEND_SHARE), 1)
        train = [
            (self.next_train + i, r.randrange(2), *vec(NB_D))
            for i in range(n)
        ]
        self.next_train += n

        def insert(table, rows):
            marks = ", ".join("?" * len(rows[0]))
            return f"INSERT INTO {table} VALUES ({marks})", rows

        return [
            insert("pts", pts), insert("edges", edges),
            insert("train", train),
        ]

    def round(self, host=None) -> tuple[list, dict]:
        """One round: the appends, then every form; checked after the
        timed calls. Returns ([(start, seconds)] of the appends,
        {form: (start, seconds)}). With ``host`` (a
        ``harness.HostSpeed``) a probe runs before each timed call."""
        clock = time.perf_counter
        writes = []
        for sql, rows in self.appends():
            if host is not None:
                host.probe()
            t0 = clock()
            self.db.executemany(sql, rows)
            writes.append((t0, clock() - t0))
        times: dict[str, tuple[float, float]] = {}
        results: dict[str, object] = {}
        for form, _algo in FORMS:
            if host is not None:
                host.probe()
            t0 = clock()
            results[form] = self.db.execute(self.sql[form])
            times[form] = (t0, clock() - t0)
        for form, algo in FORMS:
            reference = f"{algo}_operator"
            if form != reference:
                CHECKS[algo](results[reference], results[form], form)
        return writes, times

    def close(self) -> None:
        self.db.close()


def _setup(opts) -> tuple[Analytics, float]:
    """Load, then warm up with one full round (all of it set-up)."""
    t0 = time.perf_counter()
    workload = Analytics(opts.seed, opts.scale)
    workload.round()
    return workload, time.perf_counter() - t0


def run(opts) -> dict:
    workload, setups, host = harness.set_up_repeatedly(
        lambda: _setup(opts), Analytics.close
    )
    writes: list[tuple[float, float]] = []
    forms: dict[str, list] = {form: [] for form, _a in FORMS}
    attempted = failed = 0
    errors: list[str] = []
    for _ in range(max(int(opts.seconds // ROUND_S), 1)):
        attempted += 3 + len(FORMS)
        try:
            w, times = workload.round(host)
        except Exception as exc:  # noqa: BLE001 - a failed round
            failed += 1
            errors.append(repr(exc))
            if isinstance(exc, CheckFailed):
                continue
            break
        writes += w
        for form, sample in times.items():
            forms[form].append(sample)
    host.probe()
    host.close()
    if opts.perturb_check:
        # Move one expected center: the checker must notice.
        result = workload.db.execute(workload.sql["kmeans_operator"])
        expected = _Rows(result.columns, result.rows)
        first = expected.rows[0]
        expected.rows[0] = (first[0], first[1] + 1e-3, *first[2:])
        try:
            check_kmeans(expected, result, "perturbed")
        except CheckFailed as exc:
            failed += 1
            errors.append(repr(exc))
    workload.close()
    if not writes:
        raise CheckFailed("no round completed")

    def compute(seconds):
        form_ms = {
            form: [x * 1e3 for x in seconds(xs)]
            for form, xs in forms.items()
        }
        medians_ms = {
            form: harness.quartiles(xs)[1] for form, xs in form_ms.items()
        }
        every = [x for xs in form_ms.values() for x in xs]
        writes_ms = [x * 1e3 for x in seconds(writes)]
        return {
            "read_p50_ms": harness.geomean([
                med for form, med in medians_ms.items()
                if form.endswith("_operator")
            ]),
            "ops_per_s": (len(writes_ms) + len(every)) * 1e3
            / (sum(writes_ms) + sum(every)),
            "query_geomean_ms": harness.geomean(list(medians_ms.values())),
            "read_p99_ms": harness.percentile(every, 99),
            "write_p50_ms": harness.percentile(writes_ms, 50),
            **{f"{form}_s": med / 1e3 for form, med in medians_ms.items()},
        }

    gated, reported = harness.time_metrics(host, setups, compute)
    return {
        "metrics": {"peak_rss_mb": harness.peak_rss_mb_self(), **gated},
        "samples": {
            "setup_s": [s for _t, s in setups],
            "write_ms": [s * 1e3 for _t, s in writes],
            **{f"{form}_s": [s for _t, s in xs] for form, xs in forms.items()},
            **host.summary(),
        },
        "reported": reported,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    }


def run_traced(opts) -> dict:
    """One untraced round, then one traced round on the same database
    (1% larger, from its appends)."""
    workload, _seconds = _setup(opts)
    attempted = failed = 0
    errors: list[str] = []
    walls = []
    spans = []
    try:
        for traced in (False, True):
            recorder = trace.install() if traced else None
            t0 = time.perf_counter()
            attempted += 3 + len(FORMS)
            try:
                w, times = workload.round()
                walls.append(
                    sum(s for _t, s in w)
                    + sum(s for _t, s in times.values())
                )
            except Exception as exc:  # noqa: BLE001 - a failed round
                failed += 1
                errors.append(repr(exc))
                walls.append(float("nan"))
            if recorder is not None:
                spans = trace.in_window(
                    recorder.spans, t0, time.perf_counter()
                )
        storage = workload.db.storage_stats()
    finally:
        workload.close()
    metrics = trace.layer_metrics(spans, storage=storage)
    return {
        "metrics": metrics,
        "spans": spans,
        "overhead": walls[1] / walls[0] - 1.0,
        "caller_s": walls[1],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
