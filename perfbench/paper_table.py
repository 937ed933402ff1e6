"""The paper's layer table at 1/10 of the ``analytics_layers`` sizes.

For k-Means, PageRank and Naive Bayes it times every integration layer
of the paper: ``external`` (layer 1, export to a client-side tool),
``udf`` (layer 2, the MADlib-like UDF driver), ``cte`` and ``iterate``
(layer 3, SQL; Naive Bayes has one plain ``sql`` form instead) and
``operator`` (layer 4). It runs only in the traced run, so its spans
also supply the analytics-layer metrics of workloads that run no
analytics themselves. Layer 3 and 4 results are cross-checked with the
same tolerances as ``analytics_layers``.
"""

from __future__ import annotations

import time

from . import analytics_layers as al
from . import trace

SHRINK = 10

#: (algo, layer) -> the series name in ``repro.bench.experiments``.
SERIES = {
    "external": "External tool",
    "udf": "MADlib-like",
    "cte": "HyPer SQL",
    "sql": "HyPer SQL",
    "iterate": "HyPer Iterate",
    "operator": "HyPer Operator",
}
LAYERS = {
    "kmeans": ("external", "udf", "cte", "iterate", "operator"),
    "pagerank": ("external", "udf", "cte", "iterate", "operator"),
    "nb": ("external", "udf", "sql", "operator"),
}


def run(seed: int, scale: float) -> dict:
    from repro.bench import experiments as ex

    n = max(int(al.KMEANS_N * scale / SHRINK), 100)
    setups = {
        "kmeans": (
            lambda: ex.setup_kmeans(
                n, al.KMEANS_D, al.KMEANS_K, al.KMEANS_ITERS, seed=seed
            ),
            ex.run_kmeans,
        ),
        "pagerank": (
            lambda: ex.setup_pagerank(
                max(int(al.PR_VERTICES * scale / SHRINK), 20),
                max(int(al.PR_EDGES * scale / SHRINK), 200),
                al.PR_DAMPING, al.PR_ITERS, seed=seed,
            ),
            ex.run_pagerank,
        ),
        "nb": (
            lambda: ex.setup_naive_bayes(
                max(int(al.NB_N * scale / SHRINK), 100), al.NB_D,
                seed=seed,
            ),
            ex.run_naive_bayes,
        ),
    }
    recorder = trace.install()
    metrics: dict[str, float] = {}
    errors: list[str] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    for algo, (setup, run_one) in setups.items():
        state = setup()
        results = {}
        for layer in LAYERS[algo]:
            attempted += 1
            started = time.perf_counter()
            results[layer] = run_one(state, SERIES[layer])
            metrics[f"paper.{algo}.{layer}_s"] = (
                time.perf_counter() - started
            )
        for layer in ("cte", "iterate", "sql"):
            if layer in results:
                try:
                    al.CHECKS[algo](results["operator"], results[layer],
                                    f"paper {layer}")
                except al.CheckFailed as exc:
                    failed += 1
                    errors.append(repr(exc))
        state.db.close()
    spans = trace.in_window(recorder.spans, t0, time.perf_counter())
    return {
        "metrics": metrics,
        "layer_metrics": trace.layer_metrics(spans),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
