#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload oltp_wire|dss_adhoc|analytics_layers
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that gives the per-layer
metrics. Times are given at a nominal host speed
(``harness.HostSpeed``; the measured ones are reported as
``wall.<metric>``), from a process pinned to one CPU. Every answer is
checked. A human-readable report goes to stdout, a run record
(environment, engine configs, raw samples) to ``.perfbench/records/``,
and the last stdout line is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``. A wrong answer makes the command exit 1. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("oltp_wire", "dss_adhoc", "analytics_layers")
#: Hard stop for the whole command, below the 180 s every run must meet.
RUN_DEADLINE_S = 170
#: Operations of the small traced ``oltp_wire`` slice other workloads'
#: traced runs use for the server and WAL layers.
FILL_OLTP_OPS = 200


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Not part of the documented command line: smaller data for the
    # benchmark's own tests, and a deliberately wrong expectation.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb-check", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return _fail("no engine source at src/repro; run from a checkout")
    if not os.path.exists(spec_path):
        return _fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    for entry in (ROOT, os.path.join(ROOT, "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from perfbench import harness

    harness.track_databases()
    harness.pin_to_one_cpu()

    def on_deadline(signum, frame):
        harness.kill_all()
        print("perfbench: run deadline exceeded", file=sys.stderr)
        os._exit(3)

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    args.deadline_s = RUN_DEADLINE_S
    try:
        record = measure(args, spec)
    except harness.CheckFailed as exc:
        # A wrong answer before any sample exists (set-up or warm-up).
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.kill_all()
        signal.alarm(0)
    return 0 if record["correct"] else 1


def measure(args, spec) -> dict:
    from perfbench import harness
    from perfbench import analytics_layers, dss_adhoc, oltp_wire

    module = {
        "oltp_wire": oltp_wire,
        "dss_adhoc": dss_adhoc,
        "analytics_layers": analytics_layers,
    }[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    started = time.perf_counter()
    extra: dict = {}
    if args.trace:
        out = traced(args, module)
        extra = {k: out[k] for k in ("sources", "accounting")}
    else:
        out = module.run(args)
    values = out["metrics"]
    missing = sorted(set(units) - set(values))
    undefined = sorted(k for k in units if values.get(k) is None)
    if missing or undefined or set(values) - set(units):
        raise SystemExit(
            f"perfbench: metric set mismatch: missing {missing}, "
            f"undefined {undefined}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    attempted, failed = int(out["attempted"]), int(out["failed"])
    record = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "environment": harness.environment(args.seed),
        "configs": {
            "embedded": harness.OPENED,
            "server": out.get("configs", []),
        },
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
        "reported": out.get("reported", {}),
        "samples": {
            name: harness.summary(xs)
            for name, xs in out.get("samples", {}).items() if xs
        },
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": out.get("errors", []),
        "correct": failed == 0,
        **extra,
    }
    path = harness.write_record(record)
    if args.trace:
        with open(path[: -len(".json")] + ".spans.json", "w") as fh:
            json.dump(out["spans"], fh)
    report(record, path)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return record


def traced(args, module) -> dict:
    """The traced run: the workload's own traced slice, the paper layer
    table, and — for workloads without a server — a small traced
    ``oltp_wire`` slice. A per-layer metric comes from the workload
    itself when it exercises that layer, else (``None``: the layer was
    never entered) from the first of the other two that does
    (``sources`` records which)."""
    from perfbench import oltp_wire, paper_table, trace

    own = module.run_traced(args)
    paper = paper_table.run(args.seed, args.scale)
    fills = [("paper_table", paper["layer_metrics"])]
    attempted = own["attempted"] + paper["attempted"]
    failed = own["failed"] + paper["failed"]
    errors = own["errors"] + paper["errors"]
    configs = list(own.get("configs", []))
    if args.workload != "oltp_wire":
        wire = oltp_wire.traced_slice(
            args, FILL_OLTP_OPS, args.seed * 7919 + 3
        )
        fills.append(("oltp_wire", wire["metrics"]))
        attempted += wire["attempted"]
        failed += wire["failed"]
        errors += wire["errors"]
        configs += wire.get("configs", [])
    metrics: dict = {}
    sources: dict = {}
    for name, value in own["metrics"].items():
        source = args.workload
        if value is None:
            for fill_name, filled in fills:
                if filled.get(name) is not None:
                    value, source = filled[name], fill_name
                    break
        metrics[name] = value
        sources[name] = source
    metrics["bench.trace_overhead_frac"] = own["overhead"]
    metrics.update(paper["metrics"])
    accounting = trace.accounting(own["spans"])
    accounting["caller_s"] = own.get("caller_s")
    return {
        "metrics": metrics,
        "spans": own["spans"],
        "sources": sources,
        "accounting": accounting,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "configs": configs,
    }


def report(record: dict, path: str) -> None:
    print(
        f"perfbench {record['workload']} seed={record['environment']['seed']}"
        f" seconds={record['seconds']:g} trace={int(record['trace'])}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record["reported"].items():
        print(f"  {name:40s} {value:14.6g} (reported, not gated)")
    if record["samples"]:
        print("  samples: name  n  median  [q1, q3]")
        for name, s in record["samples"].items():
            print(
                f"    {name:38s} {s['n']:6d} {s['median']:12.6g}  "
                f"[{s['q1']:.6g}, {s['q3']:.6g}]"
            )
    print(
        f"  error_rate {record['error_rate']:.6g} "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    for error in record["errors"][:5]:
        print(f"  error: {error}")
    print(f"  record: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
