"""``oltp_wire``: point reads and durable 1-row updates over the wire.

A ``repro.server`` subprocess (started through ``launcher.py``, which
calls the server's own ``main``) runs with ``--wal`` in a temp dir and
every other flag at its default (fsync per commit, auto-checkpoint
off). It serves ``accounts(id INTEGER, grp VARCHAR, balance DOUBLE)``
with 20,000 rows. One closed-loop connection sends 95% ``SELECT grp,
balance FROM accounts WHERE id = ?`` and 5% ``UPDATE accounts SET
balance = balance + ? WHERE id = ?`` with uniform ids; the one write
of every block of 20 operations sits at a random place in the block.
A timed run does ``OPS_PER_S`` operations per second of ``--seconds``.

The table reaches the server through its own recovery path: the
benchmark writes the initial WAL with an embedded ``Database`` and the
server replays it on start. Balances and deltas are integers held in
DOUBLE, so the shadow copy the checker keeps is exact.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from . import harness, trace
from .harness import CheckFailed

ROWS = 20_000
#: One write in every BLOCK operations: the 5% update share.
BLOCK = 20
#: Operations a timed run does per second of ``--seconds``: about the
#: rate at the nominal host speed, so every run does the same work
#: (and reaches the same WAL and history sizes) whatever the host's
#: speed.
OPS_PER_S = 110
#: Operations of each slice of a traced run, at full scale.
TRACED_OPS = 600
READ = "SELECT grp, balance FROM accounts WHERE id = ?"
WRITE = "UPDATE accounts SET balance = balance + ? WHERE id = ?"


@dataclass
class Served:
    server: harness.ServerProcess
    client: object
    shadow: dict
    setup_s: float


@dataclass
class Ops:
    #: (start, seconds) of every read and every write.
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    rtts: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    errors: list = field(default_factory=list)


def make_rows(seed: int, rows: int) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (i, f"g{rng.randrange(50):02d}", float(rng.randrange(100_000)))
        for i in range(rows)
    ]


def _write_initial_wal(path: str, rows: list[tuple]) -> None:
    from repro import Database

    db = Database(wal_path=path)
    try:
        db.execute(
            "CREATE TABLE accounts "
            "(id INTEGER, grp VARCHAR, balance DOUBLE)"
        )
        db.insert_rows("accounts", rows)
    finally:
        db.close()


def serve(seed: int, rows: int, traced: bool, deadline_s: float) -> Served:
    """Start a server over a fresh WAL and warm it up: connect, then one
    run of each statement shape. All of it is set-up time."""
    from repro.server.client import Client

    started = time.perf_counter()
    data = make_rows(seed, rows)
    wal_dir = harness.scratch_dir("oltp-")
    _write_initial_wal(f"{wal_dir}/db.wal", data)
    server = harness.ServerProcess(wal_dir, traced, deadline_s)
    try:
        client = Client(server.host, server.port)
        shadow = {r[0]: (r[1], r[2]) for r in data}
        got = client.query(READ, [0]).rows
        if [tuple(r) for r in got] != [shadow[0]]:
            raise CheckFailed(f"warm-up read of id 0: {got!r}")
        client.execute(WRITE, [1.0, 0])
        shadow[0] = (shadow[0][0], shadow[0][1] + 1.0)
    except BaseException:
        server.stop()
        raise
    return Served(server, client, shadow, time.perf_counter() - started)


def run_ops(
    served: Served,
    rng: random.Random,
    rows: int,
    n_ops: int,
    host: Optional[harness.HostSpeed] = None,
) -> Ops:
    """The closed loop: each request waits for the previous reply.
    Answers are checked against the shadow outside the timed call.
    With ``host``, a host-speed probe runs before every block."""
    from repro.server.client import ServerError

    ops = Ops()
    client, shadow = served.client, served.shadow
    clock = time.perf_counter
    began = clock()
    write_at = -1
    while ops.attempted < n_ops:
        # Exactly one write per block of BLOCK operations, at a random
        # place in the block: the 95/5 mix without binomial noise.
        if ops.attempted % BLOCK == 0:
            write_at = ops.attempted + rng.randrange(BLOCK)
            if host is not None:
                host.probe()
        key = rng.randrange(rows)
        write = ops.attempted == write_at
        delta = float(rng.randrange(-500, 501)) if write else 0.0
        ops.attempted += 1
        try:
            t0 = clock()
            if write:
                result = client.execute(WRITE, [delta, key])
            else:
                result = client.query(READ, [key])
            elapsed = clock() - t0
        except ServerError as exc:
            ops.failed += 1
            ops.errors.append(repr(exc))
            break
        except Exception as exc:  # noqa: BLE001 - a failed operation
            ops.failed += 1
            ops.errors.append(repr(exc))
            continue
        ops.rtts.append(elapsed)
        if write:
            ops.writes.append((t0, elapsed))
            if result.rowcount != 1:
                ops.failed += 1
                ops.errors.append(f"update of {key}: {result.rowcount}")
            else:
                grp, balance = shadow[key]
                shadow[key] = (grp, balance + delta)
        else:
            ops.reads.append((t0, elapsed))
            if [tuple(r) for r in result.rows] != [shadow[key]]:
                ops.failed += 1
                ops.errors.append(
                    f"read of {key}: {result.rows!r} != {shadow[key]!r}"
                )
    ops.wall_s = clock() - began
    return ops


def final_check(served: Served, perturb: bool = False) -> Optional[str]:
    """``SUM(balance)`` and the row count against the shadow; returns a
    failure description or None."""
    shadow = served.shadow
    if perturb:
        key = next(iter(shadow))
        grp, balance = shadow[key]
        shadow[key] = (grp, balance + 1.0)
    expected = (len(shadow), sum(b for _g, b in shadow.values()))
    got = served.client.query(
        "SELECT COUNT(*), SUM(balance) FROM accounts"
    ).rows[0]
    if (int(got[0]), float(got[1])) != expected:
        return f"final state {tuple(got)!r} != shadow {expected!r}"
    return None


def _close(served: Served) -> dict:
    try:
        served.client.close()
    finally:
        report = served.server.stop()
    return report


def run(opts) -> dict:
    """The timed run: ``harness.SETUPS`` set-ups, then ``OPS_PER_S``
    operations per second of ``opts.seconds`` of the closed loop on the
    last one."""
    rows = max(int(ROWS * opts.scale), 100)

    def setup():
        served = serve(opts.seed, rows, False, opts.deadline_s)
        return served, served.setup_s

    served, setups, host = harness.set_up_repeatedly(setup, _close)
    rng = random.Random(opts.seed * 7919 + 1)
    try:
        ops = run_ops(
            served, rng, rows, max(int(opts.seconds * OPS_PER_S), BLOCK),
            host=host,
        )
        host.probe()
        failure = final_check(served, opts.perturb_check)
    finally:
        host.close()
        report = _close(served)
    checks_failed = ops.failed + (1 if failure else 0)
    if not ops.reads or not ops.writes:
        raise CheckFailed("the window produced no reads or no writes")

    def compute(seconds):
        # A point read is mostly the wire's hand-offs; an update is
        # mostly the server's work.
        reads_ms = [x * 1e3 for x in seconds(ops.reads, kind="handoff")]
        writes_ms = [x * 1e3 for x in seconds(ops.writes)]
        read_med = harness.quartiles(reads_ms)[1]
        write_med = harness.quartiles(writes_ms)[1]
        return {
            "read_p50_ms": harness.percentile(reads_ms, 50),
            "ops_per_s": (len(reads_ms) + len(writes_ms)) * 1e3
            / (sum(reads_ms) + sum(writes_ms)),
            "query_geomean_ms": harness.geomean([read_med, write_med]),
            "read_p99_ms": harness.percentile(reads_ms, 99),
            "write_p50_ms": harness.percentile(writes_ms, 50),
        }

    gated, reported = harness.time_metrics(host, setups, compute)
    return {
        "metrics": {"peak_rss_mb": served.server.peak_rss_mb, **gated},
        "reported": reported,
        "samples": {
            "setup_s": [s for _t, s in setups],
            "read_ms": [s * 1e3 for _t, s in ops.reads],
            "write_ms": [s * 1e3 for _t, s in ops.writes],
            **host.summary(),
        },
        "attempted": ops.attempted + 1,
        "failed": checks_failed,
        "errors": ops.errors[:20] + ([failure] if failure else []),
        "configs": report.get("extra", {}).get("configs", []),
    }


def _statement_seconds(client) -> float:
    """The server's ``statement_seconds_sum``: its own clock around
    every ``Database.execute``, read over the wire."""
    text = client.metrics_text()
    match = re.search(r"^statement_seconds_sum\s+(\S+)$", text, re.M)
    return float(match.group(1)) if match else 0.0


def traced_slice(opts, n_ops: int, rng_seed: int) -> dict:
    """One traced server: ``n_ops`` operations, server spans and client
    codec spans of the window, and the per-layer metrics they give."""
    rows = max(int(ROWS * opts.scale), 100)
    recorder = trace.install()
    served = serve(opts.seed, rows, True, opts.deadline_s)
    try:
        engine_s = _statement_seconds(served.client)
        t0 = time.perf_counter()
        ops = run_ops(served, random.Random(rng_seed), rows, n_ops=n_ops)
        t1 = time.perf_counter()
        engine_s = _statement_seconds(served.client) - engine_s
        failure = final_check(served)
    finally:
        report = _close(served)
    extra = report.get("extra", {})
    storage = extra.get("storage") or {}
    table = (storage.get("tables") or {}).get("accounts")
    raw_row_bytes = (
        table["raw_bytes"] / table["rows"] if table and table["rows"]
        else None
    )
    spans = trace.in_window(report.get("spans", []), t0, t1)
    spans += trace.in_window(recorder.spans, t0, t1)
    metrics = trace.layer_metrics(
        spans, requests=ops.rtts, storage=storage,
        raw_row_bytes=raw_row_bytes,
    )
    return {
        "metrics": metrics,
        "spans": spans,
        "wall_s": ops.wall_s,
        # The engine's own timing of the window's statements.
        "caller_s": engine_s,
        "attempted": ops.attempted + 1,
        "failed": ops.failed + (1 if failure else 0),
        "errors": ops.errors[:20] + ([failure] if failure else []),
        "configs": extra.get("configs", []),
    }


def run_traced(opts) -> dict:
    """Untraced then traced slice of the same operations, for the trace
    overhead; the traced slice gives the per-layer metrics."""
    rows = max(int(ROWS * opts.scale), 100)
    n_ops = max(int(TRACED_OPS * opts.scale), 20)
    rng_seed = opts.seed * 7919 + 2
    served = serve(opts.seed, rows, False, opts.deadline_s)
    try:
        plain = run_ops(served, random.Random(rng_seed), rows, n_ops=n_ops)
        failure = final_check(served)
    finally:
        _close(served)
    traced = traced_slice(opts, n_ops, rng_seed)
    traced["overhead"] = traced["wall_s"] / plain.wall_s - 1.0
    traced["attempted"] += plain.attempted + 1
    traced["failed"] += plain.failed + (1 if failure else 0)
    traced["errors"] += plain.errors[:20] + ([failure] if failure else [])
    return traced
