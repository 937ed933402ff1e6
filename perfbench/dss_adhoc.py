"""``dss_adhoc``: ad-hoc TPC-H-shaped queries plus a bulk refresh.

A default embedded ``Database`` holds ``repro.testing.tpch.generate
(scale=2)`` (600 orders, ~2.4k lineitems). Each pass runs the 18 query
shapes of ``dss_queries`` with fresh literals, so every statement
misses the plan cache, then one refresh transaction inserts ~1% new
orders with their lineitems and deletes as many of the oldest. A timed
run does ``PASSES_PER_S`` passes per second of ``--seconds``.

Every query result and every post-refresh state is checked against
SQLite, built with ``repro.testing.oracle.build_sqlite_db`` from the
same generated rows and given the same refresh.
"""

from __future__ import annotations

import random
import time

from . import dss_queries, harness, trace
from .harness import CheckFailed

SCALE = 2.0
REFRESH_SHARE = 0.01
#: Passes of each slice of a traced run, at full scale.
TRACED_PASSES = 8
#: Passes a timed run does per second of ``--seconds``: about the rate
#: at the nominal host speed, so every run does the same work whatever
#: the host's speed.
PASSES_PER_S = 2

_SHIPMODES = dss_queries.SHIPMODES
_PRIORITIES = ["1-urgent", "2-high", "3-medium", "4-not specified", "5-low"]
_INSTRUCT = ["collect cod", "deliver in person", "none", "take back return"]
DATE_LO, DATE_HI = 8035, 10561


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _values(rows) -> str:
    return ", ".join(
        "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows
    )


class Adhoc:
    """The engine under test, its SQLite twin, and the refresh state."""

    def __init__(self, seed: int, scale: float):
        from repro import Database
        from repro.testing import tpch
        from repro.testing.oracle import build_sqlite_db

        tables = tpch.generate(scale=SCALE * scale, seed=seed)
        self.rng = random.Random(seed * 131 + 7)
        self.seen: set = set()
        self.db = Database()
        for table in tables:
            self.db.execute(table.ddl())
            if table.rows:
                self.db.insert_rows(table.name, table.rows)
        self.sqlite = build_sqlite_db(tables)
        by_name = {t.name: t for t in tables}
        self.retail = {r[0]: r[7] for r in by_name["part"].rows}
        self.n_supplier = len(by_name["supplier"].rows)
        self.n_customer = len(by_name["customer"].rows)
        keys = [r[0] for r in by_name["orders"].rows]
        self.oldest, self.next_key = min(keys), max(keys) + 1
        self.refresh_orders = max(int(len(keys) * REFRESH_SHARE), 1)

    # -- queries -----------------------------------------------------------

    def check_query(self, sql: str, ordered: bool, rows) -> None:
        from repro.testing.oracle import normalize_rows, rows_equal

        expected = normalize_rows(self.sqlite.execute(sql).fetchall(),
                                  ordered)
        actual = normalize_rows(rows, ordered)
        if not rows_equal(actual, expected, ordered):
            raise CheckFailed(
                f"query diverged from SQLite: {actual[:3]} vs "
                f"{expected[:3]}\n{sql}"
            )

    # -- refresh -----------------------------------------------------------

    def refresh_sql(self) -> list[str]:
        r = self.rng
        orders, lines = [], []
        for key in range(self.next_key, self.next_key + self.refresh_orders):
            orderdate = r.randint(DATE_LO, DATE_HI - 151)
            total = 0.0
            for number in range(1, r.randint(1, 7) + 1):
                partkey = r.randint(1, len(self.retail))
                quantity = r.randint(1, 50)
                price = round(quantity * self.retail[partkey], 2)
                ship = orderdate + r.randint(1, 121)
                receipt = ship + r.randint(1, 30)
                total += price
                lines.append((
                    key, partkey, r.randint(1, self.n_supplier), number,
                    quantity, price, r.randint(0, 10) / 100,
                    r.randint(0, 8) / 100,
                    r.choice(["a", "r"]) if receipt <= 9400 else "n",
                    "f" if ship <= 9400 else "o", ship,
                    orderdate + r.randint(30, 90), receipt,
                    r.choice(_SHIPMODES), r.choice(_INSTRUCT),
                ))
            orders.append((
                key, r.randint(1, self.n_customer), r.choice("fop"),
                round(total, 2), orderdate, r.choice(_PRIORITIES),
            ))
        self.next_key += self.refresh_orders
        cutoff = self.oldest + self.refresh_orders - 1
        self.oldest = cutoff + 1
        return [
            f"INSERT INTO orders VALUES {_values(orders)}",
            f"INSERT INTO lineitem VALUES {_values(lines)}",
            f"DELETE FROM lineitem WHERE l_orderkey <= {cutoff}",
            f"DELETE FROM orders WHERE o_orderkey <= {cutoff}",
        ]

    def check_state(self) -> None:
        from repro.testing.oracle import normalize_rows, rows_equal

        for table in ("orders", "lineitem"):
            sql = f"SELECT * FROM {table}"
            actual = normalize_rows(self.db.execute(sql).rows, False)
            expected = normalize_rows(
                self.sqlite.execute(sql).fetchall(), False
            )
            if not rows_equal(actual, expected, False):
                raise CheckFailed(f"{table} diverged after refresh")

    # -- one pass ----------------------------------------------------------

    def one_pass(
        self, reads: list, writes: list, errors: list, host=None
    ) -> int:
        """18 queries and one refresh, each timed alone; the queries are
        checked after the last one, so the SQLite twin never runs between
        two timed calls. ``reads`` gets (shape, start, seconds) in order,
        ``writes`` (start, seconds). With ``host`` (a
        ``harness.HostSpeed``) a probe runs before each timed call.
        Returns the number of failed operations."""
        clock = time.perf_counter
        failed = 0
        done = []
        for name, sql, ordered in dss_queries.draw(self.rng, self.seen):
            try:
                if host is not None:
                    host.probe()
                t0 = clock()
                result = self.db.execute(sql)
                done.append((name, sql, ordered, result, t0, clock() - t0))
            except Exception as exc:  # noqa: BLE001 - a failed query
                failed += 1
                errors.append(f"{name}: {exc!r}")
        for name, sql, ordered, result, start, elapsed in done:
            try:
                with trace.suspended():
                    self.check_query(sql, ordered, result.rows)
                reads.append((name, start, elapsed))
            except Exception as exc:  # noqa: BLE001 - a wrong answer
                failed += 1
                errors.append(f"{name}: {exc!r}")
        statements = self.refresh_sql()
        try:
            if host is not None:
                host.probe()
            t0 = clock()
            self.db.execute("BEGIN; " + "; ".join(statements) + "; COMMIT")
            elapsed = clock() - t0
            for sql in statements:
                self.sqlite.execute(sql)
            self.sqlite.commit()
            with trace.suspended():
                self.check_state()
            writes.append((t0, elapsed))
        except Exception as exc:  # noqa: BLE001 - a failed refresh
            failed += 1
            errors.append(f"refresh: {exc!r}")
        return failed

    def close(self) -> None:
        self.db.close()
        self.sqlite.close()


def _setup(opts) -> tuple[Adhoc, float]:
    """Load both engines and warm up with one pass (all set-up time)."""
    t0 = time.perf_counter()
    workload = Adhoc(opts.seed, opts.scale)
    errors: list = []
    if workload.one_pass([], [], errors):
        raise CheckFailed(f"warm-up pass failed: {errors[:3]}")
    return workload, time.perf_counter() - t0


def run(opts) -> dict:
    workload, setups, host = harness.set_up_repeatedly(
        lambda: _setup(opts), Adhoc.close
    )
    reads: list[tuple[str, float, float]] = []
    writes: list[tuple[float, float]] = []
    errors: list[str] = []
    attempted = failed = 0
    for _ in range(max(int(opts.seconds * PASSES_PER_S), 1)):
        attempted += len(dss_queries.SHAPES) + 1
        failed += workload.one_pass(reads, writes, errors, host)
    host.probe()
    host.close()
    if opts.perturb_check:
        # Run one more query against a wrong expectation.
        name, sql, ordered = dss_queries.draw(workload.rng, workload.seen)[0]
        rows = list(workload.db.execute(sql).rows)
        rows[0] = tuple(rows[0][:-1]) + (-1,)
        attempted += 1
        try:
            workload.check_query(sql, ordered, rows)
        except CheckFailed as exc:
            failed += 1
            errors.append(f"perturbed {name}: {exc!r}")
    workload.close()
    if not writes or len({r[0] for r in reads}) != len(dss_queries.SHAPES):
        raise CheckFailed("a shape or the refresh never succeeded")

    def compute(seconds):
        all_ms = [x * 1e3 for x in seconds([(t, s) for _n, t, s in reads])]
        by_shape: dict[str, list[float]] = {}
        for (name, _t, _s), x in zip(reads, all_ms):
            by_shape.setdefault(name, []).append(x)
        writes_ms = [x * 1e3 for x in seconds(writes)]
        return {
            "read_p50_ms": harness.percentile(all_ms, 50),
            "ops_per_s": (len(all_ms) + len(writes_ms)) * 1e3
            / (sum(all_ms) + sum(writes_ms)),
            "query_geomean_ms": harness.geomean(
                [harness.quartiles(xs)[1] for xs in by_shape.values()]
            ),
            "read_p99_ms": harness.percentile(all_ms, 99),
            "write_p50_ms": harness.percentile(writes_ms, 50),
        }

    gated, reported = harness.time_metrics(host, setups, compute)
    by_shape_wall: dict[str, list[float]] = {}
    for name, _t, seconds in reads:
        by_shape_wall.setdefault(name, []).append(seconds * 1e3)
    return {
        "metrics": {"peak_rss_mb": harness.peak_rss_mb_self(), **gated},
        "reported": reported,
        "samples": {
            "setup_s": [s for _t, s in setups],
            "write_ms": [s * 1e3 for _t, s in writes],
            **{f"{name}_ms": xs for name, xs in by_shape_wall.items()},
            **host.summary(),
        },
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    }


def run_traced(opts) -> dict:
    """``TRACED_PASSES`` untraced passes (fewer at smaller
    ``opts.scale``), then as many traced ones on the same database."""
    passes = max(int(TRACED_PASSES * opts.scale), 1)
    workload, _seconds = _setup(opts)
    errors: list[str] = []
    attempted = failed = 0
    busy = []
    spans: list = []
    try:
        for traced in (False, True):
            recorder = trace.install() if traced else None
            reads: list = []
            writes: list = []
            t0 = time.perf_counter()
            for _ in range(passes):
                attempted += len(dss_queries.SHAPES) + 1
                failed += workload.one_pass(reads, writes, errors)
            busy.append(
                sum(seconds for _name, _t, seconds in reads)
                + sum(seconds for _t, seconds in writes)
            )
            if recorder is not None:
                spans = trace.in_window(
                    recorder.spans, t0, time.perf_counter()
                )
        storage = workload.db.storage_stats()
    finally:
        workload.close()
    return {
        "metrics": trace.layer_metrics(spans, storage=storage),
        "spans": spans,
        "overhead": busy[1] / busy[0] - 1.0,
        "caller_s": busy[1],
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    }
