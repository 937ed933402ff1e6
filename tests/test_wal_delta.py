"""Row-delta WAL records: UPDATE and DELETE log what changed.

An UPDATE is logged as the ascending row positions it hit plus the new
values of each assigned column at those positions; a DELETE as the
positions alone (docs/durability.md). Positions replay exactly because
replay runs in commit order, first-committer-wins pins every written
table's committed base to the snapshot the transaction read, and
checkpoints keep row order.

The seeded property test drives random INSERT/UPDATE/DELETE sequences
(explicit transactions, a savepoint unwound by a failing
``executemany``, a checkpoint part-way) through a durable session and,
after every commit, recovers a fresh session from the WAL that must
equal the live one row for row, in order.
"""

import json
import random
import struct
import zlib

import numpy as np
import pytest

import repro
from repro.errors import CatalogError, WalCorruptionError
from repro.storage import Catalog, TableSchema
from repro.txn import TransactionManager, WriteAheadLog
from repro.txn.wal import _HEADER
from repro.types import INTEGER, VARCHAR

DDL = (
    "CREATE TABLE t (k INTEGER, big BIGINT, x DOUBLE, s VARCHAR, "
    "flag BOOLEAN, day DATE, nn INTEGER NOT NULL)"
)
INSERT = "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)"
STRINGS = ["", "a", "b", "o'q", "ünï", "x" * 40]


def state(db) -> dict:
    """Every table's rows in storage order; repr keeps NaN comparable."""
    return {
        name: repr(list(db.catalog.data(name).rows()))
        for name in db.catalog.table_names()
    }


class DmlWorkload:
    """Seeded random DML against ``t`` through a durable session."""

    def __init__(self, seed: int, path: str, encoding: str):
        self.rng = random.Random(seed)
        self.path = path
        self.encoding = encoding
        self.db = repro.Database(
            wal_path=path, encoding=encoding, workers=1
        )
        self.next_k = 0
        self.commits_checked = 0

    # -- values ---------------------------------------------------------

    def value(self, column: str):
        rng = self.rng
        if column == "nn":
            return rng.randrange(100)
        if rng.random() < 0.2:
            return None
        if column == "big":
            return rng.randrange(-(2**40), 2**40)
        if column == "x":
            return rng.choice(
                [float("nan"), float("inf"), float("-inf"),
                 round(rng.uniform(-1e3, 1e3), 3)]
            )
        if column == "s":
            return rng.choice(STRINGS)
        if column == "flag":
            return rng.random() < 0.5
        assert column == "day"
        return 18000 + rng.randrange(1000)

    def row(self) -> tuple:
        self.next_k += 1
        return (self.next_k,) + tuple(
            self.value(c) for c in ("big", "x", "s", "flag", "day", "nn")
        )

    def where(self) -> tuple[str, tuple]:
        rng = self.rng
        choice = rng.randrange(7)
        if choice == 0:
            return "", ()  # every row
        if choice == 1:
            return " WHERE k < 0", ()  # no row
        if choice == 2:
            return " WHERE x IS NULL", ()
        if choice == 3:
            return " WHERE s = ?", (rng.choice(STRINGS),)
        if choice == 4:
            return " WHERE k < ?", (rng.randrange(self.next_k + 2),)
        m = rng.randrange(2, 6)
        return " WHERE k % ? = ?", (m, rng.randrange(m))

    # -- statements -----------------------------------------------------

    def insert(self) -> None:
        for _ in range(self.rng.randrange(1, 4)):
            self.db.execute(INSERT, self.row())

    def update(self) -> None:
        rng = self.rng
        sets, params = [], []
        for column in rng.sample(
            ["big", "x", "s", "flag", "day", "nn"], rng.randrange(1, 4)
        ):
            expr = {
                "big": "big * 2",
                "x": "x + 0.5",
                "s": "s || 'z'",
                "flag": "NOT flag",
                "nn": "nn + 1",
            }.get(column)
            if expr is not None and rng.random() < 0.4:
                sets.append(f"{column} = {expr}")
            else:
                sets.append(f"{column} = ?")
                params.append(self.value(column))
        where, where_params = self.where()
        self.db.execute(
            f"UPDATE t SET {', '.join(sets)}{where}",
            tuple(params) + where_params,
        )

    def delete(self) -> None:
        where, params = self.where()
        if not where:
            where, params = " WHERE k % ? = ?", (7, self.rng.randrange(7))
        self.db.execute(f"DELETE FROM t{where}", params)

    def statement(self) -> None:
        self.rng.choice([self.insert, self.update, self.update,
                         self.delete])()

    # -- checking ---------------------------------------------------------

    def check(self) -> None:
        """A fresh session recovered from the WAL equals the live one."""
        fresh = repro.Database(
            wal_path=self.path, encoding=self.encoding, workers=1
        )
        try:
            assert state(fresh) == state(self.db), (
                f"recovery diverged after commit {self.commits_checked}"
            )
        finally:
            fresh.close()
        self.commits_checked += 1

    def run(self, steps: int) -> None:
        db = self.db
        db.execute(DDL)
        db.insert_rows("t", [self.row() for _ in range(30)])
        self.check()
        # To NULL and back again, two columns at once.
        db.execute("UPDATE t SET x = NULL, s = NULL WHERE k % 2 = 0")
        self.check()
        db.execute("UPDATE t SET x = 1.5, s = 'back' WHERE k % 2 = 0")
        self.check()
        for step in range(steps):
            kind = self.rng.randrange(6)
            if step == steps // 2:
                db.checkpoint()
                self.check()
            if kind <= 2:
                self.statement()
            elif kind == 3:
                db.begin()
                for _ in range(self.rng.randrange(2, 5)):
                    self.statement()
                if self.rng.random() < 0.2:
                    db.rollback()
                else:
                    db.commit()
            elif kind == 4:
                # A failing executemany unwinds to its savepoint; the
                # transaction's earlier and later statements commit.
                db.begin()
                self.insert()
                with pytest.raises(CatalogError):
                    db.executemany(
                        "UPDATE t SET nn = ? WHERE k > ?",
                        [(7, 0), (None, 0)],
                    )
                self.statement()
                db.commit()
            else:
                # Empty the table and refill it in one transaction.
                db.begin()
                db.execute("DELETE FROM t")
                self.insert()
                db.commit()
            self.check()
        db.close()


@pytest.mark.parametrize("encoding", ["auto", "raw"])
@pytest.mark.parametrize("seed", [1, 2])
def test_dml_recovers_row_for_row(tmp_path, seed, encoding):
    workload = DmlWorkload(seed, str(tmp_path / "t.wal"), encoding)
    workload.run(steps=24)
    assert workload.commits_checked >= 28


def _append_frames(path: str, records: list[dict]) -> None:
    """Append hand-built v2 frames continuing the log's sequence."""
    wal = WriteAheadLog(path)
    seq = wal.last_seq
    wal.close()
    with open(path, "ab") as fh:
        for record in records:
            seq += 1
            payload = json.dumps(record).encode()
            crc = zlib.crc32(struct.pack(">Q", seq) + payload)
            fh.write(_HEADER.pack(len(payload), crc & 0xFFFFFFFF, seq))
            fh.write(payload)


def _three_row_log(path: str) -> None:
    wal = WriteAheadLog(path)
    wal.log_commit(
        1,
        [
            ("create_table", "t",
             TableSchema.of(("id", INTEGER), ("name", VARCHAR))),
            ("insert", "t", [(1, "a"), (2, "b"), (3, "c")]),
        ],
    )
    wal.close()


def test_legacy_replace_record_still_replays(tmp_path):
    path = str(tmp_path / "t.wal")
    _three_row_log(path)
    _append_frames(
        path,
        [
            {"txn": 2, "op": "replace", "name": "t",
             "rows": [[3, "c"], [9, None]]},
            {"txn": 2, "op": "commit"},
        ],
    )
    db = repro.Database(wal_path=path)
    assert list(db.catalog.data("t").rows()) == [(3, "c"), (9, None)]
    db.close()


@pytest.mark.parametrize(
    "record",
    [
        {"op": "update", "positions": [3], "columns": [[1, ["z"]]]},
        {"op": "update", "positions": [-1], "columns": [[1, ["z"]]]},
        {"op": "update", "positions": [2, 0],
         "columns": [[1, ["y", "z"]]]},
        {"op": "update", "positions": [1], "columns": [[5, ["z"]]]},
        {"op": "update", "positions": [1], "columns": [[1, []]]},
        {"op": "delete", "positions": [1, 1]},
        {"op": "delete", "positions": [0, 7]},
        {"op": "delete", "positions": ["1"]},
    ],
    ids=[
        "update-past-end", "update-negative", "update-descending",
        "update-bad-ordinal", "update-short-values", "delete-repeated",
        "delete-past-end", "delete-non-integer",
    ],
)
def test_bad_positions_raise_typed(tmp_path, record):
    path = str(tmp_path / "t.wal")
    _three_row_log(path)
    _append_frames(
        path,
        [dict(record, txn=2, name="t"), {"txn": 2, "op": "commit"}],
    )
    reader = WriteAheadLog(path)
    manager = TransactionManager(Catalog())
    with pytest.raises(WalCorruptionError):
        reader.replay_into(manager)
    # The bad transaction left no trace; the one before it committed.
    assert list(manager.catalog.data("t").rows()) == [
        (1, "a"), (2, "b"), (3, "c"),
    ]
    reader.close()
    with pytest.raises(WalCorruptionError):
        repro.Database(wal_path=path, flight_dir=str(tmp_path / "fr"))


def test_one_row_dml_logs_under_a_kilobyte(tmp_path):
    """Guard against a return to whole-table logging: on a 20,000-row
    table a 1-row UPDATE and a 1-row DELETE each add < 1 KB of WAL.
    The bulk load itself is logged, so the deltas replay onto it."""
    path = str(tmp_path / "t.wal")
    db = repro.Database(wal_path=path)
    db.execute("CREATE TABLE acct (id INTEGER, grp VARCHAR, bal DOUBLE)")
    db.load_columns(
        "acct",
        {
            "id": np.arange(20_000),
            "grp": np.array([f"g{i % 50}" for i in range(20_000)],
                            dtype=object),
            "bal": np.arange(20_000, dtype=np.float64),
        },
    )
    written = db.metrics.counter("wal_bytes_written_total")
    before = written.value
    assert db.execute(
        "UPDATE acct SET bal = bal + 1 WHERE id = 12345"
    ).rowcount == 1
    after_update = written.value
    assert db.execute("DELETE FROM acct WHERE id = 777").rowcount == 1
    after_delete = written.value
    assert 0 < after_update - before < 1024
    assert 0 < after_delete - after_update < 1024
    live = state(db)
    db.close()
    recovered = repro.Database(wal_path=path)
    assert state(recovered) == live
    recovered.close()
