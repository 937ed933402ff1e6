"""Snapshot-isolation transaction manager.

Transactions read from the catalog version current at their start
timestamp; writes are buffered as transaction-local copy-on-write
:class:`~repro.storage.table.TableData` working copies. Commit uses
first-committer-wins: if any table this transaction wrote has been
committed by someone else since our snapshot, we abort with
:class:`~repro.errors.SerializationConflict`.

This gives the property the paper leans on (section 3): a long-running
analytical query sees one consistent snapshot while OLTP writes continue
to commit concurrently.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from ..errors import CatalogError, SerializationConflict, TransactionError
from ..obs.metrics import MetricsRegistry
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.encoding import encode_table_data
from ..storage.schema import TableSchema
from ..storage.table import TableData
from .wal import WriteAheadLog


class Transaction:
    """One transaction: a snapshot timestamp plus a private write set."""

    def __init__(self, manager: "TransactionManager", txn_id: int, start_ts: int):
        self._manager = manager
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.write_set: dict[str, TableData] = {}
        self.created_tables: dict[str, TableSchema] = {}
        self.dropped_tables: set[str] = set()
        self.status = "active"
        self._log: list[tuple] = []

    # -- reads ---------------------------------------------------------------

    def read(self, name: str) -> TableData:
        """The contents of ``name`` as this transaction sees them: its own
        uncommitted writes, else the snapshot version."""
        self._check_active()
        key = name.lower()
        if key in self.dropped_tables:
            raise CatalogError(f"no such table: {name!r}")
        if key in self.write_set:
            return self.write_set[key]
        if key in self.created_tables:
            return TableData.empty(self.created_tables[key])
        return self._manager.catalog.data(key, self.start_ts)

    def table_exists(self, name: str) -> bool:
        key = name.lower()
        if key in self.dropped_tables:
            return False
        if key in self.created_tables or key in self.write_set:
            return True
        return self._manager.catalog.has_table(key, self.start_ts)

    def schema_of(self, name: str) -> TableSchema:
        return self.read(name).schema

    def visible_tables(self) -> list[str]:
        names = set(self._manager.catalog.table_names(self.start_ts))
        names |= set(self.created_tables)
        names -= self.dropped_tables
        return sorted(names)

    # -- writes ----------------------------------------------------------------

    def create_table(
        self, name: str, schema: TableSchema, if_not_exists: bool = False
    ) -> None:
        self._check_active()
        key = name.lower()
        if self.table_exists(key):
            if if_not_exists:
                return
            raise CatalogError(f"table already exists: {name!r}")
        self.dropped_tables.discard(key)
        self.created_tables[key] = schema
        self._log.append(("create_table", key, schema))

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        self._check_active()
        key = name.lower()
        if not self.table_exists(key):
            if if_exists:
                return
            raise CatalogError(f"no such table: {name!r}")
        self.write_set.pop(key, None)
        if key in self.created_tables:
            del self.created_tables[key]
        else:
            self.dropped_tables.add(key)
        self._log.append(("drop_table", key))

    def write(self, name: str, data: TableData) -> None:
        """Stage a full new version of ``name`` (the engine computes the
        new version from the visible one; this installs it in the write
        set).

        This is the one choke point every mutation funnels through
        (INSERT/UPDATE/DELETE/CTAS/bulk load/WAL replay), so the
        session's column-encoding policy is applied here: the staged
        version is re-encoded before it can be read back or committed.
        Rollback needs no special handling — versions are immutable and
        an aborted transaction simply drops its staged ones."""
        self._check_active()
        key = name.lower()
        if not self.table_exists(key):
            raise CatalogError(f"no such table: {name!r}")
        self.write_set[key] = encode_table_data(
            data, self._manager.encoding
        )

    def insert_rows(
        self, name: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Append rows to a table; returns the number inserted."""
        materialised = [tuple(r) for r in rows]
        current = self.read(name)
        self.write(name, current.append_rows(materialised))
        self._log.append(("insert", name.lower(), materialised))
        self._manager.metrics.counter(
            "storage_rows_inserted_total"
        ).inc(len(materialised))
        return len(materialised)

    def append_data(self, name: str, addition: TableData) -> int:
        """Append an already-columnar version's rows (bulk load);
        returns the number appended. Logged like :meth:`insert_rows`,
        with the rows rendered only if the commit reaches a WAL."""
        current = self.read(name)
        self.write(name, current.append_data(addition))
        if addition.row_count:
            self._log.append(("insert", name.lower(), addition))
        return addition.row_count

    # Positional deltas. An UPDATE or DELETE is logged as the row
    # positions it hit in the table as this transaction sees it.
    # Replay reproduces those positions exactly because (1) replay
    # applies transactions in commit order, (2) first-committer-wins
    # means every table a transaction writes has, at commit, the same
    # committed base as the snapshot it read, and (3) checkpoints and
    # snapshots keep row order. Every committed row change must
    # therefore be logged (docs/durability.md).

    def update_rows(
        self,
        name: str,
        positions: np.ndarray,
        values: dict[int, Column],
    ) -> int:
        """Write ``values[ordinal]`` (one entry per position, in the
        column's SQL type) at the strictly ascending row ``positions``;
        returns the number of rows updated. Zero positions stage and
        log nothing."""
        current = self.read(name)
        if len(positions) == 0:
            return 0
        self.write(name, current.update_at(positions, values))
        self._log.append(("update", name.lower(), positions, values))
        return len(positions)

    def delete_rows(self, name: str, positions: np.ndarray) -> int:
        """Delete the rows at the strictly ascending ``positions``;
        returns the number deleted. Zero positions stage and log
        nothing."""
        current = self.read(name)
        if len(positions) == 0:
            return 0
        self.write(name, current.delete_at(positions))
        self._log.append(("delete", name.lower(), positions))
        return len(positions)

    # -- savepoints --------------------------------------------------------------

    def savepoint(self) -> tuple:
        """A snapshot of this transaction's buffered state.

        Write-set entries are immutable :class:`TableData` versions, so a
        shallow copy of the dicts is a complete snapshot; the log is
        append-only, so its length suffices."""
        self._check_active()
        return (
            dict(self.write_set),
            dict(self.created_tables),
            set(self.dropped_tables),
            len(self._log),
        )

    def rollback_to(self, sp: tuple) -> None:
        """Restore buffered state to a :meth:`savepoint`, discarding any
        writes staged after it. The transaction stays active."""
        self._check_active()
        write_set, created, dropped, log_len = sp
        self.write_set.clear()
        self.write_set.update(write_set)
        self.created_tables.clear()
        self.created_tables.update(created)
        self.dropped_tables.clear()
        self.dropped_tables.update(dropped)
        del self._log[log_len:]

    # -- lifecycle ----------------------------------------------------------------

    def commit(self) -> int:
        """Atomically publish the write set; returns the commit timestamp
        (or the start timestamp for read-only transactions)."""
        self._check_active()
        ts = self._manager.commit(self)
        self.status = "committed"
        return ts

    def rollback(self) -> None:
        self._check_active()
        self._manager.metrics.counter("txn_rollbacks_total").inc()
        self._manager.finish(self)
        self.write_set.clear()
        self.created_tables.clear()
        self.dropped_tables.clear()
        self._log.clear()
        self.status = "aborted"

    def _check_active(self) -> None:
        if self.status != "active":
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}"
            )

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.status != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


class TransactionManager:
    """Hands out transactions and arbitrates commits."""

    def __init__(
        self,
        catalog: Catalog,
        wal: WriteAheadLog | None = None,
        metrics: MetricsRegistry | None = None,
        encoding: str = "raw",
    ):
        self.catalog = catalog
        self.wal = wal
        #: Column-encoding policy applied to every staged table version
        #: (see :mod:`repro.storage.encoding`). A standalone manager
        #: defaults to raw storage; :class:`~repro.api.database.Database`
        #: passes its resolved session policy.
        self.encoding = encoding
        #: Session metrics; a standalone manager gets its own registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        #: Called (with no arguments) after every durable non-read-only
        #: commit, while the manager lock is still held (it is
        #: re-entrant). :class:`~repro.api.database.Database` installs
        #: its auto-checkpoint policy here (docs/durability.md).
        self.after_commit = None

    def begin(self) -> Transaction:
        with self._lock:
            txn = Transaction(
                self, self._next_txn_id, self.catalog.current_ts
            )
            self._next_txn_id += 1
            self._active[txn.txn_id] = txn
            self.metrics.counter("txn_begun_total").inc()
            self.metrics.gauge("txn_active").set(len(self._active))
            return txn

    def active_count(self) -> int:
        return len(self._active)

    def oldest_active_ts(self) -> int:
        """Oldest snapshot still in use (vacuum horizon)."""
        with self._lock:
            if not self._active:
                return self.catalog.current_ts
            return min(t.start_ts for t in self._active.values())

    def finish(self, txn: Transaction) -> None:
        with self._lock:
            self._active.pop(txn.txn_id, None)
            self.metrics.gauge("txn_active").set(len(self._active))

    def commit(self, txn: Transaction) -> int:
        """Validate and install a transaction's write set.

        First-committer-wins: any table written by ``txn`` whose newest
        committed version postdates the snapshot causes an abort.
        """
        with self._lock:
            try:
                read_only = (
                    not txn.write_set
                    and not txn.created_tables
                    and not txn.dropped_tables
                )
                if read_only:
                    self.metrics.counter("txn_commits_total").inc()
                    return txn.start_ts

                try:
                    for name in txn.write_set:
                        if name in txn.created_tables:
                            continue
                        latest = self.catalog.latest_commit_ts_of(name)
                        if latest > txn.start_ts:
                            raise SerializationConflict(
                                f"table {name!r} was modified by a "
                                f"concurrent transaction (committed at "
                                f"{latest}, snapshot is {txn.start_ts})"
                            )
                    for name in txn.dropped_tables:
                        latest = self.catalog.latest_commit_ts_of(name)
                        if latest > txn.start_ts:
                            raise SerializationConflict(
                                f"table {name!r} was modified by a "
                                "concurrent transaction; cannot drop"
                            )
                except SerializationConflict:
                    self.metrics.counter("txn_conflicts_total").inc()
                    raise

                if self.wal is not None:
                    written = self.wal.log_commit(txn.txn_id, txn._log)
                    self.metrics.counter(
                        "wal_bytes_written_total"
                    ).inc(written)

                # Install DDL first so created tables exist for writes.
                for name, schema in txn.created_tables.items():
                    self.catalog.create_table(name, schema)
                for name in txn.dropped_tables:
                    self.catalog.drop_table(name)
                updates = [
                    (name, data)
                    for name, data in txn.write_set.items()
                ]
                if updates:
                    ts = self.catalog.install(updates)
                else:
                    ts = self.catalog.current_ts
                self.metrics.counter("txn_commits_total").inc()
                if self.after_commit is not None and self.wal is not None:
                    self.after_commit()
                return ts
            finally:
                self.finish(txn)

    def vacuum(self) -> int:
        """Free table versions no active snapshot can reach."""
        freed = self.catalog.vacuum(self.oldest_active_ts())
        self.metrics.counter("storage_versions_vacuumed_total").inc(
            freed
        )
        return freed
