"""A service step does O(batch) storage work, independent of history.

The same 256-line D1 batch (junk lines included) runs through a service
whose anomaly store is empty and through one holding 20k anomalies, on
both backends.  Work is counted, not timed: the documents returned by
backend ``query()`` calls and, under SQLite, every statement the
connection runs (``set_trace_callback``).  Both counts must be the same
at 0 and at 20k history, and no step may run ``COUNT(*)`` or read a
whole table.

The history is stamped long before the stream's log time, so the alert
rules' window queries — whose cost is O(window) by design — see none of
it.  Both services run one warm-up batch first, so lazily created SQL
indexes and columns are in place before counting starts.

The ``storage.documents`` gauge is kept incrementally by the SQLite
backend; it must equal ``SELECT COUNT(*)`` after every write path and
after a close-and-reopen.
"""

import pytest

from repro.alerts.rules import AlertRule
from repro.bench.workloads import service_workload
from repro.obs import MetricsRegistry
from repro.service import LogLensService, ServiceConfig
from repro.service.config import AlertsConfig
from repro.service.sqlite_store import SQLiteDatabase, SQLiteDocumentStore
from repro.service.storage import DocumentStore

BATCH_LINES = 256
HISTORY = 20_000
#: One unparseable junk line after every JUNK_EVERY D1 lines.
JUNK_EVERY = 19
RULES = (
    AlertRule(
        name="rate",
        signal="anomaly_rate",
        condition=">",
        threshold=3,
        window_millis=60_000,
    ),
)


@pytest.fixture(scope="module")
def workload():
    """``(models, warm-up batch, measured batch, history docs)``."""
    w = service_workload(80)
    lines = []
    for i, line in enumerate(w.lines):
        lines.append(line)
        if i % JUNK_EVERY == JUNK_EVERY - 1:
            lines.append("@@ garbled-%06d qxzjkv ## %d" % (i, i * 7919))
    warmup = lines[:BATCH_LINES]
    batch = lines[BATCH_LINES:2 * BATCH_LINES]
    assert len(batch) == BATCH_LINES
    # History docs copy the shapes the two batches produce, so the
    # anomaly table has the same columns with or without history.
    probe = _open("memory", None, w.models, [])
    try:
        for lines_ in (warmup, batch):
            probe.ingest(lines_, source="d1")
            probe.step()
        templates = [
            {k: v for k, v in doc.items() if k != "_id"}
            for doc in probe.anomaly_storage.all()
        ]
    finally:
        probe.close()
    assert {d["type"] for d in templates} > {"unparsed_log"}
    history = [
        dict(templates[n % len(templates)], timestamp_millis=n)
        for n in range(HISTORY)
    ]
    return w.models, warmup, batch, history


def _config(storage):
    return ServiceConfig(
        num_partitions=2,
        metrics=MetricsRegistry(),
        storage=storage,
        alerts=AlertsConfig(rules=RULES),
    )


def _open(backend, path, models, history):
    """A service with ``history`` stored; SQLite restarts over it."""
    storage = "memory" if backend == "memory" else "sqlite:%s" % path
    service = LogLensService(config=_config(storage))
    service.model_manager.register_built(models)
    service.model_manager.publish_all()
    service.flush_model_updates()
    service.anomaly_storage.store_many(history)
    if backend == "memory":
        return service
    service.close()
    return LogLensService(config=_config(storage))


def _counted_step(service, batch, monkeypatch):
    """Step ``batch``; ``(report, docs returned by query, statements)``."""
    returned = [0]
    statements = []
    with monkeypatch.context() as patch:
        for cls in (DocumentStore, SQLiteDocumentStore):

            def counting(self, *args, _query=cls.query, **kwargs):
                out = _query(self, *args, **kwargs)
                returned[0] += len(out)
                return out

            patch.setattr(cls, "query", counting)
        database = service.storage_database
        if database is not None:
            database._conn.set_trace_callback(statements.append)
        try:
            service.ingest(batch, source="d1")
            report = service.step()
        finally:
            if database is not None:
                database._conn.set_trace_callback(None)
    return report, returned[0], statements


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_step_work_does_not_grow_with_history(
    backend, tmp_path, workload, monkeypatch
):
    models, warmup, batch, history = workload
    counted = {}
    for size in (0, HISTORY):
        service = _open(
            backend, tmp_path / ("h%d.db" % size), models, history[:size]
        )
        try:
            assert service.anomaly_storage.count() == size
            service.ingest(warmup, source="d1")
            service.step()
            counted[size] = _counted_step(service, batch, monkeypatch)
        finally:
            service.close()
    report, returned, statements = counted[0]
    assert report.stateless_anomalies > 0
    assert counted[HISTORY][0] == report
    assert counted[HISTORY][1] == returned
    assert len(counted[HISTORY][2]) == len(statements)
    if backend == "sqlite":
        assert statements
    for stmt in counted[0][2] + counted[HISTORY][2]:
        upper = stmt.upper()
        assert "COUNT(" not in upper, stmt
        whole_table = upper.startswith("SELECT") and " WHERE " not in upper
        assert not whole_table, stmt


class TestDocumentGauge:
    """``storage.documents`` == ``SELECT COUNT(*)`` on every path."""

    def _sql_count(self, db):
        return db.execute('SELECT COUNT(*) FROM "anomalies"').fetchone()[0]

    def _gauge(self, registry):
        return registry.gauge("storage.documents", store="anomalies").value

    def test_gauge_matches_sql_count(self, tmp_path):
        path = tmp_path / "gauge.db"
        registry = MetricsRegistry()
        db = SQLiteDatabase(path)
        store = SQLiteDocumentStore(db, "anomalies", metrics=registry)
        store.insert_many([{"n": n, "type": "t"} for n in range(5)])
        assert self._gauge(registry) == self._sql_count(db) == 5
        store.insert({"n": 5})
        assert self._gauge(registry) == self._sql_count(db) == 6
        assert store.count() == 6
        store.clear()
        assert self._gauge(registry) == self._sql_count(db) == 0
        assert store.count() == 0
        store.insert_many([{"n": n} for n in range(3)])
        assert self._gauge(registry) == self._sql_count(db) == 3
        db.close()

        reopened_registry = MetricsRegistry()
        db = SQLiteDatabase(path)
        try:
            store = SQLiteDocumentStore(
                db, "anomalies", metrics=reopened_registry
            )
            assert self._gauge(reopened_registry) == self._sql_count(db) == 3
            assert store.count() == 3
            store.insert_many([{"n": 9}])
            assert self._gauge(reopened_registry) == self._sql_count(db) == 4
        finally:
            db.close()

    def test_insert_many_runs_no_count_statement(self, tmp_path):
        db = SQLiteDatabase(tmp_path / "trace.db")
        try:
            store = SQLiteDocumentStore(db, "anomalies")
            statements = []
            db._conn.set_trace_callback(statements.append)
            store.insert_many([{"n": n} for n in range(4)])
            store.insert({"n": 4})
            store.count()
            db._conn.set_trace_callback(None)
            assert statements
            assert not any("COUNT(" in s.upper() for s in statements)
        finally:
            db.close()
