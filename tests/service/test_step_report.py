"""StepReport anomaly counts against a brute-force storage oracle.

``step()`` counts the anomalies its own sinks handed to storage.  The
oracle here reads storage instead: the growth of every type's
``by_type`` count over the step.  The two must agree on every step, on
both storage backends and both deterministic execution backends, for
steps with junk lines and for heartbeat-only steps.

A step that raises (a sequence operator exhausts its retries under
``on_exhaust="raise"``) must still store, exactly once, the anomalies
its sinks had already received.
"""

import json
from collections import Counter

import pytest

from repro.bench.workloads import service_workload
from repro.core.anomaly import AnomalyType
from repro.errors import QuarantinedRecordError
from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.service import LogLensService, ServiceConfig
from repro.streaming.retry import RetryPolicy

TYPES = [t.value for t in AnomalyType]
#: One unparseable junk line after every JUNK_EVERY D1 lines.
JUNK_EVERY = 15


@pytest.fixture(scope="module")
def workload():
    w = service_workload(24)
    lines = []
    for i, line in enumerate(w.lines):
        lines.append(line)
        if i % JUNK_EVERY == JUNK_EVERY - 1:
            lines.append("@@ garbled line %d ##" % i)
    return w.models, lines


def _service(backend, execution, tmp_path, models, **overrides):
    storage = "memory" if backend == "memory" else (
        "sqlite:%s" % (tmp_path / "svc.db")
    )
    service = LogLensService(config=ServiceConfig(
        num_partitions=2,
        metrics=MetricsRegistry(),
        storage=storage,
        execution=execution,
        **overrides,
    ))
    service.model_manager.register_built(models)
    service.model_manager.publish_all()
    service.flush_model_updates()
    return service


def _by_type(service):
    counts = {t: len(service.anomaly_storage.by_type(t)) for t in TYPES}
    assert sum(counts.values()) == service.anomaly_storage.count()
    return counts


def _canonical(docs):
    """A multiset of docs, ignoring ``_id`` and the end-of-step stamp."""
    return Counter(
        json.dumps(
            {k: v for k, v in doc.items()
             if k not in ("_id", "timestamp_millis")},
            sort_keys=True,
        )
        for doc in docs
    )


def _checked_step(service, **kwargs):
    """One step whose report must match the by_type oracle."""
    before = _by_type(service)
    report = service.step(**kwargs)
    after = _by_type(service)
    grown = {t: after[t] - before[t] for t in TYPES}
    assert report.stateless_anomalies == grown.pop("unparsed_log")
    assert report.sequence_anomalies == sum(grown.values())
    return report


@pytest.mark.parametrize("execution", ["serial", "processes"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_step_report_matches_storage_oracle(
    backend, execution, tmp_path, workload
):
    models, lines = workload
    service = _service(backend, execution, tmp_path, models)
    try:
        service.ingest(lines, source="d1")
        reports = [_checked_step(service, max_records=64)]
        while reports[-1].ingested:
            reports.append(_checked_step(service, max_records=64))
        # Heartbeat-only steps until every open event is judged.
        for _ in range(200):
            if service.open_event_count() == 0:
                break
            reports.append(_checked_step(service))
        assert service.open_event_count() == 0
    finally:
        service.close()
    assert any(r.ingested and r.stateless_anomalies for r in reports)
    assert any(
        not r.ingested and r.heartbeats and r.sequence_anomalies
        for r in reports
    )
    assert sum(r.stateless_anomalies for r in reports) == (
        len(lines) // (JUNK_EVERY + 1)
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_raising_step_stores_received_anomalies_once(
    backend, tmp_path, workload, monkeypatch
):
    models, lines = workload
    received = []
    sink = LogLensService._store_anomaly

    def recording_sink(self, record):
        received.append(record.value.to_dict())
        sink(self, record)

    # Patched before construction: the stream graph binds the sink.
    monkeypatch.setattr(LogLensService, "_store_anomaly", recording_sink)
    poisoned = lines[100]
    plan = FaultPlan().poison(
        "operator:map_with_state:*",
        lambda r: not r.is_heartbeat and r.value.raw == poisoned,
    )
    service = _service(
        backend,
        "serial",
        tmp_path,
        models,
        fault_plan=plan,
        retry_policy=RetryPolicy.no_wait(
            max_attempts=2, on_exhaust="raise", clock=ManualClock()
        ),
    )

    def stored():
        return _canonical(service.anomaly_storage.all())

    try:
        service.ingest(lines[:200], source="d1")
        with pytest.raises(QuarantinedRecordError):
            service.step()
        assert any(d["type"] == "unparsed_log" for d in received)
        assert stored() == _canonical(received)
        # Later steps and the end-of-replay flush add only new anomalies.
        service.ingest(lines[200:], source="d1")
        service.run_until_drained()
        flushed = service.final_flush()
        assert not _canonical(received) - stored()
        assert sum((stored() - _canonical(received)).values()) == flushed
    finally:
        service.close()
