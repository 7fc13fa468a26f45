"""The three closed-loop workloads, driven through the public service API.

Each workload runs from this one process with one driving thread and at
most one TCP connection:

* ``replay_mem`` -- D1 replayed through ``LogLensService.ingest`` +
  ``step`` in 256-line batches; serial execution, in-memory storage, no
  alert rules.  Parsing dominates.
* ``durable_history`` -- a restarted service over ``sqlite:PATH`` whose
  store already holds the persisted models and 20k anomalies, with
  ``anomaly_rate`` alert rules feeding a ``CollectingSink``; D1 plus one
  junk line per 20 is fed over loopback TCP by a closed-loop
  ``IngestClient`` (send a batch, wait for ``+ok``, then ``step()``).
  Storage, alert evaluation and the front door dominate.
* ``replay_procs`` -- the ``replay_mem`` stream and config with
  ``execution="processes"``; worker spawn is part of set-up.

Every duration is scaled to the nominal machine speed by
:class:`~perfbench.calibration.Calibrator`.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.alerts.rules import AlertRule
from repro.alerts.sinks import CollectingSink
from repro.datasets.trace import generate_d1
from repro.ingest import IngestClient, IngestServerThread, front_door
from repro.obs import MetricsRegistry
from repro.service.config import AlertsConfig, ServiceConfig
from repro.service.loglens_service import LogLensService
from repro.service.sqlite_store import SQLiteDatabase, SQLiteDocumentStore

from .calibration import Calibrator
from .ledger import BATCH, SETUP, Tracer, layer_ledger

BATCH_LINES = 256
PARTITIONS = 2
SOURCE = "d1"
#: D1 sizes: the paper-scale training split and the test streams.
TRAIN_EVENTS = 1600
REPLAY_EVENTS = 6400
DURABLE_EVENTS = 3000
#: One unparseable junk line after every JUNK_EVERY D1 lines.
JUNK_EVERY = 19
#: Anomalies the durable store holds before the restart.
HISTORY_ANOMALIES = 20000
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = {"replay_mem": 3, "replay_procs": 3, "durable_history": 15}

#: Exactly what every D1 test stream must yield, by anomaly type.
EXPECTED_SEQUENCE_ANOMALIES = {
    "missing_intermediate": 6,
    "occurrence_violation": 6,
    "missing_begin": 4,
    "duration_violation": 4,
    "missing_end": 1,
}

WORKLOADS = ("replay_mem", "durable_history", "replay_procs")


@dataclass
class Inputs:
    train: List[str]
    stream: List[str]
    junk: List[str]


@dataclass
class PassResult:
    """One pass of the closed loop over the whole stream."""

    step_s: List[float] = field(default_factory=list)
    ack_s: List[float] = field(default_factory=list)
    scales: Dict[int, float] = field(default_factory=dict)
    raw_s: float = 0.0
    #: High-water RSS at the end of the closed loop, before the checks.
    peak_rss_mb: float = 0.0
    lines: int = 0
    accepted: int = 0
    batches: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    @property
    def throughput_lps(self) -> float:
        return self.lines / sum(self.step_s)


@dataclass
class RunResult:
    setup_s: List[float] = field(default_factory=list)
    passes: List[PassResult] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate the training split and the test stream from ``seed``."""
    train = list(generate_d1(events_per_workflow=TRAIN_EVENTS, seed=seed).train)
    if workload != "durable_history":
        test = generate_d1(events_per_workflow=REPLAY_EVENTS, seed=seed).test
        return Inputs(train=train, stream=list(test), junk=[])
    test = generate_d1(events_per_workflow=DURABLE_EVENTS, seed=seed).test
    rng = random.Random(seed)
    stream: List[str] = []
    junk: List[str] = []
    for i, line in enumerate(test):
        stream.append(line)
        if i % JUNK_EVERY == JUNK_EVERY - 1:
            junk.append(_junk_line(rng, len(junk)))
            stream.append(junk[-1])
    return Inputs(train=train, stream=stream, junk=junk)


def _junk_line(rng: random.Random, n: int) -> str:
    words = "".join(rng.choice("qxzjkv") for _ in range(rng.randint(6, 12)))
    return "@@ garbled-%06d %s ## %d" % (n, words, rng.randrange(10 ** 9))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _timed(cal: Calibrator, fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` between two reference slices; returns (result, scaled s)."""
    cal.mark()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    return result, elapsed * cal.mark()


class ReplayWorkload:
    """``replay_mem`` and ``replay_procs``: in-process closed loop."""

    def __init__(self, name: str, inputs: Inputs, workdir: Path) -> None:
        self.name = name
        self.inputs = inputs
        self.workdir = workdir
        self.execution = "processes" if name == "replay_procs" else "serial"

    def setup(self) -> LogLensService:
        service = LogLensService(config=ServiceConfig(
            num_partitions=PARTITIONS,
            execution=self.execution,
            metrics=MetricsRegistry(),
        ))
        service.train(self.inputs.train)
        return service

    def run_pass(
        self,
        service: LogLensService,
        cal: Calibrator,
        tracer: Optional[Tracer] = None,
    ) -> PassResult:
        def admit(batch: List[str]) -> Tuple[int, bool]:
            admitted = service.ingest(batch, source=SOURCE)
            return admitted, admitted == len(batch)

        result = _closed_loop(self.inputs.stream, admit, service, cal, tracer)
        _finish_pass(result, service, self.inputs.stream, service.anomaly_storage.all)
        return result

    def teardown(self, service: LogLensService) -> None:
        service.close()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class DurableWorkload:
    """``durable_history``: TCP front door over a 20k-anomaly SQLite store."""

    def __init__(self, name: str, inputs: Inputs, workdir: Path) -> None:
        self.name = name
        self.inputs = inputs
        self.workdir = workdir
        self.alerts_delivered = 0
        workdir.mkdir(parents=True, exist_ok=True)
        self.snapshot = workdir / "history.db"
        self.path = workdir / "service.db"
        self.history = 0
        self._server: Optional[IngestServerThread] = None
        self._sink: Optional[CollectingSink] = None
        self._remove_db(self.snapshot)
        self._build_history()

    # -- history --------------------------------------------------------
    @staticmethod
    def _remove_db(path: Path) -> None:
        for suffix in ("", "-wal", "-shm", "-journal"):
            candidate = Path(str(path) + suffix)
            if candidate.exists():
                candidate.unlink()

    def _build_history(self) -> None:
        """Persist models plus >= 20k real-shaped anomalies (untimed)."""
        config = ServiceConfig(
            num_partitions=PARTITIONS,
            storage="sqlite:%s" % self.snapshot,
            metrics=MetricsRegistry(),
        )
        service = LogLensService(config=config)
        try:
            service.train(self.inputs.train)
            # A short normal run sets the log-time clock, then a few
            # hundred junk lines give real unparsed-log documents that
            # the bulk fill below copies.
            rng = random.Random(len(self.inputs.train))
            service.ingest(self.inputs.train[:2000], source="history")
            service.ingest(
                [_junk_line(rng, n) for n in range(500)], source="history"
            )
            service.step()
        finally:
            service.close()
        database = SQLiteDatabase(self.snapshot)
        try:
            store = SQLiteDocumentStore(
                database, "anomalies", metrics=MetricsRegistry()
            )
            templates = [
                {k: v for k, v in doc.items() if k != "_id"}
                for doc in store.query(match={"type": "unparsed_log"})
            ]
            clock = max(d["timestamp_millis"] or 0 for d in templates)
            fill = []
            for n in range(HISTORY_ANOMALIES - store.count()):
                doc = dict(templates[n % len(templates)])
                doc["timestamp_millis"] = clock - 3_600_000 + (n * 180) % 3_600_000
                fill.append(doc)
            store.insert_many(fill)
            self.history = store.count()
        finally:
            database.close()

    # -- service lifecycle ---------------------------------------------
    def fresh_store(self) -> None:
        """Every pass starts from the same copy of the history store."""
        self._remove_db(self.path)
        shutil.copyfile(self.snapshot, self.path)

    def setup(self) -> LogLensService:
        self._sink = CollectingSink()
        rules = tuple(
            AlertRule(
                name="anomaly-rate-%d" % threshold,
                signal="anomaly_rate",
                condition=">",
                threshold=threshold,
                window_millis=window,
            )
            for threshold, window in ((3, 10_000), (10, 60_000), (40, 60_000), (100, 300_000))
        )
        config = ServiceConfig(
            num_partitions=PARTITIONS,
            storage="sqlite:%s" % self.path,
            metrics=MetricsRegistry(),
            alerts=AlertsConfig(rules=rules, sinks=(self._sink,)),
        )
        service = LogLensService(config=config)
        self._server = IngestServerThread(
            front_door(service, http_port=None)
        ).start()
        return service

    def teardown(self, service: LogLensService) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        service.close()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- timed loop -------------------------------------------------------
    def run_pass(
        self,
        service: LogLensService,
        cal: Calibrator,
        tracer: Optional[Tracer] = None,
    ) -> PassResult:
        assert self._server is not None
        client = IngestClient(
            "127.0.0.1", self._server.tcp_port, SOURCE, batch_lines=BATCH_LINES
        )

        def admit(batch: List[str]) -> Tuple[int, bool]:
            report = client.send(batch)
            return report.accepted, not report.retries and report.accepted == len(batch)

        try:
            result = _closed_loop(self.inputs.stream, admit, service, cal, tracer)
        finally:
            client.close()

        def new_anomalies() -> List[Dict[str, Any]]:
            return service.anomaly_storage.all()[self.history:]

        docs = _finish_pass(result, service, self.inputs.stream, new_anomalies)
        unparsed = Counter(
            d["logs"][0] for d in docs if d["type"] == "unparsed_log"
        )
        result.checks.append(
            _check("one unparsed_log per junk line",
                   unparsed == Counter(self.inputs.junk),
                   "%d unparsed for %d junk lines"
                   % (sum(unparsed.values()), len(self.inputs.junk)))
        )
        self.alerts_delivered = len(self._sink.events) if self._sink else 0
        return result


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def _closed_loop(
    stream: List[str],
    admit: Callable[[List[str]], Tuple[int, bool]],
    service: LogLensService,
    cal: Calibrator,
    tracer: Optional[Tracer],
) -> PassResult:
    """Admit one batch, wait for its ack, ``step()``; repeat over ``stream``.

    ``admit`` returns (lines acknowledged, batch delivered cleanly).  A
    reference slice runs after every step, while the service is idle.
    """
    result = PassResult()
    cal.mark()
    for batch_id, start in enumerate(range(0, len(stream), BATCH_LINES)):
        batch = stream[start:start + BATCH_LINES]
        with _root(tracer, BATCH, batch_id):
            t0 = time.perf_counter()
            accepted, clean = admit(batch)
            t1 = time.perf_counter()
            service.step()
            t2 = time.perf_counter()
        scale = cal.mark()
        result.scales[batch_id] = scale
        result.ack_s.append((t1 - t0) * scale)
        result.step_s.append((t2 - t0) * scale)
        result.raw_s += t2 - t0
        result.batches += 1
        result.lines += len(batch)
        result.accepted += accepted
        if not clean:
            result.failed += 1
    result.peak_rss_mb = _peak_rss_mb()
    return result


def _finish_pass(
    result: PassResult,
    service: LogLensService,
    stream: List[str],
    anomalies: Callable[[], List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Judge open events, then run the checks every workload shares.

    Returns the pass's anomaly documents for workload-specific checks.
    """
    _drain(service)
    docs = anomalies()
    result.checks.append(_check_types("sequence anomalies", docs))
    result.checks.append(
        _check("acked counts sum to lines sent", result.accepted == len(stream),
               "%d acked of %d sent" % (result.accepted, len(stream)))
    )
    # A batch with any line lost or duplicated counts as one failure.
    missing, batches = _archive_mismatch(service, stream)
    result.failed += batches
    result.checks.append(
        _check("archived exactly once", missing == 0,
               "%d lines not archived exactly once" % missing)
    )
    return docs


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check(name: str, ok: bool, detail: str) -> Tuple[str, bool, str]:
    return (name, bool(ok), detail)


def _check_types(name: str, docs: List[Dict[str, Any]]) -> Tuple[str, bool, str]:
    found = Counter(d["type"] for d in docs if d["type"] != "unparsed_log")
    return _check(
        name, dict(found) == EXPECTED_SEQUENCE_ANOMALIES, str(dict(found))
    )


def _archive_mismatch(service: LogLensService, stream: List[str]) -> Tuple[int, int]:
    """(lines, batches) of ``stream`` lost from or duplicated in the archive."""
    archived = service.log_storage.by_source(SOURCE)
    if archived == stream:
        return 0, 0
    diff = Counter(archived)
    diff.subtract(Counter(stream))
    bad = {line for line, count in diff.items() if count}
    batches = sum(
        1
        for start in range(0, len(stream), BATCH_LINES)
        if bad.intersection(stream[start:start + BATCH_LINES])
    )
    return sum(abs(v) for v in diff.values()), batches


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drain(service: LogLensService) -> None:
    """Heartbeat-only steps until every open event is judged, then flush."""
    for _ in range(400):
        service.step()
        if service.open_event_count() == 0:
            break
    service.final_flush()


def _root(tracer: Optional[Tracer], name: str, batch_id: int) -> Any:
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.root(name, batch_id)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _make(workload: str, inputs: Inputs, workdir: Path) -> Any:
    if workload == "durable_history":
        return DurableWorkload(workload, inputs, workdir)
    return ReplayWorkload(workload, inputs, workdir)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    wrap: Optional[Callable[[], Any]] = None,
) -> Dict[str, Any]:
    """One benchmark run; returns metrics, checks and metadata."""
    started = time.perf_counter()
    inputs = make_inputs(workload, seed)
    harness = _make(workload, inputs, workdir)
    undo = wrap() if wrap is not None else None
    try:
        return _run(workload, harness, inputs, seconds, trace, started)
    finally:
        if undo is not None:
            undo()
        harness.close()


def _setup(harness: Any, cal: Calibrator) -> Tuple[LogLensService, float]:
    if isinstance(harness, DurableWorkload):
        harness.fresh_store()
    gc.collect()
    return _timed(cal, harness.setup)


def _run(
    workload: str,
    harness: Any,
    inputs: Inputs,
    seconds: float,
    trace: bool,
    started: float,
) -> Dict[str, Any]:
    cal = Calibrator()
    result = RunResult()
    # Several set-ups: each is one sample of setup_s; the last one's
    # service runs the first pass.
    service = None
    for _ in range(SETUP_SAMPLES[workload]):
        if service is not None:
            harness.teardown(service)
        service, setup_s = _setup(harness, cal)
        result.setup_s.append(setup_s)
    while True:
        pass_started = time.perf_counter()
        try:
            gc.collect()
            result.passes.append(harness.run_pass(service, cal))
        finally:
            harness.teardown(service)
        pass_seconds = time.perf_counter() - pass_started
        if trace or time.perf_counter() - started + pass_seconds > seconds:
            break
        service, setup_s = _setup(harness, cal)
        result.setup_s.append(setup_s)

    traced: Dict[str, float] = {}
    if trace:
        traced = _traced_pass(harness, cal, result)
    result.refs = cal.refs
    summary = _summarise(inputs, result, traced)
    summary["alerts_delivered"] = getattr(harness, "alerts_delivered", 0)
    return summary


def _traced_pass(harness: Any, cal: Calibrator, result: RunResult) -> Dict[str, float]:
    """A separate pass with every layer wrapped; returns the ledger."""
    tracer = Tracer()
    tracer.install()
    try:
        if isinstance(harness, DurableWorkload):
            harness.fresh_store()
        gc.collect()
        cal.mark()
        with tracer.root(SETUP, -1):
            service = harness.setup()
        setup_scale = cal.mark()
        tracer.watch_service(service)
        try:
            gc.collect()
            traced_pass = harness.run_pass(service, cal, tracer)
        finally:
            harness.teardown(service)
    finally:
        tracer.uninstall()
    result.passes.append(traced_pass)
    ledger = layer_ledger(
        tracer, traced_pass.scales, traced_pass.lines, setup_scale
    )
    untraced = result.passes[0].throughput_lps
    ledger["trace.overhead_ratio"] = traced_pass.throughput_lps / untraced
    ledger["trace.spans"] = float(len(tracer.span_id))
    # Spans outlive the run's scratch directory: one file per workload.
    tracer.write(harness.workdir.parent / ("trace-%s.bin" % harness.name))
    return ledger


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def _summarise(
    inputs: Inputs, result: RunResult, traced: Dict[str, float]
) -> Dict[str, Any]:
    # The traced pass (last, when present) feeds only the ledger.
    timed = result.passes[:-1] if traced else result.passes
    steps = [s for p in timed for s in p.step_s]
    acks = [s for p in timed for s in p.ack_s]
    lines = sum(p.lines for p in timed)
    end_to_end = {
        "setup_s": statistics.median(result.setup_s),
        "throughput_lps": lines / sum(steps),
        "step_p50_ms": statistics.median(steps) * 1000.0,
        "step_p90_ms": _quantile(steps, 0.9) * 1000.0,
        "peak_rss_mb": max(p.peak_rss_mb for p in timed),
    }
    per_layer = dict(traced)
    if traced:
        per_layer["machine.ref_ms"] = statistics.median(result.refs)
        per_layer["raw.throughput_lps"] = lines / sum(p.raw_s for p in timed)
        # Admission until acknowledged: +ok over TCP on durable_history,
        # the in-process ingest() return on the replay workloads.
        per_layer["ingest.ack_p50_ms"] = statistics.median(acks) * 1000.0
        per_layer["ingest.ack_p90_ms"] = _quantile(acks, 0.9) * 1000.0
    checks = [c for p in result.passes for c in p.checks]
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": checks,
        "attempted": sum(p.batches for p in result.passes),
        "failed": sum(p.failed for p in result.passes),
        "samples": {"steps": len(steps), "setups": len(result.setup_s)},
        "ref_ms": statistics.median(result.refs),
        "stream_lines": len(inputs.stream),
        "passes": len(timed),
    }
