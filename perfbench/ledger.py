"""Span tracer and per-layer ledger, installed from outside the program.

The traced run wraps public functions of each ``repro`` layer (and, for
the process backend's wait, its receive call) with a span recorder.
Each span records its name, start, end, parent span and batch id; spans
are kept in compact in-memory arrays and written out when the run ends.
A layer's self time is its span time minus the time its child spans
cover.  A span opened on a thread with no open span of its own (the
front door's event-loop thread calling ``LogLensService.ingest``) is
adopted by the span open on the driving thread, which is blocked
waiting for that very call's ack.

Nothing here edits program files: wrappers are set as class (or module)
attributes in the benchmark's own process and removed by :meth:`uninstall`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in pipeline order; every one reports calls, self time, share.
LAYERS = (
    "parsing.timestamps",
    "parsing.tokenizer",
    "parsing.index",
    "parsing.parser",
    "streaming.engine",
    "sequence.detector",
    "service.heartbeat",
    "service.step",
    "service.bus",
    "service.log_manager",
    "service.storage",
    "alerts.evaluator",
    "ingest",
    "streaming.execution",
    "streaming.codec",
    "service.model_builder",
)

#: (layer, module, owner class or None for a module function, attribute,
#: role).  Roles: "plain"; "read"/"write" count storage rows; "backend"
#: is a storage backend call charged to the facade that issued it;
#: "encode" counts codec bytes.  ``_recv`` is the parent blocked on a worker.
SPANS: Tuple[Tuple[str, str, Optional[str], str, str], ...] = (
    ("parsing.timestamps", "repro.parsing.timestamps", "TimestampDetector", "identify", "plain"),
    ("parsing.tokenizer", "repro.parsing.tokenizer", "Tokenizer", "tokenize", "plain"),
    ("parsing.index", "repro.parsing.index", "PatternIndex", "lookup", "plain"),
    ("parsing.parser", "repro.parsing.parser", "FastLogParser", "parse", "plain"),
    ("streaming.engine", "repro.streaming.engine", "StreamingContext", "run_batch", "engine"),
    ("sequence.detector", "repro.sequence.detector", "LogSequenceDetector", "process", "plain"),
    ("sequence.detector", "repro.sequence.detector", "LogSequenceDetector", "process_heartbeat", "plain"),
    ("service.heartbeat", "repro.service.heartbeat", "HeartbeatController", "observe", "plain"),
    ("service.heartbeat", "repro.service.heartbeat", "HeartbeatController", "tick", "plain"),
    ("service.step", "repro.service.loglens_service", "LogLensService", "step", "plain"),
    ("service.bus", "repro.service.bus", "MessageBus", "produce_many", "plain"),
    ("service.bus", "repro.service.bus", "Consumer", "poll_many", "plain"),
    ("service.log_manager", "repro.service.log_manager", "LogManager", "cycle", "plain"),
    ("service.log_manager", "repro.service.storage", "LogStorage", "store_batch", "plain"),
    ("service.storage", "repro.service.storage", "AnomalyStorage", "store", "write"),
    ("service.storage", "repro.service.storage", "AnomalyStorage", "all", "read"),
    ("service.storage", "repro.service.storage", "AnomalyStorage", "count", "plain"),
    ("service.storage", "repro.service.storage", "DocumentStore", "insert_many", "backend"),
    ("service.storage", "repro.service.storage", "DocumentStore", "query", "backend"),
    ("service.storage", "repro.service.sqlite_store", "SQLiteDocumentStore", "insert_many", "backend"),
    ("service.storage", "repro.service.sqlite_store", "SQLiteDocumentStore", "query", "backend"),
    ("alerts.evaluator", "repro.alerts.evaluator", "AlertEvaluator", "evaluate", "plain"),
    ("ingest", "repro.ingest.client", "IngestClient", "send", "plain"),
    ("ingest", "repro.service.loglens_service", "LogLensService", "ingest", "plain"),
    ("streaming.execution", "repro.streaming.execution", "ProcessBackend", "run_batch", "plain"),
    ("streaming.execution", "repro.streaming.execution", "ProcessBackend", "_recv", "plain"),
    ("streaming.codec", "repro.streaming.execution", None, "encode_records", "encode"),
    ("streaming.codec", "repro.streaming.execution", None, "decode_emits", "plain"),
    ("service.model_builder", "repro.service.model_builder", "ModelBuilder", "build", "plain"),
    ("service.model_builder", "repro.parsing.logmine", "PatternDiscoverer", "discover", "plain"),
)

#: Root span names: one per closed-loop batch, one per traced set-up.
BATCH = "batch"
SETUP = "setup"


class _Frame:
    __slots__ = ("span_id", "name_id", "layer", "child", "counted")

    def __init__(self, span_id: int, name_id: int, layer: str, counted: bool) -> None:
        self.span_id = span_id
        self.name_id = name_id
        self.layer = layer
        self.child = 0.0
        #: True when this span is the outermost of its layer (its calls
        #: and storage rows count; nested same-layer spans do not).
        self.counted = counted


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.batch = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counted = array("b")
        #: Exact counts made at span boundaries.
        self.counts: Dict[str, float] = defaultdict(float)
        self.batch_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: List[_Frame] = []
        self._local.stack = self._main_stack
        self._installed: List[Tuple[Any, str, Any]] = []
        #: ``id(StreamingContext)`` -> "parse" / "seq" (set per service).
        self.engine_stages: Dict[int, str] = {}

    def watch_service(self, service: Any) -> None:
        """Label a service's two streaming contexts for the engine split."""
        self.engine_stages[id(service.parse_ctx)] = "parse"
        self.engine_stages[id(service.seq_ctx)] = "seq"

    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self._name_ids[name] = nid
        return nid

    def _stack(self) -> List[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            stack: List[_Frame] = []
            self._local.stack = stack
            return stack

    def _parent(self, stack: List[_Frame]) -> Optional[_Frame]:
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def open(self, name_id: int, layer: str) -> Tuple[List[_Frame], _Frame]:
        stack = self._stack()
        parent = self._parent(stack)
        frame = _Frame(
            next(self._ids),
            name_id,
            layer,
            parent is None or parent.layer != layer,
        )
        stack.append(frame)
        return stack, frame

    def close(self, stack: List[_Frame], frame: _Frame, t0: float, t1: float) -> None:
        stack.pop()
        duration = t1 - t0
        parent = self._parent(stack)
        if parent is not None:
            parent.child += duration
        self.span_id.append(frame.span_id)
        self.parent.append(parent.span_id if parent is not None else -1)
        self.name.append(frame.name_id)
        self.batch.append(self.batch_id)
        self.start.append(t0)
        self.end.append(t1)
        self.self_time.append(duration - frame.child)
        self.counted.append(frame.counted)

    def root(self, name: str, batch_id: int) -> "_Root":
        """Context manager for a root span (a batch or a set-up)."""
        return _Root(self, self.name_id(name, name), batch_id)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every public call in :data:`SPANS`."""
        for layer, module_name, owner_name, attr, role in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            label = "%s:%s" % (owner_name or module_name.rsplit(".", 1)[1], attr)
            wrapped = self._wrap(original, label, layer, role)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable[..., Any], label: str, layer: str, role: str) -> Callable[..., Any]:
        attr = label.rsplit(":", 1)[-1]
        tracer = self
        perf = time.perf_counter
        counts = self.counts
        if role == "backend":
            # A backend call belongs to the facade that issued it: the
            # archive's rows are the log manager's, the rest storage's.
            archive_id = self.name_id(label + "@archive", "service.log_manager")
            storage_id = self.name_id(label, layer)
            row_key = "rows_written" if attr == "insert_many" else "rows_read"

            def traced_backend(*args: Any, **kwargs: Any) -> Any:
                stack = tracer._stack()
                parent = tracer._parent(stack)
                if parent is not None and parent.layer == "service.log_manager":
                    nid, span_layer = archive_id, "service.log_manager"
                else:
                    nid, span_layer = storage_id, layer
                stack, frame = tracer.open(nid, span_layer)
                t0 = perf()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = perf()
                    if frame.counted and span_layer == layer and result is not None:
                        counts[row_key] += len(result)
                    tracer.close(stack, frame, t0, t1)

            return traced_backend

        if role == "engine":
            # One name per context, so the ledger splits the engine's
            # self time into the parse and the sequence stage.
            stage_ids = {
                stage: self.name_id("%s[%s]" % (label, stage), layer)
                for stage in ("parse", "seq")
            }
            other_id = self.name_id(label, layer)

            def traced_engine(ctx: Any, *args: Any, **kwargs: Any) -> Any:
                nid = stage_ids.get(tracer.engine_stages.get(id(ctx)), other_id)
                stack, frame = tracer.open(nid, layer)
                t0 = perf()
                try:
                    return fn(ctx, *args, **kwargs)
                finally:
                    tracer.close(stack, frame, t0, perf())

            return traced_engine

        nid = self.name_id(label, layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, frame = tracer.open(nid, layer)
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                if role != "plain" and frame.counted:
                    if role == "write":
                        counts["rows_written"] += 1
                    elif role == "read" and result is not None:
                        counts["rows_read"] += len(result)
                    elif role == "encode" and result is not None:
                        counts["codec_bytes"] += len(result)
                        counts["codec_records"] += len(args[0])
                tracer.close(stack, frame, t0, t1)

        return traced

    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "layers": self.name_layer,
            "spans": len(self.span_id),
            "fields": [
                ["span_id", "q"], ["parent", "q"], ["name", "H"],
                ["batch", "q"], ["start", "d"], ["end", "d"], ["self_time", "d"],
                ["counted", "b"],
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for field, _code in header["fields"]:
                getattr(self, field).tofile(out)


class _Root:
    def __init__(self, tracer: Tracer, name_id: int, batch_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id
        self.batch_id = batch_id

    def __enter__(self) -> "_Root":
        tracer = self.tracer
        tracer.batch_id = self.batch_id
        self._stack, self._frame = tracer.open(self.name_id, tracer.names[self.name_id])
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        t1 = time.perf_counter()
        self.tracer.close(self._stack, self._frame, self._t0, t1)
        self.tracer.batch_id = -1


def layer_ledger(
    tracer: Tracer,
    scales: Dict[int, float],
    step_lines: int,
    setup_scale: float,
) -> Dict[str, float]:
    """Fold the spans into per-layer metrics.

    ``scales`` maps batch id to its calibration scale; ``step_lines`` is
    the number of lines the traced batches carried.  Self times of spans
    inside batches are scaled by their batch's factor; set-up spans by
    ``setup_scale``.  Shares are of the traced step wall time (the sum
    of the batch root spans), except ``share_of_setup``.
    """
    ids = tracer._name_ids
    name_layer = tracer.name_layer
    batch_nid = ids.get(BATCH)
    setup_nid = ids.get(SETUP)
    build_nid = ids.get("ModelBuilder:build")
    send_nid = ids.get("IngestClient:send")
    ingest_nid = ids.get("LogLensService:ingest")
    recv_nid = ids.get("ProcessBackend:_recv")
    stage_of = {
        ids.get("StreamingContext:run_batch[parse]"): "parse",
        ids.get("StreamingContext:run_batch[seq]"): "seq",
    }

    layer_self: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    engine_self: Dict[str, float] = defaultdict(float)
    step_wall = root_self = setup_wall = builder_total = 0.0
    send_total = sink_total = wait_self = 0.0
    for nid, b, t0, t1, own, counted in zip(
        tracer.name, tracer.batch, tracer.start, tracer.end,
        tracer.self_time, tracer.counted,
    ):
        if nid == setup_nid:
            setup_wall += (t1 - t0) * setup_scale
            continue
        if nid == build_nid and counted:
            builder_total += (t1 - t0) * setup_scale
        if b < 0:
            continue
        scale = scales.get(b, 1.0)
        if nid == batch_nid:
            step_wall += (t1 - t0) * scale
            root_self += own * scale
            continue
        layer = name_layer[nid]
        layer_self[layer] += own * scale
        if counted:
            calls[layer] += 1
        if nid == send_nid:
            send_total += (t1 - t0) * scale
        elif nid == ingest_nid and not counted:
            # The service's ingest under the client's send: the sink
            # share of the ack round trip.
            sink_total += (t1 - t0) * scale
        elif nid == recv_nid:
            wait_self += own * scale
        elif nid in stage_of:
            engine_self[stage_of[nid]] += own * scale

    out: Dict[str, float] = {}
    lines = max(step_lines, 1)
    wall = step_wall if step_wall > 0 else 1.0
    for layer in LAYERS:
        out["%s.calls" % layer] = calls.get(layer, 0)
        out["%s.self_us_per_line" % layer] = layer_self.get(layer, 0.0) * 1e6 / lines
        out["%s.self_share" % layer] = layer_self.get(layer, 0.0) / wall
    for stage in ("parse", "seq"):
        out["streaming.engine.%s_self_us_per_line" % stage] = (
            engine_self.get(stage, 0.0) * 1e6 / lines
        )
    out["parsing.timestamps.calls_per_line"] = calls.get("parsing.timestamps", 0) / lines
    written = tracer.counts.get("rows_written", 0.0)
    out["service.storage.rows_read_per_row_written"] = (
        tracer.counts.get("rows_read", 0.0) / written if written else 0.0
    )
    out["ingest.sink_share_of_ack"] = sink_total / send_total if send_total else 0.0
    execution = layer_self.get("streaming.execution", 0.0)
    out["streaming.execution.wait_share"] = wait_self / execution if execution else 0.0
    records = tracer.counts.get("codec_records", 0.0)
    out["streaming.codec.bytes_per_record"] = (
        tracer.counts.get("codec_bytes", 0.0) / records if records else 0.0
    )
    out["service.model_builder.share_of_setup"] = (
        builder_total / setup_wall if setup_wall else 0.0
    )
    out["trace.unattributed_share"] = root_self / wall
    return out
