"""Fast tests of the benchmark harness itself (no benchmark runs).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibration, inject  # noqa: E402
from perfbench.ledger import BATCH, LAYERS, Tracer, layer_ledger  # noqa: E402


def _spin(seconds: float) -> None:
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def _toy_tracer():
    tracer = Tracer()
    inner = tracer._wrap(lambda: _spin(0.004), "Toy:inner", "parsing.index", "plain")

    def outer_body() -> None:
        _spin(0.002)
        inner()

    outer = tracer._wrap(outer_body, "Toy:outer", "parsing.parser", "plain")
    return tracer, outer, inner


def test_self_time_excludes_children() -> None:
    tracer, outer, _inner = _toy_tracer()
    with tracer.root(BATCH, 0):
        outer()
    spans = {
        tracer.names[n]: (e - s, own)
        for n, s, e, own in zip(tracer.name, tracer.start, tracer.end, tracer.self_time)
    }
    total, outer_self = spans["Toy:outer"]
    inner_total, inner_self = spans["Toy:inner"]
    assert inner_self == inner_total
    assert abs(outer_self - (total - inner_total)) < 1e-9
    root_total, root_self = spans[BATCH]
    assert root_self < 0.1 * root_total


def test_ledger_reconciles_step_wall_time() -> None:
    tracer, outer, _inner = _toy_tracer()
    for batch_id in range(3):
        with tracer.root(BATCH, batch_id):
            outer()
    ledger = layer_ledger(tracer, {0: 1.0, 1: 1.0, 2: 1.0}, step_lines=30, setup_scale=1.0)
    shares = sum(ledger["%s.self_share" % layer] for layer in LAYERS)
    assert abs(shares + ledger["trace.unattributed_share"] - 1.0) < 1e-9
    assert ledger["parsing.parser.calls"] == 3
    assert ledger["parsing.index.calls"] == 3
    assert ledger["parsing.index.self_share"] > ledger["parsing.parser.self_share"]


def test_scales_multiply_self_times() -> None:
    tracer, outer, _inner = _toy_tracer()
    with tracer.root(BATCH, 0):
        outer()
    one = layer_ledger(tracer, {0: 1.0}, step_lines=1, setup_scale=1.0)
    half = layer_ledger(tracer, {0: 0.5}, step_lines=1, setup_scale=1.0)
    assert abs(half["parsing.index.self_us_per_line"] * 2 - one["parsing.index.self_us_per_line"]) < 1e-6
    assert abs(half["parsing.index.self_share"] - one["parsing.index.self_share"]) < 1e-12


def test_span_on_another_thread_is_adopted_by_the_waiting_span() -> None:
    tracer = Tracer()
    sink = tracer._wrap(lambda: _spin(0.005), "Toy:sink", "service.bus", "plain")

    def send_body() -> None:
        worker = threading.Thread(target=sink)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    send = tracer._wrap(send_body, "Toy:send", "ingest", "plain")
    with tracer.root(BATCH, 0):
        send()
    by_name = {
        tracer.names[n]: (parent, span_id, e - s, own)
        for n, parent, span_id, s, e, own in zip(
            tracer.name, tracer.parent, tracer.span_id, tracer.start, tracer.end, tracer.self_time
        )
    }
    sink_parent, _sid, sink_total, _own = by_name["Toy:sink"]
    _parent, send_id, send_total, send_self = by_name["Toy:send"]
    assert sink_parent == send_id
    assert abs(send_self - (send_total - sink_total)) < 1e-9


def test_calibrator_scales_by_mean_of_bracketing_slices(monkeypatch) -> None:
    refs = iter([2.0, 4.0, 8.0])
    monkeypatch.setattr(calibration, "measure_ref_ms", lambda rounds=0: next(refs))
    cal = calibration.Calibrator()
    nominal = calibration.NOMINAL_REF_MS
    assert cal.mark() == nominal / 3.0
    assert cal.mark() == nominal / 6.0
    assert cal.refs == [2.0, 4.0, 8.0]


def test_reference_slice_is_positive_and_pauses_gc() -> None:
    import gc

    assert gc.isenabled()
    assert calibration.measure_ref_ms(1) > 0
    assert gc.isenabled()


def test_injected_slowdown_is_proportional_and_undone() -> None:
    from repro.parsing.timestamps import TimestampDetector

    original = TimestampDetector.identify
    undo = inject.slowdown("timestamps:1.0")()
    try:
        assert TimestampDetector.identify is not original
        detector = TimestampDetector()
        tokens = ["2016-02-01", "10:00:00.000", "start"]
        started = time.perf_counter()
        for _ in range(200):
            detector.identify(tokens, 0)
        slowed = time.perf_counter() - started
    finally:
        undo()
    assert TimestampDetector.identify is original
    started = time.perf_counter()
    for _ in range(200):
        detector.identify(tokens, 0)
    plain = time.perf_counter() - started
    assert slowed > 1.5 * plain


def test_run_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "replay_mem", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
