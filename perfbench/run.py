#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload replay_mem --seed 1 --seconds 10 --trace 0

Builds nothing: the program is the pure-Python package under ``src/``
of the checkout this file sits in.  Prints a metadata line and, as the
last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Exits non-zero without a result when the program sources are missing or
a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        default=None,
        metavar="LAYER:FRACTION",
        help="gate self-test only: slow one layer down by FRACTION of "
        "its own time (layers: timestamps, storage)",
    )
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process the shared-memory transport starts.

    ``multiprocessing`` otherwise leaves its resource tracker to exit on
    its own after this process does; the benchmark waits for every
    process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: program sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import benchmark_spec, scenarios
    from perfbench.calibration import MACHINE, NOMINAL_REF_MS
    from perfbench.inject import slowdown

    if args.workload not in scenarios.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(scenarios.WORKLOADS)), file=sys.stderr)
        return 2
    spec = benchmark_spec()
    wrap = slowdown(args.inject) if args.inject else None
    try:
        outcome = scenarios.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            WORKDIR / ("%s-%d-%d" % (args.workload, args.seed, os.getpid())),
            wrap,
        )
    finally:
        _stop_resource_tracker()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer"] + spec["end_to_end"]}
    source = outcome["per_layer" if args.trace else "end_to_end"]
    missing = [n for n in names if n not in source]
    if missing:
        print("error: run produced no value for %s" % ", ".join(missing),
              file=sys.stderr)
        return 3
    for name, ok, detail in outcome["checks"]:
        print("check %-32s %s  %s" % (name, "ok  " if ok else "FAIL", detail))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "nominal_ref_ms": NOMINAL_REF_MS,
        "machine.ref_ms": outcome["ref_ms"],
        "recorded_on": MACHINE.get("recorded_on"),
        "samples": outcome["samples"],
        "stream_lines": outcome["stream_lines"],
        "passes": outcome["passes"],
        "alerts_delivered": outcome["alerts_delivered"],
        "inject": args.inject,
    }
    if args.workload == "replay_procs" and args.trace:
        meta["note"] = ("worker-side parsing is not visible from the parent "
                        "process under execution=processes")
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = all(ok for _name, ok, _detail in outcome["checks"])
    print(json.dumps({
        "correct": correct and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            n: {"value": source[n], "unit": units[n]} for n in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
