#!/usr/bin/env python3
"""Gate self-test: the bounds catch a located slowdown and nothing else.

    python3 perfbench/selftest.py [--runs 3]

For ``replay_mem`` and ``durable_history`` this runs four sets of
``--runs`` benchmark runs on distinct seeds: two of unchanged code (A
and B), one with ``TimestampDetector.identify`` slowed down and one with
``AnomalyStorage.store`` slowed down (``run.py --inject``).  Each
slowdown is sized to add about 30% to the step time of the workload
where its layer dominates: identify is ~60% of a replay_mem step, so it
is made 1.5x as slow; store is ~1% of a durable_history step (the step
is dominated by the per-step ``all()`` read), so it is made 21x as slow.

It passes when, comparing set medians with the bounds in
``BENCHMARK.json``:

* B is within every bound of A on both workloads (unchanged code);
* the identify slowdown worsens ``throughput_lps`` past its bound on
  replay_mem and leaves every metric of durable_history within bounds;
* the store slowdown worsens ``step_p50_ms`` past its bound on
  durable_history and leaves every metric of replay_mem within bounds.

Other metrics of the slowed workload may trip too (the slowdown is
real there); they are printed but not judged.

Exits 0 on pass, 1 on fail.  Takes about 12 minutes with ``--runs 3``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Injection -> (workload it must be caught on, metric that must trip).
INJECTIONS = {
    "timestamps:0.5": ("replay_mem", "throughput_lps"),
    "storage:20": ("durable_history", "step_p50_ms"),
}
WORKLOADS = ("replay_mem", "durable_history")


def run_set(workload: str, seeds: List[int], inject: Optional[str]) -> Dict[str, float]:
    """Median of each end-to-end metric over one run per seed."""
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "10", "--trace", "0"]
        if inject:
            cmd += ["--inject", inject]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        if done.returncode != 0:
            raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), done.stderr))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit("incorrect output: %s" % " ".join(cmd))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def worsening(spec: Dict[str, dict], name: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if spec[name]["better"] == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    seeds_a = list(range(args.first_seed, args.first_seed + args.runs))
    seeds_b = [s + args.runs for s in seeds_a]
    failures: List[str] = []
    for workload in WORKLOADS:
        base = run_set(workload, seeds_a, None)
        sets = {"unchanged": run_set(workload, seeds_b, None)}
        for inject in INJECTIONS:
            sets[inject] = run_set(workload, seeds_a, inject)
        for label, medians in sets.items():
            target = INJECTIONS.get(label)
            for name, metric in spec.items():
                worse = worsening(spec, name, base[name], medians[name])
                tripped = worse > metric["bound"]
                if target is None or target[0] != workload:
                    expect = "within"  # unchanged code, or the bypass workload
                elif target[1] == name:
                    expect = "tripped"
                else:
                    expect = "any"  # other metrics of the slowed workload
                ok = expect == "any" or (tripped == (expect == "tripped"))
                print("%-16s %-16s %-15s worse by %+7.1f%%  bound %4.0f%%  %-7s %s" % (
                    workload, label, name, 100 * worse, 100 * metric["bound"],
                    "tripped" if tripped else "within",
                    "" if ok else "<-- expected %s" % expect), flush=True)
                if not ok:
                    failures.append("%s/%s/%s" % (workload, label, name))
    print("selftest %s" % ("FAILED: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
