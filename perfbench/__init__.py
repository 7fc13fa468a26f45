"""Closed-loop, machine-calibrated benchmark of the LogLens reproduction.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""

import json
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec() -> Dict[str, Any]:
    """The repository's ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
