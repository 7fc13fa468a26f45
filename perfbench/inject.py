"""Deliberate slowdowns for the gate self-test (``run.py --inject``).

A spinning wrapper makes one layer's public call take ``1 + fraction``
times as long as it did: after the real call returns, it busy-waits for
``fraction`` of the call's own duration.  Installed from the benchmark
side only; the program is untouched.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable

#: Short layer name -> (module, class, method) the self-test slows down.
TARGETS = {
    "timestamps": ("repro.parsing.timestamps", "TimestampDetector", "identify"),
    "storage": ("repro.service.storage", "AnomalyStorage", "store"),
}


def _spinning(fn: Callable[..., Any], fraction: float) -> Callable[..., Any]:
    perf = time.perf_counter

    def slowed(*args: Any, **kwargs: Any) -> Any:
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            until = perf() + (perf() - t0) * fraction
            while perf() < until:
                pass

    return slowed


def slowdown(spec: str) -> Callable[[], Callable[[], None]]:
    """Parse ``LAYER:FRACTION``; returns an installer that returns an undo."""
    layer, _, fraction_text = spec.partition(":")
    if layer not in TARGETS:
        raise SystemExit(
            "unknown --inject layer %r; choose from %s"
            % (layer, ", ".join(sorted(TARGETS)))
        )
    fraction = float(fraction_text or "0.3")

    def install() -> Callable[[], None]:
        module_name, owner_name, attr = TARGETS[layer]
        owner = getattr(importlib.import_module(module_name), owner_name)
        original = getattr(owner, attr)
        setattr(owner, attr, _spinning(original, fraction))
        return lambda: setattr(owner, attr, original)

    return install
