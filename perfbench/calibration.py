"""Machine-speed reference slice and the scaling it drives.

Every timing the benchmark reports is divided by how fast this machine
ran a fixed piece of pure-Python work right next to it.  The slice uses
the parser's instruction mix -- ``str.split``, a compiled-regex
``match``, dict updates and allocation of small ``__slots__`` objects --
blended with decoding and copying anomaly-shaped JSON documents, and
lives here, never in the program under test, so a change to the
program cannot change the reference.

The slice runs in the measuring thread only while the system under test
is idle (between closed-loop steps, with the front-door thread waiting
and worker processes waiting for their next batch), with the cyclic
garbage collector paused so a collection of the program's heap cannot
land inside it.  A duration ``d`` bracketed by slices that took ``r0``
and ``r1`` is reported as ``d * NOMINAL_REF_MS / mean(r0, r1)``: the
time it would have taken on a machine whose slice takes exactly the
nominal time.
"""

from __future__ import annotations

import gc
import json
import re
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent

#: Nominal reference time and the machine it was recorded on.
MACHINE = json.loads((HERE / "machine.json").read_text())
NOMINAL_REF_MS: float = float(MACHINE["nominal_ref_ms"])

#: Passes over the slice corpus per reference measurement.
SLICE_ROUNDS = 4

_LINE_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2}) (\d{2}):(\d{2}):(\d{2})(?:\.(\d{3}))? (\w+)"
)

_CORPUS = [
    "2016-02-%02d %02d:%02d:%02d.%03d %s request id=%d node-%d %s took %dms"
    % (
        1 + i % 28,
        i % 24,
        (7 * i) % 60,
        (13 * i) % 60,
        (37 * i) % 1000,
        ("INFO", "WARN", "DEBUG", "ERROR")[i % 4],
        1000 + 17 * i,
        i % 9,
        ("start", "attach", "commit", "release", "end")[i % 5],
        (i * 31) % 997,
    )
    for i in range(64)
]


#: Anomaly-shaped JSON documents, decoded and copied by the slice.
_DOCUMENTS = json.dumps([
    {
        "type": "unparsed_log",
        "severity": 2,
        "reason": "no pattern matched",
        "timestamp_millis": 1454284800000 + 1000 * i,
        "logs": [line],
        "source": "d1",
        "details": {"position": i},
    }
    for i, line in enumerate(_CORPUS * 2)
])


class _Token:
    __slots__ = ("text", "kind", "position")

    def __init__(self, text: str, kind: int, position: int) -> None:
        self.text = text
        self.kind = kind
        self.position = position


def _parse_mix(rounds: int) -> int:
    match = _LINE_RE.match
    counts: Dict[str, int] = {}
    total = 0
    for _ in range(rounds):
        for line in _CORPUS:
            parts = line.split()
            m = match(line)
            level = m.group(8) if m is not None else "?"
            tokens = [
                _Token(part, 1 if part.isdigit() else 0, i)
                for i, part in enumerate(parts)
            ]
            counts[level] = counts.get(level, 0) + len(tokens)
            for token in tokens:
                if token.kind:
                    total += token.position
    return total + sum(counts.values())


def _document_mix(rounds: int) -> int:
    total = 0
    for _ in range(rounds):
        total += len([dict(doc) for doc in json.loads(_DOCUMENTS)])
    return total


def _slice(rounds: int) -> int:
    # A quarter parsing, three quarters document decoding by time: with
    # the parser mix alone, the slice slowed ~7% more than the program
    # when the machine switched speed; this blend tracks it within ~2%.
    return _parse_mix(rounds) + _document_mix(3 * rounds)


def measure_ref_ms(rounds: int = SLICE_ROUNDS) -> float:
    """Time one reference slice in milliseconds (GC paused inside)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _slice(rounds)
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Brackets timed operations with reference slices and scales them.

    Call :meth:`mark` while the system under test is idle; a duration
    measured between two marks is scaled by the mean of the two slices
    around it.  Consecutive operations share the slice between them.
    """

    def __init__(self) -> None:
        self.refs: List[float] = []
        self.last = measure_ref_ms()
        self.refs.append(self.last)

    def mark(self) -> float:
        """Run one slice; returns the scale for the span just closed."""
        before = self.last
        self.last = measure_ref_ms()
        self.refs.append(self.last)
        return NOMINAL_REF_MS * 2.0 / (before + self.last)
