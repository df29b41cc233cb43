"""Execution trace records for the solver engines.

A trace is a list of numbered records mirroring the solver's moves:
initialization, neighborhood computation, splitting, merging, moves to
the body, and the terminal verdict. Serialized one record per line as
"<step> <kind> <payload>", deterministic for fixed input and config.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KINDS = ("initialize", "nbhd", "split", "merge", "move-to-body",
         "satisfied", "finish")


@dataclass
class TraceRecord:
    step: int
    kind: str
    payload: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")

    def line(self) -> str:
        return f"{self.step} {self.kind} {self.payload}"


class TraceLog:
    """Collects records with strictly increasing steps, finish exactly once."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self._finished = False

    def add(self, kind: str, payload):
        """Record one move; payload is a zero-argument callable returning its
        text, called only when the log is enabled."""
        if not self.enabled:
            return
        if self._finished:
            raise ValueError("trace already finished")
        if kind == "finish":
            self._finished = True
        self.records.append(TraceRecord(len(self.records) + 1, kind, payload()))


# The all-free cube has no literal and is written `cube  0`, two spaces.
_CUBE_SPAN = re.compile(r"cube((?: -?\d+)*) {1,2}0")


def _pretty_cube(match) -> str:
    lits = [int(tok) for tok in match.group(1).split()]
    if not lits:
        return "cube T"
    body = " ".join(f"x{l}" if l > 0 else f"¬x{-l}" for l in lits)
    return f"cube {body}"


def prettify_payload(payload: str) -> str:
    """Rewrite DIMACS-style cube spans into conjunction notation."""
    return _CUBE_SPAN.sub(_pretty_cube, payload)


def format_trace(records, style: str = "dimacs") -> str:
    if style == "pretty":
        return "".join(f"{r.step} {r.kind} {prettify_payload(r.payload)}\n"
                       for r in records)
    return "".join(r.line() + "\n" for r in records)


def emit_trace(records, sink, style: str = "dimacs"):
    """Write the records to a text sink; the terminal record must be present."""
    records = list(records)
    if not records or records[-1].kind != "finish":
        raise ValueError("trace must end with a finish record")
    sink.write(format_trace(records, style))
