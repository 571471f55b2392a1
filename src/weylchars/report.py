"""Structured pass/fail records for the verification suite.

A record carries the claim id, its parameter string, a status, the list of
counterexamples (empty on pass; the exception on error), the elapsed wall
time and the seed in force.  Rendering is deterministic: records are sorted by (claim, params)
and counterexamples are emitted in the order collected, which every check
keeps lexicographic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    claim: str
    params: str
    status: str  # "pass" | "fail" | "error" (the check raised)
    counterexamples: tuple[str, ...] = ()
    elapsed_ms: int = 0
    seed: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def run_check(claim: str, params: str, fn, seed: int = 0, clock=time.perf_counter) -> CheckRecord:
    """Time fn() and wrap its returned counterexample list in a record."""
    start = clock()
    counterexamples = tuple(fn())
    elapsed_ms = int((clock() - start) * 1000)
    status = "pass" if not counterexamples else "fail"
    return CheckRecord(claim, params, status, counterexamples, elapsed_ms, seed)


def render_report(records, include_timing: bool = True) -> str:
    """One text block per record; field order and record order are fixed."""
    blocks = []
    for rec in sorted(records, key=lambda r: (r.claim, r.params)):
        lines = [
            f"claim: {rec.claim}",
            f"params: {rec.params}",
            f"status: {rec.status}",
        ]
        if rec.counterexamples:
            lines.append(f"counterexamples: {len(rec.counterexamples)}")
            lines.extend(f"  - {c}" for c in rec.counterexamples)
        else:
            lines.append("counterexamples: none")
        lines.append(f"elapsed_ms: {rec.elapsed_ms if include_timing else 0}")
        lines.append(f"seed: {rec.seed}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def all_passed(records) -> bool:
    return all(rec.ok for rec in records)
