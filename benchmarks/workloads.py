"""The benchmark workloads: item lists, the cold reset, checks, passes.

An item is one check call with an exact expected result.  Its ``run``
returns None when the result is the expected one and a one-line reason
otherwise; the pass runner counts an exception as a failure too.  An item
that names its work (the splits a closed-form check enumerates, the samples
a sampled check draws) also fails unless a counter on that library name saw
exactly the expected amount, so a check that looped over nothing cannot pass.

Every input is written out here, never taken from the library's default
ranges or ``*_LIMIT`` constants, so raising a bound in the library does not
change a workload.  The closed-forms and tables items are exhaustive and
ignore the seed; the so5 items pass it to both of their checks.

Modules are imported only by the workload that uses them, so the set-up
time and peak memory of a workload include only what it needs.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

# lru caches and memos a cold pass must empty; a name a later version drops
# is reported as absent
NAMED_CACHES = (
    "wnchars.clear_caches",
    "snchars.clear_caches",
    "wnchars.wn_elements.cache_clear",
    "wnchars._induction_profile.cache_clear",
)

CLOSED_FORM_CLAIMS = (
    [("lemma26", m) for m in range(0, 7)]
    + [("lemma27", m) for m in range(0, 7)]
    + [("lemma29", m) for m in range(1, 7)]
    + [("lemma210", m) for m in range(1, 4)]
    + [("prop211", m) for m in range(1, 6)]
    + [("prop212", m) for m in (2, 4)]
)
REACH = (("multiplicity_bc", 7), ("multiplicity_d", 6))


def split_count(claim: str, m: int) -> tuple[str, int]:
    """The split enumerator a claim walks and how many splits it yields.

    Types B/C split {0..2m} into rows of m + 1 and m; type D splits
    {0..2m-1} into two rows of m, and lemma210 takes m = 2m'.
    """
    if claim in ("lemma26", "lemma27", "prop211", "multiplicity_bc"):
        return "bc_splits", comb(2 * m + 1, m)
    if claim == "lemma210":
        return "d_splits", comb(4 * m, 2 * m)
    return "d_splits", comb(2 * m, m)

W6_CLASSES = 65  # bipartitions of 6
S8_CLASSES = 22  # partitions of 8
W4_CLASSES = 20  # bipartitions of 4
SO5_Q3_ORDER = 51840
SO5_Q5_SAMPLES = 200


def module(name: str):
    return importlib.import_module(f"weylchars.{name}")


def resolve(path: str):
    """Object at ``module.attr[.attr...]`` under weylchars, or None."""
    mod_name, *attrs = path.split(".")
    try:
        obj = module(mod_name)
    except ImportError:
        return None
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def clear_caches() -> list[str]:
    """Empty every memo and lru cache of the loaded weylchars modules.

    Besides the named ones, any module-level ``clear_caches`` and any
    module-level function with ``cache_clear`` is called, so a cache added
    later cannot turn a cold pass warm.  Returns the named caches that no
    longer exist.
    """
    absent = [path for path in NAMED_CACHES if resolve(path) is None]
    for name, mod in list(sys.modules.items()):
        if not name.startswith("weylchars.") or mod is None:
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        if callable(getattr(mod, "clear_caches", None)):
            mod.clear_caches()
    return absent


def record_problem(record, claim: str, params: str):
    """Reason a CheckRecord is not a pass of the claim, or None."""
    if (record.claim, record.params) != (claim, params):
        return f"record is {record.claim} {record.params}, expected {claim} {params}"
    if record.status != "pass":
        return f"status {record.status}: {list(record.counterexamples)[:3]}"
    return None


def report_problem(text: str, claim: str, params: str) -> str | None:
    """Reason a text report is not exactly one pass, or None."""
    blocks = [b for b in text.strip().split("\n\n") if b.strip()]
    if len(blocks) != 1:
        return f"{len(blocks)} records in the report, expected 1"
    fields = {}
    for line in blocks[0].splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            fields[key] = value
    got = (fields.get("claim"), fields.get("params"), fields.get("status"))
    if got != (claim, params, "pass"):
        return f"report says {got}"
    if fields.get("counterexamples") != "none":
        return f"counterexamples: {fields.get('counterexamples')}"
    return None


class Counter:
    """Counts what one library name hands out: calls, or values yielded.

    The name is wrapped for the life of the process.  When it no longer
    exists, ``present`` is False and an item relying on it fails, because
    its work can no longer be seen.
    """

    def __init__(self, path: str, unit: str, per_yield: bool):
        self.path, self.unit, self.count = path, unit, 0
        owner_path, _, attr = path.rpartition(".")
        owner = resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        self.present = original is not None
        if not self.present:
            return

        if per_yield:
            def counted(*args, **kwargs):
                for value in original(*args, **kwargs):
                    self.count += 1
                    yield value
        else:
            def counted(*args, **kwargs):
                self.count += 1
                return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def problem(self, expected: int) -> str | None:
        if not self.present:
            return f"work not visible: {self.path} is gone"
        if self.count != expected:
            return f"{self.count} {self.unit} through {self.path}, expected {expected}"
        return None


_COUNTERS: dict[str, Counter] = {}


def counter(path: str, unit: str, per_yield: bool = False) -> Counter:
    """The one Counter on ``path`` in this process."""
    if path not in _COUNTERS:
        _COUNTERS[path] = Counter(path, unit, per_yield)
    return _COUNTERS[path]


def shape_problem(table, classes: int) -> str | None:
    shape = (len(table.row_labels), len(table.col_labels))
    return None if shape == (classes, classes) else f"table shape {shape}, expected {classes} square"


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], str | None]
    span: str | None = None  # benchmark-side span name in traced runs
    work: tuple[Counter, int] | None = None  # counter and the count it must reach


class Workload:
    name = ""
    uses_seed = False

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.items: list[Item] = []

    def reset(self) -> list[str]:
        """Prepare a cold pass; returns the named caches found absent."""
        return clear_caches()


class ClosedForms(Workload):
    """Deep, cold W_n recursion through the CLI, plus two reach items."""

    name = "closed-forms"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.cli = module("cli")
        self.verifications = module("verifications")
        # one file per process: the memory probes run side by side
        self.report_path = scratch / f"closed-forms-report-{os.getpid()}.txt"
        self.items = [self._cli_item(c, m) for c, m in CLOSED_FORM_CLAIMS]
        self.items += [self._reach_item(f, m) for f, m in REACH]

    def _cli_item(self, claim: str, m: int) -> Item:
        argv = ["verify", claim, "--m", str(m), "--no-timing", "--output", str(self.report_path)]
        params = f"m'={m}" if claim == "lemma210" else f"m={m}"

        def run():
            self.report_path.unlink(missing_ok=True)
            code = self.cli.main(argv)
            if code != 0:
                return f"exit code {code}"
            text = self.report_path.read_text()
            self.report_path.unlink()
            return report_problem(text, claim, params)

        return Item(f"{claim} {params}", run, work=self._splits(claim, m))

    def _reach_item(self, fn_name: str, m: int) -> Item:
        def run():
            value = getattr(self.verifications, fn_name)(m)
            return None if value == 1 else f"multiplicity {value} != 1"

        return Item(f"{fn_name}({m})", run, span="verifications.reach", work=self._splits(fn_name, m))

    @staticmethod
    def _splits(claim: str, m: int) -> tuple[Counter, int]:
        name, expected = split_count(claim, m)
        return counter(f"verifications.{name}", "splits", per_yield=True), expected


class Tables(Workload):
    """Character tables, their orthogonality, the W_4 oracle and lemma 2.17."""

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.wnchars = module("wnchars")
        self.snchars = module("snchars")
        self.verifications = module("verifications")
        self.w4 = None
        self.items = [
            Item("W6 table orthogonal", lambda: self._table(self.wnchars.character_table_wn, 6, W6_CLASSES)),
            Item("S8 table orthogonal", lambda: self._table(self.snchars.character_table_sn, 8, S8_CLASSES)),
            Item("W4 table", self._build_w4),
        ]
        self.items += [
            Item(f"W4 oracle [{i}][{j}]", lambda i=i, j=j: self._oracle(i, j))
            for i in range(W4_CLASSES)
            for j in range(W4_CLASSES)
        ]
        self.items.append(Item("lemma217", self._lemma217))

    @staticmethod
    def _table(build, n: int, classes: int):
        table = build(n)
        problem = shape_problem(table, classes)
        if problem is None and not table.is_orthogonal():
            problem = "rows are not orthogonal"
        return problem

    def _build_w4(self):
        self.w4 = None
        table = self.wnchars.character_table_wn(4)
        problem = shape_problem(table, W4_CLASSES)
        if problem is None:
            self.w4 = table
        return problem

    def _oracle(self, i: int, j: int):
        if self.w4 is None:
            return "no W4 table"
        sym, cls = self.w4.row_labels[i], self.w4.col_labels[j]
        want = self.w4.entries[i][j]
        got = self.wnchars.oracle_trace_wn(sym, cls)
        return None if got == want else f"oracle {got} != recursion {want}"

    def _lemma217(self):
        return record_problem(self.verifications.check_lemma217(), "lemma217", "n=4")


class SO5(Workload):
    """Full SO_5(F_3) identity on a fresh geometry, then sampled q=5."""

    uses_seed = True

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.so5 = module("so5")
        self.q3 = self.q5 = None
        samples = counter("so5.OrthogonalGeometry.random_element", "samples")
        self.items = [
            Item("so5 q=3 verify", self._verify_q3),
            Item("so5 q=3 order", self._order_q3),
            Item("so5 q=5 sampled", self._sampled_q5, work=(samples, SO5_Q5_SAMPLES)),
        ]

    def reset(self):
        self.q3 = self.q5 = None
        return super().reset()

    def _verify_q3(self):
        if self.q3 is None:
            self.q3 = self.so5.OrthogonalGeometry(3)
        return record_problem(self.q3.verify(self.seed), "so5", "q=3")

    def _order_q3(self):
        count = len(self.q3.enumerate_group())
        return None if count == SO5_Q3_ORDER else f"{count} elements"

    def _sampled_q5(self):
        if self.q5 is None:
            self.q5 = self.so5.OrthogonalGeometry(5)
        record = self.q5.verify_sampled(SO5_Q5_SAMPLES, self.seed)
        return record_problem(record, "so5", "q=5 sampled")


class TablesSO5(Workload):
    """The tables items, then the so5 items, as one pass.

    Kept apart from closed-forms, which fills the W_n memo, because here
    the recursion mostly reads it: a change that fills the memo faster but
    slows lookups shows here.  Tables and so5 share a workload only so that
    each run measures twice as long on a noisy host.
    """

    name = "tables-so5"
    uses_seed = True

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.parts = (Tables(seed, scratch), SO5(seed, scratch))
        self.items = [item for part in self.parts for item in part.items]

    def reset(self):
        return sorted({name for part in self.parts for name in part.reset()})


WORKLOADS = {w.name: w for w in (ClosedForms, TablesSO5)}


def build(name: str, seed: int, scratch: Path) -> Workload:
    return WORKLOADS[name](seed, scratch)


class Runner:
    """Runs passes over one workload and keeps count of the checks."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.absent_caches: set[str] = set()

    def run_pass(self, cold: bool) -> float:
        if cold:
            self.absent_caches.update(self.workload.reset())
        gc.collect()  # every pass starts from the same collector state
        tracer = self.tracer
        start = time.perf_counter()
        for item in self.workload.items:
            call = item.run
            if tracer is not None and item.span:
                call = tracer.wrap(call, item.span)
            if item.work is not None:
                item.work[0].count = 0
            try:
                problem = call()
            except Exception as exc:  # noqa: BLE001 - any crash is a failed item
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None and item.work is not None:
                problem = item.work[0].problem(item.work[1])
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{item.label}: {problem}")
        return time.perf_counter() - start
