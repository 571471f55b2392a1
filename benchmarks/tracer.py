"""Spans recorded from outside the library, by wrapping its public names.

Each wrapped call appends one span ``(name, start, end, parent, pass_id,
note)`` to an in-memory list; ``parent`` is the index of the enclosing span
or -1, and ``note`` is an optional number read off the result (a zero
symbol, an orbit size).  A span's self time is its duration minus the time
its child spans cover.  Calls run on one thread, so children never overlap.

Wrapping replaces a module or class attribute at a call site and restores
it afterwards.  A target that no longer exists is skipped and reported, so
the metrics fed only by it come out missing instead of stopping the run.
"""

from __future__ import annotations

import gzip
import statistics
import time
from collections import defaultdict
from operator import itemgetter
from pathlib import Path

from workloads import resolve


def _is_zero(result):
    zero = getattr(result, "is_zero", None)
    return None if zero is None else int(zero)


# (attribute under weylchars, span name, note read off the result)
TARGETS = (
    ("wnchars.normalize_bisymbol", "symbols.normalize", _is_zero),
    ("wnchars.reduce_beta", "symbols.normalize", None),
    ("snchars.normalize_beta", "symbols.normalize", _is_zero),
    ("snchars.reduce_beta", "symbols.normalize", None),
    ("wnchars.mn_trace_wn", "wnchars.mn_trace", None),
    ("verifications.mn_trace_wn", "wnchars.mn_trace", None),
    ("verifications.trace_dn", "wnchars.mn_trace", None),
    ("wnchars.character_table_wn", "wnchars.table", None),
    ("wnchars.oracle_trace_wn", "wnchars.oracle", None),
    ("wnchars.oracle_trace_sn", "snchars.oracle", None),
    ("snchars.character_table_sn", "snchars.table", None),
    ("snchars.CharacterTable.is_orthogonal", "snchars.orthogonality", None),
    ("cli.check_lemma26", "verifications.lemma26", None),
    ("cli.check_lemma27", "verifications.lemma27", None),
    ("cli.check_lemma29", "verifications.lemma29", None),
    ("cli.check_lemma210", "verifications.lemma210", None),
    ("cli.check_prop211", "verifications.prop211", None),
    ("cli.check_prop212", "verifications.prop212", None),
    ("verifications.check_lemma217", "verifications.lemma217", None),
    ("cli.render_report", "report.render", None),
    ("cli.main", "cli.main", None),
    ("so5.OrthogonalGeometry.enumerate_group", "so5.enumerate", len),
    ("so5.OrthogonalGeometry.stabilizer", "so5.stabilizers", None),
    ("so5.OrthogonalGeometry._batched_scan", "so5.scan", None),
    ("so5.OrthogonalGeometry.conjugacy_class_size", "so5.class_bfs", int),
    ("so5.OrthogonalGeometry._coset_model_batch", "so5.coset_model", None),
    # verify's self time: the per-element cross-check and label bookkeeping
    ("so5.OrthogonalGeometry.verify", "so5.sample_check", None),
    ("so5.OrthogonalGeometry.verify_sampled", "so5.sampled", None),
)
# spans the benchmark opens itself around its own calls
BENCH_SPANS = ("verifications.reach",)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.pass_id = ""
        self._stack: list[int] = []
        self._saved: list = []
        self.installed: set[str] = set(BENCH_SPANS)
        self.skipped: list[str] = []

    def wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id, None)
            if note is not None:
                spans[index] = (name, start, end, parent, self.pass_id, note(result))
            return result

        return traced

    def install(self):
        """Wrap every target that exists; remember what to restore."""
        self.skipped = []
        for path, name, note in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            owner = resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.skipped.append(path)
                continue
            own = attr in vars(owner)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(original, name, note))
            self.installed.add(name)

    def uninstall(self):
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def per_pass(self):
        """{pass_id: {span name: [calls, self seconds, note sum, notes, note max]}}.

        A span nested directly in a span of the same name adds its self
        time but is not counted as another call.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0, 0, 0]))
        for index, (name, start, end, parent, pass_id, note) in enumerate(self.spans):
            row = table[pass_id][name]
            # a span directly inside one of its own name is the same call
            # passing through a second wrapped name (trace_dn into mn_trace_wn)
            if parent < 0 or self.spans[parent][0] != name:
                row[0] += 1
            row[1] += (end - start) - covered[index]
            if note is not None:
                row[2] += note
                row[3] += 1
                row[4] = max(row[4], note)
        return table

    def write(self, path: Path):
        """All spans as gzip CSV: pass_id,name,start,end,parent,note."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("pass_id,name,start,end,parent,note\n")
            for name, start, end, parent, pass_id, note in self.spans:
                handle.write(f"{pass_id},{name},{start!r},{end!r},{parent},{'' if note is None else note}\n")


# readers of a per_pass row
_calls, _self_s, _note_sum, _note_max = (itemgetter(i) for i in (0, 1, 2, 4))


def _note_ratio(row):
    if row[3]:
        return row[2] / row[3]
    return 0.0 if row[0] == 0 else None  # called, but no result told zero


# per-layer metric -> (span it reads, how, unit); metrics not fed by spans
# (the memo size, the import time, the overhead) are filled in by run.py
SPAN_METRICS = {
    "symbols.normalize.calls": ("symbols.normalize", _calls, "count"),
    "symbols.normalize.s": ("symbols.normalize", _self_s, "s"),
    "symbols.normalize.zero_ratio": ("symbols.normalize", _note_ratio, "ratio"),
    "wnchars.mn_trace.calls": ("wnchars.mn_trace", _calls, "count"),
    "wnchars.mn_trace.s": ("wnchars.mn_trace", _self_s, "s"),
    "wnchars.table.s": ("wnchars.table", _self_s, "s"),
    "wnchars.oracle.s": ("wnchars.oracle", _self_s, "s"),
    "snchars.table.s": ("snchars.table", _self_s, "s"),
    "snchars.oracle.s": ("snchars.oracle", _self_s, "s"),
    "snchars.orthogonality.s": ("snchars.orthogonality", _self_s, "s"),
    **{
        f"verifications.{claim}.s": (f"verifications.{claim}", _self_s, "s")
        for claim in (
            "lemma26", "lemma27", "lemma29", "lemma210",
            "prop211", "prop212", "lemma217", "reach",
        )
    },
    "so5.enumerate.s": ("so5.enumerate", _self_s, "s"),
    "so5.stabilizers.s": ("so5.stabilizers", _self_s, "s"),
    "so5.scan.s": ("so5.scan", _self_s, "s"),
    "so5.class_bfs.s": ("so5.class_bfs", _self_s, "s"),
    "so5.coset_model.s": ("so5.coset_model", _self_s, "s"),
    "so5.sample_check.s": ("so5.sample_check", _self_s, "s"),
    "so5.sampled.s": ("so5.sampled", _self_s, "s"),
    "so5.elements": ("so5.enumerate", _note_max, "count"),
    "so5.class_bfs.states": ("so5.class_bfs", _note_sum, "count"),
    "report.render.s": ("report.render", _self_s, "s"),
    "cli.main.self_s": ("cli.main", _self_s, "s"),
}


def span_metrics(tracer: Tracer, pass_ids) -> dict:
    """Median over the given passes of each span metric; None when missing.

    A span that exists but was not called in a pass reads 0 there; a span
    whose every wrap target is gone reads None.
    """
    table = tracer.per_pass()
    empty = [0, 0.0, 0, 0, 0]
    out = {}
    for metric, (span, read, _) in SPAN_METRICS.items():
        if span not in tracer.installed:
            out[metric] = None
            continue
        values = [read(table[p].get(span, empty)) for p in pass_ids]
        out[metric] = None if None in values else statistics.median(values)
    return out
