"""Command-line driver: traces, character tables, verification suite.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error, 3 internal error (an unexpected exception inside the program).
When a verify check raises unexpectedly, the report is still written: it
holds every completed record plus a ``status: error`` record for that check.
The verify claims and their parameter values come from the one registry,
``verifications.CLAIMS``.  The so5 module, and with it numpy, is imported
only by ``verify so5`` and ``verify all``.  Reports are deterministic for a
fixed seed; pass --no-timing to zero the elapsed_ms fields and get
byte-identical reruns.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
from dataclasses import replace
from functools import cache, partial

from .report import CheckRecord, all_passed, render_report
from .snchars import SN_TABLE_LIMIT, character_table_sn, mn_trace_sn
from .symbols import BiSymbol, SignedCycleType
from .verifications import (  # check_<claim> is looked up by claim id
    CLAIMS,
    SO5_DEFAULT_Q,
    SO5_DEFAULT_SAMPLES,
    check_lemma26,
    check_lemma27,
    check_lemma29,
    check_lemma210,
    check_lemma217,
    check_prop211,
    check_prop212,
    check_so5,
    claim_params,
)
from .wnchars import WN_TABLE_LIMIT, character_table_wn, mn_trace_wn

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
EXIT_CODES = """exit codes:
  0  success: the command ran and every check passed
  1  a verification check failed
  2  usage or input error
  3  internal error: an unexpected exception inside the program"""


def parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from exc


def serialize_class(cls: SignedCycleType) -> str:
    return "pos:%s;neg:%s" % (
        ".".join(str(k) for k in cls.pos),
        ".".join(str(k) for k in cls.neg),
    )


def serialize_symbol(sym) -> str:
    if isinstance(sym, BiSymbol):
        return "%s;%s" % (
            ",".join(str(x) for x in sym.top),
            ",".join(str(x) for x in sym.bottom),
        )
    return ",".join(str(x) for x in sym)


def serialize_sn_class(cls) -> str:
    return ".".join(str(k) for k in cls)


def _cmd_trace(args) -> int:
    if args.group == "sn":
        value = mn_trace_sn(parse_int_list(args.beta), parse_int_list(args.cycles))
    else:
        sym = BiSymbol(parse_int_list(args.top), parse_int_list(args.bottom))
        cls = SignedCycleType(parse_int_list(args.pos), parse_int_list(args.neg))
        value = mn_trace_wn(sym, cls)
    print(value)
    return 0


def _column_names(table) -> list[str]:
    serialize = serialize_sn_class if table.group.startswith("S") else serialize_class
    return [serialize(c) for c in table.col_labels]


def _render_table_text(table) -> str:
    col_names = _column_names(table)
    row_names = [serialize_symbol(r) for r in table.row_labels]
    width = max(
        [len(n) for n in col_names + row_names + ["centralizer"]]
        + [len(str(v)) for row in table.entries for v in row]
        + [len(str(z)) for z in table.centralizers]
    )
    out = [f"character table {table.group}"]
    head = " " * (width + 2) + "  ".join(n.rjust(width) for n in col_names)
    out.append(head)
    out.append(
        "centralizer".ljust(width + 2)
        + "  ".join(str(z).rjust(width) for z in table.centralizers)
    )
    for name, row in zip(row_names, table.entries):
        out.append(
            name.ljust(width + 2) + "  ".join(str(v).rjust(width) for v in row)
        )
    return "\n".join(out) + "\n"


def _render_table_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["symbol"] + _column_names(table))
    writer.writerow(["centralizer"] + [str(z) for z in table.centralizers])
    for label, row in zip(table.row_labels, table.entries):
        writer.writerow([serialize_symbol(label)] + [str(v) for v in row])
    orthogonal = "pass" if table.is_orthogonal() else "FAIL"
    buf.write(f"# weighted row orthogonality: {orthogonal}\n")
    return buf.getvalue()


def _open_output(path):
    """Stdout, or the file at path opened now: an unwritable path is a usage error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_table(args) -> int:
    build = character_table_sn if args.group == "sn" else character_table_wn
    table = build(args.n)
    text = _render_table_csv(table) if args.format == "csv" else _render_table_text(table)
    with _open_output(args.output) as out:
        out.write(text)
    return 0


def _verify_tasks(args):
    """(claim, record params, callable) per selected check; ValueError on a
    parameter or a value the claim does not take."""
    if args.m is not None and CLAIMS.get(args.claim) is None:
        raise ValueError(f"--m does not apply to verify {args.claim}")
    if args.claim not in ("so5", "all"):
        for flag, value in (("--q", args.q), ("--samples", args.samples)):
            if value is not None:
                raise ValueError(f"{flag} applies only to verify so5 and verify all")
    if args.q is not None and args.q not in (3, 5):
        raise ValueError("so5 verification supports q=3 (full) or q=5 (sampled)")
    if args.samples is not None and args.q != 5:
        raise ValueError("--samples applies only to the sampled so5 check, --q 5")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    tasks = []
    for claim, sweep in CLAIMS.items():
        if args.claim not in (claim, "all"):
            continue
        check = globals()[f"check_{claim}"]
        if sweep is not None:
            values = sweep.defaults if args.m is None else (args.m,)
            tasks += [(claim, claim_params(claim, m), partial(check, m)) for m in values]
        elif claim == "lemma217":
            tasks.append((claim, "n=4", check))
        else:
            q = SO5_DEFAULT_Q if args.q is None else args.q
            samples = SO5_DEFAULT_SAMPLES if args.samples is None else args.samples
            params = "q=3" if q == 3 else f"q={q} sampled"
            tasks.append((claim, params, partial(check, q, samples, args.seed)))
    return tasks


def _run_task(task, seed: int) -> CheckRecord:
    """The task's record, stamped with the run's seed.  Every parameter is
    validated before the first check runs, so any exception is unexpected:
    it becomes an error record carrying the exception."""
    claim, params, fn = task
    try:
        return replace(fn(), seed=seed)
    except Exception as exc:  # noqa: BLE001 - reported in the record and by main
        return CheckRecord(claim, params, "error", (f"{type(exc).__name__}: {exc}",), 0, seed)


def _cmd_verify(args) -> int:
    tasks = _verify_tasks(args)
    with _open_output(args.output) as out:
        records = [_run_task(task, args.seed) for task in tasks]
        out.write(render_report(records, include_timing=not args.no_timing))
    errors = [rec for rec in records if rec.status == "error"]
    for rec in errors:
        print(f"internal error: {rec.counterexamples[0]}", file=sys.stderr)
    if errors:
        return INTERNAL_ERROR
    return 0 if all_passed(records) else CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="weylchars",
        description="exact traces, character tables and verification checks",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="evaluate one trace")
    trace_sub = trace.add_subparsers(dest="group", required=True)
    trace_sn = trace_sub.add_parser("sn", help="symmetric group")
    trace_sn.add_argument("--beta", required=True, help="symbol entries, e.g. 1,3")
    trace_sn.add_argument("--cycles", required=True, help="cycle type, e.g. 1,1,1")
    trace_wn = trace_sub.add_parser("wn", help="signed permutation group")
    trace_wn.add_argument("--top", required=True, help="top row, e.g. 0,1")
    trace_wn.add_argument("--bottom", required=True, help="bottom row, e.g. 2")
    trace_wn.add_argument("--pos", default="", help="positive cycle lengths")
    trace_wn.add_argument("--neg", default="", help="negative cycle lengths")

    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument("claim", choices=[*CLAIMS, "all"])
    verify.add_argument("--m", type=int, default=None, help="single parameter value")
    verify.add_argument(
        "--q", type=int, default=None, help=f"field size for so5 (default {SO5_DEFAULT_Q})"
    )
    verify.add_argument(
        "--samples",
        type=int,
        default=None,
        help=f"sample count for so5 at q=5 (default {SO5_DEFAULT_SAMPLES})",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--no-timing", action="store_true", help="zero elapsed_ms")
    verify.add_argument("--output", default=None, help="write the report to a file")

    table = sub.add_parser("table", help="print a character table")
    table_sub = table.add_subparsers(dest="group", required=True)
    for name, bound in (("sn", SN_TABLE_LIMIT), ("wn", WN_TABLE_LIMIT)):
        p = table_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True, help=f"rank, at most {bound}")
        p.add_argument("--format", choices=["text", "csv"], default="text")
        p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads a value of "--" (--n=--) as []
            parser.error(f"argument --{name}: expected one value")
    try:
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_verify(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        # the removal recursion is one level deep per cycle
        print(
            "error: input too large: too many cycles for the removal recursion",
            file=sys.stderr,
        )
        return USAGE_ERROR
    except Exception as exc:  # exit 1 must mean only "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
