#!/usr/bin/env python3
"""weylchars benchmark: cold and warm verification passes.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload closed-forms --seed 1 --seconds 50 --trace 0

A run first starts three fresh interpreters at once, one per fixed hash
seed, that each run one cold pass; ``peak_rss_mb`` is the median of their
peak RSS.  Then it repeats pairs of one cold pass (every memo and lru cache
emptied, fresh geometries) and one warm pass (the same items again, caches
kept) until the next pair would overrun ``--seconds``.  Between pairs it
starts fresh interpreters that time set-up (``import weylchars`` plus
building the workload's items), spread evenly over the run, at least 30 in
all.  A fixed reference loop, timed once per round and after every set-up
run, gives the run's ``slowdown``; the three timings are divided by it.
Every item's result is checked; an exception or a vacuous pass counts as a
failure.  The timed load comes from this one process on one thread;
``--jobs`` is never passed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each round is one untraced and one traced cold pass, in
alternating order, and the last line carries the per-layer metrics:
medians over the traced cold passes, plus the tracing overhead (median of
the per-round traced minus untraced times).  All spans are written to
``benchmarks/out/``.  The line before the last one holds the details: host
facts, raw quartiles and sample counts, the slowdown, failures, and
anything missing.

Exit status 2, with no result line, when the checkout holds no library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import SPAN_METRICS, Tracer, span_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 30
# peak RSS is the median over these fixed hash seeds, so that no one hash
# layout decides it
RSS_HASH_SEEDS = (0, 1, 2)
# On a 2-vCPU Xeon VM the host ran the passes and set-up up to a third
# slower for minutes at a time.  The timings are scaled by the host's speed
# in the same run: a fixed reference loop, timed once per round and after
# every set-up run, against its median there.
REFERENCE_KEYS = 60_000
REFERENCE_NOMINAL_S = 0.08  # about the loop's median on that VM
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


def summary(values):
    """Median, quartiles and count; a p90 only with ten samples beyond it."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def host_facts(seed: int, uses_seed: bool) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "seed_used": uses_seed,
    }


def probe_command(workload: str, seed: int, *flags: str) -> list[str]:
    return [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), *flags]


def probe_env(hash_seed: int) -> dict:
    return {**os.environ, "PYTHONHASHSEED": str(hash_seed)}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall time and import time of one fresh set-up interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        probe_command(workload, seed), env=probe_env(0), capture_output=True, text=True, check=True
    )
    return time.perf_counter() - start, json.loads(done.stdout.splitlines()[-1])["import_s"]


def memory_probes(workload: str, seed: int) -> list[dict]:
    """Reports of fresh interpreters that each run one cold pass, one per
    hash seed.  They run at the same time because only their peak RSS is
    read; nothing is timed while they run."""
    procs = [
        subprocess.Popen(
            probe_command(workload, seed, "--cold-pass"),
            env=probe_env(hash_seed), stdout=subprocess.PIPE, text=True,
        )
        for hash_seed in RSS_HASH_SEEDS
    ]
    outputs = [proc.communicate()[0] for proc in procs]
    for proc in procs:
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return [json.loads(out.splitlines()[-1]) for out in outputs]


def reference_loop() -> float:
    """Wall time of fixed work of the library's kind, with no library code:
    a dict of tuple keys built, read back in a scattered order and freed."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_KEYS):
        key = (i, i % 7, (i * 7919) % 10007)
        table[key] = [i, key]
    total = 0
    for i in range(0, REFERENCE_KEYS * 7, 7):
        j = i % REFERENCE_KEYS
        total += table[(j, j % 7, (j * 7919) % 10007)][0]
    del table
    return time.perf_counter() - start


def memo_states():
    """Size of the W_n recursion memo, or None when it no longer exists."""
    memo = workloads.resolve("wnchars._MN_CACHE")
    return None if memo is None else len(memo)


def measure(workload, seconds: float, trace: bool, setup):
    """Run pass pairs until the next one would overrun ``seconds``.

    Without tracing a pair is a cold and a warm pass; with tracing it is an
    untraced and a traced cold pass.  ``setup()`` is called between pairs
    so that SETUP_RUNS calls spread evenly over the run.  The reference loop
    runs once per round and after every ``setup()``.
    """
    plain = workloads.Runner(workload)
    traced = workloads.Runner(workload, Tracer()) if trace else None
    times = {"pass_s": [], "warm_pass_s": [], "traced_pass_s": [], "reference_s": []}
    memo = {}
    rounds = []
    setups = []

    def plain_cold_pass():
        times["pass_s"].append(plain.run_pass(cold=True))

    def traced_cold_pass():
        tracer = traced.tracer
        tracer.install()
        try:
            tracer.pass_id = f"cold-{len(rounds)}"
            times["traced_pass_s"].append(traced.run_pass(cold=True))
            memo[tracer.pass_id] = memo_states()
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if traced is None:
            plain_cold_pass()
            times["warm_pass_s"].append(plain.run_pass(cold=False))
        else:
            # odd rounds trace first, so the paired differences carry no order effect
            passes = (plain_cold_pass, traced_cold_pass)
            for run_pass in passes if len(rounds) % 2 == 0 else passes[::-1]:
                run_pass()
        rounds.append(time.perf_counter() - began)
        times["reference_s"].append(reference_loop())
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < SETUP_RUNS * share:
            setups.append(setup())
            times["reference_s"].append(reference_loop())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds) > seconds:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(setup())
        times["reference_s"].append(reference_loop())
    return plain, traced, {k: v for k, v in times.items() if v}, memo, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weylchars" / "__init__.py").is_file():
        print(f"error: no library under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import weylchars

    if not Path(weylchars.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: weylchars imported from {weylchars.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    # the memory probes also leave the bytecode cache warm for the set-up ones
    memory = memory_probes(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed, OUT)
    plain, traced, times, memo, setup = measure(
        workload, args.seconds, bool(args.trace), lambda: setup_probe(args.workload, args.seed)
    )
    setup_walls = [wall for wall, _ in setup]
    import_times = [import_s for _, import_s in setup]
    runners = [r for r in (plain, traced) if r is not None]
    attempted = sum(m["attempted"] for m in memory) + sum(r.attempted for r in runners)
    failures = [f for m in memory for f in m["failures"]] + [f for r in runners for f in r.failures]
    peak_rss = [m["peak_rss_mb"] for m in memory]
    slowdown = statistics.median(times["reference_s"]) / REFERENCE_NOMINAL_S

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "host": host_facts(args.seed, workload.uses_seed),
        "setup_s": summary(setup_walls),
        "setup.import_s": summary(import_times),
        "peak_rss_mb": dict(zip(map(str, RSS_HASH_SEEDS), peak_rss)),
        **{name: summary(values) for name, values in times.items()},
        "slowdown": slowdown,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "absent_caches": sorted(set().union(*(r.absent_caches for r in runners))),
    }
    if args.trace:
        tracer = traced.tracer
        cold_ids = list(memo)
        values = span_metrics(tracer, cold_ids)
        memo_values = [memo[p] for p in cold_ids]
        values["wnchars.memo.states"] = None if None in memo_values else statistics.median(memo_values)
        values["setup.import_s"] = statistics.median(import_times)
        values["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(times["traced_pass_s"], times["pass_s"])
        )
        units = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
        units.update({"wnchars.memo.states": "count", "setup.import_s": "s", "trace.overhead_s": "s"})
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file)
        detail.update(
            spans=len(tracer.spans),
            span_file=str(span_file.relative_to(ROOT)),
            skipped_targets=tracer.skipped,
            missing_metrics=sorted(k for k, v in values.items() if v is None),
        )
    else:
        values = {
            "setup_s": statistics.median(setup_walls) / slowdown,
            "pass_s": statistics.median(times["pass_s"]) / slowdown,
            "warm_pass_s": statistics.median(times["warm_pass_s"]) / slowdown,
            "peak_rss_mb": statistics.median(peak_rss),
            "ok_ratio": 1 - len(failures) / attempted,
        }
        units = {"setup_s": "s", "pass_s": "s", "warm_pass_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}

    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
