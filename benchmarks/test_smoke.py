"""Smoke test of the benchmark: each workload once at its shortest length.

    python3 -m pytest benchmarks -q

Takes about two minutes.  It checks that every metric BENCHMARK.json names is
reported with its unit and a number, and that no item fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402


def run(workload, trace, cwd=ROOT):
    command = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, detail, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(detail)["fail_ratio"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("closed-forms", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [
        ("outer", 0.0, 10.0, -1, "p", None),
        ("inner", 2.0, 5.0, 0, "p", 4),
        ("inner", 6.0, 7.0, 0, "p", 6),
    ]
    rows = t.per_pass()["p"]
    assert rows["outer"][:2] == [1, 6.0]
    assert rows["inner"] == [2, 4.0, 10, 2, 6]


def test_same_name_nesting_is_one_call():
    t = tracer.Tracer()
    t.spans = [
        ("wnchars.mn_trace", 0.0, 4.0, -1, "p", None),
        ("wnchars.mn_trace", 1.0, 3.0, 0, "p", None),
    ]
    assert t.per_pass()["p"]["wnchars.mn_trace"][:2] == [1, 4.0]


def test_missing_target_reads_missing(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (("wnchars.no_such_function", "wnchars.mn_trace", None),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.skipped == ["wnchars.no_such_function"]
    metrics = tracer.span_metrics(t, ["cold-0"])
    assert metrics["wnchars.mn_trace.s"] is None
    assert metrics["verifications.reach.s"] == 0
