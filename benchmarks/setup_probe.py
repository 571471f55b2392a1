"""Fresh-interpreter probe, started by run.py.

    python3 benchmarks/setup_probe.py <workload> <seed> [--cold-pass]

Imports weylchars from the checkout and builds one workload's items, then
prints the import time as JSON; run.py times the whole process for
``setup_s``.  With ``--cold-pass`` it goes on to run one cold pass and
adds this process's peak RSS (``peak_rss_mb``) and the checks it made.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

start = time.perf_counter()
import weylchars  # noqa: E402,F401

report = {"import_s": time.perf_counter() - start}

import workloads  # noqa: E402

workload = workloads.build(sys.argv[1], int(sys.argv[2]), HERE / "out")
if "--cold-pass" in sys.argv[3:]:
    import resource

    runner = workloads.Runner(workload)
    runner.run_pass(cold=True)
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=runner.attempted,
        failures=runner.failures,
    )
print(json.dumps(report))
