"""Run perfbench/report.py and record its figures as BENCH_<n>.json at the repository root.

    python3 tools/write_bench.py

report.py runs unchanged: for every workload, the untraced seeds 1-10 and
one traced run of seed 1, each at ``BENCHMARK.json``'s ``run_seconds``. It
leaves the raw results in ``.bench_out/report-<workload>.json``. This script
turns them into, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles``, n=4) and the raw values over the seeds,
plus the traced run's per-layer metrics. It adds the git revision (marked
``+dirty`` when ``src/``, ``perfbench/`` or this script has uncommitted
changes), ``nproc``, the Python and numpy versions, numpy's build config
and report.py's printed summary, to the next free ``BENCH_<n>.json``. Exit
code 0 on success, 1 when report.py fails.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = "perfbench/report.py"
HOW = ("report.py run unchanged at this revision; per workload, 'metrics' holds the median and "
       "quartiles (statistics.quantiles, n=4) of each end-to-end metric over the untraced runs "
       "of seeds 1-10, from the .bench_out/report-<workload>.json it writes, and 'traced' the "
       "per-layer metrics of the traced seed-1 run")


def _next_n() -> int:
    taken = [int(p.stem.split("_")[1]) for p in ROOT.glob("BENCH_*.json")
             if p.stem.split("_")[1].isdigit()]
    return max(taken, default=0) + 1


def _revision() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src", "perfbench", "tools")
    return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")


def _workload(raw: dict) -> dict:
    runs, traced = raw["runs"], raw["traced"]
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "values": values}
    every = runs + [traced]
    return {"seeds": raw["seeds"], "correct": all(r["correct"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "metrics": metrics, "traced_seed": raw["seeds"][0], "traced": traced["metrics"]}


def main() -> int:
    out = ROOT / f"BENCH_{_next_n()}.json"
    revision = _revision()
    proc = subprocess.run([sys.executable, REPORT], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"write_bench: report.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    import numpy

    from perfbench.report import WORKLOADS

    bench = {
        "revision": revision,
        "command": f"python3 {REPORT}",
        "how": HOW,
        "run_seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "workloads": {w: _workload(json.loads(
            (ROOT / ".bench_out" / f"report-{w}.json").read_text())) for w in WORKLOADS},
        "report_stdout": proc.stdout.splitlines(),
    }
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"write_bench: wrote {out.name} at {revision}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
