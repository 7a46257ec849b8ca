"""Run perfbench/report.py and the Tier-1 suite, and record their figures as BENCH_<n>.json.

    python3 tools/write_bench.py

report.py runs unchanged: for every workload, the untraced seeds 1-10 and
one traced run of seed 1, each at ``BENCHMARK.json``'s ``run_seconds``. It
leaves the raw results in ``.bench_out/report-<workload>.json``. This script
turns them into, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles``, n=4) and the raw values over the seeds,
plus the traced run's per-layer metrics. Then it runs the Tier-1 suite
once (``python -m pytest -q --continue-on-collection-errors
--durations=10`` with ``src`` on ``PYTHONPATH``) and records its wall time,
its pass and fail counts and its ten slowest tests, and it counts the lines
of ``src/`` (``wc -l src/fastron/*.py src/fastron/bench/*.py``). It adds
the git revision (marked ``+dirty`` when ``src/``, ``perfbench/`` or this
script has uncommitted changes), ``nproc``, the Python and numpy versions,
numpy's build config and report.py's printed summary, and writes the next
free ``BENCH_<n>.json`` at the repository root. Exit code 0 on success, 1
when report.py fails; failing tests are recorded, not an error.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = "perfbench/report.py"
HOW = ("report.py run unchanged at this revision; per workload, 'metrics' holds the median and "
       "quartiles (statistics.quantiles, n=4) of each end-to-end metric over the untraced runs "
       "of seeds 1-10, from the .bench_out/report-<workload>.json it writes, and 'traced' the "
       "per-layer metrics of the traced seed-1 run")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]


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


def _src_lines() -> int:
    files = [*ROOT.glob("src/fastron/*.py"), *ROOT.glob("src/fastron/bench/*.py")]
    return sum(p.read_bytes().count(b"\n") for p in files)  # as wc -l counts


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    summary = lines[-1].strip("= ") if lines else ""
    counts = {"passed": 0, "failed": 0}  # from the summary, e.g. "2 failed, 404 passed in 181.4s"
    tally = summary.split(" in ")[0]
    counts.update((kind, int(k)) for k, kind in re.findall(r"(\d+) (\w+)", tally))
    slow = re.compile(r"(\d+\.\d+)s (setup|call|teardown) +(\S+)$")  # a --durations line
    slowest = [{"seconds": float(m[1]), "when": m[2], "test": m[3]}
               for m in map(slow.match, lines) if m]
    return {"command": "python " + " ".join(TIER1), "wall_s": wall, "exit_code": proc.returncode,
            "counts": counts, "summary": summary, "slowest": slowest}


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
        "src_lines": _src_lines(),
        "tier1": _tier1(),
    }
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"write_bench: wrote {out.name} at {revision}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
