"""Repeat the benchmark over seeds and summarise it as the README's reference figures.

    python3 perfbench/report.py

For every workload: one untraced run for each of seeds 1-10, then one
traced run on seed 1, each at the ``run_seconds`` of ``BENCHMARK.json``.
Prints, per workload and metric, the median and quartiles over the seeds
and their spread (interquartile distance over the median), the
oracle/proxy speed ratios, and the tracing overhead: the traced run's build
time (the sum of its update cycles on dynamic-dof2) against the untraced
``build_s`` of the same seed, both at calibrated speed and both without the
cold first build or trajectory. Raw results go to
``.bench_out/report-<workload>.json``.
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
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("static-dof4", "dynamic-dof2", "plan-gap-dof2")
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced_build_s(workload: str, seed: int) -> float:
    trace = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json").read_text())
    spans = trace["spans"]  # in start order
    if workload == "dynamic-dof2":
        # 50 cycles per trajectory; the first trajectory is the cold one
        cycles = [s["end"] - s["start"] for s in spans if s["name"] == "cycle"][50:]
        total = sum(cycles) / (len(cycles) // 50)
    else:
        # each build records one span for label-set_data-train and one for
        # sparsify; the first build is the cold one
        builds = [s["end"] - s["start"] for s in spans if s["name"] == "build"][2:]
        total = sum(builds) / (len(builds) // 2)
    return total / trace["speed"]


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    import numpy

    print(f"nproc {len(os.sched_getaffinity(0))}, numpy {numpy.__version__}, "
          f"python {platform.python_version()}, seeds {SEEDS[0]}-{SEEDS[-1]}, "
          f"--seconds {seconds}")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        runs = [_run(workload, s, seconds, 0) for s in SEEDS]
        traced = _run(workload, SEEDS[0], seconds, 1)
        (ROOT / ".bench_out" / f"report-{workload}.json").write_text(
            json.dumps({"seeds": SEEDS, "runs": runs, "traced": traced}))
        failed = sorted({(r["failed"], r["attempted"]) for r in runs})
        print(f"\n{workload}: correct {all(r['correct'] for r in runs)}, "
              f"(failed, attempted) {failed}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            med, q1, q3, spread = _summary([r["metrics"][name]["value"] for r in runs])
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
        m = {k: statistics.median(r["metrics"][k]["value"] for r in runs)
             for k in runs[0]["metrics"]}
        print(f"oracle/proxy per check: {m['oracle_check_us'] / m['check_us']:.2f} (single), "
              f"{m['oracle_check_us'] / m['batch_check_us']:.2f} (batch)")
        if "plan_ms" in m:
            print(f"oracle/proxy per planning query: {m['oracle_plan_ms'] / m['plan_ms']:.2f}")
        overhead = _traced_build_s(workload, SEEDS[0]) / runs[0]["metrics"]["build_s"]["value"] - 1
        print(f"tracing overhead on build_s, seed {SEEDS[0]}: {100 * overhead:+.1f} %")
        print("traced: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in traced["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
