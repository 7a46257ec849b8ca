"""Same bytes: pinned outputs of the shipped configs and of the gap-scenario plans.

The golden files under ``tests/golden/`` hold, for runs of the shipped
configs, the CSV cells outside the ``*_ns`` timing columns and the bytes
of a saved model file, and for the 40 gap-scenario queries a digest of
each plan's waypoint bytes with its iteration count, and of each
``plan_and_certify`` plan with its repair and ``certified`` flags, and for
40 warm update cycles of the seed-0 static_4dof model a digest of the
model's ``(X, y, alpha, F)`` bytes after each cycle.
The CSV runs use smaller holdout (and static timing) sizes than their
configs; the ``*_seeds*.csv`` files keep static_2dof's 20 default seeds
and dynamic_2dof's 50 steps (seeds 0-4), the others fewer seeds or steps.
They were generated from commit ``be8a4a4`` (``gap_certified.txt`` from
``a48e0a4``, the ``*_seeds*.csv`` files from ``8b352b8``,
``static_4dof_cycles.txt`` from ``ec2df07``) with

    PYTHONPATH=src python tests/test_identity.py

run from the repository root, which rewrites every golden file. The
digests came out identical with ``OPENBLAS_NUM_THREADS`` set to 1 and
to 2. Regenerate them only in a change that alters these bytes on
purpose (such as a new training budget), and say so where that change
is recorded; any other failure here is a behaviour change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fastron.bench.config import ScenarioConfig, load_config
from fastron.bench.report import TIMING_COLUMNS, emit_report
from fastron.bench.runners import Scene, run_dynamic_eval, run_static_eval, static_seeds
from fastron.bench.scenarios import random_start_goal
from fastron.planning import PLANNERS, PlanQuery, plan_and_certify, rrt_connect_plan, rrt_plan
from fastron.sampling import update_cycle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

GAP_QUERIES = 40
GAP_MAX_ITERATIONS = 3000
REFINE_CYCLES = 40


def _config(name: str, **sections) -> ScenarioConfig:
    data = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    for key, val in sections.items():
        data[key].update(val)
    return load_config(data)


def _csv_without_timings(records, tmp_dir: Path) -> str:
    path = tmp_dir / "run.csv"
    emit_report(records, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [k for k, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[k] for k in keep])
    return out.getvalue()


def _static_2dof(tmp_dir: Path) -> dict[str, bytes]:
    cfg = _config("static_2dof", eval={"holdout": 2000, "timing_calls": 2000})
    [(record, model)] = static_seeds([Scene(cfg, 0)])
    records = [record] + run_static_eval(cfg, [1])
    model_path = tmp_dir / "static_2dof_seed0.fastron"
    model.save(model_path)
    return {
        "static_2dof.csv": _csv_without_timings(records, tmp_dir).encode(),
        "static_2dof_seed0.fastron": model_path.read_bytes(),
    }


def _static_4dof(tmp_dir: Path) -> dict[str, bytes]:
    cfg = _config("static_4dof", eval={"holdout": 2000, "timing_calls": 2000})
    return {"static_4dof.csv": _csv_without_timings(run_static_eval(cfg, [0]), tmp_dir).encode()}


def _dynamic_2dof(tmp_dir: Path) -> dict[str, bytes]:
    cfg = _config("dynamic_2dof", obstacles={"motion_steps": 8}, eval={"holdout": 1000})
    return {"dynamic_2dof.csv": _csv_without_timings(run_dynamic_eval(cfg, [0]), tmp_dir).encode()}


def _static_4dof_cycles(tmp_dir: Path) -> dict[str, bytes]:
    # the d = 4 update cycle: the seed-0 model (trained on its 4,000 points)
    # refined in place while |S| climbs to s_max; each line digests the
    # model's arrays after one cycle
    cfg = _config("static_4dof")
    scene = Scene(cfg, 0)
    model, _ = scene.train()
    sampler = cfg.sampler_params(0)
    lines = []
    for k in range(REFINE_CYCLES):
        update_cycle(model, scene.label, sampler)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (model.X, model.y, model.alpha, model.F)))
        lines.append(f"{k} n={model.n} support={model.support_count} sha256={digest.hexdigest()}\n")
    return {"static_4dof_cycles.txt": "".join(lines).encode()}


def _static_2dof_seeds(tmp_dir: Path) -> dict[str, bytes]:
    # every seed of the shipped run (the config's default 20)
    cfg = _config("static_2dof", eval={"holdout": 2000, "timing_calls": 2000})
    records = run_static_eval(cfg, range(20))
    return {"static_2dof_seeds0-19.csv": _csv_without_timings(records, tmp_dir).encode()}


def _dynamic_2dof_seeds(tmp_dir: Path) -> dict[str, bytes]:
    # five seeds at the shipped 50 steps
    cfg = _config("dynamic_2dof", eval={"holdout": 1000})
    records = run_dynamic_eval(cfg, range(5))
    return {"dynamic_2dof_seeds0-4.csv": _csv_without_timings(records, tmp_dir).encode()}


def _gap_plans(tmp_dir: Path) -> dict[str, bytes]:
    # start/goal k from random_start_goal(default_rng(1000 + k)) under the
    # seed-0 plan_gap_2dof model; every fourth query plans on the oracle
    cfg = _config("plan_gap_2dof")
    scene = Scene(cfg, 0)
    model, _ = scene.train()
    oracle_free, proxy_free = scene.free, lambda p: model.predict(p) == -1
    pl = cfg.planner
    lines = []
    start_goal = []
    for k in range(GAP_QUERIES):
        start, goal = random_start_goal(np.random.default_rng(1000 + k),
                                        (oracle_free, proxy_free), scene.chain.dof,
                                        pl.min_start_goal_dist)
        start_goal.append((start, goal))
        route, checker = ("oracle", oracle_free) if k % 4 == 0 else ("proxy", proxy_free)
        for name, planner in (("rrt", rrt_plan), ("rrt_connect", rrt_connect_plan)):
            plan = planner(PlanQuery(start, goal, checker, edge_resolution=pl.edge_resolution,
                                     step_size=pl.step_size, goal_bias=pl.goal_bias,
                                     max_iterations=GAP_MAX_ITERATIONS, seed=k))
            if plan is None:
                result = "None"
            else:
                digest = hashlib.sha256(b"".join(w.tobytes() for w in plan.waypoints))
                result = (f"iterations={plan.iterations} waypoints={len(plan.waypoints)} "
                          f"sha256={digest.hexdigest()}")
            lines.append(f"{k} {route} {name} {result}\n")
    return {"gap_plans.txt": "".join(lines).encode(),
            "gap_certified.txt": _gap_certified(cfg, start_goal, oracle_free, proxy_free)}


def _gap_certified(cfg, start_goal, oracle_free, proxy_free) -> bytes:
    # the certified route plan_seed runs, on every gap query planned with
    # the proxy: plan, verify at half the edge resolution, repair what fails
    pl = cfg.planner
    lines = []
    for k, (start, goal) in enumerate(start_goal):
        plan, _, _, repair_s = plan_and_certify(PLANNERS[pl.algorithm],
                                                cfg.plan_query(start, goal, proxy_free, seed=k),
                                                oracle_free, pl.edge_resolution / 2.0)
        if plan is None:
            result = "None"
        else:
            digest = hashlib.sha256(b"".join(w.tobytes() for w in plan.waypoints))
            result = (f"certified={plan.certified} waypoints={len(plan.waypoints)} "
                      f"sha256={digest.hexdigest()}")
        lines.append(f"{k} repaired={repair_s > 0.0} {result}\n")
    return "".join(lines).encode()


ARTIFACTS = {
    "static_2dof": _static_2dof,
    "static_4dof": _static_4dof,
    "static_4dof_cycles": _static_4dof_cycles,
    "dynamic_2dof": _dynamic_2dof,
    "static_2dof_seeds": _static_2dof_seeds,
    "dynamic_2dof_seeds": _dynamic_2dof_seeds,
    "gap_plans": _gap_plans,
}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_outputs_match_golden_bytes(name, tmp_path):
    for filename, data in ARTIFACTS[name](tmp_path).items():
        golden = (GOLDEN / filename).read_bytes()
        if data != golden:
            got, want = data.decode().splitlines(), golden.decode().splitlines()
            diff = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                        min(len(got), len(want)))
            pytest.fail(f"{filename} differs from its golden file at line {diff + 1}: "
                        f"got {got[diff:diff + 1]}, want {want[diff:diff + 1]}")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for build in ARTIFACTS.values():
            for filename, data in build(Path(tmp)).items():
                (GOLDEN / filename).write_bytes(data)
                print(f"wrote {GOLDEN / filename} ({len(data)} bytes)", file=sys.stderr)
