"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import json
from time import perf_counter

import numpy as np
import pytest

from fastron.bench.config import load_config
from fastron.bench.cli import main as cli_main
from fastron.bench.runners import Scene, plan_seed, run_dynamic_eval, run_static_eval, run_sweep
from fastron.bench.scenarios import gap_obstacles
from fastron.geometry import make_label_fn
from fastron.model import FastronModel, TrainParams
from fastron.planning import verify_plan

from reference import gram_via_cdist, model_loss, obb_sat_batch, random_rotation


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _static_2dof(**extra):
    data = {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 4, "randomize_count": True, "size_range": [0.12, 0.2]},
        "fastron": {"gamma": 30.0, "beta": 1.0, "n0": 2000},
        "eval": {"holdout": 10000, "timing_calls": 2000, "timing_batch": 1000},
    }
    for key, val in extra.items():
        data.setdefault(key, {}).update(val)
    return load_config(data)


# ----------------------------------------------------------------------
# criteria 1 + 2: convergence with the dense-solve bound, loss descent


@pytest.fixture(scope="module")
def convergence_runs():
    rng = np.random.default_rng(2026)
    runs = []
    t0 = perf_counter()
    for d in (2, 3, 4):
        for n in (50, 200, 500):
            for beta in (1.0, 100.0):
                for _ in range(6):
                    X = rng.uniform(-1, 1, (n, d))
                    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
                    K = gram_via_cdist(X, 30.0)
                    by = np.where(y > 0, beta, 1.0) * y
                    bound = float(by @ np.linalg.solve(K, by))
                    m = FastronModel(
                        TrainParams(gamma=30.0, beta=beta, iter_max=int(bound) + 1), dim=d
                    )
                    m.set_data(X, y)
                    rep = m.train(record_loss=True)
                    runs.append((rep, bound, (m.margins() > 0).all()))
    return runs, perf_counter() - t0


def test_criterion_01_convergence_within_bound(convergence_runs):
    runs, elapsed = convergence_runs
    ok = len(runs) >= 100
    worst = 0.0
    for rep, bound, positive in runs:
        ok = ok and positive and rep.final_misclassified == 0 and rep.corrections <= bound
        worst = max(worst, rep.corrections / bound)
    ok = ok and elapsed < 60.0
    _report(
        1,
        ok,
        f"{len(runs)} random datasets converged to positive margins, "
        f"corrections/bound worst case {worst:.3f}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_loss_descent_per_correction(convergence_runs):
    runs, _ = convergence_runs
    checked = 0
    ok = True
    for rep, _, _ in runs:
        for k, kind in enumerate(rep.step_kinds):
            if kind == "correction":
                ok = ok and rep.loss_trace[k + 1] <= rep.loss_trace[k] - 0.5 + 1e-9
                checked += 1
    _report(2, ok and checked > 0, f"{checked} correction steps each lowered the loss by >= 0.5")


# ----------------------------------------------------------------------
# criterion 3: interpolation weights give margins b_i and the loss bound


def test_criterion_03_optimality_anchor():
    rng = np.random.default_rng(7)
    ok = True
    for beta in (1.0, 100.0):
        for _ in range(5):
            n = int(rng.integers(5, 21))
            X = rng.uniform(-1, 1, (n, 2))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            K = gram_via_cdist(X, 30.0)
            b = np.where(y > 0, beta, 1.0)
            alpha = np.linalg.solve(K, b * y)
            m = FastronModel(TrainParams(gamma=30.0, beta=beta), dim=2)
            m.set_data(X, y)
            m.alpha = alpha
            m.F = K @ alpha
            ok = ok and np.allclose(m.margins(), b, atol=1e-9)
            expected_loss = -0.5 * float((b * y) @ np.linalg.solve(K, b * y))
            ok = ok and abs(model_loss(m) - expected_loss) < 1e-9
    _report(3, ok, "alpha = K^-1 B y yields margins b_i and loss -1/2 y'BK^-1By (1e-9)")


# ----------------------------------------------------------------------
# criterion 4: kernel envelope bound


def test_criterion_04_kernel_bound():
    u = np.linspace(0.0, 100.0, 10000)
    rq = (1.0 + u / 2.0) ** -2
    ga = np.exp(-u)
    ok = bool(np.all(rq >= ga)) and rq[0] == 1.0 and ga[0] == 1.0
    _report(4, ok, "(1+u/2)^-2 >= e^-u on a 10^4 grid over [0, 100]; both exactly 1 at u=0")


# ----------------------------------------------------------------------
# criterion 5: GJK agrees with the SAT oracle


def test_criterion_05_gjk_vs_sat():
    from fastron.geometry import Box, gjk_intersect

    rng = np.random.default_rng(12345)
    n = 100000
    ca = rng.uniform(-1, 1, (n, 3))
    cb = ca + rng.uniform(-1.2, 1.2, (n, 3))
    ha = rng.uniform(0.05, 0.5, (n, 3))
    hb = rng.uniform(0.05, 0.5, (n, 3))
    Ra = np.stack([random_rotation(rng) for _ in range(n)])
    Rb = np.stack([random_rotation(rng) for _ in range(n)])
    hit, margin = obb_sat_batch(ca, ha, Ra, cb, hb, Rb)
    disagreements = 0
    checked = 0
    for k in range(n):
        if abs(margin[k]) < 1e-6:
            continue
        checked += 1
        a = Box(ca[k], ha[k], tuple(map(tuple, Ra[k])))
        b = Box(cb[k], hb[k], tuple(map(tuple, Rb[k])))
        if gjk_intersect(a, b) != bool(hit[k]):
            disagreements += 1
    ok = checked >= 95000 and disagreements == 0
    _report(5, ok, f"{checked} box pairs outside the 1e-6 margin band, {disagreements} disagreements")


# ----------------------------------------------------------------------
# criteria 6 + 7: static accuracy and the conditional-bias direction
# (one paired 20-seed sweep serves both)


@pytest.fixture(scope="module")
def beta_sweep():
    cfg = _static_2dof()
    t0 = perf_counter()
    records, summary = run_sweep(cfg, "beta", [1.0, 100.0], list(range(20)))
    return records, {v: s for _, v, s in summary}, perf_counter() - t0


def test_criterion_06_static_accuracy(beta_sweep):
    records, means, elapsed = beta_sweep
    base = [r for r in records if r.value == 1.0]
    acc = float(np.mean([r.accuracy for r in base]))
    max_s = max(r.support_count for r in base)
    ok = acc >= 0.93 and max_s <= 400 and elapsed < 300.0
    _report(
        6,
        ok,
        f"2 DOF, <=4 cubes, N=2000, gamma=30: mean accuracy {acc:.4f} (>= 0.93), "
        f"max |S| {max_s} (<= 400), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_07_conditional_bias_direction(beta_sweep):
    _, means, _ = beta_sweep
    tpr_gap = means[100.0]["tpr"] - means[1.0]["tpr"]
    tnr_diff = means[100.0]["tnr"] - means[1.0]["tnr"]
    ok = tpr_gap >= 0.02 and tnr_diff <= 0.0
    _report(
        7,
        ok,
        f"beta 1 -> 100 over 20 paired seeds: mean TPR +{tpr_gap * 100:.2f}pp (>= 2pp), "
        f"mean TNR {tnr_diff * 100:+.2f}pp (must not increase)",
    )


# ----------------------------------------------------------------------
# criterion 8: query-speed ordering


def test_criterion_08_query_speed_ordering():
    cfg4 = _static_2dof(
        obstacles={"count": 4, "randomize_count": False},
        eval={"holdout": 1000, "timing_calls": 100000, "timing_batch": 1000},
    )
    ratios4 = [
        r.query_time_oracle / r.query_time_proxy for r in run_static_eval(cfg4, [0, 1, 2])
    ]
    cfg50 = _static_2dof(
        obstacles={"count": 50, "randomize_count": False},
        eval={"holdout": 1000, "timing_calls": 100000, "timing_batch": 1000},
    )
    ratios50 = [
        r.query_time_oracle / r.query_time_proxy for r in run_static_eval(cfg50, [0, 1])
    ]
    ok = min(ratios4) >= 5.0 and min(ratios50) >= 10.0
    _report(
        8,
        ok,
        f"median-oracle/median-proxy per seed: 4 obstacles {[f'{r:.1f}' for r in ratios4]} (>= 5), "
        f"50 obstacles {[f'{r:.1f}' for r in ratios50]} (>= 10)",
    )


# ----------------------------------------------------------------------
# criterion 9: update-cycle oracle-call accounting


def test_criterion_09_update_cycle_accounting():
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 1, "randomize_count": False, "size_range": [0.25, 0.35],
                       "motion_steps": 50, "motion_speed": 0.02},
        "fastron": {"gamma": 30.0, "n0": 2000, "a_max": 500, "kappa": 4},
        "eval": {"holdout": 1000, "timing_calls": 1000, "timing_batch": 500},
    })
    records = run_dynamic_eval(cfg, [0])
    ok = len(records) == 50 and records[0].oracle_calls == 2000
    mismatch = []
    for prev, cur in zip(records, records[1:]):
        if cur.oracle_calls != prev.support_count + 500:
            mismatch.append(cur.step)
            ok = False
    _report(
        9,
        ok,
        f"50 dynamic steps: oracle calls exactly |S| + A_max at every step"
        + (f" (mismatch at {mismatch})" if mismatch else ""),
    )


# ----------------------------------------------------------------------
# criterion 10: sparsify exactness


def test_criterion_10_sparsify_exactness():
    scene = Scene(_static_2dof(), 0)
    rng = scene.rng("train")
    X = rng.uniform(-1, 1, (2000, 2))
    y = np.fromiter((scene.label(x) for x in X), dtype=np.float64, count=2000)
    m = FastronModel(TrainParams(gamma=30.0), dim=2)
    m.set_data(X, y)
    m.train()
    queries = rng.uniform(-1, 1, (1000, 2))
    before = [m.predict(q) for q in queries]
    m.sparsify()
    after = [m.predict(q) for q in queries]
    ok = before == after
    _report(10, ok, "predict on 1000 queries identical before/after sparsify (exact)")


# ----------------------------------------------------------------------
# criterion 11: planning certification and pipeline-time ordering


def test_criterion_11_planning_certification():
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"explicit": gap_obstacles()},
        "fastron": {"gamma": 30.0, "beta": 100.0, "n0": 2000},
        "planner": {"algorithm": "rrt_connect", "edge_resolution": 0.05},
        "eval": {"holdout": 500, "timing_calls": 1000, "timing_batch": 500},
    })
    cert_res = cfg.planner.edge_resolution / 2.0

    records = []
    certified_total = 0
    independent_failures = 0
    for seed in range(50):
        scene = Scene(cfg, seed)
        seed_records, _, _, plans = plan_seed(scene)
        records += seed_records
        label = make_label_fn(scene.chain, scene.workspace)
        oracle_free = lambda p, fn=label: fn(p) == -1
        for plan in plans.values():
            if plan is not None and plan.certified:
                certified_total += 1
                if verify_plan(plan, oracle_free, cert_res):
                    independent_failures += 1

    proxy_t, oracle_t = {}, {}
    for r in records:
        if r.plan_found and r.certified:
            total = (r.plan_time or 0.0) + (r.verify_time or 0.0) + (r.repair_time or 0.0)
            (proxy_t if r.route == "proxy" else oracle_t)[r.seed] = total
    paired = sorted(set(proxy_t) & set(oracle_t))
    med_proxy = float(np.median([proxy_t[s] for s in paired]))
    med_oracle = float(np.median([oracle_t[s] for s in paired]))

    ok = (
        certified_total >= 90
        and independent_failures == 0
        and len(paired) >= 45
        and med_proxy <= med_oracle
    )
    _report(
        11,
        ok,
        f"{certified_total} certified plans, {independent_failures} failed independent "
        f"verification at res/2; median proxy pipeline {med_proxy * 1e3:.0f}ms <= "
        f"oracle {med_oracle * 1e3:.0f}ms over {len(paired)} paired seeds",
    )


# ----------------------------------------------------------------------
# criterion 12: reproducibility modulo timing columns


def _strip_timing(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, c in enumerate(rows[0]) if not c.endswith("_ns")]
    return [[row[i] for i in keep] for row in rows]


def test_criterion_12_reproducibility(tmp_path):
    small_eval = {"holdout": 500, "timing_calls": 1000, "timing_batch": 500}
    configs = {
        "static": {
            "robot": {"type": "dof2"}, "obstacles": {"count": 2},
            "fastron": {"n0": 400}, "eval": small_eval,
        },
        "dynamic": {
            "robot": {"type": "dof2"},
            "obstacles": {"count": 1, "randomize_count": False, "motion_steps": 3,
                           "motion_speed": 0.03},
            "fastron": {"n0": 400, "a_max": 100}, "eval": small_eval,
        },
        "sweep": {
            "robot": {"type": "dof2"}, "obstacles": {"count": 2},
            "fastron": {"n0": 300}, "eval": small_eval,
        },
        "plan": {
            "robot": {"type": "dof2"}, "obstacles": {"explicit": gap_obstacles()},
            "fastron": {"n0": 600, "beta": 100.0}, "eval": small_eval,
        },
    }
    ok = True
    detail = []
    for command, data in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(data))
        outs = []
        for run_idx in (1, 2):
            out = tmp_path / f"{command}{run_idx}.csv"
            argv = [command, "--config", str(cfg_path), "--out", str(out), "--seeds", "2"]
            if command == "sweep":
                argv += ["--parameter", "beta", "--values", "1,100"]
            code = cli_main(argv)
            ok = ok and code == 0
            outs.append(out)
        same = _strip_timing(outs[0]) == _strip_timing(outs[1])
        ok = ok and same
        detail.append(f"{command}:{'=' if same else '!='}")
    _report(12, ok, "identical CSVs modulo timing columns for " + ", ".join(detail))
