"""Benchmark runners: static accuracy, parameter sweeps, dynamic updates, planning."""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..geometry import make_label_fn
from ..model import FastronModel
from ..planning import PLANNERS, plan_and_certify
from ..sampling import update_cycle
from .config import ScenarioConfig
from .report import MetricsRecord
from .scenarios import build_chain, build_workspace, random_start_goal

__all__ = [
    "run_static_eval",
    "run_sweep",
    "run_dynamic_eval",
    "run_planning_eval",
    "median_call_times",
]

# RNG stream tags: every consumer of randomness gets its own child stream,
# so held-out sets are disjoint from training data by construction
_S_SCENARIO, _S_TRAIN, _S_HOLDOUT, _S_TIMING, _S_STARTGOAL, _S_PLAN = range(6)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


class CountingLabeler:
    """Wraps a label function and counts calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return self.fn(p)


def median_call_times(fns, queries, calls: int, batch: int) -> list[float]:
    """Median per-call seconds of each function, over batches of at least ``batch`` calls.

    Batching amortizes clock resolution and allocator noise; queries are
    drawn before the clock starts. The functions' batches take turns in
    rounds, and each batch is timed relative to its round's geometric mean,
    so host speed divides out even when it steps mid-run; the median round
    mean scales the results back to seconds.
    """
    times = [[] for _ in fns]
    qn = len(queries)
    done = 0
    while done < calls:
        m = min(batch, calls - done)
        for fn, fn_times in zip(fns, times):
            qi = done % qn
            t0 = perf_counter()
            for _ in range(m):
                fn(queries[qi])
                qi += 1
                if qi == qn:
                    qi = 0
            fn_times.append((perf_counter() - t0) / m)
        done += m
    speed = np.exp(np.log(times).mean(axis=0))
    return (np.median(times / speed, axis=1) * np.median(speed)).tolist()


def _evaluate(model: FastronModel, label_fn, Q: np.ndarray):
    truth = np.fromiter((label_fn(q) for q in Q), dtype=np.int64, count=len(Q))
    pred = model.predict_batch(Q)
    acc = float(np.mean(pred == truth))
    pos = truth == 1
    neg = ~pos
    tpr = float(np.mean(pred[pos] == 1)) if pos.any() else None
    tnr = float(np.mean(pred[neg] == -1)) if neg.any() else None
    return acc, tpr, tnr


def _check_lazy_fill(model: FastronModel) -> None:
    # training must never have evaluated more than one column's worth of
    # kernels per touched column, and strictly less than the full matrix
    gram = model.gram
    n, evals, touched = gram.n, gram.kernel_evals, gram.computed_count
    if evals > n * max(touched, 1) or (n >= 100 and evals >= n * n):
        raise RuntimeError(f"lazy Gram fill over-evaluated: kernel_evals {evals} "
                           f"for n = {n} and {touched} touched columns")


def _train_static_model(cfg: ScenarioConfig, seed: int, chain, label_fn):
    """Label a fresh uniform dataset, train and sparsify; returns model + time."""
    n0 = cfg.resolved_n0()
    rng = _rng(seed, _S_TRAIN)
    X = rng.uniform(-1.0, 1.0, (n0, chain.dof))
    params = cfg.train_params()
    model = FastronModel(params, dim=chain.dof, capacity=params.s_max + cfg.fastron.a_max)
    t0 = perf_counter()
    y = np.fromiter((label_fn(x) for x in X), dtype=np.float64, count=n0)
    model.set_data(X, y)
    report = model.train()
    _check_lazy_fill(model)
    model.sparsify()
    update_time = perf_counter() - t0
    return model, report, update_time


def _static_seed(cfgs, seed: int, model: FastronModel | None, details: list | None):
    """One seed's record per config (configs differ at most in a sweep parameter);
    every trained proxy and oracle is timed in one ``median_call_times`` pass."""
    records, timed = [], []
    for cfg in cfgs:
        chain = build_chain(cfg)
        workspace = build_workspace(cfg, _rng(seed, _S_SCENARIO), chain)
        label_fn = make_label_fn(chain, workspace)
        rec = MetricsRecord(run="static", seed=seed)
        seed_model = model
        if model is None:
            seed_model, _, rec.update_time = _train_static_model(cfg, seed, chain, label_fn)
            timed += (seed_model.predict, label_fn)
        holdout = _rng(seed, _S_HOLDOUT).uniform(-1.0, 1.0, (cfg.eval.holdout, chain.dof))
        rec.accuracy, rec.tpr, rec.tnr = _evaluate(seed_model, label_fn, holdout)
        rec.support_count = seed_model.support_count
        records.append(rec)
        if details is not None:
            details.append({"chain": chain, "workspace": workspace, "model": seed_model})
    if timed:
        queries = list(_rng(seed, _S_TIMING).uniform(-1.0, 1.0, (4096, chain.dof)))
        ev = cfgs[0].eval
        times = median_call_times(timed, queries, ev.timing_calls, ev.timing_batch)
        for rec, proxy, oracle in zip(records, times[::2], times[1::2]):
            rec.query_time_proxy, rec.query_time_oracle = proxy, oracle
    return records


def run_static_eval(cfg: ScenarioConfig, seeds, return_details: bool = False,
                    model: FastronModel | None = None):
    """Train on a static scenario per seed; report accuracy and query timing.

    With ``model`` given, that model is evaluated against each seed's
    scenario instead: no training, and no timing columns. With
    ``return_details``, also returns one dict per seed holding its
    ``chain``, ``workspace`` and ``model``.
    """
    details = [] if return_details else None
    records = [rec for seed in seeds for rec in _static_seed([cfg], seed, model, details)]
    if return_details:
        return records, details
    return records


def run_sweep(cfg: ScenarioConfig, parameter: str, values, seeds):
    """Static evaluation per sweep value (``_static_seed``); long-format records plus means."""
    if not values:
        raise ValueError("sweep values must be non-empty")
    subs = [cfg.with_override(parameter, value) for value in values]
    by_seed = [_static_seed(subs, seed, None, None) for seed in seeds]
    records, summary = [], []
    for k, value in enumerate(values):
        recs = [seed_recs[k] for seed_recs in by_seed]
        for rec in recs:
            rec.run, rec.param, rec.value = "sweep", parameter, float(value)
        records.extend(recs)
        stats = {}
        for name in ("accuracy", "tpr", "tnr", "support_count",
                     "query_time_proxy", "query_time_oracle"):
            vals = [getattr(r, name) for r in recs if getattr(r, name) is not None]
            stats[name] = float(np.mean(vals)) if vals else None
        summary.append((parameter, float(value), stats))
    return records, summary


def run_dynamic_eval(cfg: ScenarioConfig, seeds) -> list[MetricsRecord]:
    """Moving obstacles: one update cycle per step, evaluated post-move."""
    if cfg.obstacles.motion_steps < 1:
        raise ValueError("dynamic evaluation requires obstacles.motion_steps >= 1")
    records = []
    for seed in seeds:
        chain = build_chain(cfg)
        workspace = build_workspace(cfg, _rng(seed, _S_SCENARIO), chain)
        params = cfg.train_params()
        model = FastronModel(params, dim=chain.dof,
                             capacity=params.s_max + cfg.fastron.a_max)
        sampler = cfg.sampler_params(seed)
        holdout_rng = _rng(seed, _S_HOLDOUT)
        for step in range(cfg.obstacles.motion_steps):
            if step > 0:
                workspace = workspace.stepped()
            oracle = CountingLabeler(make_label_fn(chain, workspace))
            t0 = perf_counter()
            update_cycle(model, oracle, sampler)
            update_time = perf_counter() - t0
            holdout = holdout_rng.uniform(-1.0, 1.0, (cfg.eval.holdout, chain.dof))
            acc, tpr, tnr = _evaluate(model, oracle.fn, holdout)
            records.append(
                MetricsRecord(
                    run="dynamic",
                    seed=seed,
                    step=step,
                    accuracy=acc,
                    tpr=tpr,
                    tnr=tnr,
                    support_count=model.support_count,
                    update_time=update_time,
                    oracle_calls=oracle.calls,
                )
            )
    return records


def _plan_seed(cfg: ScenarioConfig, seed: int, records: list, details: list | None) -> None:
    """Train one seed's model and plan by both routes; appends its records and detail."""
    pl = cfg.planner
    chain = build_chain(cfg)
    workspace = build_workspace(cfg, _rng(seed, _S_SCENARIO), chain)
    label_fn = make_label_fn(chain, workspace)
    model, _, _ = _train_static_model(cfg, seed, chain, label_fn)
    oracle_free = lambda p, fn=label_fn: fn(p) == -1
    proxy_free = lambda p, m=model: m.predict(p) == -1
    pair = random_start_goal(_rng(seed, _S_STARTGOAL), (oracle_free, proxy_free), chain.dof,
                             pl.min_start_goal_dist)
    plans = {}
    if details is not None:
        details.append({"chain": chain, "workspace": workspace, "model": model,
                        "plans": plans, "start_goal": pair})
    if pair is None:
        for route in ("proxy", "oracle"):
            records.append(MetricsRecord(run="plan", seed=seed, route=route,
                                         plan_found=False, certified=False))
        return
    start, goal = pair
    for route, checker in (("proxy", proxy_free), ("oracle", oracle_free)):
        query = cfg.plan_query(start, goal, checker, seed=_rng(seed, _S_PLAN).integers(0, 2**31))
        # both endpoints are free under both checkers: a ValueError is a fault
        plan, plan_time, verify_time, repair_time = plan_and_certify(
            PLANNERS[pl.algorithm], query, oracle_free, pl.edge_resolution / 2.0
        )
        plans[route] = plan
        records.append(
            MetricsRecord(
                run="plan",
                seed=seed,
                route=route,
                support_count=model.support_count if route == "proxy" else None,
                plan_time=plan_time,
                verify_time=verify_time if plan is not None else None,
                repair_time=repair_time if plan is not None else None,
                certified=plan.certified if plan is not None else False,
                plan_found=plan is not None,
            )
        )


def run_planning_eval(cfg: ScenarioConfig, seeds, return_details: bool = False):
    """Plan with the proxy (verify + repair) and with the oracle directly.

    Both routes are certified against the oracle at half the planning edge
    resolution, so a certified plan withstands an independent check at
    that resolution exactly. A seed's model, with its n0 x n0 Gram
    buffer, is freed before the next seed trains unless
    ``return_details`` keeps it in that seed's detail dict.
    """
    records = []
    details = [] if return_details else None
    for seed in seeds:
        _plan_seed(cfg, seed, records, details)
    if return_details:
        return records, details
    return records
