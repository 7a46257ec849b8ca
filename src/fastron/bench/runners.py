"""Benchmark runners: static accuracy, parameter sweeps, dynamic updates, planning."""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..geometry import label_points, make_label_fn
from ..model import FastronModel
from ..planning import PLANNERS, plan_and_certify
from ..sampling import update_cycle
from .config import ScenarioConfig
from .report import MetricsRecord
from .scenarios import build_chain, build_workspace, random_start_goal

__all__ = [
    "Scene",
    "static_seeds",
    "plan_seed",
    "run_static_eval",
    "run_sweep",
    "run_dynamic_eval",
    "run_planning_eval",
    "median_call_times",
]


class Scene:
    """Seed ``seed`` of ``cfg``: its robot ``chain``, obstacle ``workspace`` and oracle ``label``.

    Every consumer of randomness draws its own child stream, ``rng(name)``,
    so held-out sets are disjoint from training data by construction.
    """

    STREAMS = ("scenario", "train", "holdout", "timing", "start_goal", "plan")

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.cfg, self.seed = cfg, seed
        self.chain = build_chain(cfg)
        self.workspace = build_workspace(cfg, self.rng("scenario"), self.chain)
        self.label = make_label_fn(self.chain, self.workspace)

    def rng(self, stream: str) -> np.random.Generator:
        key = (self.STREAMS.index(stream),)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def free(self, p) -> bool:
        return self.label(p) == -1

    def new_model(self) -> FastronModel:
        return FastronModel(self.cfg.train_params(), dim=self.chain.dof)

    def train(self) -> tuple[FastronModel, float]:
        """Label a fresh uniform dataset, train and sparsify; returns the model and its seconds."""
        n0 = self.cfg.resolved_n0()
        X = self.rng("train").uniform(-1.0, 1.0, (n0, self.chain.dof))
        model = self.new_model()
        t0 = perf_counter()
        model.set_data(X, label_points(self.label, X))
        model.train()
        _check_lazy_fill(model)
        model.sparsify()
        return model, perf_counter() - t0

    def start_goal(self, model: FastronModel):
        """The seed's start/goal pair, free under the oracle and ``model``; None if none is found."""
        return random_start_goal(self.rng("start_goal"),
                                 (self.free, lambda p: model.predict(p) == -1),
                                 self.chain.dof, self.cfg.planner.min_start_goal_dist)


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


def _evaluate(rec: MetricsRecord, model: FastronModel, label_fn, scene: Scene, rng) -> None:
    """Score ``model`` against ``label_fn`` on the scene's holdout count of points from ``rng``."""
    Q = rng.uniform(-1.0, 1.0, (scene.cfg.eval.holdout, scene.chain.dof))
    truth = label_points(label_fn, Q).astype(np.int64)
    pred = model.predict_batch(Q)
    pos = truth == 1
    neg = ~pos
    rec.accuracy = float(np.mean(pred == truth))
    rec.tpr = float(np.mean(pred[pos] == 1)) if pos.any() else None
    rec.tnr = float(np.mean(pred[neg] == -1)) if neg.any() else None
    rec.support_count = model.support_count


def _check_lazy_fill(model: FastronModel) -> None:
    # training must never have evaluated more than one column's worth of
    # kernels per touched column, and strictly less than the full matrix
    gram = model.gram
    n, evals, touched = gram.n, gram.kernel_evals, gram.computed_count
    if evals > n * max(touched, 1) or (n >= 100 and evals >= n * n):
        raise RuntimeError(f"lazy Gram fill over-evaluated: kernel_evals {evals} "
                           f"for n = {n} and {touched} touched columns")


def static_seeds(scenes, model: FastronModel | None = None):
    """One ``(record, model)`` per scene of one seed (the scenes' configs differ
    at most in a sweep parameter); every trained proxy and oracle is timed in
    one ``median_call_times`` pass. With ``model`` given, that model is
    evaluated instead: no training, and no timing columns."""
    out, timed = [], []
    for scene in scenes:
        rec, seed_model = MetricsRecord(run="static", seed=scene.seed), model
        if model is None:
            seed_model, rec.update_time = scene.train()
            timed += (seed_model.predict, scene.label)
        _evaluate(rec, seed_model, scene.label, scene, scene.rng("holdout"))
        out.append((rec, seed_model))
    if timed:
        queries = list(scene.rng("timing").uniform(-1.0, 1.0, (4096, scene.chain.dof)))
        ev = scene.cfg.eval
        times = median_call_times(timed, queries, ev.timing_calls, ev.timing_batch)
        for (rec, _), proxy, oracle in zip(out, times[::2], times[1::2]):
            rec.query_time_proxy, rec.query_time_oracle = proxy, oracle
    return out


def run_static_eval(cfg: ScenarioConfig, seeds, model: FastronModel | None = None):
    """``static_seeds`` per seed: train, then report accuracy and query timing."""
    records = []
    for seed in seeds:  # each seed's model is freed before the next trains
        records += [rec for rec, _ in static_seeds([Scene(cfg, seed)], model)]
    return records


def run_sweep(cfg: ScenarioConfig, parameter: str, values, seeds):
    """``static_seeds`` per seed over the sweep values; long-format records plus means."""
    if not values:
        raise ValueError("sweep values must be non-empty")
    subs = [cfg.with_override(parameter, value) for value in values]
    by_seed = [[rec for rec, _ in static_seeds([Scene(sub, seed) for sub in subs])]
               for seed in seeds]
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
        scene = Scene(cfg, seed)
        model, workspace, holdout_rng = scene.new_model(), scene.workspace, scene.rng("holdout")
        sampler = cfg.sampler_params(seed)
        for step in range(cfg.obstacles.motion_steps):
            if step > 0:
                workspace = workspace.stepped()
            oracle = CountingLabeler(make_label_fn(scene.chain, workspace))
            t0 = perf_counter()
            update_cycle(model, oracle, sampler)
            rec = MetricsRecord(run="dynamic", seed=seed, step=step,
                                update_time=perf_counter() - t0, oracle_calls=oracle.calls)
            _evaluate(rec, model, oracle.fn, scene, holdout_rng)
            records.append(rec)
    return records


def plan_seed(scene: Scene):
    """Train the seed's model and plan its start/goal pair by both routes.

    Returns ``(records, model, pair, plans)``: one record per route, the
    model, the pair (None if none was found) and each route's plan by
    route name (none when there is no pair). Both routes are certified
    against the oracle at half the planning edge resolution, so a
    certified plan withstands an independent check at that resolution.
    """
    pl = scene.cfg.planner
    model, _ = scene.train()
    pair = scene.start_goal(model)
    records, plans = [], {}
    if pair is None:
        records = [MetricsRecord(run="plan", seed=scene.seed, route=route, plan_found=False,
                                 certified=False) for route in ("proxy", "oracle")]
        return records, model, pair, plans
    proxy_free = lambda p, m=model: m.predict(p) == -1
    for route, checker in (("proxy", proxy_free), ("oracle", scene.free)):
        query = scene.cfg.plan_query(*pair, checker, seed=scene.rng("plan").integers(0, 2**31))
        # both endpoints are free under both checkers: a ValueError is a fault
        plan, plan_time, verify_time, repair_time = plan_and_certify(
            PLANNERS[pl.algorithm], query, scene.free, pl.edge_resolution / 2.0
        )
        plans[route] = plan
        records.append(
            MetricsRecord(
                run="plan",
                seed=scene.seed,
                route=route,
                support_count=model.support_count if route == "proxy" else None,
                plan_time=plan_time,
                verify_time=verify_time if plan is not None else None,
                repair_time=repair_time if plan is not None else None,
                certified=plan.certified if plan is not None else False,
                plan_found=plan is not None,
            )
        )
    return records, model, pair, plans


def run_planning_eval(cfg: ScenarioConfig, seeds) -> list[MetricsRecord]:
    """``plan_seed`` per seed: proxy plans (verify + repair) and oracle plans.

    A seed's model is freed before the next seed trains.
    """
    records = []
    for seed in seeds:
        records += plan_seed(Scene(cfg, seed))[0]
    return records
