"""The three workloads: what each prepares, runs, checks and reports.

Every workload follows the same outline. Set-up (scenario, input draws,
oracle labels of the evaluation points) is timed; the model is built, then
served, planned with and updated, and its outputs are checked against the
references in ``reference.py``. Each workload runs every phase, so that
each reports every metric, but one phase does most of its work: the
train-to-model builds on static-dof4, the moving-obstacle update cycles on
dynamic-dof2 and the planning queries on plan-gap-dof2. The others run a
smaller share in the same scene: warm update cycles in a workspace that
does not move (static-dof4, plan-gap-dof2), and planning queries whose
start and goal see each other along a free straight segment (static-dof4,
dynamic-dof2). The amount of work is a function of the workload,
``--seed`` and ``--seconds`` only -- no loop runs until a clock expires --
so every count repeats exactly from run to run and only timings vary.

Timings are medians over identical units of work (builds, check batches)
or means of the middle half over units that differ (update cycles,
planning queries), and the units of all timed phases are interleaved
evenly over the run. On a machine whose speed drifts by tens of percent
within seconds, a phase timed in one contiguous block reports the speed of
that block; spread over the run, it reports the speed of the run, which
the calibration probes below then factor out. The model that is served
while the others run comes from one more build (one more trajectory on
dynamic-dof2), made cold and before the interleaving; its time is left out
of every metric.

The obstacle layout of each workload is fixed (scenario seed 0, as in
``fastron-bench`` seed 0), and so is the dynamic sampler stream: across
sampler seeds 0-9 the median update-cycle time spreads by a fifth of its
median, which would swamp any bound. The training sets of static-dof4 and
plan-gap-dof2 are fixed for the same reason: the support count, and with
it every check and cycle time, moved by 8 % across training draws. So are
the start/goal pairs and planner seeds: RRT-Connect's time per query is
heavy-tailed, and across five pair draws of plan-gap-dof2 the median
proxy query time spread 0.13 of its median and the oracle route's tail
0.26. ``--seed`` draws the holdout and timing queries.
"""

from __future__ import annotations

import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import fastron.planning as planning_module
import fastron.sampling as sampling_module
from fastron.bench.config import load_config
from fastron.bench.scenarios import build_chain, build_workspace, gap_obstacles, random_start_goal
from fastron.geometry import from_input_space, gjk_intersect, make_label_fn
from fastron.model import FastronModel, TrainParams
from fastron.planning import PlanQuery, repair_plan, rrt_connect_plan, verify_plan
from fastron.sampling import SamplerParams, update_cycle

from .reference import CollisionReference, fsum_hypothesis, recheck_plan
from .tracing import Counted, Tracer, instrument_model, patched

# --seconds value at which COUNTS apply; other values scale them linearly
NOMINAL_SECONDS = 30
SETUP_REPEATS = 5
SCENARIO_SEED = 0
SAMPLER_SEED = 0
TIMING_QUERIES = 2048
CALL_BATCH = 1000  # calls per timed batch of single checks or oracle labels
BATCH_BLOCK = 1000  # queries per timed predict_batch call
FSUM_QUERIES = 96
SPARSIFY_QUERIES = 64
REFINE_CYCLES = 40  # warm update cycles per chain in a static workspace
CYCLE_QUERIES = 256  # holdout queries of the sign check after each update cycle
# least reference clearance along the straight segment of a clear start/goal
# pair, and candidate pairs drawn per round when looking for them
CLEAR_MARGIN = 0.01
CLEAR_DRAW = 1024

# On a host whose cores other tenants share, speed drifts by 20-40 % over
# tens of seconds (measured on a 2-core host). A fixed calibration loop,
# interleaved with the measured work, measures that drift: every time a run
# reports is scaled by REFERENCE_PROBE_S / (median probe time of the run),
# i.e. quoted at the speed at which the probe takes REFERENCE_PROBE_S --
# about its time on a quiet 2-core host of that kind. The unscaled times go
# to standard error.
PROBES = 300
REFERENCE_PROBE_S = 3.0e-3
TIME_UNITS = ("s", "ms", "us", "us/query")
# predict_batch is one large array expression, whose speed follows the
# memory system rather than the interpreter: over a minute of 5-s windows
# its speed correlated 0.96 with an array probe of the same kind and 0.47
# with the interpreted probe. It is scaled by the array probe instead.
ARRAY_PROBES = 100
REFERENCE_ARRAY_PROBE_S = 1.0e-2
ARRAY_METRICS = ("batch_check_us",)


def calibration_probe() -> None:
    """Fixed work mixing interpreted arithmetic and small numpy calls, as fastron does."""
    s = 0
    for i in range(30000):
        s += i * i
    a = np.arange(200.0)
    for _ in range(300):
        a = a * 1.0000001 + 0.5


def array_probe(points: np.ndarray, centres: np.ndarray) -> None:
    """The squared-distance expression of a predict_batch block, on fixed arrays."""
    ((points - centres) ** 2).sum(axis=2)

# every consumer of --seed randomness gets its own stream; stream 0 is the
# scenario stream of fastron-bench
_S_SCENARIO, _S_TRAIN, _S_HOLDOUT, _S_TIMING, _S_PAIRS, _S_PLAN = range(6)

STATIC_DOF4 = {  # configs/static_4dof.json
    "robot": {"type": "dof4"},
    "obstacles": {"count": 4, "randomize_count": True, "size_range": [0.2, 0.35]},
    "fastron": {"gamma": 10.0, "beta": 100.0, "n0": 4000},
    "eval": {"holdout": 10000},
}
DYNAMIC_DOF2 = {  # cube sizes of configs/static_2dof.json, motion and learner of dynamic_2dof
    "robot": {"type": "dof2"},
    "obstacles": {"count": 4, "randomize_count": False, "size_range": [0.12, 0.2],
                  "motion_steps": 50, "motion_speed": 0.02},
    "fastron": {"gamma": 30.0, "beta": 1.0, "n0": 2000, "a_max": 500, "kappa": 4},
    "eval": {"holdout": 300},  # per cycle
}
PLAN_GAP_DOF2 = {  # configs/plan_gap_2dof.json
    "robot": {"type": "dof2"},
    "obstacles": {"explicit": gap_obstacles()},
    "fastron": {"gamma": 30.0, "beta": 100.0, "n0": 2000},
    "planner": {"algorithm": "rrt_connect", "step_size": 0.2, "goal_bias": 0.05,
                "edge_resolution": 0.05, "max_iterations": 50000, "min_start_goal_dist": 0.8},
    # 2000 in the shipped config; 5000 keeps the accuracy's spread over
    # holdout draws within a third of its bound
    "eval": {"holdout": 5000},
}

# units of timed work per run at NOMINAL_SECONDS: train-to-model builds,
# dynamic trajectories, chains of REFINE_CYCLES warm update cycles,
# planning pairs, and batches of single checks, predict_batch blocks and
# oracle labels
COUNTS = {
    "static-dof4": {"builds": 9, "chains": 1, "pairs": 75,
                    "checks": 90, "blocks": 60, "oracles": 30},
    "dynamic-dof2": {"trajectories": 2, "pairs": 75, "checks": 60, "blocks": 90, "oracles": 60},
    "plan-gap-dof2": {"builds": 25, "chains": 1, "pairs": 216,
                      "checks": 60, "blocks": 60, "oracles": 30},
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _scaled(n: int, seconds: int, least: int = 1) -> int:
    return max(least, round(n * seconds / NOMINAL_SECONDS))


def spread(tasks) -> None:
    """Run ``(count, unit)`` tasks, calling ``unit(k)`` for k < count, evenly interleaved.

    Unit k of a task runs at fraction (k + 1/2) / count of the schedule, so
    every task's samples cover the whole run. Units of one task run in order.
    """
    order = sorted(((k + 0.5) / n, i, k) for i, (n, _) in enumerate(tasks) for k in range(n))
    for _, i, k in order:
        tasks[i][1](k)


def tail_percentile(n: int) -> int | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 80, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


class Ledger:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: list[str] = []

    def op(self, problems=(), failures=()) -> None:
        """One operation; ``problems`` are failed correctness checks,
        ``failures`` are outcomes that fail it without a wrong answer."""
        self.attempted += 1
        if problems or failures:
            self.failed += 1
        if problems:
            self.incorrect += 1
        self.problems.extend(list(problems) + list(failures))

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """``attempted`` checks of one kind, ``failed`` of them wrong."""
        for k in range(attempted):
            self.op([what] if k < failed else ())


# ----------------------------------------------------------------------
# set-up


@dataclass
class Scene:
    cfg: object
    chain: object
    workspace: object
    label: object
    reference: CollisionReference
    train_X: np.ndarray | None
    holdout: np.ndarray
    holdout_y: np.ndarray
    timing: list
    extra: dict = field(default_factory=dict)


def _layout(spec: dict):
    cfg = load_config(spec)
    chain = build_chain(cfg)
    return cfg, chain, build_workspace(cfg, _rng(SCENARIO_SEED, _S_SCENARIO), chain)


def _labeled(label, P: np.ndarray) -> np.ndarray:
    return np.fromiter((label(q) for q in P), dtype=np.int64, count=len(P))


def _timing(seed: int, d: int) -> list:
    return list(_rng(seed, _S_TIMING).uniform(-1.0, 1.0, (TIMING_QUERIES, d)))


def _static_scene(spec: dict, seed: int) -> Scene:
    cfg, chain, workspace = _layout(spec)
    label = make_label_fn(chain, workspace)
    d = chain.dof
    train_X = _rng(SCENARIO_SEED, _S_TRAIN).uniform(-1.0, 1.0, (cfg.resolved_n0(), d))
    holdout = _rng(seed, _S_HOLDOUT).uniform(-1.0, 1.0, (cfg.eval.holdout, d))
    return Scene(cfg, chain, workspace, label, CollisionReference(chain, workspace),
                 train_X, holdout, _labeled(label, holdout), _timing(seed, d))


def prepare_static(seed: int) -> Scene:
    return _static_scene(STATIC_DOF4, seed)


def prepare_plan(seed: int) -> Scene:
    return _static_scene(PLAN_GAP_DOF2, seed)


def prepare_dynamic(seed: int) -> Scene:
    """Every step's workspace and labeler, plus one labeled holdout per step.

    The model is served, after the last cycle, in the last workspace.
    """
    cfg, chain, workspace = _layout(DYNAMIC_DOF2)
    workspaces = [workspace]
    for _ in range(cfg.obstacles.motion_steps - 1):
        workspaces.append(workspaces[-1].stepped())
    labels = [make_label_fn(chain, ws) for ws in workspaces]
    rng = _rng(seed, _S_HOLDOUT)
    holdouts = [rng.uniform(-1.0, 1.0, (cfg.eval.holdout, chain.dof)) for _ in workspaces]
    holdout_ys = [_labeled(fn, H) for fn, H in zip(labels, holdouts)]
    scene = Scene(cfg, chain, workspaces[-1], labels[-1],
                  CollisionReference(chain, workspaces[-1]), None, holdouts[-1],
                  holdout_ys[-1], _timing(seed, chain.dof))
    scene.extra = {"workspaces": workspaces, "labels": labels, "holdouts": holdouts,
                   "holdout_ys": holdout_ys}
    return scene


# ----------------------------------------------------------------------
# checks against the references


def _label_mismatches(reference: CollisionReference, P: np.ndarray, labels) -> tuple[int, int]:
    """(decided points, points where the oracle disagrees with the reference)."""
    ref = reference.labels(P)
    decided = ref != 0
    return int(decided.sum()), int(np.count_nonzero(decided & (ref != np.asarray(labels))))


def _sign_mismatches(model, Q: np.ndarray) -> tuple[int, int]:
    """(queries with |f| above tolerance, those where predict and predict_batch differ)."""
    tol = 1e-9 * float(np.abs(model.alpha).sum())
    f = np.array([model.hypothesis(q) for q in Q])
    single = np.array([model.predict(q) for q in Q])
    decided = np.abs(f) > tol
    return int(decided.sum()), int(np.count_nonzero(decided & (single != model.predict_batch(Q))))


def _fsum_mismatches(model, Q) -> int:
    support = model.alpha != 0.0
    Xs, a = model.X[support], model.alpha[support]
    bad = 0
    for q in Q:
        exact, scale = fsum_hypothesis(Xs, a, model.params.gamma, q)
        if abs(model.hypothesis(q) - exact) > 1e-9 * scale:
            bad += 1
    return bad


def _serve_problems(model, scene: Scene) -> list[str]:
    """Checks of the served model and oracle, one message per kind that fails."""
    problems = []
    T = np.array(scene.timing)
    _, bad = _label_mismatches(scene.reference, T, [scene.label(q) for q in T])
    if bad:
        problems.append(f"oracle disagrees with the distance reference on {bad} timing queries")
    _, bad = _sign_mismatches(model, scene.holdout)
    if bad:
        problems.append(f"predict and predict_batch differ in sign on {bad} holdout queries")
    bad = _fsum_mismatches(model, T[:FSUM_QUERIES])
    if bad:
        problems.append(f"hypothesis differs from the fsum expansion on {bad} queries")
    return problems


# ----------------------------------------------------------------------
# timed units shared by the workloads


def _train_params(cfg) -> TrainParams:
    fa = cfg.fastron
    return TrainParams(gamma=cfg.resolved_gamma(), beta=fa.beta, iter_max=fa.iter_max,
                       s_max=fa.s_max)


def _new_model(scene: Scene) -> FastronModel:
    fa = scene.cfg.fastron
    return FastronModel(_train_params(scene.cfg), dim=scene.chain.dof,
                        capacity=fa.s_max + fa.a_max)


def _sampler(cfg) -> SamplerParams:
    fa = cfg.fastron
    return SamplerParams(a_max=fa.a_max, kappa=fa.kappa, sigma=fa.sigma, seed=SAMPLER_SEED,
                         n_initial=cfg.resolved_n0())


def midmean(values) -> float:
    """Mean of the middle half of ``values`` (interquartile mean)."""
    v = np.sort(np.asarray(values, dtype=float))
    lo = len(v) // 4
    return float(v[lo:len(v) - lo].mean())


def _cycle_metrics(seconds: list[list[float]]) -> dict:
    """Typical and tail update-cycle time, from ``seconds[chain][step]``.

    Every chain runs the same cycles, so each step's time is first taken
    as its median over the chains. A cycle's cost grows with the support
    set along a chain, so the sorted step times rise steadily and their
    median moves with every rank swap near the middle; the mean of the
    middle half does not (spread 0.14 against 0.05 on identical work).
    """
    per_step = np.median(np.array(seconds), axis=0)
    p = tail_percentile(len(per_step))
    return {"update_ms": (1e3 * midmean(per_step), "ms"),
            "update_ms_tail": (1e3 * float(np.percentile(per_step, p)), "ms")}


class Builds:
    """Repeated train-to-model runs (label, set_data, train, sparsify) on one dataset.

    The first build yields the served model; ``timed()`` leaves its cold
    time out.
    """

    def __init__(self, scene: Scene, tracer: Tracer, traced: bool):
        self.scene, self.tracer, self.traced = scene, tracer, traced
        self.seconds: list[float] = []
        self.reports = []
        self.inexact = 0  # builds whose sparsify changed hypothesis values
        self.model = None

    def __call__(self, _k=None) -> None:
        scene, tracer = self.scene, self.tracer
        model = _new_model(scene)
        label = tracer.timed("geometry.label", scene.label) if self.traced else scene.label
        if self.traced:
            instrument_model(model, tracer)
        X = scene.train_X
        with tracer.span("build"):
            t0 = perf_counter()
            y = np.fromiter((label(x) for x in X), dtype=np.float64, count=len(X))
            model.set_data(X, y)
            report = model.train()
            seconds = perf_counter() - t0
        probes = scene.timing[:SPARSIFY_QUERIES]
        before = np.array([model.hypothesis(q) for q in probes])
        with tracer.span("build"):
            t0 = perf_counter()
            model.sparsify()
            seconds += perf_counter() - t0
        after = np.array([model.hypothesis(q) for q in probes])
        self.inexact += before.tobytes() != after.tobytes()
        self.seconds.append(seconds)
        self.reports.append(report)
        if self.model is None:
            self.model = model  # every build is identical; the first one is served

    def timed(self) -> list[float]:
        return self.seconds[1:]


class Serving:
    """Timed batches of single checks, predict_batch blocks and oracle labels."""

    def __init__(self, scene: Scene, counts: dict, seconds: int, tracer: Tracer):
        self.scene, self.tracer = scene, tracer
        self.block = np.array(scene.timing[:BATCH_BLOCK])
        self.n = {kind: _scaled(counts[kind], seconds, least=3)
                  for kind in ("checks", "blocks", "oracles")}
        self.samples = {kind: [] for kind in self.n}
        self.model = None
        self._next = 0

    def serve(self, model) -> None:
        self.model = model
        model.predict(self.scene.timing[0])  # fills the cached support arrays
        model.predict_batch(self.block[:1])

    def _calls(self, fn) -> float:
        T = self.scene.timing
        start = self._next
        self._next = (start + CALL_BATCH) % len(T)
        queries = [T[(start + i) % len(T)] for i in range(CALL_BATCH)]
        with self.tracer.span("serve"):
            t0 = perf_counter()
            for q in queries:
                fn(q)
            return (perf_counter() - t0) / CALL_BATCH

    def _block(self) -> float:
        with self.tracer.span("serve"):
            t0 = perf_counter()
            self.model.predict_batch(self.block)
            return (perf_counter() - t0) / len(self.block)

    def tasks(self) -> list:
        s = self.samples
        return [
            (self.n["checks"], lambda k: s["checks"].append(self._calls(self.model.predict))),
            (self.n["blocks"], lambda k: s["blocks"].append(self._block())),
            (self.n["oracles"], lambda k: s["oracles"].append(self._calls(self.scene.label))),
        ]

    def metrics(self) -> dict:
        # medians over batches: a batch slowed by another tenant moves no figure
        med = {kind: statistics.median(v) for kind, v in self.samples.items()}
        return {
            "check_us": (med["checks"] * 1e6, "us"),
            "batch_check_us": (med["blocks"] * 1e6, "us/query"),
            "oracle_check_us": (med["oracles"] * 1e6, "us"),
        }


def _quality(model, H: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """Holdout accuracy, true-positive and true-negative rates."""
    pred = model.predict_batch(H)
    pos = truth == 1
    return (float(np.mean(pred == truth)),
            float(np.mean(pred[pos] == 1)) if pos.any() else float("nan"),
            float(np.mean(pred[~pos] == -1)) if (~pos).any() else float("nan"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# per-layer figures of a traced run


def _per_call_median(fn, args, batches: int) -> float:
    times = []
    for b in range(batches):
        chunk = [args[(b * CALL_BATCH + i) % len(args)] for i in range(CALL_BATCH)]
        t0 = perf_counter()
        for a in chunk:
            fn(a)
        times.append((perf_counter() - t0) / CALL_BATCH)
    return statistics.median(times)


def _layer_geometry(scene: Scene) -> dict:
    """Forward kinematics per call and GJK per link-obstacle pair, on the timing queries."""
    chain = scene.chain
    joints = [[float(v) for v in from_input_space(p, chain)] for p in scene.timing[:512]]
    fk = _per_call_median(chain.forward_kinematics, joints, 20)
    pairs = [(link, obs) for q in joints[:256] for link in chain.forward_kinematics(q)
             for obs in scene.workspace.obstacles]
    gjk = _per_call_median(lambda pair: gjk_intersect(*pair), pairs, 20)
    return {"geometry.fk_us": (fk * 1e6, "us"), "geometry.gjk_pair_us": (gjk * 1e6, "us")}


def _layer_learner(tracer: Tracer, units: int, reports, model) -> dict:
    """Learner and kernel layers, per build or per dynamic trajectory.

    ``reports`` are the train reports of one build or one trajectory.
    """

    def per_call_ms(name):
        d = tracer.durations(name)
        return 1e3 * sum(d) / len(d)

    return {
        "geometry.label_s": (tracer.seconds["geometry.label"] / units, "s"),
        "geometry.label_calls": (tracer.calls["geometry.label"] // units, "count"),
        "kernels.kernel_evals": (model.gram.kernel_evals, "count"),
        "kernels.column_us": (
            1e6 * tracer.seconds["kernels.column"] / tracer.calls["kernels.column"], "us"),
        "kernels.gram_reallocs": (model.gram.reallocs, "count"),
        "model.set_data_ms": (per_call_ms("model.set_data"), "ms"),
        "model.train_s": (sum(tracer.durations("model.train")) / units, "s"),
        "model.sparsify_ms": (per_call_ms("model.sparsify"), "ms"),
        "model.train_iterations": (sum(r.iterations_used for r in reports), "count"),
        "model.corrections": (sum(r.corrections for r in reports), "count"),
        "model.removals": (sum(r.removals for r in reports), "count"),
        "model.iter_max_hits": (
            sum(r.iterations_used == model.params.iter_max for r in reports), "count"),
        "model.final_misclassified": (sum(r.final_misclassified for r in reports), "count"),
    }


# ----------------------------------------------------------------------
# phases shared by the workloads


class Refine:
    """Chains of warm update cycles in a static workspace.

    Chain ``c`` builds a model (label, set_data, train, sparsify; untimed)
    and then runs REFINE_CYCLES update cycles on it with the sampler of the
    dynamic workload: the active learning that refines a trained model
    while nothing moves. Every chain does the same work, and so does every
    seed, since the training set is fixed.
    """

    def __init__(self, scene: Scene, tracer: Tracer, traced: bool, ledger: Ledger):
        self.scene, self.tracer, self.traced, self.ledger = scene, tracer, traced, ledger
        self.seconds: list[list[float]] = []
        self.model = None
        self.sampler = _sampler(scene.cfg)

    def __call__(self, k: int) -> None:
        """Cycle ``k % REFINE_CYCLES`` of chain ``k // REFINE_CYCLES``."""
        scene, tracer = self.scene, self.tracer
        step = k % REFINE_CYCLES
        if step == 0:
            model = self.model = _new_model(scene)
            model.set_data(scene.train_X, _labeled(scene.label, scene.train_X).astype(np.float64))
            model.train()
            model.sparsify()
            if self.traced:
                instrument_model(model, tracer, prefix="cycle.model", gram=False)
            self.seconds.append([])
        model = self.model
        oracle = Counted(tracer.timed("cycle.label", scene.label) if self.traced else scene.label)
        # the first cycle relabels the built model's support set; later ones
        # also label the active set queued by the cycle before
        expected = model.support_count + (scene.cfg.fastron.a_max if step else 0)
        with tracer.span("cycle"):
            t0 = perf_counter()
            update_cycle(model, oracle, self.sampler)
            self.seconds[-1].append(perf_counter() - t0)
        problems = []
        if oracle.calls != expected:
            problems.append(
                f"refine cycle {step}: {oracle.calls} oracle calls, expected {expected}")
        H = scene.holdout[:CYCLE_QUERIES]
        if _sign_mismatches(model, H)[1]:
            problems.append(f"refine cycle {step}: predict and predict_batch differ in sign")
        if _fsum_mismatches(model, H[:2]):
            problems.append(f"refine cycle {step}: hypothesis differs from the fsum expansion")
        self.ledger.op(problems)

    def units(self, n_chains: int) -> tuple:
        return (n_chains * REFINE_CYCLES, self)


class Queries:
    """Each start/goal pair planned through the proxy route and the oracle route.

    Both routes run plan -> verify -> repair-if-needed, certifying against
    the oracle at half the planning edge resolution, as fastron-bench plan
    does. Every plan is then re-checked against the distance reference.

    Pairs are drawn with ``random_start_goal``: free under the oracle and
    the model, on opposite sides of the first joint's range. With
    ``clear``, the goal lies instead at ``min_start_goal_dist`` from the
    start in a uniform random direction, and a pair is kept only if the
    straight segment between them clears every obstacle by CLEAR_MARGIN
    under the distance reference and is free under the model: both
    routes' free spaces then join start and goal, so no query can fail for
    want of a path, whatever the layout. (Long clear segments across the
    first joint's range are rare at dof4, where about a quarter of the
    space is free.)
    """

    def __init__(self, scene: Scene, model, n_pairs: int, tracer: Tracer, traced: bool,
                 ledger: Ledger, clear: bool = False):
        self.scene, self.tracer, self.ledger = scene, tracer, ledger
        self.pl = scene.cfg.planner
        label = scene.label
        self.oracle_free = lambda p: label(p) == -1  # noqa: E731
        proxy_free = lambda p: model.predict(p) == -1  # noqa: E731
        self.cert_res = self.pl.edge_resolution / 2.0
        self.pairs = self._draw(proxy_free, n_pairs, clear)
        self.plan_seeds = _rng(SCENARIO_SEED, _S_PLAN).integers(0, 2**31, n_pairs)
        self.checkers = {"proxy": proxy_free, "oracle": self.oracle_free}
        if traced:
            self.checkers = {route: Counted(fn) for route, fn in self.checkers.items()}
        self.stages = {route: {"total": [], "plan": [], "verify": [], "repair": [],
                               "iterations": 0, "repaired": 0} for route in self.checkers}

    def _draw(self, proxy_free, n_pairs: int, clear: bool) -> list:
        scene, pl, d = self.scene, self.pl, self.scene.chain.dof
        rng = _rng(SCENARIO_SEED, _S_PAIRS)
        if not clear:
            return [random_start_goal(rng, (self.oracle_free, proxy_free), d,
                                      pl.min_start_goal_dist) for _ in range(n_pairs)]
        length, reference = pl.min_start_goal_dist, scene.reference
        # the same number of samples on every segment, spaced at most cert_res
        t = np.linspace(0.0, 1.0, math.ceil(length / self.cert_res) + 1)[None, :, None]
        pairs = []
        for _ in range(100):
            S = rng.uniform(-1.0, 1.0, (CLEAR_DRAW, d))
            U = rng.normal(size=(CLEAR_DRAW, d))
            G = S + length * U / np.linalg.norm(U, axis=1, keepdims=True)
            keep = np.abs(G).max(axis=1) <= 1.0
            S, G = S[keep], G[keep]
            keep = (reference.clearance(S) > CLEAR_MARGIN) & (reference.clearance(G) > CLEAR_MARGIN)
            S, G = S[keep], G[keep]
            segments = S[:, None, :] + t * (G - S)[:, None, :]
            clearance = reference.clearance(segments.reshape(-1, d)).reshape(len(S), -1)
            keep = clearance.min(axis=1) > CLEAR_MARGIN
            for s, g, samples in zip(S[keep], G[keep], segments[keep]):
                if (self.oracle_free(s) and self.oracle_free(g)
                        and all(map(proxy_free, samples))):
                    pairs.append((s, g))
                    if len(pairs) == n_pairs:
                        return pairs
        return pairs + [None] * (n_pairs - len(pairs))

    def __call__(self, i: int) -> None:
        pl, pair = self.pl, self.pairs[i]
        for route, checker in self.checkers.items():
            if pair is None:
                self.ledger.op(failures=[f"pair {i}: no free start/goal pair drawn"])
                continue
            st = self.stages[route]
            start, goal = pair
            query = PlanQuery(start, goal, checker, edge_resolution=pl.edge_resolution,
                              step_size=pl.step_size, goal_bias=pl.goal_bias,
                              max_iterations=pl.max_iterations, seed=int(self.plan_seeds[i]))
            with self.tracer.span(f"query.{route}"):
                t0 = perf_counter()
                plan = rrt_connect_plan(query)
                t1 = perf_counter()
                invalid = verify_plan(plan, self.oracle_free, self.cert_res) if plan else []
                t2 = perf_counter()
                final = plan
                if invalid:
                    final = repair_plan(plan, invalid, self.oracle_free, planner=rrt_connect_plan,
                                        edge_resolution=self.cert_res, step_size=pl.step_size,
                                        goal_bias=pl.goal_bias, max_iterations=pl.max_iterations,
                                        seed=query.seed + 7919)
                t3 = perf_counter()
            st["total"].append(t3 - t0)
            st["plan"].append(t1 - t0)
            st["verify"].append(t2 - t1)
            st["repair"].append(t3 - t2)
            st["repaired"] += bool(invalid)
            if plan is None:
                self.ledger.op(failures=[f"pair {i}, {route} route: no plan"])
                continue
            st["iterations"] += plan.iterations
            if final is None:
                self.ledger.op(failures=[f"pair {i}, {route} route: no certified plan"])
                continue
            self.ledger.op([f"pair {i}, {route} route: {msg}" for msg in
                            recheck_plan(final.waypoints, start, goal, self.scene.reference,
                                         self.cert_res)])

    def edge_timing(self):
        """Context in which ``edge_valid`` calls with the proxy checker are timed."""
        proxy_checker, tracer = self.checkers["proxy"], self.tracer

        def wrap(edge_valid):
            def wrapper(a, b, checker, resolution):
                if checker is not proxy_checker:
                    return edge_valid(a, b, checker, resolution)
                t0 = perf_counter()
                ok = edge_valid(a, b, checker, resolution)
                tracer.add("planning.edge_valid.proxy", perf_counter() - t0)
                return ok
            return wrapper

        return patched(planning_module, "edge_valid", wrap)

    def metrics(self) -> dict:
        metrics = {}
        p = tail_percentile(len(self.pairs))
        for route, name in (("proxy", "plan_ms"), ("oracle", "oracle_plan_ms")):
            total = 1e3 * np.array(self.stages[route]["total"])
            # about half the proxy plans need a repair, so the query times
            # have two modes and their median sits between them; the mean
            # of the middle half spans both (see _cycle_metrics)
            metrics[name] = (midmean(total), "ms")
            metrics[name + "_tail"] = (float(np.percentile(total, p)), "ms")
        return metrics

    def layers(self) -> dict:
        px, orc, tracer = self.stages["proxy"], self.stages["oracle"], self.tracer
        return {
            "planning.plan_only_ms": (1e3 * statistics.median(px["plan"]), "ms"),
            "planning.verify_ms": (1e3 * statistics.median(px["verify"]), "ms"),
            "planning.repair_ms": (1e3 * sum(px["repair"]) / len(px["repair"]), "ms"),
            "planning.repaired_plans": (px["repaired"], "count"),
            "planning.proxy_iterations": (px["iterations"], "count"),
            "planning.proxy_checks": (self.checkers["proxy"].calls, "count"),
            "planning.edge_check_us": (
                1e6 * tracer.seconds["planning.edge_valid.proxy"]
                / tracer.calls["planning.edge_valid.proxy"], "us"),
            "planning.oracle_iterations": (orc["iterations"], "count"),
            "planning.oracle_checks": (self.checkers["oracle"].calls, "count"),
        }


def _layer_cycles(tracer: Tracer, prefix: str, label_site: str) -> dict:
    """Update-cycle layers: appends, active-set draws and the oracle's share of a cycle."""
    appends = tracer.durations(f"{prefix}.append_points")
    draws = tracer.durations("sampling.generate_active_set")
    return {
        "model.append_points_ms": (1e3 * sum(appends) / len(appends), "ms"),
        "sampling.active_set_ms": (1e3 * sum(draws) / len(draws), "ms"),
        # base: total update_cycle time
        "sampling.oracle_share": (
            tracer.seconds[label_site] / sum(tracer.durations("cycle")), "fraction"),
    }


# ----------------------------------------------------------------------
# workloads


def measure_static(scene, seconds, tracer, traced, ledger, tasks):
    counts = COUNTS["static-dof4"]
    builds = Builds(scene, tracer, traced)
    builds()
    model = builds.model
    serving = Serving(scene, counts, seconds, tracer)
    serving.serve(model)
    refine = Refine(scene, tracer, traced, ledger)
    queries = Queries(scene, model, _scaled(counts["pairs"], seconds, least=40), tracer, traced,
                      ledger, clear=True)
    with queries.edge_timing() if traced else nullcontext():
        spread(tasks + serving.tasks() + [(_scaled(counts["builds"], seconds, least=3), builds),
                                          refine.units(_scaled(counts["chains"], seconds)),
                                          (len(queries.pairs), queries)])
    # an operation is one verified check, update cycle or planning route
    ledger.ops(len(builds.seconds), builds.inexact, "sparsify changed hypothesis values")
    decided, bad = _label_mismatches(scene.reference, scene.holdout, scene.holdout_y)
    ledger.ops(decided, bad, "oracle label disagrees with the distance reference")
    T = np.array(scene.timing)
    decided, bad = _label_mismatches(scene.reference, T, [scene.label(q) for q in T])
    ledger.ops(decided, bad, "oracle label disagrees with the distance reference")
    decided, bad = _sign_mismatches(model, scene.holdout)
    ledger.ops(decided, bad, "predict and predict_batch differ in sign")
    ledger.ops(FSUM_QUERIES, _fsum_mismatches(model, T[:FSUM_QUERIES]),
               "hypothesis differs from the fsum expansion")
    accuracy, tpr, tnr = _quality(model, scene.holdout, scene.holdout_y)
    metrics = {
        "build_s": (statistics.median(builds.timed()), "s"),
        **serving.metrics(),
        "accuracy": (accuracy, "fraction"),
        "support_count": (model.support_count, "count"),
        **_cycle_metrics(refine.seconds),
        **queries.metrics(),
    }
    layers = {}
    if traced:
        layers = _layer_learner(tracer, len(builds.seconds), builds.reports[-1:], model)
        layers.update(_layer_geometry(scene))
        layers["model.tpr"] = (tpr, "fraction")
        layers["model.tnr"] = (tnr, "fraction")
        layers.update(_layer_cycles(tracer, "cycle.model", "cycle.label"))
        layers.update(queries.layers())
    return metrics, layers


class Trajectory:
    """Update cycles from a cold start through every workspace of the scene."""

    def __init__(self, scene: Scene, tracer: Tracer, traced: bool, ledger: Ledger,
                 label_bad: list[int]):
        self.scene, self.tracer, self.traced, self.ledger = scene, tracer, traced, ledger
        self.label_bad = label_bad
        self.steps = len(scene.extra["labels"])
        self.seconds: list[list[float]] = []
        self.quality = np.zeros((self.steps, 3))
        self.reports = []
        self.model = None
        self.sampler = _sampler(scene.cfg)

    def __call__(self, k: int) -> None:
        """Cycle ``k % steps`` of trajectory ``k // steps``."""
        scene, ex, tracer = self.scene, self.scene.extra, self.tracer
        cfg, fa = scene.cfg, scene.cfg.fastron
        step = k % self.steps
        if step == 0:
            self.model = _new_model(scene)
            if self.traced:
                instrument_model(self.model, tracer)
            self.seconds.append([])
            self.reports = []
        model = self.model
        fn = ex["labels"][step]
        oracle = Counted(tracer.timed("geometry.label", fn) if self.traced else fn)
        expected = cfg.resolved_n0() if model.n == 0 else model.support_count + fa.a_max
        with tracer.span("cycle"):
            t0 = perf_counter()
            self.reports.append(update_cycle(model, oracle, self.sampler))
            self.seconds[-1].append(perf_counter() - t0)
        problems = []
        if oracle.calls != expected:
            problems.append(f"cycle {step}: {oracle.calls} oracle calls, expected {expected}")
        if self.label_bad[step]:
            problems.append(f"cycle {step}: oracle disagrees with the distance reference")
        H, truth = ex["holdouts"][step], ex["holdout_ys"][step]
        self.quality[step] = _quality(model, H, truth)
        if _sign_mismatches(model, H)[1]:
            problems.append(f"cycle {step}: predict and predict_batch differ in sign")
        if _fsum_mismatches(model, H[:2]):
            problems.append(f"cycle {step}: hypothesis differs from the fsum expansion")
        self.ledger.op(problems)


def measure_dynamic(scene, seconds, tracer, traced, ledger, tasks):
    counts = COUNTS["dynamic-dof2"]
    ex = scene.extra
    label_bad = [_label_mismatches(CollisionReference(scene.chain, ws), H, y)[1]
                 for ws, H, y in zip(ex["workspaces"], ex["holdouts"], ex["holdout_ys"])]
    trajectory = Trajectory(scene, tracer, traced, ledger, label_bad)
    steps = trajectory.steps
    # the first trajectory yields the model that is served, and planned
    # with, in the last workspace while the others run; its cold cycle
    # times are left out
    for k in range(steps):
        trajectory(k)
    served = trajectory.model
    serving = Serving(scene, counts, seconds, tracer)
    serving.serve(served)
    queries = Queries(scene, served, _scaled(counts["pairs"], seconds, least=40), tracer, traced,
                      ledger, clear=True)
    n_traj = _scaled(counts["trajectories"], seconds, least=2)
    with queries.edge_timing() if traced else nullcontext():
        spread(tasks + serving.tasks() + [(n_traj * steps, lambda k: trajectory(steps + k)),
                                          (len(queries.pairs), queries)])
    ledger.op(_serve_problems(served, scene))
    cycle_s = trajectory.seconds[1:]
    metrics = {
        "build_s": (float(np.median(np.sum(cycle_s, axis=1))), "s"),
        **serving.metrics(),
        "accuracy": (float(trajectory.quality[:, 0].mean()), "fraction"),
        "support_count": (served.support_count, "count"),
        **_cycle_metrics(cycle_s),
        **queries.metrics(),
    }
    layers = {}
    if traced:
        layers = _layer_learner(tracer, len(trajectory.seconds), trajectory.reports,
                                trajectory.model)
        layers.update(_layer_geometry(scene))
        layers["model.tpr"] = (float(np.nanmean(trajectory.quality[:, 1])), "fraction")
        layers["model.tnr"] = (float(np.nanmean(trajectory.quality[:, 2])), "fraction")
        layers.update(_layer_cycles(tracer, "model", "geometry.label"))
        layers.update(queries.layers())
    return metrics, layers


def measure_plan(scene, seconds, tracer, traced, ledger, tasks):
    counts = COUNTS["plan-gap-dof2"]
    builds = Builds(scene, tracer, traced)
    builds()
    model = builds.model
    serving = Serving(scene, counts, seconds, tracer)
    serving.serve(model)
    refine = Refine(scene, tracer, traced, ledger)
    queries = Queries(scene, model, _scaled(counts["pairs"], seconds, least=40), tracer, traced,
                      ledger)
    with queries.edge_timing() if traced else nullcontext():
        spread(tasks + serving.tasks() + [(len(queries.pairs), queries),
                                          (_scaled(counts["builds"], seconds, least=3), builds),
                                          refine.units(_scaled(counts["chains"], seconds))])
    problems = _serve_problems(model, scene)
    if builds.inexact:
        problems.append(f"sparsify changed hypothesis values in {builds.inexact} builds")
    ledger.op(problems)
    accuracy, tpr, tnr = _quality(model, scene.holdout, scene.holdout_y)
    metrics = {
        "build_s": (statistics.median(builds.timed()), "s"),
        **serving.metrics(),
        "accuracy": (accuracy, "fraction"),
        "support_count": (model.support_count, "count"),
        **_cycle_metrics(refine.seconds),
        **queries.metrics(),
    }
    layers = {}
    if traced:
        layers = _layer_learner(tracer, len(builds.seconds), builds.reports[-1:], model)
        layers.update(_layer_geometry(scene))
        layers["model.tpr"] = (tpr, "fraction")
        layers["model.tnr"] = (tnr, "fraction")
        layers.update(_layer_cycles(tracer, "cycle.model", "cycle.label"))
        layers.update(queries.layers())
    return metrics, layers


WORKLOADS = {
    "static-dof4": (prepare_static, measure_static),
    "dynamic-dof2": (prepare_dynamic, measure_dynamic),
    "plan-gap-dof2": (prepare_plan, measure_plan),
}


def run(name: str, seed: int, seconds: int, traced: bool, import_s: float, trace_path=None):
    """Run one workload.

    Returns the result object to print, the problems found, the run's speed
    factors (median probe time over its reference, interpreted and array)
    and the unscaled metrics.
    """
    prepare, measure = WORKLOADS[name]
    tracer = Tracer()
    setup_s = []

    def setup(_k=None):
        with tracer.span("setup"):
            t0 = perf_counter()
            scene = prepare(seed)
            setup_s.append(perf_counter() - t0)
        return scene

    scene = setup()
    ledger = Ledger()
    probes, array_probes = [], []
    centres = _rng(0, 0).uniform(-1.0, 1.0, (1000, 256, 4))
    points = centres[:, :1, :].copy()

    def probe(_k):
        t0 = perf_counter()
        calibration_probe()
        probes.append(perf_counter() - t0)

    def probe_array(_k):
        t0 = perf_counter()
        array_probe(points, centres)
        array_probes.append(perf_counter() - t0)

    with patched(sampling_module, "generate_active_set",
                 lambda fn: tracer.spanned("sampling.generate_active_set", fn)) \
            if traced else nullcontext():
        metrics, layers = measure(scene, seconds, tracer, traced, ledger,
                                  [(SETUP_REPEATS - 1, setup), (PROBES, probe),
                                   (ARRAY_PROBES, probe_array)])
    metrics["setup_s"] = (import_s + statistics.median(setup_s), "s")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    speed = statistics.median(probes) / REFERENCE_PROBE_S
    array_speed = statistics.median(array_probes) / REFERENCE_ARRAY_PROBE_S
    raw = layers if traced else metrics
    for key, (value, _) in raw.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {key} is not finite: {value}")

    def calibrated(key, value, unit):
        if unit not in TIME_UNITS:
            return value
        return value / (array_speed if key in ARRAY_METRICS else speed)

    scaled = {k: {"value": calibrated(k, v, u), "unit": u} for k, (v, u) in raw.items()}
    if trace_path is not None:
        tracer.write(trace_path, {"speed": speed, "array_speed": array_speed,
                                  "unscaled": {k: v for k, (v, _) in raw.items()}})
    return {
        "correct": ledger.incorrect == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": scaled,
    }, ledger.problems, (speed, array_speed), raw
