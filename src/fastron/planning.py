"""RRT and RRT-Connect over an abstract collision checker, plus verify/repair.

Planners only see a predicate ``checker(point) -> bool`` (True = free), so
the same code plans against the learned proxy or the geometric oracle.
Plans from an approximate checker are certified by ``plan_and_certify``:
verify finds the edges an oracle rejects, repair excises them with one
waypoint of margin, re-plans the gaps with the oracle as checker and
re-checks only the edges it adds.

Both planners grow their trees with one routine (``_Tree`` plus
``_extend``: nearest node, one bounded step, one edge check) and share
the endpoint checks. Nearest neighbors use an easily audited linear scan,
which takes a third or more of an infeasible proxy query's run: its trees
grow to tens of thousands of nodes. Each planning call owns its RNG
stream, so identical query + seed reproduces the identical plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from ._checks import check_float, check_int
from .kernels import _squared_distance

__all__ = [
    "PlanQuery",
    "MotionPlan",
    "EndpointCollisionError",
    "edge_valid",
    "rrt_plan",
    "rrt_connect_plan",
    "PLANNERS",
    "verify_plan",
    "repair_plan",
    "plan_and_certify",
]

CheckerFn = Callable[[np.ndarray], bool]

_EDGE_BLOCK = 256


@dataclass
class PlanQuery:
    start: np.ndarray
    goal: np.ndarray
    checker: CheckerFn
    edge_resolution: float = 0.05
    step_size: float = 0.2
    goal_bias: float = 0.05
    max_iterations: int = 50000
    seed: int = 0

    def __post_init__(self):
        for name in ("start", "goal"):
            point = np.asarray(getattr(self, name), dtype=np.float64)
            if point.ndim != 1 or not np.isfinite(point).all():
                raise ValueError(f"{name} must be a 1-D array of finite coordinates, got {point!r}")
            setattr(self, name, point)
        if self.goal.shape != self.start.shape:
            raise ValueError(f"goal must have start's shape {self.start.shape}, got {self.goal.shape}")
        # finite and > 0: an infinite resolution would reduce an edge check
        # to its endpoints
        check_float("edge_resolution", self.edge_resolution, 0.0, strict=True)
        check_float("step_size", self.step_size, 0.0, strict=True)
        check_float("goal_bias", self.goal_bias, 0.0, 1.0)
        check_int("max_iterations", self.max_iterations, 1)
        check_int("seed", self.seed, 0)


class EndpointCollisionError(ValueError):
    """A planner's start or goal configuration is in collision under its checker."""


@dataclass
class MotionPlan:
    waypoints: list[np.ndarray] = field(default_factory=list)
    certified: bool = False
    iterations: int = 0


def edge_valid(a, b, checker: CheckerFn, resolution: float) -> bool:
    """True iff every sample at spacing <= resolution on [a, b] is free.

    Endpoints included. ``a == b`` reduces to a point check.
    """
    # an infinite resolution would reduce the check to the endpoints
    check_float("resolution", resolution, 0.0, strict=True)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    length = math.sqrt(ab.dot(ab))
    if not math.isfinite(length):
        raise ValueError(f"edge endpoints must be finite, got {a.tolist()} and {b.tolist()}")
    steps = max(1, math.ceil(length / resolution))
    delta = ab / steps
    # sample k is a + k * delta, made _EDGE_BLOCK at a time so that a fine
    # resolution costs checks, not memory
    for k in range(0, steps + 1, _EDGE_BLOCK):
        ks = np.arange(k, min(k + _EDGE_BLOCK, steps + 1), dtype=np.float64)
        for p in a + ks[:, None] * delta:
            if not checker(p):
                return False
    return True


class _Tree:
    """Points and parent indices in arrays that double when full: one
    ``_connect`` may add any number of nodes per planner iteration."""

    __slots__ = ("pts", "parents", "n")

    def __init__(self, root: np.ndarray):
        self.pts = np.empty((64, root.shape[0]), dtype=np.float64)
        self.parents = np.empty(64, dtype=np.int64)
        self.pts[0] = root
        self.parents[0] = -1
        self.n = 1

    def nearest(self, target: np.ndarray) -> int:
        return int(np.argmin(_squared_distance(self.pts[: self.n], target)))

    def add(self, point: np.ndarray, parent: int) -> int:
        if self.n == self.parents.shape[0]:
            self.pts = np.concatenate([self.pts, np.empty_like(self.pts)])
            self.parents = np.concatenate([self.parents, np.empty_like(self.parents)])
        self.pts[self.n] = point
        self.parents[self.n] = parent
        self.n += 1
        return self.n - 1

    def path(self, idx: int) -> list[np.ndarray]:
        """Waypoints from the root to node ``idx``."""
        path = []
        while idx >= 0:
            path.append(self.pts[idx].copy())
            idx = int(self.parents[idx])
        path.reverse()
        return path


def _extend(tree: _Tree, target: np.ndarray, checker, step_size, res) -> int | None:
    """Step from the nearest node toward ``target``; index of the new node,
    or None when the target coincides with that node or the edge is blocked."""
    j = tree.nearest(target)
    near = tree.pts[j]
    step = target - near
    dist = math.sqrt(step.dot(step))
    if dist == 0.0:
        return None
    new = target if dist <= step_size else near + (step_size / dist) * step
    if not edge_valid(near, new, checker, res):
        return None
    return tree.add(new, j)


def _connect(tree: _Tree, target: np.ndarray, checker, step_size, res) -> int | None:
    """Extend repeatedly toward a fixed target; index of the target node
    when reached exactly, None when trapped."""
    for _ in range(100000):
        idx = _extend(tree, target, checker, step_size, res)
        if idx is None:
            return None
        if np.array_equal(tree.pts[idx], target):
            return idx
    return None


def _endpoint_plan(query: PlanQuery) -> MotionPlan | None:
    """Reject colliding endpoints; the one-waypoint plan when start == goal."""
    if not query.checker(query.start):
        raise EndpointCollisionError("start configuration is in collision")
    if not query.checker(query.goal):
        raise EndpointCollisionError("goal configuration is in collision")
    if np.array_equal(query.start, query.goal):
        return MotionPlan([query.start.copy()], iterations=0)
    return None


def rrt_plan(query: PlanQuery) -> MotionPlan | None:
    """Single-tree RRT; returns a plan on reaching the goal region, else None.

    The goal region is a step_size ball around the goal with a valid
    connecting edge; the goal itself becomes the final waypoint.
    """
    trivial = _endpoint_plan(query)
    if trivial is not None:
        return trivial
    checker, goal, res = query.checker, query.goal, query.edge_resolution
    d = goal.shape[0]
    rng = np.random.default_rng(query.seed)
    tree = _Tree(query.start)
    for it in range(1, query.max_iterations + 1):
        target = goal if rng.random() < query.goal_bias else rng.uniform(-1.0, 1.0, d)
        idx = _extend(tree, target, checker, query.step_size, res)
        if idx is None:
            continue
        gd = float(np.linalg.norm(tree.pts[idx] - goal))
        if gd == 0.0:
            return MotionPlan(tree.path(idx), iterations=it)
        if gd <= query.step_size and edge_valid(tree.pts[idx], goal, checker, res):
            return MotionPlan(tree.path(tree.add(goal, idx)), iterations=it)
    return None


def rrt_connect_plan(query: PlanQuery) -> MotionPlan | None:
    """Bidirectional RRT with the greedy connect heuristic."""
    trivial = _endpoint_plan(query)
    if trivial is not None:
        return trivial
    checker, res = query.checker, query.edge_resolution
    rng = np.random.default_rng(query.seed)
    tree_a = _Tree(query.start)
    tree_b = _Tree(query.goal)
    swapped = False
    for it in range(1, query.max_iterations + 1):
        sample = rng.uniform(-1.0, 1.0, query.start.shape[0])
        idx_a = _extend(tree_a, sample, checker, query.step_size, res)
        if idx_a is not None:
            q_new = tree_a.pts[idx_a].copy()
            idx_b = _connect(tree_b, q_new, checker, query.step_size, res)
            if idx_b is not None:
                path_a = tree_a.path(idx_a)
                path_b = tree_b.path(idx_b)
                start_side = path_b if swapped else path_a
                goal_side = path_a if swapped else path_b
                waypoints = start_side + list(reversed(goal_side))[1:]
                return MotionPlan(waypoints, iterations=it)
        tree_a, tree_b = tree_b, tree_a
        swapped = not swapped
    return None


# every planner by the name a config selects it with
PLANNERS = {"rrt": rrt_plan, "rrt_connect": rrt_connect_plan}


def verify_plan(plan: MotionPlan, oracle: CheckerFn, resolution: float) -> list[int]:
    """Indices of plan edges that fail an oracle-backed edge check.

    An empty list certifies the plan at this resolution. A one-waypoint
    plan (start == goal) is checked as the degenerate edge 0 from that
    waypoint to itself; a plan without waypoints raises ValueError.
    """
    wps = plan.waypoints
    if len(wps) == 0:
        raise ValueError("cannot verify a plan with an empty waypoint list")
    if len(wps) == 1:
        wps = wps * 2
    invalid = []
    for i in range(len(wps) - 1):
        if not edge_valid(wps[i], wps[i + 1], oracle, resolution):
            invalid.append(i)
    return invalid


def _excision_windows(invalid: list[int], n_waypoints: int) -> list[tuple[int, int]]:
    # one waypoint of margin on each side of an invalid run, clipped at
    # the plan ends; overlapping or touching windows merge
    windows = []
    for i in sorted(invalid):
        s = max(0, i - 1)
        e = min(n_waypoints - 1, i + 2)
        if windows and s <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], e))
        else:
            windows.append((s, e))
    return windows


def repair_plan(
    plan: MotionPlan,
    invalid: list[int],
    oracle: CheckerFn,
    *,
    planner=rrt_connect_plan,
    edge_resolution: float = PlanQuery.edge_resolution,
    step_size: float = PlanQuery.step_size,
    goal_bias: float = PlanQuery.goal_bias,
    max_iterations: int = PlanQuery.max_iterations,
    seed: int = PlanQuery.seed,
) -> MotionPlan | None:
    """Excise invalid segments and bridge them with oracle-checked plans.

    Each window is re-planned between its (oracle-free) end waypoints, the
    k-th from ``seed + k``. If any bridge fails, the whole query is
    re-planned start-to-goal with the oracle. Only the added edges are
    verified (kept ones passed ``verify_plan`` already); the planner's own
    checks do not suffice, as RRT-Connect checks its goal tree's edges in
    reverse, which samples other points. Returns the certified plan, or None.
    """
    if not invalid:
        raise ValueError("repair_plan needs a non-empty invalid edge list")
    wps = plan.waypoints
    windows = _excision_windows(invalid, len(wps))

    def _plan(a, b, k):
        try:
            return planner(PlanQuery(a, b, oracle, edge_resolution=edge_resolution,
                                     step_size=step_size, goal_bias=goal_bias,
                                     max_iterations=max_iterations, seed=seed + k))
        except EndpointCollisionError:
            return None  # an end point the oracle rejects

    def _certified(parts, waypoints):
        # oracle-planned parts should never fail their own re-check
        ok = not any(verify_plan(part, oracle, edge_resolution) for part in parts)
        return MotionPlan(waypoints, certified=True) if ok else None

    bridges, new_wps, cursor = [], [], 0
    for k, (s, e) in enumerate(windows):
        bridge = _plan(wps[s], wps[e], k)
        if bridge is None:
            # a bridge failed: re-plan the entire query against the oracle
            full = _plan(wps[0], wps[-1], len(windows))
            return None if full is None else _certified([full], full.waypoints)
        bridges.append(bridge)
        new_wps += wps[cursor : s + 1] + bridge.waypoints[1:]
        cursor = e + 1
    return _certified(bridges, new_wps + wps[cursor:])


def plan_and_certify(planner, query: PlanQuery, oracle: CheckerFn, resolution: float):
    """Plan, verify against ``oracle`` at ``resolution``, repair what fails.

    Returns ``(plan, plan_s, verify_s, repair_s)``: None when the planner
    finds no plan, else the certified plan or, if repair fails, the
    planner's own with ``certified`` False; then each stage's seconds (0.0
    for a stage not run). Repair reuses the planner and query settings with
    its own seed stream.
    """
    t0 = perf_counter()
    plan = planner(query)
    t1 = perf_counter()
    if plan is None:
        return None, t1 - t0, 0.0, 0.0
    invalid = verify_plan(plan, oracle, resolution)
    t2 = perf_counter()
    if not invalid:
        plan.certified = True
        return plan, t1 - t0, t2 - t1, 0.0
    repaired = repair_plan(plan, invalid, oracle, planner=planner, edge_resolution=resolution,
                           step_size=query.step_size, goal_bias=query.goal_bias,
                           max_iterations=query.max_iterations, seed=query.seed + 7919)
    return plan if repaired is None else repaired, t1 - t0, t2 - t1, perf_counter() - t2
