"""Seeded scenario generation: robots, obstacle layouts, start/goal pairs."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..geometry import Box, KinematicChain, Workspace, four_dof_rod, from_input_space, two_dof_rod

if TYPE_CHECKING:  # the config validates by building chains and bodies here
    from .config import ScenarioConfig

__all__ = ["build_chain", "build_workspace", "random_start_goal", "gap_obstacles"]

_START_GOAL_TRIES = 10_000


def build_chain(cfg: ScenarioConfig) -> KinematicChain:
    r = cfg.robot
    if r.type == "dof2":
        return two_dof_rod(link_shape=r.link_shape)
    if r.type == "dof4":
        return four_dof_rod(link_shape=r.link_shape)
    return KinematicChain([(l, rad) for l, rad in r.rods], link_shape=r.link_shape)


def _holds_bool(val) -> bool:
    return isinstance(val, bool) or isinstance(val, (list, tuple)) and any(map(_holds_bool, val))


def explicit_body(spec: dict) -> Box:
    """The box of one ``obstacles.explicit`` entry: a ``center``, either a cube's
    ``size`` or ``half_extents``, and an optional ``rotation``."""
    unknown = set(spec) - {"center", "size", "half_extents", "rotation"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    if "size" in spec and "half_extents" in spec:
        raise ValueError("give 'size' or 'half_extents', not both")
    for key in ("center", "size", "half_extents", "rotation"):
        if _holds_bool(spec.get(key)):  # a number to Python, not to the config
            raise TypeError(f"{key} must hold numbers, not booleans, got {spec[key]!r}")
    half = spec["half_extents"] if "half_extents" in spec else [spec["size"] / 2.0] * 3
    return Box(spec["center"], half, spec.get("rotation"))


def _link_axis(link) -> tuple[tuple, tuple]:
    if hasattr(link, "p0"):
        return link.p0, link.p1
    c, h, r = link.center, link.half, link.rot  # box link: axis along local x
    ax = (r[0][0] * h[0], r[1][0] * h[0], r[2][0] * h[0])
    return (c[0] - ax[0], c[1] - ax[1], c[2] - ax[2]), (c[0] + ax[0], c[1] + ax[1], c[2] + ax[2])


def _random_obstacle(rng: np.random.Generator, chain: KinematicChain, cfg: ScenarioConfig) -> Box:
    # anchor the cube near a random point on the arm so every obstacle
    # actually carves out some in-collision region of the C-space
    p = rng.uniform(-1.0, 1.0, chain.dof)
    q = from_input_space(p, chain)
    bodies = chain.forward_kinematics(q)
    link = bodies[rng.integers(0, len(bodies))]
    t = rng.uniform(0.0, 1.0)
    p0, p1 = _link_axis(link)
    anchor = np.array([p0[k] + t * (p1[k] - p0[k]) for k in range(3)])
    scale = rng.uniform(0.3, 0.95)  # radial band, as a fraction of the arm's reach
    norm = float(np.linalg.norm(anchor))
    if norm > 1e-9:
        anchor = anchor * (scale * chain.reach / max(norm, 1e-9))
    anchor = anchor + rng.normal(0.0, 0.05, 3)
    anchor[2] = max(anchor[2], 0.02)  # the rods only reach the upper half-space
    side = rng.uniform(*cfg.obstacles.size_range)
    return Box(tuple(anchor), (side / 2.0, side / 2.0, side / 2.0))


def build_workspace(cfg: ScenarioConfig, rng: np.random.Generator,
                    chain: KinematicChain) -> Workspace:
    ob = cfg.obstacles
    if ob.explicit is not None:
        obstacles = [explicit_body(spec) for spec in ob.explicit]
    else:
        count = int(rng.integers(1, ob.count + 1)) if ob.randomize_count else ob.count
        obstacles = [_random_obstacle(rng, chain, cfg) for _ in range(count)]
    velocities = None
    if ob.motion_steps > 0:
        velocities = []
        for _ in obstacles:
            v = rng.normal(0.0, 1.0, 3)
            v /= max(float(np.linalg.norm(v)), 1e-9)
            velocities.append(tuple(v * ob.motion_speed))
    reach = chain.reach
    bounds = ((-0.95 * reach, -0.95 * reach, 0.0), (0.95 * reach, 0.95 * reach, 0.95 * reach))
    return Workspace(obstacles, velocities, bounds)


def gap_obstacles() -> list[dict]:
    """Arc of cubes (side 0.30, radius 0.55) across the yaw=0 half-plane.

    Of the arc's seven slots, slot 3, at the vertical, is left open, so
    crossing from negative to positive yaw forces the rod through a narrow
    near-vertical passage; in C-space this is a wall with a small gap.
    """
    thetas = [(k + 0.5) * math.pi / 7 for k in range(7) if k != 3]
    return [{"center": [0.55 * math.cos(t), 0.0, 0.55 * math.sin(t)], "size": 0.30}
            for t in thetas]


def random_start_goal(
    rng: np.random.Generator,
    checkers,
    dim: int,
    min_dist: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Draw a start/goal pair free under every checker, on opposite sides.

    "Opposite sides" means the first coordinate changes sign, so the arm
    has to cross the workspace rather than wiggle in place. Gives up with
    None after 10,000 draws.
    """
    for _ in range(_START_GOAL_TRIES):
        s = rng.uniform(-1.0, 1.0, dim)
        g = rng.uniform(-1.0, 1.0, dim)
        if s[0] * g[0] >= 0.0:
            continue
        if float(np.linalg.norm(s - g)) < min_dist:
            continue
        if all(chk(s) and chk(g) for chk in checkers):
            return s, g
    return None
