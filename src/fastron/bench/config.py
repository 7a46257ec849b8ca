"""Benchmark configuration: JSON schema, defaults, validation."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any

from ..model import TrainParams
from ..planning import PLANNERS, PlanQuery
from ..sampling import SamplerParams
from .report import MetricsRecord
from .scenarios import build_chain, explicit_body

__all__ = ["ConfigError", "ScenarioConfig", "SWEEP_PARAMETERS", "load_config"]


class ConfigError(ValueError):
    """Configuration file or value rejected before any work runs."""


_ROBOT_DEFAULTS = {
    "dof2": {"gamma": 30.0, "n0": 2000},
    "dof4": {"gamma": 10.0, "n0": 4000},
    "custom": {"gamma": 10.0, "n0": 4000},
}


@dataclass
class RobotConfig:
    type: str = "dof2"
    rods: list[list[float]] | None = None  # custom chains: [[length, radius], ...]
    link_shape: str = "capsule"


@dataclass
class ObstacleConfig:
    count: int = 4
    randomize_count: bool = True  # draw 1..count obstacles instead of exactly count
    size_range: list[float] = field(default_factory=lambda: [0.2, 0.35])
    explicit: list[dict] | None = None  # overrides random placement
    motion_steps: int = 0
    motion_speed: float = 0.02


@dataclass
class FastronConfig:
    # defaults and ranges are those of TrainParams and SamplerParams;
    # n0 becomes SamplerParams.n_initial
    gamma: float | None = None  # None: robot-type default
    beta: float = TrainParams.beta
    iter_max: int = TrainParams.iter_max
    s_max: int = TrainParams.s_max
    n0: int | None = None  # None: robot-type default
    a_max: int = SamplerParams.a_max
    kappa: int = SamplerParams.kappa
    sigma: float | None = SamplerParams.sigma


@dataclass
class PlannerConfig:
    # the numeric defaults and ranges are those of PlanQuery
    algorithm: str = "rrt_connect"
    step_size: float = PlanQuery.step_size
    goal_bias: float = PlanQuery.goal_bias
    edge_resolution: float = PlanQuery.edge_resolution
    max_iterations: int = PlanQuery.max_iterations
    min_start_goal_dist: float = 0.8


@dataclass
class EvalConfig:
    holdout: int = 10000
    timing_calls: int = 100000
    timing_batch: int = 1000


@dataclass
class ScenarioConfig:
    robot: RobotConfig = field(default_factory=RobotConfig)
    obstacles: ObstacleConfig = field(default_factory=ObstacleConfig)
    fastron: FastronConfig = field(default_factory=FastronConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seeds: list[int] | None = None
    asserts: dict[str, dict[str, float]] | None = None

    def resolved_gamma(self) -> float:
        if self.fastron.gamma is not None:
            return self.fastron.gamma
        return _ROBOT_DEFAULTS[self.robot.type]["gamma"]

    def resolved_n0(self) -> int:
        if self.fastron.n0 is not None:
            return self.fastron.n0
        return _ROBOT_DEFAULTS[self.robot.type]["n0"]

    # the one mapping from config fields to library parameter objects
    def train_params(self) -> TrainParams:
        fa = self.fastron
        return TrainParams(gamma=self.resolved_gamma(), beta=fa.beta, iter_max=fa.iter_max,
                           s_max=fa.s_max)

    def sampler_params(self, seed: int) -> SamplerParams:
        fa = self.fastron
        return SamplerParams(a_max=fa.a_max, kappa=fa.kappa, sigma=fa.sigma, seed=seed,
                             n_initial=self.resolved_n0())

    def plan_query(self, start, goal, checker, seed: int) -> PlanQuery:
        pl = self.planner
        return PlanQuery(start, goal, checker, edge_resolution=pl.edge_resolution,
                         step_size=pl.step_size, goal_bias=pl.goal_bias,
                         max_iterations=pl.max_iterations, seed=seed)

    def with_override(self, parameter: str, value: float) -> "ScenarioConfig":
        """Validated copy of the config with one sweep parameter replaced."""
        if parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {parameter!r}")
        return _validate(SWEEP_PARAMETERS[parameter](self, value))


# every sweep parameter by name: the config copy that sets it to a value; a count
# that is not a whole number (NaN, infinities) stays a float, which fails as an int
SWEEP_PARAMETERS = {
    "beta": lambda cfg, v: replace(cfg, fastron=replace(cfg.fastron, beta=float(v))),
    "gamma": lambda cfg, v: replace(cfg, fastron=replace(cfg.fastron, gamma=float(v))),
    "obstacle_count": lambda cfg, v: replace(cfg, obstacles=replace(
        cfg.obstacles, count=int(v) if float(v).is_integer() else v, randomize_count=False)),
}


def _build(section_cls, data: dict, path: str):
    unknown = set(data) - {f.name for f in fields(section_cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return section_cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# every section by name: the ScenarioConfig fields built from a dataclass
_SECTIONS = {f.name: f.default_factory for f in fields(ScenarioConfig)
             if f.default_factory is not MISSING}


_SCALARS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _mistyped(val, kind: str) -> bool:
    # bools are ints to Python, so they are told apart explicitly
    return (isinstance(val, bool) != (kind == "bool") or not isinstance(val, _SCALARS[kind])
            or (kind == "float" and not math.isfinite(val)))


def _check_types(cfg: ScenarioConfig) -> None:
    # every field by its annotation ("int", "float | None", "list[float]", ...)
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in fields(obj):
            kind, _, optional = f.type.partition(" | ")
            val = getattr(obj, f.name)
            if val is None and optional:
                continue
            if kind.startswith("list"):
                want = "a list of finite numbers" if kind == "list[float]" else "a list"
                bad = not isinstance(val, list) or (
                    kind == "list[float]" and any(_mistyped(v, "float") for v in val))
            else:
                want = "a finite number" if kind == "float" else f"of type {kind}"
                bad = _mistyped(val, kind)
            if bad:
                raise ConfigError(f"{section}.{f.name} must be {want}, got {val!r}")


# the CSV columns an assert may bound: every MetricsRecord field but the text ones
_ASSERTABLE = tuple(f.name for f in fields(MetricsRecord) if f.type not in ("str", "str | None"))


def _check_assert_bounds(asserts) -> None:
    if not isinstance(asserts, dict):
        raise ConfigError("asserts must be an object of metric -> {min, max}")
    for metric, bounds in asserts.items():
        if metric not in _ASSERTABLE:
            raise ConfigError(f"asserts.{metric}: not a numeric metric; one of {list(_ASSERTABLE)}")
        if not isinstance(bounds, dict) or not bounds or not set(bounds) <= {"min", "max"}:
            raise ConfigError(f"asserts.{metric} must be an object with 'min' and/or 'max', "
                              f"got {bounds!r}")
        for key, bound in bounds.items():
            if _mistyped(bound, "float"):
                raise ConfigError(f"asserts.{metric}.{key} must be a finite number, got {bound!r}")


def _built(name: str, build) -> None:
    # the library classes own the ranges of what they are built from: build
    # the object once, and report what it rejects under the config field
    try:
        build()
    except KeyError as exc:
        raise ConfigError(f"{name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _validate(cfg: ScenarioConfig) -> ScenarioConfig:
    _check_types(cfg)
    if cfg.robot.type not in _ROBOT_DEFAULTS:
        raise ConfigError(f"robot.type must be one of {sorted(_ROBOT_DEFAULTS)}")
    if cfg.robot.type == "custom" and not cfg.robot.rods:
        raise ConfigError("custom robot requires robot.rods")
    if cfg.robot.type != "custom" and cfg.robot.rods is not None:
        raise ConfigError(f"robot.rods is for robot.type 'custom'; {cfg.robot.type} is fixed")
    if cfg.robot.link_shape not in ("capsule", "box"):
        raise ConfigError("robot.link_shape must be 'capsule' or 'box'")
    ob = cfg.obstacles
    _built("robot.rods", lambda: build_chain(cfg))
    for k, spec in enumerate(ob.explicit or ()):
        _built(f"obstacles.explicit[{k}]", lambda: explicit_body(spec))
    if ob.count < 0:
        raise ConfigError("obstacles.count must be >= 0")
    if ob.count == 0 and ob.randomize_count and ob.explicit is None:
        raise ConfigError("obstacles.count must be >= 1 when obstacles.randomize_count is true")
    if len(ob.size_range) != 2 or not 0 < ob.size_range[0] <= ob.size_range[1]:
        raise ConfigError("obstacles.size_range must be [lo, hi] with 0 < lo <= hi")
    if ob.motion_steps < 0 or ob.motion_speed < 0:
        raise ConfigError("obstacle motion fields must be non-negative")
    _built("fastron", lambda: (cfg.train_params(), cfg.sampler_params(0)))
    _built("planner", lambda: cfg.plan_query((), (), None, 0))
    pl = cfg.planner
    if pl.algorithm not in PLANNERS:
        raise ConfigError(f"planner.algorithm must be one of {sorted(PLANNERS)}")
    if pl.min_start_goal_dist < 0:
        raise ConfigError("planner.min_start_goal_dist must be >= 0")
    ev = cfg.eval
    if ev.holdout < 1 or ev.timing_calls < 1 or ev.timing_batch < 1:
        raise ConfigError("eval fields must be >= 1")
    if cfg.seeds is not None and (
        not isinstance(cfg.seeds, list) or not cfg.seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in cfg.seeds)
    ):
        raise ConfigError("seeds must be a non-empty list of non-negative integers")
    if cfg.asserts is not None:
        _check_assert_bounds(cfg.asserts)
    return cfg


def load_config(source: str | dict[str, Any]) -> ScenarioConfig:
    """Parse and validate a config from a JSON file path or a dict."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        kwargs[name] = _build(cls, section, name)
    kwargs["seeds"] = data.get("seeds")
    kwargs["asserts"] = data.get("asserts")
    return _validate(ScenarioConfig(**kwargs))
