"""Benchmark harness: configs, scenario generation, runners, CSV reports."""

from .config import ConfigError, ScenarioConfig, load_config
from .report import COLUMNS, MetricsRecord, TIMING_COLUMNS, emit_report, parse_report
from .runners import (
    median_call_times,
    run_dynamic_eval,
    run_planning_eval,
    run_static_eval,
    run_sweep,
)
from .scenarios import build_chain, build_workspace, gap_obstacles, random_start_goal

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_config",
    "MetricsRecord",
    "COLUMNS",
    "TIMING_COLUMNS",
    "emit_report",
    "parse_report",
    "run_static_eval",
    "run_sweep",
    "run_dynamic_eval",
    "run_planning_eval",
    "median_call_times",
    "build_chain",
    "build_workspace",
    "gap_obstacles",
    "random_start_goal",
]
