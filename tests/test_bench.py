import json
from pathlib import Path

import numpy as np
import pytest

from fastron.bench.config import ConfigError, load_config
from fastron.bench.report import (
    COLUMNS,
    TIMING_COLUMNS,
    MetricsRecord,
    emit_report,
    parse_report,
)
from fastron.bench.runners import (
    Scene,
    median_call_times,
    plan_seed,
    run_dynamic_eval,
    run_planning_eval,
    run_static_eval,
    run_sweep,
    static_seeds,
)
from fastron.bench.scenarios import gap_obstacles
from fastron.bench.cli import main
from fastron.planning import PLANNERS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# small-footprint overrides shared by the smoke runs
FAST_EVAL = {"holdout": 1500, "timing_calls": 2000, "timing_batch": 500}


def small_static_config(**extra):
    data = {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 3, "randomize_count": True, "size_range": [0.2, 0.35]},
        "fastron": {"gamma": 30.0, "n0": 600},
        "eval": dict(FAST_EVAL),
    }
    for key, val in extra.items():
        data.setdefault(key, {}).update(val)
    return load_config(data)


# ----------------------------------------------------------------------
# config validation


def test_shipped_configs_validate():
    for path in CONFIG_DIR.glob("*.json"):
        load_config(str(path))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        load_config({"robots": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        load_config({"fastron": {"gama": 1.0}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        load_config({"fastron": {"beta": 0.5}})
    with pytest.raises(ConfigError):
        load_config({"obstacles": {"size_range": [0.5, 0.2]}})
    with pytest.raises(ConfigError):
        load_config({"planner": {"algorithm": "prm"}})
    with pytest.raises(ConfigError):
        load_config({"robot": {"type": "dof7"}})


@pytest.mark.parametrize("section, key, value", [
    ("fastron", "gamma", float("nan")),
    ("fastron", "beta", float("nan")),
    ("fastron", "sigma", float("inf")),
    ("obstacles", "count", "4"),
    ("obstacles", "count", True),
    ("obstacles", "randomize_count", 1),
    ("robot", "type", ["dof2"]),
    ("eval", "holdout", 100.0),
])
def test_non_finite_and_mistyped_values_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config({section: {key: value}})


def test_sweep_override_rejects_non_finite():
    with pytest.raises(ConfigError, match="fastron.beta"):
        load_config({}).with_override("beta", float("nan"))


@pytest.mark.parametrize("section, key, value, field", [
    ("fastron", "iter_max", 0, "iter_max"),
    ("fastron", "n0", 0, "n_initial"),
    ("fastron", "kappa", -1, "kappa"),
    ("planner", "edge_resolution", 0.0, "edge_resolution"),
    ("planner", "max_iterations", 0, "max_iterations"),
    ("planner", "goal_bias", 1.5, "goal_bias"),
])
def test_library_ranges_reject_config_values_by_section(section, key, value, field):
    with pytest.raises(ConfigError, match=f"{section}: {field}"):
        load_config({section: {key: value}})


def test_config_defaults_are_the_library_defaults():
    from fastron.model import TrainParams
    from fastron.planning import PlanQuery
    from fastron.sampling import SamplerParams

    cfg = load_config({})
    assert cfg.train_params() == TrainParams()
    assert cfg.sampler_params(seed=0) == SamplerParams()
    q, ref = cfg.plan_query((), (), None, seed=0), PlanQuery((), (), None)
    for f in ("edge_resolution", "step_size", "goal_bias", "max_iterations", "seed"):
        assert getattr(q, f) == getattr(ref, f)


def test_robot_type_defaults():
    cfg2 = load_config({"robot": {"type": "dof2"}})
    cfg4 = load_config({"robot": {"type": "dof4"}})
    assert cfg2.resolved_gamma() == 30.0 and cfg2.resolved_n0() == 2000
    assert cfg4.resolved_gamma() == 10.0 and cfg4.resolved_n0() == 4000


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


# ----------------------------------------------------------------------
# CSV report


def test_empty_report_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_report([], out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == ",".join(COLUMNS)


def test_records_round_trip(tmp_path):
    recs = [
        MetricsRecord(run="static", seed=3, accuracy=0.987654, tpr=0.5, tnr=None,
                      support_count=42, query_time_proxy=3.2e-6, update_time=0.125),
        MetricsRecord(run="plan", seed=0, route="proxy", certified=True, plan_found=True,
                      plan_time=0.5, verify_time=0.01, repair_time=0.0),
        MetricsRecord(run="sweep", seed=1, param="beta", value=100.0, accuracy=0.9),
    ]
    out = tmp_path / "r.csv"
    emit_report(recs, out)
    back = parse_report(out)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert a.run == b.run and a.seed == b.seed
        if a.accuracy is None:
            assert b.accuracy is None
        else:
            assert b.accuracy == pytest.approx(a.accuracy, abs=1e-6)
        assert a.certified == b.certified and a.plan_found == b.plan_found
        assert a.param == b.param and a.value == b.value
    # constant column count across run types
    rows = out.read_text().strip().splitlines()
    assert all(r.count(",") == rows[0].count(",") for r in rows)


def test_columns_follow_record_fields():
    from dataclasses import fields

    assert [c.removesuffix("_ns") for c in COLUMNS] == [f.name for f in fields(MetricsRecord)]
    assert TIMING_COLUMNS == {c for c in COLUMNS if c.endswith("_ns")}
    assert len(TIMING_COLUMNS) == 6


def test_sweep_summary_file(tmp_path):
    recs = [MetricsRecord(run="sweep", seed=0, param="beta", value=1.0, accuracy=0.9)]
    out = tmp_path / "s.csv"
    emit_report(recs, out, summary_rows=[("beta", 1.0, {"accuracy": 0.9})])
    summary = (tmp_path / "s.csv.summary.dat").read_text().splitlines()
    assert summary[0].startswith("#")
    assert "beta" in summary[1]


# ----------------------------------------------------------------------
# runners (smoke scale)


def test_median_call_times_alternate_batches_over_the_same_queries():
    # each function sees the query sequence it would see timed alone, and
    # the batches take turns, so host drift reaches both alike
    log = []
    fns = (lambda q: log.append(("a", q)), lambda q: log.append(("b", q)))
    medians = median_call_times(fns, list(range(5)), 7, 3)
    assert len(medians) == 2 and all(t >= 0.0 for t in medians)
    assert [name for name, _ in log] == list("aaabbbaaabbbab")
    for name in "ab":
        assert [q for n, q in log if n == name] == [0, 1, 2, 3, 4, 0, 1]


def test_static_eval_smoke():
    cfg = small_static_config()
    recs = run_static_eval(cfg, [0, 1])
    assert len(recs) == 2
    for r in recs:
        assert r.accuracy is not None and r.accuracy > 0.85
        assert r.support_count is not None and 0 < r.support_count <= 600
        assert r.query_time_proxy is not None and r.query_time_proxy > 0
        assert r.query_time_oracle is not None


def test_static_eval_zero_obstacle_degenerate_tpr():
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"explicit": []},
        "fastron": {"n0": 200},
        "eval": dict(FAST_EVAL),
    })
    recs = run_static_eval(cfg, [0])
    assert recs[0].tpr is None  # no positives exist
    assert recs[0].tnr == 1.0
    assert recs[0].accuracy == 1.0


def test_sweep_directional_smoke():
    cfg = small_static_config()
    recs, summary = run_sweep(cfg, "beta", [1.0, 100.0], [0, 1, 2])
    assert len(recs) == 6
    assert {r.value for r in recs} == {1.0, 100.0}
    means = {v: s for _, v, s in summary}
    assert means[100.0]["tpr"] >= means[1.0]["tpr"]


def test_dynamic_eval_accounting_smoke():
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 1, "randomize_count": False, "size_range": [0.25, 0.35],
                       "motion_steps": 4, "motion_speed": 0.03},
        "fastron": {"n0": 600, "a_max": 150},
        "eval": {"holdout": 800, "timing_calls": 1000, "timing_batch": 500},
    })
    recs = run_dynamic_eval(cfg, [0])
    assert len(recs) == 4
    assert recs[0].oracle_calls == 600  # first cycle: initial dataset
    for prev, cur in zip(recs, recs[1:]):
        assert cur.oracle_calls == prev.support_count + 150


def test_planning_eval_smoke():
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"explicit": gap_obstacles()},
        "fastron": {"gamma": 30.0, "beta": 100.0, "n0": 800},
        "eval": dict(FAST_EVAL),
    })
    recs, scenes_plans = [], []
    for seed in (0, 1):
        scene = Scene(cfg, seed)
        seed_recs, _, _, plans = plan_seed(scene)
        recs += seed_recs
        scenes_plans.append((scene, plans))
    assert len(recs) == 4
    by_route = {}
    for r in recs:
        by_route.setdefault(r.route, []).append(r)
    assert set(by_route) == {"proxy", "oracle"}
    for r in recs:
        if r.plan_found:
            assert r.certified
    # certified plans withstand an independent verification pass
    from fastron.geometry import make_label_fn
    from fastron.planning import verify_plan

    for scene, plans in scenes_plans:
        label = make_label_fn(scene.chain, scene.workspace)
        for plan in plans.values():
            if plan is not None and plan.certified:
                assert verify_plan(plan, lambda p: label(p) == -1, 0.025) == []


# ----------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_static_and_exit_codes(tmp_path):
    cfg = write_cfg(tmp_path, {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 2, "randomize_count": True},
        "fastron": {"n0": 400},
        "eval": {"holdout": 600, "timing_calls": 1000, "timing_batch": 500},
        "asserts": {"accuracy": {"min": 0.5}},
    })
    out = tmp_path / "out.csv"
    code = main(["static", "--config", cfg, "--out", str(out), "--seeds", "1", "--assert"])
    assert code == 0
    recs = parse_report(out)
    assert len(recs) == 1 and recs[0].run == "static"


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"fastron": {"beta": -1}})
    assert main(["static", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert main(["static", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_cli_bad_sweep_values_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}})
    out = str(tmp_path / "o.csv")
    for parameter, values in (("gamma", "1,x"), ("gamma", "-5"),
                              # these used to run 2 obstacles, exit 4 and raise OverflowError
                              ("obstacle_count", "3,2.5"), ("obstacle_count", "nan"),
                              ("obstacle_count", "inf")):
        assert main(["sweep", "--config", cfg, "--out", out, "--seeds", "1",
                     "--parameter", parameter, "--values", values]) == 2
        assert "config error: " in capsys.readouterr().err


def test_cli_runtime_error_exit_4(tmp_path, monkeypatch, capsys):
    import fastron.bench.cli as cli
    from fastron.model import DuplicatePointError

    def duplicate(cfg, seeds):
        raise DuplicatePointError("appended points collide with retained set")

    monkeypatch.setattr(cli, "run_dynamic_eval", duplicate)
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}})
    assert main(["dynamic", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 4
    assert "runtime error: appended points collide" in capsys.readouterr().err


def test_cli_planner_fault_exit_4(tmp_path, monkeypatch, capsys):
    # random_start_goal draws free endpoints, so a planner ValueError is a
    # fault; it used to be written as plan_found = 0 with exit 0
    def broken(query):
        raise ValueError("boom")

    monkeypatch.setitem(PLANNERS, "rrt_connect", broken)
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}, "obstacles": {"count": 2},
                               "fastron": {"n0": 300}})
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--seeds", "1"]) == 4
    assert "runtime error: boom" in capsys.readouterr().err


def test_cli_mistyped_config_value_exit_2(tmp_path, capsys):
    for data, name in (
        ({"obstacles": {"count": "4"}}, "obstacles.count"),
        ({"fastron": {"gamma": float("nan")}}, "fastron.gamma"),
        ({"seeds": [True]}, "seeds"),  # used to run as seed 1
        ({"obstacles": {"size_range": ["a", "b"]}}, "obstacles.size_range"),  # TypeError, exit 1
        ({"obstacles": {"explicit": [{"size": 0.3}]}}, "obstacles.explicit[0]"),  # KeyError
        # these used to exit 4 as runtime errors
        ({"robot": {"type": "custom", "rods": [[1.0, -0.1]]}}, "robot.rods"),
        ({"robot": {"type": "custom", "rods": [["a", 0.1]]}}, "robot.rods"),
        # these used to exit 0: the fixed rod ran, and every dof2 pose was labelled colliding
        ({"robot": {"type": "dof2", "rods": [[5, 5]]}}, "robot.rods"),
        ({"obstacles": {"explicit": [{"center": [float("nan"), 0, 0], "size": 0.3}]}},
         "obstacles.explicit[0]"),
        # these used to be read loosely: a misspelled key ignored, half_extents
        # winning over size, True as a size of 1, a rotation stretching the box
        ({"obstacles": {"explicit": [{"center": [0.5, 0, 0.3], "size": 0.3,
                                      "rotaton": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]}]}},
         "obstacles.explicit[0]"),
        ({"obstacles": {"explicit": [{"center": [0.5, 0, 0.3], "size": 0.3,
                                      "half_extents": [0.1, 0.1, 0.1]}]}},
         "obstacles.explicit[0]"),
        ({"obstacles": {"explicit": [{"center": [0.5, 0, 0.3], "size": True}]}},
         "obstacles.explicit[0]"),
        # booleans inside the lists used to be read as 1.0 and 0.0
        ({"obstacles": {"explicit": [{"center": [True, 0, 0.3], "size": 0.3}]}},
         "obstacles.explicit[0]: center must hold numbers"),
        ({"obstacles": {"explicit": [{"center": [0.5, 0, 0.3],
                                      "half_extents": [0.1, True, 0.1]}]}},
         "obstacles.explicit[0]: half_extents must hold numbers"),
        ({"obstacles": {"explicit": [{"center": [0.5, 0, 0.3], "size": 0.3,
                                      "rotation": [[True, False, False], [0, 1, 0],
                                                   [0, 0, 1]]}]}},
         "obstacles.explicit[0]: rotation must hold numbers"),
        ({"obstacles": {"explicit": [{"center": [0.5, 0, 0.3], "size": 0.3,
                                      "rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}]}},
         "obstacles.explicit[0]"),
        ({"obstacles": {"placement_radius": [0.3, 0.95]}}, "obstacles: unknown keys"),
    ):
        cfg = write_cfg(tmp_path, data)
        assert main(["static", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"config error: {name}" in capsys.readouterr().err


@pytest.mark.parametrize("asserts", [
    {"acuracy": {"min": 0.9}},  # used to exit 3: "no values recorded"
    {"accuracy": {"minimum": 0.99}},  # used to be ignored, so the gate never fired
    {"accuracy": {"min": "0.5"}},  # used to raise TypeError after the whole run
    {"route": {"min": 0.0}},
    {"accuracy": {}},
    {"accuracy": {"max": True}},
    {"support_count": {"max": float("inf")}},
])
def test_cli_bad_asserts_exit_2(tmp_path, capsys, asserts):
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}, "fastron": {"n0": 300},
                               "eval": {"holdout": 100, "timing_calls": 100},
                               "asserts": asserts})
    assert main(["static", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--seeds", "1",
                 "--assert"]) == 2
    assert f"config error: asserts.{next(iter(asserts))}" in capsys.readouterr().err


def test_cli_assert_failure_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 2},
        "fastron": {"n0": 300},
        "eval": {"holdout": 500, "timing_calls": 1000, "timing_batch": 500},
        "asserts": {"accuracy": {"min": 1.01}},  # unattainable
    })
    code = main(["static", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                 "--seeds", "1", "--assert"])
    assert code == 3


def test_cli_save_and_load_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 2},
        "fastron": {"n0": 400},
        "eval": {"holdout": 500, "timing_calls": 1000, "timing_batch": 500},
    })
    model_path = tmp_path / "model.txt"
    code = main(["static", "--config", cfg, "--out", str(tmp_path / "a.csv"),
                 "--seeds", "1", "--save-model", str(model_path)])
    assert code == 0
    assert model_path.read_text().startswith("fastron v1 ")
    code = main(["static", "--config", cfg, "--out", str(tmp_path / "b.csv"),
                 "--seeds", "1", "--load-model", str(model_path)])
    assert code == 0
    recs = parse_report(tmp_path / "b.csv")
    assert recs[0].accuracy is not None
    # a model of another dimension is rejected at load, before the holdout is
    # labelled; it used to end as "runtime error: dimension mismatch", exit 4
    cfg4 = write_cfg(tmp_path, {"robot": {"type": "dof4"}, "eval": {"holdout": 500}})
    code = main(["static", "--config", cfg4, "--out", str(tmp_path / "c.csv"),
                 "--seeds", "1", "--load-model", str(model_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --load-model: ") and err.count("\n") == 1
    assert "dimension 2" in err and "dimension 4" in err
    assert not (tmp_path / "c.csv").exists()


def test_cli_unreadable_model_file_exit_2(tmp_path, capsys):
    # a missing file used to end in a FileNotFoundError traceback, exit 1
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}})
    (tmp_path / "bad.txt").write_text("fastron v2\n")
    for name in ("missing.txt", "bad.txt"):
        assert main(["static", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                     "--load-model", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --load-model: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, flags, message", [
    ("dynamic", ["--save-model", "b.txt"], "unrecognized arguments: --save-model"),
    ("static", ["--load-model", "a.txt", "--save-model", "b.txt"], "not allowed with argument"),
], ids=["dynamic-save", "static-load-and-save"])
def test_cli_model_flags_are_static_only_and_exclusive(tmp_path, capsys, command, flags, message):
    # both runs used to exit 0 without writing b.txt
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}, "fastron": {"n0": 300},
                               "obstacles": {"motion_steps": 1},
                               "eval": {"holdout": 100, "timing_calls": 100}})
    run = ["--config", cfg, "--out", str(tmp_path / "o.csv"), "--seeds", "1"]
    assert main(["static", *run, "--save-model", str(tmp_path / "a.txt")]) == 0
    flags = [str(tmp_path / f) if f.endswith(".txt") else f for f in flags]
    with pytest.raises(SystemExit) as exc:
        main([command, *run, *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.txt").exists()


def test_cli_save_model_trains_each_seed_once(tmp_path, monkeypatch):
    trained = []
    train = Scene.train

    def counted(scene):
        trained.append(scene.seed)
        return train(scene)

    monkeypatch.setattr(Scene, "train", counted)
    data = {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 2},
        "fastron": {"n0": 300},
        "eval": {"holdout": 400, "timing_calls": 1000, "timing_batch": 500},
    }
    saved = tmp_path / "model.txt"
    code = main(["static", "--config", write_cfg(tmp_path, data), "--out",
                 str(tmp_path / "o.csv"), "--seeds", "2", "--save-model", str(saved)])
    assert code == 0
    assert trained == [0, 1]
    [(_, model)] = static_seeds([Scene(load_config(data), 0)])
    model.save(tmp_path / "expected.txt")
    assert saved.read_text() == (tmp_path / "expected.txt").read_text()


def test_cli_seed_count_below_one_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}, "fastron": {"n0": 300}})
    out = str(tmp_path / "o.csv")
    for flags in (["--seeds", "0"], ["--seeds", "-2"], ["--seed-offset", "-1"]):
        code = main(["static", "--config", cfg, "--out", out, "--save-model",
                     str(tmp_path / "m.txt"), *flags])
        assert code == 2
        assert f"config error: {flags[0]}" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}, "seeds": []})
    assert main(["static", "--config", cfg, "--out", out]) == 2


@pytest.mark.parametrize("command, section, key, value", [
    # draws 1..0 obstacles: used to die mid-run with "low >= high", exit 4
    ("static", "obstacles", "count", 0),
    # used to pass validation and act as 0
    ("plan", "planner", "min_start_goal_dist", -0.5),
])
def test_cli_values_that_reached_the_run_unchecked_exit_2(tmp_path, capsys,
                                                          command, section, key, value):
    cfg = write_cfg(tmp_path, {"robot": {"type": "dof2"}, "fastron": {"n0": 300},
                               "planner": {"max_iterations": 200},
                               "eval": {"holdout": 100, "timing_calls": 100},
                               section: {key: value}})
    out = str(tmp_path / "o.csv")
    assert main([command, "--config", cfg, "--out", out, "--seeds", "1"]) == 2
    assert f"config error: {section}.{key}" in capsys.readouterr().err


def test_planning_eval_frees_each_model_before_the_next_trains(monkeypatch):
    import weakref

    models = []
    train = Scene.train

    def tracked(scene):
        assert all(ref() is None for ref in models), "an earlier seed's model is still alive"
        result = train(scene)
        models.append(weakref.ref(result[0]))
        return result

    monkeypatch.setattr(Scene, "train", tracked)
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"explicit": gap_obstacles()},
        "fastron": {"gamma": 30.0, "beta": 100.0, "n0": 300},
        "planner": {"max_iterations": 200},
        "eval": dict(FAST_EVAL),
    })
    recs = run_planning_eval(cfg, [0, 1, 2])
    assert len(models) == 3 and len(recs) == 6


def test_cli_sweep_emits_summary(tmp_path):
    cfg = write_cfg(tmp_path, {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 2},
        "fastron": {"n0": 300},
        "eval": {"holdout": 400, "timing_calls": 1000, "timing_batch": 500},
    })
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "1",
                 "--parameter", "beta", "--values", "1,10"])
    assert code == 0
    assert (tmp_path / "sweep.csv.summary.dat").exists()
    recs = parse_report(out)
    assert {r.value for r in recs} == {1.0, 10.0}


def test_reproducibility_modulo_timing(tmp_path):
    cfg = write_cfg(tmp_path, {
        "robot": {"type": "dof2"},
        "obstacles": {"count": 2},
        "fastron": {"n0": 400},
        "eval": {"holdout": 500, "timing_calls": 1000, "timing_batch": 500},
    })
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["static", "--config", cfg, "--out", str(out1), "--seeds", "2"]) == 0
    assert main(["static", "--config", cfg, "--out", str(out2), "--seeds", "2"]) == 0
    import csv

    def strip_timing(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, c in enumerate(rows[0]) if not c.endswith("_ns")]
        return [[row[i] for i in keep] for row in rows]

    assert strip_timing(out1) == strip_timing(out2)


# ----------------------------------------------------------------------
# empirical behavior on the desk-scale scenarios


def test_static_eval_support_band_20_seeds():
    # canonical 2 DOF scenario: support set stays small but nonempty
    cfg = load_config(str(CONFIG_DIR / "static_2dof.json"))
    cfg.eval.holdout = 1000
    cfg.eval.timing_calls = 1000
    cfg.eval.timing_batch = 500
    recs = run_static_eval(cfg, list(range(20)))
    sizes = [r.support_count for r in recs]
    assert max(sizes) <= 400
    assert min(sizes) > 0


def test_lazy_gram_accounting_on_bench_workload():
    cfg = small_static_config()
    model, _ = Scene(cfg, 0).train()
    gram = model.gram
    # counted evaluations never exceed one column's worth per touched column,
    # and the workload leaves most of the matrix untouched
    n0 = cfg.resolved_n0()
    assert gram.kernel_evals < n0 * n0


@pytest.mark.parametrize("case", ["eager", "over-counted"])
def test_lazy_fill_guard_raises_on_an_over_evaluated_gram(case):
    # an explicit exception, so the guard holds under python -O as well
    from fastron.bench.runners import _check_lazy_fill
    from fastron.model import FastronModel, TrainParams

    X = np.random.default_rng(4).uniform(-1, 1, (120, 2))
    model = FastronModel(TrainParams(gamma=10.0), dim=2)
    model.set_data(X, np.ones(len(X)))
    _check_lazy_fill(model)  # nothing evaluated yet
    if case == "eager":
        for j in range(model.n):  # all n^2 kernels
            model.gram.ensure_column(model.X, j)
    else:
        model.gram.ensure_column(model.X, 0)
        model.gram.reset(10)  # 120 evaluations, 10 rows, no column
    with pytest.raises(RuntimeError, match="kernel_evals"):
        _check_lazy_fill(model)


def test_dynamic_accuracy_settles_quickly():
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 1, "randomize_count": False, "size_range": [0.25, 0.35],
                       "motion_steps": 12, "motion_speed": 0.02},
        "fastron": {"gamma": 30.0, "n0": 2000, "a_max": 500},
        "eval": {"holdout": 2000, "timing_calls": 1000, "timing_batch": 500},
    })
    recs = run_dynamic_eval(cfg, [0])
    accs = [r.accuracy for r in recs[2:]]
    assert float(np.mean(accs)) >= 0.90


def test_dynamic_recovery_from_teleporting_obstacle():
    from fastron.bench.runners import CountingLabeler
    from fastron.geometry import Box, Workspace, make_label_fn
    from fastron.model import FastronModel, TrainParams
    from fastron.sampling import SamplerParams, update_cycle
    from fastron.bench.scenarios import build_chain

    cfg = small_static_config()
    chain = build_chain(cfg)
    model = FastronModel(TrainParams(gamma=30.0), dim=2, capacity=3000)
    sampler = SamplerParams(a_max=400, kappa=4, seed=0, n_initial=1500)
    ws_a = Workspace([Box((0.55, 0.1, 0.25), (0.14, 0.14, 0.14))])
    ws_b = Workspace([Box((-0.4, -0.45, 0.3), (0.14, 0.14, 0.14))])  # jump
    update_cycle(model, CountingLabeler(make_label_fn(chain, ws_a)), sampler)
    label_b = make_label_fn(chain, ws_b)
    rng = np.random.default_rng(99)
    Q = rng.uniform(-1, 1, (3000, 2))
    truth = np.array([label_b(q) for q in Q])
    acc = 0.0
    for _ in range(3):
        update_cycle(model, CountingLabeler(label_b), sampler)
        acc = float(np.mean(model.predict_batch(Q) == truth))
    assert acc >= 0.85


def test_obstacle_count_sweep_direction():
    # geometric checking scales with obstacle count; the proxy's cost
    # follows the support count, which peaks near 50% occupancy
    from scipy.stats import spearmanr

    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 4, "randomize_count": False, "size_range": [0.12, 0.2]},
        "fastron": {"gamma": 30.0, "n0": 2000},
        "eval": {"holdout": 1000, "timing_calls": 30000, "timing_batch": 1000},
    })
    values = [1, 4, 12, 30, 80]
    recs, summary = run_sweep(cfg, "obstacle_count", values, [0, 1])
    means = {int(v): s for _, v, s in summary}
    oracle_t = [means[v]["query_time_oracle"] for v in values]
    rho, _ = spearmanr(values, oracle_t)
    assert rho > 0.9  # oracle cost increases monotonically in rank
    support = [means[v]["support_count"] for v in values]
    s_peak = int(np.argmax(support))
    assert 0 < s_peak < len(values) - 1  # support count peaks mid-sweep
    proxy_t = [means[v]["query_time_proxy"] for v in values]
    interior_max = max(proxy_t[1:-1])
    assert interior_max > proxy_t[0]  # proxy time rises ...
    assert interior_max > proxy_t[-1]  # ... before falling again


def test_gamma_sweep_support_ratio_trend():
    # beyond the accuracy-optimal width, narrower kernels buy support points
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 4, "randomize_count": True, "size_range": [0.12, 0.2]},
        "fastron": {"n0": 2000},
        "eval": {"holdout": 500, "timing_calls": 1000, "timing_batch": 500},
    })
    values = [5.0, 30.0, 1000.0]
    recs, summary = run_sweep(cfg, "gamma", values, [0, 1, 2, 3])
    means = {v: s for _, v, s in summary}
    sizes = [means[v]["support_count"] for v in values]
    assert sizes[2] > sizes[1] > sizes[0]


def test_proxy_plan_invalid_edge_fraction_and_repair_rate():
    # on random scenarios the biased proxy over-covers obstacles, so its
    # plans rarely contain oracle-invalid segments
    from fastron.planning import PlanQuery, rrt_connect_plan, verify_plan

    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 4, "randomize_count": True, "size_range": [0.12, 0.2]},
        "fastron": {"gamma": 30.0, "beta": 100.0, "n0": 2000},
        "eval": dict(FAST_EVAL),
    })
    # each seed's model and start/goal pair come from its plan_seed run, and
    # are re-planned with the proxy alone to count oracle-invalid edges
    recs, edge_total, edge_invalid = [], 0, 0
    for seed in range(15):
        scene = Scene(cfg, seed)
        seed_recs, model, pair, _ = plan_seed(scene)
        recs += seed_recs
        if pair is None:
            continue
        proxy_free = lambda p, m=model: m.predict(p) == -1
        plan = rrt_connect_plan(PlanQuery(pair[0], pair[1], proxy_free, seed=seed))
        if plan is None:
            continue
        invalid = verify_plan(plan, scene.free, 0.025)
        edge_total += len(plan.waypoints) - 1
        edge_invalid += len(invalid)
    proxy = [r for r in recs if r.route == "proxy" and r.plan_found]
    repaired = sum(1 for r in proxy if (r.repair_time or 0.0) > 0.0)
    assert len(proxy) >= 10
    assert repaired / len(proxy) < 0.5
    assert edge_total > 0
    assert edge_invalid / edge_total < 0.05


def test_static_eval_4dof_smoke():
    cfg = load_config({
        "robot": {"type": "dof4"},
        "obstacles": {"count": 3, "randomize_count": True, "size_range": [0.2, 0.3]},
        "fastron": {"gamma": 10.0, "beta": 100.0, "n0": 800},
        "eval": {"holdout": 1000, "timing_calls": 1000, "timing_batch": 500},
    })
    recs = run_static_eval(cfg, [0])
    assert recs[0].accuracy > 0.7
    assert recs[0].support_count > 0


def test_workspace_generation_with_box_links():
    scene = Scene(load_config({
        "robot": {"type": "dof2", "link_shape": "box"},
        "obstacles": {"count": 3, "randomize_count": False},
    }), 0)
    assert len(scene.workspace.obstacles) == 3
    assert scene.label(np.zeros(2)) in (-1, 1)
