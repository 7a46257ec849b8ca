"""Tests of the benchmark's own correctness references and bookkeeping."""

import numpy as np
import pytest

from fastron.bench.config import load_config
from fastron.bench.scenarios import build_chain, build_workspace
from fastron.geometry import Box, Workspace, from_input_space, make_label_fn, two_dof_rod
from fastron.model import FastronModel, TrainParams
from fastron.planning import edge_valid

from perfbench.reference import (
    CollisionReference,
    edge_samples,
    fsum_hypothesis,
    link_segments,
    recheck_plan,
    segment_box_distance,
)
from perfbench.workloads import Ledger, spread, tail_percentile


def _dense_distance(a, b, lo, hi, samples=20001):
    ts = np.linspace(0.0, 1.0, samples)[:, None]
    pts = a + ts * (b - a)
    excess = np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)
    return float(np.sqrt((excess * excess).sum(axis=1)).min())


def test_segment_box_distance_matches_dense_sampling():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1, 1, (200, 3))
    B = rng.uniform(-1, 1, (200, 3))
    c = rng.uniform(-0.5, 0.5, (200, 3))
    h = rng.uniform(0.05, 0.4, (200, 3))
    d = segment_box_distance(A, B, c - h, c + h)
    for i in range(200):
        dense = _dense_distance(A[i], B[i], c[i] - h[i], c[i] + h[i])
        # sampling can only overestimate, by at most half a sample spacing
        assert d[i] <= dense + 1e-12
        assert dense - d[i] <= np.linalg.norm(B[i] - A[i]) / 20000 + 1e-12


def test_segment_box_distance_special_cases():
    lo, hi = np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])
    cases = [
        (((-1, 0.5, 0.5), (2, 0.5, 0.5)), 0.0),  # passes through the box
        (((-1, 0.5, 1.5), (2, 0.5, 1.5)), 0.5),  # parallel to a face
        (((2, 2, 2), (2, 2, 2)), np.sqrt(3.0)),  # a point off a corner
        (((-1, 2, 0.5), (2, -1, 0.5)), 0.0),  # clips an edge region
        (((1.5, 1.5, 0.5), (1.5, 3.0, 0.5)), np.sqrt(0.5)),  # closest at an end
    ]
    for (a, b), want in cases:
        got = segment_box_distance(np.array([a], float), np.array([b], float), lo, hi)[0]
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("robot", ["dof2", "dof4"])
def test_link_segments_match_forward_kinematics(robot):
    chain = build_chain(load_config({"robot": {"type": robot}}))
    P = np.random.default_rng(3).uniform(-1, 1, (200, chain.dof))
    segs = link_segments(P, [length for length, _ in chain.rods])
    for k, p in enumerate(P):
        bodies = chain.forward_kinematics(from_input_space(p, chain))
        for (base, tip), body in zip(segs, bodies):
            np.testing.assert_allclose(base[k], body.p0, atol=1e-12)
            np.testing.assert_allclose(tip[k], body.p1, atol=1e-12)


@pytest.mark.parametrize("config", [
    {"robot": {"type": "dof2"}, "obstacles": {"count": 4, "size_range": [0.12, 0.2]}},
    {"robot": {"type": "dof4"}, "obstacles": {"count": 4, "size_range": [0.2, 0.35]}},
])
def test_reference_labels_match_oracle(config):
    cfg = load_config(config)
    chain = build_chain(cfg)
    for seed in range(3):
        ws = build_workspace(cfg, np.random.default_rng(seed), chain)
        label = make_label_fn(chain, ws)
        P = np.random.default_rng(10 + seed).uniform(-1, 1, (1500, chain.dof))
        ref = CollisionReference(chain, ws).labels(P)
        oracle = np.array([label(p) for p in P])
        decided = ref != 0
        assert decided.mean() > 0.99
        assert np.array_equal(ref[decided], oracle[decided])


def test_reference_rejects_what_it_does_not_cover():
    ws = Workspace([Box((0.5, 0, 0.3), (0.1, 0.1, 0.1))])
    with pytest.raises(ValueError):
        CollisionReference(two_dof_rod(link_shape="box"), ws)
    turned = Workspace([Box((0.5, 0, 0.3), (0.1, 0.1, 0.1), ((0, -1, 0), (1, 0, 0), (0, 0, 1)))])
    with pytest.raises(ValueError):
        CollisionReference(two_dof_rod(), turned)


def test_fsum_hypothesis_matches_model():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (300, 2))
    y = np.where(np.linalg.norm(X - 0.2, axis=1) < 0.5, 1.0, -1.0)
    model = FastronModel(TrainParams(gamma=30.0, beta=10.0), dim=2)
    model.set_data(X, y)
    model.train()
    model.sparsify()
    for q in rng.uniform(-1, 1, (50, 2)):
        exact, scale = fsum_hypothesis(model.X, model.alpha, 30.0, q)
        assert abs(model.hypothesis(q) - exact) <= 1e-9 * scale


def test_edge_samples_are_the_points_edge_valid_checks():
    seen = []
    a, b = np.array([-0.3, 0.1]), np.array([0.4, 0.35])
    assert edge_valid(a, b, lambda p: seen.append(p.copy()) is None, 0.05)
    np.testing.assert_allclose(np.array(seen), edge_samples(a, b, 0.05), atol=1e-15)


def test_recheck_plan_flags_bad_plans():
    chain = two_dof_rod()
    ws = Workspace([Box((0.5, 0.0, 0.3), (0.1, 0.1, 0.1))])
    ref = CollisionReference(chain, ws)
    label = make_label_fn(chain, ws)
    start, goal = np.array([-0.5, -0.656]), np.array([0.5, -0.656])  # rod aimed at the box at yaw 0
    assert label(start) == -1 and label(goal) == -1
    assert recheck_plan([start, np.array([0.0, 0.95]), goal], start, goal, ref, 0.025) == []
    through = recheck_plan([start, goal], start, goal, ref, 0.025)
    assert any("collide" in msg for msg in through)
    assert any("goal" in msg for msg in recheck_plan([start, start], start, goal, ref, 0.025))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(50) == 80
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(39) is None


def test_ledger_counts_failures_and_wrong_answers_apart():
    ledger = Ledger()
    ledger.op()
    ledger.op(failures=["no plan"])
    ledger.op(["wrong sign"])
    assert (ledger.attempted, ledger.failed, ledger.incorrect) == (3, 2, 1)


def test_spread_interleaves_tasks_in_order():
    seen = []
    spread([(2, lambda k: seen.append(("a", k))), (4, lambda k: seen.append(("b", k)))])
    assert seen == [("b", 0), ("a", 0), ("b", 1), ("b", 2), ("a", 1), ("b", 3)]
