import math

import numpy as np
import pytest

from fastron.planning import (
    MotionPlan,
    PlanQuery,
    edge_valid,
    plan_and_certify,
    repair_plan,
    rrt_connect_plan,
    rrt_plan,
    verify_plan,
)


def all_free(_p):
    return True


class Disc:
    """Checker blocked inside a disc; counts calls."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = radius
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return float(np.linalg.norm(p - self.center)) > self.radius


class WallWithGap:
    """Blocked on the x=0 hyperplane slab except |y| < gap."""

    def __init__(self, thickness=0.08, gap=0.15):
        self.thickness = thickness
        self.gap = gap
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return not (abs(p[0]) < self.thickness and abs(p[1]) > self.gap)


# ----------------------------------------------------------------------
# edge_valid


def test_edge_valid_point_edge():
    assert edge_valid([0.1, 0.1], [0.1, 0.1], all_free, 0.05) is True


def test_edge_valid_detects_blocked_midpoint():
    chk = Disc([0.0, 0.0], 0.1)
    assert edge_valid([-0.5, 0.0], [0.5, 0.0], chk, 0.05) is False


def test_edge_valid_endpoint_blocked():
    chk = Disc([0.5, 0.0], 0.05)
    assert edge_valid([-0.5, 0.0], [0.5, 0.0], chk, 0.05) is False


def test_edge_valid_agrees_with_finer_resolution():
    # fixed scenario: smooth obstacle, short random free-space edges
    chk = Disc([0.2, -0.1], 0.3)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        a = rng.uniform(-1, 1, 2)
        b = a + rng.uniform(-0.15, 0.15, 2)
        b = np.clip(b, -1, 1)
        if not (chk(a) and chk(b)):
            continue
        checked += 1
        assert edge_valid(a, b, chk, 0.02) == edge_valid(a, b, chk, 0.002)


def test_edge_valid_samples_are_bitwise_a_plus_k_delta():
    # sample k of an edge is a + k * delta with delta = (b - a) / steps, bitwise
    rng = np.random.default_rng(13)
    edges = [(a, a.copy()) for a in rng.uniform(-1, 1, (5, 2))]
    edges += [(a, a + rng.uniform(-0.01, 0.01, 4)) for a in rng.uniform(-0.9, 0.9, (5, 4))]
    edges += list(zip(rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (20, 3))))
    edges.append((-np.ones(4), np.ones(4)))
    for a, b in edges:
        for res in (0.005, 0.025, 0.05, 0.3, 5.0):  # 0.005: several sample blocks
            steps = max(1, math.ceil(float(np.linalg.norm(b - a)) / res))
            delta = (b - a) / steps
            want = [(a + k * delta).tobytes() for k in range(steps + 1)]
            assert _edge_samples(a, b, res) == want


def test_edge_valid_requires_positive_resolution():
    with pytest.raises(ValueError):
        edge_valid([0.0], [1.0], all_free, 0.0)


def test_edge_valid_rejects_infinite_resolution():
    # an infinite resolution would check the endpoints only
    with pytest.raises(ValueError, match="resolution"):
        edge_valid([-0.5, 0.0], [0.5, 0.0], Disc([0.0, 0.0], 0.1), float("inf"))


@pytest.mark.parametrize("kw, field", [
    ({"max_iterations": 0}, "max_iterations"),
    ({"max_iterations": 10.5}, "max_iterations"),
    ({"edge_resolution": float("inf")}, "edge_resolution"),
    ({"step_size": float("nan")}, "step_size"),
    ({"goal_bias": 1.5}, "goal_bias"),
    ({"seed": -1}, "seed"),
    ({"goal": np.ones(3)}, "goal"),
    ({"start": np.zeros((1, 2))}, "start"),
    ({"goal": np.ones((2, 2))}, "goal"),
    ({"start": 0.0}, "start"),
    ({"start": [0.0, np.nan]}, "start"),
    ({"goal": [np.inf, 0.0]}, "goal"),
])
def test_plan_query_rejects_non_finite_and_out_of_range(kw, field):
    # start and goal: 1-D, of one shape, finite; the field is named
    with pytest.raises(ValueError, match=field):
        PlanQuery(**{"start": np.zeros(2), "goal": np.ones(2), "checker": all_free, **kw})


def test_plan_query_accepts_the_empty_pair():
    # config validation builds PlanQuery((), (), None) to range-check the planner section
    q = PlanQuery((), (), None)
    assert q.start.shape == q.goal.shape == (0,)


def test_plan_query_accepts_numpy_integer_seed():
    q = PlanQuery(np.zeros(2), np.ones(2), all_free, seed=np.int64(7), max_iterations=np.int32(9))
    assert q.seed == 7 and q.max_iterations == 9


# ----------------------------------------------------------------------
# planners


@pytest.mark.parametrize("planner", [rrt_plan, rrt_connect_plan])
def test_start_equals_goal(planner):
    q = PlanQuery(np.array([0.2, 0.2]), np.array([0.2, 0.2]), all_free)
    plan = planner(q)
    assert len(plan.waypoints) == 1


@pytest.mark.parametrize("planner", [rrt_plan, rrt_connect_plan])
def test_collision_start_rejected(planner):
    chk = Disc([0.0, 0.0], 0.2)
    with pytest.raises(ValueError):
        planner(PlanQuery(np.array([0.0, 0.0]), np.array([0.9, 0.9]), chk))


@pytest.mark.parametrize("planner", [rrt_plan, rrt_connect_plan])
def test_empty_workspace_monte_carlo(planner):
    # >= 49 of 50 random seeds find a plan in a free 2-D space
    rng = np.random.default_rng(0)
    success = 0
    for seed in range(50):
        start = rng.uniform(-1, 1, 2)
        goal = rng.uniform(-1, 1, 2)
        plan = planner(PlanQuery(start, goal, all_free, seed=seed, max_iterations=5000))
        if plan is not None:
            success += 1
    assert success >= 49


@pytest.mark.parametrize("planner", [rrt_plan, rrt_connect_plan])
def test_gap_scenario_paths_pass_edge_checks(planner):
    chk = WallWithGap()
    start = np.array([-0.6, 0.6])
    goal = np.array([0.6, 0.6])
    for seed in range(5):
        plan = planner(PlanQuery(start, goal, chk, seed=seed))
        assert plan is not None
        for a, b in zip(plan.waypoints, plan.waypoints[1:]):
            assert edge_valid(a, b, chk, 0.05)
        np.testing.assert_array_equal(plan.waypoints[0], start)
        np.testing.assert_array_equal(plan.waypoints[-1], goal)


def test_connect_beats_rrt_on_gap_median_iterations():
    chk = WallWithGap()
    start = np.array([-0.6, 0.6])
    goal = np.array([0.6, 0.6])
    it_r, it_c = [], []
    for seed in range(50):
        pr = rrt_plan(PlanQuery(start, goal, chk, seed=seed))
        pc = rrt_connect_plan(PlanQuery(start, goal, chk, seed=seed))
        assert pr is not None and pc is not None
        it_r.append(pr.iterations)
        it_c.append(pc.iterations)
    assert np.median(it_c) <= np.median(it_r)


def test_determinism_per_seed():
    chk = WallWithGap()
    q1 = PlanQuery(np.array([-0.6, 0.6]), np.array([0.6, 0.6]), chk, seed=11)
    q2 = PlanQuery(np.array([-0.6, 0.6]), np.array([0.6, 0.6]), chk, seed=11)
    p1 = rrt_connect_plan(q1)
    p2 = rrt_connect_plan(q2)
    assert len(p1.waypoints) == len(p2.waypoints)
    for a, b in zip(p1.waypoints, p2.waypoints):
        np.testing.assert_array_equal(a, b)


def test_waypoints_stay_in_unit_box():
    chk = WallWithGap()
    for seed in range(5):
        plan = rrt_connect_plan(
            PlanQuery(np.array([-0.6, 0.6]), np.array([0.6, 0.6]), chk, seed=seed)
        )
        for w in plan.waypoints:
            assert np.abs(w).max() <= 1.0


@pytest.mark.parametrize("max_iterations, seed", [(1, 0), (2, 2)])
def test_connect_adds_more_nodes_than_iterations(max_iterations, seed):
    # one connect step walks the start tree along the wall, so the trees
    # outgrow any capacity guessed from max_iterations
    def wall(p):
        return not (-0.6 <= p[0] <= -0.5 and p[1] > -0.95)

    query = PlanQuery([-0.9, 0.9], [0.9, 0.9], wall, max_iterations=max_iterations, seed=seed)
    assert rrt_connect_plan(query) is None


def test_trees_grow_past_their_initial_size():
    # at step 0.01 one connect lays about 180 nodes between the trees
    start, goal = np.array([-0.9, 0.0]), np.array([0.9, 0.0])
    plan = rrt_connect_plan(PlanQuery(start, goal, all_free, step_size=0.01,
                                      max_iterations=1, seed=0))
    assert plan is not None and plan.iterations == 1
    assert len(plan.waypoints) > 180
    np.testing.assert_array_equal(plan.waypoints[0], start)
    np.testing.assert_array_equal(plan.waypoints[-1], goal)
    steps = np.linalg.norm(np.diff(plan.waypoints, axis=0), axis=1)
    assert steps.max() <= 0.01 + 1e-12


def test_planner_never_calls_other_checker():
    proxy = WallWithGap()
    oracle = Disc([0.0, 0.0], 0.1)
    rrt_connect_plan(PlanQuery(np.array([-0.6, 0.6]), np.array([0.6, 0.6]), proxy, seed=1))
    assert oracle.calls == 0
    assert proxy.calls > 0


# ----------------------------------------------------------------------
# verify / repair


def test_verify_same_checker_is_empty():
    chk = WallWithGap()
    plan = rrt_connect_plan(PlanQuery(np.array([-0.6, 0.6]), np.array([0.6, 0.6]), chk, seed=2))
    assert verify_plan(plan, chk, 0.05) == []


def test_verify_reports_edges_at_forced_waypoint():
    # waypoint 1 sits inside the oracle's obstacle: both adjacent edges fail
    oracle = Disc([0.0, 0.0], 0.15)
    plan = MotionPlan([np.array([-0.5, 0.0]), np.array([0.0, 0.0]), np.array([0.5, 0.0])])
    assert verify_plan(plan, oracle, 0.05) == [0, 1]


def test_repair_single_invalid_edge_keeps_prefix_suffix():
    oracle = Disc([0.0, 0.0], 0.12)
    wps = [np.array([-0.6, 0.0]), np.array([-0.3, 0.0]), np.array([0.0, 0.0]),
           np.array([0.3, 0.0]), np.array([0.6, 0.0])]
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, oracle, 0.05)
    assert invalid == [1, 2]
    fixed = repair_plan(plan, invalid, oracle, edge_resolution=0.05, seed=0)
    assert fixed is not None and fixed.certified
    assert verify_plan(fixed, oracle, 0.05) == []
    np.testing.assert_array_equal(fixed.waypoints[0], wps[0])
    np.testing.assert_array_equal(fixed.waypoints[-1], wps[-1])


def test_repair_head_window_clips_to_start():
    oracle = Disc([-0.45, 0.0], 0.1)  # first edge blocked, start itself free
    wps = [np.array([-0.6, 0.0]), np.array([-0.3, 0.0]), np.array([0.6, 0.0])]
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, oracle, 0.05)
    assert 0 in invalid
    fixed = repair_plan(plan, invalid, oracle, edge_resolution=0.05, seed=1)
    assert fixed is not None and fixed.certified
    np.testing.assert_array_equal(fixed.waypoints[0], wps[0])


def test_repair_all_edges_invalid_replans_fully():
    oracle = WallWithGap()
    # a straight path through the wall: every sample of edge 1 is blocked
    wps = [np.array([-0.2, 0.6]), np.array([-0.05, 0.6]), np.array([0.05, 0.6]),
           np.array([0.2, 0.6])]
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, oracle, 0.02)
    assert invalid
    fixed = repair_plan(plan, invalid, oracle, edge_resolution=0.02, seed=2)
    assert fixed is not None and fixed.certified
    assert verify_plan(fixed, oracle, 0.02) == []


def test_repair_requires_invalid_list():
    with pytest.raises(ValueError):
        repair_plan(MotionPlan([np.zeros(2)]), [], all_free)


def test_repair_overall_failure_when_oracle_rejects_start():
    oracle = Disc([-0.6, 0.0], 0.1)  # the start itself is inside the obstacle
    wps = [np.array([-0.6, 0.0]), np.array([0.6, 0.0])]
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, oracle, 0.05)
    assert invalid == [0]
    assert repair_plan(plan, invalid, oracle, edge_resolution=0.05, seed=3) is None


def test_repair_lets_an_oracle_fault_through():
    # only a colliding bridge end point reads as "not certified": the
    # oracle's own ValueError, raised mid-bridge, is a fault
    disc = Disc([0.0, 0.0], 0.12)
    wps = [np.array([x, 0.0]) for x in (-0.6, -0.3, 0.0, 0.3, 0.6)]
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, disc, 0.05)

    def faulty(p):
        if disc.calls >= 2:  # after the bridge's two end point checks
            raise ValueError("oracle fault")
        return disc(p)

    disc.calls = 0
    with pytest.raises(ValueError, match="oracle fault"):
        repair_plan(plan, invalid, faulty, edge_resolution=0.05, seed=0)


def _edge_samples(a, b, resolution):
    seen = []
    assert edge_valid(a, b, lambda p: seen.append(p.tobytes()) is None, resolution)
    return seen


def test_repair_checks_no_kept_edge_again():
    # one invalid edge in the middle of a long straight plan: its window
    # spans waypoints 3..6, so edges 0-2 and 6-8 are kept as they are
    oracle = Disc([0.0, 0.0], 0.05)
    wps = [np.array([x, 0.0]) for x in np.linspace(-0.9, 0.9, 10)]
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, oracle, 0.05)
    assert invalid == [4]
    kept = {p for i in (0, 1, 2, 6, 7, 8) for p in _edge_samples(wps[i], wps[i + 1], 0.05)}
    kept -= {wps[3].tobytes(), wps[6].tobytes()}  # the bridge's own end points
    queried = []

    def recording(p):
        queried.append(p.tobytes())
        return oracle(p)

    fixed = repair_plan(plan, invalid, recording, edge_resolution=0.05, seed=0)
    assert fixed is not None and fixed.certified
    assert [w.tobytes() for w in fixed.waypoints[:4]] == [w.tobytes() for w in wps[:4]]
    assert [w.tobytes() for w in fixed.waypoints[-4:]] == [w.tobytes() for w in wps[-4:]]
    assert verify_plan(fixed, oracle, 0.05) == []
    assert queried and kept.isdisjoint(queried)


def test_repair_rejects_a_bridge_that_fails_the_oracle():
    # a planner that bridges straight through the obstacle: the bridge's
    # re-check must catch it
    oracle = Disc([0.0, 0.0], 0.12)
    wps = [np.array([x, 0.0]) for x in (-0.6, -0.3, 0.0, 0.3, 0.6)]
    straight = lambda q: MotionPlan([q.start, q.goal])  # noqa: E731
    plan = MotionPlan(wps)
    invalid = verify_plan(plan, oracle, 0.05)
    assert repair_plan(plan, invalid, oracle, planner=straight, edge_resolution=0.05) is None


def _wall_query(checker, seed=2):
    return PlanQuery(np.array([-0.6, 0.6]), np.array([0.6, 0.6]), checker, seed=seed)


def test_plan_and_certify_without_repair():
    oracle = WallWithGap()
    plan, plan_s, verify_s, repair_s = plan_and_certify(rrt_connect_plan, _wall_query(oracle),
                                                        oracle, 0.05)
    assert plan is not None and plan.certified
    assert plan_s > 0.0 and verify_s > 0.0
    assert repair_s == 0.0


def test_plan_and_certify_when_planning_fails():
    result = plan_and_certify(lambda q: None, _wall_query(all_free), WallWithGap(), 0.05)
    assert result[0] is None
    assert result[2:] == (0.0, 0.0)


def test_plan_and_certify_repairs_a_proxy_plan():
    # the proxy sees no wall, so its plan crosses it and must be repaired
    plan, _, _, repair_s = plan_and_certify(rrt_connect_plan, _wall_query(all_free),
                                            WallWithGap(), 0.025)
    assert plan is not None and plan.certified
    assert repair_s > 0.0
    assert verify_plan(plan, WallWithGap(), 0.025) == []
    np.testing.assert_array_equal(plan.waypoints[0], [-0.6, 0.6])
    np.testing.assert_array_equal(plan.waypoints[-1], [0.6, 0.6])


@pytest.mark.parametrize("planner", [rrt_plan, rrt_connect_plan])
def test_plan_and_certify_checks_a_start_equals_goal_plan(planner):
    # the proxy calls the one configuration free; the oracle blocks it
    oracle = WallWithGap()
    q = np.array([0.0, 0.5])
    assert verify_plan(MotionPlan([q]), oracle, 0.05) == [0]
    assert verify_plan(MotionPlan([q]), all_free, 0.05) == []
    plan, *_ = plan_and_certify(planner, PlanQuery(q, q, all_free), oracle, 0.05)
    # repair fails, as its planners reject the colliding end point; the
    # planner's plan comes back uncertified, since None means "no plan"
    assert plan is not None and not plan.certified
    assert [w.tolist() for w in plan.waypoints] == [q.tolist()]
