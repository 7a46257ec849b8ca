import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastron import geometry
from fastron.bench.config import load_config
from fastron.bench.runners import Scene
from fastron.geometry import (
    Box,
    Capsule,
    KinematicChain,
    Workspace,
    from_input_space,
    kcd_label,
    label_points,
    make_label_fn,
    to_input_space,
    two_dof_rod,
    four_dof_rod,
)
from fastron.planning import edge_valid

from reference import reference_forward_kinematics, segment_box_distance

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# joint <-> input mapping


def test_mapping_corners_and_center():
    chain = two_dof_rod()
    lower, upper = np.array([-math.pi, 0.0]), np.array([math.pi, math.pi])
    np.testing.assert_allclose(to_input_space(lower, chain), -1.0)
    np.testing.assert_allclose(to_input_space(upper, chain), 1.0)
    mid = (lower + upper) / 2.0
    np.testing.assert_allclose(to_input_space(mid, chain), 0.0)


def test_mapping_out_of_limits_rejected():
    chain = two_dof_rod()
    with pytest.raises(ValueError):
        to_input_space([0.0, -0.5], chain)  # pitch below 0
    with pytest.raises(ValueError):
        from_input_space([0.0, 1.5], chain)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_mapping_round_trip(p):
    chain = two_dof_rod()
    p = np.array(p)
    q = from_input_space(p, chain)
    np.testing.assert_allclose(to_input_space(q, chain), p, atol=1e-12)


@pytest.mark.parametrize("make_chain", [two_dof_rod, four_dof_rod], ids=["dof2", "dof4"])
def test_input_mapping_rejects_bad_points(make_chain):
    # a point of the wrong length or outside [-1, 1]^d fails where it
    # enters, in the labeler as in from_input_space
    chain = make_chain()
    label = make_label_fn(chain, Workspace([Box((0.5, 0.0, 0.2), (0.15, 0.15, 0.15))]))
    bad = [np.zeros(chain.dof + 2), np.zeros(chain.dof - 1), np.full(chain.dof, 3.0),
           np.full(chain.dof, -1.0 - 1e-8), np.full(chain.dof, np.nan)]
    for p in bad:
        for fn in (label, chain.joints_from_input, lambda p: from_input_space(p, chain)):
            with pytest.raises(ValueError):
                fn(p)
    # rounding spill within the tolerance is still clamped onto the limits
    q = chain.joints_from_input(np.full(chain.dof, 1.0 + 1e-10))
    assert q == [math.pi, math.pi] * (chain.dof // 2)
    q = chain.joints_from_input(np.full(chain.dof, -1.0 - 1e-10))
    assert q == [-math.pi, 0.0] * (chain.dof // 2)


def test_mapping_round_trip_4dof():
    chain = four_dof_rod()
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(to_input_space(from_input_space(p, chain), chain), p,
                                   atol=1e-12)


# ----------------------------------------------------------------------
# forward kinematics


def test_fk_reference_pose_along_x():
    chain = two_dof_rod()
    link = chain.forward_kinematics([0.0, 0.0])[0]
    assert link.p0 == (0.0, 0.0, 0.0)
    np.testing.assert_allclose(link.p1, (1.0, 0.0, 0.0), atol=1e-15)


def test_fk_yaw_quarter_turn():
    chain = two_dof_rod()
    link = chain.forward_kinematics([math.pi / 2, 0.0])[0]
    np.testing.assert_allclose(link.p1, (0.0, 1.0, 0.0), atol=1e-12)


def test_fk_pitch_vertical():
    chain = two_dof_rod()
    link = chain.forward_kinematics([0.0, math.pi / 2])[0]
    np.testing.assert_allclose(link.p1, (0.0, 0.0, 1.0), atol=1e-12)


def test_fk_matches_spherical_direction_formula():
    chain = two_dof_rod()
    rng = np.random.default_rng(1)
    for _ in range(200):
        yaw = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(0.0, math.pi)
        tip = np.array(chain.forward_kinematics([yaw, pitch])[0].p1)
        expected = np.array([
            math.cos(pitch) * math.cos(yaw),
            math.cos(pitch) * math.sin(yaw),
            math.sin(pitch),
        ])
        np.testing.assert_allclose(tip, expected, atol=1e-12)


def test_fk_4dof_zeroed_distal_extends_straight():
    chain4 = four_dof_rod()
    chain2 = KinematicChain([(0.5, chain4.rods[0][1])])
    rng = np.random.default_rng(2)
    for _ in range(100):
        yaw = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(0.0, math.pi)
        b1, b2 = chain4.forward_kinematics([yaw, pitch, 0.0, 0.0])
        ref = chain2.forward_kinematics([yaw, pitch])[0]
        np.testing.assert_allclose(b1.p1, ref.p1, atol=1e-12)
        # distal rod continues along the same direction
        d1 = np.array(b1.p1) - np.array(b1.p0)
        d2 = np.array(b2.p1) - np.array(b2.p0)
        np.testing.assert_allclose(d1, d2, atol=1e-12)


def _pose_hex(body) -> list[str]:
    if isinstance(body, Capsule):
        floats = body.p0 + body.p1 + (body.radius,)
    else:
        floats = body.center + body.half + body.rot[0] + body.rot[1] + body.rot[2]
    return [x.hex() for x in floats]


@pytest.mark.parametrize("shape", ["capsule", "box"])
@pytest.mark.parametrize("make_chain", [two_dof_rod, four_dof_rod], ids=["dof2", "dof4"])
def test_fk_bitwise_matches_generic_rotation_products(make_chain, shape):
    # the closed-form pair product keeps every float of every pose,
    # signed zeros included, against sum()-ordered 3 x 3 products
    chain = make_chain(link_shape=shape)
    rng = np.random.default_rng(8)
    rods = chain.dof // 2
    Q = list(rng.uniform([-math.pi, 0.0] * rods, [math.pi, math.pi] * rods,
                         (10_000, chain.dof)))
    # every limit corner and the quarter turns, each pair drawn
    # independently, plus spill within the limit tolerance
    pairs = itertools.product((-math.pi - 1e-10, -math.pi, -math.pi / 2, 0.0, math.pi / 2,
                               math.pi, math.pi + 1e-10),
                              (-1e-10, 0.0, math.pi / 2, math.pi, math.pi + 1e-10))
    Q += [sum(c, ()) for c in itertools.product(list(pairs), repeat=chain.dof // 2)]
    for q in Q:
        want = [x.hex() for pose in reference_forward_kinematics(chain, q) for x in pose]
        for arg in (q, [float(v) for v in q], np.asarray(q, dtype=np.float64)):
            got = [h for body in chain.forward_kinematics(arg) for h in _pose_hex(body)]
            assert got == want, q


def test_fk_out_of_limits_rejected():
    chain = two_dof_rod()
    with pytest.raises(ValueError):
        chain.forward_kinematics([0.0, -0.1])
    with pytest.raises(ValueError):
        chain.forward_kinematics([4.0, 0.1])


@pytest.mark.parametrize("make_chain", [two_dof_rod, four_dof_rod], ids=["dof2", "dof4"])
def test_fk_and_kcd_label_keep_their_limit_guard(make_chain):
    # the labeler skips the second limit check; the public entry points keep it
    chain = make_chain()
    ws = Workspace([Box((0.5, 0.0, 0.2), (0.15, 0.15, 0.15))])
    for k, bad in ((0, math.pi + 1e-6), (1, -1e-6), (1, math.pi + 1e-6), (0, math.nan)):
        q = [0.0, 0.5] * (chain.dof // 2)
        q[k] = bad
        with pytest.raises(ValueError, match="outside limits"):
            chain.forward_kinematics(q)
        with pytest.raises(ValueError, match="outside limits"):
            kcd_label(chain, ws, q)


def test_fk_lipschitz_continuity():
    # ||tip(q + d) - tip(q)|| <= L ||d|| for total length L
    chain = four_dof_rod()
    rng = np.random.default_rng(3)
    eps = 1e-3
    for _ in range(200):
        q = np.array([
            rng.uniform(-math.pi + eps, math.pi - eps),
            rng.uniform(eps, math.pi - eps),
            rng.uniform(-math.pi + eps, math.pi - eps),
            rng.uniform(eps, math.pi - eps),
        ])
        d = rng.normal(0, 1, 4)
        d *= 1e-3 / np.linalg.norm(d)
        tip0 = np.array(chain.forward_kinematics(q)[-1].p1)
        tip1 = np.array(chain.forward_kinematics(q + d)[-1].p1)
        assert np.linalg.norm(tip1 - tip0) <= chain.reach * np.linalg.norm(d) * (1 + 1e-6)


def test_box_link_mode():
    chain = two_dof_rod(link_shape="box")
    link = chain.forward_kinematics([0.0, math.pi / 2])[0]
    assert isinstance(link, Box)
    np.testing.assert_allclose(link.center, (0.0, 0.0, 0.5), atol=1e-12)


def test_chain_validation():
    with pytest.raises(ValueError):
        KinematicChain([])
    with pytest.raises(ValueError):
        KinematicChain([(1.0, 0.0)])
    with pytest.raises(ValueError):
        KinematicChain([(1.0, 0.1)], link_shape="mesh")


def test_box_normalises_rows_to_plain_floats():
    # box links of forward kinematics skip this, as their rows are plain floats
    eye = np.eye(3)
    for rot in (eye, [list(row) for row in eye], tuple(map(tuple, eye))):
        box = Box(np.zeros(3), [0.1, 0.2, 0.3], rot)
        assert box.rot == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert all(type(x) is float for row in box.rot for x in row)
        assert all(type(x) is float for x in box.center + box.half)
    link = two_dof_rod(link_shape="box").forward_kinematics([0.3, 0.4])[0]
    assert type(link.rot) is tuple and all(type(row) is tuple for row in link.rot)
    assert all(type(x) is float for x in link.center + link.half + sum(link.rot, ()))


@pytest.mark.parametrize("center, half", [
    ((math.nan, 0.0, 0.0), (0.1, 0.1, 0.1)),
    ((0.0, math.inf, 0.0), (0.1, 0.1, 0.1)),
    ((0.0, 0.0, -math.inf), (0.1, 0.1, 0.1)),
    ((0.0, 0.0, 0.0), (0.1, math.inf, 0.1)),
])
def test_box_rejects_non_finite_center_and_half_extents(center, half):
    # a NaN center used to put every configuration of a dof2 rod in collision
    with pytest.raises(ValueError, match="finite"):
        Box(center, half)


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
def test_capsule_rejects_radius_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        Capsule((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), radius)


# ----------------------------------------------------------------------
# labeling


def test_label_empty_workspace_all_free():
    chain = two_dof_rod()
    ws = Workspace([])
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = from_input_space(rng.uniform(-1, 1, 2), chain)
        assert kcd_label(chain, ws, q) == -1


def test_label_engulfing_obstacle_all_collision():
    chain = two_dof_rod()
    ws = Workspace([Box((0, 0, 0), (2.0, 2.0, 2.0))])
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = from_input_space(rng.uniform(-1, 1, 2), chain)
        assert kcd_label(chain, ws, q) == 1


def test_label_grid_matches_dense_sampling_oracle():
    # one cube, 100x100 configuration grid vs a densely sampled
    # segment-to-box distance check; marginal cells excluded
    chain = two_dof_rod()
    cube = Box((0.45, 0.1, 0.3), (0.12, 0.12, 0.12))
    ws = Workspace([cube])
    agree = 0
    considered = 0
    for py in np.linspace(-0.999, 0.999, 100):
        for px in np.linspace(-0.999, 0.999, 100):
            q = from_input_space(np.array([px, py]), chain)
            link = chain.forward_kinematics(q)[0]
            dist = segment_box_distance(link.p0, link.p1, cube.center, cube.half, cube.rot)
            if abs(dist - 0.05) < 0.01:
                continue  # marginal contact
            considered += 1
            truth = dist <= 0.05
            if (kcd_label(chain, ws, q) == 1) == truth:
                agree += 1
    assert considered > 5000
    assert agree / considered >= 0.995


def test_label_fn_matches_kcd_label():
    chain = two_dof_rod()
    ws = Workspace([Box((0.5, 0.0, 0.2), (0.15, 0.15, 0.15))])
    label = make_label_fn(chain, ws)
    rng = np.random.default_rng(6)
    for _ in range(300):
        p = rng.uniform(-1, 1, 2)
        q = from_input_space(p, chain)
        assert label(p) == kcd_label(chain, ws, q)


@pytest.mark.parametrize("shape", ["capsule", "box"])
@pytest.mark.parametrize("config", ["static_4dof", "plan_gap_2dof"])
def test_label_fn_memory_answers_as_kcd_label(config, shape):
    # a labeler remembers the axis that last proved each link-obstacle pair
    # apart; on uniform points and along edges its answers stay kcd_label's
    data = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    data["robot"]["link_shape"] = shape
    scene = Scene(load_config(data), 0)
    chain, ws = scene.chain, scene.workspace
    rng = np.random.default_rng(8)
    uniform = rng.uniform(-1, 1, (2000, chain.dof))
    along = []  # the points edge_valid checks at 0.025 on a chain of random edges
    ends = rng.uniform(-1, 1, (200, chain.dof))
    for a, b in zip(ends[:-1], ends[1:]):
        edge_valid(a, b, lambda p: along.append(p.copy()) is None, 0.025)
    along = along[:2000]
    assert len(along) == 2000
    for P in (uniform, along):
        label = make_label_fn(chain, ws)
        got = [label(p) for p in P]
        want = [kcd_label(chain, ws, from_input_space(p, chain)) for p in P]
        assert got == want
        assert -1 in got and 1 in got


def _scene_workspaces(path):
    # the seed-0 scene of a shipped config; a moving one at its first and last step
    cfg = load_config(json.loads(path.read_text()))
    scene = Scene(cfg, 0)
    workspaces = [scene.workspace]
    if cfg.obstacles.motion_steps > 1:
        last = scene.workspace
        for _ in range(cfg.obstacles.motion_steps - 1):
            last = last.stepped()
        workspaces.append(last)
    return scene.chain, workspaces


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_label_points_answers_as_kcd_label_on_every_shipped_scene(path):
    # Z-order visits change which axes are remembered, never a label: on
    # uniform points and along edges, label_points gives kcd_label's answers
    chain, workspaces = _scene_workspaces(path)
    rng = np.random.default_rng(9)
    uniform = rng.uniform(-1, 1, (20000, chain.dof))
    along = []  # the points edge_valid checks at 0.025 on a chain of random edges
    ends = rng.uniform(-1, 1, (100, chain.dof))
    for a, b in zip(ends[:-1], ends[1:]):
        edge_valid(a, b, lambda p: along.append(p.copy()) is None, 0.025)
    P = np.concatenate([uniform, along])
    for ws in workspaces:
        got = label_points(make_label_fn(chain, ws), P)
        want = [kcd_label(chain, ws, from_input_space(p, chain)) for p in P]
        assert got.dtype == np.float64
        assert got.tolist() == want
        assert -1 in want and 1 in want


@pytest.mark.parametrize("n, d", [(0, 2), (1, 1), (1, 2), (400, 1), (400, 2), (400, 4), (400, 8)])
def test_label_points_labels_each_row_once_in_row_order(n, d):
    rng = np.random.default_rng(10 * n + d)
    P = rng.uniform(-1, 1, (n, d))
    if n > 1:
        P[:50] = rng.choice([-1.0, 1.0], (50, d))  # rows on the faces and corners
        P[50:80] = P[80:110]  # duplicate rows
    w = rng.uniform(-1, 1, d)
    seen = []

    def label(p):
        seen.append(p.copy())
        return 1 if p.dot(w) > 0 else -1

    y = label_points(label, P)
    assert y.dtype == np.float64 and y.shape == (n,)
    assert y.tolist() == [1.0 if p.dot(w) > 0 else -1.0 for p in P]
    assert sorted(p.tobytes() for p in seen) == sorted(p.tobytes() for p in P)
    if n > 1:  # visited as near neighbours: shorter steps than in row order
        def walk(Q):
            return float(np.linalg.norm(np.diff(Q, axis=0), axis=1).sum())
        assert walk(np.array(seen)) < 0.7 * walk(P)


def test_label_fn_does_not_trust_a_stale_axis():
    chain = four_dof_rod()
    ws = Workspace([Box((0.5, 0.0, 0.2), (0.15, 0.15, 0.15)),
                    Box((-0.4, 0.3, 0.5), (0.1, 0.1, 0.1))])
    free, hit = np.array([0.0, 0.9, 0.0, -1.0]), np.array([0.0, -0.8, 0.0, -1.0])
    assert kcd_label(chain, ws, from_input_space(free, chain)) == -1
    assert kcd_label(chain, ws, from_input_space(hit, chain)) == 1
    label = make_label_fn(chain, ws)
    assert label(free) == -1
    assert label(hit) == 1
    assert label(free) == -1


def test_labelers_of_a_stepped_workspace_share_no_memory(monkeypatch):
    walks = []
    gjk = geometry._gjk

    def counting_gjk(a, b):
        walks.append(1)
        return gjk(a, b)

    monkeypatch.setattr(geometry, "_gjk", counting_gjk)
    chain = four_dof_rod()
    ws = Workspace([Box((0.5, 0.0, 0.2), (0.15, 0.15, 0.15)),
                    Box((-0.4, 0.3, 0.5), (0.1, 0.1, 0.1))],
                   velocities=[(0.02, 0.0, 0.0), (0.0, -0.02, 0.0)])
    stepped = ws.stepped()
    p = np.array([0.0, 0.9, 0.0, -1.0])
    for w in (ws, stepped):
        assert kcd_label(chain, w, from_input_space(p, chain)) == -1
    label, label_stepped = make_label_fn(chain, ws), make_label_fn(chain, stepped)
    counts = []
    for fn in (label, label, label_stepped, label_stepped):
        walks.clear()
        assert fn(p) == -1
        counts.append(len(walks))
    # 2 links x 2 obstacles walk once per labeler, then their axes certify
    assert counts == [4, 0, 4, 0]


@pytest.mark.parametrize("shape", [(3,), (2, 3, 2), (), (3, 0)])
def test_label_points_rejects_points_that_are_not_an_n_by_d_array(shape):
    def label(p):
        raise AssertionError("no point may reach the labeler")

    want = r"\(n, d\) array with d >= 1, got shape " + re.escape(str(shape))
    with pytest.raises(ValueError, match=want):
        label_points(label, np.zeros(shape))


@pytest.mark.parametrize("make_chain", [two_dof_rod, four_dof_rod], ids=["dof2", "dof4"])
def test_label_fn_and_from_input_space_feed_fk_the_same_joints(make_chain):
    # the labeler poses the links through the unguarded _pose, since its
    # joint mapping has validated and clamped them already
    chain = make_chain()
    fed = []
    fk = chain._pose

    def recording_fk(q):
        fed.append(np.array(q, dtype=np.float64))
        return fk(q)

    chain._pose = recording_fk
    label = make_label_fn(chain, Workspace([Box((0.5, 0.0, 0.2), (0.15, 0.15, 0.15))]))
    P = np.random.default_rng(7).uniform(-1, 1, (1000, chain.dof))
    P[:4] = np.sign(P[:4])  # points on the limits
    for p in P:
        label(p)
    assert len(fed) == len(P)
    mismatched = sum(from_input_space(p, chain).tobytes() != q.tobytes() for p, q in zip(P, fed))
    assert mismatched == 0


def test_in_collision_set_nonempty_iff_obstacle_reachable():
    chain = two_dof_rod()
    rng = np.random.default_rng(7)
    grid = [np.array([px, py]) for px in np.linspace(-1, 1, 40)
            for py in np.linspace(-1, 1, 40)]
    for _ in range(10):
        center = rng.uniform(-1.5, 1.5, 3)
        side = rng.uniform(0.1, 0.3)
        cube = Box(center, (side / 2,) * 3)
        ws = Workspace([cube])
        label = make_label_fn(chain, ws)
        any_hit = any(label(p) == 1 for p in grid)
        # swept volume of the arm is the ball of radius reach (upper half
        # dominates); a cube beyond reach + radius can never collide
        closest = max(np.linalg.norm(center) - np.linalg.norm(cube.half), 0.0)
        if closest > chain.reach + 0.05:
            assert not any_hit
        if any_hit:
            assert closest <= chain.reach + 0.05 + 1e-9


# ----------------------------------------------------------------------
# workspace motion


def test_workspace_step_translates_and_bounces():
    box = Box((0.85, 0.0, 0.5), (0.1, 0.1, 0.1))
    ws = Workspace([box], velocities=[(0.1, 0.0, 0.0)], bounds=((-0.9, -0.9, 0.0), (0.9, 0.9, 0.9)))
    ws1 = ws.stepped()
    c1 = ws1.obstacles[0].center
    assert c1[0] == pytest.approx(0.85)  # bounced off 0.9: 0.95 -> 0.85
    assert ws1.velocities[0][0] == pytest.approx(-0.1)
    ws2 = ws1.stepped()
    assert ws2.obstacles[0].center[0] == pytest.approx(0.75)


@pytest.mark.parametrize("velocity", [(math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0)])
def test_workspace_rejects_non_finite_velocities(velocity):
    # a NaN velocity used to surface only at the first step, as a bad box center
    with pytest.raises(ValueError, match="velocities must be finite"):
        Workspace([Box((0.0, 0.0, 0.5), (0.1, 0.1, 0.1))], velocities=[velocity],
                  bounds=((-0.9, -0.9, 0.0), (0.9, 0.9, 0.9)))


@pytest.mark.parametrize("bounds", [
    ((math.nan, -0.9, 0.0), (0.9, 0.9, 0.9)),  # a box never bounced back
    ((-0.9, -0.9, 0.0), (0.9, math.inf, 0.9)),
    ((1.0, -0.9, 0.0), (-1.0, 0.9, 0.9)),  # inverted: each step reflects further out
    ((0.0, -0.9, 0.0), (0.0, 0.9, 0.9)),
    ((-0.9, -0.9), (0.9, 0.9)),
    ((-0.9, -0.9, 0.0),),
    "bounds",
])
def test_workspace_rejects_bounds_not_two_finite_increasing_3_vectors(bounds):
    with pytest.raises(ValueError, match="bounds"):
        Workspace([Box((0.0, 0.0, 0.5), (0.1, 0.1, 0.1))], velocities=[(0.5, 0.0, 0.0)],
                  bounds=bounds)


def test_workspace_without_motion_is_static():
    ws = Workspace([Box((0, 0, 0.2), (0.1, 0.1, 0.1))])
    assert ws.stepped() is ws
