import numpy as np
import pytest

from fastron.geometry import Box, Capsule, gjk_intersect

from perfbench.reference import segment_box_distance as exact_segment_box_distance
from reference import obb_sat_batch, random_rotation, segment_box_distance, segment_distance


def test_identical_cubes_intersect():
    a = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    b = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    assert gjk_intersect(a, b) is True


def test_separated_cubes_do_not_intersect():
    a = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    b = Box((3.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    assert gjk_intersect(a, b) is False


def test_degenerate_bodies_rejected():
    with pytest.raises(ValueError):
        Box((0, 0, 0), (0.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        Capsule((0, 0, 0), (1, 0, 0), 0.0)


def test_sphere_like_capsule():
    s1 = Capsule((0, 0, 0), (0, 0, 0), 0.5)
    s2 = Capsule((0.9, 0, 0), (0.9, 0, 0), 0.5)
    s3 = Capsule((1.1, 0, 0), (1.1, 0, 0), 0.5)
    assert gjk_intersect(s1, s2) is True
    assert gjk_intersect(s1, s3) is False


def _random_box(rng):
    return Box(
        rng.uniform(-1, 1, 3),
        rng.uniform(0.05, 0.5, 3),
        tuple(map(tuple, random_rotation(rng))),
    )


def test_symmetry_of_intersection():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = _random_box(rng)
        b = _random_box(rng)
        assert gjk_intersect(a, b) == gjk_intersect(b, a)


def test_translation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = _random_box(rng)
        b = _random_box(rng)
        shift = tuple(rng.uniform(-5, 5, 3))
        assert gjk_intersect(a, b) == gjk_intersect(a.translated(shift), b.translated(shift))


def test_agrees_with_sat_oracle_sample():
    # module-scale check; the acceptance suite runs the full 1e5 pairs
    rng = np.random.default_rng(2)
    n = 20000
    ca = rng.uniform(-1, 1, (n, 3))
    cb = ca + rng.uniform(-1.2, 1.2, (n, 3))
    ha = rng.uniform(0.05, 0.5, (n, 3))
    hb = rng.uniform(0.05, 0.5, (n, 3))
    Ra = np.stack([random_rotation(rng) for _ in range(n)])
    Rb = np.stack([random_rotation(rng) for _ in range(n)])
    hit, margin = obb_sat_batch(ca, ha, Ra, cb, hb, Rb)
    checked = 0
    for k in range(n):
        if abs(margin[k]) < 1e-6:
            continue
        a = Box(ca[k], ha[k], tuple(map(tuple, Ra[k])))
        b = Box(cb[k], hb[k], tuple(map(tuple, Rb[k])))
        assert gjk_intersect(a, b) == bool(hit[k]), f"pair {k}, margin {margin[k]}"
        checked += 1
    assert checked > n * 0.95


def test_capsules_agree_with_segment_distance():
    rng = np.random.default_rng(3)
    for k in range(5000):
        p0, p1, q0, q1 = rng.uniform(-1, 1, (4, 3))
        r1, r2 = rng.uniform(0.02, 0.3, 2)
        d = segment_distance(p0, p1, q0, q1)
        if abs(d - (r1 + r2)) < 1e-6:
            continue
        truth = d <= r1 + r2
        assert gjk_intersect(Capsule(p0, p1, r1), Capsule(q0, q1, r2)) == truth


def test_box_vs_capsule_smoke():
    box = Box((0, 0, 0), (0.5, 0.5, 0.5))
    hit = Capsule((0.4, 0, 0), (2, 0, 0), 0.2)
    graze = Capsule((0, 0, 0.75), (1, 0, 0.75), 0.3)
    miss = Capsule((0, 0, 2.0), (1, 0, 2.0), 0.3)
    assert gjk_intersect(box, hit) is True
    assert gjk_intersect(box, graze) is True  # 0.75 - 0.3 < 0.5
    assert gjk_intersect(box, miss) is False


def test_touching_counts_as_intersecting():
    a = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    b = Box((1.0, 0.0, 0.0), (0.5, 0.5, 0.5))  # faces exactly flush
    assert gjk_intersect(a, b) is True


# link 1 of static-dof4 holdout point 6060 at benchmark seed 26, and obstacle 3
_CLEAR_CAPSULE = Capsule((-0.44722171885716616, -0.0057565379832265244, 0.22351643441342178),
                         (-0.33634986330205874, 0.22924536952776725, 0.6506950096158326), 0.05)
_CLEAR_BOX = Box((-0.118520901524091, 0.007203098318091394, 0.6427883005852911),
                 (0.17063728527357497,) * 3)


def _clearance(capsule, box):
    return segment_box_distance(capsule.p0, capsule.p1, box.center, box.half,
                                box.rot) - capsule.radius


def test_known_false_positive_case_is_clear():
    assert _clearance(_CLEAR_CAPSULE, _CLEAR_BOX) > 0.01


def test_capsule_clear_of_box_is_separated():
    assert _clearance(_CLEAR_CAPSULE, _CLEAR_BOX) > 0.01
    assert gjk_intersect(_CLEAR_CAPSULE, _CLEAR_BOX) is False


# two rotated boxes 0.0198 apart by SAT: a tetrahedron step that descends
# into the first outside face in a fixed order cycles on (A, B) to the cap
_APART_A = Box([0.5773190309701783, 0.07019588225963069, -0.9568059197290175],
               [0.3160075545983923, 0.3435789585654125, 0.34574849944400177],
               [[0.7182821367036794, -0.5141867578446065, -0.46870326449647143],
                [0.1379273748433002, -0.5550597952358309, 0.8202954729739725],
                [-0.6819434077408719, -0.6538505959085834, -0.32776910603160486]])
_APART_B = Box([0.4838747272926297, 0.2744608838397341, -0.207638706303356],
               [0.1872696201477544, 0.07875623354183442, 0.3586318965454626],
               [[0.9614489293227624, 0.23377889975548471, 0.14478736938431283],
                [-0.24131222750995263, 0.46483198502181466, 0.8518800587846063],
                [0.13184978254930604, -0.8539781330513062, 0.5033259213590199]])


@pytest.mark.parametrize("a, b", [(_APART_A, _APART_B), (_APART_B, _APART_A)])
def test_rotated_boxes_clear_by_sat_are_separated(a, b):
    hit, margin = obb_sat_batch(*(np.array([v]) for v in (a.center, a.half, a.rot,
                                                           b.center, b.half, b.rot)))
    assert not hit[0] and margin[0] > 0.01
    assert gjk_intersect(a, b) is False


PROPERTY_PAIRS = 20000
CONTACT_BAND = 1e-7


def _assert_exact(pairs, clearance):
    # gjk_intersect is True iff the clearance is <= 0, in both argument
    # orders; pairs within CONTACT_BAND of contact are skipped
    checked = 0
    for (a, b), c in zip(pairs, clearance):
        if abs(c) < CONTACT_BAND:
            continue
        assert gjk_intersect(a, b) == gjk_intersect(b, a) == (c <= 0.0), f"clearance {c}"
        checked += 1
    assert checked > 0.99 * len(pairs)


def test_capsules_against_axis_aligned_boxes_are_exact():
    rng = np.random.default_rng(24)
    n = PROPERTY_PAIRS
    p0, p1 = rng.uniform(-1, 1, (2, n, 3))
    centers = rng.uniform(-0.5, 0.5, (n, 3))
    radii = rng.uniform(0.02, 0.3, n)
    halves = rng.uniform(0.05, 0.5, (n, 3))
    clearance = exact_segment_box_distance(p0, p1, centers - halves, centers + halves) - radii
    pairs = [(Capsule(p0[k], p1[k], radii[k]), Box(centers[k], halves[k])) for k in range(n)]
    assert 0.25 * n < np.count_nonzero(clearance <= 0.0) < 0.75 * n
    _assert_exact(pairs, clearance)


def test_rotated_boxes_are_exact():
    rng = np.random.default_rng(25)
    n = PROPERTY_PAIRS
    ca = rng.uniform(-1, 1, (n, 3))
    cb = ca + rng.uniform(-0.8, 0.8, (n, 3))
    ha, hb = rng.uniform(0.05, 0.5, (2, n, 3))
    Ra = np.stack([random_rotation(rng) for _ in range(n)])
    Rb = np.stack([random_rotation(rng) for _ in range(n)])
    _, margin = obb_sat_batch(ca, ha, Ra, cb, hb, Rb)
    pairs = [(Box(ca[k], ha[k], Ra[k]), Box(cb[k], hb[k], Rb[k])) for k in range(n)]
    assert 0.25 * n < np.count_nonzero(margin <= 0.0) < 0.75 * n
    _assert_exact(pairs, margin)
