import numpy as np
import pytest

import fastron.model as model_module
from fastron.bench.config import load_config
from fastron.bench.runners import Scene
from fastron.geometry import make_label_fn
from fastron.model import FastronModel, TrainParams
from fastron.sampling import SamplerParams, generate_active_set, resolved_sigma, update_cycle

from reference import eager_gram


def rng_for(seed=0):
    return np.random.default_rng(seed)


def test_sigma_derived_from_kernel_width():
    p = SamplerParams()
    assert resolved_sigma(p, 30.0) == pytest.approx((2 * 30.0) ** -0.5)
    assert resolved_sigma(SamplerParams(sigma=0.2), 30.0) == 0.2


@pytest.mark.parametrize("kw, field", [
    ({"sigma": float("nan")}, "sigma"),
    ({"sigma": 0.0}, "sigma"),
    ({"a_max": 1.5}, "a_max"),
    ({"a_max": 0}, "a_max"),
    ({"kappa": -1}, "kappa"),
    ({"seed": -1}, "seed"),
    ({"n_initial": 0}, "n_initial"),
])
def test_sampler_params_reject_non_finite_and_out_of_range(kw, field):
    with pytest.raises(ValueError, match=field):
        SamplerParams(**kw)


def test_kappa_zero_is_all_uniform():
    p = SamplerParams(a_max=100, kappa=0, sigma=0.1)
    support = np.array([[0.0, 0.0]])
    A = generate_active_set(support, p, rng_for())
    assert A.shape == (100, 2)
    # uniform fill: not clustered at the support point
    assert np.abs(A).max() > 0.5


def test_empty_support_is_all_uniform():
    p = SamplerParams(a_max=50, kappa=4, sigma=0.1)
    A = generate_active_set(np.zeros((0, 2)), p, rng_for())
    assert A.shape == (50, 2)


def test_exploitation_fills_budget_before_exploration():
    # kappa |S| >= a_max: every sample is an exploitation sample
    p = SamplerParams(a_max=500, kappa=4, sigma=0.01)
    rng = rng_for(1)
    support = rng.uniform(-0.5, 0.5, (200, 2))
    A = generate_active_set(support, p, rng_for(2))
    assert A.shape == (500, 2)
    # every point lies within a few sigma of some support point
    d = np.sqrt(((A[:, None, :] - support[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    assert d.max() < 10 * 0.01


def test_all_samples_inside_unit_box():
    p = SamplerParams(a_max=400, kappa=8, sigma=0.5)
    support = np.array([[0.99, 0.99], [-0.99, -0.99]])
    A = generate_active_set(support, p, rng_for(3))
    assert np.abs(A).max() <= 1.0


def test_deterministic_for_fixed_seed():
    p = SamplerParams(a_max=64, kappa=2, sigma=0.1)
    support = rng_for(4).uniform(-1, 1, (10, 3))
    A1 = generate_active_set(support, p, np.random.default_rng(99))
    A2 = generate_active_set(support, p, np.random.default_rng(99))
    np.testing.assert_array_equal(A1, A2)


def test_exploitation_variance_matches_sigma():
    gamma = 30.0
    sigma = resolved_sigma(SamplerParams(), gamma)
    p = SamplerParams(a_max=100000, kappa=100000, sigma=sigma)
    support = np.zeros((1, 2))  # centered: clamping never triggers
    A = generate_active_set(support, p, rng_for(5))
    var = A.var(axis=0)
    np.testing.assert_allclose(var, sigma**2, rtol=0.05)


def test_sigma_unresolved_raises():
    with pytest.raises(ValueError):
        generate_active_set(np.zeros((1, 2)), SamplerParams(), rng_for())


@pytest.mark.parametrize("support", [np.zeros(0), np.zeros(3), np.zeros((1, 2, 2))])
def test_support_not_two_dimensional_raises(support):
    p = SamplerParams(a_max=10, kappa=1, sigma=0.1)
    with pytest.raises(ValueError, match=r"shape \("):
        generate_active_set(support, p, rng_for())


# ----------------------------------------------------------------------
# update cycle


class FlatOracle:
    """Labels by the sign of a fixed plane; counts calls."""

    def __init__(self, normal, flip=False):
        self.normal = np.asarray(normal, dtype=float)
        self.flip = flip
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        s = 1 if float(self.normal @ p) > 0 else -1
        return -s if self.flip else s


def make_cycle_model(dim=2, gamma=30.0):
    return FastronModel(TrainParams(gamma=gamma), dim=dim)


def test_first_cycle_draws_initial_dataset():
    model = make_cycle_model()
    oracle = FlatOracle([1.0, 0.2])
    params = SamplerParams(a_max=200, kappa=4, seed=0, n_initial=800)
    rep = update_cycle(model, oracle, params)
    assert oracle.calls == 800
    assert rep.final_misclassified == 0
    assert model.n == model.support_count + 200  # support + pending active set


def test_cycle_oracle_call_accounting():
    model = make_cycle_model()
    oracle = FlatOracle([1.0, 0.2])
    params = SamplerParams(a_max=200, kappa=4, seed=0, n_initial=800)
    update_cycle(model, oracle, params)
    for _ in range(5):
        support_before = model.n - 200
        oracle.calls = 0
        update_cycle(model, oracle, params)
        assert oracle.calls == support_before + 200


def test_cycle_stable_on_static_oracle():
    model = make_cycle_model()
    oracle = FlatOracle([1.0, 0.2])
    params = SamplerParams(a_max=200, kappa=4, seed=1, n_initial=800)
    rng = np.random.default_rng(123)
    Q = rng.uniform(-1, 1, (3000, 2))
    truth = np.array([oracle(q) for q in Q])
    accs = []
    for _ in range(3):
        update_cycle(model, oracle, params)
        accs.append(float(np.mean(model.predict_batch(Q) == truth)))
    assert accs[0] > 0.9
    assert abs(accs[-1] - accs[-2]) < 0.02  # stable between consecutive cycles


def test_cycle_recovers_from_label_flip():
    model = make_cycle_model()
    oracle = FlatOracle([0.7, -0.7])
    params = SamplerParams(a_max=300, kappa=4, seed=2, n_initial=1000)
    update_cycle(model, oracle, params)
    oracle.flip = True  # adversarial: every label inverts
    rep = update_cycle(model, oracle, params)
    assert rep.final_misclassified == 0
    support = model.n - 300
    assert (model.margins()[:support] > 0).all()


def test_cycle_deterministic_given_seeds():
    a = make_cycle_model()
    b = make_cycle_model()
    params = SamplerParams(a_max=100, kappa=4, seed=7, n_initial=400)
    update_cycle(a, FlatOracle([1.0, 0.0]), params)
    update_cycle(b, FlatOracle([1.0, 0.0]), params)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.alpha, b.alpha)


def test_update_cycle_labels_each_row_once_in_row_order():
    # the initial set and every relabeled model.X go through label_points:
    # each row reaches the oracle once, and its label lands on its own row
    model = make_cycle_model()
    oracle = FlatOracle([1.0, 0.2])
    seen, handed = [], []

    def recording(p):
        seen.append(p.tobytes())
        return oracle(p)

    for name in ("set_data", "set_labels"):
        method = getattr(model, name)
        setattr(model, name, lambda *args, m=method: handed.append(args) or m(*args))
    params = SamplerParams(a_max=200, kappa=4, seed=0, n_initial=800)
    for cycle in range(4):
        X = model.X.copy()
        seen.clear()
        handed.clear()
        update_cycle(model, recording, params)
        (args,) = handed
        X, y = args if cycle == 0 else (X, args[0])
        assert sorted(seen) == sorted(x.tobytes() for x in X)
        assert y.tolist() == [oracle(x) for x in X]


def test_update_cycle_counter_is_explicit_state():
    model = make_cycle_model()
    assert model.update_cycles == 0
    params = SamplerParams(a_max=100, kappa=4, seed=7, n_initial=400)
    for k in (1, 2):
        update_cycle(model, FlatOracle([1.0, 0.0]), params)
        assert model.update_cycles == k
    # cycle 1 drew its active set from the stream spawned with key 1
    sp = SamplerParams(a_max=100, kappa=4, seed=7, sigma=resolved_sigma(params, 30.0))
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1,)))
    np.testing.assert_array_equal(model.X[-100:], generate_active_set(model.X[:-100], sp, rng))


def test_update_cycle_carries_weights_and_hypothesis_not_the_gram():
    # every cycle ends with no computed Gram column, and the carried
    # hypothesis values stay the kernel expansion of the carried weights,
    # through a relabel pass that inverts every label
    def check(model):
        assert model.gram.n == model.n and model.gram.computed_count == 0
        np.testing.assert_allclose(model.F, eager_gram(model.X, 30.0) @ model.alpha,
                                   rtol=0.0, atol=1e-9)

    model = make_cycle_model()
    oracle = FlatOracle([0.7, -0.7])
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (600, 2))
    model.set_data(X, [oracle(x) for x in X])
    model.train()
    model.sparsify()
    check(model)
    params = SamplerParams(a_max=200, kappa=4, seed=3)
    for cycle in range(4):
        oracle.flip = cycle == 2
        update_cycle(model, oracle, params)
        check(model)


def test_churning_cycle_stops_early_on_the_snapshot_before_its_removal():
    # the benchmark's moving scene: 4 cubes of side 0.12-0.2 moving 0.02
    # per step, sampler seed 0. Its second cycle removes a point and then
    # cannot get every margin positive again; it used to run to iter_max
    cfg = load_config({
        "robot": {"type": "dof2"},
        "obstacles": {"count": 4, "randomize_count": False, "size_range": [0.12, 0.2],
                      "motion_steps": 2, "motion_speed": 0.02},
        "fastron": {"gamma": 30.0, "beta": 1.0, "n0": 2000, "a_max": 500, "kappa": 4},
    })
    scene = Scene(cfg, 0)
    chain, workspace, model = scene.chain, scene.workspace, scene.new_model()
    # train snapshots (alpha, F) just before each removal attempt
    snapshots, ends = [], []
    remove, train = model.remove_redundant, model.train

    def recording_remove():
        snapshots.append((model.alpha.copy(), model.F.copy()))
        return remove()

    def recording_train():
        report = train()
        ends.append((report, model.alpha.copy(), model.F.copy(), snapshots[-1]))
        return report

    model.remove_redundant, model.train = recording_remove, recording_train
    for step in range(2):
        if step:
            workspace = workspace.stepped()
        update_cycle(model, make_label_fn(chain, workspace), cfg.sampler_params(0))
    report, alpha, F, (snap_alpha, snap_F) = ends[1]
    assert report.stop == "early_revert" and report.reverted
    assert report.removals > 0
    assert report.corrections >= model_module.EARLY_REVERT_CORRECTIONS
    assert report.iterations_used < model.params.iter_max
    assert alpha.tobytes() == snap_alpha.tobytes()
    assert F.tobytes() == snap_F.tobytes()
    assert report.final_misclassified == 0
