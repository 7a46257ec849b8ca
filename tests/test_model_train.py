import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fastron.model as model_module
from fastron.model import FastronModel, TrainParams

from reference import eager_gram, model_loss, reference_train


def make_model(X, y, **kw):
    params = TrainParams(**{"gamma": 30.0, **kw})
    m = FastronModel(params, dim=np.asarray(X).shape[1] if len(X) else None)
    m.set_data(X, y)
    return m


def random_dataset(rng, n, d):
    X = rng.uniform(-1, 1, (n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return X, y


def bias_vector(y, beta):
    return np.where(y > 0, beta, 1.0)


def iteration_bound(X, y, gamma, beta):
    # dense-solve upper bound y' B K^-1 B y on correction count
    K = eager_gram(np.asarray(X), gamma)
    by = bias_vector(np.asarray(y), beta) * np.asarray(y)
    return float(by @ np.linalg.solve(K, by))


def test_single_point_hand_trace():
    m = make_model([[0.1, 0.2]], [1], beta=1.0)
    rep = m.train()
    assert rep.corrections == 1
    assert m.alpha[0] == pytest.approx(1.0)
    assert m.F[0] == pytest.approx(1.0)
    assert m.margins()[0] == pytest.approx(1.0)
    assert rep.final_misclassified == 0


def test_single_point_biased_hand_trace():
    m = make_model([[0.1, 0.2]], [1], beta=100.0)
    rep = m.train()
    assert rep.corrections == 1
    assert m.alpha[0] == pytest.approx(100.0)
    assert m.F[0] == pytest.approx(100.0)


def test_single_free_point_target_is_unbiased():
    # b_i = beta^(0.5(y+1)) = 1 for y = -1 regardless of beta
    m = make_model([[0.0, 0.0]], [-1], beta=100.0)
    m.train()
    assert m.alpha[0] == pytest.approx(-1.0)


def test_empty_dataset_trains_trivially():
    m = FastronModel(TrainParams(gamma=30.0), dim=2)
    rep = m.train()
    assert rep.iterations_used == 0
    assert rep.stop == "converged" and not rep.reverted
    assert m.predict(np.zeros(2)) == 1  # conservative tie-break


def test_interpolation_weights_need_no_corrections():
    # alpha = K^-1 B y gives margin exactly b_i for every point
    rng = np.random.default_rng(5)
    for beta in (1.0, 100.0):
        X, y = random_dataset(rng, 15, 2)
        K = eager_gram(X, 30.0)
        by = bias_vector(y, beta) * y
        m = make_model(X, y, beta=beta)
        m.alpha = np.linalg.solve(K, by)
        m.F = K @ m.alpha
        np.testing.assert_allclose(m.margins(), bias_vector(y, beta), atol=1e-9)
        assert (m.margins() > 0).all()  # no correction needed at entry
        rep = m.train()
        assert rep.corrections == 0
        assert rep.final_misclassified == 0


def test_convergence_and_iteration_bound_small():
    rng = np.random.default_rng(11)
    for beta in (1.0, 100.0):
        for _ in range(5):
            X, y = random_dataset(rng, 50, 2)
            bound = iteration_bound(X, y, 30.0, beta)
            m = make_model(X, y, beta=beta, iter_max=int(bound) + 1 + 50 * 4)
            rep = m.train()
            assert rep.final_misclassified == 0
            assert (m.margins() > 0).all()
            assert rep.corrections <= bound


def test_post_correction_margin_equals_bias():
    # after the very first correction at i, y_i F_i == b_i
    rng = np.random.default_rng(13)
    X, y = random_dataset(rng, 30, 2)
    for beta in (1.0, 100.0):
        m = make_model(X, y, beta=beta, iter_max=1)
        m.train()
        i = np.flatnonzero(m.alpha)[0]
        b_i = beta if y[i] > 0 else 1.0
        assert y[i] * m.F[i] == pytest.approx(b_i, abs=1e-9)


def test_loss_descent_per_correction():
    rng = np.random.default_rng(17)
    for beta in (1.0, 100.0):
        X, y = random_dataset(rng, 80, 2)
        m = make_model(X, y, beta=beta)
        rep = m.train(record_loss=True)
        trace = rep.loss_trace
        kinds = rep.step_kinds
        assert len(trace) == len(kinds) + 1
        for k, kind in enumerate(kinds):
            if kind == "correction":
                assert trace[k + 1] <= trace[k] - 0.5 + 1e-9
        # the trace end matches a from-scratch loss evaluation
        if not rep.reverted:
            assert trace[-1] == pytest.approx(model_loss(m), abs=1e-9)


def test_sign_constraint_after_every_step():
    # y_i alpha_i >= 0 at every intermediate state; training is
    # deterministic, so a run truncated at k iterations reproduces the
    # state after the k-th step of the full run (modulo the revert, whose
    # restored snapshot is itself an intermediate state)
    rng = np.random.default_rng(19)
    X, y = random_dataset(rng, 60, 3)
    full = make_model(X, y, beta=1.0)
    total = full.train().iterations_used
    for k in range(1, total + 1, max(1, total // 25)):
        m = make_model(X, y, beta=1.0, iter_max=k)
        m.train()
        assert (m.y * m.alpha >= 0).all()
    assert (full.margins() > 0).all()


def test_incremental_F_matches_eager_recompute():
    rng = np.random.default_rng(23)
    for beta in (1.0, 100.0):
        X, y = random_dataset(rng, 200, 2)
        m = make_model(X, y, beta=beta)
        m.train()
        K = eager_gram(X, 30.0)
        F_eager = K @ m.alpha
        scale = max(1.0, np.abs(F_eager).max())
        np.testing.assert_allclose(m.F, F_eager, atol=1e-12 * scale)


def test_support_cap_respected_every_state():
    rng = np.random.default_rng(29)
    X, y = random_dataset(rng, 60, 2)
    full = make_model(X, y, s_max=10)
    total = full.train().iterations_used
    for k in range(1, total + 1, max(1, total // 25)):
        m = make_model(X, y, s_max=10, iter_max=k)
        m.train()
        assert np.count_nonzero(m.alpha) <= 10


def test_cap_blocked_termination_reported():
    # random +/-1 labels at gamma high enough that every point must be a
    # support point: the cap must block and training must stop
    rng = np.random.default_rng(31)
    X = rng.uniform(-1, 1, (40, 2))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    m = make_model(X, y, s_max=5)
    rep = m.train()
    assert rep.stop == "cap_blocked"
    assert np.count_nonzero(m.alpha) <= 5


def test_revert_safeguard_with_tiny_iteration_budget():
    rng = np.random.default_rng(37)
    X, y = random_dataset(rng, 50, 2)
    for iter_max in (1, 2, 3, 5, 8):
        m = make_model(X, y, iter_max=iter_max)
        rep = m.train()
        # the returned state is never worse than the last snapshot
        snapshot_mis = 50  # initial snapshot: all-zero alpha misclassifies all
        assert rep.final_misclassified <= snapshot_mis


def test_revert_restores_better_snapshot():
    # force: converge, then one removal breaks a margin, iter_max runs out
    X = np.array([[0.0, 0.0], [0.05, 0.0]])
    y = np.array([1.0, 1.0])
    m = make_model(X, y, iter_max=3)
    rep = m.train()
    assert rep.final_misclassified == 0


def test_misclassification_test_is_exact_zero_boundary():
    # a point with margin exactly 0 counts as misclassified and is corrected
    m = make_model([[0.2, 0.2], [-0.2, -0.2]], [1, -1])
    rep = m.train()
    assert rep.corrections >= 2  # both start at margin 0 <= 0
    assert (m.margins() > 0).all()


def test_train_report_invariant_unbounded_runs():
    rng = np.random.default_rng(41)
    for _ in range(5):
        X, y = random_dataset(rng, 40, 2)
        m = make_model(X, y)
        rep = m.train()
        if rep.stop == "converged":
            assert rep.final_misclassified == 0 and not rep.reverted


def test_stop_names_the_rule_even_on_the_last_pass():
    # the warm run of the seed-80845330 example below gives its last removal
    # up on pass 25 of 25: it stopped by its own rule, not by the budget
    rng = np.random.default_rng(80845330)
    X, y = random_dataset(rng, 20, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "EARLY_REVERT_CORRECTIONS", 4)
        m = make_model(X, y, gamma=3.0, s_max=12, iter_max=25)
        m.train()
        m.set_labels(np.where(rng.random(20) < 0.3, -y, y))
        rep = m.train()
    assert rep.iterations_used == m.params.iter_max
    assert rep.stop == "early_revert" and rep.reverted
    # the same data with a budget too short for any rule to fire
    m = make_model(X, y, gamma=3.0, iter_max=3)
    rep = m.train()
    assert rep.iterations_used == 3 and rep.stop == "iter_max"
    assert rep.corrections == 3 and rep.removals == 0


REPORT_COUNTS = ("iterations_used", "corrections", "removals", "final_misclassified",
                 "reverted", "stop")


def assert_matches_reference(m, rep, alpha, F, counts):
    np.testing.assert_array_equal(m.alpha, alpha)
    np.testing.assert_array_equal(m.F, F)
    assert {k: getattr(rep, k) for k in REPORT_COUNTS} == counts


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 4),
    n=st.integers(1, 50),
    beta=st.sampled_from([1.0, 3.0]),
    gamma=st.sampled_from([3.0, 30.0]),
    s_max=st.integers(1, 40),
    iter_max=st.integers(1, 120),
    limit=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
# the warm run reverts after a removal; the cold run is cap-blocked, the warm one reverts
@example(d=2, n=20, beta=1.0, gamma=3.0, s_max=8, iter_max=25, limit=20, seed=1)
@example(d=2, n=20, beta=1.0, gamma=3.0, s_max=8, iter_max=25, limit=20, seed=19)
# the warm run stops early: after a removal, and to a cap-blocked snapshot
@example(d=2, n=20, beta=1.0, gamma=3.0, s_max=8, iter_max=25, limit=1, seed=1)
@example(d=2, n=20, beta=1.0, gamma=3.0, s_max=8, iter_max=25, limit=1, seed=19)
# the warm run stops early on its last pass before iter_max
@example(d=2, n=20, beta=1.0, gamma=3.0, s_max=12, iter_max=25, limit=4, seed=80845330)
def test_train_matches_reference_loop_bitwise(d, n, beta, gamma, s_max, iter_max, limit, seed):
    # a small s_max makes the cap block, a small iter_max truncates and a
    # small early-revert limit gives removals up; the second run
    # warm-starts after relabelling, as an update cycle does, and may meet
    # y_i alpha_i < 0
    rng = np.random.default_rng(seed)
    X, y = random_dataset(rng, n, d)
    kw = dict(gamma=gamma, beta=beta, s_max=s_max, iter_max=iter_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "EARLY_REVERT_CORRECTIONS", limit)
        m = make_model(X, y, **kw)
        rep = m.train()
        alpha, F, counts = reference_train(X, y, gamma, beta, iter_max, s_max, limit)
        assert_matches_reference(m, rep, alpha, F, counts)
        y2 = np.where(rng.random(n) < 0.3, -y, y)
        m.set_labels(y2)
        rep = m.train()
        alpha, F, counts = reference_train(X, y2, gamma, beta, iter_max, s_max, limit, alpha, F)
        assert_matches_reference(m, rep, alpha, F, counts)


@pytest.mark.parametrize("kw, field", [
    ({"gamma": float("nan")}, "gamma"),
    ({"gamma": float("inf")}, "gamma"),
    ({"beta": float("nan")}, "beta"),
    ({"beta": float("inf")}, "beta"),
    ({"gamma": 0.0}, "gamma"),
    ({"beta": 0.5}, "beta"),
    ({"iter_max": 2.5}, "iter_max"),
    ({"iter_max": 0}, "iter_max"),
    ({"s_max": float("nan")}, "s_max"),
])
def test_train_params_reject_non_finite_and_out_of_range(kw, field):
    with pytest.raises(ValueError, match=field):
        TrainParams(**kw)
