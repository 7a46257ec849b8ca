import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastron.kernels import rq_kernel
from fastron.model import BATCH_BYTES, DuplicatePointError, FastronModel, TrainParams, _batch_rows

from reference import eager_gram, fsum_hypothesis, model_loss


def make_model(X, y, **kw):
    params = TrainParams(**{"gamma": 30.0, **kw})
    m = FastronModel(params, dim=np.asarray(X).shape[1] if len(X) else None)
    m.set_data(X, y)
    return m


# ----------------------------------------------------------------------
# set_data


def test_set_data_empty_is_valid():
    m = FastronModel(TrainParams(gamma=30.0), dim=2)
    m.set_data(np.zeros((0, 2)), [])
    assert m.n == 0
    assert m.predict(np.zeros(2)) == 1


def test_set_data_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        make_model([[0.1, 0.2], [0.1, 0.2]], [1, -1])


def test_set_data_rejects_bad_labels_and_range():
    with pytest.raises(ValueError):
        make_model([[0.1, 0.2]], [2])
    with pytest.raises(ValueError):
        make_model([[1.5, 0.0]], [1])


def test_set_data_large_mixed_initializes_zero_weights():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (2000, 2))
    y = np.where(rng.random(2000) < 0.5, 1.0, -1.0)
    m = make_model(X, y)
    assert np.all(m.alpha == 0.0)
    assert np.all(m.F == 0.0)


# ----------------------------------------------------------------------
# predict / hypothesis


def test_predict_empty_model_is_conservative():
    m = FastronModel(TrainParams(gamma=30.0), dim=3)
    assert m.predict(np.zeros(3)) == 1
    assert m.hypothesis(np.zeros(3)) == 0.0


def test_predict_at_single_support_point():
    m = make_model([[0.3, -0.4]], [1])
    m.train()
    assert m.hypothesis(np.array([0.3, -0.4])) == pytest.approx(1.0, abs=1e-12)
    assert m.predict(np.array([0.3, -0.4])) == 1


def test_hypothesis_zero_weights_is_zero():
    m = make_model([[0.1, 0.1], [0.2, 0.2]], [1, -1])
    assert m.hypothesis(np.array([0.0, 0.0])) == 0.0


@pytest.mark.parametrize("weights", ["no data", "all zero"])
def test_models_without_support_check_query_dimension(weights):
    m = FastronModel(TrainParams(gamma=30.0), dim=3)
    if weights == "all zero":
        m.set_data([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]], [1, -1])
    with pytest.raises(ValueError, match=r"dimension mismatch: expected 3, got \(5,\)"):
        m.predict(np.zeros(5))
    with pytest.raises(ValueError, match=r"dimension mismatch: expected 3, got \(2, 5\)"):
        m.predict_batch(np.zeros((2, 5)))
    assert m.predict(np.zeros(3)) == 1
    assert np.array_equal(m.predict_batch(np.zeros((2, 3))), [1, 1])


def test_empty_dataset_of_another_width_rejected():
    m = FastronModel(TrainParams(gamma=30.0), dim=3)
    with pytest.raises(ValueError, match="dimension mismatch: expected 3"):
        m.set_data(np.zeros((0, 5)), [])


def test_hypothesis_dimension_mismatch():
    m = make_model([[0.1, 0.1]], [1])
    m.train()
    with pytest.raises(ValueError):
        m.hypothesis(np.zeros(3))


@pytest.mark.parametrize("Q", [np.zeros(2), np.zeros((4, 3)), np.zeros((2, 2, 2))])
def test_batch_dimension_mismatch(Q):
    m = make_model([[0.3, -0.4], [0.1, 0.2]], [1, -1])
    m.train()
    with pytest.raises(ValueError, match="dimension mismatch: expected 2"):
        m.hypothesis_batch(Q)
    with pytest.raises(ValueError, match="dimension mismatch: expected 2"):
        m.predict_batch(Q)


def test_far_query_tail_bound():
    # the kernel tail at gamma=30 bounds the score of a distant query:
    # the farthest pair in [-1,1]^4 is 4 apart, kernel (1 + 15*16)^-2
    m = FastronModel(TrainParams(gamma=30.0), dim=4)
    m.set_data([[-1.0, -1.0, -1.0, -1.0]], [1])
    m.train()
    q = np.ones(4)
    tail = (1.0 + 0.5 * 30.0 * 16.0) ** -2
    assert m.hypothesis(q) == pytest.approx(tail, rel=1e-9)
    assert abs(m.hypothesis(q)) < 1e-4
    # numeric check of the tail formula itself at distance 3
    assert rq_kernel(np.zeros(1), np.array([3.0]), 30.0) == pytest.approx(
        (1.0 + 15.0 * 9.0) ** -2, rel=1e-12
    )


def test_predict_matches_fsum_oracle():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (150, 2))
    y = np.where(rng.random(150) < 0.5, 1.0, -1.0)
    m = make_model(X, y)
    m.train()
    for _ in range(500):
        q = rng.uniform(-1, 1, 2)
        ref = fsum_hypothesis(m.X, m.alpha, 30.0, q)
        assert m.hypothesis(q) == pytest.approx(ref, abs=1e-9)
        assert m.predict(q) == (-1 if ref < 0 else 1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_query_is_in_collision():
    m = make_model([[0.0, 0.0, 0.0]], [-1])
    m.train()
    assert m.predict(np.zeros(3)) == -1
    bad = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.5],
                    [np.inf, -np.inf, np.nan]])
    assert [m.predict(q) for q in bad] == [1, 1, 1, 1]
    assert np.array_equal(m.predict_batch(bad), [1, 1, 1, 1])


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 7),
    gamma=st.floats(1.0, 100.0),
    n=st.integers(0, 300),
    block=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=7, gamma=100.0, n=8, block=64, seed=0)  # corner support points, widest cancellation
@example(d=1, gamma=1.0, n=1, block=1, seed=1)
def test_scores_match_exact_expansion_property(d, gamma, n, block, seed):
    # the cached form sums -gamma x_i.q + c0_i + gamma/2 |q|^2, which cancels
    # down to 1 at a support point; both query paths must still track the exact sum
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    X[: n // 4] = np.sign(X[: n // 4])  # support points at corners
    X = np.unique(X, axis=0)
    m = FastronModel(TrainParams(gamma=gamma), dim=d)
    m.set_data(X, np.ones(len(X)))
    m.alpha = rng.normal(size=len(X)) * (rng.random(len(X)) < 0.8)
    corners = np.where(rng.random((8, d)) < 0.5, -1.0, 1.0)
    Q = np.vstack([rng.uniform(-1, 1, (8, d)), X[:16], corners])
    exact = np.array([fsum_hypothesis(m.X, m.alpha, gamma, q) for q in Q])
    tol = 1e-12 * float(np.abs(m.alpha).sum()) + 1e-15
    single = np.array([m.hypothesis(q) for q in Q])
    assert np.all(np.abs(single - exact) <= tol)
    with mock.patch("fastron.model._batch_rows", lambda support: block):
        batch = m.hypothesis_batch(Q)
    assert np.all(np.abs(batch - exact) <= tol)


def test_batch_prediction_matches_single():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (100, 3))
    y = np.where(rng.random(100) < 0.4, 1.0, -1.0)
    m = make_model(X, y)
    m.train()
    Q = rng.uniform(-1, 1, (300, 3))
    batch = m.predict_batch(Q)
    single = np.array([m.predict(q) for q in Q])
    assert np.array_equal(batch, single)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 4),
    n=st.integers(0, 300),
    n_queries=st.integers(1, 200),
    block=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, n=0, n_queries=5, block=2, seed=0)  # the empty model
@example(d=4, n=200, n_queries=1, block=1024, seed=1)  # one query
@example(d=3, n=150, n_queries=130, block=64, seed=2)  # ragged last block
@example(d=1, n=40, n_queries=50, block=16, seed=3)
@example(d=7, n=300, n_queries=100, block=32, seed=4)
def test_batch_sign_agrees_with_single_property(d, n, n_queries, block, seed):
    # batch and single sum in different orders, so only scores clear of
    # rounding must agree in sign
    rng = np.random.default_rng(seed)
    m = FastronModel(TrainParams(gamma=float(rng.uniform(1.0, 50.0))), dim=d)
    m.set_data(rng.uniform(-1, 1, (n, d)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
    m.train()
    Q = rng.uniform(-1, 1, (n_queries, d))
    f = np.array([m.hypothesis(q) for q in Q])
    single = np.array([m.predict(q) for q in Q])
    with mock.patch("fastron.model._batch_rows", lambda support: block):
        batch = m.predict_batch(Q)
    assert batch.shape == (n_queries,)
    decided = np.abs(f) > 1e-9 * float(np.abs(m.alpha).sum())
    assert np.array_equal(batch[decided], single[decided])
    if n == 0:
        assert np.all(batch == 1)


@pytest.mark.parametrize("support", [0, 1, 63, 64, 189, 500, 798, 1500, 2048, 2049, 10**5])
def test_batch_rows_fill_the_byte_budget(support):
    # a power of two, at least 64; above 64 its scores fit in BATCH_BYTES,
    # and twice as many rows would not
    rows = _batch_rows(support)
    assert rows >= 64 and rows & (rows - 1) == 0
    assert rows == 64 or rows * support * 8 <= BATCH_BYTES
    if support:
        assert 2 * rows * support * 8 > BATCH_BYTES


def test_empty_model_scores_every_query_in_collision():
    m = FastronModel(TrainParams(), dim=3)
    Q = np.random.default_rng(0).uniform(-1, 1, (5000, 3))
    assert np.all(m.hypothesis_batch(Q) == 0.0)
    assert np.all(m.predict_batch(Q) == 1)


def test_batch_peak_memory_is_one_block_buffer():
    # a (block, |S|, d) difference tensor would need about 9x block*|S|*8
    # bytes, and a fixed 1024-row block grows with |S|: 11.9 MiB at 1,500
    rng = np.random.default_rng(3)
    d = 4
    Q = rng.uniform(-1, 1, (10_000, d))
    for support in (189, 500, 1500):
        m = make_model(rng.uniform(-1, 1, (support, d)), np.ones(support), gamma=10.0)
        m.alpha = rng.normal(size=support)
        m.predict_batch(Q[:1])  # builds the cached support arrays
        tracemalloc.start()
        try:
            m.predict_batch(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, (support, peak)


# ----------------------------------------------------------------------
# loss


def test_loss_zero_weights():
    m = make_model([[0.1, 0.2], [0.3, 0.4]], [1, -1])
    assert model_loss(m) == 0.0


def test_loss_single_point_hand_value():
    m = make_model([[0.1, 0.2]], [1])
    m.alpha = np.array([1.0])
    m.F = np.array([1.0])
    assert model_loss(m) == pytest.approx(-0.5, abs=1e-15)


def test_loss_lower_bound_via_qp_oracle():
    # alpha = K^-1 y attains -1/2 y' K^-1 y; no weight vector does better
    from scipy.optimize import minimize

    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (12, 2))
    y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    K = eager_gram(X, 30.0)
    a_star = np.linalg.solve(K, y)
    lower = -0.5 * float(y @ a_star)

    m = make_model(X, y)
    m.alpha = a_star
    m.F = K @ a_star
    assert model_loss(m) == pytest.approx(lower, abs=1e-9)
    np.testing.assert_allclose(m.margins(), 1.0, atol=1e-9)

    def loss_fn(a):
        return 0.5 * a @ K @ a - y @ a

    def grad(a):
        return K @ a - y

    for seed in range(5):
        start = np.random.default_rng(seed).normal(0, 2, 12)
        res = minimize(loss_fn, start, jac=grad, method="L-BFGS-B")
        assert res.fun >= lower - 1e-9


def test_loss_dual_formulation_consistent():
    # the sign-constrained optimum alpha = Y lambda*, lambda >= 0, never
    # beats the unconstrained interpolation solution
    from scipy.optimize import minimize

    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (10, 2))
    y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
    K = eager_gram(X, 30.0)
    YKY = np.outer(y, y) * K

    res = minimize(
        lambda lam: 0.5 * lam @ YKY @ lam - lam.sum(),
        np.ones(10),
        jac=lambda lam: YKY @ lam - 1.0,
        bounds=[(0.0, None)] * 10,
        method="L-BFGS-B",
    )
    a_dual = y * res.x
    assert np.all(y * a_dual >= -1e-12)
    lower = -0.5 * float(y @ np.linalg.solve(K, y))
    dual_loss = 0.5 * a_dual @ K @ a_dual - y @ a_dual
    assert dual_loss >= lower - 1e-9


# ----------------------------------------------------------------------
# remove_redundant


def test_no_removal_at_exact_zero_resultant_margin():
    m = make_model([[0.2, 0.1]], [1])
    m.train()  # alpha = [1], F = [1]: resultant margin exactly 0
    assert m.remove_redundant() is False
    assert m.alpha[0] == 1.0


def test_removal_of_near_duplicate_support_point():
    # two same-label points with kernel 0.99: one is redundant
    gamma = 30.0
    d2 = 2.0 * (0.99 ** -0.5 - 1.0) / gamma
    x2 = [np.sqrt(d2), 0.0]
    m = make_model([[0.0, 0.0], x2], [1, 1], gamma=gamma)
    k12 = rq_kernel(np.zeros(2), np.array(x2), gamma)
    assert k12 == pytest.approx(0.99, abs=1e-12)
    m.alpha = np.array([1.0, 1.0])
    m.F = eager_gram(m.X, gamma) @ m.alpha
    assert m.remove_redundant() is True
    assert np.count_nonzero(m.alpha) == 1
    assert (m.margins() > 0).all()


def test_removal_keeps_F_consistent():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (50, 2))
    y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    m = make_model(X, y)
    m.train()
    while m.remove_redundant():
        pass
    F_eager = eager_gram(X, 30.0) @ m.alpha
    np.testing.assert_allclose(m.F, F_eager, atol=1e-9)


# ----------------------------------------------------------------------
# sparsify


def test_sparsify_all_zero_empties_model():
    m = make_model([[0.1, 0.2], [0.3, 0.4]], [1, -1])
    assert m.sparsify() == 2
    assert m.n == 0


def test_sparsify_is_bitwise_exact():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, (200, 2))
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    m = make_model(X, y)
    m.train()
    queries = rng.uniform(-1, 1, (1000, 2))
    before_f = [m.hypothesis(q) for q in queries]
    before_p = [m.predict(q) for q in queries]
    dropped = m.sparsify()
    assert dropped == 200 - m.n
    after_f = [m.hypothesis(q) for q in queries]
    after_p = [m.predict(q) for q in queries]
    assert before_f == after_f  # bit-identical scores
    assert before_p == after_p


def test_sparsify_gram_matches_eager():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (60, 2))
    y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
    m = make_model(X, y)
    m.train()
    m.sparsify()
    K = np.column_stack([m.gram.ensure_column(m.X, j) for j in range(m.n)])
    np.testing.assert_array_equal(K, eager_gram(m.X, 30.0))


# ----------------------------------------------------------------------
# append_points


def test_append_empty_is_no_op():
    m = make_model([[0.1, 0.2]], [1])
    m.train()
    m.append_points(np.zeros((0, 2)), [])
    assert m.n == 1


def test_append_hand_value():
    # retained support {x1, alpha=2}: new point with kernel 0.5 gets F = 1
    gamma = 30.0
    d2 = 2.0 * (0.5 ** -0.5 - 1.0) / gamma
    m = make_model([[0.0, 0.0]], [1], gamma=gamma)
    m.alpha = np.array([2.0])
    m.gram.ensure_column(m.X, 0)
    m.F = np.array([2.0])
    new = np.array([[np.sqrt(d2), 0.0]])
    m.append_points(new, [1])
    assert m.F[1] == pytest.approx(1.0, abs=1e-12)
    assert m.F[0] == 2.0  # untouched
    assert m.alpha[1] == 0.0


def test_append_requires_sparsified_model():
    m = make_model([[0.1, 0.2], [0.5, 0.5]], [1, 1])
    m.train()
    m.alpha[1] = 0.0  # fake a non-support point
    with pytest.raises(ValueError):
        m.append_points([[0.9, 0.9]], [1])


def test_append_duplicate_rejected():
    m = make_model([[0.1, 0.2]], [1])
    m.train()
    m.sparsify()
    with pytest.raises(DuplicatePointError):
        m.append_points([[0.1, 0.2]], [1])


def test_incremental_append_reaches_positive_margins_like_scratch():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, (120, 2))
    y = np.where(rng.random(120) < 0.5, 1.0, -1.0)
    m = make_model(X, y)
    m.train()
    m.sparsify()
    A = rng.uniform(-1, 1, (40, 2))
    yA = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    m.append_points(A, yA)
    rep_inc = m.train()
    assert rep_inc.final_misclassified == 0
    assert (m.margins() > 0).all()
    # scratch retrain on the union converges too
    m2 = make_model(np.vstack([m.X]), m.y)
    rep_scr = m2.train()
    assert rep_scr.final_misclassified == 0


# ----------------------------------------------------------------------
# serialization


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (80, 3))
    y = np.where(rng.random(80) < 0.5, 1.0, -1.0)
    m = make_model(X, y, beta=100.0)
    m.train()
    m.sparsify()
    path = tmp_path / "model.txt"
    m.save(path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("fastron v1 d=3 n=")
    assert "gamma=30.0" in header and "beta=100.0" in header
    m2 = FastronModel.load(path)
    assert m2.n == m.n
    queries = rng.uniform(-1, 1, (500, 3))
    for q in queries:
        assert m2.predict(q) == m.predict(q)
        assert m2.hypothesis(q) == m.hypothesis(q)  # bitwise


def test_load_builds_F_bitwise_from_the_eager_gram(tmp_path):
    rng = np.random.default_rng(10)
    m = make_model(rng.uniform(-1, 1, (150, 4)), np.where(rng.random(150) < 0.5, 1.0, -1.0))
    m.train()
    m.sparsify()
    path = tmp_path / "model.txt"
    m.save(path)
    m2 = FastronModel.load(path)
    np.testing.assert_array_equal(m2.F, eager_gram(m2.X, 30.0) @ m2.alpha)
    # a loaded model scores appended points as the trained one does
    n_old, A = m.n, rng.uniform(-1, 1, (20, 4))
    m.append_points(A, np.ones(20))
    m2.append_points(A, np.ones(20))
    np.testing.assert_array_equal(m2.F[n_old:], m.F[n_old:])


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        FastronModel.load(path)


def _saved_lines(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (40, 2))
    m = make_model(X, np.where(X[:, 0] > 0, 1.0, -1.0))
    m.train()
    m.sparsify()
    m.save(tmp_path / "good.txt")
    return (tmp_path / "good.txt").read_text().splitlines()


def test_load_rejects_misspelled_or_missing_header_key(tmp_path):
    lines = _saved_lines(tmp_path)
    path = tmp_path / "bad.txt"
    for old, new in (("gamma=", "gama="), (" n=", " m=")):
        path.write_text("\n".join([lines[0].replace(old, new)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="bad header"):
            FastronModel.load(path)


def test_load_rejects_non_finite_coordinate_or_weight(tmp_path):
    lines = _saved_lines(tmp_path)
    path = tmp_path / "bad.txt"
    for col in (0, -1):  # first coordinate, weight
        toks = lines[1].split()
        toks[col] = "nan"
        path.write_text("\n".join([lines[0], " ".join(toks)] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            FastronModel.load(path)


def test_load_rejects_a_zero_weight(tmp_path):
    # a zero-weight row would load as a model that is not sparsified
    path = tmp_path / "bad.txt"
    path.write_text("fastron v1 d=2 n=2 gamma=30.0 beta=1.0\n\n"
                    "0.1 0.2 1.0 0.5\n0.3 0.4 -1.0 0.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt: line 4 has weight 0"):  # blank lines count
        FastronModel.load(path)


@pytest.mark.parametrize("rows, match", [
    ("0.1 abc 1.0 0.5", r"line 3 has a non-number: could not convert string to float: 'abc'"),
    ("0.1 0.2 0.5 0.5", r"line 3 has a label other than \+1 or -1"),
    ("2.0 0.2 1.0 0.5", r"line 3 has a coordinate outside \[-1, 1\]"),
    ("0.3 0.4 -1.0 0.2\n0.3 0.4 -1.0 0.2", r"line 4 has the configuration of an earlier line"),
], ids=["not-a-number", "label", "coordinate", "duplicate"])
def test_load_rejection_names_the_file_and_line(tmp_path, rows, match):
    path = tmp_path / "bad.txt"
    body = "0.5 0.5 1.0 0.7\n" + rows + "\n"
    path.write_text(f"fastron v1 d=2 n={body.count(chr(10))} gamma=30.0 beta=1.0\n" + body)
    with pytest.raises(ValueError, match=r"bad\.txt: " + match):
        FastronModel.load(path)


@pytest.mark.parametrize("body", [
    "fastron v1 d=0 n=0 gamma=30.0 beta=1.0",
    "fastron v1 d=-1 n=1 gamma=30.0 beta=1.0\n0.5 1.0 1.0",
    "fastron v1 d=0 n=2 gamma=30.0 beta=1.0\n1.0 1.0\n-1.0 -1.0",
], ids=["d=0,n=0", "d=-1", "d=0,n=2"])
def test_load_rejects_dimension_below_one(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body + "\n")
    with pytest.raises(ValueError, match=r"bad\.txt: bad header .*d must be an integer >= 1"):
        FastronModel.load(path)


@pytest.mark.parametrize("dim", [0, -1, 2.5, True])
def test_model_requires_integer_dimension_of_at_least_one(dim):
    with pytest.raises(ValueError, match="dim"):
        FastronModel(TrainParams(gamma=30.0), dim=dim)
    with pytest.raises(TypeError):
        FastronModel(TrainParams(gamma=30.0))
