import mmap
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from fastron.kernels import LazyGramMatrix, rq_kernel_product
from fastron.model import FastronModel, TrainParams

from reference import eager_gram


def fill(g, X):
    """Every column computed, one ensure_column each, stacked into the matrix."""
    return np.column_stack([g.ensure_column(X, j) for j in range(g.n)])


@pytest.fixture
def points():
    rng = np.random.default_rng(42)
    return rng.uniform(-1, 1, (60, 3))


def test_ensure_column_matches_eager(points):
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    col = g.ensure_column(points, 0)
    K = eager_gram(points, 30.0)
    np.testing.assert_array_equal(col, K[:, 0])
    assert col[0] == 1.0


def test_ensure_column_idempotent(points):
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    g.ensure_column(points, 5)
    evals = g.kernel_evals
    g.ensure_column(points, 5)
    assert g.kernel_evals == evals  # second call does no work


def test_ensure_column_out_of_range(points):
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    with pytest.raises(IndexError):
        g.ensure_column(points, len(points))
    with pytest.raises(IndexError):
        g.ensure_column(points, -1)


def test_full_fill_symmetric_and_exact(points):
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    K = fill(g, points).copy()
    np.testing.assert_array_equal(K, K.T)  # 0 ulp symmetry
    np.testing.assert_array_equal(K, eager_gram(points, 30.0))


def test_lazy_fill_order_independent(points):
    # any fill order is extensionally equal to the eager computation
    rng = np.random.default_rng(3)
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    for j in rng.permutation(len(points)):
        g.ensure_column(points, int(j))
    evals = g.kernel_evals
    np.testing.assert_array_equal(fill(g, points), eager_gram(points, 30.0))
    assert g.kernel_evals == evals


def test_positive_definite_on_distinct_points():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (200, 2))
    g = LazyGramMatrix(30.0)
    g.reset(len(X))
    K = fill(g, X)
    np.linalg.cholesky(K)  # raises if not positive definite
    assert np.linalg.eigvalsh(K).min() > 0.0


def test_reset_forgets_every_column_and_refills_exactly(points):
    g = LazyGramMatrix(30.0)
    g.reset(60)
    fill(g, points)
    for n in (20, 45):  # shrink, then grow
        g.reset(n)
        assert g.n == n and g.computed_count == 0
        assert not any(g.column_computed(j) for j in range(n))
        np.testing.assert_array_equal(fill(g, points[::-1][:n]), eager_gram(points[::-1][:n], 30.0))


@pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 65, 66, 129, 130, 200])
def test_rq_kernel_product_is_the_row_major_block_product(points, rows):
    # row blocks of PRODUCT_ROWS, a one-row tail joined to the block before
    # it: the bits of one product over the C-contiguous block
    rng = np.random.default_rng(rows)
    X = points[:50]
    A = rng.uniform(-1, 1, (rows, 3))
    w = rng.normal(size=50)
    K = eager_gram(np.vstack([X, A]), 30.0)
    expected = np.ascontiguousarray(K[50:, :50]) @ w
    np.testing.assert_array_equal(rq_kernel_product(A, X, w, 30.0), expected)


# ----------------------------------------------------------------------
# the Gram matrix lives for one training run


def trained_model(n=300, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    m = FastronModel(TrainParams(gamma=30.0), dim=2)
    m.set_data(X, np.where(X[:, 0] + X[:, 1] > 0.1, 1.0, -1.0))
    m.train()
    return m


def test_sparsify_and_append_leave_no_computed_column():
    m = trained_model()
    assert m.gram.computed_count > 0
    m.sparsify()
    assert m.gram.n == m.n and m.gram.computed_count == 0
    evals, support = m.gram.kernel_evals, m.n
    A = np.random.default_rng(6).uniform(-1, 1, (70, 2))
    m.append_points(A, np.ones(70))
    assert m.gram.kernel_evals == evals + 70 * support  # K(A, X_S), once
    assert m.gram.n == m.n and m.gram.computed_count == 0
    m.train()  # refills the retained columns it touches
    assert m.gram.computed_count > 0
    assert_computed_columns_exact(m.gram, m.X)


def test_sparsify_without_zero_weights_still_ends_the_gram():
    m = trained_model()
    m.sparsify()
    m.gram.ensure_column(m.X, 0)
    assert m.sparsify() == 0
    assert m.gram.computed_count == 0


def test_model_keeps_what_perfbench_relies_on():
    # perfbench builds models with capacity=, reads gram.reallocs, and times
    # every first fill through a wrapper on the model's Gram instance
    m = FastronModel(TrainParams(gamma=30.0), dim=2, capacity=40)
    assert m.gram.reallocs == 0
    gram, ensure, fills = m.gram, m.gram.ensure_column, []

    def ensure_column(X, j):
        if not gram.column_computed(j):
            fills.append(j)
        return ensure(X, j)

    gram.ensure_column = ensure_column
    X = np.random.default_rng(13).uniform(-1, 1, (300, 2))
    m.set_data(X, np.where(X[:, 0] * X[:, 1] > 0.05, 1.0, -1.0))
    report = m.train()
    assert report.removals > 0
    assert len(fills) == len(set(fills)) == gram.computed_count > 0
    assert gram.kernel_evals == m.n * gram.computed_count
    assert m.gram.reallocs == 0


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_append_and_sparsify_allocate_no_full_block():
    # an append of 500 points onto |S| = 1500 at d = 4 holds row blocks of
    # K(A, X_S), not the whole (500, 1500) block; sparsify copies no Gram
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (2000, 4))
    m = FastronModel(TrainParams(gamma=10.0), dim=4)
    m.set_data(X[:1500], np.ones(1500))
    m.alpha = rng.normal(size=1500)
    block = 500 * 1500 * 8
    assert _peak_bytes(lambda: m.append_points(X[1500:], np.ones(500))) < 1.5 * block
    # the appended points enter with zero weight: sparsify drops them
    assert _peak_bytes(m.sparsify) < 1500 * 1500 * 8
    assert m.n == 1500


# ----------------------------------------------------------------------
# column storage: each computed column is its own array


def assert_computed_columns_exact(g, X):
    K = eager_gram(X[: g.n], g.gamma)
    for j in range(g.n):
        if g.column_computed(j):
            np.testing.assert_array_equal(g.ensure_column(X, j), K[:, j])


def test_ensure_column_is_c_contiguous_and_kept(points):
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    for j in (0, 17, len(points) - 1):
        col = g.ensure_column(points, j)
        assert col.flags.c_contiguous
        assert g.ensure_column(points, j) is col


def test_matrix_exact_through_fills_resets_and_growth(points):
    g = LazyGramMatrix(30.0)
    g.reset(20)
    for j in (0, 4, 5, 13, 19):
        g.ensure_column(points[:20], j)
    assert_computed_columns_exact(g, points)
    X = points[[0, 2, 4, 5, 9, 13, 19]]
    g.reset(len(X))
    g.ensure_column(X, 3)
    assert_computed_columns_exact(g, X)
    X = np.vstack([X, points[20:50]])
    g.reset(len(X))  # 37 points: more than before
    assert g.computed_count == 0
    np.testing.assert_array_equal(fill(g, X), eager_gram(X, 30.0))


def _resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_buffer_is_resident_only_where_written():
    # 50 scattered columns of n = 4000 are 1.6 MB; the Gram holds only the
    # columns computed, where the whole 4000 x 4000 matrix would be 128 MB
    X = np.random.default_rng(8).uniform(-1, 1, (4000, 4))
    before = _resident_bytes()
    g = LazyGramMatrix(10.0)
    g.reset(len(X))
    for j in range(0, len(X), 80):
        g.ensure_column(X, j)
    assert g.computed_count == 50
    assert _resident_bytes() - before < 16 * 2**20


def test_append_points_multiplies_a_row_major_block():
    # the bits of one product over the C-contiguous block K(A, X_S): BLAS
    # sums a transposed operand in another order
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, (400, 3))
    m = FastronModel(TrainParams(gamma=10.0), dim=3)
    m.set_data(X[:300], np.ones(300))
    m.alpha = rng.normal(size=300)
    n_old = m.n
    m.append_points(X[300:], np.ones(100))
    K = eager_gram(X, 10.0)
    expected = np.ascontiguousarray(K[n_old:, :n_old]) @ m.alpha[:n_old]
    np.testing.assert_array_equal(m.F[n_old:], expected)


def test_reset_sparsify_and_append_free_the_filled_columns():
    # nothing but the Gram holds a column: each way a run ends frees it
    m = trained_model()
    A = np.random.default_rng(6).uniform(-1, 1, (70, 2))
    ends = (lambda: m.gram.reset(m.n), m.sparsify, lambda: m.append_points(A, np.ones(70)))
    for end in ends:
        col = weakref.ref(m.gram.ensure_column(m.X, 0))
        assert col() is not None
        end()
        assert col() is None


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_sparsified_models_hold_no_gram_pages():
    # three trained and sparsified models kept alive, as the static runner
    # keeps one per seed until its timing pass, hold less than the Gram
    # working set of one of their training runs
    rng = np.random.default_rng(12)
    before = _resident_bytes()
    models, working_set = [], 0
    for _ in range(3):
        X = rng.uniform(-1, 1, (4000, 4))
        m = FastronModel(TrainParams(gamma=10.0), dim=4)
        m.set_data(X, np.where(np.linalg.norm(X - 0.3, axis=1) < 0.8, 1.0, -1.0))
        m.train()
        working_set = max(working_set, m.gram.computed_count * m.n * 8)
        m.sparsify()
        models.append(m)
    assert working_set > 4 * 2**20
    assert _resident_bytes() - before < working_set
