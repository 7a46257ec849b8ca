import mmap
import os

import numpy as np
import pytest

from fastron.kernels import LazyGramMatrix
from fastron.model import FastronModel, TrainParams

from reference import eager_gram


def fill(g, X):
    """Every column computed, one ensure_column each; the matrix view."""
    for j in range(g.n):
        g.ensure_column(X, j)
    return g.matrix


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
    np.testing.assert_array_equal(g.matrix, eager_gram(points, 30.0))


def test_positive_definite_on_distinct_points():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (200, 2))
    g = LazyGramMatrix(30.0)
    g.reset(len(X))
    K = fill(g, X)
    np.linalg.cholesky(K)  # raises if not positive definite
    assert np.linalg.eigvalsh(K).min() > 0.0


def test_complete_and_extend_no_op_on_empty(points):
    g = LazyGramMatrix(30.0)
    g.reset(10)
    for j in range(10):
        g.ensure_column(points[:10], j)
    before = g.matrix.copy()
    g.complete_and_extend(points[:10], points[:0])
    assert g.n == 10
    np.testing.assert_array_equal(g.matrix, before)


def test_complete_and_extend_matches_eager(points):
    # 3 old points, all columns computed, extend by 2 new points
    g = LazyGramMatrix(30.0)
    g.reset(3)
    for j in range(3):
        g.ensure_column(points[:3], j)
    g.complete_and_extend(points[:3], points[3:5])
    assert g.n == 5
    K5 = eager_gram(points[:5], 30.0)
    np.testing.assert_array_equal(g.matrix[:, :3], K5[:, :3])
    assert not g.column_computed(3)
    assert not g.column_computed(4)


def test_complete_and_extend_fills_every_retained_column_in_one_block(points):
    g = LazyGramMatrix(30.0)
    g.reset(4)
    g.ensure_column(points[:4], 1)
    flags = [g.column_computed(j) for j in range(4)]
    evals = g.kernel_evals
    g.complete_and_extend(points[:4], points[4:7])
    # every retained column gains the 3 new rows; computed flags are unchanged
    assert g.kernel_evals == evals + 3 * 4
    assert [g.column_computed(j) for j in range(4)] == flags
    K7 = eager_gram(points[:7], 30.0)
    np.testing.assert_array_equal(g.matrix[4:, :4], K7[4:, :4])


def test_capacity_hint_prevents_reallocation(points):
    g = LazyGramMatrix(30.0, capacity=40)
    g.reset(30)
    for j in range(30):
        g.ensure_column(points[:30], j)
    g.compact(np.arange(10))
    g.complete_and_extend(points[:10], points[10:35])
    assert g.n == 35
    assert g.reallocs == 0
    g.complete_and_extend(points[:35], points[35:45])
    assert g.reallocs == 1  # above the hint: one growth


def test_compact_preserves_exactness(points):
    g = LazyGramMatrix(30.0)
    g.reset(20)
    fill(g, points[:20])
    keep = np.array([0, 3, 7, 11, 19])
    g.compact(keep)
    np.testing.assert_array_equal(g.matrix, eager_gram(points[:20][keep], 30.0))
    assert all(g.column_computed(j) for j in range(5))


# ----------------------------------------------------------------------
# storage layout: column j lives in buffer row j


def assert_computed_columns_exact(g, X):
    K = eager_gram(X[: g.n], g.gamma)
    for j in range(g.n):
        if g.column_computed(j):
            np.testing.assert_array_equal(g.matrix[:, j], K[:, j])


def test_ensure_column_is_a_contiguous_view_of_matrix_column(points):
    g = LazyGramMatrix(30.0)
    g.reset(len(points))
    for j in (0, 17, len(points) - 1):
        col = g.ensure_column(points, j)
        assert col.flags.c_contiguous
        assert np.shares_memory(col, g.matrix[:, j])
        np.testing.assert_array_equal(col, g.matrix[:, j])


def test_matrix_exact_through_fills_extend_compact_and_growth(points):
    g = LazyGramMatrix(30.0, capacity=24)
    g.reset(20)
    for j in (0, 4, 5, 13, 19):
        g.ensure_column(points[:20], j)
    assert_computed_columns_exact(g, points)
    g.compact(np.array([0, 2, 4, 5, 9, 13, 19]))
    X = points[[0, 2, 4, 5, 9, 13, 19]]
    assert_computed_columns_exact(g, X)
    g.complete_and_extend(X, points[20:50])  # 37 points: past the 24 reserved
    assert g.reallocs == 1
    X = np.vstack([X, points[20:50]])
    assert_computed_columns_exact(g, X)
    np.testing.assert_array_equal(fill(g, X), eager_gram(X, 30.0))


def _resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_buffer_is_resident_only_where_written():
    # 50 scattered rows of a 4000 x 4000 buffer are 1.6 MB; a buffer on
    # huge pages would make most of its 128 MB resident in 2 MB units
    X = np.random.default_rng(8).uniform(-1, 1, (4000, 4))
    before = _resident_bytes()
    g = LazyGramMatrix(10.0)
    g.reset(len(X))
    for j in range(0, len(X), 80):
        g.ensure_column(X, j)
    assert g.computed_count == 50
    assert _resident_bytes() - before < 16 * 2**20


def test_append_points_multiplies_a_row_major_block():
    # BLAS sums a transposed operand in another order, so a product over
    # the matrix view would differ in the last bits
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, (400, 3))
    m = FastronModel(TrainParams(gamma=10.0), dim=3)
    m.set_data(X[:300], np.ones(300))
    m.alpha = rng.normal(size=300)
    fill(m.gram, m.X)  # every support point's column is computed
    n_old = m.n
    m.append_points(X[300:], np.ones(100))
    K = eager_gram(X, 10.0)
    expected = np.ascontiguousarray(K[n_old:, :n_old]) @ m.alpha[:n_old]
    np.testing.assert_array_equal(m.F[n_old:], expected)
