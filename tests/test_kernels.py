import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastron.kernels import LazyGramMatrix, rq_kernel, rq_kernel_vector

from reference import eager_gram, gaussian_kernel


def test_rq_zero_distance_is_exactly_one():
    x = np.array([0.3, -0.7, 0.1])
    assert rq_kernel(x, x, 30.0) == 1.0


def test_rq_known_value():
    # gamma=1, squared distance 2 -> (1 + 1)^-2 = 0.25
    x = np.array([1.0, 0.0])
    y = np.array([0.0, -1.0])
    assert rq_kernel(x, y, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_gaussian_known_value():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 0.0])
    assert gaussian_kernel(x, y, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert gaussian_kernel(x, x, 5.0) == 1.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        rq_kernel([1.0, 2.0], [1.0, 2.0, 3.0], 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel([1.0], [1.0, 2.0], 1.0)


def test_nonpositive_gamma_rejected():
    with pytest.raises(ValueError):
        rq_kernel([0.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel([0.0], [1.0], -1.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
def test_kernels_reject_gamma_not_finite_and_positive(gamma):
    # a NaN gamma used to pass both checks and give NaN kernel values
    with pytest.raises(ValueError, match="gamma must be finite"):
        rq_kernel([0.0, 0.0], [1.0, 1.0], gamma)
    with pytest.raises(ValueError, match="gamma must be finite"):
        LazyGramMatrix(gamma)


def test_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        assert rq_kernel(x, y, 30.0) == rq_kernel(y, x, 30.0)


def test_rq_dominates_gaussian_random_pairs():
    # (1 + u/2)^-2 >= e^-u for u >= 0
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.uniform(-1, 1, 4)
        y = rng.uniform(-1, 1, 4)
        g = rng.uniform(0.1, 50.0)
        assert rq_kernel(x, y, g) >= gaussian_kernel(x, y, g)


def test_envelope_bound_dense_grid():
    u = np.linspace(0.0, 100.0, 10000)
    rq = (1.0 + u / 2.0) ** -2
    ga = np.exp(-u)
    assert np.all(rq >= ga)
    assert np.all(rq <= 1.0)
    assert np.all(ga > 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4),
    st.floats(0.01, 100.0),
)
def test_rq_range_and_symmetry_property(xs, ys, gamma):
    d = min(len(xs), len(ys))
    x = np.array(xs[:d])
    y = np.array(ys[:d])
    k = rq_kernel(x, y, gamma)
    assert 0.0 < k <= 1.0
    assert k == rq_kernel(y, x, gamma)
    if np.array_equal(x, y):
        assert k == 1.0


def test_vector_matches_scalar_bitwise():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (50, 3))
    q = rng.uniform(-1, 1, 3)
    vec = rq_kernel_vector(X, q, 30.0)
    for i in range(50):
        assert vec[i] == rq_kernel(X[i], q, 30.0)


@pytest.mark.parametrize("d", range(1, 11))
def test_kernel_paths_agree_bitwise(d):
    rng = np.random.default_rng(100 + d)
    gamma = 30.0
    X = rng.uniform(-1, 1, (40, d))
    S = np.array([[rq_kernel(x, z, gamma) for z in X] for x in X])
    for j in range(len(X)):
        np.testing.assert_array_equal(rq_kernel_vector(X, X[j], gamma), S[:, j])
    g = LazyGramMatrix(gamma)
    g.reset(30)
    cols = range(0, 30, 3)
    for j in cols:
        np.testing.assert_array_equal(g.ensure_column(X[:30], j), S[:30, j])
    g.complete_and_extend(X[:30], X[30:])
    for j in cols:
        np.testing.assert_array_equal(g.matrix[:, j], S[:, j])
    if d <= 7:
        # numpy's pairwise sum is sequential below 8 terms
        np.testing.assert_array_equal(S, eager_gram(X, gamma))
    else:
        np.testing.assert_allclose(S, eager_gram(X, gamma), rtol=1e-14, atol=0.0)
