"""Kernel functions and the lazily evaluated Gram matrix used by the learner.

The proxy model uses the rational quadratic kernel with the exponent fixed
at 2: it needs no exp() call, so a kernel evaluation is a handful of
multiplies, and it bounds the Gaussian kernel of the same width from above.
All points live in the normalized input space [-1, 1]^d.

Every kernel value -- scalar, vector, or Gram entry -- takes its squared
distance from one private helper that adds the squared coordinate
differences one coordinate at a time, left to right. Scalar, vector and
Gram values therefore agree bitwise at every dimension. For d <= 7 they
also equal numpy's ``(diff * diff).sum()``, whose pairwise sum is
sequential below 8 elements; from d = 8 on numpy unrolls its sum by 8 and
the two differ in the last bits.

A LazyGramMatrix lives for one training run: it keeps the columns that
training touches, each as its own array, and sparsify discards them, so an
idle model holds none. What a model carries from one training run to the
next is its weights and hypothesis values; appended points get theirs from
:func:`rq_kernel_product`, which evaluates the rows ``K(A, X)`` a block at
a time and is never stored.

Kernel functions are pure and thread-safe. A LazyGramMatrix is
single-writer: it may move between threads but must not be mutated
concurrently.
"""

from __future__ import annotations

import numpy as np

from ._checks import check_float

__all__ = ["rq_kernel", "rq_kernel_vector", "rq_kernel_product", "LazyGramMatrix"]

PRODUCT_ROWS = 64  # rows of K(A, X) in flight in rq_kernel_product


def _squared_distance(X: np.ndarray, Y: np.ndarray, out=None) -> np.ndarray:
    """``||X - Y||^2`` over the last axis, broadcasting the leading axes.

    Summed one coordinate at a time, in place: a strided pass per
    coordinate runs several times faster than numpy's reduction over a
    short last axis. Written into ``out`` when given.
    """
    d2 = np.subtract(X[..., 0], Y[..., 0], out=out)
    d2 *= d2
    diff = None
    for k in range(1, X.shape[-1]):
        diff = np.subtract(X[..., k], Y[..., k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def rq_kernel(x, y, gamma: float) -> float:
    """Rational quadratic kernel ``(1 + gamma/2 * ||x - y||^2)^-2``.

    Parameters
    ----------
    x, y : array_like
        Input points of equal dimension.
    gamma : float
        Positive width parameter; larger gamma means a narrower kernel.

    Returns
    -------
    float
        A similarity in (0, 1]; exactly 1 iff x == y. Symmetric in x, y.
    """
    check_float("gamma", gamma, 0.0, strict=True)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    # x[None]: the vector form writes into its distance array, which a 0-d result is not
    return float(rq_kernel_vector(x[None], y, gamma)[0])


def rq_kernel_vector(X: np.ndarray, q: np.ndarray, gamma: float, out=None) -> np.ndarray:
    """Rational quadratic kernel of every row of ``X`` against ``q``, into ``out`` if given.

    The one kernel formula: :func:`rq_kernel`, the lazy column fill and
    :func:`rq_kernel_product` all evaluate it, so they agree bitwise on
    the same pair. Leading axes broadcast: ``X[:, None, :]`` against an
    (m, d) ``q`` gives the (n, m) block of all pairs.
    """
    t = _squared_distance(X, q, out)
    t *= 0.5 * gamma
    t += 1.0
    t *= t
    return np.divide(1.0, t, out=t)


def rq_kernel_product(A: np.ndarray, X: np.ndarray, w: np.ndarray, gamma: float) -> np.ndarray:
    """``K(A, X) @ w``: the kernel expansion with weights ``w`` on ``X``, at every row of ``A``.

    ``PRODUCT_ROWS`` rows of K are filled and multiplied at a time, in
    one reused C-contiguous block; a one-row tail joins the block before
    it, since numpy sends a one-row product down another BLAS path. The
    result has the bits of one single-threaded product over the whole
    C-contiguous (len(A), len(X)) block. Unlike that product, it keeps
    them at any BLAS thread count: a threaded OpenBLAS splits a long
    enough row sum between threads.
    """
    m = len(A)
    out = np.empty(m, dtype=np.float64)
    K = np.empty((min(PRODUCT_ROWS + 1, m), len(X)), dtype=np.float64)
    Xf = np.asfortranarray(X)  # each coordinate pass reads one contiguous column
    s = 0
    while s < m:
        e = s + PRODUCT_ROWS if m - s > PRODUCT_ROWS + 1 else m
        block = rq_kernel_vector(A[s:e, None, :], Xf, gamma, out=K[: e - s])
        np.matmul(block, w, out=out[s:e])
        s = e
    return out


class LazyGramMatrix:
    """Kernel matrix of one training run, as the list of its computed columns.

    Training only ever needs the columns of points whose weight gets
    adjusted, so most columns are never evaluated. ``columns[j]`` is column
    j, a C-contiguous array of n rq_kernel values, or None until
    :meth:`ensure_column` fills it. The diagonal entry of a computed column
    is exactly 1. :meth:`reset` starts over, empty, for the next dataset.
    """

    reallocs = 0  # read by perfbench's kernels.gram_reallocs; kept until ROADMAP item 3

    def __init__(self, gamma: float):
        check_float("gamma", gamma, 0.0, strict=True)
        self.gamma = float(gamma)
        self.columns: list[np.ndarray | None] = []
        self.n = 0
        self.kernel_evals = 0  # scalar kernel evaluations performed so far

    def reset(self, n: int) -> None:
        """Start over with ``n`` points and no computed columns; moves no data."""
        self.columns = [None] * n
        self.n = n

    def column_computed(self, j: int) -> bool:
        return self.columns[j] is not None

    @property
    def computed_count(self) -> int:
        """Number of columns computed since the last reset."""
        return sum(col is not None for col in self.columns)

    def ensure_column(self, X: np.ndarray, j: int) -> np.ndarray:
        """Fill column ``j`` against every current point and return it.

        Idempotent: a second call performs no kernel evaluations.
        """
        n = self.n
        if not 0 <= j < n:
            raise IndexError(f"column {j} out of range for {n} points")
        col = self.columns[j]
        if col is None:
            col = self.columns[j] = rq_kernel_vector(X[:n], X[j], self.gamma)
            self.kernel_evals += n
        return col
