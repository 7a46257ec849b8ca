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

A LazyGramMatrix lives for one training run: it fills the columns that
training touches, and sparsify discards them. A reset after fills maps a
fresh buffer, so the pages a run wrote go back to the OS and an idle
model holds none. It stores Gram column j in
buffer row j: K is symmetric, so a column fill is one contiguous write
and the training loop reads its column contiguously. ``matrix`` is
therefore the transposed view of the buffer. What a model carries from
one training run to the next is its weights and hypothesis values;
appended points get theirs from :func:`rq_kernel_product`, which
evaluates the rows ``K(A, X)`` a block at a time and is never stored.

The buffer is a private anonymous demand-zero mapping advised against
huge pages, not an ``np.zeros`` array. Training writes a small share of its
rows, scattered over the buffer, and numpy advises the kernel to back
large arrays with transparent huge pages, so an ``np.zeros`` buffer
becomes resident, and zeroed, in 2 MB units around every written row.
Over 4 KB demand-zero pages, resident memory grows with the columns
computed, not with n^2.

Kernel functions are pure and thread-safe. A LazyGramMatrix is
single-writer: it may move between threads but must not be mutated
concurrently.
"""

from __future__ import annotations

import mmap

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


def _zero_buffer(cap: int) -> np.ndarray:
    """A (cap, cap) float64 zero array on the buffer mapping of the module docstring.

    ACCESS_COPY makes the anonymous mapping private: a shared one is backed
    by shared memory, whose page faults cost more.
    """
    # mmap rejects length 0
    mem = mmap.mmap(-1, max(cap * cap * 8, mmap.PAGESIZE), access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mem.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(mem, dtype=np.float64, count=cap * cap).reshape(cap, cap)


class LazyGramMatrix:
    """Dense kernel matrix filled one column at a time.

    Training only ever needs the columns of points whose weight gets
    adjusted, so most columns are never evaluated. The matrix serves one
    training run: :meth:`reset` starts it over, empty, for the next
    dataset, on a fresh mapping if the run wrote any column. A mapping of
    ``capacity`` rows can be reserved up front so the shrink/extend cycle
    of a changing environment never grows it.

    Entries hold rq_kernel values; a column is valid only once its
    computed flag is set. The diagonal of a computed column is exactly 1.
    Column j lives in buffer row j, so :meth:`ensure_column` returns a
    contiguous row and :attr:`matrix` is the transposed view of the
    buffer's live block.
    """

    def __init__(self, gamma: float, capacity: int = 0):
        check_float("gamma", gamma, 0.0, strict=True)
        self.gamma = float(gamma)
        self._buf = _zero_buffer(capacity)
        self._computed = np.zeros(capacity, dtype=bool)
        self.n = 0
        self.kernel_evals = 0  # scalar kernel evaluations performed so far
        self.reallocs = 0

    def reset(self, n: int) -> None:
        """Start over with ``n`` points and no computed columns; moves no data.

        If a column has been computed since the last reset, the buffer is
        replaced by a fresh demand-zero mapping of the same capacity, and
        the old mapping, with every page written into it, goes back to the
        OS. ``reallocs`` counts only growth past the capacity.
        """
        grow = n > self._buf.shape[0]
        if grow or self._computed.any():
            cap = max(n, self._buf.shape[0])
            self._buf = _zero_buffer(cap)
            self._computed = np.zeros(cap, dtype=bool)
            self.reallocs += grow
        self.n = n

    @property
    def matrix(self) -> np.ndarray:
        """Transposed view of the live n-by-n block. Only computed columns are valid."""
        return self._buf[: self.n, : self.n].T

    def column_computed(self, j: int) -> bool:
        return bool(self._computed[j])

    @property
    def computed_count(self) -> int:
        """Number of live columns whose computed flag is set."""
        return int(np.count_nonzero(self._computed[: self.n]))

    def ensure_column(self, X: np.ndarray, j: int) -> np.ndarray:
        """Fill column ``j`` against every current point and return it.

        Idempotent: a second call performs no kernel evaluations.
        """
        n = self.n
        if not 0 <= j < n:
            raise IndexError(f"column {j} out of range for {n} points")
        col = self._buf[j, :n]
        if self._computed[j]:
            return col
        rq_kernel_vector(X[:n], X[j], self.gamma, out=col)
        self._computed[j] = True
        self.kernel_evals += n
        return col
