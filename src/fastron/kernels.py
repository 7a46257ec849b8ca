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

A LazyGramMatrix stores Gram column j in buffer row j: K is symmetric, so
a column fill is one contiguous write and the training loop reads its
column contiguously. ``matrix`` is therefore the transposed view of the
buffer. A product that must keep the bits of a row-major matrix
multiplies a C-contiguous block (``np.ascontiguousarray``), not that
view: BLAS sums a transposed operand in another order.

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

__all__ = ["rq_kernel", "rq_kernel_vector", "LazyGramMatrix"]


def _squared_distance(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``||X - Y||^2`` over the last axis, broadcasting the leading axes.

    Summed one coordinate at a time: a strided pass per coordinate runs
    several times faster than numpy's reduction over a short last axis.
    """
    diff = X[..., 0] - Y[..., 0]
    d2 = diff * diff
    for k in range(1, X.shape[-1]):
        diff = X[..., k] - Y[..., k]
        d2 += diff * diff
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


def rq_kernel_vector(X: np.ndarray, q: np.ndarray, gamma: float) -> np.ndarray:
    """Rational quadratic kernel of every row of ``X`` against ``q``.

    The one kernel formula: :func:`rq_kernel` and the lazy column fill
    both evaluate it, so they agree bitwise on the same pair. Leading axes
    broadcast: ``X[:, None, :]`` against an (m, d) ``q`` gives the (n, m)
    block of all pairs.
    """
    t = _squared_distance(X, q)
    t *= 0.5 * gamma
    t += 1.0
    t *= t
    return np.divide(1.0, t, out=t)


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
    adjusted, so most columns are never evaluated. A block of
    ``capacity`` rows can be reserved up front so the shrink/extend cycle
    of a changing environment never reallocates.

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

    def _grow(self, cap: int) -> None:
        if cap <= self._buf.shape[0]:
            return
        buf = _zero_buffer(cap)
        flags = np.zeros(cap, dtype=bool)
        n = self.n
        buf[:n, :n] = self._buf[:n, :n]
        flags[:n] = self._computed[:n]
        self._buf = buf
        self._computed = flags
        self.reallocs += 1

    def reset(self, n: int) -> None:
        """Start over with ``n`` points and no computed columns."""
        self._grow(n)
        self.n = n
        self._computed[:n] = False

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
        col[:] = rq_kernel_vector(X[:n], X[j], self.gamma)
        self._computed[j] = True
        self.kernel_evals += n
        return col

    def compact(self, keep: np.ndarray) -> None:
        """Drop all rows/columns not in ``keep`` (sorted index array).

        Computed flags survive: a full column stays exact when rows of
        discarded points are removed from it.
        """
        m = len(keep)
        if m:
            sub = self._buf[np.ix_(keep, keep)]
            flags = self._computed[keep].copy()
            self._buf[:m, :m] = sub
            self._computed[:m] = flags
        self.n = m

    def complete_and_extend(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        """Grow by ``len(X_new)`` points, filling the new rows of every retained column.

        Precondition: every retained column is computed. The one caller,
        ``FastronModel.append_points``, refuses a zero weight, and every
        nonzero weight has a computed column. Hypothesis values for the
        added points can then be read off directly; the added columns stay lazy.
        """
        n_old = self.n
        if len(X_old) != n_old:
            raise ValueError(f"expected {n_old} retained points, got {len(X_old)}")
        n_add = len(X_new)
        n = n_old + n_add
        self._grow(n)
        if n_add:
            # one buffer row per retained column: the block K[n_old:, :n_old].T
            self._buf[:n_old, n_old:n] = rq_kernel_vector(X_old[:, None, :], X_new, self.gamma)
            self.kernel_evals += n_add * n_old
            self._computed[n_old:n] = False
        self.n = n
