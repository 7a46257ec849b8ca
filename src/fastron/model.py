"""Proxy collision model trained by greedy coordinate descent.

The model holds a dataset of normalized configurations with labels
+1 (in collision) / -1 (free) and fits a kernel expansion
``f(x) = sum_i alpha_i k(X_i, x)`` whose sign reproduces every training
label. Training repeatedly corrects the point with the worst margin
``y_i f(X_i)``: the correction sets that margin to exactly ``b_i``, where
``b_i = beta`` for in-collision points and 1 for free points. A bias
``beta > 1`` pads obstacle regions, trading false positives (cheap) for
false negatives (dangerous). Once every margin is positive, redundant
support points -- those the rest of the expansion already classifies
correctly -- are shed one at a time to keep the model sparse.

Each step touches a single Gram column, so the matrix is evaluated
lazily, one column array at a time, and it lives for one training run:
sparsify discards its columns, so a sparsified model holds none. In a
changing environment, weights and hypothesis values are carried over
between updates instead of retraining from scratch; a point appended to
the sparsified model gets its hypothesis value from one kernel product
against the retained support points. ``TrainReport.stop`` says which rule
ended a training run.

A model is single-writer. A trained model may be shared read-only across
threads for predict/hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_float, check_int
from .kernels import LazyGramMatrix, rq_kernel_product

__all__ = ["DuplicatePointError", "TrainParams", "TrainReport", "FastronModel"]

# corrections after a removal, without margins turning all-positive again,
# at which train gives the removal up: it restores the snapshot taken just
# before it and stops
EARLY_REVERT_CORRECTIONS = 400

BATCH_BYTES = 1 << 20  # bytes of hypothesis_batch's (rows, |S|) score block


def _batch_rows(support: int) -> int:  # the largest power of two that fits, at least 64
    return 1 << max(6, (BATCH_BYTES // (8 * max(support, 1))).bit_length() - 1)


class DuplicatePointError(ValueError):
    """A dataset would contain two bitwise-identical configurations."""


@dataclass
class TrainParams:
    """Hyperparameters of the learner; training is deterministic."""

    gamma: float = 30.0
    beta: float = 1.0
    iter_max: int = 5000
    s_max: int = 1500

    def __post_init__(self):
        check_float("gamma", self.gamma, 0.0, strict=True)
        check_float("beta", self.beta, 1.0)
        check_int("iter_max", self.iter_max, 1)
        check_int("s_max", self.s_max, 1)


@dataclass
class TrainReport:
    """Instrumentation returned by a training run.

    ``stop`` names the rule that ended it (see :meth:`FastronModel.train`),
    even on its last allowed pass: ``"converged"``, ``"cap_blocked"``,
    ``"early_revert"`` or ``"iter_max"``. ``reverted`` says it ended on the
    snapshot taken before its last removal.
    """

    iterations_used: int = 0
    corrections: int = 0
    removals: int = 0
    final_misclassified: int = 0
    stop: str = "converged"
    reverted: bool = False
    loss_trace: list[float] | None = None
    step_kinds: list[str] | None = None


class FastronModel:
    """Dataset, weights and hypothesis vector of the proxy checker."""

    # capacity is accepted and ignored: perfbench passes it (ROADMAP item 3)
    def __init__(self, params: TrainParams, dim: int, capacity: int = 0):
        check_int("dim", dim, 1)
        self.params = params
        self.dim = dim
        self.gram = LazyGramMatrix(params.gamma)
        self._reset(np.zeros((0, dim)), np.zeros(0), np.zeros(0), np.zeros(0))
        self.update_cycles = 0  # completed sampling.update_cycle passes

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def support_count(self) -> int:
        return int(np.count_nonzero(self.alpha))

    # ------------------------------------------------------------------
    # dataset management

    def _reset(self, X, y, alpha, F) -> None:
        # the one transition to a new dataset: a new Gram matrix, no cached query arrays
        self.X, self.y, self.alpha, self.F = X, y, alpha, F
        self.gram.reset(len(X))
        self._sv = None

    def _validate_points(self, X: np.ndarray) -> None:
        if X.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if X.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: expected {self.dim}, got {X.shape[1]}")
        if X.size and not np.abs(X).max() <= 1.0:  # NaN fails too
            raise ValueError("coordinates must be finite and lie in [-1, 1]")

    @staticmethod
    def _validate_labels(y: np.ndarray, n: int) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64).reshape(-1).copy()
        if y.shape[0] != n:
            raise ValueError(f"expected {n} labels, got {y.shape[0]}")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +1 or -1")
        return y

    def set_data(self, X, y) -> None:
        """Replace the dataset; weights and hypothesis are zeroed.

        Points must be pairwise distinct under exact comparison -- the
        positive-definiteness of the Gram matrix rides on it.
        """
        X = np.array(X, dtype=np.float64)
        self._validate_points(X)
        n = X.shape[0]
        y = self._validate_labels(y, n)
        if np.unique(X, axis=0).shape[0] != n:
            raise DuplicatePointError("dataset contains identical configurations")
        self._reset(X, y, np.zeros(n), np.zeros(n))

    def set_labels(self, y) -> None:
        """Overwrite labels in place, keeping weights and hypothesis.

        This is the relabeling step of the update pipeline: after the
        workspace changes, the oracle re-labels every retained point and
        training adapts the carried-over weights. Flipped labels may
        leave ``y_i * alpha_i < 0`` until training touches point i.
        """
        self.y = self._validate_labels(y, self.n)

    def append_points(self, A, y_A) -> None:
        """Add new points to a sparsified model.

        The hypothesis values of the new points are computed directly from
        the retained support weights, ``K(A, X_S) @ alpha_S``; existing
        entries are untouched. No Gram column is computed afterwards.
        """
        A = np.array(A, dtype=np.float64)
        self._validate_points(A)
        y_A = self._validate_labels(y_A, A.shape[0])
        if A.shape[0] == 0:
            return
        if np.any(self.alpha == 0.0):
            raise ValueError("model must be sparsified before appending points")
        combined = np.vstack([self.X, A])
        if np.unique(combined, axis=0).shape[0] != combined.shape[0]:
            raise DuplicatePointError("appended points collide with retained set")
        F_new = rq_kernel_product(A, self.X, self.alpha, self.params.gamma)
        self.gram.kernel_evals += A.shape[0] * self.n
        self._reset(combined, np.concatenate([self.y, y_A]),
                    np.concatenate([self.alpha, np.zeros(A.shape[0])]),
                    np.concatenate([self.F, F_new]))

    def sparsify(self) -> int:
        """Drop every zero-weight point and the Gram matrix; returns how many points went.

        Zero-weight terms contribute exactly nothing to the expansion, so
        hypothesis values at any query are bitwise unchanged. The next
        training run refills the Gram columns it touches.
        """
        keep = np.flatnonzero(self.alpha != 0.0)
        dropped = self.n - keep.size
        self._reset(self.X[keep], self.y[keep], self.alpha[keep], self.F[keep])
        return dropped

    # ------------------------------------------------------------------
    # training

    def _target_vector(self) -> np.ndarray:
        # b_i y_i with b_i = beta for in-collision targets, 1 for free
        return np.where(self.y > 0.0, self.params.beta, 1.0) * self.y

    def _trace_loss(self, by: np.ndarray) -> float:
        # 1/2 a'Ka - (By)'a, using the maintained hypothesis F = Ka
        return 0.5 * float(self.alpha @ self.F) - float(by @ self.alpha)

    def remove_redundant(self) -> bool:
        """Remove the support point with the largest resultant margin.

        The resultant margin y_i(F_i - alpha_i) is what the margin at i
        would become without i's own weight; only strictly positive
        values qualify (the point must stay correctly classified after
        removal). Ties go to the lowest index. Returns whether a removal
        happened.
        """
        resultant = self.y * (self.F - self.alpha)
        resultant[self.alpha == 0.0] = -np.inf
        j = int(np.argmax(resultant))
        if not resultant[j] > 0.0:
            return False
        col = self.gram.ensure_column(self.X, j)
        self.F -= self.alpha[j] * col
        self.alpha[j] = 0.0
        self._sv = None
        return True

    def train(self, record_loss: bool = False) -> TrainReport:
        """Run the update loop until positive margins, the support cap, or iter_max.

        Each pass either corrects the worst-margin point (when some
        margin is <= 0), removes one redundant support point (when all
        margins are positive, after snapshotting the state), or stops
        (``"converged"``). When the support cap blocks adding the worst
        point, one removal is attempted before retrying; if nothing can be
        removed, training stops (``"cap_blocked"``). A removal followed by
        ``EARLY_REVERT_CORRECTIONS`` corrections, with some margin still
        <= 0 after them, is given up: the snapshot taken just before it is
        restored and training stops (``"early_revert"``). After ``iter_max``
        passes (``"iter_max"``), if the final state misclassifies more
        points than the last snapshot, the snapshot is restored.
        """
        p = self.params
        report = TrainReport()
        if record_loss:
            report.loss_trace = []
            report.step_kinds = []
        n = self.n
        if n == 0:
            return report
        X, y, alpha, F = self.X, self.y, self.alpha, self.F
        gram = self.gram
        by = self._target_vector()
        alpha_before = alpha.copy()
        F_before = F.copy()
        yF = np.empty(n)  # margin and step buffers, reused by every pass
        step = np.empty(n)
        columns = gram.columns  # a missing one is filled by ensure_column alone, once
        support = int(np.count_nonzero(alpha))
        if record_loss:
            report.loss_trace.append(self._trace_loss(by))
        since_removal = 0  # corrections since the last removal
        for _ in range(p.iter_max):
            report.iterations_used += 1
            np.multiply(y, F, out=yF)
            i = int(yF.argmin())  # ties resolve to the lowest index
            misclassified = yF.item(i) <= 0.0
            if misclassified and report.removals and since_removal == EARLY_REVERT_CORRECTIONS:
                report.stop = "early_revert"  # the last removal is not repaired: give it up
                break
            a = alpha.item(i)
            if misclassified and (a != 0.0 or support < p.s_max):
                delta = by.item(i) - F.item(i)
                alpha[i] = a + delta
                support += (a == 0.0) - (a + delta == 0.0)
                col = columns[i]
                if col is None:
                    col = gram.ensure_column(X, i)
                np.multiply(col, delta, out=step)
                F += step
                report.corrections += 1
                since_removal += 1
                kind = "correction"
            else:
                # All margins positive, or the cap blocks the needed addition:
                # snapshot, then try to shed one redundant support point.
                alpha_before[:] = alpha
                F_before[:] = F
                if not self.remove_redundant():
                    report.stop = "cap_blocked" if misclassified else "converged"
                    break
                support -= 1
                report.removals += 1
                since_removal = 0
                kind = "removal"
            if record_loss:
                report.loss_trace.append(self._trace_loss(by))
                report.step_kinds.append(kind)
        else:
            report.stop = "iter_max"
        if report.stop == "early_revert" or np.sum(y * F_before <= 0.0) < np.sum(y * F <= 0.0):
            alpha[:] = alpha_before
            F[:] = F_before
            report.reverted = True
        report.final_misclassified = int(np.sum(y * F <= 0.0))
        self._sv = None
        return report

    # ------------------------------------------------------------------
    # prediction

    def _support(self):
        # cached query arrays (a, W): the support weights and, with
        # c0_i = 1 + gamma/2 |x_i|^2, the column-major (|S|, d+2) matrix
        # W = [-gamma X_S | c0 | gamma/2]. For v = [q, 1, |q|^2],
        # (W v)_i = 1 + gamma/2 |x_i - q|^2, so a query is one product plus
        # an in-place square, reciprocal and weighted sum; a single query's
        # W v runs as d+2 column sweeps, not |S| short row dots
        sv = self._sv
        if sv is None:
            mask = self.alpha != 0.0
            Xs = self.X[mask]
            d = Xs.shape[1]
            gamma = self.params.gamma
            W = np.empty((Xs.shape[0], d + 2), dtype=np.float64, order="F")
            np.multiply(Xs, -gamma, out=W[:, :d])
            W[:, d] = 1.0 + 0.5 * gamma * np.einsum("ij,ij->i", Xs, Xs)
            W[:, d + 1] = 0.5 * gamma
            sv = self._sv = (self.alpha[mask], W)
        return sv

    def hypothesis(self, q) -> float:
        """Raw score ``sum_{i in S} alpha_i k(X_i, q)``.

        Summed over the support set only, so sparsify never changes it.
        This is the query hot path; it stays allocation-light.
        """
        a, W = self._support()
        if not isinstance(q, np.ndarray) or q.dtype != np.float64:
            q = np.asarray(q, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: expected {self.dim}, got {q.shape}")
        v = q.tolist()
        qq = 0.0
        for c in v:
            qq += c * c
        v.append(1.0)
        v.append(qq)
        t = W.dot(v)
        t *= t
        np.reciprocal(t, out=t)
        return float(a.dot(t))

    def predict(self, q) -> int:
        """Proxy collision label: +1 in collision, -1 free.

        A zero score (including the empty model) counts as in-collision;
        the conservative answer costs a detour, not a crash. So does a
        query with a NaN or infinite coordinate, whose score is NaN or 0.
        """
        return -1 if self.hypothesis(q) < 0.0 else 1

    def hypothesis_batch(self, Q) -> np.ndarray:
        """Scores for many queries at once, a cache-sized block per product.

        Uses the ``W`` of :meth:`hypothesis`: per block of ``_batch_rows``
        queries, the rows ``[q, 1, |q|^2]`` stack into V, ``t = V W'`` is one
        matrix product, and the scores are ``(1 / t^2) a``. Only one
        (rows, |S|) buffer, of at most ``BATCH_BYTES`` above 64 rows, is live.
        The summation order differs from :meth:`hypothesis`, so scores agree
        in sign wherever they are clear of rounding, not bitwise. ``Q`` is (m, d).
        """
        Q = np.asarray(Q, dtype=np.float64)
        a, W = self._support()
        d = self.dim
        if Q.ndim != 2 or Q.shape[1] != d:
            raise ValueError(f"dimension mismatch: expected {d}, got {Q.shape}")
        m = Q.shape[0]
        block = _batch_rows(a.size)
        V = np.empty((min(block, m), d + 2), dtype=np.float64)
        V[:, d] = 1.0
        T = np.empty((V.shape[0], a.size), dtype=np.float64)
        out = np.empty(m, dtype=np.float64)
        for s in range(0, m, block):
            chunk = Q[s : s + block]
            k = chunk.shape[0]
            Vk, t = V[:k], T[:k]
            Vk[:, :d] = chunk
            np.einsum("ij,ij->i", chunk, chunk, out=Vk[:, d + 1])
            np.matmul(Vk, W.T, out=t)
            t *= t
            np.reciprocal(t, out=t)
            np.matmul(t, a, out=out[s : s + k])
        return out

    def predict_batch(self, Q) -> np.ndarray:
        f = self.hypothesis_batch(Q)
        return np.where(f < 0.0, -1, 1)

    # ------------------------------------------------------------------
    # diagnostics

    def margins(self) -> np.ndarray:
        return self.y * self.F

    # ------------------------------------------------------------------
    # serialization

    def save(self, path) -> None:
        """Write the support set in the ``fastron v1`` text format.

        Floats are written with repr, which round-trips exactly, so a
        loaded model predicts identically on any query.
        """
        mask = self.alpha != 0.0
        p = self.params
        lines = [f"fastron v1 d={self.dim} n={np.count_nonzero(mask)} "
                 f"gamma={float(p.gamma)!r} beta={float(p.beta)!r}"]
        for row, label, w in zip(self.X[mask], self.y[mask], self.alpha[mask]):
            coords = " ".join(repr(float(c)) for c in row)
            lines.append(f"{coords} {float(label)!r} {float(w)!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "FastronModel":
        with open(path, "r", encoding="ascii") as fh:
            lines = [(no, ln) for no, ln in enumerate((l.strip() for l in fh), 1) if ln]
        if not lines:
            raise ValueError(f"{path}: empty model file")
        head = lines[0][1].split()
        if len(head) != 6 or head[0] != "fastron" or head[1] != "v1":
            raise ValueError(f"{path}: not a fastron v1 model file")
        try:
            fields = dict(tok.split("=", 1) for tok in head[2:])
            d, ns = int(fields["d"]), int(fields["n"])
            check_int("d", d, 1)
            params = TrainParams(gamma=float(fields["gamma"]), beta=float(fields["beta"]))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: bad header {lines[0][1]!r}: {exc!r}") from exc
        if len(lines) - 1 != ns:
            raise ValueError(f"{path}: expected {ns} support points, found {len(lines) - 1}")
        rows = np.zeros((ns, d + 2), dtype=np.float64)  # X | y | alpha
        for k, (no, ln) in enumerate(lines[1:]):
            try:
                vals = [float(tok) for tok in ln.split()]
            except ValueError as exc:
                raise ValueError(f"{path}: line {no} has a non-number: {exc}") from exc
            if len(vals) != d + 2:
                raise ValueError(f"{path}: line {no} has {len(vals)} fields, expected {d + 2}")
            rows[k] = vals
        X, y, alpha = rows[:, :d], rows[:, d], rows[:, d + 1].copy()
        for bad, what in ((~np.isfinite(rows).all(axis=1), "a non-finite field"),
                          (alpha == 0.0, "weight 0, not a support point"),
                          (np.abs(y) != 1.0, "a label other than +1 or -1"),
                          ((np.abs(X) > 1.0).any(axis=1), "a coordinate outside [-1, 1]"),
                          (~np.isin(np.arange(ns), np.unique(X, axis=0, return_index=True)[1]),
                           "the configuration of an earlier line")):
            if bad.any():
                raise ValueError(f"{path}: line {lines[1 + int(bad.argmax())][0]} has {what}")
        model = cls(params, dim=d)
        model.set_data(X, y)
        model.alpha = alpha
        model.F = rq_kernel_product(model.X, model.X, alpha, params.gamma)
        model.gram.kernel_evals += ns * ns
        return model
