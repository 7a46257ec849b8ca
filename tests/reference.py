"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the textbook formulas,
not the package's code paths, so the two sides of each check stay
independent.
"""

from __future__ import annotations

import math

import numpy as np


def eager_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    """Full Gram matrix by scalar double loop over the kernel formula."""
    n = len(X)
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            t = 1.0 + 0.5 * gamma * (diff * diff).sum()
            K[i, j] = 1.0 / (t * t)
    return K


def reference_train(X, y, gamma, beta, iter_max, s_max, early_revert, alpha=None, F=None):
    """Greedy training over the eager Gram matrix, as the model docstring states it.

    Each pass corrects the worst margin ``y_i F_i`` (ties to the lowest
    index) when it is <= 0, setting it to ``b_i`` (beta for y_i = +1, 1
    for -1), unless that would add a support point beyond ``s_max``.
    Otherwise the state is snapshotted and the support point with the
    largest positive resultant margin ``y_i (F_i - alpha_i)`` is removed;
    when none qualifies the run stops. A pass that finds a margin <= 0
    after ``early_revert`` corrections since the last removal restores
    the snapshot and stops instead. A final state that misclassifies
    more points than the snapshot is replaced by it. Starts from zero
    weights unless ``alpha`` and ``F`` are given. Returns
    ``(alpha, F, counts)`` with the ``TrainReport`` counters; ``stop`` is
    "converged", "cap_blocked" or "early_revert" for the rule that broke
    the loop, and "iter_max" when the loop ran out.
    """
    K = eager_gram(X, gamma)
    n = len(X)
    alpha = np.zeros(n) if alpha is None else np.array(alpha, dtype=float)
    F = np.zeros(n) if F is None else np.array(F, dtype=float)
    target = np.where(y > 0.0, beta, 1.0) * y
    counts = dict(iterations_used=0, corrections=0, removals=0, reverted=False, stop="iter_max")
    snap = (alpha.copy(), F.copy())
    since_removal = None  # corrections since the last removal, once there is one
    for _ in range(iter_max):
        counts["iterations_used"] += 1
        margins = y * F
        i = int(np.argmin(margins))
        blocked = False
        if margins[i] <= 0.0:
            if since_removal == early_revert:
                alpha, F = snap
                counts["reverted"], counts["stop"] = True, "early_revert"
                break
            if alpha[i] != 0.0 or np.count_nonzero(alpha) < s_max:
                delta = target[i] - F[i]
                alpha[i] += delta
                F = F + delta * K[:, i]
                counts["corrections"] += 1
                if since_removal is not None:
                    since_removal += 1
                continue
            blocked = True
        snap = (alpha.copy(), F.copy())
        resultant = np.where(alpha != 0.0, y * (F - alpha), -np.inf)
        j = int(np.argmax(resultant))
        if resultant[j] > 0.0:
            F = F - alpha[j] * K[:, j]
            alpha[j] = 0.0
            counts["removals"] += 1
            since_removal = 0
            continue
        counts["stop"] = "cap_blocked" if blocked else "converged"
        break
    if np.sum(y * snap[1] <= 0.0) < np.sum(y * F <= 0.0):
        alpha, F = snap
        counts["reverted"] = True
    counts["final_misclassified"] = int(np.sum(y * F <= 0.0))
    return alpha, F, counts


def model_loss(model) -> float:
    """Modified loss ``1/2 a'Ka - y'B a`` of a model's weights, over the eager Gram matrix.

    ``B`` is diagonal with beta where y_i = +1 and 1 where y_i = -1, so at
    beta = 1 this is the plain perceptron loss. Below d = 8 the eager
    Gram entries equal the model's lazily filled ones bitwise.
    """
    K = eager_gram(model.X, model.params.gamma)
    by = np.where(model.y > 0.0, model.params.beta, 1.0) * model.y
    a = model.alpha
    return float(0.5 * (a @ (K @ a)) - by @ a)


def gram_via_cdist(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix through scipy's pairwise distances; fast oracle for solves."""
    from scipy.spatial.distance import cdist

    t = 1.0 + 0.5 * gamma * cdist(X, X, "sqeuclidean")
    return 1.0 / (t * t)


def fsum_hypothesis(X: np.ndarray, alpha: np.ndarray, gamma: float, q: np.ndarray) -> float:
    """Kernel expansion summed with math.fsum (exact accumulation)."""
    terms = []
    for x, a in zip(X, alpha):
        if a == 0.0:
            continue
        d2 = math.fsum((float(xc) - float(qc)) ** 2 for xc, qc in zip(x, q))
        t = 1.0 + 0.5 * gamma * d2
        terms.append(a / (t * t))
    return math.fsum(terms)


def gaussian_kernel(x, y, gamma: float) -> float:
    """Gaussian kernel ``exp(-gamma * ||x - y||^2)``, which rq_kernel bounds from above."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return math.exp(-gamma * float((diff * diff).sum()))


# ----------------------------------------------------------------------
# oriented-box separating axis theorem (Gottschalk's 15-axis test)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def obb_sat_batch(ca, ha, Ra, cb, hb, Rb):
    """Vectorized SAT over n box pairs.

    Returns (intersects, margin): margin > 0 certifies a clearance of at
    least margin along some axis; margin <= 0 means every tested axis
    overlaps by at least |margin|. Pairs with tiny |margin| sit on the
    decision boundary and should be excluded from exact comparisons.
    """
    n = ca.shape[0]
    # rotation of B expressed in A's frame, and the center offset in A's frame
    R = np.einsum("nki,nkj->nij", Ra, Rb)
    t = np.einsum("nki,nk->ni", Ra, cb - ca)

    axes_sep = np.full((n, 15), -np.inf)
    col = 0
    # face axes of A
    for i in range(3):
        ra = ha[:, i]
        rb = (np.abs(R[:, i, :]) * hb).sum(axis=1)
        axes_sep[:, col] = np.abs(t[:, i]) - (ra + rb)
        col += 1
    # face axes of B
    for j in range(3):
        ra = (np.abs(R[:, :, j]) * ha).sum(axis=1)
        rb = hb[:, j]
        tb = np.abs((t * R[:, :, j]).sum(axis=1))
        axes_sep[:, col] = tb - (ra + rb)
        col += 1
    # edge cross products A_i x B_j, normalized so margins are true lengths
    for i in range(3):
        for j in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            # |L| = sin of the angle between edge directions
            norm = np.sqrt(np.maximum(1.0 - R[:, i, j] ** 2, 0.0))
            ra = ha[:, i1] * np.abs(R[:, i2, j]) + ha[:, i2] * np.abs(R[:, i1, j])
            rb = hb[:, j1] * np.abs(R[:, i, j2]) + hb[:, j2] * np.abs(R[:, i, j1])
            tt = np.abs(t[:, i2] * R[:, i1, j] - t[:, i1] * R[:, i2, j])
            sep = tt - (ra + rb)
            valid = norm > 1e-9
            axes_sep[:, col] = np.where(valid, sep / np.where(valid, norm, 1.0), -np.inf)
            col += 1
    margin = axes_sep.max(axis=1)
    return margin <= 0.0, margin


def segment_distance(p0, p1, q0, q1) -> float:
    """Closest distance between two 3-D segments (clamped closed form)."""
    p0, p1, q0, q1 = (np.asarray(v, dtype=float) for v in (p0, p1, q0, q1))
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    if a <= 1e-18 and e <= 1e-18:
        return float(np.linalg.norm(r))
    if a <= 1e-18:
        s, t = 0.0, np.clip(f / e, 0.0, 1.0)
    else:
        c = d1 @ r
        if e <= 1e-18:
            t, s = 0.0, np.clip(-c / a, 0.0, 1.0)
        else:
            b = d1 @ d2
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-18 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    closest1 = p0 + s * d1
    closest2 = q0 + t * d2
    return float(np.linalg.norm(closest1 - closest2))


def point_box_distance(p, center, half, rot) -> float:
    """Distance from a point to an oriented box (0 inside)."""
    local = np.asarray(rot, dtype=float).T @ (np.asarray(p, dtype=float) - np.asarray(center))
    excess = np.maximum(np.abs(local) - np.asarray(half, dtype=float), 0.0)
    return float(np.linalg.norm(excess))


def segment_box_distance(p0, p1, center, half, rot, samples: int = 256) -> float:
    """Min distance from a densely sampled segment to an oriented box."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    ts = np.linspace(0.0, 1.0, samples)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    local = (pts - np.asarray(center)) @ np.asarray(rot, dtype=float)
    excess = np.maximum(np.abs(local) - np.asarray(half, dtype=float), 0.0)
    return float(np.sqrt((excess * excess).sum(axis=1)).min())


# ----------------------------------------------------------------------
# forward kinematics by generic rotation products


def _dot_from_zero(terms) -> float:
    # plain left-to-right addition from integer 0, which is what sum() does
    # with floats up to Python 3.11 (3.12 compensates the rounding)
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def _rot_mul(a, b):
    return tuple(
        tuple(_dot_from_zero(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _pair_rot(yaw: float, pitch: float):
    # yaw about world-frame z, then pitch raising the rod toward +z;
    # the rod axis is the rotated +x
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return (
        (cy * cp, -sy, -cy * sp),
        (sy * cp, cy, -sy * sp),
        (sp, 0.0, cp),
    )


def reference_forward_kinematics(chain, q) -> list[tuple[float, ...]]:
    """Link poses of a yaw-pitch chain through generic 3 x 3 products, as flat floats.

    A capsule link gives ``p0 + p1 + (radius,)``, a box link
    ``center + half + rot`` (rows in order), matching the slots of the
    package's bodies. The chain supplies only its rods and link shape.
    """
    rot = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    bx, by, bz = 0.0, 0.0, 0.0
    poses = []
    for i, (length, radius) in enumerate(chain.rods):
        rot = _rot_mul(rot, _pair_rot(float(q[2 * i]), float(q[2 * i + 1])))
        ax, ay, az = rot[0][0], rot[1][0], rot[2][0]
        tx, ty, tz = bx + length * ax, by + length * ay, bz + length * az
        if chain.link_shape == "capsule":
            poses.append((bx, by, bz, tx, ty, tz, radius))
        else:
            mid = ((bx + tx) * 0.5, (by + ty) * 0.5, (bz + tz) * 0.5)
            half = (length * 0.5 + radius, radius, radius)
            poses.append(mid + half + rot[0] + rot[1] + rot[2])
        bx, by, bz = tx, ty, tz
    return poses
