"""Correctness references the benchmark checks fastron's outputs against.

Each is computed apart from the package's own code paths:

* the collision reference poses the rod links with rotation matrices built
  from the joint angles (not fastron's forward kinematics) and measures the
  exact distance from each link axis to each axis-aligned obstacle box by
  minimising a convex piecewise quadratic along the segment -- no GJK,
  no support functions;
* the kernel expansion is summed with ``math.fsum`` over the model's
  support set;
* plan edges are re-sampled here and every sample is checked with the
  collision reference.
"""

from __future__ import annotations

import math

import numpy as np

# Points whose clearance lies within this distance of contact are left
# undecided: the oracle's GJK answers there depend on its 1e-10 tolerance.
CONTACT_BAND = 1e-7


def joint_angles(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Yaw in [-pi, pi] and pitch in [0, pi] of every rod, from [-1, 1]^d points."""
    P = np.asarray(P, dtype=np.float64)
    return math.pi * P[:, 0::2], 0.5 * math.pi * (P[:, 1::2] + 1.0)


def _rot_z(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    z, o = np.zeros_like(a), np.ones_like(a)
    return np.stack([np.stack([c, -s, z], -1), np.stack([s, c, z], -1),
                     np.stack([z, z, o], -1)], -2)


def _rot_y(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    z, o = np.zeros_like(a), np.ones_like(a)
    return np.stack([np.stack([c, z, s], -1), np.stack([z, o, z], -1),
                     np.stack([-s, z, c], -1)], -2)


def link_segments(P: np.ndarray, lengths) -> list[tuple[np.ndarray, np.ndarray]]:
    """Axis end points of every rod for every point of ``P``.

    Rod i turns by yaw about its parent frame's z axis, then pitches up by
    a rotation of -pitch about the new y axis; its axis is the frame's x
    axis. Returns one ``(base, tip)`` pair of (N, 3) arrays per rod.
    """
    yaw, pitch = joint_angles(P)
    n = yaw.shape[0]
    frame = np.broadcast_to(np.eye(3), (n, 3, 3))
    base = np.zeros((n, 3))
    segments = []
    for i, length in enumerate(lengths):
        frame = frame @ _rot_z(yaw[:, i]) @ _rot_y(-pitch[:, i])
        tip = base + length * frame[:, :, 0]
        segments.append((base, tip))
        base = tip
    return segments


def segment_box_distance(A: np.ndarray, B: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """Exact distance from segments [A, B] to axis-aligned boxes [lo, hi].

    Along the segment the squared distance is a convex piecewise quadratic
    in the parameter t, with breakpoints where a coordinate crosses a box
    face. Its minimum lies at a breakpoint or at the stationary point of
    one piece, so the distance is evaluated at all of those and the least
    value is kept. Arrays broadcast to (N, 3); returns (N,).
    """
    A, B, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (A, B, lo, hi)))
    D = B - A
    with np.errstate(divide="ignore", invalid="ignore"):
        faces = np.concatenate([(lo - A) / D, (hi - A) / D], axis=1)
    faces = np.where(np.isfinite(faces), np.clip(faces, 0.0, 1.0), 0.0)
    n = A.shape[0]
    breaks = np.sort(np.concatenate([np.zeros((n, 1)), np.ones((n, 1)), faces], axis=1), axis=1)
    t0, t1 = breaks[:, :-1], breaks[:, 1:]
    mid = 0.5 * (t0 + t1)
    pm = A[:, None, :] + mid[:, :, None] * D[:, None, :]
    target = np.where(pm < lo[:, None, :], lo[:, None, :],
                      np.where(pm > hi[:, None, :], hi[:, None, :], np.nan))
    active = ~np.isnan(target)
    offset = np.where(active, A[:, None, :] - np.nan_to_num(target), 0.0)
    slope = np.where(active, D[:, None, :], 0.0)
    curvature = (slope * slope).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = -(offset * slope).sum(axis=2) / curvature
    stationary = np.clip(np.where(curvature > 0.0, stationary, mid), t0, t1)
    ts = np.concatenate([breaks, stationary], axis=1)
    pts = A[:, None, :] + ts[:, :, None] * D[:, None, :]
    excess = np.maximum(lo[:, None, :] - pts, 0.0) + np.maximum(pts - hi[:, None, :], 0.0)
    return np.sqrt((excess * excess).sum(axis=2)).min(axis=1)


class CollisionReference:
    """Signed clearance of capsule-link rod chains among axis-aligned boxes."""

    def __init__(self, chain, workspace):
        if chain.link_shape != "capsule":
            raise ValueError("the collision reference covers capsule links only")
        self.lengths = [length for length, _ in chain.rods]
        self.radii = [radius for _, radius in chain.rods]
        boxes = workspace.obstacles
        for box in boxes:
            if not np.array_equal(np.asarray(box.rot), np.eye(3)):
                raise ValueError("the collision reference covers axis-aligned boxes only")
        centers = np.array([box.center for box in boxes], dtype=np.float64).reshape(-1, 3)
        halves = np.array([box.half for box in boxes], dtype=np.float64).reshape(-1, 3)
        self.lo = centers - halves
        self.hi = centers + halves

    def clearance(self, P: np.ndarray) -> np.ndarray:
        """Least link-surface-to-box distance per point; negative inside."""
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        best = np.full(P.shape[0], np.inf)
        for (base, tip), radius in zip(link_segments(P, self.lengths), self.radii):
            for lo, hi in zip(self.lo, self.hi):
                best = np.minimum(best, segment_box_distance(base, tip, lo, hi) - radius)
        return best

    def labels(self, P: np.ndarray) -> np.ndarray:
        """+1 collision, -1 free, 0 undecided (within the contact band)."""
        c = self.clearance(P)
        return np.where(c < -CONTACT_BAND, 1, np.where(c > CONTACT_BAND, -1, 0))


def fsum_hypothesis(Xs: np.ndarray, alpha: np.ndarray, gamma: float, q) -> tuple[float, float]:
    """Kernel expansion at ``q`` summed exactly, and the sum of |terms|.

    The second value scales the rounding error any float evaluation of the
    same expansion may carry.
    """
    q = [float(v) for v in q]
    terms = []
    for x, a in zip(Xs.tolist(), alpha.tolist()):
        d2 = math.fsum((xc - qc) ** 2 for xc, qc in zip(x, q))
        t = 1.0 + 0.5 * gamma * d2
        terms.append(a / (t * t))
    return math.fsum(terms), math.fsum(abs(v) for v in terms)


def edge_samples(a, b, resolution: float) -> np.ndarray:
    """Evenly spaced points on [a, b], end points included, spacing <= resolution."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    steps = max(1, math.ceil(float(np.linalg.norm(b - a)) / resolution))
    return a + np.arange(steps + 1)[:, None] * ((b - a) / steps)


def recheck_plan(waypoints, start, goal, reference: CollisionReference,
                 resolution: float) -> list[str]:
    """Problems found with a plan; an empty list means it passes.

    The plan must begin at ``start``, end at ``goal``, stay in [-1, 1]^d,
    and every edge sample at ``resolution`` must be collision-free under
    the reference (samples inside the contact band are not judged).
    """
    wps = np.asarray(waypoints, dtype=np.float64)
    problems = []
    if not np.array_equal(wps[0], start):
        problems.append("plan does not begin at its start")
    if not np.array_equal(wps[-1], goal):
        problems.append("plan does not end at its goal")
    if np.abs(wps).max() > 1.0:
        problems.append("plan leaves [-1, 1]^d")
    samples = np.concatenate([edge_samples(wps[i], wps[i + 1], resolution)
                              for i in range(len(wps) - 1)] or [wps])
    hits = int(np.count_nonzero(reference.labels(np.clip(samples, -1.0, 1.0)) == 1))
    if hits:
        problems.append(f"{hits} edge samples collide under the reference")
    return problems
