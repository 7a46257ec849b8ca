"""Ground-truth collision checking: convex bodies, GJK, forward kinematics.

This is the labeling oracle the proxy model is trained against, and the
baseline the benchmarks time. A label query runs the entire cycle --
joint-limit mapping, forward kinematics (each yaw-pitch pair composed in
closed form, in ``sum()`` order), then pairwise convex intersection
tests -- in plain-float tuple arithmetic: a query sits on the hot path of
every benchmark, where per-call numpy overhead would dominate.

Chains and workspaces are immutable after construction. Each labeler of
``make_label_fn`` keeps, per (link, obstacle) pair, the axis that last
proved the pair apart and tries it before GJK. It counts only if it
certifies separation for the query at hand, so a stale axis, or one a
concurrent call wrote, cannot make a label wrong. A label may depend on
earlier calls only where GJK gives up with its conservative True, inside
its tolerance band or at its iteration cap: a remembered axis can prove
such a pair apart, giving -1 for +1. ``label_points`` labels a whole set
in Z-order, so consecutive queries are near neighbours whose remembered
axes keep certifying; through the same conservative case, a label may
thus also depend on the order of the other points of its set.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Box",
    "Capsule",
    "Workspace",
    "KinematicChain",
    "two_dof_rod",
    "four_dof_rod",
    "gjk_intersect",
    "kcd_label",
    "to_input_space",
    "from_input_space",
    "make_label_fn",
    "label_points",
]

Vec3 = tuple[float, float, float]
Rot3 = tuple[Vec3, Vec3, Vec3]

_IDENTITY: Rot3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# normalized support progress below which GJK declares separation (negative
# side) or falls back to the conservative in-collision answer (band, or
# _GJK_MAX_ITER simplex updates without a decision)
_GJK_TOL = 1e-10
_GJK_MAX_ITER = 64
_LIMIT_TOL = 1e-9
_INPUT_BOUND = 1.0 + _LIMIT_TOL


class Box:
    """Oriented box given by center, half-extents and a rotation matrix."""

    __slots__ = ("center", "half", "rot")

    def __init__(self, center, half_extents, rot: Rot3 | None = None):
        cx, cy, cz = center
        hx, hy, hz = half_extents
        if not (hx > 0.0 and hy > 0.0 and hz > 0.0):
            raise ValueError("box half-extents must be positive")
        if not all(map(math.isfinite, (cx, cy, cz, hx, hy, hz))):
            raise ValueError("box center and half-extents must be finite")
        self.center: Vec3 = (float(cx), float(cy), float(cz))
        self.half: Vec3 = (float(hx), float(hy), float(hz))
        self.rot: Rot3 = _IDENTITY if rot is None else tuple(tuple(map(float, row)) for row in rot)  # type: ignore[assignment]
        r = self.rot  # R R^T = I to 1e-6, or R would stretch the box; NaN fails
        if len(r) != 3 or any(len(row) != 3 for row in r) or not all(
                abs(sum(a * b for a, b in zip(r[i], r[j])) - (i == j)) <= 1e-6
                for i in range(3) for j in range(3)):
            raise ValueError(f"box rotation must be an orthonormal 3 x 3 matrix, got {rot!r}")

    def support(self, dx: float, dy: float, dz: float) -> Vec3:
        r0, r1, r2 = self.rot
        # direction in the box frame = R^T d
        lx = r0[0] * dx + r1[0] * dy + r2[0] * dz
        ly = r0[1] * dx + r1[1] * dy + r2[1] * dz
        lz = r0[2] * dx + r1[2] * dy + r2[2] * dz
        hx, hy, hz = self.half
        sx = hx if lx >= 0.0 else -hx
        sy = hy if ly >= 0.0 else -hy
        sz = hz if lz >= 0.0 else -hz
        cx, cy, cz = self.center
        return (
            cx + r0[0] * sx + r0[1] * sy + r0[2] * sz,
            cy + r1[0] * sx + r1[1] * sy + r1[2] * sz,
            cz + r2[0] * sx + r2[1] * sy + r2[2] * sz,
        )

    @classmethod
    def _posed(cls, center: Vec3, half: Vec3, rot: Rot3) -> "Box":
        # a box link of forward kinematics: plain-float tuples, finite and
        # positive by construction, stored without __init__'s checks and rebuild
        box = object.__new__(cls)
        box.center, box.half, box.rot = center, half, rot
        return box

    def centroid(self) -> Vec3:
        return self.center

    def translated(self, v: Vec3) -> "Box":
        c = self.center
        return Box((c[0] + v[0], c[1] + v[1], c[2] + v[2]), self.half, self.rot)


class Capsule:
    """Segment with a radius; degenerates to a sphere when p0 == p1."""

    __slots__ = ("p0", "p1", "radius")

    def __init__(self, p0, p1, radius: float):
        if not 0.0 < radius < math.inf:
            raise ValueError("capsule radius must be positive and finite")
        self.p0: Vec3 = (float(p0[0]), float(p0[1]), float(p0[2]))
        self.p1: Vec3 = (float(p1[0]), float(p1[1]), float(p1[2]))
        self.radius = float(radius)

    def support(self, dx: float, dy: float, dz: float) -> Vec3:
        p0, p1 = self.p0, self.p1
        d0 = p0[0] * dx + p0[1] * dy + p0[2] * dz
        d1 = p1[0] * dx + p1[1] * dy + p1[2] * dz
        p = p0 if d0 >= d1 else p1
        n = math.sqrt(dx * dx + dy * dy + dz * dz)
        if n == 0.0:
            return p
        f = self.radius / n
        return (p[0] + f * dx, p[1] + f * dy, p[2] + f * dz)

    def centroid(self) -> Vec3:
        p0, p1 = self.p0, self.p1
        return ((p0[0] + p1[0]) * 0.5, (p0[1] + p1[1]) * 0.5, (p0[2] + p1[2]) * 0.5)

    def translated(self, v: Vec3) -> "Capsule":
        p0, p1 = self.p0, self.p1
        return Capsule(
            (p0[0] + v[0], p0[1] + v[1], p0[2] + v[2]),
            (p1[0] + v[0], p1[1] + v[1], p1[2] + v[2]),
            self.radius,
        )


# ----------------------------------------------------------------------
# GJK


def _triple(ax, ay, az, bx, by, bz, cx, cy, cz):
    # (a x b) x c = b (c.a) - a (c.b)
    ca = cx * ax + cy * ay + cz * az
    cb = cx * bx + cy * by + cz * bz
    return (bx * ca - ax * cb, by * ca - ay * cb, bz * ca - az * cb)


def _handle_segment(s):
    b, a = s
    abx, aby, abz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    aox, aoy, aoz = -a[0], -a[1], -a[2]
    if abx * aox + aby * aoy + abz * aoz > 0.0:
        return False, _triple(abx, aby, abz, aox, aoy, aoz, abx, aby, abz)
    s[:] = [a]
    return False, (aox, aoy, aoz)


def _handle_triangle(s):
    c, b, a = s
    abx, aby, abz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    acx, acy, acz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    aox, aoy, aoz = -a[0], -a[1], -a[2]
    nx = aby * acz - abz * acy
    ny = abz * acx - abx * acz
    nz = abx * acy - aby * acx
    if nx * nx + ny * ny + nz * nz < 1e-30:
        # degenerate (collinear) triangle: fall back to the newest edge
        s[:] = [b, a]
        return _handle_segment(s)
    # outside the AC edge?
    px, py, pz = ny * acz - nz * acy, nz * acx - nx * acz, nx * acy - ny * acx
    if px * aox + py * aoy + pz * aoz > 0.0:
        if acx * aox + acy * aoy + acz * aoz > 0.0:
            s[:] = [c, a]
            return False, _triple(acx, acy, acz, aox, aoy, aoz, acx, acy, acz)
        s[:] = [b, a]
        return _handle_segment(s)
    # outside the AB edge?
    qx, qy, qz = aby * nz - abz * ny, abz * nx - abx * nz, abx * ny - aby * nx
    if qx * aox + qy * aoy + qz * aoz > 0.0:
        s[:] = [b, a]
        return _handle_segment(s)
    d = nx * aox + ny * aoy + nz * aoz
    if d > 0.0:
        return False, (nx, ny, nz)
    if d < 0.0:
        s[:] = [b, c, a]
        return False, (-nx, -ny, -nz)
    # origin lies in the triangle itself
    return True, (0.0, 0.0, 0.0)


def _handle_tetrahedron(s):
    d_, c, b, a = s
    # descend into the face at the newest vertex a that the origin lies furthest
    # outside (a fixed first-face order can cycle); enclosed iff outside none
    best, face = 0.0, None
    for p, q, r in ((b, c, d_), (c, d_, b), (d_, b, c)):
        apx, apy, apz = p[0] - a[0], p[1] - a[1], p[2] - a[2]
        aqx, aqy, aqz = q[0] - a[0], q[1] - a[1], q[2] - a[2]
        nx = apy * aqz - apz * aqy
        ny = apz * aqx - apx * aqz
        nz = apx * aqy - apy * aqx
        # orient the face normal away from the remaining vertex r
        arx, ary, arz = r[0] - a[0], r[1] - a[1], r[2] - a[2]
        if nx * arx + ny * ary + nz * arz > 0.0:
            nx, ny, nz = -nx, -ny, -nz
            p, q = q, p
        side = nx * -a[0] + ny * -a[1] + nz * -a[2]
        if side > 0.0:
            side /= math.sqrt(nx * nx + ny * ny + nz * nz)
            if face is None or side > best:
                best, face = side, [q, p, a]
    if face is None:
        return True, (0.0, 0.0, 0.0)
    s[:] = face
    return _handle_triangle(s)


_STEPS = (None, None, _handle_segment, _handle_triangle, _handle_tetrahedron)


def gjk_intersect(a, b) -> bool:
    """True iff two convex bodies intersect; touching counts.

    Walks a simplex of Minkowski-difference support points toward the
    origin; a tetrahedron descends into the face at its newest vertex that
    the origin lies furthest outside, as a fixed face order can cycle.
    Separation is reported only on a certified separating direction
    (normalized support progress below -1e-10); the ambiguous terminations
    -- progress inside the tolerance band, or the iteration cap -- return
    True, the conservative answer for collision checking.
    """
    return _gjk(a, b)[0]


def _gjk(a, b):
    # the walk of gjk_intersect: (hit, axis), where axis is the unit
    # direction that certified separation, or None with hit True
    ca = a.centroid()
    cb = b.centroid()
    dx, dy, dz = ca[0] - cb[0], ca[1] - cb[1], ca[2] - cb[2]
    if dx * dx + dy * dy + dz * dz < 1e-24:
        dx, dy, dz = 1.0, 0.0, 0.0
    sa = a.support(dx, dy, dz)
    sb = b.support(-dx, -dy, -dz)
    w = (sa[0] - sb[0], sa[1] - sb[1], sa[2] - sb[2])
    simplex = [w]
    dx, dy, dz = -w[0], -w[1], -w[2]
    for _ in range(_GJK_MAX_ITER):
        dd = dx * dx + dy * dy + dz * dz
        if dd < 1e-24:
            return True, None  # origin sits on the simplex: contact
        sa = a.support(dx, dy, dz)
        sb = b.support(-dx, -dy, -dz)
        w = (sa[0] - sb[0], sa[1] - sb[1], sa[2] - sb[2])
        n = math.sqrt(dd)
        progress = (w[0] * dx + w[1] * dy + w[2] * dz) / n
        if progress < -_GJK_TOL:
            return False, (dx / n, dy / n, dz / n)
        if progress < _GJK_TOL:
            return True, None
        simplex.append(w)
        hit, (dx, dy, dz) = _STEPS[len(simplex)](simplex)
        if hit:
            return True, None
    return True, None


# ----------------------------------------------------------------------
# kinematics


# (lower, upper, upper - lower, upper + lower) of a yaw and a pitch joint,
# as plain floats: the one joint-limit table, repeated once per rod
_PAIR_LIMITS = tuple((l, u, u - l, u + l) for l, u in ((-math.pi, math.pi), (0.0, math.pi)))


class KinematicChain:
    """Serial chain of yaw-pitch joint pairs, one rod link per pair.

    Every pair contributes a yaw joint limited to (-pi, pi] and a pitch
    joint limited to [0, pi]; the two joints of a pair are co-located at
    the base of their rod. With all joints at zero the chain lies along
    +x. ``_limits`` is the one table of limits, in plain floats.
    Immutable after construction.
    """

    def __init__(self, rods, link_shape: str = "capsule"):
        rods = [(float(l), float(r)) for l, r in rods]
        if not rods:
            raise ValueError("chain needs at least one rod")
        for l, r in rods:
            if not (0.0 < l < math.inf and 0.0 < r < math.inf):
                raise ValueError("rod length and radius must be positive and finite")
        if link_shape not in ("capsule", "box"):
            raise ValueError(f"unknown link shape {link_shape!r}")
        self.rods = tuple(rods)
        self.link_shape = link_shape
        self.dof = 2 * len(rods)
        self._limits = _PAIR_LIMITS * len(rods)
        self.reach = sum(l for l, _ in rods)

    def _check_limits(self, q) -> None:
        if len(q) != self.dof:
            raise ValueError(f"expected {self.dof} joint values, got {len(q)}")
        for k, (lower, upper, _, _) in enumerate(self._limits):
            if not (lower - _LIMIT_TOL <= q[k] <= upper + _LIMIT_TOL):
                raise ValueError(f"joint {k} value {q[k]} outside limits")

    def joints_from_input(self, p) -> list[float]:
        """The one input-space to joint mapping, in plain floats; clamps rounding
        spill and rejects a point of the wrong length or outside [-1, 1]^d (or NaN)."""
        if len(p) != self.dof:
            raise ValueError(f"expected {self.dof} coordinates, got {len(p)}")
        q = []
        for x, (lower, upper, span, usum) in zip(map(float, p), self._limits):
            if not -_INPUT_BOUND <= x <= _INPUT_BOUND:
                raise ValueError(f"input-space coordinate {x} outside [-1, 1]")
            v = 0.5 * (x * span + usum)
            q.append(lower if v < lower else upper if v > upper else v)
        return q

    def forward_kinematics(self, q) -> list:
        """Pose every link in the world frame for joint vector ``q``.

        Each pair sets R <- R P(yaw, pitch): yaw about world z, then pitch
        raising the rod, R's first column, toward +z. Entries sum left to
        right from 0.0 as ``sum()`` does up to Python 3.11, bitwise equal to a
        generic 3 x 3 product; the P[2][1] = 0 term is skipped, which is exact.
        Raises on joint values outside the limits.
        """
        self._check_limits(q)
        return self._pose(q)

    def _pose(self, q) -> list:
        # forward kinematics of joints already within limits, such as those
        # of joints_from_input
        bodies = []
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
        bx, by, bz = 0.0, 0.0, 0.0
        for i, (length, radius) in enumerate(self.rods):
            yaw, pitch = float(q[2 * i]), float(q[2 * i + 1])
            cy, sy, cp, sp = math.cos(yaw), math.sin(yaw), math.cos(pitch), math.sin(pitch)
            p00, p01, p02, p10, p12 = cy * cp, -sy, -cy * sp, sy * cp, -sy * sp
            r00, r01, r02 = (0.0 + r00 * p00 + r01 * p10 + r02 * sp,
                             0.0 + r00 * p01 + r01 * cy,
                             0.0 + r00 * p02 + r01 * p12 + r02 * cp)
            r10, r11, r12 = (0.0 + r10 * p00 + r11 * p10 + r12 * sp,
                             0.0 + r10 * p01 + r11 * cy,
                             0.0 + r10 * p02 + r11 * p12 + r12 * cp)
            r20, r21, r22 = (0.0 + r20 * p00 + r21 * p10 + r22 * sp,
                             0.0 + r20 * p01 + r21 * cy,
                             0.0 + r20 * p02 + r21 * p12 + r22 * cp)
            tx, ty, tz = bx + length * r00, by + length * r10, bz + length * r20
            if self.link_shape == "capsule":
                bodies.append(Capsule((bx, by, bz), (tx, ty, tz), radius))
            else:
                mid = ((bx + tx) * 0.5, (by + ty) * 0.5, (bz + tz) * 0.5)
                rot = ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22))
                bodies.append(Box._posed(mid, (length * 0.5 + radius, radius, radius), rot))
            bx, by, bz = tx, ty, tz
        return bodies


def two_dof_rod(link_shape: str = "capsule") -> KinematicChain:
    """The fixed dof2 robot: one rod of length 1.0 and radius 0.05 with yaw and pitch."""
    return KinematicChain([(1.0, 0.05)], link_shape=link_shape)


def four_dof_rod(link_shape: str = "capsule") -> KinematicChain:
    """The fixed dof4 robot: two rods of length 0.5 and radius 0.05, end to end."""
    return KinematicChain([(0.5, 0.05)] * 2, link_shape=link_shape)


# ----------------------------------------------------------------------
# joint <-> input space


def to_input_space(q, chain: KinematicChain) -> np.ndarray:
    """Map joint values within limits onto [-1, 1]^d."""
    q = np.asarray(q, dtype=np.float64)
    chain._check_limits(q)
    lower, upper, span, _ = np.array(chain._limits).T
    return (2.0 * q - upper - lower) / span


def from_input_space(p, chain: KinematicChain) -> np.ndarray:
    """Inverse of :func:`to_input_space`; clips rounding spill at the limits."""
    return np.array(chain.joints_from_input(p), dtype=np.float64)


# ----------------------------------------------------------------------
# workspace and labeling


class Workspace:
    """Obstacle set, optionally with per-obstacle velocities for motion."""

    def __init__(self, obstacles, velocities=None, bounds=None):
        self.obstacles = tuple(obstacles)
        self.velocities = None if velocities is None else tuple(
            (float(v[0]), float(v[1]), float(v[2])) for v in velocities
        )
        if self.velocities is not None and len(self.velocities) != len(self.obstacles):
            raise ValueError("one velocity per obstacle required")
        if self.velocities is not None and not all(math.isfinite(c) for v in self.velocities for c in v):
            raise ValueError("obstacle velocities must be finite")
        if bounds is None:
            bounds = ((-0.9, -0.9, 0.0), (0.9, 0.9, 0.9))
        try:
            lo, hi = (tuple(float(c) for c in b) for b in bounds)
        except (TypeError, ValueError):
            lo = hi = ()
        if not (len(lo) == len(hi) == 3 and all(-math.inf < l < h < math.inf for l, h in zip(lo, hi))):
            raise ValueError(f"bounds must be two finite 3-vectors (lo, hi) with lo < hi "
                             f"on each axis, got {bounds!r}")
        self.bounds = (lo, hi)

    def stepped(self) -> "Workspace":
        """Advance every obstacle one step, bouncing off the motion bounds."""
        if self.velocities is None:
            return self
        lo, hi = self.bounds
        obstacles = []
        velocities = []
        for body, v in zip(self.obstacles, self.velocities):
            c = body.centroid()
            nc = [c[0] + v[0], c[1] + v[1], c[2] + v[2]]
            nv = list(v)
            for k in range(3):
                if nc[k] < lo[k]:
                    nc[k] = 2.0 * lo[k] - nc[k]
                    nv[k] = -nv[k]
                elif nc[k] > hi[k]:
                    nc[k] = 2.0 * hi[k] - nc[k]
                    nv[k] = -nv[k]
            shift = (nc[0] - c[0], nc[1] - c[1], nc[2] - c[2])
            obstacles.append(body.translated(shift))
            velocities.append(tuple(nv))
        return Workspace(obstacles, velocities, self.bounds)


def _links_label(links, obstacles, axes) -> int:
    # axes[k]: the unit axis that last proved link-obstacle pair k apart, or
    # None; tried with the walk's own certificate before the walk runs
    k = -1
    for link in links:
        for obs in obstacles:
            k += 1
            axis = axes[k]
            if axis is not None:
                dx, dy, dz = axis
                sa = link.support(dx, dy, dz)
                sb = obs.support(-dx, -dy, -dz)
                if (sa[0] - sb[0]) * dx + (sa[1] - sb[1]) * dy + (sa[2] - sb[2]) * dz < -_GJK_TOL:
                    continue
            hit, axis = _gjk(link, obs)
            if hit:
                return 1
            axes[k] = axis
    return -1


def kcd_label(chain: KinematicChain, workspace: Workspace, q) -> int:
    """Ground-truth label of a joint configuration: +1 collision, -1 free.

    Raises on joint values outside the limits; remembers no axis between calls.
    """
    obstacles = workspace.obstacles
    return _links_label(chain.forward_kinematics(q), obstacles,
                        [None] * (len(chain.rods) * len(obstacles)))


def make_label_fn(chain: KinematicChain, workspace: Workspace):
    """Input-space labeler: the joint mapping, then :func:`kcd_label`; the timing baseline.

    The mapping validates and clamps the joints, so they are posed
    without a second limit check. Each labeler remembers separating axes
    (see the module docstring).
    """
    joints, pose, obstacles = chain.joints_from_input, chain._pose, workspace.obstacles
    axes = [None] * (len(chain.rods) * len(obstacles))

    def label(p) -> int:
        return _links_label(pose(joints(p)), obstacles, axes)

    return label


def label_points(label, P) -> np.ndarray:
    """Labels of the rows of ``P`` as float64, in row order; each row is labeled once.

    Rows are visited in Morton (Z-order) order on a 2^bits grid per axis,
    bits = min(8, 62 // d) so the interleaved key fits an int64: consecutive
    queries are then near neighbours, and a labeler's remembered axes keep
    certifying (see the module docstring). Callers that stop early or
    depend on order -- planners, ``verify_plan``, timed single queries --
    call the labeler point by point instead.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError(f"points must be an (n, d) array with d >= 1, got shape {P.shape}")
    bits = max(1, min(8, 62 // P.shape[1]))
    # fmax and fmin put a NaN coordinate in cell 0, for the labeler to reject
    g = np.fmin(np.fmax(np.floor((P + 1.0) * 2.0 ** (bits - 1)), 0), 2**bits - 1).astype(np.int64)
    key = np.zeros(P.shape[0], dtype=np.int64)
    for b in range(bits - 1, -1, -1):
        for k in range(P.shape[1]):
            key = (key << 1) | ((g[:, k] >> b) & 1)
    order = np.argsort(key, kind="stable")
    y = np.empty(P.shape[0], dtype=np.float64)
    y[order] = [label(p) for p in P[order]]
    return y
