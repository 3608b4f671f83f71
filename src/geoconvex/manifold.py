"""Closed-form geodesic geometry for the three built-in manifolds.

Euclidean(n) is flat R^n, Sphere(n) is the unit n-sphere embedded in
R^(n+1), PoincareBall(n) is the open unit ball with the hyperbolic metric
of curvature -1.  All curves are minimal geodesics with the convention

    curve(0) = mu2,   curve(1) = mu1,

constant-speed in t.  Everything is a pure function; batch variants operate
on (N, d) coordinate arrays of any memory order, the samplers' bulk path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AntipodalPointsError, InvalidPointError, ParamOutOfRangeError

SPHERE_NORM_TOL = 1e-12
BALL_BOUNDARY_TOL = 1e-12
ANTIPODAL_TOL = 1e-12
TANGENT_TOL = 1e-10
# E-maps given as expressions rarely land on the sphere to the last bit;
# outputs within this tolerance are snapped back by normalization.
SPHERE_SNAP_TOL = 1e-9


class ManifoldKind(Enum):
    EUCLIDEAN = "Euclidean"
    SPHERE = "Sphere"
    POINCARE_BALL = "PoincareBall"


@dataclass(frozen=True)
class Manifold:
    kind: ManifoldKind
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def ambient_dim(self) -> int:
        """Length of a coordinate vector (n+1 for the embedded sphere)."""
        return self.dim + 1 if self.kind is ManifoldKind.SPHERE else self.dim


def euclidean(n: int) -> Manifold:
    return Manifold(ManifoldKind.EUCLIDEAN, n)


def sphere(n: int) -> Manifold:
    return Manifold(ManifoldKind.SPHERE, n)


def poincare_ball(n: int) -> Manifold:
    return Manifold(ManifoldKind.POINCARE_BALL, n)


def manifold_from_name(name: str, dim: int) -> Manifold:
    for kind in ManifoldKind:
        if kind.value.lower() == name.lower():
            return Manifold(kind, dim)
    raise ValueError(f"unknown manifold kind {name!r}")


@dataclass(frozen=True)
class Point:
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.float64)


def point(*coords: float) -> Point:
    return Point(tuple(coords))


def validate_point(m: Manifold, p: Point) -> None:
    x = p.array()
    if x.shape != (m.ambient_dim,):
        raise InvalidPointError(
            f"expected {m.ambient_dim} coordinates, got {x.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidPointError(f"non-finite coordinates {p.coords}")
    if m.kind is ManifoldKind.SPHERE:
        r = float(np.linalg.norm(x))
        if abs(r - 1.0) > SPHERE_NORM_TOL:
            raise InvalidPointError(f"|coords| = {r!r}, not on the unit sphere")
    elif m.kind is ManifoldKind.POINCARE_BALL:
        r = float(np.linalg.norm(x))
        if r >= 1.0 - BALL_BOUNDARY_TOL:
            raise InvalidPointError(f"|coords| = {r!r}, not inside the unit ball")


def row_norm(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of an (..., d) array.

    Bit-identical to np.linalg.norm(X, axis=-1) on C-ordered rows, in any
    layout: below 8 columns numpy sums the squares in order, as this column
    sum does without its per-row overhead; from 8 its order follows the layout."""
    if X.shape[-1] >= 8:
        return np.linalg.norm(np.ascontiguousarray(X), axis=-1)
    s = X[..., 0] * X[..., 0]
    for j in range(1, X.shape[-1]):
        c = X[..., j]
        s += c * c
    return np.sqrt(s)


def row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Dot products of the rows (last axis) of X and Y, whose leading axes
    broadcast, bit-identical in any layout to np.einsum("ij,ij->i") on
    C-ordered 2-D rows: 0.0 + p0 + p1 below 3 columns, from 3 einsum's order."""
    if X.shape[-1] > 2:
        X, Y = np.broadcast_arrays(X, Y)
        rows = (np.ascontiguousarray(A).reshape(-1, A.shape[-1]) for A in (X, Y))
        return np.einsum("ij,ij->i", *rows).reshape(X.shape[:-1])
    return sum((X[..., j] * Y[..., j] for j in range(X.shape[-1])), 0.0)


def row_finite(X: np.ndarray) -> np.ndarray:
    """Rows of an (N, d) array whose entries are all finite."""
    ok = np.isfinite(X[:, 0])
    for j in range(1, X.shape[1]):
        ok &= np.isfinite(X[:, j])
    return ok


def valid_mask(m: Manifold, X: np.ndarray) -> np.ndarray:
    """Row mask of valid points for an (N, d) coordinate array."""
    ok = row_finite(X)
    if m.kind is ManifoldKind.SPHERE:
        ok &= np.abs(row_norm(X) - 1.0) <= SPHERE_SNAP_TOL
    elif m.kind is ManifoldKind.POINCARE_BALL:
        ok &= row_norm(X) < 1.0 - BALL_BOUNDARY_TOL
    return ok


def project_batch(m: Manifold, X: np.ndarray) -> np.ndarray:
    """Snap rows assumed near the manifold back onto it (sphere only)."""
    if m.kind is ManifoldKind.SPHERE:
        with np.errstate(all="ignore"):
            return X / row_norm(X)[..., None]
    return X


@dataclass(frozen=True)
class GeodesicSpec:
    manifold: Manifold
    mu1: Point
    mu2: Point

    def __post_init__(self):
        validate_point(self.manifold, self.mu1)
        validate_point(self.manifold, self.mu2)
        if self.manifold.kind is ManifoldKind.SPHERE:
            d = float(np.dot(self.mu1.array(), self.mu2.array()))
            if d <= -1.0 + ANTIPODAL_TOL:
                raise AntipodalPointsError(
                    f"{self.mu1.coords} and {self.mu2.coords} are antipodal"
                )


def antipodal_mask(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return row_dot(X, Y) <= -1.0 + ANTIPODAL_TOL


def geodesic_fan(m: Manifold, X1: np.ndarray, X2: np.ndarray):
    """The curves from rows of X2 (t=0) to X1 (t=1), as a function of t.

    The witness oracle: geodesic_batch and geodesic evaluate through it, and
    on the ball it flows exp_x2(t log_x2 x1); the bulk path uses curve_fan.
    The per-pair part of the curve is computed once; the returned function
    maps t, one value for every row or an (N,) vector with one value per
    row, to the (N, d) points at t; leading axes are allowed, so a (w, 1)
    column of t gives (w, N, d) points, bit for bit those of each t alone.
    Inputs are assumed valid and, on the sphere, non-antipodal; callers
    screen rows with valid_mask/antipodal_mask first.
    """
    if m.kind is ManifoldKind.EUCLIDEAN:
        D = X1 - X2

        def at(t):
            return X2 + np.asarray(t, dtype=np.float64)[..., None] * D

        return at
    if m.kind is ManifoldKind.SPHERE:
        dots = np.clip(row_dot(X2, X1), -1.0, 1.0)
        theta = np.arccos(dots)
        sin_theta = np.sin(theta)
        small = sin_theta < 1e-9

        def at(t):
            t = np.asarray(t, dtype=np.float64)
            with np.errstate(all="ignore"):
                w2 = np.sin((1.0 - t) * theta) / sin_theta
                w1 = np.sin(t * theta) / sin_theta
            # nearly parallel rows fall back to normalized linear interpolation
            w2 = np.where(small, 1.0 - t, w2)
            w1 = np.where(small, t, w1)
            return project_batch(m, w2[..., None] * X2 + w1[..., None] * X1)

        return at
    p2, lam = _ball_frame(X2)
    V = _ball_log_batch(X2, X1, p2, lam)

    def at(t):
        return _ball_exp_batch(X2, np.asarray(t, dtype=np.float64)[..., None] * V, p2, lam)

    return at


def curve_fan(m: Manifold, X1: np.ndarray, X2: np.ndarray):
    """geodesic_fan for the bulk path, with its contract.  On the ball it is
    the closed form x2 (+) tanh(t artanh|w|) w/|w|, w = (-x2) (+) x1 (Mobius
    sums): a tanh per t, no Mobius sum.  It agrees with geodesic_fan's
    exp_x2(t log_x2 x1) up to the conditioning of artanh near the boundary,
    so witnesses are re-checked through that oracle."""
    if m.kind is not ManifoldKind.POINCARE_BALL:
        return geodesic_fan(m, X1, X2)
    p2 = row_dot(X2, X2)
    w = _mobius_add_batch(-X2, X1, p2)
    nw = np.clip(row_norm(w), 0.0, 1.0 - 1e-16)
    a = np.arctanh(nw)
    u = np.where((nw > 1e-15)[:, None], w / np.maximum(nw, 1e-300)[:, None], 0.0)
    c, q = row_dot(X2, u), 1.0 - p2

    def at(t):  # the Mobius sum x2 (+) s u, with <x2, u> = c and |u|^2 taken as 1
        s = np.tanh(np.asarray(t, dtype=np.float64) * a)
        b = 1.0 + 2.0 * s * c
        return ((b + s * s)[..., None] * X2 + (q * s)[..., None] * u) / (b + p2 * s * s)[..., None]

    return at


def geodesic_batch(m: Manifold, X1: np.ndarray, X2: np.ndarray, t) -> np.ndarray:
    """Points at parameter t on the curves from rows of X2 (t=0) to X1 (t=1);
    see geodesic_fan."""
    return geodesic_fan(m, X1, X2)(t)


def _sphere_angle(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Angle between unit rows; the chord form keeps small angles accurate
    where arccos loses half the significant digits."""
    dots = np.clip(row_dot(X, Y), -1.0, 1.0)
    chord = row_norm(X - Y)
    small = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return np.where(dots > 0.9, small, np.arccos(dots))


def distance_batch(m: Manifold, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if m.kind is ManifoldKind.EUCLIDEAN:
        return row_norm(X - Y)
    if m.kind is ManifoldKind.SPHERE:
        return _sphere_angle(X, Y)
    w = _mobius_add_batch(-X, Y, row_dot(X, X))
    nw = np.clip(row_norm(w), 0.0, 1.0 - 1e-16)
    return 2.0 * np.arctanh(nw)


def log_batch(m: Manifold, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Initial velocities of the unit-time curves from rows of X to Y."""
    if m.kind is ManifoldKind.EUCLIDEAN:
        return Y - X
    if m.kind is ManifoldKind.SPHERE:
        dots = np.clip(row_dot(X, Y), -1.0, 1.0)
        theta = _sphere_angle(X, Y)
        w = Y - dots[:, None] * X
        nw = row_norm(w)
        scale = np.where(nw > 1e-15, theta / np.maximum(nw, 1e-300), 0.0)
        return scale[:, None] * w
    return _ball_log_batch(X, Y, *_ball_frame(X))


def exp_batch(m: Manifold, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    if m.kind is ManifoldKind.EUCLIDEAN:
        return X + V
    if m.kind is ManifoldKind.SPHERE:
        # project out any residual normal component before flowing
        dots = row_dot(X, V)
        V = V - dots[:, None] * X
        nv = row_norm(V)[:, None]
        unit = np.where(nv > 1e-300, V / np.maximum(nv, 1e-300), 0.0)
        out = np.cos(nv) * X + np.sin(nv) * unit
        return project_batch(m, out)
    return _ball_exp_batch(X, V, *_ball_frame(X))


def _mobius_add_batch(X: np.ndarray, Y: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Mobius sum of the rows of X and Y, given x2 = |X|^2 per row."""
    xy = row_dot(X, Y)[..., None]
    y2 = row_dot(Y, Y)[..., None]
    x2 = x2[..., None]
    num = (1.0 + 2.0 * xy + y2) * X + (1.0 - x2) * Y
    den = 1.0 + 2.0 * xy + x2 * y2
    return num / den


def _ball_frame(P: np.ndarray):
    """|P|^2 and the conformal factor lambda = 2 / (1 - |P|^2) per row."""
    p2 = row_dot(P, P)
    return p2, 2.0 / (1.0 - p2)


def _ball_log_batch(P: np.ndarray, Q: np.ndarray, p2: np.ndarray, lam: np.ndarray) -> np.ndarray:
    w = _mobius_add_batch(-P, Q, p2)
    nw = np.clip(row_norm(w), 0.0, 1.0 - 1e-16)
    scale = np.where(nw > 1e-15, (2.0 / lam) * np.arctanh(nw) / np.maximum(nw, 1e-300), 0.0)
    return scale[:, None] * w


def _ball_exp_batch(P: np.ndarray, V: np.ndarray, p2: np.ndarray, lam: np.ndarray) -> np.ndarray:
    nv = row_norm(V)[..., None]
    w = np.where(nv > 1e-300, np.tanh(lam[:, None] * nv / 2.0) * V / np.maximum(nv, 1e-300), 0.0)
    return _mobius_add_batch(P, w, p2)


def geodesic(spec: GeodesicSpec, t: float) -> Point:
    """Point at parameter t in [0, 1]; t=0 gives mu2, t=1 gives mu1."""
    if not 0.0 <= t <= 1.0:
        raise ParamOutOfRangeError(f"t = {t!r} outside [0, 1]")
    X1 = spec.mu1.array()[None, :]
    X2 = spec.mu2.array()[None, :]
    out = geodesic_batch(spec.manifold, X1, X2, float(t))
    return Point(tuple(out[0]))


def distance(m: Manifold, p: Point, q: Point) -> float:
    validate_point(m, p)
    validate_point(m, q)
    return float(distance_batch(m, p.array()[None, :], q.array()[None, :])[0])


def exp_map(m: Manifold, p: Point, v) -> Point:
    validate_point(m, p)
    va = np.asarray(v, dtype=np.float64)
    if va.shape != (m.ambient_dim,):
        raise InvalidPointError(
            f"tangent vector needs {m.ambient_dim} components, got {va.shape}"
        )
    if not np.all(np.isfinite(va)):
        raise InvalidPointError("non-finite tangent vector")
    if m.kind is ManifoldKind.SPHERE:
        if abs(float(np.dot(p.array(), va))) > TANGENT_TOL:
            raise InvalidPointError("tangent vector is not orthogonal to the base point")
    out = exp_batch(m, p.array()[None, :], va[None, :])
    q = Point(tuple(out[0]))
    validate_point(m, q)
    return q


def log_map(m: Manifold, p: Point, q: Point) -> tuple[float, ...]:
    validate_point(m, p)
    validate_point(m, q)
    if m.kind is ManifoldKind.SPHERE:
        if float(np.dot(p.array(), q.array())) <= -1.0 + ANTIPODAL_TOL:
            raise AntipodalPointsError(f"{p.coords} and {q.coords} are antipodal")
    out = log_batch(m, p.array()[None, :], q.array()[None, :])
    return tuple(out[0])
