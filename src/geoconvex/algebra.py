"""Domains, problem instances, and the seeded draws of their members.

A DomainSet is an axis-aligned box in chart coordinates, optionally cut
down by a membership predicate (a point belongs iff it is inside the box
and the predicate evaluates > 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng
from .exprlang import Bifunction, EndoMap, Expr, ScalarFn
from .manifold import Manifold, ManifoldKind, row_finite, row_norm

# Fixed rejection-sampling layout: each sampled object owns a region of the
# stream so draws never depend on how work is chunked across workers.
REGION_SIZE = 1 << 20
MAX_REJECTION_ROUNDS = 4096
TAIL_ROWS = 2048  # candidate rows per rejection call once few rows are left

# Every stream region that is drawn from.  Member k of a scan row (a pair,
# a triple or one point) comes from REGION_ROWS[k]; the preimage search of
# epigraph membership and the premises' auxiliary draws own the others.
REGION_ROWS = (0, 1, 2)
REGION_PREIMAGE = 5
REGION_AUX1 = 8
REGION_AUX2 = 9
# Not a region but a stream index: LocalMin draws its probe directions from
# rng.Stream(seed, STREAM_DIRS), which reads the same u64s as region 0 of
# sample 10.  The value is kept because changing it moves reports.
STREAM_DIRS = 10

# Gap-function arguments are drawn from this fixed window, and the scale of
# homogeneity from the second, at positions 0.. of region 0 of a stream.
PHI_ARG_RANGE = (-10.0, 10.0)
PHI_SCALE_RANGE = (0.0, 10.0)

# Poincare-ball members lie strictly inside this radius; sampled points
# keep a wider margin from the boundary.
BALL_MEMBER_RADIUS = 1.0 - 1e-12
BALL_SAMPLE_RADIUS = 1.0 - 1e-9


@dataclass(frozen=True)
class DomainSet:
    manifold: Manifold
    box: tuple[tuple[float, float], ...]
    membership: Expr | None = None

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if len(box) != self.manifold.ambient_dim:
            raise ValueError(
                f"box has {len(box)} axes, manifold needs {self.manifold.ambient_dim}"
            )
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= hi - lo < np.inf):
                raise ValueError(f"empty, non-finite or overflowing box axis ({lo}, {hi})")

    def lows(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.box])

    def highs(self) -> np.ndarray:
        return np.array([hi for _, hi in self.box])

    def scale(self) -> float:
        """Largest box edge; reference length for step ladders and insets."""
        return float(np.max(self.highs() - self.lows())) or 1.0


def box_excess_batch(domain: DomainSet, X: np.ndarray) -> np.ndarray:
    """How far each row lies outside the box, per the worst axis."""
    out = None
    for j, (lo, hi) in enumerate(domain.box):
        c = X[:, j]
        e = np.maximum(lo - c, c - hi)
        out = e if out is None else np.maximum(out, e)
    return out


def member_mask_batch(
    domain: DomainSet, X: np.ndarray, ball_radius: float = BALL_MEMBER_RADIUS
) -> np.ndarray:
    """Rows of X that are domain members.  On the Poincare ball, rows must
    lie within `ball_radius`, which must not exceed BALL_MEMBER_RADIUS."""
    ok = row_finite(X) & (box_excess_batch(domain, X) <= 0.0)
    m = domain.manifold
    if m.kind is ManifoldKind.SPHERE:
        ok &= np.abs(row_norm(X) - 1.0) <= 1e-9
    elif m.kind is ManifoldKind.POINCARE_BALL:
        ok &= row_norm(X) < ball_radius
    if domain.membership is not None:
        pred = domain.membership.eval_rows(X.T, X.shape[0])
        ok &= np.isfinite(pred) & (pred > 0.0)
    return ok


def outside_margin_batch(domain: DomainSet, X: np.ndarray) -> np.ndarray:
    """How far outside the set each row is; <= 0 means inside (up to the
    strict predicate boundary).  NaN rows mark evaluation failures."""
    margin = box_excess_batch(domain, X)
    if domain.membership is not None:
        margin = np.maximum(margin, -domain.membership.eval_rows(X.T, X.shape[0]))
    bad = ~row_finite(X)
    if np.any(bad):
        margin = np.where(bad, np.nan, margin)
    return margin


def _draw_box_uniform(domain: DomainSet, bases: np.ndarray, pos0: int) -> np.ndarray:
    out = np.empty((bases.shape[0], len(domain.box)), order="F")
    for j, (lo, hi) in enumerate(domain.box):
        out[:, j] = lo + (hi - lo) * rng.unit_array(bases, pos0 + j)
    return out


def _draw_sphere(bases: np.ndarray, pos0: int, d: int) -> np.ndarray:
    # d standard normals per row via Box-Muller, then normalize
    out = np.empty((bases.shape[0], d), order="F")
    for j in range(d):
        u1 = np.maximum(rng.unit_array(bases, pos0 + 2 * j), 2.0 ** -53)
        u2 = rng.unit_array(bases, pos0 + 2 * j + 1)
        out[:, j] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    norms = row_norm(out)
    with np.errstate(all="ignore"):
        unit = out / norms[:, None]
    unit[norms < 1e-12] = np.nan  # degenerate draw, rejected below
    return unit


def _draw(domain: DomainSet, bases: np.ndarray, pos0: int) -> np.ndarray:
    """One candidate point per base from positions pos0.. of its stream."""
    if domain.manifold.kind is ManifoldKind.SPHERE:
        return _draw_sphere(bases, pos0, len(domain.box))
    return _draw_box_uniform(domain, bases, pos0)


def _attempt_stride(domain: DomainSet) -> int:
    d = len(domain.box)
    return 2 * d if domain.manifold.kind is ManifoldKind.SPHERE else d


def _rejection_sample(bases: np.ndarray, region: int, stride: int, draw, accept):
    """One accepted row per stream base: attempt a of a row draws `draw(bases,
    pos0)` at pos0 = region*REGION_SIZE + a*stride of its own stream until
    `accept(rows)` takes it.  Attempt 0 of every row is one call, then the k
    rows left draw TAIL_ROWS // k attempts each per call.  Returns (rows, ok),
    a row that exhausted MAX_REJECTION_ROUNDS all zeros and not ok."""
    rows = draw(bases, region * REGION_SIZE)
    ok = accept(rows)
    if ok.all():
        return rows, ok
    rows = np.where(ok[:, None], rows, 0.0)
    idx, attempt = np.flatnonzero(~ok), 1
    while idx.size and attempt < MAX_REJECTION_ROUNDS:
        r = max(1, min(TAIL_ROWS // idx.size, MAX_REJECTION_ROUNDS - attempt))
        if r == 1:  # one attempt per row, all at the same stream position
            cand = draw(bases[idx], region * REGION_SIZE + attempt * stride)
            hit = accept(cand)
            rows[idx[hit]] = cand[hit]
        else:
            tries = attempt + np.tile(np.arange(r), idx.size)
            cand = draw(np.repeat(bases[idx], r), region * REGION_SIZE + tries * stride)
            hits = accept(cand).reshape(idx.size, r)
            hit = hits.any(axis=1)  # a row keeps its first accepted attempt
            rows[idx[hit]] = cand[(np.arange(idx.size) * r + hits.argmax(axis=1))[hit]]
        ok[idx[hit]] = True
        idx, attempt = idx[~hit], attempt + r
    return rows, ok


def sample_members(domain: DomainSet, bases: np.ndarray, region: int):
    """Rejection-sample one member point per stream base.  Returns
    (rows, found): found is False where a draw exhausted its rejection
    budget, and that row is all zeros, not a member.  Callers mask such
    rows; a domain with no member gives found all False."""
    return _rejection_sample(
        bases, region, _attempt_stride(domain), partial(_draw, domain),
        # ball draws keep clear of the boundary by more than members must
        lambda X: member_mask_batch(domain, X, ball_radius=BALL_SAMPLE_RADIUS),
    )


@dataclass(frozen=True)
class Instance:
    """The standing data of one convexity question: h, E, phi on a domain."""

    manifold: Manifold
    h: ScalarFn
    E: EndoMap
    phi: Bifunction
    domain: DomainSet
    label: str = ""

    def __post_init__(self):
        amb = self.manifold.ambient_dim
        if self.h.nvars != amb:
            raise ValueError(f"h takes {self.h.nvars} variables, expected {amb}")
        if len(self.E.exprs) != amb or self.E.nvars != amb:
            raise ValueError(f"E must map {amb} coordinates to {amb}")

    def with_h(self, h: ScalarFn, label: str = "") -> "Instance":
        return Instance(self.manifold, h, self.E, self.phi, self.domain, label or self.label)

    def with_phi(self, phi: Bifunction) -> "Instance":
        return Instance(self.manifold, self.h, self.E, phi, self.domain, self.label)


@dataclass(frozen=True)
class ProductSet:
    """Subset of (manifold x R): base membership plus a graph predicate.

    (u, v) belongs iff u is a member of `base` and graph_bound(u, v) > 0.
    v_range is only the sampling window for the scalar slot, not a
    membership constraint.
    """

    base: DomainSet
    graph_bound: Expr
    v_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = float(self.v_range[0]), float(self.v_range[1])
        object.__setattr__(self, "v_range", (lo, hi))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"empty v_range ({lo}, {hi})")

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        """The sampling box of a member (u, v): the base box, then v_range."""
        return self.base.box + (self.v_range,)

    def graph_values(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The graph bound at rows (x, v); its last variable is v."""
        return self.graph_bound.eval_rows((*X.T, v), X.shape[0])

    def member_mask(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = self.graph_values(X, v)
        return member_mask_batch(self.base, X) & np.isfinite(g) & (g > 0.0)

    def outside_margin(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = self.graph_values(X, v)
        margin = np.maximum(outside_margin_batch(self.base, X), -g)
        return np.where(np.isfinite(g), margin, np.nan)


def sample_product_members(ps: ProductSet, bases: np.ndarray, region: int):
    """One (u, v) member of `ps` per stream base, as rows [u | v], and which
    rows found one."""
    d = len(ps.base.box)
    stride = _attempt_stride(ps.base) + 1
    lo, hi = ps.v_range

    def draw(sub, pos0):
        u = _draw(ps.base, sub, pos0)
        return np.hstack([u, (lo + (hi - lo) * rng.unit_array(sub, pos0 + stride - 1))[:, None]])

    return _rejection_sample(bases, region, stride, draw,
                             lambda R: ps.member_mask(R[:, :d], R[:, d]))
