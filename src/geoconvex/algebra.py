"""Domains, problem instances, and sampled gap-function property checks.

A DomainSet is an axis-aligned box in chart coordinates, optionally cut
down by a membership predicate (a point belongs iff it is inside the box
and the predicate evaluates > 0).  Property checks for gap functions are
sampled semi-decisions: a passing report means no violation was found at
the given budget, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import EmptySequenceError, EvalDomainError, SamplingError
from .exprlang import Bifunction, EndoMap, Expr, ScalarFn, _batch_env
from .manifold import Manifold, ManifoldKind, Point, row_finite, row_norm
from .reports import CheckConfig, Report, Verdict, Witness

# Fixed rejection-sampling layout: each sampled object owns a region of the
# stream so draws never depend on how work is chunked across workers.
REGION_SIZE = 1 << 20
MAX_REJECTION_ROUNDS = 4096

# Gap-function arguments are sampled from this fixed window.
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
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"empty or non-finite box axis ({lo}, {hi})")

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
        with np.errstate(all="ignore"):
            pred = domain.membership._batch_fn(_batch_env(domain.membership.variables, X))
        pred = np.asarray(pred, dtype=np.float64) + np.zeros(X.shape[0])
        ok &= np.isfinite(pred) & (pred > 0.0)
    return ok


def outside_margin_batch(domain: DomainSet, X: np.ndarray) -> np.ndarray:
    """How far outside the set each row is; <= 0 means inside (up to the
    strict predicate boundary).  NaN rows mark evaluation failures."""
    margin = box_excess_batch(domain, X)
    if domain.membership is not None:
        with np.errstate(all="ignore"):
            pred = domain.membership._batch_fn(_batch_env(domain.membership.variables, X))
        pred = np.asarray(pred, dtype=np.float64) + np.zeros(X.shape[0])
        margin = np.maximum(margin, -pred)
    bad = ~row_finite(X)
    if np.any(bad):
        margin = np.where(bad, np.nan, margin)
    return margin


def _draw_box_uniform(domain: DomainSet, bases: np.ndarray, pos0: int) -> np.ndarray:
    lo = domain.lows()
    hi = domain.highs()
    d = len(domain.box)
    out = np.empty((bases.shape[0], d))
    for j in range(d):
        out[:, j] = lo[j] + (hi[j] - lo[j]) * rng.unit_array(bases, pos0 + j)
    return out


def _draw_sphere(bases: np.ndarray, pos0: int, d: int) -> np.ndarray:
    # d standard normals per row via Box-Muller, then normalize
    out = np.empty((bases.shape[0], d))
    for j in range(d):
        u1 = np.maximum(rng.unit_array(bases, pos0 + 2 * j), 2.0 ** -53)
        u2 = rng.unit_array(bases, pos0 + 2 * j + 1)
        out[:, j] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    norms = row_norm(out)
    with np.errstate(all="ignore"):
        unit = out / norms[:, None]
    unit[norms < 1e-12] = np.nan  # degenerate draw, rejected below
    return unit


def _attempt_stride(domain: DomainSet) -> int:
    d = len(domain.box)
    return 2 * d if domain.manifold.kind is ManifoldKind.SPHERE else d


def sample_members(
    domain: DomainSet, bases: np.ndarray, region: int, on_fail: str = "raise"
):
    """Rejection-sample one member point per stream base.

    Row i consumes positions region*REGION_SIZE + attempt*stride + j of its
    own stream, so results are independent of batching.  With
    on_fail="mask" the return value is (coords, ok) instead of raising when
    some rows exhaust their rejection budget.
    """
    n = bases.shape[0]
    d = len(domain.box)
    stride = _attempt_stride(domain)
    base_pos = region * REGION_SIZE
    coords = np.zeros((n, d))
    active = np.ones(n, dtype=bool)
    sphere = domain.manifold.kind is ManifoldKind.SPHERE
    for attempt in range(MAX_REJECTION_ROUNDS):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        sub = bases[idx]
        pos0 = base_pos + attempt * stride
        if sphere:
            draw = _draw_sphere(sub, pos0, d)
        else:
            draw = _draw_box_uniform(domain, sub, pos0)
        # ball draws keep clear of the boundary by more than members must
        ok = member_mask_batch(domain, draw, ball_radius=BALL_SAMPLE_RADIUS)
        coords[idx[ok]] = draw[ok]
        active[idx[ok]] = False
    if on_fail == "mask":
        return coords, ~active
    if np.any(active):
        raise SamplingError(
            f"no member found for {int(np.sum(active))} of {n} draws after "
            f"{MAX_REJECTION_ROUNDS} rejection rounds"
        )
    return coords


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

    def graph_values(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        env = _batch_env(self.graph_bound.variables[:-1], X)
        env["v"] = v
        with np.errstate(all="ignore"):
            out = self.graph_bound._batch_fn(env)
        return np.asarray(out, dtype=np.float64) + np.zeros(X.shape[0])

    def member_mask(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = self.graph_values(X, v)
        return member_mask_batch(self.base, X) & np.isfinite(g) & (g > 0.0)

    def outside_margin(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = self.graph_values(X, v)
        margin = np.maximum(outside_margin_batch(self.base, X), -g)
        return np.where(np.isfinite(g), margin, np.nan)


def sample_product_members(
    ps: ProductSet, bases: np.ndarray, region: int, on_fail: str = "raise"
):
    """One (u, v) member per stream base; returns ((coords, v), ok) with
    on_fail="mask", else (coords, v), raising on exhaustion."""
    n = bases.shape[0]
    d = len(ps.base.box)
    stride = _attempt_stride(ps.base) + 1
    base_pos = region * REGION_SIZE
    coords = np.zeros((n, d))
    vs = np.zeros(n)
    active = np.ones(n, dtype=bool)
    lo, hi = ps.v_range
    sphere = ps.base.manifold.kind is ManifoldKind.SPHERE
    for attempt in range(MAX_REJECTION_ROUNDS):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        sub = bases[idx]
        pos0 = base_pos + attempt * stride
        if sphere:
            draw = _draw_sphere(sub, pos0, d)
        else:
            draw = _draw_box_uniform(ps.base, sub, pos0)
        v = lo + (hi - lo) * rng.unit_array(sub, pos0 + stride - 1)
        ok = ps.member_mask(draw, v)
        coords[idx[ok]] = draw[ok]
        vs[idx[ok]] = v[ok]
        active[idx[ok]] = False
    if on_fail == "mask":
        return (coords, vs), ~active
    if np.any(active):
        raise SamplingError(
            f"no product-set member found for {int(np.sum(active))} of {n} draws "
            f"after {MAX_REJECTION_ROUNDS} rejection rounds"
        )
    return coords, vs


# ---------------------------------------------------------------------------
# Gap-function property checks (sampled equations/inequalities over R)


def _equation_report(
    label: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    witness_points: list[np.ndarray],
    witness_t: np.ndarray | None,
    budget: int,
    seed: int,
    cfg: CheckConfig,
    notes: tuple[str, ...] = (),
) -> Report:
    bad = ~(np.isfinite(lhs) & np.isfinite(rhs))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise EvalDomainError(
            f"{label}: non-finite value at sample {k} "
            f"(args {[float(w[k]) for w in witness_points]})"
        )
    viol = np.abs(lhs - rhs)
    thresholds = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
    max_violation = float(np.max(viol))
    exceeded = viol > thresholds
    if np.any(exceeded):
        k = int(np.argmax(np.where(exceeded, viol, -np.inf)))
        witness = Witness(
            points=tuple(Point((float(w[k]),)) for w in witness_points),
            t=float(witness_t[k]) if witness_t is not None else None,
            lhs=float(lhs[k]),
            rhs=float(rhs[k]),
            violation=float(viol[k]),
        )
        return Report(Verdict.VIOLATED, max_violation, witness, budget, seed, notes=notes)
    return Report(Verdict.HOLDS_ON_SAMPLES, max_violation, None, budget, seed, notes=notes)


def check_nonneg_homogeneous(
    phi: Bifunction, budget: int, seed: int = 0, cfg: CheckConfig | None = None
) -> Report:
    """Sampled test of phi(t*u1, t*u2) == t*phi(u1, u2) for t >= 0."""
    cfg = cfg or CheckConfig(seed=seed)
    bases = rng.base_array(seed, np.arange(budget, dtype=np.uint64))
    lo, hi = PHI_ARG_RANGE
    u1 = lo + (hi - lo) * rng.unit_array(bases, 0)
    u2 = lo + (hi - lo) * rng.unit_array(bases, 1)
    t = PHI_SCALE_RANGE[0] + (PHI_SCALE_RANGE[1] - PHI_SCALE_RANGE[0]) * rng.unit_array(bases, 2)
    lhs = phi.eval_batch(t * u1, t * u2)
    rhs = t * phi.eval_batch(u1, u2)
    return _equation_report(
        "nonneg_homogeneous", lhs, rhs, [u1, u2], t, budget, seed, cfg
    )


def check_additive(
    phi: Bifunction, budget: int, seed: int = 0, cfg: CheckConfig | None = None
) -> Report:
    """Sampled test of phi(u1+v1, u2+v2) == phi(u1,u2) + phi(v1,v2)."""
    cfg = cfg or CheckConfig(seed=seed)
    bases = rng.base_array(seed, np.arange(budget, dtype=np.uint64))
    lo, hi = PHI_ARG_RANGE
    u1 = lo + (hi - lo) * rng.unit_array(bases, 0)
    u2 = lo + (hi - lo) * rng.unit_array(bases, 1)
    v1 = lo + (hi - lo) * rng.unit_array(bases, 2)
    v2 = lo + (hi - lo) * rng.unit_array(bases, 3)
    lhs = phi.eval_batch(u1 + v1, u2 + v2)
    rhs = phi.eval_batch(u1, u2) + phi.eval_batch(v1, v2)
    return _equation_report(
        "additive", lhs, rhs, [u1, u2, v1, v2], None, budget, seed, cfg
    )


def check_antisymmetric(
    phi: Bifunction, budget: int, seed: int = 0, cfg: CheckConfig | None = None
) -> Report:
    """Sampled test of phi(a, b) == -phi(b, a).

    The combination theorems use "antisymmetric" without pinning a formula;
    this reading is recorded on the report.
    """
    cfg = cfg or CheckConfig(seed=seed)
    bases = rng.base_array(seed, np.arange(budget, dtype=np.uint64))
    lo, hi = PHI_ARG_RANGE
    a = lo + (hi - lo) * rng.unit_array(bases, 0)
    b = lo + (hi - lo) * rng.unit_array(bases, 1)
    lhs = phi.eval_batch(a, b)
    rhs = -phi.eval_batch(b, a)
    return _equation_report(
        "antisymmetric",
        lhs,
        rhs,
        [a, b],
        None,
        budget,
        seed,
        cfg,
        notes=("interpretation: antisymmetry read as phi(a,b) = -phi(b,a)",),
    )


def check_nonneg_linear(
    phi: Bifunction, budget: int, seed: int = 0, cfg: CheckConfig | None = None
) -> Report:
    """Conjunction of the homogeneity and additivity checks."""
    hom = check_nonneg_homogeneous(phi, budget, seed, cfg)
    add = check_additive(phi, budget, seed, cfg)
    both = hom.holds and add.holds
    verdict = Verdict.HOLDS_ON_SAMPLES if both else Verdict.VIOLATED
    witness = None if both else (hom.witness or add.witness)
    return Report(
        verdict,
        max(hom.max_violation, add.max_violation),
        witness,
        budget,
        seed,
        flags={"nonneg_linear": both},
        notes=(
            f"homogeneous: {hom.verdict.value}",
            f"additive: {add.verdict.value}",
        ),
    )


def check_seq_upper_bounded(
    phi: Bifunction,
    E: EndoMap,
    sequences,
    seed: int = 0,
    cfg: CheckConfig | None = None,
) -> Report:
    """Per pair of bounded sequences (u_i), (v_i), test

        sup_i phi(E(u_i), E(v_i)) <= phi(sup_i E(u_i), sup_i E(v_i)).

    Only the supplied finite sequences are examined; sequence space is not
    searched.
    """
    cfg = cfg or CheckConfig(seed=seed)
    sequences = list(sequences)
    if not sequences:
        raise EmptySequenceError("no sequence pairs supplied")
    worst = None
    max_violation = -np.inf
    for pair_idx, (useq, vseq) in enumerate(sequences):
        useq = list(useq)
        vseq = list(vseq)
        if not useq or not vseq or len(useq) != len(vseq):
            raise EmptySequenceError(
                f"pair {pair_idx}: sequences must be nonempty and equal-length"
            )
        eu = [E((float(u),))[0] for u in useq]
        ev = [E((float(v),))[0] for v in vseq]
        lhs = max(phi(a, b) for a, b in zip(eu, ev))
        rhs = phi(max(eu), max(ev))
        viol = lhs - rhs
        max_violation = max(max_violation, viol)
        if viol > cfg.threshold(rhs) and (worst is None or viol > worst[0]):
            worst = (viol, pair_idx, lhs, rhs, eu, ev)
    if worst is not None:
        viol, pair_idx, lhs, rhs, eu, ev = worst
        witness = Witness(
            points=(Point((float(max(eu)),)), Point((float(max(ev)),))),
            t=None,
            lhs=float(lhs),
            rhs=float(rhs),
            violation=float(viol),
        )
        return Report(
            Verdict.VIOLATED,
            float(max_violation),
            witness,
            len(sequences),
            seed,
            notes=(f"violating sequence pair index {pair_idx}",),
        )
    return Report(
        Verdict.HOLDS_ON_SAMPLES, float(max_violation), None, len(sequences), seed
    )
