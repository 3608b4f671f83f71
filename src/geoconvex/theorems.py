"""Statement-level verifiers: premises checked first, then the conclusion,
reporting PremiseFailed / HoldsOnSamples / Violated per statement.

Each verifier runs its premises through the checker/algebra predicates and
only evaluates the conclusion when every premise holds on samples, so a
conclusion violation on premise-passing inputs points either at an
implementation bug or at a genuinely broken statement (the divided
three-point form is logged for exactly that reason).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import rng
from .algebra import (
    DomainSet,
    Instance,
    ProductSet,
    check_additive,
    check_antisymmetric,
    check_nonneg_homogeneous,
    check_seq_upper_bounded,
    member_mask_batch,
    sample_members,
)
from .checker import (
    GOLDEN_PROBES,
    _chunk_ranges,
    _clean_images,
    check_geodesic_E_convex_set,
    check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set,
    check_phiE_convex_interval,
)
from .errors import EvalDomainError
from .exprlang import (
    Bifunction,
    Binary,
    Call,
    Const,
    EndoMap,
    Expr,
    ScalarFn,
    Var,
    add_bifunctions,
    add_fns,
    compose_scalar,
    differentiate_numeric,
    directional_derivative_batch,
    max_fns,
    point_vars,
    scale_fn,
    weighted_sum_fns,
)
from .manifold import (
    Manifold,
    ManifoldKind,
    Point,
    distance_batch,
    exp_map,
    geodesic_batch,
    log_batch,
    row_norm,
)
from .reports import CheckConfig, Report, Verdict, Witness

STRICT_DERIVATIVE_TOL = 1e-6
ROUNDTRIP_TOL = 1e-8
LOCAL_MIN_RADII = (1e-2, 1e-3, 1e-4)
LOCAL_MIN_DIRECTIONS = 16

# stream regions for auxiliary sampling, clear of the checker's 0..5
_R_AUX1 = 8
_R_AUX2 = 9
_R_DIRS = 10


def _golden_refine(objective, z0, intervals, steps: int):
    """Round-robin coordinate ascent; each step runs one golden-section line
    search over the coordinate's full admissible interval.  The best point
    ever evaluated is kept, so the result never falls below the start."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    best_z = list(z0)
    best_v = objective(best_z)
    nv = len(z0)
    for it in range(steps):
        k = it % nv
        lo, hi = intervals[k]
        if not hi > lo:
            continue
        base = list(best_z)

        def f(x):
            nonlocal best_z, best_v
            trial = list(base)
            trial[k] = x
            v = objective(trial)
            if v > best_v:
                best_v = v
                best_z = trial
            return v

        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(GOLDEN_PROBES):
            if fc < fd:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
            else:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
    return best_z, best_v


class TheoremId(Enum):
    MEAN_VALUE_31 = "MeanValue31"
    THREE_POINT_32 = "ThreePoint32"
    SCALING_41A = "Scaling41a"
    SUM_41B = "Sum41b"
    COMPOSITION = "Composition"
    WEIGHTED_SUM = "WeightedSum"
    DIFFEO_INVARIANCE = "DiffeoInvariance"
    CONTINUITY_BOUND = "ContinuityBound"
    SUP_FAMILY = "SupFamily"
    LOCAL_MIN = "LocalMin"
    CHART_CONTINUITY = "ChartContinuity"
    PHI_LIMIT = "PhiLimit"
    PHI_SERIES_LIMIT = "PhiSeriesLimit"
    STRICT_DIFFERENTIAL = "StrictDifferential"
    EPIGRAPH_EQUIV = "EpigraphEquiv"
    INTERSECTION_52 = "Intersection52"
    SUP_EPIGRAPH_COR = "SupEpigraphCor"


@dataclass(frozen=True)
class TheoremReport:
    id: TheoremId
    premise_reports: tuple[Report, ...]
    conclusion_report: Report | None
    verdict: Verdict
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS_ON_SAMPLES

    def to_dict(self) -> dict:
        return {
            "id": self.id.value,
            "verdict": self.verdict.value,
            "premises": [r.to_dict() for r in self.premise_reports],
            "conclusion": self.conclusion_report.to_dict()
            if self.conclusion_report
            else None,
            "notes": list(self.notes),
        }


def _labeled(report: Report, name: str) -> Report:
    return Report(
        report.verdict, report.max_violation, report.witness,
        report.samples_used, report.seed, flags=report.flags,
        notes=(f"premise: {name}",) + report.notes,
    )


def _bool_premise(name: str, ok: bool, seed: int, detail: str = "") -> Report:
    verdict = Verdict.HOLDS_ON_SAMPLES if ok else Verdict.PREMISE_FAILED
    notes = (f"premise: {name}",) + ((detail,) if detail else ())
    return Report(verdict, None, None, 0, seed, notes=notes)


def _assemble(tid: TheoremId, premises, conclusion: Report | None,
              notes: tuple[str, ...] = ()) -> TheoremReport:
    premises = tuple(premises)
    if any(not p.holds for p in premises):
        return TheoremReport(tid, premises, conclusion, Verdict.PREMISE_FAILED, notes)
    verdict = conclusion.verdict if conclusion is not None else Verdict.HOLDS_ON_SAMPLES
    return TheoremReport(tid, premises, conclusion, verdict, notes)


def _sampled_image_values(inst: Instance, cfg: CheckConfig, n: int, region: int):
    """(points, E-images, h values) for n seeded domain members."""
    n = max(2, min(n, cfg.samples))
    bases = rng.base_array(cfg.seed, np.arange(n, dtype=np.uint64))
    U = sample_members(inst.domain, bases, region=region)
    W, ok = _clean_images(inst.manifold, inst.E.eval_batch(U))
    H = inst.h.eval_batch(W)
    keep = ok & np.isfinite(H)
    return U[keep], W[keep], H[keep]


# ---------------------------------------------------------------------------
# mean value (1-D)

def verify_mean_value(inst: Instance, u1: float, u2: float, cfg: CheckConfig,
                      grid: int = 64) -> TheoremReport:
    """Between E(u1) and E(u2) there must be alpha, beta with

        h'(alpha) >= R * h'(beta) >= h'(beta),
        R = phi(h(E(u1)), h(E(u2))) / (h(E(u1)) - h(E(u2))).

    Searched on a derivative grid plus golden refinement, within a budget
    of well under 1e4 function evaluations.
    """
    tid = TheoremId.MEAN_VALUE_31
    premises = []
    try:
        e1 = inst.E((float(u1),))[0]
        e2 = inst.E((float(u2),))[0]
        h1 = inst.h((e1,))
        h2 = inst.h((e2,))
    except EvalDomainError as exc:
        premises.append(_bool_premise("h, E evaluable at u1, u2", False, cfg.seed, str(exc)))
        return _assemble(tid, premises, None)
    premises.append(_bool_premise("h, E evaluable at u1, u2", True, cfg.seed))
    lo, hi = sorted((e1, e2))
    sep = cfg.threshold(h2)
    premises.append(
        _bool_premise(
            "h(E(u1)) differs from h(E(u2))",
            abs(h1 - h2) > sep,
            cfg.seed,
            f"|{h1!r} - {h2!r}| vs {sep!r}",
        )
    )
    if lo == hi:
        premises.append(_bool_premise("E(u1) != E(u2)", False, cfg.seed))
        return _assemble(tid, premises, None)
    try:
        for x in np.linspace(lo, hi, 5)[1:-1]:
            differentiate_numeric(inst.h, (float(x),), (1.0,))
    except EvalDomainError as exc:
        premises.append(_bool_premise("h numerically differentiable", False, cfg.seed, str(exc)))
        return _assemble(tid, premises, None)
    premises.append(_bool_premise("h numerically differentiable", True, cfg.seed))
    premises.append(_labeled(check_phiE_convex_interval(inst, cfg), "combination inequality"))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    R = inst.phi(h1, h2) / (h1 - h2)
    span = hi - lo
    xs = lo + (np.arange(grid) + 0.5) / grid * span
    ds = np.array([differentiate_numeric(inst.h, (float(x),), (1.0,)) for x in xs])
    tol = cfg.threshold(0.0)

    def deficiency(da: float, db: float) -> float:
        return max(R * db - da, db - R * db)

    gaps = np.maximum(R * ds[None, :] - ds[:, None], ds[None, :] - R * ds[None, :])
    k = int(np.argmin(gaps))
    ai, bi = divmod(k, grid)
    best = float(gaps[ai, bi])
    alpha, beta = float(xs[ai]), float(xs[bi])
    if best > tol:
        def objective(z):
            try:
                da = differentiate_numeric(inst.h, (z[0],), (1.0,))
                db = differentiate_numeric(inst.h, (z[1],), (1.0,))
            except EvalDomainError:
                return -np.inf
            return -deficiency(da, db)

        z, v = _golden_refine(objective, [alpha, beta], [(lo, hi), (lo, hi)], cfg.refine_steps)
        if math.isfinite(v) and -v < best:
            best = -v
            alpha, beta = float(z[0]), float(z[1])
    if best <= tol:
        conclusion = Report(
            Verdict.HOLDS_ON_SAMPLES, best, None, grid, cfg.seed,
            notes=(f"witness pair alpha={alpha!r}, beta={beta!r}, R={R!r}",),
        )
    else:
        witness = Witness(
            points=(Point((alpha,)), Point((beta,))), t=None,
            lhs=float(best), rhs=0.0, violation=float(best),
        )
        conclusion = Report(
            Verdict.VIOLATED, best, witness, grid, cfg.seed,
            notes=(f"no grid/refined pair met the chain, R={R!r}",),
        )
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# three points (1-D)

def verify_three_point(inst: Instance, mu1: float, mu2: float, mu3: float,
                       cfg: CheckConfig) -> TheoremReport:
    """Undivided form: with E(mu1) < E(mu2) < E(mu3),

        (E(mu1) - E(mu3)) * (h'(E(mu2)) + h'(E(mu3)))
            <= phi(h1, h2) + phi(h2, h3).

    The printed divided variant flips sign with the negative denominator,
    so it is evaluated and logged only.
    """
    tid = TheoremId.THREE_POINT_32
    premises = []
    try:
        es = [inst.E((float(m),))[0] for m in (mu1, mu2, mu3)]
        hs = [inst.h((e,)) for e in es]
    except EvalDomainError as exc:
        premises.append(_bool_premise("h, E evaluable at the three points", False, cfg.seed, str(exc)))
        return _assemble(tid, premises, None)
    premises.append(_bool_premise("h, E evaluable at the three points", True, cfg.seed))
    e1, e2, e3 = es
    h1, h2, h3 = hs
    premises.append(
        _bool_premise("ordering E(mu1) < E(mu2) < E(mu3)", e1 < e2 < e3, cfg.seed,
                      f"images {e1!r}, {e2!r}, {e3!r}")
    )
    if not (e1 < e2 < e3):
        return _assemble(tid, premises, None)
    # the proof only manipulates the inequality family along the two fixed
    # pairs, so that is what the convexity premise samples
    ts = np.linspace(0.0, 1.0, 129)
    for (ea, eb, ha, hb, name) in (
        (e1, e2, h1, h2, "pair (mu1, mu2)"),
        (e2, e3, h2, h3, "pair (mu2, mu3)"),
    ):
        pts = (ts * ea + (1.0 - ts) * eb)[:, None]
        vals = inst.h.eval_batch(pts)
        p = inst.phi(ha, hb)
        rhs = hb + ts * p
        viol = vals - rhs
        thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
        ok = bool(np.all(np.isfinite(viol)) and np.all(viol <= thr))
        premises.append(
            _bool_premise(f"combination inequality along {name}", ok, cfg.seed,
                          f"max gap {float(np.max(viol))!r}")
        )
    try:
        d2 = differentiate_numeric(inst.h, (e2,), (1.0,))
        d3 = differentiate_numeric(inst.h, (e3,), (1.0,))
    except EvalDomainError as exc:
        premises.append(_bool_premise("h numerically differentiable", False, cfg.seed, str(exc)))
        return _assemble(tid, premises, None)
    premises.append(_bool_premise("h numerically differentiable", True, cfg.seed))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    lhs = (e1 - e3) * (d2 + d3)
    rhs = inst.phi(h1, h2) + inst.phi(h2, h3)
    viol = lhs - rhs
    divided_lhs = d2 + d3
    divided_rhs = rhs / (e1 - e3)
    divided_note = (
        f"divided printed form: {divided_lhs!r} <= {divided_rhs!r} is "
        f"{divided_lhs <= divided_rhs + cfg.threshold(divided_rhs)} (logged only)"
    )
    if viol > cfg.threshold(rhs):
        witness = Witness(
            points=(Point((e1,)), Point((e2,)), Point((e3,))), t=None,
            lhs=float(lhs), rhs=float(rhs), violation=float(viol),
        )
        conclusion = Report(Verdict.VIOLATED, float(viol), witness, 1, cfg.seed,
                            notes=(divided_note,))
    else:
        conclusion = Report(Verdict.HOLDS_ON_SAMPLES, float(viol), None, 1, cfg.seed,
                            notes=(divided_note,))
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# closure under scaling, sums, weighted sums, suprema

_CLOSURE_IDS = {
    "Scaling": TheoremId.SCALING_41A,
    "Sum": TheoremId.SUM_41B,
    "WeightedSum": TheoremId.WEIGHTED_SUM,
    "SupFamily": TheoremId.SUP_FAMILY,
}


def verify_closure(kind: str, insts: Sequence[Instance],
                   weights: Sequence[float] | None, cfg: CheckConfig) -> TheoremReport:
    tid = _CLOSURE_IDS[kind]
    insts = list(insts)
    first = insts[0]
    premises = []
    shared = all(
        i.manifold == first.manifold and i.E == first.E
        and i.phi == first.phi and i.domain == first.domain
        for i in insts
    )
    premises.append(_bool_premise("family shares manifold, E, phi, domain", shared, cfg.seed))
    if not shared:
        return _assemble(tid, premises, None)
    for k, sub in enumerate(insts):
        premises.append(_labeled(check_geodesic_phiE_convex_fn(sub, cfg),
                                 f"member {k} convexity"))
    if kind in ("Scaling", "Sum", "WeightedSum"):
        budget = min(cfg.samples, 20_000)
        premises.append(_labeled(check_nonneg_homogeneous(first.phi, budget, cfg.seed, cfg),
                                 "phi nonnegatively homogeneous"))
        premises.append(_labeled(check_additive(first.phi, budget, cfg.seed, cfg),
                                 "phi additive"))
        if kind in ("Scaling", "WeightedSum"):
            w = list(weights or [])
            premises.append(_bool_premise("weights nonnegative",
                                          len(w) > 0 and all(x >= 0 for x in w),
                                          cfg.seed, f"weights {w!r}"))
    else:
        # sequences are the h-value streams of the family at sampled points
        n_pairs = 32
        bases = rng.base_array(cfg.seed, np.arange(n_pairs, dtype=np.uint64))
        Ua = sample_members(first.domain, bases, region=_R_AUX1)
        Ub = sample_members(first.domain, bases, region=_R_AUX2)
        Wa, oka = _clean_images(first.manifold, first.E.eval_batch(Ua))
        Wb, okb = _clean_images(first.manifold, first.E.eval_batch(Ub))
        sequences = []
        for p in range(n_pairs):
            if not (oka[p] and okb[p]):
                continue
            useq = [sub.h(tuple(Wa[p])) for sub in insts]
            vseq = [sub.h(tuple(Wb[p])) for sub in insts]
            sequences.append((useq, vseq))
        ident = EndoMap.identity(1)
        premises.append(_labeled(
            check_seq_upper_bounded(first.phi, ident, sequences, cfg.seed, cfg),
            "phi sequentially upper bounded on harvested value streams",
        ))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    if kind == "Scaling":
        combined = scale_fn(weights[0], first.h)
    elif kind == "Sum":
        combined = insts[0].h
        for sub in insts[1:]:
            combined = add_fns(combined, sub.h)
    elif kind == "WeightedSum":
        combined = weighted_sum_fns([i.h for i in insts], list(weights))
    else:
        combined = max_fns([i.h for i in insts])
    conclusion = check_geodesic_phiE_convex_fn(first.with_h(combined, f"{kind} combination"), cfg)
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# composition

def verify_composition(h1_inst: Instance, h2: ScalarFn, cfg: CheckConfig) -> TheoremReport:
    tid = TheoremId.COMPOSITION
    premises = []
    diff_inst = h1_inst.with_phi(Bifunction.difference())
    premises.append(_labeled(check_geodesic_phiE_convex_fn(diff_inst, cfg),
                             "inner function geodesic E-convex (difference gap)"))
    try:
        _, _, H = _sampled_image_values(h1_inst, cfg, 512, _R_AUX1)
    except EvalDomainError as exc:
        premises.append(_bool_premise("inner range sampleable", False, cfg.seed, str(exc)))
        return _assemble(tid, premises, None)
    if H.size < 2:
        premises.append(_bool_premise("inner range sampleable", False, cfg.seed))
        return _assemble(tid, premises, None)
    rmin, rmax = float(np.min(H)), float(np.max(H))
    if rmax - rmin < 1e-9:
        rmin, rmax = rmin - 0.5, rmax + 0.5
    grid = np.linspace(rmin, rmax, 65)
    try:
        vals = np.array([h2((float(x),)) for x in grid])
    except EvalDomainError as exc:
        premises.append(_bool_premise("outer function evaluable on the range", False,
                                      cfg.seed, str(exc)))
        return _assemble(tid, premises, None)
    premises.append(_bool_premise("outer function evaluable on the range", True, cfg.seed))
    mono = bool(np.all(np.diff(vals) >= -cfg.threshold(float(np.max(np.abs(vals)))))
                and np.all(np.isfinite(vals)))
    premises.append(_bool_premise("outer function non-decreasing on the sampled range",
                                  mono, cfg.seed, f"range [{rmin!r}, {rmax!r}]"))
    outer_dom = DomainSet(Manifold(ManifoldKind.EUCLIDEAN, 1), ((rmin, rmax),))
    outer_inst = Instance(outer_dom.manifold, h2, EndoMap.identity(1), h1_inst.phi, outer_dom)
    premises.append(_labeled(check_phiE_convex_interval(outer_inst, cfg),
                             "outer function combination-convex on the sampled range"))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)
    composed = compose_scalar(h2, h1_inst.h)
    conclusion = check_geodesic_phiE_convex_fn(
        h1_inst.with_h(composed, "composition"), cfg
    )
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# diffeomorphic transport

@dataclass(frozen=True)
class Diffeo:
    """Invertible chart-to-chart map with batch forward/inverse callables."""

    name: str
    src: Manifold
    dst: Manifold
    fwd: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]


def diffeo_from_endomaps(m: Manifold, H: EndoMap, Hinv: EndoMap, name: str = "") -> Diffeo:
    return Diffeo(
        name or f"({H.label})/({Hinv.label})",
        m, m,
        lambda X: H.eval_batch(X),
        lambda Y: Hinv.eval_batch(Y),
    )


def identity_diffeo(m: Manifold) -> Diffeo:
    return Diffeo("identity", m, m, lambda X: X, lambda Y: Y)


def stereographic_diffeo() -> Diffeo:
    """Unit 2-sphere minus the south pole onto the plane, and back."""

    def fwd(X: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            den = 1.0 + X[:, 2]
            return np.stack([X[:, 0] / den, X[:, 1] / den], axis=1)

    def inv(Y: np.ndarray) -> np.ndarray:
        r2 = np.einsum("ij,ij->i", Y, Y)
        den = 1.0 + r2
        return np.stack(
            [2.0 * Y[:, 0] / den, 2.0 * Y[:, 1] / den, (1.0 - r2) / den], axis=1
        )

    return Diffeo(
        "stereographic",
        Manifold(ManifoldKind.SPHERE, 2),
        Manifold(ManifoldKind.EUCLIDEAN, 2),
        fwd,
        inv,
    )


BUILTIN_DIFFEOS = {
    "affine": "a*x + b per coordinate on Euclidean(n); supply H and Hinv expressions",
    "stereographic": "Sphere(2) minus the south pole onto Euclidean(2)",
}


def _roundtrip_premise(diffeo: Diffeo, X: np.ndarray, seed: int) -> Report:
    with np.errstate(all="ignore"):
        Y = diffeo.fwd(X)
        back = diffeo.inv(Y)
        again = diffeo.fwd(back)
    err1 = float(np.max(row_norm(back - X), initial=0.0))
    err2 = float(np.max(row_norm(again - Y), initial=0.0))
    err = max(err1, err2)
    ok = math.isfinite(err) and err <= ROUNDTRIP_TOL
    return _bool_premise(
        "H and Hinv invert each other on samples", ok, seed,
        f"max roundtrip error {err!r} (tolerance {ROUNDTRIP_TOL!r})",
    )


def verify_diffeo_invariance(inst: Instance, diffeo: Diffeo, cfg: CheckConfig,
                             tid: TheoremId = TheoremId.DIFFEO_INVARIANCE) -> TheoremReport:
    """Transport h to h o Hinv on H(B) with remap E' = H o E o Hinv and test
    the convexity inequality along pushed-forward curves H(curve(t)).

    The transported remap choice and the pushforward curves are the
    substitution pattern the transport argument itself uses; both are
    recorded on the report as interpretations.
    """
    premises = []
    n0 = max(2, min(cfg.samples, 2048))
    bases = rng.base_array(cfg.seed, np.arange(n0, dtype=np.uint64))
    U = sample_members(inst.domain, bases, region=_R_AUX1)
    premises.append(_roundtrip_premise(diffeo, U, cfg.seed))
    premises.append(_labeled(check_geodesic_phiE_convex_fn(inst, cfg), "source convexity"))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    m = inst.manifold
    G = cfg.t_grid
    ts = np.linspace(0.0, 1.0, G)
    best = (-np.inf, None)
    max_viol = -np.inf
    violated = False
    n = cfg.samples
    for i0, i1 in _chunk_ranges(n, 1):
        bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        U1, ok1 = sample_members(inst.domain, bases, region=0, on_fail="mask")
        U2, ok2 = sample_members(inst.domain, bases, region=1, on_fail="mask")
        with np.errstate(all="ignore"):
            # transported data, everything through the chart round trip
            T1 = diffeo.inv(diffeo.fwd(U1))
            T2 = diffeo.inv(diffeo.fwd(U2))
            W1, okw1 = _clean_images(m, inst.E.eval_batch(T1))
            W2, okw2 = _clean_images(m, inst.E.eval_batch(T2))
            EW1 = diffeo.inv(diffeo.fwd(W1))
            EW2 = diffeo.inv(diffeo.fwd(W2))
            h1 = inst.h.eval_batch(EW1)
            h2 = inst.h.eval_batch(EW2)
            p12 = inst.phi.eval_batch(h1, h2)
            ok = ok1 & ok2 & okw1 & okw2 & np.isfinite(h1) & np.isfinite(h2) & np.isfinite(p12)
            for j, t in enumerate(ts):
                gp = geodesic_batch(m, W1, W2, float(t))
                pushed = diffeo.inv(diffeo.fwd(gp))
                lhs = inst.h.eval_batch(pushed)
                rhs = h2 + t * p12
                viol = lhs - rhs
                lane_ok = ok & np.isfinite(viol)
                if not np.any(lane_ok):
                    continue
                thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
                masked = np.where(lane_ok, viol, -np.inf)
                k = int(np.argmax(masked))
                if masked[k] > max_viol:
                    max_viol = float(masked[k])
                    img1 = diffeo.fwd(U1[k : k + 1])[0]
                    img2 = diffeo.fwd(U2[k : k + 1])[0]
                    best = (
                        max_viol,
                        Witness(
                            points=(Point(tuple(img1)), Point(tuple(img2))),
                            t=float(t), lhs=float(lhs[k]), rhs=float(rhs[k]),
                            violation=float(viol[k]),
                        ),
                    )
                violated = violated or bool(np.any(masked > thr))
    notes = (
        "transported remap: H o E o Hinv; image curves: pushforward of source curves",
    )
    if violated and best[1] is not None:
        conclusion = Report(Verdict.VIOLATED, float(max_viol), best[1], n, cfg.seed,
                            notes=notes)
    else:
        mv = None if not math.isfinite(max_viol) else float(max_viol)
        conclusion = Report(Verdict.HOLDS_ON_SAMPLES, mv, None, n, cfg.seed, notes=notes)
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# continuity bound

def verify_continuity_bound(inst: Instance, K: float, eps: float,
                            cfg: CheckConfig) -> TheoremReport:
    """With phi bounded by K on the sampled value range and L = K/eps,
    require |h(E(mu1)) - h(E(mu2))| <= L * |E(mu1) - E(mu2)| + tol for
    pairs whose E-images lie in the box inset by eps."""
    tid = TheoremId.CONTINUITY_BOUND
    premises = []
    _, _, H = _sampled_image_values(inst, cfg, 512, _R_AUX1)
    if H.size < 2:
        premises.append(_bool_premise("value range sampleable", False, cfg.seed))
        return _assemble(tid, premises, None)
    A, B = np.meshgrid(H[:64], H[:64])
    pv = inst.phi.eval_batch(A.ravel(), B.ravel())
    sup_phi = float(np.max(pv))
    premises.append(_bool_premise(
        "phi bounded above by K on sampled value pairs",
        bool(np.all(np.isfinite(pv))) and sup_phi <= K + cfg.threshold(K),
        cfg.seed, f"sampled sup {sup_phi!r} vs K={K!r}",
    ))
    premises.append(_bool_premise("eps positive", eps > 0, cfg.seed))
    premises.append(_labeled(check_geodesic_phiE_convex_fn(inst, cfg), "convexity"))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    L = K / eps
    lo = inst.domain.lows() + eps
    hi = inst.domain.highs() - eps
    n = cfg.samples
    max_viol = -np.inf
    witness = None
    violated = False
    admissible = 0
    for i0, i1 in _chunk_ranges(n, 1):
        bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        U1, ok1 = sample_members(inst.domain, bases, region=0, on_fail="mask")
        U2, ok2 = sample_members(inst.domain, bases, region=1, on_fail="mask")
        W1, okw1 = _clean_images(inst.manifold, inst.E.eval_batch(U1))
        W2, okw2 = _clean_images(inst.manifold, inst.E.eval_batch(U2))
        inner = (
            np.all(W1 >= lo[None, :], axis=1) & np.all(W1 <= hi[None, :], axis=1)
            & np.all(W2 >= lo[None, :], axis=1) & np.all(W2 <= hi[None, :], axis=1)
        )
        h1 = inst.h.eval_batch(W1)
        h2 = inst.h.eval_batch(W2)
        ok = ok1 & ok2 & okw1 & okw2 & inner & np.isfinite(h1) & np.isfinite(h2)
        admissible += int(np.sum(ok))
        with np.errstate(all="ignore"):
            gap = row_norm(W1 - W2)
            lhs = np.abs(h1 - h2)
            rhs = L * gap
            viol = lhs - rhs
        thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
        masked = np.where(ok & np.isfinite(viol), viol, -np.inf)
        if np.any(np.isfinite(masked)):
            k = int(np.argmax(masked))
            if masked[k] > max_viol:
                max_viol = float(masked[k])
                witness = Witness(
                    points=(Point(tuple(U1[k])), Point(tuple(U2[k]))), t=None,
                    lhs=float(lhs[k]), rhs=float(rhs[k]), violation=float(viol[k]),
                )
            violated = violated or bool(np.any(masked > thr))
    if admissible == 0:
        premises.append(_bool_premise("pairs exist inside the inset region", False, cfg.seed))
        return _assemble(tid, premises, None)
    note = (f"Lipschitz constant L = K/eps = {L!r}; {admissible} admissible pairs",)
    if violated:
        conclusion = Report(Verdict.VIOLATED, max_viol, witness, n, cfg.seed, notes=note)
    else:
        mv = None if not math.isfinite(max_viol) else max_viol
        conclusion = Report(Verdict.HOLDS_ON_SAMPLES, mv, None, n, cfg.seed, notes=note)
    return _assemble(tid, premises, conclusion)


def verify_chart_continuity(inst: Instance, K: float, eps: float, cfg: CheckConfig,
                            chart: Diffeo | None = None) -> TheoremReport:
    """Continuity read through a chart: the transported function h o inv
    must satisfy the same Lipschitz-style bound in chart coordinates."""
    tid = TheoremId.CHART_CONTINUITY
    chart = chart or (
        stereographic_diffeo()
        if inst.manifold.kind is ManifoldKind.SPHERE and inst.manifold.dim == 2
        else identity_diffeo(inst.manifold)
    )
    premises = []
    n0 = max(2, min(cfg.samples, 2048))
    bases = rng.base_array(cfg.seed, np.arange(n0, dtype=np.uint64))
    U = sample_members(inst.domain, bases, region=_R_AUX1)
    premises.append(_roundtrip_premise(chart, U, cfg.seed))
    _, _, H = _sampled_image_values(inst, cfg, 512, _R_AUX1)
    if H.size < 2:
        premises.append(_bool_premise("value range sampleable", False, cfg.seed))
        return _assemble(tid, premises, None)
    A, B = np.meshgrid(H[:64], H[:64])
    pv = inst.phi.eval_batch(A.ravel(), B.ravel())
    sup_phi = float(np.max(pv))
    premises.append(_bool_premise(
        "phi bounded above by K on sampled value pairs",
        bool(np.all(np.isfinite(pv))) and sup_phi <= K + cfg.threshold(K),
        cfg.seed, f"sampled sup {sup_phi!r} vs K={K!r}",
    ))
    premises.append(_labeled(check_geodesic_phiE_convex_fn(inst, cfg), "convexity"))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    L = K / eps
    n = cfg.samples
    max_viol = -np.inf
    witness = None
    violated = False
    admissible = 0
    # chart image box from samples, inset by eps
    with np.errstate(all="ignore"):
        sampleY = chart.fwd(U)
    lo = np.min(sampleY, axis=0) + eps
    hi = np.max(sampleY, axis=0) - eps
    for i0, i1 in _chunk_ranges(n, 1):
        bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        U1, ok1 = sample_members(inst.domain, bases, region=0, on_fail="mask")
        U2, ok2 = sample_members(inst.domain, bases, region=1, on_fail="mask")
        W1, okw1 = _clean_images(inst.manifold, inst.E.eval_batch(U1))
        W2, okw2 = _clean_images(inst.manifold, inst.E.eval_batch(U2))
        with np.errstate(all="ignore"):
            Y1 = chart.fwd(W1)
            Y2 = chart.fwd(W2)
            h1 = inst.h.eval_batch(chart.inv(Y1))
            h2 = inst.h.eval_batch(chart.inv(Y2))
        inner = (
            np.all(Y1 >= lo[None, :], axis=1) & np.all(Y1 <= hi[None, :], axis=1)
            & np.all(Y2 >= lo[None, :], axis=1) & np.all(Y2 <= hi[None, :], axis=1)
        )
        ok = ok1 & ok2 & okw1 & okw2 & inner & np.isfinite(h1) & np.isfinite(h2)
        admissible += int(np.sum(ok))
        with np.errstate(all="ignore"):
            gap = row_norm(Y1 - Y2)
            lhs = np.abs(h1 - h2)
            rhs = L * gap
            viol = lhs - rhs
        thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
        masked = np.where(ok & np.isfinite(viol), viol, -np.inf)
        if np.any(np.isfinite(masked)):
            k = int(np.argmax(masked))
            if masked[k] > max_viol:
                max_viol = float(masked[k])
                witness = Witness(
                    points=(Point(tuple(Y1[k])), Point(tuple(Y2[k]))), t=None,
                    lhs=float(lhs[k]), rhs=float(rhs[k]), violation=float(viol[k]),
                )
            violated = violated or bool(np.any(masked > thr))
    if admissible == 0:
        premises.append(_bool_premise("pairs exist inside the chart inset", False, cfg.seed))
        return _assemble(tid, premises, None)
    note = (f"chart {chart.name}; L = K/eps = {L!r}; {admissible} admissible pairs",)
    if violated:
        conclusion = Report(Verdict.VIOLATED, max_viol, witness, n, cfg.seed, notes=note)
    else:
        mv = None if not math.isfinite(max_viol) else max_viol
        conclusion = Report(Verdict.HOLDS_ON_SAMPLES, mv, None, n, cfg.seed, notes=note)
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# local minimum necessary condition

def verify_local_min(inst: Instance, mu_star: Point, cfg: CheckConfig) -> TheoremReport:
    """At a sampled local minimum E(mu*), phi(h(E(mu)), h(E(mu*))) must be
    >= -tol for all sampled members mu.  The minimum premise is probed at
    the radius ladder {1e-2, 1e-3, 1e-4} of the domain scale."""
    tid = TheoremId.LOCAL_MIN
    premises = []
    m = inst.manifold
    w_star = None
    h_star = 0.0
    try:
        w = np.asarray(inst.E(mu_star.coords), dtype=np.float64)
        W, ok = _clean_images(m, w[None, :])
        if ok[0]:
            h_star = inst.h(tuple(W[0]))
            w_star = Point(tuple(W[0]))
    except EvalDomainError:
        w_star = None
    premises.append(_bool_premise("E(mu*) and h(E(mu*)) evaluable",
                                  w_star is not None, cfg.seed))
    if w_star is None:
        return _assemble(tid, premises, None)
    scale = inst.domain.scale()
    interior_ok = member_mask_batch(inst.domain, w_star.array()[None, :])[0]
    stream = rng.Stream(cfg.seed, _R_DIRS)
    amb = m.ambient_dim
    probes_ok = True
    min_ok = True
    detail = ""
    for radius in LOCAL_MIN_RADII:
        r = radius * scale
        for _ in range(LOCAL_MIN_DIRECTIONS):
            raw = np.array([stream.normal() for _ in range(amb)])
            if m.kind is ManifoldKind.SPHERE:
                raw = raw - np.dot(raw, w_star.array()) * w_star.array()
            nrm = float(np.linalg.norm(raw))
            if nrm < 1e-12:
                continue
            v = tuple(r * raw / nrm)
            try:
                q = exp_map(m, w_star, v)
                hq = inst.h(q.coords)
            except Exception:
                probes_ok = False
                detail = f"probe at radius {r!r} not evaluable"
                break
            if not member_mask_batch(inst.domain, q.array()[None, :])[0]:
                interior_ok = False
                detail = f"probe at radius {r!r} leaves the set"
                break
            if hq < h_star - cfg.threshold(h_star):
                min_ok = False
                detail = f"h={hq!r} below h(E(mu*))={h_star!r} at radius {r!r}"
                break
        if not (probes_ok and min_ok and interior_ok):
            break
    premises.append(_bool_premise("E(mu*) interior with evaluable probes",
                                  probes_ok and interior_ok, cfg.seed, detail))
    premises.append(_bool_premise("mu* is a sampled local minimum", min_ok, cfg.seed, detail))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    n = cfg.samples
    max_viol = -np.inf
    witness = None
    violated = False
    thr = cfg.threshold(0.0)
    for i0, i1 in _chunk_ranges(n, 1):
        bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        U, okU = sample_members(inst.domain, bases, region=0, on_fail="mask")
        W, okW = _clean_images(m, inst.E.eval_batch(U))
        hW = inst.h.eval_batch(W)
        pv = inst.phi.eval_batch(hW, np.full(hW.shape, h_star))
        viol = -pv
        ok = okU & okW & np.isfinite(viol)
        masked = np.where(ok, viol, -np.inf)
        if np.any(np.isfinite(masked)):
            k = int(np.argmax(masked))
            if masked[k] > max_viol:
                max_viol = float(masked[k])
                witness = Witness(
                    points=(Point(tuple(U[k])), w_star), t=None,
                    lhs=float(viol[k]), rhs=0.0, violation=float(viol[k]),
                )
            violated = violated or bool(masked[k] > thr)
    if violated:
        conclusion = Report(Verdict.VIOLATED, max_viol, witness, n, cfg.seed)
    else:
        mv = None if not math.isfinite(max_viol) else max_viol
        conclusion = Report(Verdict.HOLDS_ON_SAMPLES, mv, None, n, cfg.seed)
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# limits of gap-function sequences

def verify_phi_limit(inst_base: Instance, phis: Sequence[Bifunction], mode: str,
                     cfg: CheckConfig) -> TheoremReport:
    """Convexity under each member of a gap-function sequence (Pointwise)
    or under each partial sum (PartialSums), then under the declared limit
    carried by inst_base.phi.  Convergence on sampled value pairs is
    reported as evidence, not folded into the verdict."""
    tid = TheoremId.PHI_LIMIT if mode == "Pointwise" else TheoremId.PHI_SERIES_LIMIT
    phis = list(phis)
    premises = []
    if not phis:
        premises.append(_bool_premise("nonempty gap sequence", False, cfg.seed))
        return _assemble(tid, premises, None)
    if mode == "PartialSums":
        members = []
        for i in range(len(phis)):
            members.append(add_bifunctions(phis[: i + 1]))
    else:
        members = phis
    for i, phi_i in enumerate(members):
        premises.append(_labeled(
            check_geodesic_phiE_convex_fn(inst_base.with_phi(phi_i), cfg),
            f"convexity under member {i}",
        ))
    _, _, H = _sampled_image_values(inst_base, cfg, 256, _R_AUX1)
    devs = []
    if H.size >= 2:
        A, B = np.meshgrid(H[:32], H[:32])
        a, b = A.ravel(), B.ravel()
        target = inst_base.phi.eval_batch(a, b)
        for phi_i in members:
            with np.errstate(all="ignore"):
                d = np.abs(phi_i.eval_batch(a, b) - target)
            devs.append(float(np.max(d)))
    converged = bool(devs) and devs[-1] <= 0.5 * devs[0] + cfg.tol_abs
    notes = (
        f"deviation from the limit on sampled value pairs: first {devs[0]!r}, "
        f"max {max(devs)!r}, last {devs[-1]!r}"
        if devs else "no value pairs sampled for convergence evidence",
        f"convergence evidence flag: {converged}",
    )
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None, notes=notes)
    conclusion = check_geodesic_phiE_convex_fn(inst_base, cfg)
    conclusion = Report(
        conclusion.verdict, conclusion.max_violation, conclusion.witness,
        conclusion.samples_used, conclusion.seed,
        flags={**conclusion.flags, "phi_sequence_converged": converged},
        notes=conclusion.notes,
    )
    return _assemble(tid, premises, conclusion, notes=notes)


# ---------------------------------------------------------------------------
# strict differential separation

def verify_strict_differential(inst: Instance, cfg: CheckConfig,
                               tol_strict: float = STRICT_DERIVATIVE_TOL) -> TheoremReport:
    """Under strict convexity and an antisymmetric gap function, the
    directional derivatives of h at the two curve endpoints (along the
    curve's velocity) must differ by more than tol_strict."""
    tid = TheoremId.STRICT_DIFFERENTIAL
    premises = []
    premises.append(_labeled(check_geodesic_phiE_convex_fn(inst, cfg, strict=True),
                             "strict convexity"))
    premises.append(_labeled(
        check_antisymmetric(inst.phi, min(cfg.samples, 20_000), cfg.seed, cfg),
        "phi antisymmetric",
    ))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    m = inst.manifold
    n = cfg.samples
    max_viol = -np.inf
    witness = None
    violated = False
    thr = cfg.threshold(tol_strict)
    # same separation floor as the strict convexity scan: derivative gaps of
    # smooth functions shrink with the image gap and would otherwise dip
    # under tol_strict for arbitrarily close sampled pairs
    sep_floor = 0.01 * inst.domain.scale()
    for i0, i1 in _chunk_ranges(n, 1):
        bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        U1, ok1 = sample_members(inst.domain, bases, region=0, on_fail="mask")
        U2, ok2 = sample_members(inst.domain, bases, region=1, on_fail="mask")
        W1, okw1 = _clean_images(m, inst.E.eval_batch(U1))
        W2, okw2 = _clean_images(m, inst.E.eval_batch(U2))
        with np.errstate(all="ignore"):
            sep = distance_batch(m, W1, W2)
            v_at_start = log_batch(m, W2, W1)   # velocity at t=0 (base W2)
            v_at_end = -log_batch(m, W1, W2)    # velocity at t=1 (base W1)
            d_end = directional_derivative_batch(inst.h, W1, v_at_end)
            d_start = directional_derivative_batch(inst.h, W2, v_at_start)
            diff = np.abs(d_end - d_start)
        ok = ok1 & ok2 & okw1 & okw2 & (sep > sep_floor) & np.isfinite(diff)
        viol = tol_strict - diff
        masked = np.where(ok, viol, -np.inf)
        if np.any(np.isfinite(masked)):
            k = int(np.argmax(masked))
            if masked[k] > max_viol:
                max_viol = float(masked[k])
                witness = Witness(
                    points=(Point(tuple(U1[k])), Point(tuple(U2[k]))), t=None,
                    lhs=float(tol_strict), rhs=float(diff[k]),
                    violation=float(viol[k]),
                )
            violated = violated or bool(masked[k] > thr)
    note = (f"endpoint directional derivatives must differ by more than {tol_strict!r}",)
    if violated:
        conclusion = Report(Verdict.VIOLATED, max_viol, witness, n, cfg.seed, notes=note)
    else:
        mv = None if not math.isfinite(max_viol) else max_viol
        conclusion = Report(Verdict.HOLDS_ON_SAMPLES, mv, None, n, cfg.seed, notes=note)
    return _assemble(tid, premises, conclusion)


# ---------------------------------------------------------------------------
# epigraphs

def _phi_combination_monotone_premise(phi: Bifunction, H: np.ndarray,
                                      cfg: CheckConfig) -> Report:
    """Sampled probe of the "non-decreasing" hypothesis, read as monotonicity
    of the used combination v2 + t*phi(v1, v2): the first partial of phi
    must be >= 0 and the second >= -1 (the difference gap a - b sits exactly
    on that boundary and is admitted)."""
    span = float(np.max(H) - np.min(H))
    delta = max(1e-4, 1e-4 * span)
    A, B = np.meshgrid(H[:32], H[:32])
    a, b = A.ravel(), B.ravel()
    with np.errstate(all="ignore"):
        base_v = phi.eval_batch(a, b)
        da = phi.eval_batch(a + delta, b) - base_v
        db = phi.eval_batch(a, b + delta) - base_v
    tol = cfg.threshold(float(np.max(np.abs(base_v))))
    ok = bool(
        np.all(np.isfinite(da)) and np.all(np.isfinite(db))
        and np.all(da >= -tol) and np.all(db >= -delta - tol)
    )
    rep = _bool_premise(
        "phi non-decreasing (combination-monotone probe)", ok, cfg.seed,
        f"min forward differences {float(np.min(da))!r}, {float(np.min(db))!r} "
        f"at step {delta!r}",
    )
    return Report(
        rep.verdict, rep.max_violation, rep.witness, rep.samples_used, rep.seed,
        notes=rep.notes + (
            "interpretation: non-decreasing read as d(phi)/da >= 0 and "
            "d(phi)/db >= -1, i.e. v2 + t*phi(v1,v2) monotone",
        ),
    )


def epigraph_product_set(inst: Instance, cfg: CheckConfig, pad: float = 0.0) -> ProductSet:
    """Epigraph of h over the E-image as a ProductSet.

    For the identity remap the image is the domain itself and for a
    constant remap a single point, so those base boxes are exact; any other
    remap falls back to the sampled image bounding box, an approximation
    recorded by the caller.
    """
    _, W, H = _sampled_image_values(inst, cfg, 1024, _R_AUX2)
    if W.shape[0] == 0:
        raise EvalDomainError("no evaluable E-image samples for the epigraph")
    amb = inst.manifold.ambient_dim
    if inst.E.exprs == EndoMap.identity(amb).exprs:
        box = inst.domain.box
    elif all(isinstance(e.root, Const) for e in inst.E.exprs):
        c = [e.root.value for e in inst.E.exprs]
        box = tuple((ci, ci) for ci in c)
    else:
        lo = np.min(W, axis=0) - pad
        hi = np.max(W, axis=0) + pad
        box = tuple(zip(lo, hi))
    base = DomainSet(inst.manifold, box, inst.domain.membership)
    names = point_vars(amb) + ("v",)
    graph = Expr(Binary("-", Var("v"), inst.h.expr.root), names)
    hmin, hmax = float(np.min(H)), float(np.max(H))
    span = max(1.0, hmax - hmin)
    return ProductSet(base, graph, (hmin, hmax + span))


def verify_epigraph_equiv(inst: Instance, cfg: CheckConfig) -> TheoremReport:
    """The function check and the epigraph set check must agree in both
    directions (both hold, or both violated with witnesses)."""
    tid = TheoremId.EPIGRAPH_EQUIV
    premises = []
    _, _, H = _sampled_image_values(inst, cfg, 256, _R_AUX1)
    if H.size < 2:
        premises.append(_bool_premise("value range sampleable", False, cfg.seed))
        return _assemble(tid, premises, None)
    premises.append(_phi_combination_monotone_premise(inst.phi, H, cfg))
    premises.append(_labeled(
        check_geodesic_E_convex_set(inst.manifold, inst.E, inst.domain, cfg),
        "domain geodesic E-convex",
    ))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)

    fn_report = check_geodesic_phiE_convex_fn(inst, cfg)
    epi = epigraph_product_set(inst, cfg)
    set_report = check_geodesic_phiE_convex_set(
        inst.manifold, inst.E, inst.phi, epi, cfg
    )
    notes = (
        f"function check: {fn_report.verdict.value}",
        f"epigraph set check: {set_report.verdict.value}",
    )
    agree = (
        fn_report.verdict == set_report.verdict
        and fn_report.verdict in (Verdict.HOLDS_ON_SAMPLES, Verdict.VIOLATED)
    )
    if agree:
        conclusion = Report(
            Verdict.HOLDS_ON_SAMPLES,
            max(fn_report.max_violation or 0.0, set_report.max_violation or 0.0),
            None, fn_report.samples_used, cfg.seed, notes=notes,
        )
    else:
        offender = fn_report if fn_report.witness is not None else set_report
        if offender.witness is None:
            conclusion = Report(
                Verdict.DOMAIN_ERROR, None, None, fn_report.samples_used, cfg.seed,
                notes=notes + ("one side failed without a witness",),
            )
        else:
            conclusion = Report(
                Verdict.VIOLATED, offender.max_violation, offender.witness,
                offender.samples_used, cfg.seed,
                notes=notes + ("checks disagree",),
            )
    return _assemble(tid, premises, conclusion)


def verify_intersection(m: Manifold, E: EndoMap, phi: Bifunction,
                        sets: Sequence[ProductSet], cfg: CheckConfig) -> TheoremReport:
    """Each set passing the product check implies their intersection passes."""
    tid = TheoremId.INTERSECTION_52
    sets = list(sets)
    premises = []
    for k, s in enumerate(sets):
        premises.append(_labeled(
            check_geodesic_phiE_convex_set(m, E, phi, s, cfg), f"set {k}"
        ))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)
    conclusion = check_geodesic_phiE_convex_set(m, E, phi, intersect_product_sets(sets), cfg)
    return _assemble(tid, premises, conclusion)


def intersect_product_sets(sets: Sequence[ProductSet]) -> ProductSet:
    sets = list(sets)
    base0 = sets[0].base
    lo = np.max([s.base.lows() for s in sets], axis=0)
    hi = np.min([s.base.highs() for s in sets], axis=0)
    hi = np.maximum(hi, lo)  # empty intersections collapse to a degenerate box
    membership = None
    preds = [s.base.membership for s in sets if s.base.membership is not None]
    if preds:
        root = preds[0].root
        for p in preds[1:]:
            root = Call("min", (root, p.root))
        membership = Expr(root, preds[0].variables)
    base = DomainSet(base0.manifold, tuple(zip(lo, hi)), membership)
    groot = sets[0].graph_bound.root
    for s in sets[1:]:
        groot = Call("min", (groot, s.graph_bound.root))
    graph = Expr(groot, sets[0].graph_bound.variables)
    vlo = max(s.v_range[0] for s in sets)
    vhi = min(s.v_range[1] for s in sets)
    if vhi <= vlo:
        vhi = vlo + 1e-9
    return ProductSet(base, graph, (vlo, vhi))


def verify_sup_epigraph(insts: Sequence[Instance], cfg: CheckConfig) -> TheoremReport:
    """Non-decreasing phi plus per-member epigraph set checks imply the
    pointwise supremum of the family is convex in the function sense."""
    tid = TheoremId.SUP_EPIGRAPH_COR
    insts = list(insts)
    first = insts[0]
    premises = []
    shared = all(
        i.manifold == first.manifold and i.E == first.E
        and i.phi == first.phi and i.domain == first.domain
        for i in insts
    )
    premises.append(_bool_premise("family shares manifold, E, phi, domain", shared, cfg.seed))
    if not shared:
        return _assemble(tid, premises, None)
    _, _, H = _sampled_image_values(first, cfg, 256, _R_AUX1)
    if H.size < 2:
        premises.append(_bool_premise("value range sampleable", False, cfg.seed))
        return _assemble(tid, premises, None)
    premises.append(_phi_combination_monotone_premise(first.phi, H, cfg))
    bounded = True
    for k, sub in enumerate(insts):
        _, _, Hk = _sampled_image_values(sub, cfg, 128, _R_AUX2)
        bounded = bounded and Hk.size > 0 and bool(np.all(np.isfinite(Hk)))
    premises.append(_bool_premise("family bounded above on samples", bounded, cfg.seed))
    for k, sub in enumerate(insts):
        epi = epigraph_product_set(sub, cfg)
        premises.append(_labeled(
            check_geodesic_phiE_convex_set(sub.manifold, sub.E, sub.phi, epi, cfg),
            f"epigraph of member {k}",
        ))
    if any(not p.holds for p in premises):
        return _assemble(tid, premises, None)
    combined = max_fns([i.h for i in insts])
    conclusion = check_geodesic_phiE_convex_fn(first.with_h(combined, "sup family"), cfg)
    return _assemble(tid, premises, conclusion)
