"""Statement-level verifiers: premises checked first, then the conclusion,
reporting PremiseFailed / HoldsOnSamples / Violated per statement.

`STATEMENTS` maps every statement id to its verifier; the closure ids
share `verify_closure` and the two limit ids `verify_phi_limit`, which take
the id first.  Each verifier records its premises, in order, on one collector
(`_Premises`), running them through the checker predicates.  A
premise that the rest of the verifier depends on ends it at once with
PremiseFailed and no conclusion; the conclusion is evaluated only when
every premise holds on samples, so a conclusion violation on
premise-passing inputs points either at an implementation bug or at a
genuinely broken statement (the divided three-point form is logged for
exactly that reason).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import wraps
from typing import Sequence

import numpy as np

from . import rng
from .algebra import (
    REGION_AUX1,
    REGION_AUX2,
    STREAM_DIRS,
    DomainSet,
    Instance,
    ProductSet,
    member_mask_batch,
    sample_members,
)
from .checker import (
    _E_BAD,
    _OK,
    _PAIR_NOTES,
    _VAL_BAD,
    STRICT_SEP_FRACTION,
    _ConvexityScan,
    _InstanceScan,
    _Scan,
    _clean_images,
    _finish_scan,
    _margin_witness,
    _finite,
    _fn_checks,
    _halves,
    _line_refine,
    _pair_images,
    check_additive,
    check_antisymmetric,
    check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set,
    check_nonneg_homogeneous,
    check_phiE_convex_interval,
    check_seq_upper_bounded,
)
from .errors import EvalDomainError, GeoconvexError
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
    compose_endomaps,
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
    exp_batch,
    geodesic_batch,  # unused here; bench/test_bench.py reads theorems.geodesic_batch
    log_batch,
    row_norm,
    valid_mask,
)
from .reports import CheckConfig, Report, Verdict, Witness

STRICT_DERIVATIVE_TOL = 1e-6
ROUNDTRIP_TOL = 1e-8
LOCAL_MIN_RADII = (1e-2, 1e-3, 1e-4)
LOCAL_MIN_DIRECTIONS = 16


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


class _Stop(Exception):
    """Ends a verifier early; its argument is the verifier's report."""


def _verifier(fn):
    """`fn`, returning the report that a premise collector ended it with."""

    @wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _Stop as stop:
            return stop.args[0]

    return run


class _Premises(list):
    """A verifier's premise reports, in order, and its TheoremReport.

    A failed premise that the rest of the verifier needs, or a `gate` after
    any failed premise, ends the verifier (which must be a `_verifier`)
    with PremiseFailed and no conclusion.  `notes` go on the report.
    """

    def __init__(self, tid: TheoremId, cfg: CheckConfig):
        super().__init__()
        self.tid = tid
        self.seed = cfg.seed
        self.notes: tuple[str, ...] = ()

    def check(self, name: str, report: Report) -> None:
        """A check's report as premise `name`."""
        self.append(replace(report, notes=(f"premise: {name}",) + report.notes, refined=()))

    def flag(self, name: str, ok: bool, *details: str, need: bool = False) -> None:
        """A yes/no premise noting its non-empty details; `need` ends the
        verifier when it fails."""
        verdict = Verdict.HOLDS_ON_SAMPLES if ok else Verdict.PREMISE_FAILED
        notes = (f"premise: {name}",) + tuple(d for d in details if d)
        self.append(Report(verdict, None, None, 0, self.seed, notes=notes))
        if need and not ok:
            raise _Stop(self.report())

    def require(self, name: str, ok: bool) -> None:
        """A needed premise that is recorded only when it fails."""
        if not ok:
            self.flag(name, False, need=True)

    @contextmanager
    def evaluable(self, name: str):
        """The needed premise `name`: the block raises no EvalDomainError."""
        try:
            yield
        except EvalDomainError as exc:
            self.flag(name, False, str(exc), need=True)
        self.flag(name, True)

    def gate(self) -> None:
        """End the verifier when any recorded premise failed."""
        if any(not p.holds for p in self):
            raise _Stop(self.report())

    def report(self, conclusion: Report | None = None) -> TheoremReport:
        """The verifier's report: PremiseFailed without a conclusion, else
        the conclusion's verdict."""
        verdict = Verdict.PREMISE_FAILED if conclusion is None else conclusion.verdict
        return TheoremReport(self.tid, tuple(self), conclusion, verdict, self.notes)


def _family_premise(ps: _Premises, insts: Sequence[Instance]) -> None:
    first = insts[0]
    shared = all(
        i.manifold == first.manifold and i.E == first.E
        and i.phi == first.phi and i.domain == first.domain
        for i in insts
    )
    ps.flag("family shares manifold, E, phi, domain", shared, need=True)


def _aux_members(inst: Instance, cfg: CheckConfig, n: int = 2048,
                 region: int = REGION_AUX1) -> np.ndarray:
    """The domain members found by n seeded draws (at most cfg.samples, at
    least 2) for premises; none when the domain has no member."""
    bases = rng.base_array(cfg.seed, np.arange(max(2, min(n, cfg.samples)), dtype=np.uint64))
    U, found = sample_members(inst.domain, bases, region)
    return U[found]


def _sampled_image_values(inst: Instance, cfg: CheckConfig, n: int, region: int):
    """(points, E-images, h values) for n seeded domain members."""
    U = _aux_members(inst, cfg, n, region)
    W, ok = _clean_images(inst.manifold, inst.E.eval_batch(U))
    H = inst.h.eval_batch(W)
    keep = ok & np.isfinite(H)
    return U[keep], W[keep], H[keep]


# ---------------------------------------------------------------------------
# mean value (1-D)

@_verifier
def verify_mean_value(inst: Instance, u1: float, u2: float, cfg: CheckConfig,
                      grid: int = 64) -> TheoremReport:
    """Between E(u1) and E(u2) there must be alpha, beta with

        h'(alpha) >= R * h'(beta) >= h'(beta),
        R = phi(h(E(u1)), h(E(u2))) / (h(E(u1)) - h(E(u2))).

    Searched on a `grid` of derivatives at cell midpoints; a miss is refined
    by the checkers' batched line search, one step over alpha and one over
    beta, about 5.3e3 evaluations of h at the default grid.  As for a scan,
    a miss is Violated only when the scalar `differentiate_numeric` confirms it.
    """
    ps = _Premises(TheoremId.MEAN_VALUE_31, cfg)
    with ps.evaluable("h, E evaluable at u1, u2"):
        e1 = inst.E((float(u1),))[0]
        e2 = inst.E((float(u2),))[0]
        h1 = inst.h((e1,))
        h2 = inst.h((e2,))
    lo, hi = sorted((e1, e2))
    sep = cfg.threshold(h2)
    ps.flag("h(E(u1)) differs from h(E(u2))", abs(h1 - h2) > sep, f"|{h1!r} - {h2!r}| vs {sep!r}")
    ps.require("E(u1) != E(u2)", lo != hi)

    def dh(x):  # h' at the points x, NaN where h does not evaluate
        with np.errstate(all="ignore"):
            return directional_derivative_batch(inst.h, x[:, None], np.ones((x.size, 1)))

    xs = lo + (np.arange(grid) + 0.5) / grid * (hi - lo)
    ds = dh(xs)
    bad = np.flatnonzero(~np.isfinite(ds))
    ps.flag("h numerically differentiable", bad.size == 0,
            f"derivative non-finite at {float(xs[bad[0]])!r}" if bad.size else "", need=True)
    ps.check("combination inequality", check_phiE_convex_interval(inst, cfg))
    ps.gate()

    R = inst.phi(h1, h2) / (h1 - h2)
    tol = cfg.threshold(0.0)

    def deficiency(da, db):
        # never increases with h'(alpha), so the best alpha does not depend
        # on beta and one step per coordinate reaches the coordinate optimum
        return np.maximum(R * db - da, db - R * db)

    gaps = deficiency(ds[:, None], ds[None, :])
    ai, bi = divmod(int(np.argmin(gaps)), grid)
    best = float(gaps[ai, bi])
    alpha, beta = float(xs[ai]), float(xs[bi])
    if best > tol:
        def objective(Z):
            with np.errstate(all="ignore"):
                v = -deficiency(*dh(Z.ravel()).reshape(Z.shape).T)
            return np.where(np.isfinite(v), v, -np.inf)

        z, v = _line_refine(objective, [alpha, beta], [(lo, hi), (lo, hi)],
                            min(cfg.refine_steps, 2))
        if math.isfinite(v) and -v < best:
            best = -v
            alpha, beta = float(z[0]), float(z[1])
    if best <= tol:
        return ps.report(Report(
            Verdict.HOLDS_ON_SAMPLES, best, None, grid, cfg.seed,
            notes=(f"witness pair alpha={alpha!r}, beta={beta!r}, R={R!r}",),
        ))
    try:
        gap = float(deficiency(*(differentiate_numeric(inst.h, (x,), (1.0,))
                                 for x in (alpha, beta))))
    except EvalDomainError:
        gap = math.nan
    if not (math.isfinite(gap) and gap > tol):
        return ps.report(Report(Verdict.HOLDS_ON_SAMPLES, best, None, grid, cfg.seed, notes=(
            "unconfirmed raw violation did not survive re-evaluation",)))
    witness = _margin_witness((Point((alpha,)), Point((beta,))), None, gap)
    return ps.report(Report(Verdict.VIOLATED, gap, witness, grid, cfg.seed,
                            notes=(f"no grid/refined pair met the chain, R={R!r}",)))


# ---------------------------------------------------------------------------
# three points (1-D)

@_verifier
def verify_three_point(inst: Instance, mu1: float, mu2: float, mu3: float,
                       cfg: CheckConfig) -> TheoremReport:
    """Undivided form: with E(mu1) < E(mu2) < E(mu3),

        (E(mu1) - E(mu3)) * (h'(E(mu2)) + h'(E(mu3)))
            <= phi(h1, h2) + phi(h2, h3).

    The printed divided variant flips sign with the negative denominator,
    so it is evaluated and logged only.
    """
    ps = _Premises(TheoremId.THREE_POINT_32, cfg)
    with ps.evaluable("h, E evaluable at the three points"):
        es = [inst.E((float(m),))[0] for m in (mu1, mu2, mu3)]
        hs = [inst.h((e,)) for e in es]
    e1, e2, e3 = es
    h1, h2, h3 = hs
    ps.flag("ordering E(mu1) < E(mu2) < E(mu3)", e1 < e2 < e3,
            f"images {e1!r}, {e2!r}, {e3!r}", need=True)
    # the proof only uses the inequality along the two fixed pairs; they are
    # scanned one lane per row, as refinement does, not a call per t-column
    ts = np.linspace(0.0, 1.0, 129)
    rows = np.repeat(np.array([[mu1, mu2], [mu2, mu3]], dtype=np.float64), ts.size, axis=0)
    viol, thr, err = _ConvexityScan(inst, cfg).lanes(rows, np.tile(ts, 2)[:, None])
    ok = ((err == _OK) & np.isfinite(viol) & (viol <= thr)).reshape(2, -1)
    for k, name in enumerate(("pair (mu1, mu2)", "pair (mu2, mu3)")):
        ps.flag(f"combination inequality along {name}", bool(ok[k].all()),
                f"max gap {float(np.max(viol.reshape(2, -1)[k]))!r}")
    with ps.evaluable("h numerically differentiable"):
        d2 = differentiate_numeric(inst.h, (e2,), (1.0,))
        d3 = differentiate_numeric(inst.h, (e3,), (1.0,))
    ps.gate()

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
    return ps.report(conclusion)


# ---------------------------------------------------------------------------
# closure under scaling, sums, weighted sums, suprema

@_verifier
def verify_closure(tid: TheoremId, insts: Sequence[Instance],
                   weights: Sequence[float] | None, cfg: CheckConfig) -> TheoremReport:
    ps = _Premises(tid, cfg)
    insts = list(insts)
    first = insts[0]
    _family_premise(ps, insts)
    # the family and its combination share manifold, E and domain, hence
    # one set premise and one sampled pass
    combined = _built(lambda: first.with_h(_closure_combination(tid, insts, weights),
                                           f"{tid.value} combination"))
    _, checks = _fn_checks(insts + _if_built(combined), cfg)
    for k in range(len(insts)):
        ps.check(f"member {k} convexity", checks[k]())
    if tid is not TheoremId.SUP_FAMILY:
        ps.check("phi nonnegatively homogeneous", check_nonneg_homogeneous(first.phi, cfg))
        ps.check("phi additive", check_additive(first.phi, cfg))
        if tid in (TheoremId.SCALING_41A, TheoremId.WEIGHTED_SUM):
            w = list(weights or [])
            # a WeightedSum takes one weight per member
            counted = tid is TheoremId.SCALING_41A or len(w) == len(insts)
            ps.flag("weights nonnegative", counted and len(w) > 0 and all(x >= 0 for x in w),
                    f"weights {w!r}", "" if counted else f"{len(w)} weights for {len(insts)} members")
    else:
        # sequences are the h-value streams of the family at sampled points,
        # kept where every member is finite
        n_pairs = 32
        bases = rng.base_array(cfg.seed, np.arange(n_pairs, dtype=np.uint64))
        Ua, founda = sample_members(first.domain, bases, REGION_AUX1)
        Ub, foundb = sample_members(first.domain, bases, REGION_AUX2)
        Wa, oka = _clean_images(first.manifold, first.E.eval_batch(Ua))
        Wb, okb = _clean_images(first.manifold, first.E.eval_batch(Ub))
        Ha, Hb = (np.array([sub.h.eval_batch(W) for sub in insts]) for W in (Wa, Wb))
        keep = founda & oka & foundb & okb & np.all(np.isfinite(Ha) & np.isfinite(Hb), axis=0)
        sequences = [(Ha[:, p], Hb[:, p]) for p in np.flatnonzero(keep)]
        ps.require("value streams sampleable", bool(sequences))
        ident = EndoMap.identity(1)
        ps.check("phi sequentially upper bounded on harvested value streams",
                 check_seq_upper_bounded(first.phi, ident, sequences, cfg))
    ps.gate()
    return ps.report(_built_check(combined, checks[-1]))


def _closure_combination(tid: TheoremId, insts: Sequence[Instance], weights) -> ScalarFn:
    if tid is TheoremId.SCALING_41A:
        return scale_fn(weights[0], insts[0].h)
    if tid is TheoremId.SUM_41B:
        combined = insts[0].h
        for sub in insts[1:]:
            combined = add_fns(combined, sub.h)
        return combined
    if tid is TheoremId.WEIGHTED_SUM:
        return weighted_sum_fns([i.h for i in insts], list(weights))
    return max_fns([i.h for i in insts])


def _built(build):
    """`build()`, or the exception it raised.  A conclusion is built before
    its premises are checked so that its scan can share their sampled pass;
    one that cannot be built joins no pass, and its error is raised only
    where the verifier reaches the conclusion (`_built_check`)."""
    try:
        return build()
    except (GeoconvexError, LookupError, TypeError, ValueError) as exc:
        return exc


def _if_built(inst) -> list:
    return [] if isinstance(inst, Exception) else [inst]


def _built_check(built, check) -> Report:
    """`check()`, the report on a conclusion built by `_built`, when it was
    built."""
    if isinstance(built, Exception):
        raise built
    return check()


# ---------------------------------------------------------------------------
# composition

@_verifier
def verify_composition(inst: Instance, h2: ScalarFn, cfg: CheckConfig) -> TheoremReport:
    ps = _Premises(TheoremId.COMPOSITION, cfg)
    composed = _built(lambda: inst.with_h(compose_scalar(h2, inst.h), "composition"))
    diff_inst = inst.with_phi(Bifunction.difference())
    _, checks = _fn_checks([diff_inst] + _if_built(composed), cfg)
    ps.check("inner function geodesic E-convex (difference gap)", checks[0]())
    _, _, H = _sampled_image_values(inst, cfg, 512, REGION_AUX1)
    ps.require("inner range sampleable", H.size >= 2)
    rmin, rmax = float(np.min(H)), float(np.max(H))
    if rmax - rmin < 1e-9:
        rmin, rmax = rmin - 0.5, rmax + 0.5
    grid = np.linspace(rmin, rmax, 65)
    with ps.evaluable("outer function evaluable on the range"):
        vals = np.array([h2((float(x),)) for x in grid])
    mono = bool(np.all(np.diff(vals) >= -cfg.threshold(float(np.max(np.abs(vals)))))
                and np.all(np.isfinite(vals)))
    ps.flag("outer function non-decreasing on the sampled range", mono,
            f"range [{rmin!r}, {rmax!r}]")
    outer_dom = DomainSet(Manifold(ManifoldKind.EUCLIDEAN, 1), ((rmin, rmax),))
    outer_inst = Instance(outer_dom.manifold, h2, EndoMap.identity(1), inst.phi, outer_dom)
    ps.check("outer function combination-convex on the sampled range",
             check_phiE_convex_interval(outer_inst, cfg))
    ps.gate()
    return ps.report(_built_check(composed, checks[-1]))


# ---------------------------------------------------------------------------
# conclusion scans: each statement below states its conclusion once, as
# `lanes` over sampled rows plus the scalar `witness`, and runs it through
# the checker's scan engine (workers, refinement, early domain errors and
# scalar re-validation of witnesses)

def _pair_witness(u1, u2, lhs: float, rhs: float) -> Witness:
    return Witness(points=(Point(tuple(u1)), Point(tuple(u2))), t=None,
                   lhs=float(lhs), rhs=float(rhs), violation=float(lhs - rhs))


# ---------------------------------------------------------------------------
# diffeomorphic transport

@dataclass(frozen=True)
class Diffeo:
    """Invertible chart-to-chart map: forward and inverse remaps."""

    name: str
    src: Manifold
    dst: Manifold
    fwd: EndoMap
    inv: EndoMap

    def transport(self, inst: Instance) -> Instance:
        """inst read through the chart round trip R = inv o fwd: h o R with
        remap E o R."""
        R = compose_endomaps(self.inv, self.fwd)
        return Instance(inst.manifold, compose_scalar(inst.h, R), compose_endomaps(inst.E, R),
                        inst.phi, inst.domain, inst.label)


def diffeo_from_endomaps(m: Manifold, H: EndoMap, Hinv: EndoMap, name: str = "") -> Diffeo:
    return Diffeo(name or f"({H.label})/({Hinv.label})", m, m, H, Hinv)


def identity_diffeo(m: Manifold) -> Diffeo:
    ident = EndoMap.identity(m.ambient_dim)
    return Diffeo("identity", m, m, ident, ident)


def stereographic_diffeo() -> Diffeo:
    """Unit 2-sphere minus the south pole onto the plane, and back."""
    r2 = "(x1*x1 + x2*x2)"
    return Diffeo(
        "stereographic",
        Manifold(ManifoldKind.SPHERE, 2),
        Manifold(ManifoldKind.EUCLIDEAN, 2),
        EndoMap.from_source(["x1/(1 + x3)", "x2/(1 + x3)"], 3),
        EndoMap.from_source(
            [f"2*x1/(1 + {r2})", f"2*x2/(1 + {r2})", f"(1 - {r2})/(1 + {r2})"], 2
        ),
    )


BUILTIN_DIFFEOS = {
    "affine": "a*x + b per coordinate on Euclidean(n); supply H and Hinv expressions",
    "stereographic": "Sphere(2) minus the south pole onto Euclidean(2)",
}


def _roundtrip_premise(ps: _Premises, diffeo: Diffeo, X: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        Y = diffeo.fwd.eval_batch(X)
        back = diffeo.inv.eval_batch(Y)
        again = diffeo.fwd.eval_batch(back)
    err = max(float(np.max(row_norm(D), initial=0.0)) for D in (back - X, again - Y))
    ok = math.isfinite(err) and err <= ROUNDTRIP_TOL
    ps.flag("H and Hinv invert each other on samples", ok,
            f"max roundtrip error {err!r} (tolerance {ROUNDTRIP_TOL!r})")


@_verifier
def verify_diffeo_invariance(inst: Instance, diffeo: Diffeo, cfg: CheckConfig) -> TheoremReport:
    """Transport h to h o Hinv on H(B) with remap E' = H o E o Hinv and test
    the convexity inequality along pushed-forward curves H(curve(t)).

    Read back in source coordinates this is the convexity scan of h o R
    with remap E o R, R = Hinv o H the chart round trip.  The transported
    remap choice and the pushforward curves are the substitution pattern
    the transport argument itself uses; both are recorded on the report as
    interpretations.
    """
    ps = _Premises(TheoremId.DIFFEO_INVARIANCE, cfg)
    U = _aux_members(inst, cfg)
    ps.require("domain sampleable", U.size > 0)
    _roundtrip_premise(ps, diffeo, U)
    ps.check("source convexity", check_geodesic_phiE_convex_fn(inst, cfg))
    ps.gate()
    return ps.report(_finish_scan(_ConvexityScan(diffeo.transport(inst), cfg), cfg, notes=(
        "transported remap: H o E o Hinv; image curves: pushforward of source curves",
    )))


# ---------------------------------------------------------------------------
# continuity bounds

@dataclass
class _LipschitzScan(_InstanceScan, _Scan):
    """|h(E(mu1)) - h(E(mu2))| <= L * |Y1 - Y2| for pairs whose chart images
    Y = chart(E(mu)) lie in the box [lo, hi], with h read through the chart."""

    inst: Instance
    cfg: CheckConfig
    chart: Diffeo
    L: float
    lo: np.ndarray
    hi: np.ndarray

    has_t = False
    notes = {**_PAIR_NOTES, _VAL_BAD: "h non-finite through the chart at an E-image (pair {i})"}

    def _terms(self, Y1, Y2, h1, h2):
        """lhs, rhs and box admissibility of pairs with chart images Y1, Y2
        and h values h1, h2."""
        with np.errstate(all="ignore"):
            lhs = np.abs(h1 - h2)
            rhs = self.L * row_norm(Y1 - Y2)
        lo, hi = self.lo, self.hi
        inside = np.all((Y1 >= lo) & (Y1 <= hi) & (Y2 >= lo) & (Y2 <= hi), axis=1)
        return lhs, rhs, inside

    def lanes(self, rows, T):
        W, code = _pair_images(self.manifold, self.E, *self.endpoints(rows))
        Y = self.chart.fwd.eval_batch(W)
        H = self.inst.h.eval_batch(self.chart.inv.eval_batch(Y))
        lhs, rhs, inside = self._terms(*_halves(Y), *_halves(H))
        code[(code == _OK) & ~_finite(lhs, rhs)] = _VAL_BAD
        viol = np.where(inside, lhs - rhs, -np.inf)
        thr = self.cfg.tol_abs + self.cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
        return viol[:, None], thr[:, None], code[:, None]

    def witness(self, z) -> Witness | None:
        u1, u2, _, images = self._witness_images(z)
        if images is None:
            return None
        try:
            Y = np.array([self.chart.fwd(tuple(w)) for w in images])
            H = np.array([self.inst.h(self.chart.inv(tuple(y))) for y in Y])
        except EvalDomainError:
            return None
        lhs, rhs, inside = self._terms(Y[:1], Y[1:], H[:1], H[1:])
        return _pair_witness(u1, u2, lhs[0], rhs[0]) if inside[0] else None

    def finish(self, report, extras):
        # holding with no pair inside the box shows nothing: PremiseFailed
        admissible = sum(e["counted"] for e in extras)
        if report.holds and admissible == 0:
            return replace(report, verdict=Verdict.PREMISE_FAILED)
        note = f"chart {self.chart.name}; L = K/eps = {self.L!r}; {admissible} admissible pairs"
        return replace(report, notes=report.notes + (note,))


def _verify_lipschitz(ps: _Premises, inst: Instance, K: float, eps: float, cfg: CheckConfig,
                      chart: Diffeo, lo, hi) -> TheoremReport:
    """With phi bounded by K on the sampled value range and L = K/eps,
    require |h(E(mu1)) - h(E(mu2))| <= L * |Y1 - Y2| + tol for pairs whose
    chart images Y lie in the box [lo, hi]."""
    _, _, H = _sampled_image_values(inst, cfg, 512, REGION_AUX1)
    ps.require("value range sampleable", H.size >= 2)
    A, B = np.meshgrid(H[:64], H[:64])
    pv = inst.phi.eval_batch(A.ravel(), B.ravel())
    sup_phi = float(np.max(pv))
    ps.flag("phi bounded above by K on sampled value pairs",
            bool(np.all(np.isfinite(pv))) and sup_phi <= K + cfg.threshold(K),
            f"sampled sup {sup_phi!r} vs K={K!r}")
    ps.flag("eps positive", eps > 0)
    ps.check("convexity", check_geodesic_phiE_convex_fn(inst, cfg))
    ps.gate()
    conclusion = _finish_scan(_LipschitzScan(inst, cfg, chart, K / eps, lo, hi), cfg)
    ps.require("pairs exist inside the inset region",
               conclusion.verdict is not Verdict.PREMISE_FAILED)
    return ps.report(conclusion)


@_verifier
def verify_continuity_bound(inst: Instance, K: float, eps: float,
                            cfg: CheckConfig) -> TheoremReport:
    """The Lipschitz-style bound in E-image coordinates, for pairs whose
    E-images lie in the domain box inset by eps."""
    return _verify_lipschitz(
        _Premises(TheoremId.CONTINUITY_BOUND, cfg), inst, K, eps, cfg,
        identity_diffeo(inst.manifold), inst.domain.lows() + eps, inst.domain.highs() - eps,
    )


@_verifier
def verify_chart_continuity(inst: Instance, K: float, eps: float,
                            cfg: CheckConfig) -> TheoremReport:
    """Continuity read through a chart (stereographic on Sphere(2), the
    identity otherwise): the transported function h o inv must satisfy the
    same bound in chart coordinates, inside the sampled chart-image box
    inset by eps."""
    m = inst.manifold
    chart = (stereographic_diffeo() if m.kind is ManifoldKind.SPHERE and m.dim == 2
             else identity_diffeo(m))
    ps = _Premises(TheoremId.CHART_CONTINUITY, cfg)
    U = _aux_members(inst, cfg)
    ps.require("domain sampleable", U.size > 0)
    with np.errstate(all="ignore"):
        Y = chart.fwd.eval_batch(U)
    _roundtrip_premise(ps, chart, U)
    return _verify_lipschitz(ps, inst, K, eps, cfg, chart,
                             np.min(Y, axis=0) + eps, np.max(Y, axis=0) - eps)


# ---------------------------------------------------------------------------
# local minimum necessary condition

@dataclass
class _LocalMinScan(_InstanceScan, _Scan):
    """Rows mu of one sampled member each: phi(h(E(mu)), h(E(mu*))) >= -tol."""

    inst: Instance
    cfg: CheckConfig
    w_star: Point
    h_star: float

    members = 1
    has_t = False
    notes = {**_PAIR_NOTES, _VAL_BAD: "h or phi non-finite at an E-image (pair {i})"}

    def lanes(self, rows, T):
        inst = self.inst
        W, ok = _clean_images(inst.manifold, inst.E.eval_batch(rows))
        pv = inst.phi.eval_batch(inst.h.eval_batch(W), np.full(rows.shape[0], self.h_star))
        code = np.where(ok, np.where(np.isfinite(pv), _OK, _VAL_BAD), _E_BAD).astype(np.int8)
        return -pv[:, None], self.cfg.tol_abs + self.cfg.tol_rel, code[:, None]

    def witness(self, z) -> Witness | None:
        inst = self.inst
        u, _ = self._probe_point(z)
        try:
            W, ok = _clean_images(inst.manifold, np.array([inst.E(tuple(u))]))
            v = -inst.phi(inst.h(tuple(W[0])), self.h_star)
        except EvalDomainError:
            return None
        return _margin_witness((Point(tuple(u)), self.w_star), None, v) if ok[0] else None


@_verifier
def verify_local_min(inst: Instance, mu_star: Point, cfg: CheckConfig) -> TheoremReport:
    """At a sampled local minimum E(mu*), phi(h(E(mu)), h(E(mu*))) must be
    >= -tol for all sampled members mu.  The minimum premise is probed at
    the radius ladder {1e-2, 1e-3, 1e-4} of the domain scale."""
    ps = _Premises(TheoremId.LOCAL_MIN, cfg)
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
    ps.flag("E(mu*) and h(E(mu*)) evaluable", w_star is not None, need=True)
    w = w_star.array()
    interior_ok = member_mask_batch(inst.domain, w[None, :])[0]
    # the probe ladder in draw order: LOCAL_MIN_DIRECTIONS tangent directions
    # at each radius of the domain scale
    stream = rng.Stream(cfg.seed, STREAM_DIRS)
    radii, V = [], []
    for radius in LOCAL_MIN_RADII:
        r = radius * inst.domain.scale()
        for _ in range(LOCAL_MIN_DIRECTIONS):
            raw = np.array([stream.normal() for _ in range(m.ambient_dim)])
            if m.kind is ManifoldKind.SPHERE:
                raw = raw - np.dot(raw, w) * w
            nrm = float(np.linalg.norm(raw))
            if nrm >= 1e-12:
                radii.append(r)
                V.append(r * raw / nrm)
    with np.errstate(all="ignore"):
        Q = exp_batch(m, np.repeat(w[None, :], len(V), axis=0), np.reshape(V, (len(V), w.size)))
        H = inst.h.eval_batch(Q)
    # only a non-finite h or a point off the manifold is not evaluable
    evaluable = valid_mask(m, Q) & np.isfinite(H)
    inside = member_mask_batch(inst.domain, Q)
    low = H < h_star - cfg.threshold(h_star)
    probe_detail = min_detail = ""  # of the first failing probe in draw order
    failed = np.flatnonzero(~evaluable | ~inside | low)
    if failed.size:
        k, r = failed[0], radii[failed[0]]
        if not evaluable[k]:
            probe_detail = f"probe at radius {r!r} not evaluable"
        elif not inside[k]:
            probe_detail = f"probe at radius {r!r} leaves the set"
        else:
            min_detail = f"h={float(H[k])!r} below h(E(mu*))={h_star!r} at radius {r!r}"
    ps.flag("E(mu*) interior with evaluable probes", interior_ok and not probe_detail,
            probe_detail)
    ps.flag("mu* is a sampled local minimum", not min_detail, min_detail)
    ps.gate()
    return ps.report(_finish_scan(_LocalMinScan(inst, cfg, w_star, h_star), cfg))


# ---------------------------------------------------------------------------
# limits of gap-function sequences

@_verifier
def verify_phi_limit(tid: TheoremId, inst: Instance, phis: Sequence[Bifunction],
                     cfg: CheckConfig) -> TheoremReport:
    """Convexity under each member of a gap-function sequence (PhiLimit) or
    under each partial sum (PhiSeriesLimit), then under the declared limit
    carried by inst.phi.  Convergence on sampled value pairs is reported as
    evidence, not folded into the verdict."""
    ps = _Premises(tid, cfg)
    phis = list(phis)
    ps.require("nonempty gap sequence", bool(phis))
    members = phis
    if tid is TheoremId.PHI_SERIES_LIMIT:
        members = [add_bifunctions(phis[: i + 1]) for i in range(len(phis))]
    # every member changes phi only and the conclusion is inst, so all
    # checks share one set premise and one sampled pass
    _, checks = _fn_checks([inst.with_phi(phi_i) for phi_i in members] + [inst], cfg)
    for i in range(len(members)):
        ps.check(f"convexity under member {i}", checks[i]())
    _, _, H = _sampled_image_values(inst, cfg, 256, REGION_AUX1)
    devs = []
    if H.size >= 2:
        A, B = np.meshgrid(H[:32], H[:32])
        a, b = A.ravel(), B.ravel()
        target = inst.phi.eval_batch(a, b)
        for phi_i in members:
            with np.errstate(all="ignore"):
                d = np.abs(phi_i.eval_batch(a, b) - target)
            devs.append(float(np.max(d)))
    converged = bool(devs) and devs[-1] <= 0.5 * devs[0] + cfg.tol_abs
    ps.notes = (
        f"deviation from the limit on sampled value pairs: first {devs[0]!r}, "
        f"max {max(devs)!r}, last {devs[-1]!r}"
        if devs else "no value pairs sampled for convergence evidence",
        f"convergence evidence flag: {converged}",
    )
    ps.gate()
    conclusion = checks[-1]()
    return ps.report(
        replace(conclusion, flags={**conclusion.flags, "phi_sequence_converged": converged}))


# ---------------------------------------------------------------------------
# strict differential separation

@dataclass
class _StrictDifferentialScan(_InstanceScan, _Scan):
    """The directional derivatives of h at the two curve endpoints, along
    the curve's velocity, must differ by more than tol_strict on pairs with
    separated E-images."""

    inst: Instance
    cfg: CheckConfig
    tol_strict: float

    has_t = False
    notes = {**_PAIR_NOTES, _VAL_BAD: "directional derivative of h non-finite at an E-image (pair {i})"}

    def _separated(self, W1, W2):
        # the strict convexity scan's floor: derivative gaps of smooth
        # functions shrink with the image gap and would otherwise dip under
        # tol_strict for arbitrarily close sampled pairs
        return distance_batch(self.manifold, W1, W2) > STRICT_SEP_FRACTION * self.domain.scale()

    def lanes(self, rows, T):
        m = self.manifold
        h = self.inst.h
        W, code = _pair_images(m, self.E, *self.endpoints(rows))
        W1, W2 = _halves(W)
        with np.errstate(all="ignore"):
            # velocities at t = 1 (base W1) and at t = 0 (base W2)
            d_end = directional_derivative_batch(h, W1, -log_batch(m, W1, W2))
            d_start = directional_derivative_batch(h, W2, log_batch(m, W2, W1))
            diff = np.abs(d_end - d_start)
            separated = self._separated(W1, W2)
        code[(code == _OK) & ~np.isfinite(diff)] = _VAL_BAD
        viol = np.where(separated, self.tol_strict - diff, -np.inf)
        thr = self.cfg.tol_abs + self.cfg.tol_rel * np.maximum(1.0, diff)
        return viol[:, None], thr[:, None], code[:, None]

    def witness(self, z) -> Witness | None:
        u1, u2, _, images = self._witness_images(z)
        if images is None:
            return None
        m = self.manifold
        W1, W2 = (w[None, :] for w in images)
        if not self._separated(W1, W2)[0]:
            return None
        try:
            d_end = differentiate_numeric(self.inst.h, images[0], -log_batch(m, W1, W2)[0])
            d_start = differentiate_numeric(self.inst.h, images[1], log_batch(m, W2, W1)[0])
        except EvalDomainError:
            return None
        return _pair_witness(u1, u2, self.tol_strict, abs(d_end - d_start))


@_verifier
def verify_strict_differential(inst: Instance, cfg: CheckConfig,
                               tol_strict: float = STRICT_DERIVATIVE_TOL) -> TheoremReport:
    """Under strict convexity and an antisymmetric gap function, the
    directional derivatives of h at the two curve endpoints (along the
    curve's velocity) must differ by more than tol_strict."""
    ps = _Premises(TheoremId.STRICT_DIFFERENTIAL, cfg)
    ps.check("strict convexity", check_geodesic_phiE_convex_fn(inst, cfg, strict=True))
    ps.check("phi antisymmetric", check_antisymmetric(inst.phi, cfg))
    ps.gate()
    return ps.report(_finish_scan(_StrictDifferentialScan(inst, cfg, tol_strict), cfg, notes=(
        f"endpoint directional derivatives must differ by more than {tol_strict!r}",
    )))


# ---------------------------------------------------------------------------
# epigraphs

def _phi_combination_monotone_premise(ps: _Premises, phi: Bifunction, H: np.ndarray,
                                      cfg: CheckConfig) -> None:
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
    ps.flag(
        "phi non-decreasing (combination-monotone probe)", ok,
        f"min forward differences {float(np.min(da))!r}, {float(np.min(db))!r} "
        f"at step {delta!r}",
        "interpretation: non-decreasing read as d(phi)/da >= 0 and "
        "d(phi)/db >= -1, i.e. v2 + t*phi(v1,v2) monotone",
    )


def epigraph_product_set(inst: Instance, cfg: CheckConfig) -> ProductSet:
    """Epigraph of h over the E-image as a ProductSet.

    For the identity remap the image is the domain itself and for a
    constant remap a single point, so those base boxes are exact; any other
    remap falls back to the sampled image bounding box, an approximation
    recorded by the caller.
    """
    _, W, H = _sampled_image_values(inst, cfg, 1024, REGION_AUX2)
    if W.shape[0] == 0:
        raise EvalDomainError("no evaluable E-image samples for the epigraph")
    amb = inst.manifold.ambient_dim
    if inst.E.exprs == EndoMap.identity(amb).exprs:
        box = inst.domain.box
    elif all(isinstance(e.root, Const) for e in inst.E.exprs):
        c = [e.root.value for e in inst.E.exprs]
        box = tuple((ci, ci) for ci in c)
    else:
        box = tuple(zip(np.min(W, axis=0), np.max(W, axis=0)))
    base = DomainSet(inst.manifold, box, inst.domain.membership)
    names = point_vars(amb) + ("v",)
    graph = Expr(Binary("-", Var("v"), inst.h.expr.root), names)
    hmin, hmax = float(np.min(H)), float(np.max(H))
    span = max(1.0, hmax - hmin)
    return ProductSet(base, graph, (hmin, hmax + span))


@_verifier
def verify_epigraph_equiv(inst: Instance, cfg: CheckConfig) -> TheoremReport:
    """The function check and the epigraph set check must agree in both
    directions (both hold, or both violated with witnesses)."""
    ps = _Premises(TheoremId.EPIGRAPH_EQUIV, cfg)
    _, _, H = _sampled_image_values(inst, cfg, 256, REGION_AUX1)
    ps.require("value range sampleable", H.size >= 2)
    _phi_combination_monotone_premise(ps, inst.phi, H, cfg)
    set_report, (fn_check,) = _fn_checks([inst], cfg)
    ps.check("domain geodesic E-convex", set_report)
    epi = _built(lambda: epigraph_product_set(inst, cfg))
    ps.require("epigraph values sampleable", not isinstance(epi, EvalDomainError))
    ps.gate()

    fn_report = fn_check()
    set_report = _built_check(epi, lambda: check_geodesic_phiE_convex_set(
        inst.manifold, inst.E, inst.phi, epi, cfg))
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
    return ps.report(conclusion)


@_verifier
def verify_intersection(m: Manifold, E: EndoMap, phi: Bifunction,
                        sets: Sequence[ProductSet], cfg: CheckConfig) -> TheoremReport:
    """Each set passing the product check implies their intersection passes."""
    ps = _Premises(TheoremId.INTERSECTION_52, cfg)
    sets = list(sets)
    for k, s in enumerate(sets):
        ps.check(f"set {k}", check_geodesic_phiE_convex_set(m, E, phi, s, cfg))
    ps.gate()
    return ps.report(
        check_geodesic_phiE_convex_set(m, E, phi, intersect_product_sets(sets), cfg))


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


@_verifier
def verify_sup_epigraph(insts: Sequence[Instance], cfg: CheckConfig) -> TheoremReport:
    """Non-decreasing phi plus per-member epigraph set checks imply the
    pointwise supremum of the family is convex in the function sense."""
    ps = _Premises(TheoremId.SUP_EPIGRAPH_COR, cfg)
    insts = list(insts)
    first = insts[0]
    _family_premise(ps, insts)
    _, _, H = _sampled_image_values(first, cfg, 256, REGION_AUX1)
    ps.require("value range sampleable", H.size >= 2)
    _phi_combination_monotone_premise(ps, first.phi, H, cfg)
    # sampled values are finite, so a member with any is bounded on samples;
    # its epigraph set below is built from a superset of these draws
    bounded = all(_sampled_image_values(sub, cfg, 128, REGION_AUX2)[2].size > 0 for sub in insts)
    ps.flag("family bounded above on samples", bounded, need=True)
    for k, sub in enumerate(insts):
        epi = epigraph_product_set(sub, cfg)
        ps.check(f"epigraph of member {k}",
                 check_geodesic_phiE_convex_set(sub.manifold, sub.E, sub.phi, epi, cfg))
    ps.gate()
    combined = max_fns([i.h for i in insts])
    return ps.report(check_geodesic_phiE_convex_fn(first.with_h(combined, "sup family"), cfg))


# every statement id and its verifier; a verifier of several ids takes the id first
STATEMENTS = {
    TheoremId.MEAN_VALUE_31: verify_mean_value,
    TheoremId.THREE_POINT_32: verify_three_point,
    TheoremId.SCALING_41A: verify_closure,
    TheoremId.SUM_41B: verify_closure,
    TheoremId.COMPOSITION: verify_composition,
    TheoremId.WEIGHTED_SUM: verify_closure,
    TheoremId.DIFFEO_INVARIANCE: verify_diffeo_invariance,
    TheoremId.CONTINUITY_BOUND: verify_continuity_bound,
    TheoremId.SUP_FAMILY: verify_closure,
    TheoremId.LOCAL_MIN: verify_local_min,
    TheoremId.CHART_CONTINUITY: verify_chart_continuity,
    TheoremId.PHI_LIMIT: verify_phi_limit,
    TheoremId.PHI_SERIES_LIMIT: verify_phi_limit,
    TheoremId.STRICT_DIFFERENTIAL: verify_strict_differential,
    TheoremId.EPIGRAPH_EQUIV: verify_epigraph_equiv,
    TheoremId.INTERSECTION_52: verify_intersection,
    TheoremId.SUP_EPIGRAPH_COR: verify_sup_epigraph,
}
