"""Core sampled convexity predicates with deterministic refinement.

Every check scans seeded samples, measures violations as lhs - rhs against
the threshold tol_abs + tol_rel * max(1, |rhs|), and locally refines the
best near-violation by a batched coordinate line search.  Each check states
its inequality once, as a vectorized `lanes(rows, T)` over a parameter
matrix: the bulk scan calls it on the sampled rows and the whole t-grid,
the refinement on a matrix of probe points, and an emitted witness is
re-evaluated through the scalar evaluator, which stays the authority.
Sample i is a pure function of (seed, i), and reductions (max violation,
ties broken by least sample position; earliest domain error wins) are
associative and order-independent, so any worker count produces the
identical Report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import rng
from .algebra import (
    REGION_PREIMAGE,
    REGION_ROWS,
    DomainSet,
    Instance,
    ProductSet,
    member_mask_batch,
    outside_margin_batch,
    sample_members,
    sample_product_members,
)
from .errors import EvalDomainError, InverseSearchFailedError
from .exprlang import Bifunction, EndoMap
from .manifold import (
    Manifold,
    ManifoldKind,
    Point,
    antipodal_mask,
    distance_batch,
    geodesic_batch,
    geodesic_fan,
    row_finite,
    row_norm,
    valid_mask,
)
from .reports import CheckConfig, Report, Verdict, Witness

__all__ = [
    "CheckConfig",
    "Report",
    "Verdict",
    "Witness",
    "check_phiE_convex_interval",
    "check_slope_inequality",
    "check_geodesic_E_convex_set",
    "check_geodesic_phiE_convex_fn",
    "check_geodesic_phiE_convex_set",
    "search_counterexample",
    "epigraph_membership",
    "EpigraphMembership",
]

# refinement triggers when the best gap is within this factor of tolerance
NEAR_VIOLATION_FACTOR = 10.0
# golden-section probes per coordinate line search; 0.618^40 of the interval
# is ~4.5e-9, fine enough to pin witnesses and preimages at tolerance scale
GOLDEN_PROBES = 40
# evenly spaced probes per round of the batched line search; each round
# shrinks the bracket to the two neighbours of its best probe
LINE_PROBES = 129
# rounds per line search: the final bracket is no wider than the one left
# by GOLDEN_PROBES golden-section steps
LINE_ROUNDS = math.ceil(
    GOLDEN_PROBES * math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0 / (LINE_PROBES - 1))
)
# strict mode demands rhs - lhs > tol; folded into rhs as a 2*tol shift
STRICT_MARGIN_FACTOR = 2.0
# strict lanes need separated images: the margin of a strictly convex
# function shrinks quadratically with the image gap and would otherwise
# fall under tolerance for arbitrarily close sampled pairs
STRICT_SEP_FRACTION = 0.01
# slope triples need separated E-values: the difference quotients lose
# digits as 1/gap, and refinement would otherwise climb into rounding noise
SLOPE_SEP_FRACTION = 1e-5
# rows per chunk of a single scan; a pass of k scans holds the lanes of all
# k at once and takes MAX_CHUNK // k rows, keeping per-chunk scratch modest
MAX_CHUNK = 1 << 16
# accepted preimage distance for epigraph membership
INVERSE_TOL = 1e-6

# lane error codes returned by `lanes`; all but _LANE concern a whole row
_OK, _PAIR_BAD, _E_BAD, _ANTI, _VAL_BAD, _LANE = range(6)


# ---------------------------------------------------------------------------
# generic chunked scan

@dataclass
class _ChunkScan:
    i0: int
    err_at: tuple[int, int] | None  # lane of the first domain error, None when clean
    err_note: str | None
    # candidates: list of (violation, lane, start point), best first
    cands: list
    max_viol: float  # max violation among counted lanes, -inf if none
    violated: bool
    extra: dict


def _chunk_ranges(n: int, workers: int, cap: int = MAX_CHUNK):
    """Row ranges covering 0..n: as few as keep every range within `cap`
    rows, rounded up to a multiple of `workers` so that each worker gets an
    equal share, with sizes differing by at most one."""
    needed = -(-n // cap)
    k = min(n, -(-needed // workers) * workers)
    size, extra = divmod(n, k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_chunks(n: int, cfg: CheckConfig, chunk_fn, cap: int = MAX_CHUNK) -> list:
    ranges = _chunk_ranges(n, cfg.workers, cap)
    if cfg.workers == 1 or len(ranges) == 1:
        return [chunk_fn(i0, i1) for i0, i1 in ranges]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(lambda r: chunk_fn(*r), ranges))


def _run_pass(scans, cfg: CheckConfig) -> list[list[_ChunkScan]]:
    """One sampled pass over `scans`, which share sampled rows (the first
    scan draws them), per chunk the bulk lanes of all and the reduction of
    each.  Chunks hold the lanes of every scan at once, so their rows are
    capped at MAX_CHUNK / len(scans).  Returns each scan's chunks."""

    def chunk(i0, i1):
        lead = scans[0]
        bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        rows, ok = lead.sample(bases)
        T = np.linspace(0.0, 1.0, lead.cfg.t_grid)[None, :] if lead.has_t else None
        outs = lead.pass_lanes(scans, rows, ok, T)
        return [s.reduce(i0, rows, ok, T, *out) for s, out in zip(scans, outs)]

    per_chunk = _run_chunks(cfg.samples, cfg, chunk, max(1, MAX_CHUNK // len(scans)))
    return [list(c) for c in zip(*per_chunk)]


def _merge_chunks(chunks: list[_ChunkScan], top_k: int):
    err_at = min((c.err_at for c in chunks if c.err_at is not None), default=None)
    err_note = None
    cands = []
    max_viol = -np.inf
    violated = False
    extras = [c.extra for c in chunks]
    for c in chunks:
        if err_at is not None and c.i0 > err_at[0]:
            continue  # entirely after the first domain error
        if c.err_at == err_at and c.err_note is not None:
            err_note = c.err_note
        cands.extend(c.cands)
        max_viol = max(max_viol, c.max_viol)
        violated = violated or c.violated
    cands.sort(key=lambda c: (-c[0], c[1]))
    return err_at, err_note, cands[:top_k], max_viol, violated, extras


def _select_candidates(masked: np.ndarray, k: int):
    """Top-k (violation, position) among the finite lanes of `masked`, best
    first.  Ties go to the least position, which is the least lane."""
    v = masked.ravel()
    if v.size > k:
        kth = v[np.argpartition(v, v.size - k)[v.size - k:]].min()
        above = np.flatnonzero(v > kth)
        idx = np.concatenate([above, np.flatnonzero(v == kth)[: k - above.size]])
    else:
        idx = np.arange(v.size)
    idx = idx[np.lexsort((idx, -v[idx]))]
    return [(float(v[p]), int(p)) for p in idx if np.isfinite(v[p])]


def _line_refine(f, z0, intervals, steps: int):
    """Round-robin coordinate ascent of a batched objective `f`, which maps
    a (K, len(z0)) probe matrix to K values.  Each step searches one
    coordinate over its full admissible interval: LINE_ROUNDS rounds of
    LINE_PROBES evenly spaced probes, each round one call of `f`, with the
    bracket shrinking to the neighbours of the round's best probe.  The best
    point ever evaluated is kept, so the result never falls below the start."""
    best_z = np.array(z0, dtype=np.float64)
    best_v = float(f(best_z[None, :])[0])
    for it in range(steps):
        k = it % best_z.size
        a, b = intervals[k]
        if not b > a:
            continue
        Z = np.repeat(best_z[None, :], LINE_PROBES, axis=0)
        for _ in range(LINE_ROUNDS):
            xs = np.linspace(a, b, LINE_PROBES)
            Z[:, k] = xs
            v = f(Z)
            i = int(np.argmax(v))
            if v[i] == -np.inf:
                break  # nothing on the bracket is admissible
            if v[i] > best_v:
                best_v, best_z = float(v[i]), Z[i].copy()
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, LINE_PROBES - 1)]
    return best_z, best_v


def _clean_images(m: Manifold, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate E-outputs as manifold points; sphere rows within the snap
    tolerance are renormalized."""
    ok = valid_mask(m, W)
    if m.kind is ManifoldKind.SPHERE:
        with np.errstate(all="ignore"):
            W = np.where(ok[:, None], W / row_norm(W)[:, None], W)
    return W, ok


def _halves(A: np.ndarray):
    """The two halves of a stack of two equal-length arrays (views)."""
    n = A.shape[0] // 2
    return A[:n], A[n:]


def _pair_images(m: Manifold, E: EndoMap, U1: np.ndarray, U2: np.ndarray):
    """Clean E-images of both endpoints, stacked as one (2N, d) array whose
    halves image U1 and U2, and a row code: _E_BAD for an invalid image,
    _ANTI for antipodal images on the sphere."""
    W, ok = _clean_images(m, E.eval_batch(np.concatenate((U1, U2))))
    ok1, ok2 = _halves(ok)
    code = np.where(ok1 & ok2, _OK, _E_BAD).astype(np.int8)
    if m.kind is ManifoldKind.SPHERE:
        code[(code == _OK) & antipodal_mask(*_halves(W))] = _ANTI
    return W, code


def _scalar_images(m: Manifold, E: EndoMap, u1, u2):
    """Scalar-evaluated clean E-images of two points, or None."""
    try:
        w = np.array([E(tuple(u1)), E(tuple(u2))], dtype=np.float64)
    except EvalDomainError:
        return None
    W, ok = _clean_images(m, w)
    if not (ok[0] and ok[1]):
        return None
    if m.kind is ManifoldKind.SPHERE and antipodal_mask(W[:1], W[1:])[0]:
        return None
    return W[0], W[1]


def _on_manifold(m: Manifold, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probe rows as manifold coordinates: sphere rows are normalized, and
    rows too close to the origin to normalize are rejected."""
    if m.kind is not ManifoldKind.SPHERE:
        return U, np.ones(U.shape[0], dtype=bool)
    r = row_norm(U)
    with np.errstate(all="ignore"):
        return U / r[:, None], r >= 1e-12


def _finite(*arrays) -> np.ndarray:
    out = np.isfinite(arrays[0])
    for a in arrays[1:]:
        out &= np.isfinite(a)
    return out


class _Scan:
    """One check's sampled scan.  A row is `members` seeded members of
    `domain` side by side, member k drawn from REGION_ROWS[k]; refinement
    probes append t when the scan has one.  A subclass supplies

    * `lanes(rows, T) -> (viol, thr, err)`: violations, thresholds
      (broadcastable to viol) and error codes per lane, where T is a
      t-grid of shape (1, G) in the bulk scan and (N, 1) in refinement
      (None for checks without t);
    * `witness(z)`, the scalar re-evaluation of a point (or None);

    and may replace how one member is drawn (`draw`), how it is mapped onto
    the manifold and masked (`member_rows`), and how the finished report
    reads its chunks' counters (`finish`).

    A lane is addressed by (sample i, t-column c) and lanes are ordered by
    that pair.  c indexes the t-grid and bulk lanes start at c = first_t; an
    error of the whole row sits at c = -1, so it sorts before the row's
    lanes.  A scan without t (`has_t` False) has one lane per row, at c = 0.
    Lanes at -inf are inadmissible and not counted.
    """

    members = 2
    has_t = True
    first_t = 0
    skips_unsampled = False  # rows that found no member are skipped, not errors
    notes = {}  # error code -> note template with the pair index {i}

    def draw(self, bases, region):
        """One member per stream base from `region`, and which were found."""
        return sample_members(self.domain, bases, region)

    def member_rows(self, X):
        """Members as manifold coordinates, and which are domain members."""
        U, ok = _on_manifold(self.manifold, X)
        return U, ok & member_mask_batch(self.domain, U)

    def sample(self, bases):
        parts, oks = zip(*(self.draw(bases, r) for r in REGION_ROWS[: self.members]))
        return np.hstack(parts), np.logical_and.reduce(oks)

    def probe_rows(self, rows):
        """Refinement probes mapped onto the manifold, and which rows hold
        only domain members."""
        n = rows.shape[0]
        X, ok = self.member_rows(rows.reshape(n * self.members, -1))
        return X.reshape(n, -1), ok.reshape(n, self.members).all(axis=1)

    def intervals(self):
        """The admissible range of each refined coordinate."""
        iv = list(self.domain.box) * self.members
        return iv + [(0.0, 1.0)] if self.has_t else iv

    def pass_lanes(self, scans, rows, ok, T):
        """Bulk lanes `(viol, thr, err, extra)` of each of `scans` on rows
        this scan sampled, `extra` holding the chunk's own counters; a scan
        that shares no pass runs alone."""
        return [(*self.lanes(rows, T), {})]

    def reduce(self, i0: int, rows, ok, T, viol, thr, err, extra) -> _ChunkScan:
        """The chunk's first domain error, candidates, maximum and counters
        from its bulk lanes, which it overwrites."""
        G = viol.shape[1]
        err[~ok] = _OK if self.skips_unsampled else _PAIR_BAD
        counted = ok[:, None] & (err == _OK) & np.isfinite(viol)
        err_at, err_note = None, None
        if np.any(err):
            # a row code fills its row, so the first error in ravel order is
            # the first lane, a row's error before its lanes
            p = int(np.argmax(err.ravel() != _OK))
            r, j = divmod(p, G)
            code = int(err[r, j])
            err_at = (i0 + r, self.first_t + j if code == _LANE else -1)
            err_note = self.notes[code].format(i=i0 + r)
            counted.ravel()[p:] = False
        violated = bool(np.any(counted & (viol > thr)))
        viol[~counted] = -np.inf
        cands = []
        for v, p in _select_candidates(viol, k=8):
            r, j = divmod(p, G)
            c = self.first_t + j
            cands.append((v, (i0 + r, c), rows[r] if T is None else np.append(rows[r], T[0, c])))
        extra = {"unsampled": int(np.sum(~ok)), "counted": int(np.sum(counted)), **extra}
        return _ChunkScan(i0, err_at, err_note, cands, float(viol.max()), violated, extra)

    def finish(self, report: Report, extras) -> Report:
        """The scan's report from the one `_finish_scan` built and the
        counters (`extra`) of every chunk."""
        return report

    def endpoints(self, rows):
        """The two members of each pair row."""
        d = self.manifold.ambient_dim
        return rows[:, :d], rows[:, d:]

    def _probe_point(self, z):
        """A point of refinement as the row its lanes saw, and its t (None
        for a scan without t)."""
        z = np.asarray(z, dtype=np.float64)
        row, t = (z[:-1], float(z[-1])) if self.has_t else (z, None)
        return self.probe_rows(row[None, :])[0][0], t

    def _witness_images(self, z):
        """The members u1, u2 of the pair behind a refinement point, its t,
        and their scalar E-images (None when they fail)."""
        row, t = self._probe_point(z)
        u1, u2 = np.split(row, 2)
        return u1, u2, t, _scalar_images(self.manifold, self.E, u1, u2)

    def objective(self, Z: np.ndarray) -> np.ndarray:
        """Refinement objective over a probe matrix; -inf off the admissible
        region and on evaluation failures."""
        rows, T = (Z[:, :-1], Z[:, -1:]) if self.has_t else (Z, None)
        rows, ok = self.probe_rows(rows)
        with np.errstate(all="ignore"):
            viol, _, err = self.lanes(rows, T)
        v = viol[:, 0]
        return np.where(ok & (err[:, 0] == _OK) & np.isfinite(v), v, -np.inf)


class _InstanceScan:
    """Manifold, domain and remap of a scan over an Instance `inst`."""

    @property
    def manifold(self) -> Manifold:
        return self.inst.manifold

    @property
    def domain(self) -> DomainSet:
        return self.inst.domain

    @property
    def E(self) -> EndoMap:
        return self.inst.E


_PAIR_NOTES = {
    _PAIR_BAD: "rejection sampling exhausted for a domain point (pair {i})",
    _E_BAD: "E produced an invalid manifold point (pair {i})",
    _ANTI: "antipodal E-images: geodesic not unique (pair {i})",
}


class _CurveScan(_Scan):
    """A pair scan along the curve between the E-images of its row's two
    domain points.  A subclass supplies

    * `prelude(rows, W, code)`: per-row state from the stacked images W
      (halves E(u1), E(u2)); it may mark rows in `code`;
    * `lane(state, P, t) -> (viol, tau, bad)` at the curve points P of t:
      thresholds tau (None for a margin test, whose rhs is 0) and the
      lanes that failed to evaluate.

    Scans over the same manifold, E and sampled rows share one pass
    (`_curve_lanes`)."""

    margin_test = True

    def pass_extra(self, rows, ok, W, code) -> dict:
        return {}

    def pass_lanes(self, scans, rows, ok, T):
        outs, W, code = _curve_lanes(scans, rows, T, [s.first_t for s in scans])
        return [(*out, s.pass_extra(rows, ok, W, code)) for s, out in zip(scans, outs)]

    def lanes(self, rows, T):
        return _curve_lanes([self], rows, T, [0])[0][0]


def _curve_lanes(scans, rows, T, offsets):
    """Lanes `(viol, thr, err)` of curve scans that share manifold, E and row
    layout, scan k over the t-columns T[:, offsets[k]:].  The E-images, their
    row codes and the geodesic fan are computed once, and each curve point
    once per t-column.  Also returns the stacked images and row codes."""
    lead = scans[0]
    m = lead.manifold
    n, G = rows.shape[0], T.shape[1]
    with np.errstate(all="ignore"):
        W, code = _pair_images(m, lead.E, *lead.endpoints(rows))
        lanes, per_scan = [], []
        for s, off in zip(scans, offsets):
            c = code.copy()
            state = s.prelude(rows, W, c)
            shape = (n, G - off)
            thr = s.cfg.tol_abs + s.cfg.tol_rel if s.margin_test else np.empty(shape)
            out = (np.empty(shape), thr, np.repeat(c[:, None], G - off, axis=1))
            lanes.append(out)
            per_scan.append((s, off, state, c == _OK, *out))
        curve = geodesic_fan(m, *_halves(W))
        for j in range(G):
            t = T[:, j]
            P = curve(t)
            for s, off, state, ok_rows, viol, thr, err in per_scan:
                if j < off:
                    continue
                v, tau, bad = s.lane(state, P, t)
                viol[:, j - off] = v
                if tau is not None:
                    thr[:, j - off] = tau
                np.copyto(err[:, j - off], _LANE, where=ok_rows & bad)
    return lanes, W, code


# ---------------------------------------------------------------------------
# convexity of h along curves between E-images

@dataclass
class _ConvexityScan(_InstanceScan, _CurveScan):
    inst: Instance
    cfg: CheckConfig
    strict: bool = False

    # lane t = 0 compares h(E(mu2)) with itself, so the bulk grid skips it
    first_t = 1
    margin_test = False
    notes = {
        **_PAIR_NOTES,
        _VAL_BAD: "h or phi non-finite at an E-image (pair {i})",
        _LANE: "curve point left h's evaluable domain (pair {i})",
    }

    def prelude(self, rows, W, code):
        inst = self.inst
        h1, h2 = _halves(inst.h.eval_batch(W))
        p12 = inst.phi.eval_batch(h1, h2)
        code[(code == _OK) & ~_finite(h1, h2, p12)] = _VAL_BAD
        elig = None
        if self.strict:
            sep = distance_batch(inst.manifold, *_halves(W))
            elig = sep > STRICT_SEP_FRACTION * inst.domain.scale()
        return h2, p12, elig

    def lane(self, state, P, t):
        h2, p12, elig = state
        cfg = self.cfg
        lhs = self.inst.h.eval_batch(P)
        rhs = h2 + t * p12
        v = lhs - rhs
        tau = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
        if self.strict:
            v = np.where(elig & (t > 0.0) & (t < 1.0), v + STRICT_MARGIN_FACTOR * tau, v)
        return v, tau, ~np.isfinite(lhs)

    def intervals(self):
        iv = super().intervals()
        if self.strict:
            # stays on the tested interior range: the strict margin dies
            # out toward the endpoints for every function
            ts = np.linspace(0.0, 1.0, self.cfg.t_grid)
            iv[-1] = (float(ts[1]), float(ts[-2]))
        return iv

    def witness(self, z) -> Witness | None:
        inst = self.inst
        m = inst.manifold
        u1, u2, t, images = self._witness_images(z)
        if images is None:
            return None
        w1, w2 = images
        try:
            h1 = inst.h(tuple(w1))
            h2 = inst.h(tuple(w2))
            p12 = inst.phi(h1, h2)
            gp = geodesic_batch(m, w1[None, :], w2[None, :], t)[0]
            lhs = inst.h(tuple(gp))
        except EvalDomainError:
            return None
        rhs = h2 + t * p12
        if self.strict and 0.0 < t < 1.0:
            sep = float(distance_batch(m, w1[None, :], w2[None, :])[0])
            if sep > STRICT_SEP_FRACTION * inst.domain.scale():
                rhs = rhs - STRICT_MARGIN_FACTOR * self.cfg.threshold(rhs)
        return Witness(
            points=(Point(tuple(u1)), Point(tuple(u2))),
            t=t,
            lhs=float(lhs),
            rhs=float(rhs),
            violation=float(lhs - rhs),
        )


def _margin_witness(points, t: float, margin: float) -> Witness | None:
    """Witness of a point outside a set by `margin` (a test whose rhs is 0)."""
    if not math.isfinite(margin):
        return None
    return Witness(points=points, t=t, lhs=margin, rhs=0.0, violation=margin)


def _emitted_witness(scan, cfg: CheckConfig, zs, origin: int) -> Witness | None:
    """The scalar re-evaluation of the first of `zs` that stays above
    threshold.  The batch evaluator can return finite values where the
    scalar one raises, so a refined point may fail here."""
    for z in zs:
        w = scan.witness(z)
        if w is not None and w.violation > cfg.threshold(w.rhs):
            return replace(w, origin_index=origin)
    return None


def _finish_scan(scan, cfg: CheckConfig, notes=(), force_refine: bool = False,
                 chunks=None) -> Report:
    """The report of `scan` from its chunks (scanned here when None): merge,
    refinement of the best candidate (of the best 8 when `force_refine`)
    and scalar re-validation."""
    if chunks is None:
        (chunks,) = _run_pass([scan], cfg)
    err_at, err_note, cands, max_viol, violated, extras = _merge_chunks(
        chunks, 8 if force_refine else 1)
    samples_used = cfg.samples if err_at is None else err_at[0]
    notes = tuple(notes)

    best = None  # (refined value, witness)
    confirmed = []
    tau_hint = cfg.tol_abs + cfg.tol_rel  # scale-free trigger hint
    for viol0, (i, _), z0 in cands:
        if not force_refine and viol0 <= -NEAR_VIOLATION_FACTOR * tau_hint and not violated:
            continue
        z, v = _line_refine(scan.objective, z0, scan.intervals(), cfg.refine_steps)
        max_viol = max(max_viol, v)
        # the start point is the fallback when the refined one fails
        w = _emitted_witness(scan, cfg, (z, z0), i)
        if w is not None:
            confirmed.append(w)
            if best is None or v > best[0]:
                best = (v, w)
        if not force_refine:
            break

    verdict, witness = Verdict.HOLDS_ON_SAMPLES, None
    if best is not None:
        verdict, witness = Verdict.VIOLATED, best[1]
    elif err_at is not None:
        verdict, notes = Verdict.DOMAIN_ERROR, notes + (err_note,)
    elif violated:
        # bulk scan saw a violation but the refined re-evaluation did not
        # confirm it; report the conservative verdict with the raw value
        notes += ("unconfirmed raw violation did not survive re-evaluation",)
    mv = float(max_viol) if np.isfinite(max_viol) else None
    return scan.finish(Report(verdict, mv, witness, samples_used, cfg.seed, notes=notes,
                              refined=tuple(confirmed)), extras)


def check_geodesic_phiE_convex_fn(
    inst: Instance, cfg: CheckConfig, strict: bool = False
) -> Report:
    """Test h(curve(t)) <= h(E(mu2)) + t*phi(h(E(mu1)), h(E(mu2))) along
    geodesics between E-images of sampled member pairs.

    The domain must first pass the geodesic E-convex set check on the same
    budget; otherwise the premise fails.  Strict mode additionally demands
    a > tol margin whenever the E-images differ and t is interior.
    """
    _, (report,) = _fn_checks([inst], cfg, strict)
    return report()


def _fn_checks(insts, cfg: CheckConfig, strict: bool = False):
    """The set premise and the function check of each of `insts`, which
    share manifold, E and domain, from one sampled pass.  Returns the set
    report and, per instance, a callable giving its function report: a
    check whose report is never asked for is never refined."""
    first = insts[0]
    set_scan = _SetScan(first.manifold, first.E, first.domain, cfg)
    scans = [_ConvexityScan(inst, cfg, strict) for inst in insts]
    set_chunks, *fn_chunks = _run_pass([set_scan, *scans], cfg)
    set_report = _finish_scan(set_scan, cfg, chunks=set_chunks)
    notes = ("strict margin of 2*tol folded into rhs",) if strict else ()

    def fn_report(scan, chunks) -> Report:
        if not set_report.holds:
            return Report(
                Verdict.PREMISE_FAILED,
                set_report.max_violation,
                None,
                set_report.samples_used,
                cfg.seed,
                flags=dict(set_report.flags),
                notes=(
                    f"domain is not geodesic E-convex on samples ({set_report.verdict.value})",
                )
                + set_report.notes,
            )
        return _finish_scan(scan, cfg, notes=notes, chunks=chunks)

    return set_report, [partial(fn_report, s, c) for s, c in zip(scans, fn_chunks)]


def check_phiE_convex_interval(inst: Instance, cfg: CheckConfig) -> Report:
    """1-D combination form: h(t*E(u1) + (1-t)*E(u2)) <= h(E(u2)) + t*phi(...).

    On Euclidean(1) the straight segment is the geodesic, so this is the
    geodesic scan without the set premise.
    """
    if inst.manifold.kind is not ManifoldKind.EUCLIDEAN or inst.manifold.dim != 1:
        raise ValueError("interval check requires Euclidean(1)")
    return _finish_scan(_ConvexityScan(inst, cfg, strict=False), cfg)


def search_counterexample(inst: Instance, cfg: CheckConfig, strict: bool = False) -> Report:
    """Like the function check but refines the top candidates regardless of
    the near-violation trigger, for deliberate counterexample hunting."""
    return _finish_scan(
        _ConvexityScan(inst, cfg, strict), cfg, force_refine=True,
        notes=("counterexample search: refined top candidates",),
    )


# ---------------------------------------------------------------------------
# slope form on Euclidean(1)

@dataclass
class _SlopeScan(_InstanceScan, _Scan):
    """Rows (mu1, mu, mu2) of three sampled points; one lane per row."""

    inst: Instance
    cfg: CheckConfig

    members = 3
    has_t = False
    notes = dict.fromkeys(
        (_PAIR_BAD, _E_BAD, _VAL_BAD), "evaluation failed on triple {i}"
    )

    def lanes(self, rows, T):
        inst = self.inst
        cfg = self.cfg
        Evals = inst.E.eval_batch(rows.reshape(-1, 1)).reshape(-1, 3)
        code = np.where(row_finite(Evals), _OK, _E_BAD).astype(np.int8)
        Es = np.sort(Evals, axis=1, kind="stable")
        e1, em, e2 = Es[:, 0], Es[:, 1], Es[:, 2]
        sep = SLOPE_SEP_FRACTION * inst.domain.scale()
        admissible = (code == _OK) & (em - e1 > sep) & (e2 - em > sep)
        H = inst.h.eval_batch(Es.reshape(-1, 1)).reshape(-1, 3)
        h1, hm, h2 = H[:, 0], H[:, 1], H[:, 2]
        p = inst.phi.eval_batch(h1, h2)
        with np.errstate(all="ignore"):
            lhs = p / (e1 - e2)
            rhs = (h2 - hm) / (e2 - em)
            viol = lhs - rhs
            thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
        val_bad = admissible & ~_finite(h1, hm, h2, p, viol)
        code[val_bad] = _VAL_BAD
        viol = np.where(admissible & ~val_bad, viol, -np.inf)
        return viol[:, None], thr[:, None], code[:, None]

    def witness(self, z) -> Witness | None:
        inst = self.inst
        try:
            e1, em, e2 = sorted(inst.E((float(zk),))[0] for zk in z)
            h1 = inst.h((e1,))
            hm = inst.h((em,))
            h2 = inst.h((e2,))
            p = inst.phi(h1, h2)
        except EvalDomainError:
            return None
        sep = SLOPE_SEP_FRACTION * inst.domain.scale()
        if not (em - e1 > sep and e2 - em > sep):
            return None
        lhs = p / (e1 - e2)
        rhs = (h2 - hm) / (e2 - em)
        return Witness(
            points=(Point((e1,)), Point((em,)), Point((e2,))),
            t=None,
            lhs=float(lhs),
            rhs=float(rhs),
            violation=float(lhs - rhs),
        )

    def finish(self, report, extras):
        admissible = sum(e["counted"] for e in extras)
        if report.verdict is Verdict.HOLDS_ON_SAMPLES and admissible == 0:
            return Report(
                Verdict.PREMISE_FAILED, None, None, report.samples_used, self.cfg.seed,
                notes=("no sampled triple satisfied E(mu1) < E(mu) < E(mu2)",),
            )
        return replace(report, flags={**report.flags, "admissible_triples": admissible})


def check_slope_inequality(inst: Instance, cfg: CheckConfig) -> Report:
    """Difference-quotient form on Euclidean(1): for sampled triples with
    E(mu1) < E(mu) < E(mu2),

        [h(E(mu2)) - h(E(mu))] / [E(mu2) - E(mu)]
            >= phi(h(E(mu1)), h(E(mu2))) / [E(mu1) - E(mu2)].

    Triples are labeled by sorting the three E-values, and both gaps must
    exceed SLOPE_SEP_FRACTION of the domain scale; with no admissible
    triple at all (constant E, say) the premise fails.
    """
    if inst.manifold.kind is not ManifoldKind.EUCLIDEAN or inst.manifold.dim != 1:
        raise ValueError("slope check requires Euclidean(1)")
    return _finish_scan(_SlopeScan(inst, cfg), cfg)


# ---------------------------------------------------------------------------
# geodesic E-convex sets

@dataclass
class _SetScan(_CurveScan):
    manifold: Manifold
    E: EndoMap
    domain: DomainSet
    cfg: CheckConfig

    notes = {
        **_PAIR_NOTES,
        _LANE: "membership predicate failed to evaluate on a curve point",
    }

    def prelude(self, rows, W, code):
        return None

    def lane(self, state, P, t):
        margin = outside_margin_batch(self.domain, P)
        return margin, None, ~np.isfinite(margin)

    def pass_extra(self, rows, ok, W, code):
        # length-discrepancy counters from the pass's E-images
        cfg = self.cfg
        m = self.manifold
        U1, U2 = self.endpoints(rows)
        W1, W2 = _halves(W)
        ok_rows = ok & (code == _OK)
        with np.errstate(all="ignore"):
            d_im = distance_batch(m, W1, W2)
            d_base = distance_batch(m, U1, U2)
        len_disc = np.where(ok_rows, np.abs(d_im - d_base), 0.0)
        len_thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(d_base))
        return {
            "len_bad": int(np.sum(ok_rows & (len_disc > len_thr))),
            "max_len_disc": float(np.max(len_disc, initial=0.0)),
        }

    def finish(self, report, extras):
        len_bad = sum(e["len_bad"] for e in extras)
        max_disc = max(e["max_len_disc"] for e in extras)
        return replace(
            report, flags={**report.flags, "length_matches_base_distance": len_bad == 0},
            notes=report.notes + (
                f"geodesic length vs base distance: max discrepancy {max_disc!r}, "
                f"{len_bad} pair(s) beyond tolerance",
            ),
        )

    def witness(self, z) -> Witness | None:
        u1, u2, t, images = self._witness_images(z)
        if images is None:
            return None
        w1, w2 = images
        gp = geodesic_batch(self.manifold, w1[None, :], w2[None, :], t)
        margin = float(outside_margin_batch(self.domain, gp)[0])
        return _margin_witness((Point(tuple(u1)), Point(tuple(u2))), t, margin)


def check_geodesic_E_convex_set(
    m: Manifold, E: EndoMap, B: DomainSet, cfg: CheckConfig
) -> Report:
    """For sampled member pairs, the geodesic between their E-images must
    stay inside B.  Whether the geodesic's length matches the base-point
    distance is reported as the separate flag `length_matches_base_distance`
    and never folds into the verdict.
    """
    return _finish_scan(_SetScan(m, E, B, cfg), cfg)


# ---------------------------------------------------------------------------
# product-space sets

@dataclass
class _ProductSetScan(_CurveScan):
    """Rows (u1, v1, u2, v2) of two sampled product-set members."""

    manifold: Manifold
    E: EndoMap
    phi: Bifunction
    domain: ProductSet
    cfg: CheckConfig

    skips_unsampled = True
    notes = {
        **dict.fromkeys((_E_BAD, _ANTI, _VAL_BAD), "E, geodesic, or phi failed on member pair {i}"),
        _LANE: "graph predicate failed to evaluate on a candidate",
    }

    def _split(self, rows):
        d = self.manifold.ambient_dim
        return rows[..., :d], rows[..., d], rows[..., d + 1 : 2 * d + 1], rows[..., 2 * d + 1]

    def draw(self, bases, region):
        return sample_product_members(self.domain, bases, region)

    def member_rows(self, X):
        d = self.manifold.ambient_dim
        U, ok = _on_manifold(self.manifold, X[:, :d])
        return np.hstack([U, X[:, d:]]), ok & self.domain.member_mask(U, X[:, d])

    def endpoints(self, rows):
        U1, _, U2, _ = self._split(rows)
        return U1, U2

    def prelude(self, rows, W, code):
        _, V1, _, V2 = self._split(rows)
        pv = self.phi.eval_batch(V1, V2)
        code[(code == _OK) & ~np.isfinite(pv)] = _VAL_BAD
        return V2, pv

    def lane(self, state, P, t):
        V2, pv = state
        margin = self.domain.outside_margin(P, V2 + t * pv)
        return margin, None, ~np.isfinite(margin)

    def finish(self, report, extras):
        unsampled = sum(e["unsampled"] for e in extras)
        if unsampled == self.cfg.samples:  # a pass covers every sample
            return Report(
                Verdict.HOLDS_ON_SAMPLES, None, None, 0, self.cfg.seed,
                notes=("no members found; membership condition is vacuous",),
            )
        if unsampled > 0 and report.verdict is Verdict.HOLDS_ON_SAMPLES:
            return replace(
                report, samples_used=report.samples_used - unsampled,
                notes=report.notes + (f"{unsampled} draws found no member and were skipped",),
            )
        return report

    def witness(self, z) -> Witness | None:
        m = self.manifold
        row, t = self._probe_point(z)
        u1, v1, u2, v2 = self._split(row)
        images = _scalar_images(m, self.E, u1, u2)
        if images is None:
            return None
        w1, w2 = images
        try:
            w = float(v2) + t * self.phi(float(v1), float(v2))
        except EvalDomainError:
            return None
        gp = geodesic_batch(m, w1[None, :], w2[None, :], t)
        margin = float(self.domain.outside_margin(gp, np.array([w]))[0])
        points = (Point(tuple(u1) + (float(v1),)), Point(tuple(u2) + (float(v2),)))
        return _margin_witness(points, t, margin)


def check_geodesic_phiE_convex_set(
    m: Manifold, E: EndoMap, phi: Bifunction, S: ProductSet, cfg: CheckConfig
) -> Report:
    """For sampled member pairs ((u1,v1),(u2,v2)) of S and grid t, the
    candidate (curve_{E(u1),E(u2)}(t), v2 + t*phi(v1,v2)) must be in S.

    If no member can be sampled at all the condition is vacuous and the
    check holds with zero samples.
    """
    return _finish_scan(_ProductSetScan(m, E, phi, S, cfg), cfg)


# ---------------------------------------------------------------------------
# epigraph membership

@dataclass
class EpigraphMembership:
    """Membership predicate for {(u, v): u in E(domain), h(u) <= v}.

    Whether u lies in the E-image is decided by sampled inverse search over
    the domain followed by coordinate refinement; preimage distances above
    INVERSE_TOL raise InverseSearchFailedError.
    """

    inst: Instance
    cfg: CheckConfig

    def preimage_distance(self, u) -> tuple[float, tuple[float, ...]]:
        inst = self.inst
        cfg = self.cfg
        target = np.asarray(getattr(u, "coords", u), dtype=np.float64)

        def nearest(i0, i1):
            bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
            U, ok = sample_members(inst.domain, bases, REGION_PREIMAGE)
            W = inst.E.eval_batch(U)
            with np.errstate(all="ignore"):
                dist = row_norm(W - target[None, :])
            dist = np.where(ok & np.isfinite(dist), dist, np.inf)
            k = int(np.argmin(dist))
            return float(dist[k]), i0 + k, tuple(U[k])

        # least distance, ties to the least sample index, at any worker count
        best_d, _, best_mu = min(_run_chunks(cfg.samples, cfg, nearest), key=lambda c: c[:2])
        if best_d == np.inf:
            raise InverseSearchFailedError("no domain sample could be drawn")

        def objective(Z):
            with np.errstate(all="ignore"):
                d = row_norm(inst.E.eval_batch(Z) - target[None, :])
            return np.where(member_mask_batch(inst.domain, Z) & np.isfinite(d), -d, -np.inf)

        z, v = _line_refine(objective, best_mu, inst.domain.box, cfg.refine_steps)
        if math.isfinite(v) and -v < best_d:
            best_d, best_mu = -v, tuple(float(x) for x in z)
        return best_d, best_mu

    def __call__(self, u, v: float) -> bool:
        dist, _ = self.preimage_distance(u)
        if dist > INVERSE_TOL:
            raise InverseSearchFailedError(
                f"nearest E-image is {dist!r} away from the queried point"
            )
        coords = tuple(getattr(u, "coords", u))
        hv = self.inst.h(coords)
        return hv <= v + self.cfg.threshold(v)


def epigraph_membership(inst: Instance, cfg: CheckConfig | None = None) -> EpigraphMembership:
    return EpigraphMembership(inst, cfg or CheckConfig())
