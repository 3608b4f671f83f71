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

import numpy as np

from . import rng
from .algebra import (
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
# chunk cap keeps per-chunk scratch matrices modest
MAX_CHUNK = 1 << 16
# accepted preimage distance for epigraph membership
INVERSE_TOL = 1e-6

_BIG = np.iinfo(np.int64).max

# lane error codes returned by `lanes`; all but _LANE concern a whole row
_OK, _PAIR_BAD, _E_BAD, _ANTI, _VAL_BAD, _LANE = range(6)


# ---------------------------------------------------------------------------
# generic chunked scan

@dataclass
class _ChunkScan:
    i0: int
    i1: int
    err_flat: int  # _BIG when clean
    err_note: str | None
    # candidates: list of (violation, flat, start point), best first
    cands: list
    max_viol: float  # max violation among counted lanes, -inf if none
    violated: bool
    extra: dict


def _chunk_ranges(n: int, workers: int):
    size = min(MAX_CHUNK, max(1, math.ceil(n / workers)))
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def _run_chunks(n: int, cfg: CheckConfig, chunk_fn) -> list[_ChunkScan]:
    ranges = _chunk_ranges(n, cfg.workers)
    if cfg.workers == 1 or len(ranges) == 1:
        return [chunk_fn(i0, i1) for i0, i1 in ranges]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(lambda r: chunk_fn(*r), ranges))


def _merge_chunks(chunks: list[_ChunkScan], lanes_per_pair: int, top_k: int):
    err_flat = min(c.err_flat for c in chunks)
    err_note = None
    cands = []
    max_viol = -np.inf
    violated = False
    extras = [c.extra for c in chunks]
    for c in chunks:
        if c.i0 * lanes_per_pair > err_flat:
            continue  # entirely after the first domain error
        if c.err_flat == err_flat and c.err_note is not None:
            err_note = c.err_note
        cands.extend(c.cands)
        max_viol = max(max_viol, c.max_viol)
        violated = violated or c.violated
    cands.sort(key=lambda c: (-c[0], c[1]))
    return err_flat, err_note, cands[:top_k], max_viol, violated, extras


def _select_candidates(masked: np.ndarray, flats: np.ndarray, k: int):
    """Top-k (violation, flat, position) among the finite lanes of `masked`,
    best first.  Ties go to the least position, which is the least flat."""
    v = masked.ravel()
    if v.size > k:
        kth = v[np.argpartition(v, v.size - k)[v.size - k:]].min()
        above = np.flatnonzero(v > kth)
        idx = np.concatenate([above, np.flatnonzero(v == kth)[: k - above.size]])
    else:
        idx = np.arange(v.size)
    idx = idx[np.lexsort((idx, -v[idx]))]
    flat_view = flats.ravel()
    return [(float(v[p]), int(flat_view[p]), int(p)) for p in idx if np.isfinite(v[p])]


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
    W, ok = _clean_images(m, E.eval_batch(np.vstack([U1, U2])))
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
    """One check's sampled scan.  A subclass supplies

    * `sample(bases) -> (rows, ok)`: one parameter row per stream base;
    * `lanes(rows, T) -> (viol, thr, err)`: violations, thresholds
      (broadcastable to viol) and error codes per lane, where T is a
      t-grid of shape (1, G) in the bulk scan and (N, 1) in refinement
      (None for checks without t);
    * `probe_rows(rows) -> (rows, ok)`: refinement probes mapped onto the
      manifold and masked to domain members;
    * `intervals()`, the admissible range of each refined coordinate,
      and `witness(z)`, the scalar re-evaluation of a point (or None).

    Pair i owns the flat lane indices i*L .. i*L + L - 1 with
    L = lanes_per_pair(): slot i*L marks errors of the whole row, and
    lane j of the bulk grid sits at i*L + first_lane + j.
    """

    has_t = True
    first_lane = 1
    skips_unsampled = False  # rows that found no member are skipped, not errors
    notes = {}  # error code -> note template with the pair index {i}

    def lanes_per_pair(self) -> int:
        return self.cfg.t_grid + 1

    def bulk_grid(self):
        return np.linspace(0.0, 1.0, self.cfg.t_grid)[None, :]

    def chunk(self, i0: int, i1: int) -> _ChunkScan:
        n = i1 - i0
        L = self.lanes_per_pair()
        gidx = np.arange(i0, i1, dtype=np.int64)
        bases = rng.base_array(self.cfg.seed, np.arange(i0, i1, dtype=np.uint64))
        rows, ok = self.sample(bases)
        T = self.bulk_grid()
        viol, thr, err, more = self.bulk_lanes(rows, ok, T)
        err[~ok] = _OK if self.skips_unsampled else _PAIR_BAD
        G = viol.shape[1]
        flats = gidx[:, None] * L + self.first_lane + np.arange(G, dtype=np.int64)[None, :]
        err_flat, err_note = _BIG, None
        if np.any(err):
            at = np.where(err == _OK, _BIG, np.where(err == _LANE, flats, gidx[:, None] * L))
            pos = int(np.argmin(at))
            err_flat = int(at.ravel()[pos])
            err_note = self.notes[int(err.ravel()[pos])].format(i=int(gidx[pos // G]))
        counted = ok[:, None] & (err == _OK) & np.isfinite(viol) & (flats < err_flat)
        masked = np.where(counted, viol, -np.inf)
        cands = []
        for v, flat, pos in _select_candidates(masked, flats, k=8):
            pi, j = divmod(pos, G)
            z0 = rows[pi] if T is None else np.append(rows[pi], T[0, j])
            cands.append((v, flat, z0))
        extra = {"n": n, "unsampled": int(np.sum(~ok)), "counted": int(np.sum(counted))}
        extra.update(more)
        return _ChunkScan(
            i0, i1, err_flat, err_note, cands, float(masked.max()),
            bool(np.any(counted & (viol > thr))), extra,
        )

    def bulk_lanes(self, rows, ok, T):
        """`lanes` over a sampled chunk, plus the chunk's extra counters."""
        return (*self.lanes(rows, T), {})

    def merge_extras(self, extras) -> dict:
        return {}

    def objective(self, Z: np.ndarray) -> np.ndarray:
        """Refinement objective over a probe matrix; -inf off the admissible
        region and on evaluation failures."""
        rows, T = (Z[:, :-1], Z[:, -1:]) if self.has_t else (Z, None)
        rows, ok = self.probe_rows(rows)
        with np.errstate(all="ignore"):
            viol, _, err = self.lanes(rows, T)
        v = viol[:, 0]
        return np.where(ok & (err[:, 0] == _OK) & np.isfinite(v), v, -np.inf)


_PAIR_NOTES = {
    _PAIR_BAD: "rejection sampling exhausted for a domain point (pair {i})",
    _E_BAD: "E produced an invalid manifold point (pair {i})",
    _ANTI: "antipodal E-images: geodesic not unique (pair {i})",
}


class _PairScan(_Scan):
    """Rows (u1, u2) of two sampled domain members; probes append t."""

    def sample(self, bases):
        U1, ok1 = sample_members(self.domain, bases, region=0, on_fail="mask")
        U2, ok2 = sample_members(self.domain, bases, region=1, on_fail="mask")
        return np.hstack([U1, U2]), ok1 & ok2

    def probe_rows(self, rows):
        d = self.manifold.ambient_dim
        U, ok = _on_manifold(self.manifold, np.vstack([rows[:, :d], rows[:, d:]]))
        ok &= member_mask_batch(self.domain, U)
        return np.hstack(_halves(U)), np.logical_and(*_halves(ok))

    def intervals(self):
        box = list(self.domain.box)
        return box + box + [(0.0, 1.0)]

    def _probe_point(self, z):
        """A point of refinement as the row its lanes saw, and its t."""
        z = np.asarray(z, dtype=np.float64)
        return self.probe_rows(z[None, :-1])[0][0], float(z[-1])


# ---------------------------------------------------------------------------
# convexity of h along curves between E-images

@dataclass
class _ConvexityScan(_PairScan):
    inst: Instance
    cfg: CheckConfig
    strict: bool = False

    # lane t = 0 compares h(E(mu2)) with itself, so the bulk grid skips it;
    # its flat index stays reserved so sample positions do not move
    first_lane = 2
    notes = {
        **_PAIR_NOTES,
        _VAL_BAD: "h or phi non-finite at an E-image (pair {i})",
        _LANE: "curve point left h's evaluable domain (pair {i})",
    }

    @property
    def manifold(self) -> Manifold:
        return self.inst.manifold

    @property
    def domain(self) -> DomainSet:
        return self.inst.domain

    def bulk_grid(self):
        return super().bulk_grid()[:, 1:]

    def lanes(self, rows, T):
        inst = self.inst
        cfg = self.cfg
        m = inst.manifold
        d = m.ambient_dim
        W, code = _pair_images(m, inst.E, rows[:, :d], rows[:, d:])
        W1, W2 = _halves(W)
        h1, h2 = _halves(inst.h.eval_batch(W))
        p12 = inst.phi.eval_batch(h1, h2)
        code[(code == _OK) & ~_finite(h1, h2, p12)] = _VAL_BAD
        shape = (rows.shape[0], T.shape[1])
        viol = np.empty(shape)
        thr = np.empty(shape)
        err = np.repeat(code[:, None], T.shape[1], axis=1)
        with np.errstate(all="ignore"):
            if self.strict:
                sep = distance_batch(m, W1, W2)
                elig = sep > STRICT_SEP_FRACTION * inst.domain.scale()
            curve = geodesic_fan(m, W1, W2)
            for j in range(T.shape[1]):
                t = T[:, j]
                lhs = inst.h.eval_batch(curve(t))
                rhs = h2 + t * p12
                v = lhs - rhs
                tau = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(rhs))
                if self.strict:
                    v = np.where(elig & (t > 0.0) & (t < 1.0), v + STRICT_MARGIN_FACTOR * tau, v)
                viol[:, j] = v
                thr[:, j] = tau
                err[(code == _OK) & ~np.isfinite(lhs), j] = _LANE
        return viol, thr, err

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
        row, t = self._probe_point(z)
        u1, u2 = np.split(row, 2)
        images = _scalar_images(m, inst.E, u1, u2)
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


def _finish_scan(scan, cfg: CheckConfig, notes=(), flags=None, top_k: int = 1,
                 force_refine: bool = False) -> Report:
    n = cfg.samples
    L = scan.lanes_per_pair()
    chunks = _run_chunks(n, cfg, scan.chunk)
    err_flat, err_note, cands, max_viol, violated, extras = _merge_chunks(chunks, L, top_k)
    flags = dict(flags or {})
    flags.update(scan.merge_extras(extras))
    samples_used = n if err_flat == _BIG else err_flat // L
    notes = tuple(notes)

    best = None  # (refined value, witness)
    confirmed = []
    tau_hint = cfg.tol_abs + cfg.tol_rel  # scale-free trigger hint
    for viol0, flat, z0 in cands:
        if not force_refine and viol0 <= -NEAR_VIOLATION_FACTOR * tau_hint and not violated:
            continue
        z, v = _line_refine(scan.objective, z0, scan.intervals(), cfg.refine_steps)
        max_viol = max(max_viol, v)
        # the start point is the fallback when the refined one fails
        w = _emitted_witness(scan, cfg, (z, z0), flat // L)
        if w is not None:
            confirmed.append(w)
            if best is None or v > best[0]:
                best = (v, w)
        if not force_refine:
            break

    def report(verdict, witness=None, more_notes=(), refined=()):
        mv = float(max_viol) if np.isfinite(max_viol) else None
        return Report(verdict, mv, witness, samples_used, cfg.seed, flags=flags,
                      notes=notes + more_notes, refined=refined)

    if best is not None:
        return report(Verdict.VIOLATED, best[1], refined=tuple(confirmed))
    if err_flat != _BIG:
        return report(Verdict.DOMAIN_ERROR, more_notes=(err_note,))
    if violated:
        # bulk scan saw a violation but the refined re-evaluation did not
        # confirm it; report the conservative verdict with the raw value
        return report(Verdict.HOLDS_ON_SAMPLES, more_notes=(
            "unconfirmed raw violation did not survive re-evaluation",))
    return report(Verdict.HOLDS_ON_SAMPLES)


def check_geodesic_phiE_convex_fn(
    inst: Instance, cfg: CheckConfig, strict: bool = False
) -> Report:
    """Test h(curve(t)) <= h(E(mu2)) + t*phi(h(E(mu1)), h(E(mu2))) along
    geodesics between E-images of sampled member pairs.

    The domain must first pass the geodesic E-convex set check on the same
    budget; otherwise the premise fails.  Strict mode additionally demands
    a > tol margin whenever the E-images differ and t is interior.
    """
    set_report = check_geodesic_E_convex_set(inst.manifold, inst.E, inst.domain, cfg)
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
    notes = ("strict margin of 2*tol folded into rhs",) if strict else ()
    return _finish_scan(_ConvexityScan(inst, cfg, strict), cfg, notes=notes)


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
        _ConvexityScan(inst, cfg, strict), cfg, top_k=8, force_refine=True,
        notes=("counterexample search: refined top candidates",),
    )


# ---------------------------------------------------------------------------
# slope form on Euclidean(1)

@dataclass
class _SlopeScan(_Scan):
    """Rows (mu1, mu, mu2) of three sampled points; one lane per row."""

    inst: Instance
    cfg: CheckConfig

    has_t = False
    notes = dict.fromkeys(
        (_PAIR_BAD, _E_BAD, _VAL_BAD), "evaluation failed on triple {i}"
    )

    def lanes_per_pair(self) -> int:
        return 2

    def bulk_grid(self):
        return None

    def sample(self, bases):
        pts, oks = zip(*(
            sample_members(self.inst.domain, bases, region=region, on_fail="mask")
            for region in range(3)
        ))
        return np.hstack(pts), oks[0] & oks[1] & oks[2]

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

    def probe_rows(self, rows):
        ok = member_mask_batch(self.inst.domain, rows.reshape(-1, 1)).reshape(-1, 3)
        return rows, ok[:, 0] & ok[:, 1] & ok[:, 2]

    def intervals(self):
        return list(self.inst.domain.box) * 3

    def merge_extras(self, extras):
        self._admissible = sum(e["counted"] for e in extras)
        return {}

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
    scan = _SlopeScan(inst, cfg)
    report = _finish_scan(scan, cfg)
    admissible = scan._admissible
    if report.verdict is Verdict.HOLDS_ON_SAMPLES and admissible == 0:
        return Report(
            Verdict.PREMISE_FAILED,
            None,
            None,
            report.samples_used,
            cfg.seed,
            notes=("no sampled triple satisfied E(mu1) < E(mu) < E(mu2)",),
        )
    return replace(report, flags={**report.flags, "admissible_triples": admissible})


# ---------------------------------------------------------------------------
# geodesic E-convex sets

@dataclass
class _SetScan(_PairScan):
    manifold: Manifold
    E: EndoMap
    B: DomainSet
    cfg: CheckConfig

    notes = {
        **_PAIR_NOTES,
        _LANE: "membership predicate failed to evaluate on a curve point",
    }

    @property
    def domain(self) -> DomainSet:
        return self.B

    def lanes(self, rows, T, images=None):
        d = self.manifold.ambient_dim
        W, code = images or _pair_images(self.manifold, self.E, rows[:, :d], rows[:, d:])
        viol = np.empty((rows.shape[0], T.shape[1]))
        err = np.repeat(code[:, None], T.shape[1], axis=1)
        with np.errstate(all="ignore"):
            curve = geodesic_fan(self.manifold, *_halves(W))
            for j in range(T.shape[1]):
                margin = outside_margin_batch(self.B, curve(T[:, j]))
                viol[:, j] = margin
                err[(code == _OK) & ~np.isfinite(margin), j] = _LANE
        return viol, self.cfg.tol_abs + self.cfg.tol_rel, err  # rhs of a margin test is 0

    def bulk_lanes(self, rows, ok, T):
        # the length-discrepancy counters reuse the lanes' E-images
        cfg = self.cfg
        m = self.manifold
        d = m.ambient_dim
        U1, U2 = rows[:, :d], rows[:, d:]
        images = _pair_images(m, self.E, U1, U2)
        W, code = images
        W1, W2 = _halves(W)
        ok_rows = ok & (code == _OK)
        with np.errstate(all="ignore"):
            d_im = distance_batch(m, W1, W2)
            d_base = distance_batch(m, U1, U2)
        len_disc = np.where(ok_rows, np.abs(d_im - d_base), 0.0)
        len_thr = cfg.tol_abs + cfg.tol_rel * np.maximum(1.0, np.abs(d_base))
        return (*self.lanes(rows, T, images), {
            "len_bad": int(np.sum(ok_rows & (len_disc > len_thr))),
            "max_len_disc": float(np.max(len_disc, initial=0.0)),
        })

    def merge_extras(self, extras):
        len_bad = sum(e["len_bad"] for e in extras)
        max_disc = max(e["max_len_disc"] for e in extras)
        self._length_note = (
            f"geodesic length vs base distance: max discrepancy {max_disc!r}, "
            f"{len_bad} pair(s) beyond tolerance"
        )
        return {"length_matches_base_distance": len_bad == 0}

    def witness(self, z) -> Witness | None:
        m = self.manifold
        row, t = self._probe_point(z)
        u1, u2 = np.split(row, 2)
        images = _scalar_images(m, self.E, u1, u2)
        if images is None:
            return None
        w1, w2 = images
        gp = geodesic_batch(m, w1[None, :], w2[None, :], t)
        margin = float(outside_margin_batch(self.B, gp)[0])
        return _margin_witness((Point(tuple(u1)), Point(tuple(u2))), t, margin)


def check_geodesic_E_convex_set(
    m: Manifold, E: EndoMap, B: DomainSet, cfg: CheckConfig
) -> Report:
    """For sampled member pairs, the geodesic between their E-images must
    stay inside B.  Whether the geodesic's length matches the base-point
    distance is reported as the separate flag `length_matches_base_distance`
    and never folds into the verdict.
    """
    scan = _SetScan(m, E, B, cfg)
    report = _finish_scan(scan, cfg)
    return replace(report, notes=report.notes + (scan._length_note,))


# ---------------------------------------------------------------------------
# product-space sets

@dataclass
class _ProductSetScan(_PairScan):
    """Rows (u1, v1, u2, v2) of two sampled product-set members."""

    manifold: Manifold
    E: EndoMap
    phi: Bifunction
    S: ProductSet
    cfg: CheckConfig

    skips_unsampled = True
    notes = {
        **dict.fromkeys((_E_BAD, _ANTI, _VAL_BAD), "E, geodesic, or phi failed on member pair {i}"),
        _LANE: "graph predicate failed to evaluate on a candidate",
    }

    def _split(self, rows):
        d = self.manifold.ambient_dim
        return rows[..., :d], rows[..., d], rows[..., d + 1 : 2 * d + 1], rows[..., 2 * d + 1]

    def sample(self, bases):
        (U1, V1), ok1 = sample_product_members(self.S, bases, region=0, on_fail="mask")
        (U2, V2), ok2 = sample_product_members(self.S, bases, region=1, on_fail="mask")
        return np.hstack([U1, V1[:, None], U2, V2[:, None]]), ok1 & ok2

    def lanes(self, rows, T):
        m = self.manifold
        U1, V1, U2, V2 = self._split(rows)
        W, code = _pair_images(m, self.E, U1, U2)
        pv = self.phi.eval_batch(V1, V2)
        code[(code == _OK) & ~np.isfinite(pv)] = _VAL_BAD
        viol = np.empty((rows.shape[0], T.shape[1]))
        err = np.repeat(code[:, None], T.shape[1], axis=1)
        with np.errstate(all="ignore"):
            curve = geodesic_fan(m, *_halves(W))
            for j in range(T.shape[1]):
                t = T[:, j]
                margin = self.S.outside_margin(curve(t), V2 + t * pv)
                viol[:, j] = margin
                err[(code == _OK) & ~np.isfinite(margin), j] = _LANE
        return viol, self.cfg.tol_abs + self.cfg.tol_rel, err

    def probe_rows(self, rows):
        m = self.manifold
        U1, V1, U2, V2 = self._split(rows)
        U, ok = _on_manifold(m, np.vstack([U1, U2]))
        V = np.concatenate([V1, V2])
        ok &= self.S.member_mask(U, V)
        U1, U2 = _halves(U)
        return np.hstack([U1, V1[:, None], U2, V2[:, None]]), np.logical_and(*_halves(ok))

    def intervals(self):
        box = list(self.S.base.box)
        vr = [tuple(self.S.v_range)]
        return box + vr + box + vr + [(0.0, 1.0)]

    def merge_extras(self, extras):
        self._unsampled = sum(e["unsampled"] for e in extras)
        self._n = sum(e["n"] for e in extras)
        return {}

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
        margin = float(self.S.outside_margin(gp, np.array([w]))[0])
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
    scan = _ProductSetScan(m, E, phi, S, cfg)
    report = _finish_scan(scan, cfg)
    unsampled = scan._unsampled
    if unsampled == scan._n:
        return Report(
            Verdict.HOLDS_ON_SAMPLES, None, None, 0, cfg.seed,
            notes=("no members found; membership condition is vacuous",),
        )
    if unsampled > 0 and report.verdict is Verdict.HOLDS_ON_SAMPLES:
        return replace(
            report, samples_used=report.samples_used - unsampled,
            notes=report.notes + (f"{unsampled} draws found no member and were skipped",),
        )
    return report


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
        n = cfg.samples
        best_d = np.inf
        best_mu = None
        for i0, i1 in _chunk_ranges(n, 1):
            bases = rng.base_array(cfg.seed, np.arange(i0, i1, dtype=np.uint64))
            U, ok = sample_members(inst.domain, bases, region=5, on_fail="mask")
            W = inst.E.eval_batch(U)
            with np.errstate(all="ignore"):
                dist = row_norm(W - target[None, :])
            dist = np.where(ok & np.isfinite(dist), dist, np.inf)
            k = int(np.argmin(dist))
            if dist[k] < best_d:
                best_d = float(dist[k])
                best_mu = tuple(U[k])
        if best_mu is None:
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
