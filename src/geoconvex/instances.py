"""Seeded instance families for the statement suites and acceptance runs.

Each family mixes clearly-holding and clearly-violated cases with decisive
margins, so sampled verdicts are stable across budgets.  Everything is a
pure function of the seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import DomainSet, Instance, ProductSet
from .exprlang import Bifunction, Binary, EndoMap, Expr, ScalarFn, Var, parse, point_vars
from .manifold import Point, euclidean, sphere
from .rng import Stream
from .theorems import TheoremId, diffeo_from_endomaps, stereographic_diffeo

_F_INTERVAL = 0
_F_EPIGRAPH = 1
_F_CLOSURE = 2
_F_SMOOTH = 3
_F_THEOREM = 4

# extra headroom of an epigraph set's v window, past one span of h above its max
QUAD_EPIGRAPH_PAD = 4.0


def _affine_contraction(s: Stream) -> EndoMap:
    a = s.uniform(0.2, 0.5) * (1.0 if s.uniform() < 0.5 else -1.0)
    b = s.uniform(-0.2, 0.2)
    return EndoMap.from_source(f"{a!r}*x1 + {b!r}", 1)


def _convex_quad(s: Stream, floor: float | None = None) -> ScalarFn:
    a2 = s.uniform(0.3, 1.5)
    a1 = s.uniform(-1.0, 1.0)
    if floor is None:
        a0 = s.uniform(-1.0, 1.0)
    else:
        a0 = floor + a1 * a1 / (4.0 * a2)  # min of the parabola sits at floor
    return ScalarFn.from_source(f"{a2!r}*x1^2 + {a1!r}*x1 + {a0!r}", 1)


def interval_instance(seed: int) -> Instance:
    """1-D mix: convex/holds, diagonal-gap violation, concave violation.

    All three shapes produce two-sided violations (or none), so the
    combination and slope forms agree on every member.
    """
    s = Stream(seed, _F_INTERVAL)
    roll = s.uniform()
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    E = _affine_contraction(s)
    if roll < 0.4:
        if s.uniform() < 0.7:
            h = _convex_quad(s)
        else:
            c0 = s.uniform(0.3, 1.5)
            c1 = s.uniform(0.3, 0.8) * (1.0 if s.uniform() < 0.5 else -1.0)
            h = ScalarFn.from_source(f"{c0!r}*exp({c1!r}*x1)", 1)
        phi = Bifunction.from_source("a - b")
        label = "convex"
    elif roll < 0.7:
        h = _convex_quad(s, floor=0.5)
        sc = s.uniform(1.3, 2.0)
        phi = Bifunction.from_source(f"a - {sc!r}*b")
        label = "diagonal gap"
    else:
        a2 = s.uniform(0.3, 1.5)
        a1 = s.uniform(-1.0, 1.0)
        a0 = s.uniform(-1.0, 1.0)
        h = ScalarFn.from_source(f"-{a2!r}*x1^2 + {a1!r}*x1 + {a0!r}", 1)
        phi = Bifunction.from_source("a - b")
        label = "concave"
    return Instance(dom.manifold, h, E, phi, dom, label=f"interval[{label}] seed={seed}")


def epigraph_instance(seed: int) -> Instance:
    """Instances with non-decreasing gap functions for the epigraph
    characterization: both-hold and both-violated mixes across Euclidean(1),
    Euclidean(2), and the upper spherical cap."""
    s = Stream(seed, _F_EPIGRAPH)
    mroll = s.uniform()
    convex = s.uniform() < 0.6
    c = s.uniform(1.2, 2.0)
    if convex:
        alpha = s.uniform(0.0, 0.5)
        beta = s.uniform(0.0, 0.5)
        phi = Bifunction.from_source(f"{1.0 + alpha!r}*a + {beta!r}*b")
    else:
        alpha = s.uniform(0.0, 0.05)
        beta = s.uniform(0.0, 0.05)
        phi = Bifunction.from_source(f"{alpha!r}*a + {beta!r}*b")
    if mroll < 0.6:
        dom = DomainSet(euclidean(1), ((-1.0, 1.0),))
        h = ScalarFn.from_source(f"x1^2 + {c!r}" if convex else f"{c!r} - x1^2", 1)
        if s.uniform() < 0.7:
            E = EndoMap.identity(1)
        else:
            E = EndoMap.from_source(f"{s.uniform(-0.5, 0.5)!r}", 1)
        m = dom.manifold
    elif mroll < 0.8:
        dom = DomainSet(euclidean(2), ((-1.0, 1.0), (-1.0, 1.0)))
        h = ScalarFn.from_source(
            f"x1^2 + x2^2 + {c!r}" if convex else f"{c!r} - x1^2 - x2^2", 2
        )
        E = EndoMap.identity(2)
        m = dom.manifold
    else:
        dom = _upper_cap()
        m = dom.manifold
        h = ScalarFn.from_source("2 - 2*x3" if convex else "2*x3", 3)
        E = EndoMap.identity(3)
    return Instance(m, h, E, phi, dom, label=f"epigraph[{'holds' if convex else 'violated'}] seed={seed}")


def closure_family(kind: str, seed: int):
    """(instances, weights) with passing premises for each closure kind."""
    s = Stream(seed, _F_CLOSURE)
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    E = _affine_contraction(s)
    if kind == "SupFamily":
        phi = Bifunction.from_source("a")
        count = 2 + s.randint(2)
        insts = [
            Instance(dom.manifold, _convex_quad(s, floor=s.uniform(0.0, 0.5)), E, phi, dom)
            for _ in range(count)
        ]
        return insts, None
    phi = Bifunction.from_source("a - b")
    if kind == "Scaling":
        insts = [Instance(dom.manifold, _convex_quad(s), E, phi, dom)]
        weights = [s.uniform(0.0, 3.0)]
    elif kind == "Sum":
        insts = [
            Instance(dom.manifold, _convex_quad(s), E, phi, dom),
            Instance(
                dom.manifold,
                ScalarFn.from_source(
                    f"{s.uniform(0.3, 1.0)!r}*exp({s.uniform(0.2, 0.6)!r}*x1)", 1
                ),
                E, phi, dom,
            ),
        ]
        weights = None
    else:  # WeightedSum
        count = 2 + s.randint(2)
        insts = [Instance(dom.manifold, _convex_quad(s), E, phi, dom) for _ in range(count)]
        weights = [s.uniform(0.0, 2.0) for _ in range(count)]
    return insts, weights


def composition_case(seed: int):
    """(inner instance, outer 1-D function) with passing premises."""
    s = Stream(seed, _F_CLOSURE + 16)
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    E = _affine_contraction(s)
    phi = Bifunction.from_source("a - b")
    h1 = _convex_quad(s)
    inner = Instance(dom.manifold, h1, E, phi, dom)
    outer = ScalarFn.from_source(f"exp({s.uniform(0.2, 0.8)!r}*x1)", 1)
    return inner, outer


def smooth_increasing_instance(seed: int):
    """Smooth convex h with nonnegative slope over the E-image, increasing
    affine E; returns (instance, (lo, hi) of the image interval)."""
    s = Stream(seed, _F_SMOOTH)
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    a = s.uniform(0.3, 1.0)
    b = s.uniform(-0.3, 0.3)
    E = EndoMap.from_source(f"{a!r}*x1 + {b!r}", 1)
    e_lo, e_hi = sorted((a * -R + b, a * R + b))
    if s.uniform() < 0.5:
        c = s.uniform(0.4, 1.0)
        h = ScalarFn.from_source(f"exp({c!r}*x1)", 1)
    else:
        shift = e_lo - s.uniform(0.1, 1.0)
        h = ScalarFn.from_source(f"(x1 - {shift!r})^2", 1)
    phi = Bifunction.from_source("a - b")
    inst = Instance(dom.manifold, h, E, phi, dom, label=f"smooth seed={seed}")
    return inst, (e_lo, e_hi)


def quad_epigraph_set(h: ScalarFn, dom: DomainSet) -> ProductSet:
    """Epigraph of a 1-D function over its domain box as a ProductSet."""
    xs = np.linspace(dom.box[0][0], dom.box[0][1], 257)[:, None]
    vals = h.eval_batch(xs)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    names = point_vars(1) + ("v",)
    graph = Expr(Binary("-", Var("v"), h.expr.root), names)
    return ProductSet(dom, graph, (lo, hi + max(1.0, hi - lo) + QUAD_EPIGRAPH_PAD))


def intersection_case(seed: int):
    """(manifold, E, phi, product sets) for the intersection statement."""
    s = Stream(seed, _F_CLOSURE + 32)
    R = s.uniform(1.0, 1.5)
    dom = DomainSet(euclidean(1), ((-R, R),))
    E = EndoMap.identity(1)
    phi = Bifunction.from_source("a - b")
    count = 2 + s.randint(2)
    sets = [quad_epigraph_set(_convex_quad(s), dom) for _ in range(count)]
    return dom.manifold, E, phi, sets


def strict_instance(seed: int) -> Instance:
    s = Stream(seed, _F_SMOOTH + 8)
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    a2 = s.uniform(0.5, 1.5)
    a1 = s.uniform(-0.5, 0.5)
    h = ScalarFn.from_source(f"{a2!r}*x1^2 + {a1!r}*x1", 1)
    return Instance(
        dom.manifold, h, EndoMap.identity(1), Bifunction.from_source("a - b"), dom,
        label=f"strict seed={seed}",
    )


def local_min_case(seed: int):
    s = Stream(seed, _F_SMOOTH + 16)
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    mstar = s.uniform(-0.3 * R, 0.3 * R)
    h = ScalarFn.from_source(f"(x1 - {mstar!r})^2 + {s.uniform(0.0, 1.0)!r}", 1)
    inst = Instance(
        dom.manifold, h, EndoMap.identity(1), Bifunction.from_source("a - b"), dom
    )
    return inst, Point((mstar,))


def continuity_case(seed: int):
    """(instance, K, eps) with the bound premise satisfied by construction."""
    s = Stream(seed, _F_SMOOTH + 24)
    inst = interval_holds_instance(seed)
    # cheap sampled bound for phi over the value range
    xs = np.linspace(inst.domain.box[0][0], inst.domain.box[0][1], 129)[:, None]
    W = inst.E.eval_batch(xs)
    H = inst.h.eval_batch(W)
    A, B = np.meshgrid(H, H)
    sup_phi = float(np.max(inst.phi.eval_batch(A.ravel(), B.ravel())))
    K = sup_phi * 1.05 + 0.5
    eps = s.uniform(0.1, 0.3) * inst.domain.scale() / 2.0
    return inst, K, eps


def interval_holds_instance(seed: int) -> Instance:
    """Convex member of the 1-D family (always the holding shape)."""
    s = Stream(seed, _F_INTERVAL + 64)
    R = s.uniform(1.0, 2.0)
    dom = DomainSet(euclidean(1), ((-R, R),))
    E = _affine_contraction(s)
    h = _convex_quad(s)
    phi = Bifunction.from_source("a - b")
    return Instance(dom.manifold, h, E, phi, dom, label=f"convex seed={seed}")


def _upper_cap() -> DomainSet:
    """The cap x3 > 0.5 of the unit 2-sphere."""
    return DomainSet(sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3)))


def sphere_cap_instance(seed: int) -> Instance:
    dom = _upper_cap()
    h = ScalarFn.from_source("2 - 2*x3", 3)
    return Instance(dom.manifold, h, EndoMap.identity(3), Bifunction.from_source("a - b"), dom,
                    label=f"cap seed={seed}")


def diffeo_case(seed: int):
    """(instance, diffeo); every fourth case transports the spherical cap
    through the stereographic chart."""
    s = Stream(seed, _F_THEOREM)
    if seed % 4 == 3:
        return sphere_cap_instance(seed), stereographic_diffeo()
    inst = interval_holds_instance(seed)
    p = s.uniform(0.5, 2.0) * (1.0 if s.uniform() < 0.5 else -1.0)
    q = s.uniform(-1.0, 1.0)
    H = EndoMap.from_source(f"{p!r}*x1 + {q!r}", 1)
    Hinv = EndoMap.from_source(f"(x1 - {q!r})/{p!r}", 1)
    return inst, diffeo_from_endomaps(inst.manifold, H, Hinv, "affine")


def phi_limit_case(seed: int, mode: str):
    inst = interval_holds_instance(seed)
    if mode == "Pointwise":
        phis = [Bifunction.from_source(f"a - b + {1.0 / i!r}") for i in range(1, 9)]
    else:
        parts = ["a - b + 0.5"] + [f"{-(2.0 ** -l)!r}" for l in range(2, 9)]
        phis = [Bifunction.from_source(p) for p in parts]
    return inst, phis


def sup_epigraph_case(seed: int):
    s = Stream(seed, _F_THEOREM + 8)
    dom = DomainSet(euclidean(1), ((-1.0, 1.0),))
    alpha = s.uniform(0.0, 0.3)
    beta = s.uniform(0.0, 0.3)
    phi = Bifunction.from_source(f"{1.0 + alpha!r}*a + {beta!r}*b")
    E = EndoMap.identity(1)
    insts = [
        Instance(dom.manifold, _convex_quad(s, floor=s.uniform(0.0, 0.5)), E, phi, dom)
        for _ in range(2 + s.randint(2))
    ]
    return insts


def theorem_case(tid: TheoremId, seed: int, cfg):
    """Callable + kwargs for one premise-passing seeded case of the id."""
    from . import theorems as th

    if tid is TheoremId.MEAN_VALUE_31:
        inst, (lo, hi) = smooth_increasing_instance(seed)
        box = inst.domain.box[0]
        return th.verify_mean_value, {
            "inst": inst, "u1": box[1] * 0.8, "u2": box[0] * 0.8, "cfg": cfg,
        }
    if tid is TheoremId.THREE_POINT_32:
        inst, _ = smooth_increasing_instance(seed)
        lo, hi = inst.domain.box[0]
        span = hi - lo
        # E is increasing by construction, so sorted mu gives sorted images
        mus = sorted(lo + span * f for f in (0.15, 0.5, 0.85))
        return th.verify_three_point, {
            "inst": inst, "mu1": mus[0], "mu2": mus[1], "mu3": mus[2], "cfg": cfg,
        }
    if tid in th.CLOSURE_KINDS:
        kind = th.CLOSURE_KINDS[tid]
        insts, weights = closure_family(kind, seed)
        return th.verify_closure, {
            "kind": kind, "insts": insts, "weights": weights, "cfg": cfg,
        }
    if tid is TheoremId.COMPOSITION:
        inner, outer = composition_case(seed)
        return th.verify_composition, {"h1_inst": inner, "h2": outer, "cfg": cfg}
    if tid is TheoremId.DIFFEO_INVARIANCE:
        inst, diffeo = diffeo_case(seed)
        return th.verify_diffeo_invariance, {"inst": inst, "diffeo": diffeo, "cfg": cfg}
    if tid is TheoremId.CONTINUITY_BOUND:
        inst, K, eps = continuity_case(seed)
        return th.verify_continuity_bound, {"inst": inst, "K": K, "eps": eps, "cfg": cfg}
    if tid is TheoremId.CHART_CONTINUITY:
        inst, K, eps = continuity_case(seed)
        return th.verify_chart_continuity, {"inst": inst, "K": K, "eps": eps, "cfg": cfg}
    if tid is TheoremId.LOCAL_MIN:
        inst, mu_star = local_min_case(seed)
        return th.verify_local_min, {"inst": inst, "mu_star": mu_star, "cfg": cfg}
    if tid is TheoremId.PHI_LIMIT:
        inst, phis = phi_limit_case(seed, "Pointwise")
        return th.verify_phi_limit, {"inst_base": inst, "phis": phis,
                                     "mode": "Pointwise", "cfg": cfg}
    if tid is TheoremId.PHI_SERIES_LIMIT:
        inst, phis = phi_limit_case(seed, "PartialSums")
        return th.verify_phi_limit, {"inst_base": inst, "phis": phis,
                                     "mode": "PartialSums", "cfg": cfg}
    if tid is TheoremId.STRICT_DIFFERENTIAL:
        return th.verify_strict_differential, {"inst": strict_instance(seed), "cfg": cfg}
    if tid is TheoremId.EPIGRAPH_EQUIV:
        return th.verify_epigraph_equiv, {"inst": epigraph_instance(seed), "cfg": cfg}
    if tid is TheoremId.INTERSECTION_52:
        m, E, phi, sets = intersection_case(seed)
        return th.verify_intersection, {"m": m, "E": E, "phi": phi,
                                        "sets": sets, "cfg": cfg}
    if tid is TheoremId.SUP_EPIGRAPH_COR:
        return th.verify_sup_epigraph, {"insts": sup_epigraph_case(seed), "cfg": cfg}
    raise ValueError(f"no case builder for {tid}")
