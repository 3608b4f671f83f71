from functools import partial

import numpy as np
import pytest

from geoconvex import (
    Bifunction,
    CheckConfig,
    DomainSet,
    EndoMap,
    Instance,
    ProductSet,
    ScalarFn,
    Verdict,
    check_geodesic_E_convex_set,
    check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set,
    check_phiE_convex_interval,
    check_slope_inequality,
    epigraph_membership,
    euclidean,
    poincare_ball,
    search_counterexample,
    sphere,
)
from geoconvex.algebra import member_mask_batch
from geoconvex.checker import _halves, _on_manifold
from geoconvex.errors import InverseSearchFailedError
from geoconvex.exprlang import parse, point_vars

CFG = CheckConfig(seed=42, samples=3000)
E1 = euclidean(1)


def _inst1d(h, phi, box, E=None, membership=None):
    dom = DomainSet(E1, (box,), membership)
    Emap = EndoMap.from_source(E, 1) if E else EndoMap.identity(1)
    return Instance(E1, ScalarFn.from_source(h, 1), Emap,
                    Bifunction.from_source(phi), dom)


def test_piecewise_constant_remap_holds():
    inst = _inst1d("if(x1 >= 0, 1, -(x1^2))", "a - 2*b", (-2.0, 2.0), E="-1")
    rep = check_phiE_convex_interval(inst, CFG)
    assert rep.holds
    assert rep.max_violation <= 1e-9


def test_affine_equality_case():
    inst = _inst1d("x1", "a - b", (-1.0, 1.0))
    rep = check_phiE_convex_interval(inst, CFG)
    assert rep.holds
    assert rep.max_violation <= 1e-12


def test_piecewise_identity_remap_violated():
    inst = _inst1d("if(x1 >= 0, 1, -(x1^2))", "a - 2*b", (0.5, 2.0))
    rep = check_phiE_convex_interval(inst, CFG)
    assert rep.verdict is Verdict.VIOLATED
    assert rep.witness.violation >= 0.5 - 1e-9
    # hand value at u1 = u2 = 1, t = 0.5: lhs 1, rhs 0.5
    h = inst.h
    assert h((1.0,)) == 1.0
    assert h((1.0,)) + 0.5 * inst.phi(h((1.0,)), h((1.0,))) == 0.5


def test_slope_inequality_examples():
    conv = _inst1d("x1^2", "a - b", (0.0, 1.0))
    assert check_slope_inequality(conv, CFG).holds
    aff = _inst1d("3*x1 + 1", "a - b", (0.0, 1.0))
    rep = check_slope_inequality(aff, CFG)
    assert rep.holds and rep.max_violation <= 1e-9
    conc = _inst1d("-(x1^2)", "a - b", (0.0, 1.0))
    rep2 = check_slope_inequality(conc, CFG)
    assert rep2.verdict is Verdict.VIOLATED
    # hand triple (0, 0.5, 1): quotient -1.5 against gap ratio -1
    assert rep2.witness.violation > 1e-9


def test_slope_premise_failed_for_constant_remap():
    inst = _inst1d("x1^2", "a - b", (0.0, 1.0), E="0.25")
    rep = check_slope_inequality(inst, CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


def test_set_check_identity_box():
    dom = DomainSet(euclidean(2), ((-1.0, 1.0), (-1.0, 1.0)))
    rep = check_geodesic_E_convex_set(euclidean(2), EndoMap.identity(2), dom, CFG)
    assert rep.holds
    assert rep.flags["length_matches_base_distance"] is True


def test_set_check_square_remap_length_flag():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    rep = check_geodesic_E_convex_set(E1, EndoMap.from_source("x1^2", 1), dom, CFG)
    assert rep.holds  # containment: images and segments stay in [0, 1]
    assert rep.flags["length_matches_base_distance"] is False


def test_set_check_sphere_cap():
    cap = DomainSet(sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3)))
    rep = check_geodesic_E_convex_set(sphere(2), EndoMap.identity(3), cap, CFG)
    assert rep.holds


def test_set_check_violated_for_nonconvex_membership():
    # two disjoint lobes: segments between them leave the set
    dom = DomainSet(E1, ((-2.0, 2.0),), parse("x1^2 - 1", point_vars(1)))
    rep = check_geodesic_E_convex_set(E1, EndoMap.identity(1), dom, CFG)
    assert rep.verdict is Verdict.VIOLATED
    assert rep.witness.violation > 1e-9


def test_fn_check_requires_set_premise():
    dom = DomainSet(E1, ((-2.0, 2.0),), parse("x1^2 - 1", point_vars(1)))
    inst = Instance(E1, ScalarFn.from_source("x1^2", 1), EndoMap.identity(1),
                    Bifunction.from_source("a - b"), dom)
    rep = check_geodesic_phiE_convex_fn(inst, CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


def test_fn_check_reduces_to_interval_on_flat_line():
    from geoconvex.instances import interval_instance

    for seed in range(12):
        inst = interval_instance(seed)
        a = check_geodesic_phiE_convex_fn(inst, CFG)
        b = check_phiE_convex_interval(inst, CFG)
        assert a.verdict == b.verdict
        if a.witness is not None:
            assert a.witness == b.witness


def test_constant_function_strict_mode():
    inst = _inst1d("2", "a - b", (-1.0, 1.0))
    plain = check_geodesic_phiE_convex_fn(inst, CFG)
    assert plain.holds and plain.max_violation <= 1e-12
    strict = check_geodesic_phiE_convex_fn(inst, CFG, strict=True)
    assert strict.verdict is Verdict.VIOLATED  # equality is never strict


def test_strictly_convex_passes_strict_mode():
    inst = _inst1d("x1^2", "a - b", (-1.0, 1.0))
    rep = check_geodesic_phiE_convex_fn(inst, CFG, strict=True)
    assert rep.holds


def test_sphere_cap_distance_function():
    cap = DomainSet(sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3)))
    inst = Instance(sphere(2), ScalarFn.from_source("2 - 2*x3", 3),
                    EndoMap.identity(3), Bifunction.from_source("a - b"), cap)
    rep = check_geodesic_phiE_convex_fn(inst, CFG)
    assert rep.holds


def test_ball_hyperbolic_distance_function():
    dom = DomainSet(poincare_ball(2), ((-0.7, 0.7), (-0.7, 0.7)))
    h = ScalarFn.from_source("(2*artanh(sqrt(x1^2 + x2^2 + 1e-30)))^2", 2)
    inst = Instance(poincare_ball(2), h, EndoMap.identity(2),
                    Bifunction.from_source("a - b"), dom)
    rep = check_geodesic_phiE_convex_fn(inst, CFG)
    assert rep.holds


def test_product_set_epigraph_of_square():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    graph = parse("v - x1^2", point_vars(1) + ("v",))
    S = ProductSet(dom, graph, (0.0, 3.0))
    rep = check_geodesic_phiE_convex_set(
        E1, EndoMap.identity(1), Bifunction.from_source("a - b"), S, CFG
    )
    assert rep.holds


def test_product_set_hypograph_violated():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    graph = parse("v - (-(x1^2))", point_vars(1) + ("v",))  # epigraph of -x^2
    S = ProductSet(dom, graph, (-1.0, 2.0))
    rep = check_geodesic_phiE_convex_set(
        E1, EndoMap.identity(1), Bifunction.from_source("a - b"), S, CFG
    )
    assert rep.verdict is Verdict.VIOLATED
    assert rep.witness.violation > 1e-9


def test_product_set_unconstrained_v_holds():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    graph = parse("1", point_vars(1) + ("v",))
    S = ProductSet(dom, graph, (-1.0, 1.0))
    rep = check_geodesic_phiE_convex_set(
        E1, EndoMap.identity(1), Bifunction.from_source("a - b"), S, CFG
    )
    assert rep.holds


def test_product_set_vacuous_when_empty():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    graph = parse("-1", point_vars(1) + ("v",))  # never a member
    S = ProductSet(dom, graph, (0.0, 1.0))
    rep = check_geodesic_phiE_convex_set(
        E1, EndoMap.identity(1), Bifunction.from_source("a - b"), S, CFG
    )
    assert rep.holds and rep.samples_used == 0
    assert any("vacuous" in n for n in rep.notes)


def test_epigraph_membership():
    inst = _inst1d("x1^2", "a - b", (-1.0, 1.0))
    member = epigraph_membership(inst, CFG)
    assert member((0.5,), 0.25) is True
    assert member((0.5,), 0.2) is False


def test_epigraph_membership_constant_remap():
    inst = _inst1d("if(x1 >= 0, 1, -(x1^2))", "a - 2*b", (-2.0, 2.0), E="-1")
    member = epigraph_membership(inst, CFG)
    assert member((-1.0,), -1.0) is True
    with pytest.raises(InverseSearchFailedError):
        member((0.5,), 10.0)


def test_epigraph_membership_square_remap_image():
    inst = _inst1d("x1", "a - b", (-1.0, 1.0), E="x1^2")
    member = epigraph_membership(inst, CFG)
    with pytest.raises(InverseSearchFailedError):
        member((-0.5,), 10.0)
    assert member((0.25,), 1.0) is True


def test_witness_revalidates():
    inst = _inst1d("if(x1 >= 0, 1, -(x1^2))", "a - 2*b", (0.5, 2.0))
    rep = check_phiE_convex_interval(inst, CFG)
    w = rep.witness
    u1, u2, t = w.points[0].coords[0], w.points[1].coords[0], w.t
    e1 = inst.E((u1,))[0]
    e2 = inst.E((u2,))[0]
    lhs = inst.h((t * e1 + (1 - t) * e2,))
    rhs = inst.h((e2,)) + t * inst.phi(inst.h((e1,)), inst.h((e2,)))
    assert lhs - rhs == pytest.approx(w.violation, abs=1e-12)
    assert w.violation > CFG.threshold(rhs)


def test_determinism_across_workers_and_runs():
    inst = _inst1d("x1^2 - 0.05*x1^4", "a - b", (-1.5, 1.5))
    base = check_geodesic_phiE_convex_fn(inst, CFG)
    again = check_geodesic_phiE_convex_fn(inst, CFG)
    assert base == again
    par = check_geodesic_phiE_convex_fn(inst, CFG.replace(workers=8))
    assert base.to_dict() == par.to_dict()


def test_search_counterexample_forces_refinement():
    inst = _inst1d("-(x1^2)", "a - b", (-1.0, 1.0))
    rep = search_counterexample(inst, CFG)
    assert rep.verdict is Verdict.VIOLATED
    assert len(rep.refined) >= 1
    for w in rep.refined:
        assert w.violation > 1e-9
        assert w.origin_index is not None


def test_domain_error_reported():
    inst = _inst1d("log(x1)", "a - b", (0.5, 2.0), E="x1 - 1")
    rep = check_phiE_convex_interval(inst, CFG)
    assert rep.verdict is Verdict.DOMAIN_ERROR
    assert rep.notes


def test_restriction_to_curve_equivalence():
    # the inequality along a curve equals the 1-D combination inequality of
    # the pullback K(t) = h(curve(t)) with endpoints K(1), K(0)
    from geoconvex.manifold import GeodesicSpec, Point, geodesic
    from geoconvex.instances import sphere_cap_instance

    inst = sphere_cap_instance(3)
    rngen = np.random.default_rng(13)
    for _ in range(10):
        pts = []
        while len(pts) < 2:
            v = rngen.standard_normal(3)
            v = v / np.linalg.norm(v)
            if v[2] > 0.55:
                pts.append(Point(tuple(v)))
        mu1, mu2 = pts
        w1 = Point(inst.E(mu1.coords))
        w2 = Point(inst.E(mu2.coords))
        spec = GeodesicSpec(inst.manifold, w1, w2)

        def K(t):
            return inst.h(geodesic(spec, t).coords)

        for t in np.linspace(0, 1, 9):
            direct_lhs = inst.h(geodesic(spec, float(t)).coords)
            direct_rhs = inst.h(w2.coords) + t * inst.phi(
                inst.h(w1.coords), inst.h(w2.coords)
            )
            pulled_lhs = K(float(t))
            pulled_rhs = K(0.0) + t * inst.phi(K(1.0), K(0.0))
            assert pulled_lhs == direct_lhs
            assert pulled_rhs == pytest.approx(direct_rhs, abs=1e-12)


def _convexity_gap(inst, w):
    """Scalar lhs - rhs of a convexity witness along the E-image geodesic."""
    from geoconvex.manifold import GeodesicSpec, Point, geodesic

    e1, e2 = inst.E(w.points[0].coords), inst.E(w.points[1].coords)
    curve = geodesic(GeodesicSpec(inst.manifold, Point(e1), Point(e2)), w.t)
    h1, h2 = inst.h(e1), inst.h(e2)
    rhs = h2 + w.t * inst.phi(h1, h2)
    return inst.h(curve.coords) - rhs, rhs


def test_witness_revalidates_every_scan_kind():
    from geoconvex.exprlang import evaluate

    # set scan: the segment between the lobes leaves the set
    dom = DomainSet(E1, ((-2.0, 2.0),), parse("x1^2 - 1", point_vars(1)))
    w = check_geodesic_E_convex_set(E1, EndoMap.identity(1), dom, CFG).witness
    (u1,), (u2,) = w.points[0].coords, w.points[1].coords
    x = w.t * u1 + (1 - w.t) * u2
    outside = -evaluate(dom.membership, {"x1": x})
    assert outside == pytest.approx(w.violation, abs=1e-12)
    assert outside > CFG.threshold(0.0)

    # product-set scan: the candidate falls below the graph of -x^2
    graph = parse("v - (-(x1^2))", point_vars(1) + ("v",))
    S = ProductSet(DomainSet(E1, ((-1.0, 1.0),)), graph, (-1.0, 2.0))
    phi = Bifunction.from_source("a - b")
    w = check_geodesic_phiE_convex_set(E1, EndoMap.identity(1), phi, S, CFG).witness
    (u1, v1), (u2, v2) = w.points[0].coords, w.points[1].coords
    x = w.t * u1 + (1 - w.t) * u2
    outside = -evaluate(graph, {"x1": x, "v": v2 + w.t * phi(v1, v2)})
    assert outside == pytest.approx(w.violation, abs=1e-12)
    assert outside > CFG.threshold(0.0)

    # slope scan: the difference quotients of a concave function
    inst = _inst1d("-(x1^2)", "a - b", (0.0, 1.0))
    w = check_slope_inequality(inst, CFG).witness
    e1, em, e2 = (p.coords[0] for p in w.points)
    assert e1 < em < e2
    lhs = inst.phi(inst.h((e1,)), inst.h((e2,))) / (e1 - e2)
    rhs = (inst.h((e2,)) - inst.h((em,))) / (e2 - em)
    assert (lhs, rhs) == (w.lhs, w.rhs)
    assert lhs - rhs > CFG.threshold(rhs)

    # counterexample search: every refined witness, on a curved manifold too
    cap = DomainSet(sphere(2), ((-2.0, 2.0),) * 3, parse("x3 - 0.5", point_vars(3)))
    for inst in (_inst1d("-(x1^2)", "a - b", (-1.0, 1.0)),
                 Instance(sphere(2), ScalarFn.from_source("2*x3 - 2", 3),
                          EndoMap.identity(3), Bifunction.from_source("a - b"), cap)):
        rep = search_counterexample(inst, CFG)
        assert rep.verdict is Verdict.VIOLATED and rep.refined
        for w in rep.refined:
            gap, rhs = _convexity_gap(inst, w)
            assert gap == pytest.approx(w.violation, abs=1e-12)
            assert gap > CFG.threshold(rhs)


def test_batch_finite_where_scalar_raises():
    # past x1 = 709.78 exp overflows: the scalar evaluator raises, and the
    # batch lane of 1/exp(x1) is NaN rather than the 0 of IEEE division, so
    # the first pair with an image there ends the scan as a domain error
    inst = _inst1d("1/exp(x1) - (x1 - 710)^2", "a - b", (700.0, 720.0))
    for rep in (check_phiE_convex_interval(inst, CFG), search_counterexample(inst, CFG)):
        assert rep.verdict is Verdict.DOMAIN_ERROR and rep.samples_used == 0
        assert rep.notes[-1] == "h or phi non-finite at an E-image (pair 0)"
        for w in ((rep.witness,) if rep.witness else ()) + rep.refined:
            gap, rhs = _convexity_gap(inst, w)
            assert gap == pytest.approx(w.violation, abs=1e-12)
            assert gap > CFG.threshold(rhs)


def _fold_blocks(scan, i0, rows, ok, T, viol, thr, err, extra, width, k):
    """`_Scan.reduce` through a fold of the (N, G) lanes in blocks of
    `width` t-columns."""
    from geoconvex.checker import _Fold

    G = viol.shape[1]
    thr = np.broadcast_to(thr, viol.shape)
    fold = _Fold(scan, ok, G)
    for c0 in range(0, G, width):
        fold.add(c0, viol[:, c0:c0 + width], thr[:, c0:c0 + width], err[:, c0:c0 + width])
    return fold.finish(i0, rows, T, k, extra, lambda sel: (viol[sel], thr[sel]))


def _fold_candidates(masked, k, width=None):
    """The fold's best k (violation, lane) among the finite entries of the
    (N, G) matrix `masked`, where lane r*G + c is entry (r, c)."""
    from geoconvex.checker import _Scan

    n, G = masked.shape
    got = _fold_blocks(_Scan(), 0, np.arange(n, dtype=float)[:, None], np.ones(n, dtype=bool),
                       None, masked, 0.0, np.zeros((n, G), np.int8), lambda n: {}, width or G, k)
    return [(v, i * G + c) for v, (i, c), _ in got.cands]


def test_select_candidates_ties_straddle_kth():
    # four lanes tie at the 3rd-best value; the two with the least position win
    masked = np.array([[0.5, 2.0, -np.inf], [2.0, 3.0, 2.0], [1.0, 2.0, -np.inf]])
    got = _fold_candidates(masked, k=3)
    assert got == [(3.0, 4), (2.0, 1), (2.0, 3)]
    # against a full stable sort, on data full of ties
    rng_ = np.random.default_rng(5)
    for _ in range(50):
        m = rng_.integers(-3, 3, size=(40, 7)).astype(float)
        m[m == -3] = -np.inf
        for k in (1, 8, 300):
            order = np.argsort(-m.ravel(), kind="stable")[:k]
            want = [(float(m.ravel()[p]), int(p)) for p in order
                    if np.isfinite(m.ravel()[p])]
            assert _fold_candidates(m, k) == want


def test_line_refine_pins_a_smooth_maximum():
    from geoconvex.checker import LINE_PROBES, LINE_ROUNDS, _line_refine

    golden_width = ((5 ** 0.5 - 1) / 2) ** 40
    assert (2 / (LINE_PROBES - 1)) ** LINE_ROUNDS <= golden_width
    calls = []

    def f(Z):
        calls.append(Z.shape[0])
        v = -((Z[:, 0] - 0.3) ** 2) - (Z[:, 1] + 0.7) ** 2
        return np.where(Z[:, 1] < 0.5, v, -np.inf)

    z, v = _line_refine(f, [0.9, 0.9], [(-1.0, 1.0), (-1.0, 1.0)], steps=4)
    assert z == pytest.approx([0.3, -0.7], abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-15)
    # the first step finds no admissible probe and stops after one round
    assert calls == [1, LINE_PROBES] + [LINE_PROBES] * (3 * LINE_ROUNDS)


def _line_refine_every_step(f, z0, intervals, steps):
    """The line search without its stop rule: every one of `steps` steps runs."""
    from geoconvex.checker import LINE_PROBES, LINE_ROUNDS

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
                break
            if v[i] > best_v:
                best_v, best_z = float(v[i]), Z[i].copy()
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, LINE_PROBES - 1)]
    return best_z, best_v


def test_line_refine_stops_after_a_cycle_without_improvement():
    from geoconvex.checker import LINE_ROUNDS, _line_refine

    gen = np.random.default_rng(11)
    cases = []
    for _ in range(10):
        d = int(gen.integers(1, 4))
        c, w, a = gen.uniform(-0.6, 0.6, d), gen.uniform(1.0, 4.0, d), gen.uniform(-0.3, 0.3, d)

        def smooth(Z, c=c, w=w, a=a):
            return -(((Z - c) * w) ** 2).sum(axis=1) + a.sum() * np.sin(Z.sum(axis=1))

        cases.append((smooth, gen.uniform(-1.0, 1.0, d), [(-1.0, 1.0)] * d))
    # plateaus: the start is already best, so no step improves on it
    cases.append((lambda Z: -(Z ** 2).sum(axis=1), np.zeros(2), [(-1.0, 1.0)] * 2))
    cases.append((lambda Z: np.zeros(Z.shape[0]), np.full(3, 0.25), [(-1.0, 1.0), (0.5, 0.5),
                                                                      (-2.0, 0.0)]))
    for f, z0, intervals in cases:
        calls = {"stop": 0, "every": 0}

        def counted(Z, f=f, key="stop"):
            calls[key] += 1
            return f(Z)

        z, v = _line_refine(counted, z0, intervals, 30)
        want_z, want_v = _line_refine_every_step(partial(counted, key="every"), z0, intervals, 30)
        assert z.tobytes() == want_z.tobytes() and v == want_v
        assert calls["stop"] < calls["every"]
    # a plateau costs the start and one step per coordinate with an interval
    assert calls == {"stop": 1 + 2 * LINE_ROUNDS, "every": 1 + 20 * LINE_ROUNDS}


# the implication suite's budget
IMPLICATION_CFG = CheckConfig(seed=1234, samples=160, t_grid=9, refine_steps=12)


def test_t1_only_violation_is_refined_and_confirmed():
    from geoconvex import rng
    from geoconvex.checker import _ConvexityScan

    # the t = 1 lane is h1 - h2 - phi(h1, h2) = 1e-6 on every pair, and the
    # interior lanes t*1e-6 - t*(1-t)*(e1 - e2)^2 stay below threshold
    inst = _inst1d("x1^2", "a - b - 1e-6", (-1.0, 1.0))
    cfg = IMPLICATION_CFG
    scan = _ConvexityScan(inst, cfg)
    rows, ok = scan.sample(rng.base_array(cfg.seed, np.arange(cfg.samples, dtype=np.uint64)))
    viol, thr, err = scan.lanes(rows, np.linspace(0.0, 1.0, cfg.t_grid)[None, :])
    assert ok.all() and not err.any()
    assert (viol[:, 1:-1] <= thr[:, 1:-1]).all()
    assert (viol[:, -1] > thr[:, -1]).all()
    # without refinement steps the witness is the bulk lane it starts from
    for c in (cfg, cfg.replace(refine_steps=0)):
        for rep in (check_phiE_convex_interval(inst, c), check_geodesic_phiE_convex_fn(inst, c)):
            assert rep.verdict is Verdict.VIOLATED
            w = rep.witness
            assert w.t == 1.0
            gap, rhs = _convexity_gap(inst, w)
            assert gap == pytest.approx(w.violation, abs=1e-12)
            assert gap > cfg.threshold(rhs)


def test_holding_convexity_check_runs_no_line_search(monkeypatch):
    from geoconvex import checker

    calls = []
    line_refine = checker._line_refine
    monkeypatch.setattr(checker, "_line_refine", lambda *a: calls.append(1) or line_refine(*a))
    inst = _inst1d("x1^2", "a - b", (-1.0, 1.0))
    for check in (check_phiE_convex_interval, check_geodesic_phiE_convex_fn):
        rep = check(inst, IMPLICATION_CFG)
        assert rep.holds
        # the t = 1 lanes, 0 up to rounding, still set the maximum
        assert abs(rep.max_violation) <= 1e-15
    assert calls == []


def _fn_check_two_scans(inst, cfg, strict=False):
    """Reference for the one-pass function check: the set check and the
    convexity scan run as two separate scans."""
    from geoconvex.checker import _ConvexityScan, _finish_scan
    from geoconvex.reports import Report

    set_report = check_geodesic_E_convex_set(inst.manifold, inst.E, inst.domain, cfg)
    if not set_report.holds:
        return Report(
            Verdict.PREMISE_FAILED, set_report.max_violation, None,
            set_report.samples_used, cfg.seed, flags=dict(set_report.flags),
            notes=(f"domain is not geodesic E-convex on samples ({set_report.verdict.value})",)
            + set_report.notes,
        )
    notes = ("strict margin of 2*tol folded into rhs",) if strict else ()
    return _finish_scan(_ConvexityScan(inst, cfg, strict), cfg, notes=notes)


def _shared_pass_cases():
    e2, s2, b2 = euclidean(2), sphere(2), poincare_ball(2)
    diff = Bifunction.from_source("a - b")
    disk = DomainSet(e2, ((-1.0, 1.0),) * 2, parse("1 - x1^2 - x2^2", point_vars(2)))
    cap = DomainSet(s2, ((-2.0, 2.0),) * 3, parse("x3 - 0.5", point_vars(3)))
    ball_box = DomainSet(b2, ((-0.5, 0.5),) * 2)
    lobes = DomainSet(E1, ((-2.0, 2.0),), parse("x1^2 - 1", point_vars(1)))
    # curve points between the shifted images leave log's domain
    shifted = DomainSet(E1, ((-2.0, 2.0),), parse("log(x1 + 1.5)", point_vars(1)))

    def inst(m, h, dom, E=None):
        return Instance(m, ScalarFn.from_source(h, m.ambient_dim),
                        E or EndoMap.identity(m.ambient_dim), diff, dom)

    return {
        "euclid_bowl": inst(e2, "x1^2 + x2^2", disk),
        "euclid_cap": inst(e2, "-(x1^2) - x2^2", disk),
        "sphere_cap": inst(s2, "2 - 2*x3", cap),
        "ball_box": inst(b2, "1 - x1^2 - x2^2", ball_box),
        "ball_distance": inst(b2, "(2*artanh(sqrt(x1^2 + x2^2 + 1e-30)))^2", ball_box),
        "set_violated": inst(E1, "x1^2", lobes),
        "set_domain_error": inst(E1, "x1^2", shifted, EndoMap.from_source("x1 - 3", 1)),
    }


@pytest.mark.parametrize("name", sorted(_shared_pass_cases()))
@pytest.mark.parametrize("strict", [False, True])
def test_one_pass_fn_check_matches_two_scans(name, strict):
    inst = _shared_pass_cases()[name]
    cfg = CheckConfig(seed=11, samples=1500)
    got = check_geodesic_phiE_convex_fn(inst, cfg, strict=strict)
    assert got.to_dict() == _fn_check_two_scans(inst, cfg, strict).to_dict()
    if name.startswith("set_"):
        assert got.verdict is Verdict.PREMISE_FAILED
        want_set = "DomainError" if name == "set_domain_error" else "Violated"
        assert f"({want_set})" in got.notes[0]


def test_shared_pass_serves_several_instances():
    from geoconvex.checker import _fn_checks

    cases = _shared_pass_cases()
    base = cases["euclid_bowl"]
    insts = [base, cases["euclid_cap"], base.with_phi(Bifunction.from_source("2*(a - b)"))]
    cfg = CheckConfig(seed=5, samples=1200)
    set_report, checks = _fn_checks(insts, cfg)
    want_set = check_geodesic_E_convex_set(base.manifold, base.E, base.domain, cfg)
    assert set_report.to_dict() == want_set.to_dict()
    for inst, check in zip(insts, checks):
        assert check().to_dict() == _fn_check_two_scans(inst, cfg).to_dict()


@pytest.mark.parametrize("name", ["euclid_cap", "sphere_cap", "ball_box", "set_domain_error"])
def test_one_pass_fn_check_same_at_any_worker_count(name):
    inst = _shared_pass_cases()[name]
    cfg = CheckConfig(seed=3, samples=2001)
    reports = [check_geodesic_phiE_convex_fn(inst, cfg.replace(workers=w)).to_dict()
               for w in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]


def test_chunk_ranges_split_evenly_within_the_cap():
    from geoconvex.checker import _chunk_ranges

    for n in (1, 2, 3, 7, 100, 1000, 65537, 100_000):
        for workers in (1, 2, 3, 4):
            for cap in (1, 3, 1000, 32768, 65536):
                ranges = _chunk_ranges(n, workers, cap)
                sizes = [i1 - i0 for i0, i1 in ranges]
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
                assert max(sizes) <= cap
                assert len(ranges) % workers == 0 or len(ranges) == n
    # 100k samples at two workers, as a two-scan pass
    assert [i1 - i0 for i0, i1 in _chunk_ranges(100_000, 2, 32768)] == [25_000] * 4


def test_threads_are_capped_by_cpus_and_chunks(monkeypatch):
    import os

    from geoconvex import checker

    seen = []

    class InlinePool:
        """Records the thread count asked for and runs the chunks inline."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(checker, "ThreadPoolExecutor", InlinePool)
    disk = DomainSet(euclidean(2), ((-1.0, 1.0),) * 2, parse("1 - x1^2 - x2^2", point_vars(2)))
    cfg = CheckConfig(seed=3, samples=200)
    # 10**6 workers make one chunk per sample; the pool gets at most a thread per CPU
    got = check_geodesic_E_convex_set(euclidean(2), EndoMap.identity(2), disk,
                                      cfg.replace(workers=10**6))
    want = check_geodesic_E_convex_set(euclidean(2), EndoMap.identity(2), disk, cfg)
    assert got.to_dict() == want.to_dict()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(cpus, cfg.samples)
    assert seen == ([threads] if threads > 1 else [])


def test_preimage_distance_same_at_any_worker_count():
    from geoconvex import rng
    from geoconvex.algebra import sample_members

    inst = _inst1d("x1^2", "a - b", (-1.0, 1.0), E="x1^3")
    cfg = CheckConfig(seed=9, samples=3001)
    got = [epigraph_membership(inst, cfg.replace(workers=w)).preimage_distance((0.2,))
           for w in (1, 2, 3)]
    assert got[0] == got[1] == got[2]
    # a constant remap ties every sample: the least sample index wins
    flat = _inst1d("x1^2", "a - b", (-1.0, 1.0), E="0.25")
    rows, _ = sample_members(flat.domain, rng.base_array(cfg.seed, np.arange(1, dtype=np.uint64)),
                             region=5)
    first = tuple(rows[0])
    for w in (1, 2, 3):
        dist, mu = epigraph_membership(flat, cfg.replace(workers=w)).preimage_distance((0.5,))
        assert dist == 0.25 and mu == first


_BIG = np.iinfo(np.int64).max


def _reduce_with_flats(i0, L, first_lane, viol, thr, err, ok, skips_unsampled):
    """Reference for `_Scan.reduce`: the chunk reduction over an explicit
    (N, G) matrix of flat lane indices, pair i owning flats i*L .. i*L + L - 1
    with its row errors at i*L and bulk column j at i*L + first_lane + j."""
    from geoconvex.checker import _LANE, _OK, _PAIR_BAD

    n, G = viol.shape
    gidx = np.arange(i0, i0 + n, dtype=np.int64)
    err = err.copy()
    err[~ok] = _OK if skips_unsampled else _PAIR_BAD
    flats = gidx[:, None] * L + first_lane + np.arange(G, dtype=np.int64)[None, :]
    err_flat, err_at = _BIG, None
    if np.any(err):
        at = np.where(err == _OK, _BIG, np.where(err == _LANE, flats, gidx[:, None] * L))
        pos = int(np.argmin(at))
        err_flat = int(at.ravel()[pos])
        err_at = (int(err.ravel()[pos]), int(gidx[pos // G]))
    counted = ok[:, None] & (err == _OK) & np.isfinite(viol) & (flats < err_flat)
    masked = np.where(counted, viol, -np.inf)
    order = sorted((-v, f) for v, f in zip(masked.ravel(), flats.ravel()) if np.isfinite(v))
    cands = [(-nv, int(f)) for nv, f in order[:8]]
    return (err_flat, err_at, cands, float(masked.max()),
            bool(np.any(counted & (viol > thr))), int(np.sum(counted)))


@pytest.mark.parametrize("skips_unsampled", [False, True])
def test_chunk_reduce_matches_flat_index_reference(skips_unsampled):
    from geoconvex.checker import _ANTI, _E_BAD, _LANE, _OK, _VAL_BAD, _Scan

    class Lanes(_Scan):
        cfg = CheckConfig(t_grid=6)
        first_t = 1
        notes = {c: f"{c}:{{i}}" for c in range(1, 6)}

    scan = Lanes()
    scan.skips_unsampled = skips_unsampled
    gen = np.random.default_rng(7)
    n, G, L = 50, 5, 7

    def flat(at):
        # lane (sample, column) as a flat index; column -1 is the row slot
        return _BIG if at is None else at[0] * L + 1 + at[1]

    for trial in range(200):
        i0 = int(gen.integers(0, 1000))
        viol = gen.normal(size=(n, G))
        viol[gen.random((n, G)) < 0.05] = np.nan
        viol[gen.random((n, G)) < 0.05] = np.inf
        viol[gen.random((n, G)) < 0.3] = 0.7  # ties
        p_err = (0.0, 0.002, 0.02)[trial % 3]
        row_code = np.where(gen.random(n) < p_err, gen.choice([_E_BAD, _ANTI, _VAL_BAD], n), _OK)
        err = np.repeat(row_code[:, None].astype(np.int8), G, axis=1)
        err[(row_code[:, None] == _OK) & (gen.random((n, G)) < p_err)] = _LANE
        ok = gen.random(n) > p_err
        thr = 0.5 if trial % 2 else np.abs(gen.normal(size=(n, G)))
        T = np.linspace(0.0, 1.0, 6)[None, :]
        rows = np.arange(n, dtype=float)[:, None]
        want = _reduce_with_flats(i0, L, scan.first_t + 1, viol, thr, err, ok, skips_unsampled)
        got = scan.reduce(i0, rows, ok, T, viol.copy(), thr, err.copy(), lambda n: {})
        assert flat(got.err_at) == want[0]
        if want[1] is not None:
            assert got.err_note == f"{want[1][0]}:{want[1][1]}"
        assert [(v, flat(at)) for v, at, _ in got.cands] == want[2]
        # (sample, column) order is flat order
        lanes = [at for _, at, _ in got.cands] + ([got.err_at] if got.err_at is not None else [])
        assert sorted(lanes) == sorted(lanes, key=flat)
        for v, (i, c), z0 in got.cands:
            assert 0 <= c < T.shape[1]
            assert z0.tolist() == [i - i0, T[0, c]]
        assert (got.max_viol, got.violated, got.extra["counted"]) == want[3:]


def _t_major(A):
    """A copy of the (N, G) matrix A laid out t-major, as `_curve_lanes` does."""
    return np.ascontiguousarray(A.T).T


def test_lane_order_does_not_change_selection_or_reduce():
    from geoconvex.checker import _E_BAD, _LANE, _OK, _Scan

    class Lanes(_Scan):
        cfg = CheckConfig(t_grid=6)
        first_t = 1
        notes = {c: f"{c}:{{i}}" for c in range(1, 6)}

    n, G = 30, 5
    gen = np.random.default_rng(3)
    ties = gen.integers(-2, 2, size=(n, G)).astype(float)  # many ties at the k-th value
    ties[ties == -2] = -np.inf
    all_inf = np.full((n, G), -np.inf)
    mid_err = np.repeat(np.where(np.arange(n) == 20, _E_BAD, _OK)[:, None], G, axis=1)
    mid_err[12, 3] = _LANE  # the first error, in the middle of row 12
    cases = [
        (ties, np.zeros((n, G), np.int8)),
        (all_inf, np.zeros((n, G), np.int8)),
        (gen.normal(size=(n, G)), mid_err.astype(np.int8)),
    ]
    T = np.linspace(0.0, 1.0, 6)[None, :]
    rows = np.arange(n, dtype=float)[:, None]
    ok = np.ones(n, dtype=bool)
    results = []
    for viol, err in cases:
        tm = _t_major(viol)
        assert tm.flags.f_contiguous and not tm.flags.c_contiguous
        for k in (1, 3, 8, n * G + 1):
            assert _fold_candidates(tm, k) == _fold_candidates(viol.copy(), k)
        for width in range(1, G + 1):
            got = [_fold_blocks(Lanes(), 100, rows, ok, T, v, 0.5, e, lambda n: {}, width, 8)
                   for v, e in ((viol.copy(), err.copy()), (_t_major(viol), _t_major(err)))]
            c_scan, t_scan = got
            assert (t_scan.err_at, t_scan.err_note, t_scan.max_viol, t_scan.violated,
                    t_scan.extra) == (c_scan.err_at, c_scan.err_note, c_scan.max_viol,
                                      c_scan.violated, c_scan.extra)
            assert [(v, at, z.tolist()) for v, at, z in t_scan.cands] == \
                [(v, at, z.tolist()) for v, at, z in c_scan.cands]
        results.append(c_scan)
    assert [v for v, _ in _fold_candidates(_t_major(ties), 8)] == sorted(
        ties.ravel(), reverse=True)[:8]
    assert results[1].cands == [] and results[1].max_viol == -np.inf
    # lanes from (112, 4) on are cut off by the error, and row 20's code with them
    mid = results[2]
    assert mid.err_at == (112, 1 + 3) and mid.err_note == f"{_LANE}:112"
    assert mid.extra["counted"] == 12 * G + 3
    assert mid.cands and all(at < (112, 4) for _, at, _ in mid.cands)


def test_reduce_counters_cover_only_the_lanes_before_the_first_error():
    from geoconvex.checker import _E_BAD, _LANE, _Scan

    class Lanes(_Scan):
        first_t = 1
        skips_unsampled = True
        notes = {c: f"{c}:{{i}}" for c in range(1, 6)}

    n, G = 10, 4
    T = np.linspace(0.0, 1.0, G + 1)[None, :]
    rows = np.arange(n, dtype=float)[:, None]
    ok = np.arange(n) != 8  # an unsampled row after the error
    # (error code, its t-column in row 6, lanes counted, rows covered)
    for code, j, counted, cover in ((_LANE, 2, 6 * G + 2, 7), (_LANE, 0, 6 * G, 6),
                                    (_E_BAD, 0, 6 * G, 6)):
        err = np.zeros((n, G), np.int8)
        err[6, j:j + 1 if code == _LANE else G] = code
        for width in range(1, G + 1):
            got = _fold_blocks(Lanes(), 0, rows, ok, T, np.zeros((n, G)), 0.5, err,
                               lambda k: {"rows": k}, width, 1)
            assert got.err_at == (6, 1 + j if code == _LANE else -1)
            assert got.extra == {"unsampled": 0, "counted": counted, "rows": cover}
    for width in range(1, G + 1):
        clean = _fold_blocks(Lanes(), 0, rows, ok, T, np.zeros((n, G)), 0.5,
                             np.zeros((n, G), np.int8), lambda k: {"rows": k}, width, 1)
        assert clean.extra == {"unsampled": 1, "counted": (n - 1) * G, "rows": n}


def _chunk_record(c):
    return (c.i0, c.err_at, c.err_note, c.max_viol, c.violated, c.extra,
            [(v, at, z.tolist()) for v, at, z in c.cands])


def test_fold_in_blocks_of_any_width_matches_one_block():
    from geoconvex.checker import _ANTI, _E_BAD, _LANE, _VAL_BAD, _ConvexityScan, _Scan

    class Lanes(_Scan):
        first_t = 1
        notes = {c: f"{c}:{{i}}" for c in range(1, 6)}

    class HeldLanes(Lanes):
        hold_back = _ConvexityScan.hold_back  # the t = 1 lanes start a search only above thr

    gen = np.random.default_rng(23)
    n, G = 30, 6
    T = np.linspace(0.0, 1.0, G + 1)[None, :]
    rows = np.arange(n, dtype=float)[:, None]
    for trial in range(24):
        viol = gen.integers(-3, 3, size=(n, G)).astype(float)  # ties at every value
        viol[viol == -3] = -np.inf
        viol[gen.random((n, G)) < 0.05] = np.nan
        thr = np.abs(gen.normal(size=(n, G)))
        err = np.zeros((n, G), np.int8)
        if trial % 3:
            err[gen.integers(n // 2, n)] = gen.choice([_E_BAD, _ANTI, _VAL_BAD])
        if trial % 2:
            err[gen.integers(0, n), gen.integers(1, G)] = _LANE  # the first error, mid-row
        ok = gen.random(n) > 0.05
        for scan in (Lanes(), HeldLanes()):
            scan.skips_unsampled = trial % 4 == 0
            got = {}
            for k in (1, 3, 8):
                for width in range(G, 0, -1):
                    got[k, width] = _chunk_record(_fold_blocks(
                        scan, 40, rows, ok, T, viol, thr, err, lambda m: {"rows": m}, width, k))
                    assert got[k, width] == got[k, G]
            # the best row's least column is the first of the re-evaluated top lanes
            assert got[1, G][:-1] == got[8, G][:-1] and got[1, G][-1] == got[8, G][-1][:1]


def test_counterexample_search_takes_the_top_lanes_of_the_pass(monkeypatch):
    from geoconvex import checker, rng
    from geoconvex.checker import _ConvexityScan, _merge_chunks, _OK, _run_pass

    # concave h: the widest pairs violate most, at t near 1/2, in several lanes each
    inst = _inst1d("-(x1^2)", "a - b", (-1.0, 1.0))
    cfg = CheckConfig(seed=4, samples=300)
    scan = _ConvexityScan(inst, cfg)
    rows, ok = scan.sample(rng.base_array(cfg.seed, np.arange(cfg.samples, dtype=np.uint64)))
    viol, thr, err = scan.lanes(rows, np.linspace(0.0, 1.0, cfg.t_grid)[None, :])
    v = np.where(ok[:, None] & (err == _OK) & np.isfinite(viol), viol, -np.inf)[:, 1:]
    scan.hold_back(v, thr[:, 1:])
    G = v.shape[1]
    top = np.argsort(-v, axis=None, kind="stable")[:8]
    want = [(float(v.flat[p]), (int(p // G), int(1 + p % G))) for p in top]
    assert len({i for _, (i, _) in want}) <= 4  # several lanes of one row
    for cap in (checker.MAX_CHUNK, 64):
        monkeypatch.setattr(checker, "MAX_CHUNK", cap)
        for w in (1, 3):
            cands = _merge_chunks(_run_pass([scan], cfg.replace(workers=w), 8)[0], 8)[2]
            assert [(v, at) for v, at, _ in cands] == want
    rep = search_counterexample(inst, cfg)
    assert rep.verdict is Verdict.VIOLATED and len(rep.refined) == 8


def test_bulk_memory_does_not_grow_with_t_grid():
    import tracemalloc

    s2 = sphere(2)
    cap = DomainSet(s2, ((-2.0, 2.0),) * 3, parse("x3 - 0.5", point_vars(3)))
    peaks = {}
    for t_grid in (17, 257):
        tracemalloc.start()
        try:
            rep = check_geodesic_E_convex_set(s2, EndoMap.identity(3), cap,
                                              CheckConfig(seed=0, samples=20_000, t_grid=t_grid))
            peaks[t_grid] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds
    assert peaks[257] <= 1.5 * peaks[17], peaks


def test_unconfirmed_bulk_violation_holds_with_its_raw_maximum():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Disagreeing(ScalarFn):
        """The scalar evaluator reads -h where the batch kernel reads h."""

        def __call__(self, coords):
            return -super().__call__(coords)

    inst = _inst1d("-(x1^2)", "a - b", (-1.0, 1.0))
    violated = check_phiE_convex_interval(inst, CFG)
    assert violated.verdict is Verdict.VIOLATED
    patched = inst.with_h(Disagreeing(inst.h.expr, inst.h.label))
    rep = check_phiE_convex_interval(patched, CFG)
    assert rep.verdict is Verdict.HOLDS_ON_SAMPLES and rep.witness is None
    assert rep.notes == ("unconfirmed raw violation did not survive re-evaluation",)
    # the bulk lanes and the line search run on the batch kernel alone
    assert rep.max_violation == violated.max_violation > CFG.threshold(0.0)


@pytest.mark.parametrize("field, value", [
    ("samples", 1.5), ("samples", True), ("samples", 0), ("samples", "100"),
    ("workers", 2.5), ("workers", False), ("seed", 1.0), ("seed", None),
    ("t_grid", 2), ("refine_steps", -1),
    ("tol_abs", float("nan")), ("tol_rel", float("inf")), ("tol_abs", 0.0),
    ("tol_rel", -1e-9), ("tol_abs", True), ("tol_abs", "1e-9"),
])
def test_check_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field}: "):
        CheckConfig(**{field: value})


def test_check_config_accepts_numpy_and_integer_values():
    cfg = CheckConfig(seed=np.int64(-3), samples=np.int32(10), tol_abs=1, tol_rel=np.float64(1e-6))
    assert (cfg.seed, cfg.samples, cfg.tol_abs) == (-3, 10, 1)
    assert cfg.replace(workers=2).workers == 2


# the per-scan row layouts that the generic `_Scan.probe_rows` and
# `_Scan.intervals` replace, kept as the reference they must equal

def _ref_pair_probe(scan, rows):
    d = scan.manifold.ambient_dim
    U, ok = _on_manifold(scan.manifold, np.concatenate((rows[:, :d], rows[:, d:])))
    ok &= member_mask_batch(scan.domain, U)
    return np.concatenate(_halves(U), axis=1), np.logical_and(*_halves(ok))


def _ref_pair_intervals(scan):
    box = list(scan.domain.box)
    return box + box + [(0.0, 1.0)] if scan.has_t else box + box


def _ref_triple_probe(scan, rows):
    ok = member_mask_batch(scan.inst.domain, rows.reshape(-1, 1)).reshape(-1, 3)
    return rows, ok[:, 0] & ok[:, 1] & ok[:, 2]


def _ref_point_probe(scan, rows):
    U, ok = _on_manifold(scan.manifold, rows)
    return U, ok & member_mask_batch(scan.domain, U)


def _ref_product_probe(scan, rows):
    d = scan.manifold.ambient_dim
    U1, V1, U2, V2 = scan._split(rows)
    U, ok = _on_manifold(scan.manifold, np.vstack([U1, U2]))
    ok &= scan.domain.member_mask(U, np.concatenate([V1, V2]))
    U1, U2 = _halves(U)
    return np.hstack([U1, V1[:, None], U2, V2[:, None]]), np.logical_and(*_halves(ok))


def _ref_product_intervals(scan):
    box, vr = list(scan.domain.base.box), [tuple(scan.domain.v_range)]
    return box + vr + box + vr + [(0.0, 1.0)]


def _layout_scans():
    from geoconvex.checker import _ConvexityScan, _ProductSetScan, _SlopeScan
    from geoconvex.manifold import Point
    from geoconvex.theorems import _LipschitzScan, _LocalMinScan, identity_diffeo

    S2 = sphere(2)
    cap = DomainSet(S2, ((-1.0, 1.0),) * 3, parse("x3 - 0.2", point_vars(3)))
    on_cap = Instance(S2, ScalarFn.from_source("x1 + x3", 3), EndoMap.identity(3),
                      Bifunction.from_source("a - b"), cap)
    ball = DomainSet(poincare_ball(2), ((-0.8, 0.8), (-0.8, 0.8)), parse("x1 + 0.5", point_vars(2)))
    in_ball = Instance(ball.manifold, ScalarFn.from_source("x1^2 + x2^2", 2), EndoMap.identity(2),
                       Bifunction.from_source("a - b"), ball)
    line = _inst1d("x1^2", "a - b", (-1.0, 2.0), membership=parse("x1 + 0.5", point_vars(1)))
    band = ProductSet(cap, parse("v - x3", point_vars(3) + ("v",)), (-1.0, 2.0))
    return {
        "pair": (_ConvexityScan(on_cap, CFG), _ref_pair_probe, _ref_pair_intervals),
        "pair, strict": (_ConvexityScan(on_cap, CFG, strict=True), _ref_pair_probe, None),
        "pair, untimed": (_LipschitzScan(in_ball, CFG, identity_diffeo(ball.manifold), 1.0,
                                         ball.lows(), ball.highs()),
                          _ref_pair_probe, _ref_pair_intervals),
        "triple": (_SlopeScan(line, CFG), _ref_triple_probe,
                   lambda s: list(s.inst.domain.box) * 3),
        "point": (_LocalMinScan(in_ball, CFG, Point((0.0, 0.0)), 0.0), _ref_point_probe,
                  lambda s: list(s.domain.box)),
        "product": (_ProductSetScan(S2, EndoMap.identity(3), Bifunction.from_source("a - b"),
                                    band, CFG), _ref_product_probe, _ref_product_intervals),
    }


@pytest.mark.parametrize("name", ["pair", "pair, strict", "pair, untimed", "triple", "point",
                                  "product"])
def test_generic_row_layout_matches_per_scan_reference(name):
    scan, ref_probe, ref_intervals = _layout_scans()[name]
    width = scan.manifold.ambient_dim + (name == "product")
    rows = 1.2 * np.random.default_rng(7).standard_normal((257, scan.members * width))
    rows[0] = 0.0  # a sphere row too short to normalize
    rows[1, 0] = np.nan
    got, ok = scan.probe_rows(rows)
    want, want_ok = ref_probe(scan, rows)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(ok, want_ok)
    assert 0 < ok.sum() < ok.size
    if ref_intervals is not None:
        assert scan.intervals() == ref_intervals(scan)


def _sunk_columns(scans, rows, T, width):
    """Per scan, each t-column's (viol, thr, err) as `_curve_lanes` sinks it
    in blocks of `width` t-columns."""
    from geoconvex.checker import _curve_lanes

    cols = [{} for _ in scans]

    def sink(k, c0, viol, thr, err):
        thr = np.broadcast_to(thr, viol.shape)
        for b in range(viol.shape[1]):
            assert c0 + b not in cols[k]
            cols[k][c0 + b] = (viol[:, b].copy(), thr[:, b].copy(), err[:, b].copy())

    _curve_lanes(scans, rows, T, [s.first_t for s in scans],
                 [partial(sink, k) for k in range(len(scans))], width)
    return cols


def _curve_scans():
    """A set scan and plain and strict convexity scans sharing one pass, and
    a product-set scan, on the 2-sphere, where arcs bulge past x1 = -0.5
    between images on its near side: h = log(x1 + 0.5) leaves its domain."""
    from geoconvex.checker import _ConvexityScan, _ProductSetScan, _SetScan

    S2 = sphere(2)
    dom = DomainSet(S2, ((-1.0, 1.0),) * 3)
    inst = Instance(S2, ScalarFn.from_source("log(x1 + 0.5)", 3), EndoMap.identity(3),
                    Bifunction.from_source("a - b"), dom)
    cfg = CheckConfig(seed=5, samples=400, t_grid=7)
    graph = parse("v - log(x1 + 0.5)", point_vars(3) + ("v",))
    band = ProductSet(dom, graph, (-1.0, 2.0))
    return cfg, [
        [_SetScan(S2, inst.E, dom, cfg), _ConvexityScan(inst, cfg),
         _ConvexityScan(inst, cfg, strict=True)],
        [_ProductSetScan(S2, inst.E, inst.phi, band, cfg)],
    ]


def test_curve_lanes_sink_the_same_lanes_at_any_block_width():
    from geoconvex import rng
    from geoconvex.checker import _LANE, _OK, _VAL_BAD

    cfg, passes = _curve_scans()
    T = np.linspace(0.0, 1.0, cfg.t_grid)[None, :]
    # the lane kinds each scan sees: a convexity scan also has rows whose
    # images h cannot take
    lane_kinds = [[{_OK}, {_OK, _LANE, _VAL_BAD}, {_OK, _LANE, _VAL_BAD}], [{_OK, _LANE}]]
    for scans, kinds in zip(passes, lane_kinds):
        rows, _ = scans[0].sample(rng.base_array(cfg.seed, np.arange(cfg.samples)))
        want = _sunk_columns(scans, rows, T, 1)
        for s, cols, k in zip(scans, want, kinds):
            assert sorted(cols) == list(range(cfg.t_grid - s.first_t))
            assert set(np.concatenate([e for _, _, e in cols.values()]).tolist()) == k
        for width in range(2, cfg.t_grid + 1):
            got = _sunk_columns(scans, rows, T, width)
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                for c in w:
                    for a, b in zip(g[c], w[c]):
                        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
                        assert np.array_equal(np.signbit(a), np.signbit(b))


def _record_fan_lanes(monkeypatch):
    """A list that receives (rows, t-columns) of every curve evaluation."""
    from geoconvex import checker

    calls, fan = [], checker.curve_fan

    def recording_fan(m, X1, X2):
        curve = fan(m, X1, X2)

        def at(t):
            P = curve(t)
            calls.append((X1.shape[0], P.size // (X1.shape[0] * m.ambient_dim)))
            return P

        return at

    monkeypatch.setattr(checker, "curve_fan", recording_fan)
    return calls


def test_a_curve_call_holds_no_more_lanes_than_a_chunk_holds_rows(monkeypatch):
    from geoconvex import checker
    from geoconvex.checker import _ConvexityScan, _SetScan

    calls = _record_fan_lanes(monkeypatch)
    inst = _inst1d("x1^2", "a - b", (-1.0, 1.0))
    full = checker.MAX_CHUNK
    for cap, samples in ((256, 40), (256, 1000), (full, 160)):
        monkeypatch.setattr(checker, "MAX_CHUNK", cap)
        for workers in (1, 2):
            cfg = CheckConfig(seed=1234, samples=samples, t_grid=9, workers=workers)
            scans = [_SetScan(E1, inst.E, inst.domain, cfg), _ConvexityScan(inst, cfg)]
            calls.clear()
            checker._run_pass(scans, cfg)
            assert max(n * w for n, w in calls) <= cap // len(scans)
            if samples == 40:
                assert max(w for _, w in calls) > 1
            if cap == full:
                # at the implication budget a chunk evaluates its whole t-grid in one call
                assert {w for _, w in calls} == {cfg.t_grid}
                assert len(calls) == len(checker._chunk_ranges(samples, workers, cap // 2))


def test_a_row_draws_no_member_after_one_it_did_not_find(monkeypatch):
    from geoconvex import algebra, rng
    from geoconvex.checker import _ProductSetScan, _Scan, _SetScan

    class Drawn(_Scan):
        members = 3

        def draw(self, bases, region):
            # each row's draw depends on its own base only
            self.drawn.append(bases.size)
            X = np.stack([bases % 97 + region, bases % 89], axis=1).astype(float)
            return np.asfortranarray(X), (bases + region) % 5 != 0

    bases = rng.base_array(3, np.arange(500))
    scan = Drawn()
    scan.drawn = []
    rows, ok = scan.sample(bases)
    full = [Drawn.draw(scan, bases, r) for r in range(3)]
    found = np.cumprod([f for _, f in full], axis=0).astype(bool)
    assert scan.drawn[:3] == [bases.size, found[0].sum(), found[1].sum()]
    assert np.array_equal(ok, found[2]) and 0 < ok.sum() < ok.size
    np.testing.assert_array_equal(rows[ok], np.hstack([X for X, _ in full])[ok])

    # a domain with no member: member 1 of a pair is never drawn
    drawn = {}
    draw = algebra._draw

    def counting_draw(domain, sub, pos0):
        region = int(np.min(pos0)) // algebra.REGION_SIZE
        drawn[region] = drawn.get(region, 0) + sub.size
        return draw(domain, sub, pos0)

    monkeypatch.setattr(algebra, "_draw", counting_draw)
    empty = DomainSet(E1, ((-1.0, 1.0),), parse("-1", point_vars(1)))
    never = ProductSet(DomainSet(E1, ((-1.0, 1.0),)), parse("-1", point_vars(1) + ("v",)),
                       (0.0, 1.0))
    for scan in (_SetScan(E1, EndoMap.identity(1), empty, CFG),
                 _ProductSetScan(E1, EndoMap.identity(1), Bifunction.difference(), never, CFG)):
        drawn.clear()
        rows, ok = scan.sample(bases[:20])
        assert not ok.any() and not rows.any()
        assert drawn[0] == 20 * algebra.MAX_REJECTION_ROUNDS and drawn.get(1, 0) == 0
