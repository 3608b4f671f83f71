import numpy as np
import pytest

from geoconvex import (
    Bifunction,
    CheckConfig,
    DomainSet,
    EndoMap,
    Instance,
    Point,
    ScalarFn,
    Verdict,
    euclidean,
    poincare_ball,
    sphere,
)
from geoconvex.errors import EvalDomainError
from geoconvex.checker import _ConvexityScan, _finish_scan, check_geodesic_phiE_convex_fn
from geoconvex.exprlang import differentiate_numeric, parse, point_vars
from geoconvex.instances import (
    closure_case,
    intersection_case,
    quad_epigraph_set,
    sphere_cap_instance,
)
from geoconvex.manifold import GeodesicSpec, geodesic, log_map
from geoconvex.theorems import (
    TheoremId,
    _LipschitzScan,
    _LocalMinScan,
    diffeo_from_endomaps,
    identity_diffeo,
    stereographic_diffeo,
    verify_chart_continuity,
    verify_closure,
    verify_composition,
    verify_continuity_bound,
    verify_diffeo_invariance,
    verify_epigraph_equiv,
    verify_intersection,
    verify_local_min,
    verify_mean_value,
    verify_phi_limit,
    verify_strict_differential,
    verify_sup_epigraph,
    verify_three_point,
)

CFG = CheckConfig(seed=5, samples=800, refine_steps=30)
E1 = euclidean(1)


def _inst(h, phi="a - b", box=(-2.0, 2.0), E=None):
    dom = DomainSet(E1, (box,))
    Emap = EndoMap.from_source(E, 1) if E else EndoMap.identity(1)
    return Instance(E1, ScalarFn.from_source(h, 1), Emap, Bifunction.from_source(phi), dom)


# mean value -----------------------------------------------------------------

def test_mean_value_square():
    rep = verify_mean_value(_inst("x1^2"), 1.0, 0.0, CFG)
    assert rep.holds
    assert any("alpha" in n for n in rep.conclusion_report.notes)


def test_mean_value_constant_premise_fails():
    rep = verify_mean_value(_inst("3"), 1.0, 0.0, CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


def test_golden_refine_skips_an_empty_interval():
    # the coordinate line search MeanValue31 refines (alpha, beta) with
    from geoconvex.checker import LINE_PROBES, LINE_ROUNDS
    from geoconvex.theorems import _line_refine

    seen = []

    def bowl(Z):
        seen.append(Z.copy())
        return -((Z[:, 0] - 0.3) ** 2) - (Z[:, 1] + 0.7) ** 2

    z, v = _line_refine(bowl, [0.9, 0.9], [(0.5, 0.5), (-1.0, 1.0)], steps=4)
    assert z[0] == 0.9 and z[1] == pytest.approx(-0.7, abs=1e-8)
    # the start, then two searches over the second coordinate only
    assert [Z.shape[0] for Z in seen] == [1] + [LINE_PROBES] * (2 * LINE_ROUNDS)
    assert all((Z[:, 0] == 0.9).all() for Z in seen)


def test_golden_refine_never_falls_below_the_start():
    from geoconvex.theorems import _line_refine

    # a narrow spike at the start that no probe lands on
    def spike(Z):
        return np.maximum(0.0, 1.0 - 1e3 * np.abs(Z[:, 0] - 0.123))

    z, v = _line_refine(spike, [0.123], [(-1.0, 1.0)], steps=3)
    assert z.tolist() == [0.123] and v == 1.0
    gen = np.random.default_rng(3)
    for _ in range(20):
        a, w = gen.normal(size=3), gen.uniform(5.0, 40.0, size=3)

        def wavy(Z, a=a, w=w):
            return sum(a[j] * np.sin(w[j] * Z[:, j]) for j in range(3))

        z0 = gen.uniform(-1.0, 1.0, size=3)
        z, v = _line_refine(wavy, z0, [(-1.0, 1.0)] * 3, steps=6)
        assert v >= wavy(z0[None, :])[0] and v == wavy(z[None, :])[0]


def _mean_value_miss(refine_steps):
    """x^2 on [0, 1] under phi = a - b + 200*(a - b)^2, where R = 201 and
    the chain reads alpha >= 201*beta: the default 64-point grid misses it,
    a beta below 1/201 with alpha near 1 meets it."""
    inst = _inst("x1^2", phi="a - b + 200*(a - b)^2", box=(0.0, 1.0))
    return verify_mean_value(inst, 1.0, 0.0, CFG.replace(refine_steps=refine_steps))


def test_mean_value_refinement_meets_the_chain_the_grid_missed():
    rep = _mean_value_miss(CFG.refine_steps)
    assert all(p.holds for p in rep.premise_reports)
    assert rep.holds
    assert rep.conclusion_report.max_violation < 0.0
    note = rep.conclusion_report.notes[0]
    alpha, beta = (float(note.split(f"{k}=")[1].split(",")[0]) for k in ("alpha", "beta"))
    assert "R=201.0" in note
    assert alpha >= 201 * beta > 0.0


def test_mean_value_grid_miss_without_refinement_is_violated():
    rep = _mean_value_miss(0)
    assert all(p.holds for p in rep.premise_reports)
    assert rep.verdict is Verdict.VIOLATED
    w = rep.conclusion_report.witness
    assert [p.coords for p in w.points] == [(127 / 128,), (1 / 128,)]
    # the deficiency max(R*h'(beta) - h'(alpha), h'(beta) - R*h'(beta)), h' = 2x
    gap = max(201 * 2 / 128 - 2 * 127 / 128, 2 / 128 - 201 * 2 / 128)
    assert w.violation == rep.conclusion_report.max_violation == pytest.approx(gap, abs=1e-6)


@pytest.mark.parametrize("scalar_derivative", ["flat", "raises"])
def test_mean_value_violation_needs_the_scalar_derivative(monkeypatch, scalar_derivative):
    from geoconvex import theorems

    def patched(f, at, direction):
        if scalar_derivative == "raises":
            raise EvalDomainError("patched derivative")
        return 0.0  # h'(alpha) = h'(beta) = 0 meets the chain with equality

    raw = _mean_value_miss(0).conclusion_report.max_violation
    monkeypatch.setattr(theorems, "differentiate_numeric", patched)
    rep = _mean_value_miss(0)
    assert all(p.holds for p in rep.premise_reports)
    assert rep.verdict is Verdict.HOLDS_ON_SAMPLES
    c = rep.conclusion_report
    assert c.witness is None and c.max_violation == raw > 0.0
    assert c.notes == ("unconfirmed raw violation did not survive re-evaluation",)


def test_mean_value_search_stays_within_its_evaluation_budget(monkeypatch):
    from geoconvex import theorems

    rows = []
    batch = theorems.directional_derivative_batch
    monkeypatch.setattr(theorems, "directional_derivative_batch",
                        lambda h, X, V: rows.append(X.shape[0]) or batch(h, X, V))
    rep = _mean_value_miss(CheckConfig().refine_steps)
    assert rep.holds
    # the grid, the start, and two line-search steps of 5 rounds of 129
    # probes, each probe two derivatives; a derivative evaluates h twice
    assert rows[0] == 64 and sum(rows) == 64 + 2 * (1 + 2 * 5 * 129)
    assert 2 * sum(rows) <= 10_000


# three points ---------------------------------------------------------------

def test_three_point_square():
    inst = _inst("x1^2", box=(-0.5, 2.5))
    rep = verify_three_point(inst, 0.0, 1.0, 2.0, CFG)
    assert rep.holds
    w = rep.conclusion_report
    # hand values: (0-2)(2+4) = -12 against (0-1)+(1-4) = -4
    assert w.max_violation == pytest.approx(-12.0 - (-4.0), abs=1e-4)
    assert any("divided" in n for n in w.notes)


def test_three_point_affine():
    inst = _inst("2*x1 + 1", box=(-0.5, 2.5))
    rep = verify_three_point(inst, 0.0, 1.0, 2.0, CFG)
    assert rep.holds


def test_three_point_bad_ordering():
    inst = _inst("x1^2", box=(-0.5, 2.5))
    rep = verify_three_point(inst, 2.0, 1.0, 0.0, CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


# closure --------------------------------------------------------------------

def test_closure_sum_square_plus_exp():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    phi = Bifunction.from_source("a - b")
    E = EndoMap.identity(1)
    insts = [
        Instance(E1, ScalarFn.from_source("x1^2", 1), E, phi, dom),
        Instance(E1, ScalarFn.from_source("exp(x1)", 1), E, phi, dom),
    ]
    rep = verify_closure(TheoremId.SUM_41B, insts, None, CFG)
    assert rep.holds


def test_closure_scaling_seeded():
    rep = verify_closure(**closure_case(TheoremId.SCALING_41A, 3), cfg=CFG)
    assert rep.holds


def test_closure_negative_weight_fails():
    insts = closure_case(TheoremId.SCALING_41A, 3)["insts"]
    rep = verify_closure(TheoremId.SCALING_41A, insts, [-1.0], CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


@pytest.mark.parametrize("change", ["short", "long"])
def test_weighted_sum_needs_one_weight_per_member(change):
    case = closure_case(TheoremId.WEIGHTED_SUM, 3)
    insts, weights = case["insts"], case["weights"]
    w = weights[:-1] if change == "short" else weights + [1.0]
    rep = verify_closure(TheoremId.WEIGHTED_SUM, insts, w, CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED and rep.conclusion_report is None
    (premise,) = [p for p in rep.premise_reports if "premise: weights nonnegative" in p.notes]
    assert not premise.holds
    assert f"{len(w)} weights for {len(insts)} members" in premise.notes


def test_closure_conclusion_that_cannot_be_built():
    from geoconvex.errors import ExprDepthError

    # no weights: the weights premise fails before the combination is needed
    insts = closure_case(TheoremId.SCALING_41A, 3)["insts"]
    for weights in (None, []):
        rep = verify_closure(TheoremId.SCALING_41A, insts, weights, CFG)
        assert rep.verdict is Verdict.PREMISE_FAILED
        assert rep.conclusion_report is None
    # every member is within the depth limit, their sum is not: it raises
    # once the premises hold
    deep = "(" * 62 + "x1" + " + 1)" * 62 + "^2"
    E1 = euclidean(1)
    dom = DomainSet(E1, ((-1.0, 1.0),))
    family = [Instance(E1, ScalarFn.from_source(deep, 1), EndoMap.identity(1),
                       Bifunction.from_source("a - b"), dom)] * 2
    with pytest.raises(ExprDepthError):
        verify_closure(TheoremId.SUM_41B, family, None, CFG)


def test_sup_family_difference_gap_premise_fails():
    dom = DomainSet(E1, ((-2.0, 2.0),))
    phi = Bifunction.from_source("a - b")
    E = EndoMap.identity(1)
    insts = [
        Instance(E1, ScalarFn.from_source("x1", 1), E, phi, dom),
        Instance(E1, ScalarFn.from_source("1 - x1", 1), E, phi, dom),
    ]
    rep = verify_closure(TheoremId.SUP_FAMILY, insts, None, CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED
    failing = [p for p in rep.premise_reports if not p.holds]
    assert any("sequentially upper bounded" in p.notes[0] for p in failing)


def test_sup_family_first_component_gap_holds():
    rep = verify_closure(**closure_case(TheoremId.SUP_FAMILY, 1), cfg=CFG)
    assert rep.holds


# composition ----------------------------------------------------------------

def test_composition_exp_of_affine():
    rep = verify_composition(_inst("x1"), ScalarFn.from_source("exp(x1)", 1), CFG)
    assert rep.holds


def test_composition_identity_outer():
    inner = _inst("x1^2")
    rep = verify_composition(inner, ScalarFn.from_source("x1", 1), CFG)
    assert rep.conclusion_report.verdict == check_geodesic_phiE_convex_fn(inner, CFG).verdict


def test_composition_decreasing_outer_fails():
    rep = verify_composition(_inst("x1"), ScalarFn.from_source("-x1", 1), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


# diffeomorphic transport ----------------------------------------------------

def test_diffeo_affine():
    inst = _inst("x1^2", E="0.4*x1 + 0.1")
    H = EndoMap.from_source("2*x1 + 1", 1)
    Hinv = EndoMap.from_source("(x1 - 1)/2", 1)
    rep = verify_diffeo_invariance(inst, diffeo_from_endomaps(E1, H, Hinv), CFG)
    assert rep.holds


def test_diffeo_identity_matches_plain_check():
    inst = _inst("x1^2", E="0.4*x1 + 0.1")
    rep = verify_diffeo_invariance(inst, identity_diffeo(E1), CFG)
    got = rep.conclusion_report.to_dict()
    want = check_geodesic_phiE_convex_fn(inst, CFG).to_dict()
    got.pop("notes")
    want.pop("notes")
    assert got == want


def test_diffeo_stereographic_sphere_cap():
    inst = sphere_cap_instance(0)
    rep = verify_diffeo_invariance(inst, stereographic_diffeo(), CFG)
    assert rep.holds


def test_diffeo_bad_inverse_fails():
    inst = _inst("x1^2", E="0.4*x1 + 0.1")
    H = EndoMap.from_source("2*x1 + 1", 1)
    wrong = EndoMap.from_source("x1/2", 1)
    rep = verify_diffeo_invariance(inst, diffeo_from_endomaps(E1, H, wrong), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


# continuity -----------------------------------------------------------------

def test_continuity_bound_square():
    inst = _inst("x1^2", box=(-2.0, 2.0))
    rep = verify_continuity_bound(inst, K=4.5, eps=0.5, cfg=CFG)
    assert rep.holds


def test_continuity_constant_zero_bound():
    inst = _inst("1.5")
    rep = verify_continuity_bound(inst, K=0.0, eps=0.5, cfg=CFG)
    assert rep.holds


def test_continuity_understated_bound_fails():
    inst = _inst("x1^2", box=(-2.0, 2.0))
    rep = verify_continuity_bound(inst, K=0.0, eps=0.5, cfg=CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


# local minimum --------------------------------------------------------------

def test_local_min_square_at_zero():
    rep = verify_local_min(_inst("x1^2"), Point((0.0,)), CFG)
    assert rep.holds


def test_local_min_wrong_point_fails():
    rep = verify_local_min(_inst("x1^2"), Point((0.5,)), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


def test_local_min_sphere_pole():
    inst = sphere_cap_instance(2)
    rep = verify_local_min(inst, Point((0.0, 0.0, 1.0)), CFG)
    assert rep.holds


def _ball_edge_local_min():
    """A local-minimum case whose E(mu*) sits 1e-11 inside the Poincare
    ball's boundary, so the probes' exponential map leaves the ball."""
    B2 = poincare_ball(2)
    return Instance(B2, ScalarFn.from_source("x1 + x2", 2),
                    EndoMap.from_source(["0.99999999999", "0"], 2),
                    Bifunction.from_source("a - b"), DomainSet(B2, ((-1.0, 1.0),) * 2))


def test_local_min_probe_off_the_manifold_is_not_evaluable():
    rep = verify_local_min(_ball_edge_local_min(), Point((0.0, 0.0)), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED
    interior = rep.premise_reports[1]
    assert not interior.holds
    assert interior.notes == ("premise: E(mu*) interior with evaluable probes",
                              "probe at radius 0.02 not evaluable")
    # the failing probe's detail stays on the premise it failed
    minimum = rep.premise_reports[2]
    assert minimum.holds and minimum.notes == ("premise: mu* is a sampled local minimum",)


def test_local_min_probe_errors_propagate(monkeypatch):
    from geoconvex import theorems

    def broken(*args):
        raise RuntimeError("exp_batch bug")

    # a fault in the probe path is a bug to report, not a failed premise
    monkeypatch.setattr(theorems, "exp_batch", broken)
    with pytest.raises(RuntimeError, match="exp_batch bug"):
        verify_local_min(_inst("x1^2"), Point((0.0,)), CFG)


# gap-function limits --------------------------------------------------------

def test_phi_limit_decreasing_offsets():
    inst = _inst("x1^2")
    phis = [Bifunction.from_source(f"a - b + {1.0 / i!r}") for i in range(1, 33)]
    rep = verify_phi_limit(TheoremId.PHI_LIMIT, inst, phis, CFG)
    assert rep.holds
    assert rep.conclusion_report.flags["phi_sequence_converged"] is True


def test_phi_limit_constant_sequence_matches_base():
    inst = _inst("x1^2")
    rep = verify_phi_limit(TheoremId.PHI_LIMIT, inst, [inst.phi] * 4, CFG)
    assert rep.conclusion_report.verdict == check_geodesic_phiE_convex_fn(inst, CFG).verdict


def test_phi_limit_oscillation_flags_nonconvergence():
    inst = _inst("x1^2")
    phis = [Bifunction.from_source("a - b + 1"), Bifunction.from_source("a - b")] * 3
    phis.append(Bifunction.from_source("a - b + 1"))
    rep = verify_phi_limit(TheoremId.PHI_LIMIT, inst, phis, CFG)
    assert rep.holds  # verdict unaffected
    assert rep.conclusion_report.flags["phi_sequence_converged"] is False


def test_phi_series_limit():
    inst = _inst("x1^2")
    parts = ["a - b + 0.5"] + [f"{-(2.0 ** -l)!r}" for l in range(2, 9)]
    rep = verify_phi_limit(TheoremId.PHI_SERIES_LIMIT, inst,
                           [Bifunction.from_source(p) for p in parts], CFG)
    assert rep.holds


# strict differential --------------------------------------------------------

def test_strict_differential_square():
    rep = verify_strict_differential(_inst("x1^2"), CFG)
    assert rep.holds


def test_strict_differential_affine_premise_fails():
    rep = verify_strict_differential(_inst("x1 + 1"), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED


def test_strict_differential_asymmetric_gap_fails():
    rep = verify_strict_differential(_inst("x1^2", phi="a - 2*b"), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED
    failing = [p for p in rep.premise_reports if not p.holds]
    assert any("antisymmetric" in p.notes[0] for p in failing)


# epigraph characterization ---------------------------------------------------

def test_epigraph_equiv_convex():
    rep = verify_epigraph_equiv(_inst("x1^2", box=(-1.0, 1.0)), CFG)
    assert rep.holds


def test_epigraph_equiv_concave_agrees_on_violation():
    rep = verify_epigraph_equiv(_inst("-(x1^2)", box=(-1.0, 1.0)), CFG)
    assert rep.holds
    assert "function check: Violated" in rep.conclusion_report.notes
    assert "epigraph set check: Violated" in rep.conclusion_report.notes


def test_epigraph_equiv_affine():
    rep = verify_epigraph_equiv(_inst("0.5*x1 + 1", box=(-1.0, 1.0)), CFG)
    assert rep.holds


# intersections ---------------------------------------------------------------

def test_intersection_of_epigraphs():
    rep = verify_intersection(**intersection_case(0), cfg=CFG)
    assert rep.holds


def test_intersection_idempotent():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    s = quad_epigraph_set(ScalarFn.from_source("x1^2", 1), dom)
    phi = Bifunction.from_source("a - b")
    single = verify_intersection(E1, EndoMap.identity(1), phi, [s], CFG)
    double = verify_intersection(E1, EndoMap.identity(1), phi, [s, s], CFG)
    assert single.verdict == double.verdict


def test_intersection_disjoint_vacuous():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    lowband = parse("min(v - 0, 1 - v)", point_vars(1) + ("v",))
    highband = parse("min(v - 5, 6 - v)", point_vars(1) + ("v",))
    from geoconvex.algebra import ProductSet

    s1 = ProductSet(dom, lowband, (0.0, 6.0))
    s2 = ProductSet(dom, highband, (0.0, 6.0))
    phi = Bifunction.from_source("a - b")
    rep = verify_intersection(E1, EndoMap.identity(1), phi, [s1, s2], CFG)
    assert rep.holds
    assert any("vacuous" in n for n in rep.conclusion_report.notes)


def test_intersect_product_sets_meets_memberships_and_disjoint_v_ranges():
    from geoconvex.algebra import ProductSet, member_mask_batch
    from geoconvex.theorems import intersect_product_sets

    graph = parse("v - x1^2", point_vars(1) + ("v",))
    below = DomainSet(E1, ((-1.0, 1.0),), parse("0.5 - x1", point_vars(1)))
    above = DomainSet(E1, ((-2.0, 0.8),), parse("x1 + 0.5", point_vars(1)))
    plain = DomainSet(E1, ((-3.0, 3.0),))
    both = intersect_product_sets([ProductSet(below, graph, (0.0, 1.0)),
                                   ProductSet(plain, graph, (0.5, 4.0)),
                                   ProductSet(above, graph, (2.0, 3.0))])
    assert both.base.box == ((-1.0, 0.8),)
    # both predicates hold only on (-0.5, 0.5)
    X = np.array([[-0.7], [-0.4], [0.4], [0.7]])
    assert member_mask_batch(both.base, X).tolist() == [False, True, True, False]
    # v-ranges (0, 1) and (2, 3) do not meet: a sliver at the larger low end
    assert both.v_range == (2.0, 2.0 + 1e-9)


# supremum via epigraphs -------------------------------------------------------

def test_sup_epigraph_family():
    from geoconvex.instances import sup_epigraph_case

    rep = verify_sup_epigraph(**sup_epigraph_case(4), cfg=CFG)
    assert rep.holds


# premise bookkeeping ----------------------------------------------------------

def test_premise_failed_carries_failing_report():
    rep = verify_strict_differential(_inst("x1 + 1"), CFG)
    assert rep.verdict is Verdict.PREMISE_FAILED
    failing = [p for p in rep.premise_reports if not p.holds]
    assert failing and failing[0].notes


def test_theorem_report_serializes():
    rep = verify_mean_value(_inst("x1^2"), 1.0, 0.0, CFG)
    d = rep.to_dict()
    assert d["id"] == TheoremId.MEAN_VALUE_31.value
    assert d["verdict"] == "HoldsOnSamples"
    assert isinstance(d["premises"], list) and d["conclusion"]


# early exits: a premise that the rest of a verifier needs ends it with
# PremiseFailed, no conclusion and exactly the premises recorded so far

_FAMILY = [_inst("x1^2"), _inst("x1^2", phi="a - b + 1")]
_EXIT_CFG = CheckConfig(seed=5, samples=200, refine_steps=8)
# a domain with no member: every draw from it exhausts its rejection budget
_NO_MEMBER = Instance(E1, ScalarFn.from_source("x1^2", 1), EndoMap.identity(1),
                      Bifunction.from_source("a - b"),
                      DomainSet(E1, ((-1.0, 1.0),), parse("x1 - 100", point_vars(1))))
# E = 2*x sends every cap member off the sphere, so no E-image is valid
_OFF_SPHERE = [
    Instance(sphere(2), ScalarFn.from_source(h, 3),
             EndoMap.from_source(["2*x1", "2*x2", "2*x3"], 3), Bifunction.from_source("a"),
             DomainSet(sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3))))
    for h in ("x3", "x3^2")
]
_EARLY_EXITS = {
    "mean_value_E_raises": (
        lambda: verify_mean_value(_inst("x1^2", E="log(x1)"), -1.0, 1.0, _EXIT_CFG),
        ["h, E evaluable at u1, u2"], ()),
    "mean_value_constant_E": (
        lambda: verify_mean_value(_inst("x1^2", E="0.5"), -1.0, 1.0, _EXIT_CFG),
        ["h, E evaluable at u1, u2", "h(E(u1)) differs from h(E(u2))", "E(u1) != E(u2)"], ()),
    "three_point_unordered": (
        lambda: verify_three_point(_inst("x1^2"), 1.0, 0.0, -1.0, _EXIT_CFG),
        ["h, E evaluable at the three points", "ordering E(mu1) < E(mu2) < E(mu3)"], ()),
    "three_point_E_raises": (
        lambda: verify_three_point(_inst("x1^2", E="log(x1)"), -1.0, 0.5, 1.0, _EXIT_CFG),
        ["h, E evaluable at the three points"], ()),
    "phi_limit_empty": (
        lambda: verify_phi_limit(TheoremId.PHI_LIMIT, _inst("x1^2"), [], _EXIT_CFG),
        ["nonempty gap sequence"], ()),
    "phi_limit_failing_member": (
        lambda: verify_phi_limit(
            TheoremId.PHI_LIMIT, _inst("x1^2"),
            [Bifunction.from_source(s) for s in ("a - b - 1", "a - b")], _EXIT_CFG),
        ["convexity under member 0", "convexity under member 1"],
        ("deviation from the limit on sampled value pairs: first 1.0000000000000004, "
         "max 1.0000000000000004, last 0.0", "convergence evidence flag: True")),
    "local_min_E_raises": (
        lambda: verify_local_min(_inst("x1^2", E="log(x1)"), Point((-1.0,)), _EXIT_CFG),
        ["E(mu*) and h(E(mu*)) evaluable"], ()),
    "composition_outer_raises": (
        lambda: verify_composition(_inst("x1^2"), ScalarFn.from_source("log(x1 - 100)", 1),
                                   _EXIT_CFG),
        ["inner function geodesic E-convex (difference gap)",
         "outer function evaluable on the range"], ()),
    "continuity_empty_inset": (
        lambda: verify_continuity_bound(_inst("x1^2"), K=10.0, eps=3.0, cfg=_EXIT_CFG),
        ["phi bounded above by K on sampled value pairs", "eps positive", "convexity",
         "pairs exist inside the inset region"], ()),
    "sum_family_differs": (
        lambda: verify_closure(TheoremId.SUM_41B, _FAMILY, None, _EXIT_CFG),
        ["family shares manifold, E, phi, domain"], ()),
    "sup_epigraph_family_differs": (
        lambda: verify_sup_epigraph(_FAMILY, _EXIT_CFG),
        ["family shares manifold, E, phi, domain"], ()),
    "diffeo_no_member": (
        lambda: verify_diffeo_invariance(_NO_MEMBER, diffeo_from_endomaps(
            E1, EndoMap.from_source("2*x1 + 1", 1), EndoMap.from_source("(x1 - 1)/2", 1)),
            _EXIT_CFG),
        ["domain sampleable"], ()),
    "chart_continuity_no_member": (
        lambda: verify_chart_continuity(_NO_MEMBER, K=10.0, eps=0.1, cfg=_EXIT_CFG),
        ["domain sampleable"], ()),
    "sup_family_no_valid_image": (
        lambda: verify_closure(TheoremId.SUP_FAMILY, _OFF_SPHERE, None, _EXIT_CFG),
        ["family shares manifold, E, phi, domain", "member 0 convexity", "member 1 convexity",
         "value streams sampleable"], ()),
    "sup_epigraph_member_nowhere_finite": (
        lambda: verify_sup_epigraph(
            [_inst("x1^2 + 1", box=(-1.0, 1.0)), _inst("log(x1 - 10)", box=(-1.0, 1.0))],
            _EXIT_CFG),
        ["family shares manifold, E, phi, domain",
         "phi non-decreasing (combination-monotone probe)", "family bounded above on samples"], ()),
}


@pytest.mark.parametrize("case", list(_EARLY_EXITS))
def test_early_exit_premises(case):
    run, names, notes = _EARLY_EXITS[case]
    rep = run()
    assert rep.verdict is Verdict.PREMISE_FAILED
    assert [p.notes[0] for p in rep.premise_reports] == [f"premise: {n}" for n in names]
    assert rep.notes == notes
    assert rep.conclusion_report is None


# conclusions driven to Violated ----------------------------------------------
#
# Each witness is re-evaluated here through the scalar h, E and phi and
# must stay above threshold.  Conclusions that follow from passing premises
# cannot be violated through their verifier, so those scans run directly.

def _witnesses(report):
    assert report.verdict is Verdict.VIOLATED
    return (report.witness,) + report.refined


def test_diffeo_conclusion_violated_witness_rechecks():
    inst = _inst("-(x1^2)", E="0.4*x1 + 0.1")
    diffeo = diffeo_from_endomaps(E1, EndoMap.from_source("2*x1 + 1", 1),
                                  EndoMap.from_source("(x1 - 1)/2", 1))
    rep = _finish_scan(_ConvexityScan(diffeo.transport(inst), CFG), CFG)

    def R(x):
        return diffeo.inv(diffeo.fwd(tuple(x)))

    for w in _witnesses(rep):
        w1, w2 = (inst.E(R(p.coords)) for p in w.points)
        h1, h2 = inst.h(R(w1)), inst.h(R(w2))
        curve = geodesic(GeodesicSpec(E1, Point(w1), Point(w2)), w.t)
        lhs = inst.h(R(curve.coords))
        rhs = h2 + w.t * inst.phi(h1, h2)
        assert lhs - rhs > CFG.threshold(rhs)


def test_continuity_conclusion_violated_witness_rechecks():
    inst = _inst("x1^2", E="0.8*x1")
    L = 0.1
    rep = _finish_scan(_LipschitzScan(inst, CFG, identity_diffeo(E1), L,
                                      np.array([-1.5]), np.array([1.5])), CFG)
    for w in _witnesses(rep):
        (e1,), (e2,) = (inst.E(p.coords) for p in w.points)
        assert -1.5 <= e1 <= 1.5 and -1.5 <= e2 <= 1.5
        rhs = L * abs(e1 - e2)
        assert abs(inst.h((e1,)) - inst.h((e2,))) - rhs > CFG.threshold(rhs)


def test_chart_continuity_conclusion_violated_witness_rechecks():
    inst = sphere_cap_instance(0)
    chart = stereographic_diffeo()
    L = 0.01
    rep = _finish_scan(_LipschitzScan(inst, CFG, chart, L, np.array([-0.5, -0.5]),
                                      np.array([0.5, 0.5])), CFG)
    for w in _witnesses(rep):
        y1, y2 = (np.array(chart.fwd(inst.E(p.coords))) for p in w.points)
        h1, h2 = (inst.h(chart.inv(tuple(y))) for y in (y1, y2))
        rhs = L * float(np.linalg.norm(y1 - y2))
        assert abs(h1 - h2) - rhs > CFG.threshold(rhs)


def test_local_min_conclusion_violated_witness_rechecks():
    inst = _inst("x1^2")
    w_star = Point((0.5,))
    h_star = inst.h(w_star.coords)
    rep = _finish_scan(_LocalMinScan(inst, CFG, w_star, h_star), CFG)
    for w in _witnesses(rep):
        u, star = w.points
        assert star == w_star
        assert -inst.phi(inst.h(inst.E(u.coords)), h_star) > CFG.threshold(0.0)


def test_strict_differential_violated_witness_rechecks():
    # close pairs of x^2 have derivative gaps 2*|e1 - e2|^2, far below 1
    inst = _inst("x1^2")
    tol = 1.0
    rep = verify_strict_differential(inst, CFG, tol_strict=tol)
    assert all(p.holds for p in rep.premise_reports)
    assert rep.verdict is Verdict.VIOLATED
    for w in _witnesses(rep.conclusion_report):
        e1, e2 = (Point(inst.E(p.coords)) for p in w.points)
        d_end = differentiate_numeric(inst.h, e1, [-c for c in log_map(E1, e1, e2)])
        d_start = differentiate_numeric(inst.h, e2, log_map(E1, e2, e1))
        diff = abs(d_end - d_start)
        assert tol - diff > CFG.threshold(diff)


def test_local_min_conclusion_reports_domain_error():
    dom = DomainSet(E1, ((-1.0, 1.0),))
    inst = Instance(E1, ScalarFn.from_source("if(x1 < -0.5, log(x1), x1^2)", 1),
                    EndoMap.identity(1), Bifunction.from_source("a - b"), dom)
    rep = verify_local_min(inst, Point((0.0,)), CFG.replace(samples=2000))
    assert all(p.holds for p in rep.premise_reports)
    assert rep.verdict is Verdict.DOMAIN_ERROR
    assert any("(pair " in n for n in rep.conclusion_report.notes)


def test_conclusion_same_report_at_any_worker_count():
    inst = _inst("x1^2", E="0.4*x1 + 0.1")
    diffeo = diffeo_from_endomaps(E1, EndoMap.from_source("2*x1 + 1", 1),
                                  EndoMap.from_source("(x1 - 1)/2", 1))
    one = verify_diffeo_invariance(inst, diffeo, CFG.replace(workers=1))
    two = verify_diffeo_invariance(inst, diffeo, CFG.replace(workers=2))
    assert one.holds
    assert one.to_dict() == two.to_dict()
