"""Acceptance suite: one check per criterion, each printing a PASS line.

Budgets and tolerances are pinned here; nothing is deferred to later
calibration.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from geoconvex import (
    Bifunction,
    CheckConfig,
    DomainSet,
    EndoMap,
    Instance,
    ScalarFn,
    Verdict,
    check_geodesic_phiE_convex_fn,
    check_phiE_convex_interval,
    check_seq_upper_bounded,
    check_slope_inequality,
    euclidean,
    exp_map,
    log_map,
    poincare_ball,
    sphere,
)
from geoconvex import rng
from geoconvex.checker import LINE_PROBES, LINE_ROUNDS
from geoconvex.cli import main as cli_main
from geoconvex.instances import (
    epigraph_instance,
    interval_instance,
    smooth_increasing_instance,
    theorem_case,
)
from geoconvex.manifold import (
    GeodesicSpec,
    Point,
    distance,
    geodesic,
)
from geoconvex.theorems import (
    TheoremId,
    verify_closure,
    verify_epigraph_equiv,
    verify_mean_value,
    verify_strict_differential,
    verify_three_point,
)

E1 = euclidean(1)


def _report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _piecewise_instance(const_remap: bool) -> Instance:
    h = ScalarFn.from_source("if(x1 >= 0, 1, -(x1^2))", 1)
    phi = Bifunction.from_source("a - 2*b")
    if const_remap:
        dom = DomainSet(E1, ((-2.0, 2.0),))
        E = EndoMap.from_source("-1", 1)
    else:
        dom = DomainSet(E1, ((0.5, 2.0),))
        E = EndoMap.identity(1)
    return Instance(E1, h, E, phi, dom)


def test_criterion_1_piecewise_reproduction():
    cfg = CheckConfig(seed=42, samples=100_000)
    t0 = time.monotonic()
    holds = check_phiE_convex_interval(_piecewise_instance(True), cfg)
    t_holds = time.monotonic() - t0
    t0 = time.monotonic()
    violated = check_phiE_convex_interval(_piecewise_instance(False), cfg)
    t_viol = time.monotonic() - t0
    ok = (
        holds.verdict is Verdict.HOLDS_ON_SAMPLES
        and holds.max_violation <= 1e-9
        and holds.samples_used >= 100_000
        and t_holds < 2.0
        and violated.verdict is Verdict.VIOLATED
        and violated.witness.violation >= 0.5 - 1e-9
        and t_viol < 2.0
    )
    _report(
        1, ok,
        f"(holds: {holds.verdict.value}, max {holds.max_violation!r}, {t_holds:.2f}s; "
        f"violated: {violated.verdict.value}, witness {violated.witness.violation!r}, "
        f"{t_viol:.2f}s)",
    )


def test_criterion_2_combination_slope_agreement():
    cfg = CheckConfig(seed=2024, samples=2500)
    disagreements = []
    for seed in range(100):
        inst = interval_instance(seed)
        a = check_phiE_convex_interval(inst, cfg)
        b = check_slope_inequality(inst, cfg)
        if a.verdict != b.verdict:
            disagreements.append((seed, a.verdict.value, b.verdict.value, inst.label))
    _report(2, not disagreements, f"(100 instances, disagreements: {disagreements[:3]})")


def test_criterion_3_flat_reduction_agreement():
    cfg = CheckConfig(seed=31, samples=2500)
    disagreements = []
    for seed in range(100):
        inst = interval_instance(seed)
        a = check_geodesic_phiE_convex_fn(inst, cfg)
        b = check_phiE_convex_interval(inst, cfg)
        if a.verdict != b.verdict:
            disagreements.append((seed, a.verdict.value, b.verdict.value))
    _report(3, not disagreements, f"(100 instances, disagreements: {disagreements[:3]})")


def test_criterion_4_epigraph_characterization():
    cfg = CheckConfig(seed=4, samples=1200, tol_abs=1e-8, tol_rel=1e-8)
    bad = []
    for seed in range(50):
        rep = verify_epigraph_equiv(epigraph_instance(seed), cfg)
        if not rep.holds:
            bad.append((seed, rep.verdict.value, rep.conclusion_report
                        and rep.conclusion_report.notes))
    _report(4, not bad, f"(50 instances, failures: {bad[:3]})")


def test_criterion_5_closure_suite():
    cfg = CheckConfig(seed=5, samples=300, t_grid=9, refine_steps=16)
    failures = []
    for tid in (TheoremId.SCALING_41A, TheoremId.SUM_41B, TheoremId.WEIGHTED_SUM,
                TheoremId.COMPOSITION, TheoremId.INTERSECTION_52):
        for seed in range(100):
            verifier, kwargs = theorem_case(tid, seed, cfg)
            rep = verifier(**kwargs)
            if not rep.holds:
                failures.append((tid.value, seed, rep.verdict.value))
    _report(5, not failures, f"(500 premise-passing cases, failures: {failures[:3]})")


def _sphere_rk4_batch(P0, V0, ts, steps=256):
    y = P0.copy()
    v = V0 * ts[:, None]  # unit-time reparameterized velocity
    h = 1.0 / steps

    def acc(y, v):
        return -np.einsum("ij,ij->i", v, v)[:, None] * y

    for _ in range(steps):
        k1y, k1v = v, acc(y, v)
        k2y, k2v = v + 0.5 * h * k1v, acc(y + 0.5 * h * k1y, v + 0.5 * h * k1v)
        k3y, k3v = v + 0.5 * h * k2v, acc(y + 0.5 * h * k2y, v + 0.5 * h * k2v)
        k4y, k4v = v + h * k3v, acc(y + h * k3y, v + h * k3v)
        y = y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return y


def test_criterion_6_geometry_accuracy():
    s = rng.Stream(6)
    S2, B2, E2 = sphere(2), poincare_ball(2), euclidean(2)
    # 1000 seeded (pair, t) slerp samples against RK4 integration
    P, Q, T = [], [], []
    while len(P) < 1000:
        p = np.array([s.normal() for _ in range(3)])
        q = np.array([s.normal() for _ in range(3)])
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        if np.dot(p, q) < -0.95:
            continue
        P.append(p)
        Q.append(q)
        T.append(s.uniform())
    P, Q, T = np.array(P), np.array(Q), np.array(T)
    V = np.array([log_map(S2, Point(tuple(p)), Point(tuple(q))) for p, q in zip(P, Q)])
    oracle = _sphere_rk4_batch(P, V, T)
    got = np.array([
        geodesic(GeodesicSpec(S2, Point(tuple(q)), Point(tuple(p))), float(t)).coords
        for p, q, t in zip(P, Q, T)
    ])
    rk4_err = float(np.max(np.linalg.norm(got - oracle, axis=1)))

    # length additivity and exp/log round trips on all three manifolds
    add_err = 0.0
    rt_err = 0.0
    for m, maker in (
        (E2, lambda: Point((s.uniform(-2, 2), s.uniform(-2, 2)))),
        (S2, None),
        (B2, lambda: Point((s.uniform(-0.4, 0.4), s.uniform(-0.4, 0.4)))),
    ):
        for _ in range(120):
            if maker is None:
                a = np.array([s.normal() for _ in range(3)])
                b = np.array([s.normal() for _ in range(3)])
                a /= np.linalg.norm(a)
                b /= np.linalg.norm(b)
                if np.dot(a, b) < -0.95:
                    continue
                p, q = Point(tuple(a)), Point(tuple(b))
            else:
                p, q = maker(), maker()
            spec = GeodesicSpec(m, q, p)  # curve from p (t=0) to q (t=1)
            total = distance(m, p, q)
            u = s.uniform()
            mid = geodesic(spec, u)
            add_err = max(
                add_err,
                abs(distance(m, p, mid) + distance(m, mid, q) - total),
            )
            v = log_map(m, p, q)
            back = exp_map(m, p, v)
            rt_err = max(rt_err, float(np.max(np.abs(np.array(back.coords) - np.array(q.coords)))))
    ok = rk4_err <= 1e-6 and add_err <= 1e-8 and rt_err <= 1e-9
    _report(
        6, ok,
        f"(slerp vs RK4 max err {rk4_err:.2e}; additivity {add_err:.2e}; "
        f"exp/log round trip {rt_err:.2e})",
    )


def test_criterion_7_three_point_undivided():
    cfg = CheckConfig(seed=7, samples=400)
    failures = []
    divided_failures = 0
    for seed in range(100):
        inst = smooth_increasing_instance(seed)
        blo, bhi = inst.domain.box[0]
        span = bhi - blo
        mus = [blo + span * f for f in (0.15, 0.5, 0.85)]
        rep = verify_three_point(inst, *mus, cfg)
        if rep.verdict is Verdict.PREMISE_FAILED:
            failures.append((seed, "premise"))
        elif not rep.holds:
            failures.append((seed, rep.verdict.value))
        elif any("is False" in n for n in rep.conclusion_report.notes):
            divided_failures += 1  # logged, never counted as a failure
    _report(
        7, not failures,
        f"(100 premise-passing instances, failures: {failures[:3]}, "
        f"divided printed form failed {divided_failures} times — logged only)",
    )


def test_criterion_8_mean_value_witnesses():
    cfg = CheckConfig(seed=8, samples=1200)
    grid = 64
    # the grid, then at most two line-search steps, each probe two derivatives
    budget = 2 * grid + min(cfg.refine_steps, 2) * LINE_ROUNDS * LINE_PROBES * 4 + 16
    assert budget <= 10_000  # structural evaluation budget per instance
    failures = []
    for seed in range(20):
        inst = smooth_increasing_instance(seed)
        blo, bhi = inst.domain.box[0]
        rep = verify_mean_value(inst, bhi * 0.8, blo * 0.8, cfg, grid=grid)
        if not rep.holds:
            failures.append((seed, rep.verdict.value))
    _report(8, not failures,
            f"(20 instances, eval budget {budget} <= 1e4, failures: {failures[:3]})")


def test_criterion_9_determinism(tmp_path):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[0.5, 2]]},
        "h": "if(x1 >= 0, 1, -(x1^2))",
        "phi": "a - 2*b",
        "cfg": {"seed": 42, "samples": 20000},
    }
    cfgp = tmp_path / "job.json"
    cfgp.write_text(json.dumps(job))
    paths = [tmp_path / n for n in ("r1.json", "r2.json", "w8.json")]
    cli_main(["check", "--config", str(cfgp), "--out", str(paths[0]), "--workers", "1"])
    cli_main(["check", "--config", str(cfgp), "--out", str(paths[1]), "--workers", "1"])
    cli_main(["check", "--config", str(cfgp), "--out", str(paths[2]), "--workers", "8"])

    def _stable_bytes(path):
        payload = json.loads(path.read_text())
        payload.pop("wall_time_ms")  # the only wall-clock field
        payload["job"]["cfg"].pop("workers")
        return json.dumps(payload, sort_keys=True, indent=2).encode()

    b0, b1, b8 = (_stable_bytes(p) for p in paths)
    ok = b0 == b1 and b0 == b8
    _report(9, ok, f"(reruns identical: {b0 == b1}; workers 1 vs 8 identical: {b0 == b8})")


def test_criterion_10_negative_controls():
    cfg = CheckConfig(seed=10, samples=600)
    phi = Bifunction.from_source("a - b")
    seq = check_seq_upper_bounded(phi, EndoMap.identity(1), [((1.0, 0.0), (0.0, 1.0))])
    seq_ok = (
        seq.verdict is Verdict.VIOLATED
        and seq.witness.lhs == pytest.approx(1.0)
        and seq.witness.rhs == pytest.approx(0.0)
    )

    dom = DomainSet(E1, ((-1.0, 1.0),))
    affine = Instance(E1, ScalarFn.from_source("0.5*x1 + 1", 1),
                      EndoMap.identity(1), phi, dom)
    strict = verify_strict_differential(affine, cfg)
    strict_ok = strict.verdict is Verdict.PREMISE_FAILED

    crossing = [
        Instance(E1, ScalarFn.from_source("x1", 1), EndoMap.identity(1), phi,
                 DomainSet(E1, ((-2.0, 2.0),))),
        Instance(E1, ScalarFn.from_source("1 - x1", 1), EndoMap.identity(1), phi,
                 DomainSet(E1, ((-2.0, 2.0),))),
    ]
    sup = verify_closure(TheoremId.SUP_FAMILY, crossing, None, cfg)
    sup_ok = sup.verdict is Verdict.PREMISE_FAILED

    _report(
        10, seq_ok and strict_ok and sup_ok,
        f"(seq gap witness: {seq_ok}; strict on affine: {strict.verdict.value}; "
        f"SupFamily under difference gap: {sup.verdict.value})",
    )
