"""A fingerprint of every kind of report geoconvex gives.

A fixed list of entries covers every statement id at two instance seeds,
the function, strict, counterexample-search, interval and slope checks, the
set check, product sets that hold, are violated, are vacuous or are partly
sampled, one epigraph query, one DomainError and one PremiseFailed case,
a slope and a set check that meet a domain error in mid-run, a function
and a set check on a box of the Poincare ball, and the gap-function checks
on holding, violated and non-evaluable phis.
Every entry runs at workers 1 and 2, which must agree.  `fingerprint.json`
pins, per entry, its verdict, `repr(max_violation)` (of the conclusion for a
statement), `samples_used` (summed over nested reports) and a sha256 prefix
of its canonical report (sorted-key JSON; the reports of the API carry no
wall-clock field).

    python tests/fingerprint.py           # print the entries that moved
    python tests/fingerprint.py --write   # rewrite the pin
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PIN = HERE / "fingerprint.json"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from geoconvex import (  # noqa: E402
    Bifunction,
    CheckConfig,
    DomainSet,
    EndoMap,
    Instance,
    ProductSet,
    ScalarFn,
    check_additive,
    check_antisymmetric,
    check_geodesic_E_convex_set,
    check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set,
    check_nonneg_homogeneous,
    check_nonneg_linear,
    check_phiE_convex_interval,
    check_seq_upper_bounded,
    check_slope_inequality,
    epigraph_membership,
    euclidean,
    poincare_ball,
    search_counterexample,
    sphere,
)
from geoconvex.exprlang import parse, point_vars  # noqa: E402
from geoconvex.instances import theorem_case  # noqa: E402
from geoconvex.theorems import TheoremId  # noqa: E402

# the implication suite's budget, for the statement verifiers
STATEMENT_CFG = CheckConfig(seed=1234, samples=160, t_grid=9, refine_steps=12)
STATEMENT_SEEDS = (0, 3)
CHECK_CFG = CheckConfig(seed=42, samples=2000, refine_steps=12)
# sets whose draws exhaust the rejection budget: every such draw costs
# MAX_REJECTION_ROUNDS rounds, so these take fewer samples
RARE_CFG = CHECK_CFG.replace(samples=200)
# checks that meet a domain error in mid-run, at the seed of a slope job
# whose counters once depended on the worker count
MID_ERROR_CFG = CHECK_CFG.replace(seed=3)
# log(a) is non-finite at sample 0 of every property at seed 0; at seed 4
# the first such samples are 9, 1 and 3 (homogeneous, additive, antisymmetric)
LOG_SEEDS = (0, 4)
WORKERS = (1, 2)
HASH_CHARS = 16

E1, E2, S2, B2 = euclidean(1), euclidean(2), sphere(2), poincare_ball(2)
DIFF = Bifunction.from_source("a - b")


def _inst1d(h, phi, box, E=None, membership=None) -> Instance:
    dom = DomainSet(E1, (box,), membership and parse(membership, point_vars(1)))
    Emap = EndoMap.from_source(E, 1) if E else EndoMap.identity(1)
    return Instance(E1, ScalarFn.from_source(h, 1), Emap, Bifunction.from_source(phi), dom)


def _cap() -> DomainSet:
    return DomainSet(S2, ((-2.0, 2.0),) * 3, parse("x3 - 0.5", point_vars(3)))


def _ball_distance() -> Instance:
    h = ScalarFn.from_source("(2*artanh(sqrt(x1^2 + x2^2 + 1e-30)))^2", 2)
    return Instance(B2, h, EndoMap.identity(2), DIFF, DomainSet(B2, ((-0.7, 0.7),) * 2))


def _ball_box() -> DomainSet:
    return DomainSet(B2, ((-0.5, 0.5),) * 2)


def _product_set(graph: str, v_range, box=(-1.0, 1.0)) -> ProductSet:
    return ProductSet(DomainSet(E1, (box,)), parse(graph, point_vars(1) + ("v",)), v_range)


def _product_check(S: ProductSet):
    return lambda cfg: check_geodesic_phiE_convex_set(E1, EndoMap.identity(1), DIFF, S, cfg)


def _epigraph_query(cfg) -> dict:
    inst = _inst1d("x1^2", "a - b", (-1.0, 1.0), E="x1^2")
    dist, mu = epigraph_membership(inst, cfg).preimage_distance((0.25,))
    # the preimage distance stands in for max_violation
    return {"verdict": "Located", "max_violation": dist, "samples_used": cfg.samples,
            "preimage": list(mu)}


GAP_CHECKS = {"homogeneous": check_nonneg_homogeneous, "additive": check_additive,
              "antisymmetric": check_antisymmetric, "linear": check_nonneg_linear}


def _gap_check(check, src: str):
    return lambda cfg: check(Bifunction.from_source(src), cfg)


def _seq_check(src: str, sequences):
    return lambda cfg: check_seq_upper_bounded(
        Bifunction.from_source(src), EndoMap.identity(1), sequences, cfg)


def entries() -> list[tuple[str, CheckConfig, object]]:
    """(label, config, run) of every entry; run(cfg) returns a Report or a
    dict with the fields of one."""
    crit1 = _inst1d("if(x1 >= 0, 1, -(x1^2))", "a - 2*b", (0.5, 2.0))
    out = []
    for tid in TheoremId:
        for seed in STATEMENT_SEEDS:
            def run(cfg, tid=tid, seed=seed):
                verifier, kwargs = theorem_case(tid, seed, cfg)
                return verifier(**kwargs)
            out.append((f"{tid.value}[{seed}]", STATEMENT_CFG, run))
    checks = [
        ("fn.quartic", lambda cfg: check_geodesic_phiE_convex_fn(
            _inst1d("x1^2 - 0.05*x1^4", "a - b", (-1.5, 1.5)), cfg)),
        ("fn.sphere_cap", lambda cfg: check_geodesic_phiE_convex_fn(
            Instance(S2, ScalarFn.from_source("2 - 2*x3", 3), EndoMap.identity(3), DIFF, _cap()),
            cfg)),
        ("fn.ball_distance", lambda cfg: check_geodesic_phiE_convex_fn(_ball_distance(), cfg)),
        ("fn.premise_failed", lambda cfg: check_geodesic_phiE_convex_fn(
            _inst1d("x1^2", "a - b", (-2.0, 2.0), membership="x1^2 - 1"), cfg)),
        ("strict.holds", lambda cfg: check_geodesic_phiE_convex_fn(
            _inst1d("x1^2", "a - b", (-1.0, 1.0)), cfg, strict=True)),
        ("strict.violated", lambda cfg: check_geodesic_phiE_convex_fn(
            _inst1d("2", "a - b", (-1.0, 1.0)), cfg, strict=True)),
        ("search.concave", lambda cfg: search_counterexample(
            _inst1d("-(x1^2)", "a - b", (-1.0, 1.0)), cfg)),
        ("search.sphere_cap", lambda cfg: search_counterexample(
            Instance(S2, ScalarFn.from_source("2*x3 - 2", 3), EndoMap.identity(3), DIFF, _cap()),
            cfg)),
        ("interval.holds", lambda cfg: check_phiE_convex_interval(
            _inst1d("if(x1 >= 0, 1, -(x1^2))", "a - 2*b", (-2.0, 2.0), E="-1"), cfg)),
        ("interval.violated", lambda cfg: check_phiE_convex_interval(crit1, cfg)),
        ("interval.domain_error", lambda cfg: check_phiE_convex_interval(
            _inst1d("log(x1)", "a - b", (0.5, 2.0), E="x1 - 1"), cfg)),
        ("slope.holds", lambda cfg: check_slope_inequality(
            _inst1d("x1^2", "a - b", (0.0, 1.0)), cfg)),
        ("slope.violated", lambda cfg: check_slope_inequality(
            _inst1d("-(x1^2)", "a - b", (0.0, 1.0)), cfg)),
        ("set.sphere_cap", lambda cfg: check_geodesic_E_convex_set(
            S2, EndoMap.identity(3), _cap(), cfg)),
        ("set.lobes", lambda cfg: check_geodesic_E_convex_set(
            E1, EndoMap.identity(1), DomainSet(E1, ((-2.0, 2.0),), parse("x1^2 - 1", point_vars(1))),
            cfg)),
        ("product.holds", _product_check(_product_set("v - x1^2", (0.0, 3.0)))),
        ("product.violated", _product_check(_product_set("v - (-(x1^2))", (-1.0, 2.0)))),
        ("epigraph.query", _epigraph_query),
    ]
    rare = [
        ("product.vacuous", _product_check(_product_set("-1", (0.0, 1.0)))),
        # a disk of radius 0.01: about half the draws exhaust the rejection budget
        ("product.partly_sampled", _product_check(
            _product_set("1e-4 - x1^2 - (v - 0.5)^2", (0.0, 1.0)))),
    ]
    log_E = "log(x1 + 0.99)"
    mid_error = [
        ("slope.mid_error", lambda cfg: check_slope_inequality(
            _inst1d("x1^2", "a - b", (-1.0, 1.0), E=log_E), cfg)),
        ("set.mid_error", lambda cfg: check_geodesic_E_convex_set(
            E2, EndoMap.from_source([log_E, "2*x2"], 2), DomainSet(E2, ((-1.0, 1.0),) * 2), cfg)),
    ]
    # the bulk curve on the ball, on a violated function and a holding set
    ball = [
        ("fn.ball_box", lambda cfg: check_geodesic_phiE_convex_fn(Instance(
            B2, ScalarFn.from_source("1 - x1^2 - x2^2", 2), EndoMap.identity(2), DIFF,
            _ball_box()), cfg)),
        ("set.ball_box", lambda cfg: check_geodesic_E_convex_set(
            B2, EndoMap.identity(2), _ball_box(), cfg)),
    ]
    # every property on phis that hold for some and are violated for others
    gap = [(f"gap.{name}[{src}]", CHECK_CFG, _gap_check(check, src))
           for src in ("a - 2*b", "a - b", "a - b + 1", "a*b")
           for name, check in GAP_CHECKS.items()]
    gap += [(f"gap.{name}[log(a), seed {seed}]", CHECK_CFG.replace(seed=seed),
             _gap_check(check, "log(a)"))
            for seed in LOG_SEEDS for name, check in GAP_CHECKS.items()]
    gap += [
        ("gap.seq_upper_bounded.violated", CHECK_CFG, _seq_check("a - b", [((1.0, 0.0), (0.0, 1.0))])),
        ("gap.seq_upper_bounded.holds", CHECK_CFG, _seq_check(
            "abs(a) + abs(b)", [((0.5, 1.5, 0.25), (1.0, 0.0, 2.0)), ((2.0, 1.0), (0.5, 0.75))])),
    ]
    return (out + [(label, CHECK_CFG, run) for label, run in checks]
            + [(label, RARE_CFG, run) for label, run in rare]
            + [(label, MID_ERROR_CFG, run) for label, run in mid_error]
            + [(label, CHECK_CFG, run) for label, run in ball] + gap)


def _samples_used(d) -> int:
    """samples_used summed over a report and the reports nested in it."""
    if isinstance(d, list):
        return sum(_samples_used(v) for v in d)
    if not isinstance(d, dict):
        return 0
    return d.get("samples_used", 0) + sum(
        _samples_used(v) for k, v in d.items() if k != "samples_used")


def _record(label: str, result) -> dict:
    d = result if isinstance(result, dict) else result.to_dict()
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    # a statement's own value is that of its conclusion
    main = (d["conclusion"] or {}) if "conclusion" in d else d
    return {
        "label": label,
        "verdict": d["verdict"],
        "max_violation": repr(main.get("max_violation")),
        "samples_used": _samples_used(d),
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:HASH_CHARS],
    }


def fingerprint() -> tuple[list[dict], list[str]]:
    """The record of every entry at workers 1, and the labels whose report
    at workers 2 differs from it."""
    records, split = [], []
    for label, cfg, run in entries():
        r1, r2 = (_record(label, run(cfg.replace(workers=w))) for w in WORKERS)
        records.append(r1)
        if r1 != r2:
            split.append(label)
    return records, split


def changes(old: list[dict], new: list[dict]) -> list[str]:
    """One line per entry that moved, with its fields old -> new."""
    before = {r["label"]: r for r in old}
    after = {r["label"]: r for r in new}
    lines = []
    for label in list(before) + [k for k in after if k not in before]:
        a, b = before.get(label), after.get(label)
        if a is None or b is None:
            lines.append(f"{label}: {'added' if a is None else 'removed'}")
        elif a != b:
            moved = [f"{k} {a[k]} -> {b[k]}" for k in a if k != "label" and a[k] != b[k]]
            lines.append(f"{label}: " + "; ".join(moved))
    return lines


def load_pin() -> list[dict]:
    return json.loads(PIN.read_text())


def main(argv: list[str]) -> int:
    records, split = fingerprint()
    for label in split:
        print(f"{label}: report differs between workers {WORKERS}")
    if "--write" in argv:
        PIN.write_text(json.dumps(records, indent=1) + "\n")
        print(f"wrote {len(records)} entries to {PIN.name}")
        return 1 if split else 0
    lines = changes(load_pin(), records)
    print("\n".join(lines) or f"all {len(records)} entries match the pin")
    return 1 if lines or split else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
