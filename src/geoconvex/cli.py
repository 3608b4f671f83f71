"""Batch front door: JSON job in, deterministic JSON report out.

    geoconvex <check|check-set|check-product-set|check-epigraph|verify|
               search|check-phi> --config job.json [--out PATH]
               [--witness-csv PATH] [--seed N] [--samples N] [--workers N]

Exit codes: 0 holds on samples, 1 violated, 2 premise failed or domain
error, 3 malformed configuration.  GEOCONVEX_SEED overrides the config
seed; an explicit --seed wins over both.  Reports serialize with sorted
keys and shortest round-trip floats so equal jobs produce byte-identical
files.  Run with no arguments to print the builtin catalog.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .algebra import (
    DomainSet,
    Instance,
    ProductSet,
    check_additive,
    check_antisymmetric,
    check_nonneg_homogeneous,
    check_nonneg_linear,
    check_seq_upper_bounded,
)
from .checker import (
    CheckConfig,
    Verdict,
    check_geodesic_E_convex_set,
    check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set,
    check_phiE_convex_interval,
    check_slope_inequality,
    epigraph_membership,
    search_counterexample,
)
from .errors import ConfigError, GeoconvexError, InverseSearchFailedError
from .exprlang import BUILTIN_ARITY, Bifunction, EndoMap, ScalarFn, parse, point_vars
from .manifold import ManifoldKind, Point, manifold_from_name
from .theorems import (
    BUILTIN_DIFFEOS,
    CLOSURE_KINDS,
    TheoremId,
    diffeo_from_endomaps,
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

SCHEMA_VERSION = "1"

_COMMANDS = {
    "check": "CheckFunction",
    "check-set": "CheckSet",
    "check-product-set": "CheckProductSet",
    "check-epigraph": "CheckEpigraph",
    "verify": "VerifyTheorem",
    "search": "SearchCounterexample",
    "check-phi": "CheckBifunction",
}


def list_builtins() -> str:
    lines = ["manifolds:"]
    for kind in ManifoldKind:
        lines.append(f"  {kind.value}")
    lines.append("diffeomorphism pairs:")
    for name, desc in sorted(BUILTIN_DIFFEOS.items()):
        lines.append(f"  {name}: {desc}")
    lines.append("theorem ids:")
    for tid in TheoremId:
        lines.append(f"  {tid.value}")
    lines.append("expression builtins:")
    lines.append("  " + ", ".join(sorted(BUILTIN_ARITY)) + ", if(cond, then, else)")
    lines.append("comparison operators: <, <=, >, >=, ==")
    return "\n".join(lines)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _build_cfg(raw: dict, args) -> CheckConfig:
    data = raw.get("cfg") or {}
    _require(isinstance(data, dict), "cfg must be an object")
    data = dict(data)
    env_seed = os.environ.get("GEOCONVEX_SEED")
    if env_seed is not None:
        data["seed"] = int(env_seed)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.samples is not None:
        data["samples"] = args.samples
    if args.workers is not None:
        data["workers"] = args.workers
    try:
        return CheckConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad cfg block: {exc}") from exc


def _source(value, key: str) -> str:
    _require(isinstance(value, str), f"{key} must be an expression string")
    return value


def _build_domain(raw: dict, manifold, key: str = "domain") -> DomainSet:
    _require(isinstance(raw, dict) and "box" in raw, f"{key} needs a box")
    membership = None
    if raw.get("membership"):
        membership = parse(_source(raw["membership"], f"{key}.membership"),
                           point_vars(manifold.ambient_dim))
    try:
        box = tuple(tuple(axis) for axis in raw["box"])
        return DomainSet(manifold, box, membership)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}.box: {exc}") from exc


def _build_instance(raw: dict) -> Instance:
    _require("manifold" in raw, "config needs a manifold")
    mspec = raw["manifold"]
    _require(isinstance(mspec, dict), "manifold must be an object")
    try:
        dim = int(mspec.get("dim", 1))
    except (TypeError, ValueError):
        raise ConfigError("manifold.dim must be an integer") from None
    kind = mspec.get("kind", "Euclidean")
    _require(isinstance(kind, str), "manifold.kind must be a string")
    try:
        manifold = manifold_from_name(kind, dim)
    except ValueError as exc:
        raise ConfigError(f"manifold: {exc}") from exc
    domain = _build_domain(raw.get("domain", {}), manifold)
    amb = manifold.ambient_dim
    _require("h" in raw, "config needs h")
    h = ScalarFn.from_source(_source(raw["h"], "h"), amb)
    e_raw = raw.get("E", None)
    if e_raw is None:
        E = EndoMap.identity(amb)
    else:
        _require(isinstance(e_raw, str) or (
            isinstance(e_raw, list) and all(isinstance(c, str) for c in e_raw)
        ), "E must be an expression string or a list of them")
        E = EndoMap.from_source(e_raw, amb)
        _require(len(E.exprs) == amb, f"E needs {amb} component(s)")
    _require("phi" in raw, "config needs phi")
    phi = Bifunction.from_source(_source(raw["phi"], "phi"))
    return Instance(manifold, h, E, phi, domain)


def _build_product_set(raw: dict, inst: Instance) -> ProductSet:
    spec = raw.get("product_set")
    _require(isinstance(spec, dict), "config needs a product_set block")
    base = inst.domain
    if "base" in spec:
        base = _build_domain(spec["base"], inst.manifold, "product_set.base")
    _require("graph_bound" in spec, "product_set needs graph_bound")
    names = point_vars(inst.manifold.ambient_dim) + ("v",)
    graph = parse(spec["graph_bound"], names)
    _require("v_range" in spec, "product_set needs v_range")
    vr = tuple(spec["v_range"])
    return ProductSet(base, graph, vr)


def _epigraph_reports(raw: dict, inst: Instance, cfg: CheckConfig) -> list[dict]:
    queries = raw.get("queries")
    _require(isinstance(queries, list) and queries, "check-epigraph needs queries")
    member = epigraph_membership(inst, cfg)
    out = []
    for coords, v in queries:
        entry = {"kind": "epigraph_membership", "point": list(coords), "v": v}
        try:
            is_member = member(tuple(coords), float(v))
            entry["member"] = is_member
            entry["verdict"] = (
                Verdict.HOLDS_ON_SAMPLES.value if is_member else Verdict.VIOLATED.value
            )
        except InverseSearchFailedError as exc:
            entry["member"] = None
            entry["verdict"] = Verdict.DOMAIN_ERROR.value
            entry["error"] = str(exc)
        out.append(entry)
    return out


def _phi_reports(raw: dict, cfg: CheckConfig) -> list[dict]:
    _require("phi" in raw, "config needs phi")
    phi = Bifunction.from_source(raw["phi"])
    properties = raw.get("properties") or [
        "nonneg_homogeneous", "additive", "antisymmetric",
    ]
    out = []
    for prop in properties:
        if prop == "nonneg_homogeneous":
            rep = check_nonneg_homogeneous(phi, cfg.samples, cfg.seed, cfg)
        elif prop == "additive":
            rep = check_additive(phi, cfg.samples, cfg.seed, cfg)
        elif prop == "antisymmetric":
            rep = check_antisymmetric(phi, cfg.samples, cfg.seed, cfg)
        elif prop == "nonneg_linear":
            rep = check_nonneg_linear(phi, cfg.samples, cfg.seed, cfg)
        elif prop == "seq_upper_bounded":
            seqs = raw.get("sequences")
            _require(seqs, "seq_upper_bounded needs a sequences block")
            e_raw = raw.get("E")
            E = EndoMap.from_source(e_raw, 1) if e_raw else EndoMap.identity(1)
            rep = check_seq_upper_bounded(phi, E, seqs, cfg.seed, cfg)
        else:
            raise ConfigError(f"unknown bifunction property {prop!r}")
        d = rep.to_dict()
        d["property"] = prop
        out.append(d)
    return out


def _theorem_report(raw: dict, cfg: CheckConfig) -> dict:
    spec = raw.get("theorem")
    _require(isinstance(spec, dict) and "id" in spec, "verify needs a theorem block with id")
    tid = None
    for cand in TheoremId:
        if cand.value == spec["id"]:
            tid = cand
    _require(tid is not None, f"unknown theorem id {spec['id']!r}")
    inst = _build_instance(raw)

    def _family():
        h_list = spec.get("h_list")
        _require(isinstance(h_list, list) and h_list, f"{tid.value} needs h_list")
        return [
            inst.with_h(ScalarFn.from_source(src, inst.manifold.ambient_dim))
            for src in h_list
        ]

    def num(key):
        _require(key in spec, f"{tid.value} needs {key}")
        try:
            return float(spec[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{tid.value}: {key} must be a number") from None

    if tid is TheoremId.MEAN_VALUE_31:
        rep = verify_mean_value(inst, num("u1"), num("u2"), cfg)
    elif tid is TheoremId.THREE_POINT_32:
        rep = verify_three_point(inst, num("mu1"), num("mu2"), num("mu3"), cfg)
    elif tid in CLOSURE_KINDS:
        rep = verify_closure(CLOSURE_KINDS[tid], _family(), spec.get("weights"), cfg)
    elif tid is TheoremId.COMPOSITION:
        _require("h2" in spec, "Composition needs h2")
        rep = verify_composition(inst, ScalarFn.from_source(spec["h2"], 1), cfg)
    elif tid is TheoremId.DIFFEO_INVARIANCE:
        if spec.get("diffeo") == "stereographic":
            diffeo = stereographic_diffeo()
        else:
            _require("H" in spec and "Hinv" in spec,
                     "DiffeoInvariance needs H and Hinv (or diffeo: stereographic)")
            amb = inst.manifold.ambient_dim
            diffeo = diffeo_from_endomaps(
                inst.manifold,
                EndoMap.from_source(spec["H"], amb),
                EndoMap.from_source(spec["Hinv"], amb),
            )
        rep = verify_diffeo_invariance(inst, diffeo, cfg)
    elif tid is TheoremId.CONTINUITY_BOUND:
        rep = verify_continuity_bound(inst, num("K"), num("eps"), cfg)
    elif tid is TheoremId.CHART_CONTINUITY:
        rep = verify_chart_continuity(inst, num("K"), num("eps"), cfg)
    elif tid is TheoremId.LOCAL_MIN:
        mu_star = spec.get("mu_star")
        amb = inst.manifold.ambient_dim
        _require(isinstance(mu_star, list) and len(mu_star) == amb
                 and all(isinstance(c, (int, float)) for c in mu_star),
                 f"LocalMin needs mu_star, a list of {amb} numbers")
        rep = verify_local_min(inst, Point(tuple(float(c) for c in mu_star)), cfg)
    elif tid in (TheoremId.PHI_LIMIT, TheoremId.PHI_SERIES_LIMIT):
        phis = [Bifunction.from_source(p) for p in spec.get("phis", [])]
        mode = "Pointwise" if tid is TheoremId.PHI_LIMIT else "PartialSums"
        rep = verify_phi_limit(inst, phis, mode, cfg)
    elif tid is TheoremId.STRICT_DIFFERENTIAL:
        kwargs = {}
        if "tol_strict" in spec:
            kwargs["tol_strict"] = num("tol_strict")
        rep = verify_strict_differential(inst, cfg, **kwargs)
    elif tid is TheoremId.EPIGRAPH_EQUIV:
        rep = verify_epigraph_equiv(inst, cfg)
    elif tid is TheoremId.INTERSECTION_52:
        _require(inst.manifold.ambient_dim == 1,
                 "Intersection52 via the CLI builds 1-D epigraph sets")
        from .instances import quad_epigraph_set

        sets = [
            quad_epigraph_set(ScalarFn.from_source(src, 1), inst.domain)
            for src in spec.get("h_list", [])
        ]
        _require(len(sets) >= 1, "Intersection52 needs h_list")
        rep = verify_intersection(inst.manifold, inst.E, inst.phi, sets, cfg)
    else:  # SUP_EPIGRAPH_COR
        rep = verify_sup_epigraph(_family(), cfg)
    return rep.to_dict()


def run_job(raw: dict, command: str, cfg: CheckConfig) -> list[dict]:
    if command == "CheckFunction":
        inst = _build_instance(raw)
        if inst.manifold.kind is ManifoldKind.EUCLIDEAN and inst.manifold.dim == 1 \
                and raw.get("form") == "interval":
            rep = check_phiE_convex_interval(inst, cfg)
        elif raw.get("form") == "slope":
            rep = check_slope_inequality(inst, cfg)
        else:
            rep = check_geodesic_phiE_convex_fn(inst, cfg, strict=bool(raw.get("strict")))
        return [rep.to_dict()]
    if command == "CheckSet":
        inst_raw = dict(raw)
        inst_raw.setdefault("h", "0")
        inst_raw.setdefault("phi", "a - b")
        inst = _build_instance(inst_raw)
        rep = check_geodesic_E_convex_set(inst.manifold, inst.E, inst.domain, cfg)
        return [rep.to_dict()]
    if command == "CheckProductSet":
        inst_raw = dict(raw)
        inst_raw.setdefault("h", "0")
        inst = _build_instance(inst_raw)
        ps = _build_product_set(raw, inst)
        rep = check_geodesic_phiE_convex_set(inst.manifold, inst.E, inst.phi, ps, cfg)
        return [rep.to_dict()]
    if command == "CheckEpigraph":
        inst = _build_instance(raw)
        return _epigraph_reports(raw, inst, cfg)
    if command == "VerifyTheorem":
        return [_theorem_report(raw, cfg)]
    if command == "SearchCounterexample":
        inst = _build_instance(raw)
        rep = search_counterexample(inst, cfg, strict=bool(raw.get("strict")))
        return [rep.to_dict()]
    if command == "CheckBifunction":
        return _phi_reports(raw, cfg)
    raise ConfigError(f"unknown command {command!r}")


def exit_code_for(reports: list[dict]) -> int:
    verdicts = [rep.get("verdict") for rep in reports]
    if any(v == Verdict.VIOLATED.value for v in verdicts):
        return 1
    if any(v in (Verdict.PREMISE_FAILED.value, Verdict.DOMAIN_ERROR.value)
           for v in verdicts):
        return 2
    return 0


def _witness_rows(reports: list[dict]) -> list[list]:
    rows = []
    for rep in reports:
        witnesses = list(rep.get("refined_witnesses") or [])
        if not witnesses and rep.get("witness"):
            witnesses.append(rep["witness"])
        conclusion = rep.get("conclusion")
        if conclusion:
            witnesses.extend(conclusion.get("refined_witnesses") or [])
            if not conclusion.get("refined_witnesses") and conclusion.get("witness"):
                witnesses.append(conclusion["witness"])
        for w in witnesses:
            coords = [c for p in w["points"] for c in p]
            rows.append(
                [w.get("origin_index", "")] + coords
                + [w["t"], w["lhs"], w["rhs"], w["violation"]]
            )
    return rows


def write_witness_csv(path: str, reports: list[dict]):
    rows = _witness_rows(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        ncoords = max((len(r) - 5 for r in rows), default=0)
        writer.writerow(
            ["sample_index"] + [f"coord_{i}" for i in range(ncoords)]
            + ["t", "lhs", "rhs", "violation"]
        )
        for r in rows:
            pad = [""] * (ncoords - (len(r) - 5))
            writer.writerow(r[:1] + r[1:-4] + pad + r[-4:])


def render_report(raw: dict, command: str, cfg: CheckConfig,
                  reports: list[dict], wall_ms: int) -> str:
    job = dict(raw)
    job["command"] = command
    job["cfg"] = cfg.to_dict()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "job": job,
        "reports": reports,
        "wall_time_ms": wall_ms,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoconvex",
        description="sampled convexity checks and statement verification",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="print the builtin catalog")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--witness-csv", dest="witness_csv")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--workers", type=int)
        if name == "verify":
            p.add_argument("--theorem", help="statement id; overrides theorem.id")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None or args.command == "list":
        print(list_builtins())
        return 0
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "config"}), file=sys.stderr)
        return 3
    start = time.monotonic()
    try:
        _require(isinstance(raw, dict), "top level of the job must be a JSON object")
        if getattr(args, "theorem", None):
            theorem = raw.setdefault("theorem", {})
            _require(isinstance(theorem, dict), "theorem must be an object")
            theorem["id"] = args.theorem
        cfg = _build_cfg(raw, args)
        reports = run_job(raw, _COMMANDS[args.command], cfg)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "kind": "config"}), file=sys.stderr)
        return 3
    except GeoconvexError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 3
    wall_ms = int((time.monotonic() - start) * 1000)
    text = render_report(raw, _COMMANDS[args.command], cfg, reports, wall_ms)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.witness_csv:
        write_witness_csv(args.witness_csv, reports)
    return exit_code_for(reports)


if __name__ == "__main__":
    sys.exit(main())
