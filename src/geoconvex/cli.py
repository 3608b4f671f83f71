"""Batch front door: JSON job in, deterministic JSON report out.

    geoconvex <check|check-set|check-product-set|check-epigraph|verify|
               search|check-phi> --config job.json [--out PATH]
               [--witness-csv PATH] [--seed N] [--samples N] [--workers N]

Exit codes: 0 holds on samples, 1 violated, 2 premise failed or domain
error, 3 malformed job or arguments, 4 internal error (a bug).  Every key
is read and type-checked before the first check runs.  GEOCONVEX_SEED
overrides the config seed; an explicit --seed wins over both.  Reports
have sorted keys and shortest round-trip floats, so equal jobs produce
byte-identical files.  Run with no arguments to print the catalog.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys
import time
import traceback
from collections import namedtuple

from .algebra import (
    DomainSet, Instance, ProductSet, check_additive, check_antisymmetric,
    check_nonneg_homogeneous, check_nonneg_linear, check_seq_upper_bounded,
)
from .checker import (
    CheckConfig, Verdict, check_geodesic_E_convex_set, check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set, check_phiE_convex_interval, check_slope_inequality,
    epigraph_membership, search_counterexample,
)
from .errors import ConfigError, GeoconvexError, InverseSearchFailedError
from .exprlang import BUILTINS, COMPARE_OPS, Bifunction, EndoMap, ScalarFn, parse, point_vars
from .instances import quad_epigraph_set
from .manifold import ManifoldKind, Point, euclidean, manifold_from_name
from .theorems import (
    BUILTIN_DIFFEOS, STATEMENTS, STRICT_DERIVATIVE_TOL, TheoremId, diffeo_from_endomaps,
    stereographic_diffeo,
)

SCHEMA_VERSION = "1"

def list_builtins() -> str:
    return "\n".join([
        "manifolds:", *(f"  {kind.value}" for kind in ManifoldKind),
        "diffeomorphism pairs:",
        *(f"  {name}: {desc}" for name, desc in sorted(BUILTIN_DIFFEOS.items())),
        "theorem ids:", *(f"  {tid.value}" for tid in TheoremId),
        "expression builtins:", "  " + ", ".join(sorted(BUILTINS)) + ", if(cond, then, else)",
        "comparison operators: " + ", ".join(COMPARE_OPS),
    ])


# ---------------------------------------------------------------------------
# the job reader: every key is read through _get, against one of these kinds


_Kind = namedtuple("_Kind", "what ok")  # a description and a predicate


def _is_list(v, item: _Kind, n: int | None = None) -> bool:
    return isinstance(v, list) and (n is None or len(v) == n) and all(item.ok(x) for x in v)


EXPR = _Kind("an expression string", lambda v: isinstance(v, str))
EXPRS = _Kind("a nonempty list of expression strings", lambda v: _is_list(v, EXPR) and v != [])
EXPR_LIST = _Kind("a list of expression strings", lambda v: _is_list(v, EXPR))
# a JSON number, not a boolean, that is finite as a float
NUMBER = _Kind("a finite number",
               lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
NUMBERS = _Kind("a list of finite numbers", lambda v: _is_list(v, NUMBER))
BOOL = _Kind("a boolean", lambda v: isinstance(v, bool))
OBJECT = _Kind("an object", lambda v: isinstance(v, dict))
LIST = _Kind("a nonempty list", lambda v: isinstance(v, list) and len(v) > 0)
DIM = _Kind("an integer >= 1", lambda v: type(v) is int and v >= 1)
RANGE = _Kind("[lo, hi] with lo < hi", lambda v: _is_list(v, NUMBER, n=2) and v[0] < v[1])
AXIS = _Kind("[lo, hi] with lo <= hi and a finite width",
             lambda v: _is_list(v, NUMBER, n=2) and 0 <= v[1] - v[0] <= sys.float_info.max)


def _endo(n: int) -> _Kind:
    return _Kind(f"a list of {n} expression strings" + (" or one string" if n == 1 else ""),
                 lambda v: (n == 1 and isinstance(v, str)) or _is_list(v, EXPR, n=n))


def _list(n: int, item: _Kind, items: str) -> _Kind:
    return _Kind(f"a list of {n} {items}", lambda v: _is_list(v, item, n=n))


def _one_of(*names: str) -> _Kind:
    return _Kind("one of " + ", ".join(names), lambda v: isinstance(v, str) and v in names)


_MANIFOLD_NAMES = {k.value.lower() for k in ManifoldKind}
MANIFOLD_KIND = _Kind("one of " + ", ".join(k.value for k in ManifoldKind) + " (any case)",
                      lambda v: isinstance(v, str) and v.lower() in _MANIFOLD_NAMES)

_REQUIRED = object()


def _where(path: str, key) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key


def _get(block, path: str, key, kind: _Kind, default=_REQUIRED):
    """block[key] checked against kind; a missing key or a null is the
    default when one is given.  Errors start with the full key path."""
    where = _where(path, key)
    value = block[key] if isinstance(block, list) else block.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: required, {kind.what}")
        return default
    if not kind.ok(value):
        raise ConfigError(f"{where}: must be {kind.what}, not {json.dumps(value)[:60]}")
    return value


def _reject_non_finite(raw: dict):
    """json.load reads NaN, Infinity and 1e400 as floats; no key takes them."""
    stack = [("", raw)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, float) and not NUMBER.ok(value):
            raise ConfigError(f"{path}: must be finite, not {value}")
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else ())
        stack.extend((_where(path, k), v) for k, v in items)


def _cfg(raw: dict, args) -> CheckConfig:
    data = dict(_get(raw, "", "cfg", OBJECT, {}))
    env_seed = os.environ.get("GEOCONVEX_SEED")
    if env_seed is not None:
        try:
            data["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"GEOCONVEX_SEED: must be an integer, not {env_seed!r}") from None
    data.update((k, getattr(args, k)) for k in ("seed", "samples", "workers")
                if getattr(args, k) is not None)
    unknown = sorted(set(data) - set(CheckConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"cfg.{unknown[0]}: unknown field")
    try:
        return CheckConfig(**data)
    except ValueError as exc:  # CheckConfig names the field first
        raise ConfigError(f"cfg.{exc}") from None


def _domain(block: dict, path: str, manifold) -> DomainSet:
    amb = manifold.ambient_dim
    box = _get(block, path, "box", _Kind(f"a list of {amb} axes",
                                         lambda v: isinstance(v, list) and len(v) == amb))
    box = [_get(box, _where(path, "box"), k, AXIS) for k in range(amb)]
    membership = _get(block, path, "membership", EXPR, None)
    return DomainSet(manifold, tuple(tuple(axis) for axis in box),
                     parse(membership, point_vars(amb)) if membership else None)


def _space(raw: dict):
    """The manifold, E and domain of a job."""
    spec = _get(raw, "", "manifold", OBJECT)
    manifold = manifold_from_name(_get(spec, "manifold", "kind", MANIFOLD_KIND, "Euclidean"),
                                  _get(spec, "manifold", "dim", DIM, 1))
    amb = manifold.ambient_dim
    domain = _domain(_get(raw, "", "domain", OBJECT), "domain", manifold)
    return manifold, _endomap(raw, "", "E", amb), domain


def _endomap(block: dict, path: str, key: str, amb: int, required: bool = False) -> EndoMap:
    src = _get(block, path, key, _endo(amb), _REQUIRED if required else None)
    return EndoMap.identity(amb) if src is None else EndoMap.from_source(src, amb)


def _phi(raw: dict) -> Bifunction:
    return Bifunction.from_source(_get(raw, "", "phi", EXPR))


def _instance(raw: dict) -> Instance:
    manifold, E, domain = _space(raw)
    h = ScalarFn.from_source(_get(raw, "", "h", EXPR), manifold.ambient_dim)
    return Instance(manifold, h, E, _phi(raw), domain)


# ---------------------------------------------------------------------------
# commands: each reads its whole job, then runs it


def _each(raw: dict, key: str, item: _Kind) -> list:
    """A nonempty list at raw[key], each item read as `item`."""
    items = _get(raw, "", key, LIST)
    return [_get(items, key, k, item) for k in range(len(items))]


def _check_function(raw: dict, cfg: CheckConfig):
    inst = _instance(raw)
    strict = _get(raw, "", "strict", BOOL, False)
    form = _get(raw, "", "form", _one_of("interval", "slope"), None)
    if form is not None and inst.manifold != euclidean(1):
        raise ConfigError(f"form: {form} needs the Euclidean(1) manifold")
    check = {"interval": check_phiE_convex_interval, "slope": check_slope_inequality}.get(form)
    return check(inst, cfg) if check else check_geodesic_phiE_convex_fn(inst, cfg, strict=strict)


def _check_product_set(raw: dict, cfg: CheckConfig):
    manifold, E, domain = _space(raw)
    phi = _phi(raw)
    spec = _get(raw, "", "product_set", OBJECT)
    base = _get(spec, "product_set", "base", OBJECT, None)
    base = domain if base is None else _domain(base, "product_set.base", manifold)
    graph = parse(_get(spec, "product_set", "graph_bound", EXPR),
                  point_vars(manifold.ambient_dim) + ("v",))
    v_range = tuple(_get(spec, "product_set", "v_range", RANGE))
    return check_geodesic_phiE_convex_set(manifold, E, phi, ProductSet(base, graph, v_range), cfg)


def _check_epigraph(raw: dict, cfg: CheckConfig) -> list[dict]:
    inst = _instance(raw)
    point = _list(inst.manifold.ambient_dim, NUMBER, "finite numbers")
    queries = _each(raw, "queries", _Kind(
        f"a query [point, v], the point {point.what}",
        lambda q: isinstance(q, list) and len(q) == 2 and point.ok(q[0]) and NUMBER.ok(q[1])))
    member = epigraph_membership(inst, cfg)
    out = []
    for coords, v in queries:
        entry = {"kind": "epigraph_membership", "point": list(coords), "v": v}
        try:
            is_member = member(tuple(coords), float(v))
            verdict = Verdict.HOLDS_ON_SAMPLES if is_member else Verdict.VIOLATED
            entry.update(member=is_member, verdict=verdict.value)
        except InverseSearchFailedError as exc:
            entry.update(member=None, verdict=Verdict.DOMAIN_ERROR.value, error=str(exc))
        out.append(entry)
    return out


# bifunction properties: each entry reads what its check needs, then checks a phi
def _sampled(check):
    return lambda raw, cfg: lambda phi: check(phi, cfg.samples, cfg.seed, cfg)


def _seq_upper_bounded(raw: dict, cfg: CheckConfig):
    seqs = _each(raw, "sequences", _Kind(
        "a pair [u, v] of nonempty, equal-length lists of finite numbers",
        lambda p: _is_list(p, NUMBERS, n=2) and len(p[0]) == len(p[1]) > 0))
    E = _endomap(raw, "", "E", 1)
    return lambda phi: check_seq_upper_bounded(phi, E, seqs, cfg.seed, cfg)


_PHI_CHECKS = {
    "nonneg_homogeneous": _sampled(check_nonneg_homogeneous),
    "additive": _sampled(check_additive),
    "antisymmetric": _sampled(check_antisymmetric),
    "nonneg_linear": _sampled(check_nonneg_linear),
    "seq_upper_bounded": _seq_upper_bounded,
}


def _check_phi(raw: dict, cfg: CheckConfig) -> list[dict]:
    phi = _phi(raw)
    props = _get(raw, "", "properties", _Kind(
        "a list of " + ", ".join(_PHI_CHECKS), lambda v: _is_list(v, _one_of(*_PHI_CHECKS))),
        None) or ["nonneg_homogeneous", "additive", "antisymmetric"]
    checks = [(prop, _PHI_CHECKS[prop](raw, cfg)) for prop in props]
    return [dict(check(phi).to_dict(), property=prop) for prop, check in checks]


# statements: the verifier of the id takes its arguments by parameter name,
# each read from the theorem block t, the job's instance or both
def _h_list(t: dict, inst: Instance) -> list[Instance]:
    return [inst.with_h(ScalarFn.from_source(src, inst.manifold.ambient_dim))
            for src in _get(t, "theorem", "h_list", EXPRS)]


def _diffeo(t: dict, inst: Instance, key: str):
    if _get(t, "theorem", key, _one_of(*BUILTIN_DIFFEOS), None) == "stereographic":
        if inst.manifold != stereographic_diffeo().src:
            raise ConfigError("theorem.diffeo: stereographic needs the Sphere(2) manifold")
        return stereographic_diffeo()
    amb = inst.manifold.ambient_dim
    return diffeo_from_endomaps(inst.manifold, _endomap(t, "theorem", "H", amb, required=True),
                                _endomap(t, "theorem", "Hinv", amb, required=True))


def _epigraph_sets(t: dict, inst: Instance) -> list[ProductSet]:
    if inst.manifold.ambient_dim != 1:
        raise ConfigError("manifold: Intersection52 via the CLI builds 1-D epigraph sets")
    sets = []
    for k, member in enumerate(_h_list(t, inst)):
        try:
            sets.append(quad_epigraph_set(member.h, inst.domain))
        except ValueError as exc:  # h is not finite on the domain grid
            raise ConfigError(f"theorem.h_list[{k}]: {exc}") from None
    return sets


def _number(t: dict, inst: Instance, key: str) -> float:
    return float(_get(t, "theorem", key, NUMBER))


def _coordinate(t: dict, inst: Instance, key: str) -> float:
    if inst.manifold.ambient_dim != 1:
        m = inst.manifold
        raise ConfigError(f"manifold: theorem.{key} needs a manifold with one coordinate, "
                          f"not {m.kind.value}({m.dim})")
    return _number(t, inst, key)


# verifier parameter -> reader(t, inst, key)
_ARGUMENTS = {
    **dict.fromkeys(("u1", "u2", "mu1", "mu2", "mu3"), _coordinate),
    **dict.fromkeys(("K", "eps"), _number),
    "tol_strict": lambda t, inst, key: float(
        _get(t, "theorem", key, NUMBER, STRICT_DERIVATIVE_TOL)),
    "inst": lambda t, inst, key: inst,
    "m": lambda t, inst, key: inst.manifold,
    "E": lambda t, inst, key: inst.E,
    "phi": lambda t, inst, key: inst.phi,
    "insts": lambda t, inst, key: _h_list(t, inst),
    "sets": lambda t, inst, key: _epigraph_sets(t, inst),
    "weights": lambda t, inst, key: _get(t, "theorem", key, NUMBERS, None),
    "h2": lambda t, inst, key: ScalarFn.from_source(_get(t, "theorem", key, EXPR), 1),
    "diffeo": _diffeo,
    "mu_star": lambda t, inst, key: Point(_get(
        t, "theorem", key, _list(inst.manifold.ambient_dim, NUMBER, "finite numbers"))),
    "phis": lambda t, inst, key: [
        Bifunction.from_source(p) for p in _get(t, "theorem", key, EXPR_LIST, [])],
}


def _verify(raw: dict, cfg: CheckConfig):
    t = _get(raw, "", "theorem", OBJECT)
    tid = TheoremId(_get(t, "theorem", "id", _one_of(*(k.value for k in TheoremId))))
    inst = _instance(raw)
    verifier = STATEMENTS[tid]
    params = inspect.signature(verifier).parameters
    args = {"tid": tid, "cfg": cfg}
    args.update((key, _ARGUMENTS[key](t, inst, key)) for key in params if key in _ARGUMENTS)
    return verifier(**{key: args[key] for key in params if key in args})


# CLI command -> (command name in the report, reader)
_COMMANDS = {
    "check": ("CheckFunction", _check_function),
    "check-set": ("CheckSet", lambda raw, cfg: check_geodesic_E_convex_set(*_space(raw), cfg)),
    "check-product-set": ("CheckProductSet", _check_product_set),
    "check-epigraph": ("CheckEpigraph", _check_epigraph),
    "verify": ("VerifyTheorem", _verify),
    "search": ("SearchCounterexample", lambda raw, cfg: search_counterexample(
        _instance(raw), cfg, strict=_get(raw, "", "strict", BOOL, False))),
    "check-phi": ("CheckBifunction", _check_phi),
}


def run_job(raw: dict, command: str, cfg: CheckConfig) -> list[dict]:
    """The reports of CLI `command` on the job raw."""
    out = _COMMANDS[command][1](raw, cfg)
    return out if isinstance(out, list) else [out.to_dict()]


def exit_code_for(reports: list[dict]) -> int:
    verdicts = {rep.get("verdict") for rep in reports}
    if Verdict.VIOLATED.value in verdicts:
        return 1
    return 2 if verdicts & {Verdict.PREMISE_FAILED.value, Verdict.DOMAIN_ERROR.value} else 0


def write_witness_csv(path: str, reports: list[dict]):
    """One row per refined witness (or else the witness) of each report and its conclusion."""
    rows = []
    for rep in reports:
        for part in (rep, rep.get("conclusion") or {}):
            witnesses = part.get("refined_witnesses") or (
                [part["witness"]] if part.get("witness") else [])
            rows += [([w.get("origin_index", "")], [c for p in w["points"] for c in p],
                      [w["t"], w["lhs"], w["rhs"], w["violation"]]) for w in witnesses]
    ncoords = max((len(coords) for _, coords, _ in rows), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index"] + [f"coord_{i}" for i in range(ncoords)]
                        + ["t", "lhs", "rhs", "violation"])
        for index, coords, tail in rows:
            writer.writerow(index + coords + [""] * (ncoords - len(coords)) + tail)


def render_report(raw: dict, command: str, cfg: CheckConfig,
                  reports: list[dict], wall_ms: int) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "reports": reports, "wall_time_ms": wall_ms,
               "job": dict(raw, command=command, cfg=cfg.to_dict())}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoconvex",
                     description="sampled convexity checks and statement verification")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="print the builtin catalog")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag in ("--out", "--witness-csv"):
            p.add_argument(flag)
        for flag in ("--seed", "--samples", "--workers"):
            p.add_argument(flag, type=int)
        if name == "verify":
            p.add_argument("--theorem", help="statement id; overrides theorem.id")
    return parser


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"--config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level of the job must be a JSON object")
    _reject_non_finite(raw)
    return raw


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None or args.command == "list":
        print(list_builtins())
        return 0
    raw = _load(args.config)
    start = time.monotonic()
    if getattr(args, "theorem", None):
        raw["theorem"] = dict(_get(raw, "", "theorem", OBJECT, {}), id=args.theorem)
    cfg = _cfg(raw, args)
    reports = run_job(raw, args.command, cfg)
    wall_ms = int((time.monotonic() - start) * 1000)
    text = render_report(raw, _COMMANDS[args.command][0], cfg, reports, wall_ms)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)
    if args.witness_csv:
        try:
            write_witness_csv(args.witness_csv, reports)
        except OSError as exc:
            raise ConfigError(f"--witness-csv: {exc}") from None
    return exit_code_for(reports)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except GeoconvexError as exc:
        kind = "config" if isinstance(exc, ConfigError) else type(exc).__name__
        print(json.dumps({"error": str(exc), "kind": kind}), file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: report it and where it was raised, not a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        error = f"{type(exc).__name__}: {exc} ({os.path.basename(frame.filename)}:{frame.lineno})"
        print(json.dumps({"error": error, "kind": "internal"}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
