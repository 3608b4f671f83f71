"""Workload inputs, the ops that run them, and the correctness gate.

A workload is a fixed list of ops built from the workload seed, one pass;
a run repeats whole passes, so every run does the same mix of work.
Every op goes through geoconvex's public API or its CLI entry point and is
looked up at call time, so the tracer's wrappers see it.

The gate: each op's verdict must be the one expected for its input, every
Violated function-check witness must re-evaluate above threshold through
the scalar h, E, phi and `manifold.geodesic`, and a repeated op must give
the same canonical report as its first run.  Any miss counts as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import geoconvex
import geoconvex.checker
import geoconvex.cli
import geoconvex.theorems
from geoconvex import (
    Bifunction,
    CheckConfig,
    DomainSet,
    EndoMap,
    ScalarFn,
    euclidean,
    parse,
    poincare_ball,
    sphere,
)
from geoconvex.exprlang import point_vars
from geoconvex.instances import quad_epigraph_set, theorem_case
from geoconvex.manifold import GeodesicSpec, Point, geodesic, manifold_from_name
from geoconvex.theorems import TheoremId

HOLDS = "HoldsOnSamples"
VIOLATED = "Violated"

# criterion 1 of the acceptance suite pins seed 42; workload seed 0 maps to it
BASE_SEED = 42
# exact budget of the implication suite (tests/test_implications.py)
IMPLICATION_CFG = dict(seed=1234, samples=160, t_grid=9, refine_steps=12)
# instance seeds per statement id in one verify_cases pass: 170 cases, so
# that the mix of cheap and expensive instances is much the same for every
# workload seed
VERIFY_INSTANCES = 10
# instance seeds come from the range the implication suite runs
VERIFY_SEED_RANGE = 100


def default_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class Outcome:
    canonical: str  # sorted-key JSON of the reports, wall-clock fields removed
    samples: int  # samples_used summed over every report the op returned
    problems: list[str]
    report_bytes: int = 0


@dataclass
class Op:
    label: str
    call: Callable[[], object]  # the timed call into geoconvex
    inspect: Callable[[object], Outcome]  # the untimed gate


@dataclass
class Workload:
    name: str
    ops: list[Op]
    workers: int = 1
    tmpdir: Path | None = None
    first: dict = field(default_factory=dict)  # op index -> canonical report

    def gate(self, index: int, result) -> Outcome:
        """Inspect one op's result; a repeat must match the first run."""
        out = self.inspect_op(index, result)
        if index not in self.first:
            self.first[index] = out.canonical
        elif self.first[index] != out.canonical:
            out.problems.append("report differs from the first run of the same input")
        return out

    def inspect_op(self, index: int, result) -> Outcome:
        op = self.ops[index]
        try:
            return op.inspect(result)
        except Exception as exc:  # a malformed report is a failed op, not a crash
            return Outcome("", 0, [f"{op.label}: report not inspectable: {exc!r}"])

    def digest(self) -> str:
        h = hashlib.sha256()
        for k in range(len(self.ops)):
            h.update(self.first.get(k, "").encode())
            h.update(b"\n")
        return h.hexdigest()

    def close(self):
        if self.tmpdir is not None and self.tmpdir.exists():
            for p in self.tmpdir.iterdir():
                p.unlink()
            self.tmpdir.rmdir()


# ---------------------------------------------------------------------------
# report helpers


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def samples_used(obj) -> int:
    if isinstance(obj, dict):
        own = obj.get("samples_used")
        own = own if isinstance(own, int) else 0
        return own + sum(samples_used(v) for k, v in obj.items() if k != "samples_used")
    if isinstance(obj, list):
        return sum(samples_used(v) for v in obj)
    return 0


def witness_problems(job: dict, report: dict) -> list[str]:
    """Re-evaluate every witness of a Violated function-check report through
    the scalar evaluators and manifold.geodesic (the mu2 -> mu1 curve)."""
    mspec = job["manifold"]
    m = manifold_from_name(mspec["kind"], int(mspec["dim"]))
    amb = m.ambient_dim
    h = ScalarFn.from_source(job["h"], amb)
    E = EndoMap.from_source(job["E"], amb) if job.get("E") else EndoMap.identity(amb)
    phi = Bifunction.from_source(job["phi"])
    cfg = CheckConfig(**job["cfg"])
    witnesses = [report["witness"]] + list(report.get("refined_witnesses") or [])
    problems = []
    for w in witnesses:
        u1, u2 = w["points"]
        t = float(w["t"])
        w1, w2 = E(tuple(u1)), E(tuple(u2))
        h1, h2 = h(w1), h(w2)
        curve = geodesic(GeodesicSpec(m, Point(w1), Point(w2)), t)
        lhs = h(curve.coords)
        rhs = h2 + t * phi(h1, h2)
        if not lhs - rhs > cfg.threshold(rhs):
            problems.append(
                f"witness at t={t!r} re-evaluates to {lhs - rhs!r}, "
                f"not above threshold {cfg.threshold(rhs)!r}"
            )
    return problems


def _verdict_problems(label: str, got: str, want: str) -> list[str]:
    return [] if got == want else [f"{label}: verdict {got}, expected {want}"]


# ---------------------------------------------------------------------------
# check_100k: North-star CLI jobs


def _cli_jobs(cfg_seed: int) -> list[tuple[str, dict, str]]:
    # The cap's box stays clear of the sphere: a box face touching it at the
    # pole makes the set scan refine on some seeds and not on others.
    cfg = {"seed": cfg_seed, "samples": 100_000, "t_grid": 17, "refine_steps": 50}
    piecewise = {"h": "if(x1 >= 0, 1, -(x1^2))", "phi": "a - 2*b", "form": "interval"}
    return [
        ("crit1_holds", {
            "manifold": {"kind": "Euclidean", "dim": 1},
            "domain": {"box": [[-2, 2]]}, "E": "-1", **piecewise, "cfg": cfg,
        }, HOLDS),
        ("crit1_violated", {
            "manifold": {"kind": "Euclidean", "dim": 1},
            "domain": {"box": [[0.5, 2]]}, **piecewise, "cfg": cfg,
        }, VIOLATED),
        ("sphere_cap", {
            "manifold": {"kind": "Sphere", "dim": 2},
            "domain": {"box": [[-2, 2]] * 3, "membership": "x3 - 0.5"},
            "h": "2 - 2*x3", "phi": "a - b", "cfg": cfg,
        }, HOLDS),
        ("ball_box", {
            "manifold": {"kind": "PoincareBall", "dim": 2},
            "domain": {"box": [[-0.5, 0.5]] * 2},
            "h": "1 - x1^2 - x2^2", "phi": "a - b", "cfg": cfg,
        }, VIOLATED),
        # squared hyperbolic distance to the origin, as in the checker tests
        ("ball_distance", {
            "manifold": {"kind": "PoincareBall", "dim": 2},
            "domain": {"box": [[-0.7, 0.7]] * 2},
            "h": "(2*artanh(sqrt(x1^2 + x2^2 + 1e-30)))^2", "phi": "a - b", "cfg": cfg,
        }, HOLDS),
    ]


def _cli_op(label: str, path: Path, job: dict, want: str, workers: int) -> Op:
    argv = ["check", "--config", str(path), "--workers", str(workers)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = geoconvex.cli.main(argv)
        return code, buf.getvalue()

    def inspect(result) -> Outcome:
        code, text = result
        payload = json.loads(text)
        report = payload["reports"][0]
        problems = _verdict_problems(label, report["verdict"], want)
        want_code = 1 if want == VIOLATED else 0
        if code != want_code:
            problems.append(f"{label}: exit code {code}, expected {want_code}")
        if report["verdict"] == VIOLATED:
            problems += [f"{label}: {p}" for p in witness_problems(job, report)]
        payload.pop("wall_time_ms")
        payload["job"]["cfg"].pop("workers")
        return Outcome(canonical_json(payload), samples_used(payload["reports"]),
                       problems, len(text.encode()))

    return Op(label, call, inspect)


def check_100k(seed: int, workdir: Path, workers: int | None = None) -> Workload:
    workers = workers or default_workers()
    tmpdir = workdir / f"jobs-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for label, job, want in _cli_jobs(BASE_SEED + seed):
        path = tmpdir / f"{label}.json"
        path.write_text(json.dumps(job))
        ops.append(_cli_op(label, path, job, want, workers))
    return Workload("check_100k", ops, workers, tmpdir)


# ---------------------------------------------------------------------------
# scan_bulk: holding set checks on one worker


def _api_op(label: str, call: Callable[[], object], want: str) -> Op:
    def inspect(report) -> Outcome:
        d = report.to_dict()
        return Outcome(canonical_json(d), samples_used(d),
                       _verdict_problems(label, d["verdict"], want))

    return Op(label, call, inspect)


def scan_bulk(seed: int, workdir: Path | None = None) -> Workload:
    cfg = CheckConfig(seed=BASE_SEED + seed, samples=100_000, t_grid=17,
                      refine_steps=50, workers=1)
    s2, b2, e2, e1 = sphere(2), poincare_ball(2), euclidean(2), euclidean(1)
    # box clear of the sphere, as in _cli_jobs
    cap = DomainSet(s2, ((-2.0, 2.0),) * 3, parse("x3 - 0.5", point_vars(3)))
    box = DomainSet(b2, ((-0.5, 0.5),) * 2)
    disk = DomainSet(e2, ((-1.0, 1.0),) * 2, parse("1 - x1^2 - x2^2", point_vars(2)))
    hdisk = DomainSet(b2, ((-0.7, 0.7),) * 2, parse("0.36 - x1^2 - x2^2", point_vars(2)))
    line = DomainSet(e1, ((-1.5, 1.5),))
    epi = quad_epigraph_set(ScalarFn.from_source("0.8*x1^2 + 0.3*x1 - 0.2", 1), line)
    diff = Bifunction.from_source("a - b")
    id1, id2, id3 = (EndoMap.identity(n) for n in (1, 2, 3))
    chk = geoconvex.checker
    set_cases = (("set_sphere_cap", s2, id3, cap), ("set_ball_box", b2, id2, box),
                 ("set_ball_disk", b2, id2, hdisk), ("set_disk", e2, id2, disk))
    ops = [
        _api_op(label,
                lambda m=m, E=E, d=d: chk.check_geodesic_E_convex_set(m, E, d, cfg),
                HOLDS)
        for label, m, E, d in set_cases
    ]
    ops.append(_api_op(
        "epigraph_set",
        lambda: chk.check_geodesic_phiE_convex_set(e1, id1, diff, epi, cfg),
        HOLDS,
    ))
    return Workload("scan_bulk", ops)


# ---------------------------------------------------------------------------
# verify_cases: statement verifiers at the implication-suite budget


def _verify_op(tid: TheoremId, instance_seed: int, cfg: CheckConfig) -> Op:
    verifier, kwargs = theorem_case(tid, instance_seed, cfg)
    name = verifier.__name__
    label = f"{tid.value}[{instance_seed}]"

    def call():
        return getattr(geoconvex.theorems, name)(**kwargs)

    return _api_op(label, call, HOLDS)


def verify_cases(seed: int, workdir: Path | None = None) -> Workload:
    cfg = CheckConfig(**IMPLICATION_CFG)
    ops = []
    for r in range(VERIFY_INSTANCES):
        instance_seed = (seed * VERIFY_INSTANCES + r) % VERIFY_SEED_RANGE
        ops += [_verify_op(tid, instance_seed, cfg) for tid in TheoremId]
    return Workload("verify_cases", ops)


BUILDERS = {"check_100k": check_100k, "scan_bulk": scan_bulk, "verify_cases": verify_cases}
