import copy
import csv
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoconvex.cli import list_builtins, main
from geoconvex.theorems import STATEMENTS, TheoremId

HOLDS_JOB = {
    "manifold": {"kind": "Euclidean", "dim": 1},
    "domain": {"box": [[-2, 2]]},
    "h": "if(x1 >= 0, 1, -(x1^2))",
    "E": "-1",
    "phi": "a - 2*b",
    "form": "interval",
    "cfg": {"seed": 42, "samples": 5000},
}

VIOLATED_JOB = {
    "manifold": {"kind": "Euclidean", "dim": 1},
    "domain": {"box": [[0.5, 2]]},
    "h": "if(x1 >= 0, 1, -(x1^2))",
    "phi": "a - 2*b",
    "form": "interval",
    "cfg": {"seed": 42, "samples": 5000},
}


def _write(tmp_path, name, payload):
    """payload as JSON; a string is written as is (raw job text)."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_check_holds_exit_zero(tmp_path, capsys):
    cfgp = _write(tmp_path, "job.json", HOLDS_JOB)
    code = main(["check", "--config", cfgp])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["reports"][0]["verdict"] == "HoldsOnSamples"
    assert payload["job"]["command"] == "CheckFunction"


def test_check_violated_exit_one_and_csv(tmp_path):
    cfgp = _write(tmp_path, "job.json", VIOLATED_JOB)
    outp = tmp_path / "report.json"
    csvp = tmp_path / "witness.csv"
    code = main(["check", "--config", cfgp, "--out", str(outp),
                 "--witness-csv", str(csvp)])
    assert code == 1
    payload = json.loads(outp.read_text())
    w = payload["reports"][0]["witness"]
    assert w["violation"] >= 0.5 - 1e-9
    rows = list(csv.reader(csvp.open()))
    assert rows[0][0] == "sample_index"
    assert len(rows) >= 2
    assert float(rows[1][-1]) >= 0.5 - 1e-9


def test_golden_stability_same_seed(tmp_path):
    cfgp = _write(tmp_path, "job.json", VIOLATED_JOB)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["check", "--config", cfgp, "--out", str(p1)])
    main(["check", "--config", cfgp, "--out", str(p2)])
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_workers_do_not_change_reports(tmp_path):
    cfgp = _write(tmp_path, "job.json", VIOLATED_JOB)
    p1, p2 = tmp_path / "w1.json", tmp_path / "w8.json"
    main(["check", "--config", cfgp, "--out", str(p1), "--workers", "1"])
    main(["check", "--config", cfgp, "--out", str(p2), "--workers", "8"])
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert a["reports"] == b["reports"]


def test_seed_env_and_flag_override(tmp_path, monkeypatch):
    cfgp = _write(tmp_path, "job.json", HOLDS_JOB)
    monkeypatch.setenv("GEOCONVEX_SEED", "7")
    p1 = tmp_path / "envseed.json"
    main(["check", "--config", cfgp, "--out", str(p1)])
    assert json.loads(p1.read_text())["reports"][0]["seed"] == 7
    p2 = tmp_path / "flagseed.json"
    main(["check", "--config", cfgp, "--out", str(p2), "--seed", "9"])
    assert json.loads(p2.read_text())["reports"][0]["seed"] == 9


def test_missing_config_exit_three(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["kind"] == "config"


def test_malformed_expression_exit_three(tmp_path, capsys):
    bad = dict(HOLDS_JOB, h="x1 + ")
    cfgp = _write(tmp_path, "job.json", bad)
    code = main(["check", "--config", cfgp])
    assert code == 3
    assert "error" in json.loads(capsys.readouterr().err)


def test_check_set_command(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "E": "x1^2",
        "cfg": {"seed": 1, "samples": 2000},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["check-set", "--config", cfgp])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    rep = payload["reports"][0]
    assert rep["verdict"] == "HoldsOnSamples"
    assert rep["flags"]["length_matches_base_distance"] is False


def test_check_product_set_command(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "phi": "a - b",
        "product_set": {"graph_bound": "v - x1^2", "v_range": [0, 3]},
        "cfg": {"seed": 1, "samples": 2000},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["check-product-set", "--config", cfgp])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["verdict"] == "HoldsOnSamples"


def test_check_epigraph_command(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": "x1^2",
        "phi": "a - b",
        "queries": [[[0.5], 0.25], [[0.5], 0.2]],
        "cfg": {"seed": 1, "samples": 2000},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["check-epigraph", "--config", cfgp])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1  # second query is a non-member
    members = [r["member"] for r in payload["reports"]]
    assert members == [True, False]


def test_verify_command(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": "x1^2",
        "phi": "a - b",
        "theorem": {"id": "EpigraphEquiv"},
        "cfg": {"seed": 3, "samples": 800},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["verify", "--config", cfgp])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["reports"][0]["id"] == "EpigraphEquiv"
    assert payload["reports"][0]["verdict"] == "HoldsOnSamples"


def test_verify_premise_failed_exit_two(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": "x1 + 1",
        "phi": "a - b",
        "theorem": {"id": "StrictDifferential"},
        "cfg": {"seed": 3, "samples": 800},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["verify", "--config", cfgp])
    assert code == 2


def test_search_command(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": "-(x1^2)",
        "phi": "a - b",
        "cfg": {"seed": 3, "samples": 2000},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["search", "--config", cfgp])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["reports"][0]["refined_witnesses"]


def test_check_phi_command(tmp_path, capsys):
    job = {
        "phi": "a - b",
        "properties": ["nonneg_homogeneous", "additive", "antisymmetric",
                       "seq_upper_bounded"],
        "sequences": [[[1, 0], [0, 1]]],
        "cfg": {"seed": 0, "samples": 3000},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["check-phi", "--config", cfgp])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1  # seq_upper_bounded is violated by the crossing pair
    by_prop = {r["property"]: r["verdict"] for r in payload["reports"]}
    assert by_prop["nonneg_homogeneous"] == "HoldsOnSamples"
    assert by_prop["additive"] == "HoldsOnSamples"
    assert by_prop["antisymmetric"] == "HoldsOnSamples"
    assert by_prop["seq_upper_bounded"] == "Violated"


def test_check_phi_reports_every_property_of_a_non_evaluable_phi(tmp_path, capsys):
    props = ["nonneg_homogeneous", "additive", "antisymmetric", "nonneg_linear"]
    job = {"phi": "log(a)", "properties": props, "cfg": {"seed": 0, "samples": 500}}
    code = main(["check-phi", "--config", _write(tmp_path, "job.json", job)])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert code == 2
    assert [r["property"] for r in reports] == props
    assert {r["verdict"] for r in reports} == {"DomainError"}
    assert "nonneg_homogeneous: non-finite value at sample" in reports[0]["notes"][-1]


def test_weighted_sum_with_fewer_weights_than_members_exit_two(tmp_path, capsys):
    job = _theorem(id="WeightedSum", h_list=["x1^2", "x1^4"], weights=[1])
    code = main(["verify", "--config", _write(tmp_path, "job.json", job)])
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert code == 2
    assert report["verdict"] == "PremiseFailed" and report["conclusion"] is None
    notes = [n for p in report["premises"] for n in p["notes"]]
    assert "1 weights for 2 members" in notes


@pytest.mark.parametrize("theorem", [
    {"id": "SupFamily", "h_list": ["x1^2", "x1^4"]},
    {"id": "Composition", "h2": "exp(x1)"},
    {"id": "DiffeoInvariance", "H": ["2*x1 + 1"], "Hinv": ["(x1 - 1)/2"]},
    {"id": "ContinuityBound", "K": 10, "eps": 0.1},
    {"id": "ChartContinuity", "K": 10, "eps": 0.1},
    {"id": "PhiLimit", "phis": ["a - b"]},
    {"id": "PhiSeriesLimit", "phis": ["a - b"]},
    {"id": "EpigraphEquiv"},
    {"id": "SupEpigraphCor", "h_list": ["x1^2", "x1^4"]},
], ids=lambda theorem: theorem["id"])
def test_verify_on_a_domain_with_no_member_exit_two(tmp_path, capsys, theorem):
    job = dict(_theorem(**theorem), domain={"box": [[-1, 1]], "membership": "x1 - 100"})
    code = main(["verify", "--config", _write(tmp_path, "job.json", job)])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    report = json.loads(out)["reports"][0]
    assert report["verdict"] == "PremiseFailed" and report["conclusion"] is None


# a member h with no finite value at some of the points a verifier harvests
@pytest.mark.parametrize("job", [
    {"h": "log(x1 - 0.99)", "phi": "a - b", "theorem": {"id": "EpigraphEquiv"},
     "cfg": {"seed": 10, "samples": 100}},
    {"h": "x1^2", "phi": "a", "theorem": {"id": "SupFamily", "h_list": ["x1^2", "log(x1)"]}},
], ids=lambda job: job["theorem"]["id"])
def test_verify_where_h_is_not_finite_exit_two(tmp_path, capsys, job):
    job = dict(job, manifold={"kind": "Euclidean", "dim": 1}, domain={"box": [[-1, 1]]})
    code = main(["verify", "--config", _write(tmp_path, "job.json", job)])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    report = json.loads(out)["reports"][0]
    assert report["verdict"] == "PremiseFailed" and report["conclusion"] is None


def test_catalog_listing(capsys):
    code = main([])
    out = capsys.readouterr().out
    assert code == 0
    assert "Sphere" in out
    assert "MeanValue31" in out
    assert "stereographic" in out
    text = list_builtins()
    assert "artanh" in text and "if(cond, then, else)" in text


def test_verify_theorem_flag(tmp_path, capsys):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": "x1^2",
        "phi": "a - b",
        "cfg": {"seed": 3, "samples": 800},
    }
    cfgp = _write(tmp_path, "quad.json", job)
    code = main(["verify", "--theorem", "EpigraphEquiv", "--config", cfgp])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["reports"][0]["id"] == "EpigraphEquiv"


@pytest.mark.parametrize("theorem", [
    {"id": "ContinuityBound", "eps": 0.2},
    {"id": "ChartContinuity", "K": 1.0},
    {"id": "LocalMin"},
    {"id": "LocalMin", "mu_star": [0.0, 1.0]},
    {"id": "MeanValue31", "u1": 0.5},
    {"id": "ThreePoint32", "mu1": 0.1, "mu2": 0.5},
    {"id": "StrictDifferential", "tol_strict": "tight"},
])
def test_verify_missing_or_bad_key_exit_three(tmp_path, capsys, theorem):
    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": "x1^2",
        "phi": "a - b",
        "theorem": theorem,
        "cfg": {"seed": 3, "samples": 200},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["verify", "--config", cfgp])
    out, err = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in out + err
    assert json.loads(err)["kind"] == "config"


def test_verify_too_deep_transport_exit_three(tmp_path, capsys):
    # each expression is within the depth limit, h o Hinv o H is not
    def nest(op):
        return "(" * 25 + "x1" + f" {op} 1)" * 25

    job = {
        "manifold": {"kind": "Euclidean", "dim": 1},
        "domain": {"box": [[-1, 1]]},
        "h": nest("+"),
        "phi": "a - b",
        "theorem": {"id": "DiffeoInvariance", "H": nest("+"), "Hinv": nest("-")},
        "cfg": {"seed": 3, "samples": 200},
    }
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["verify", "--config", cfgp])
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["kind"] == "ExprDepthError"


def _malformed(**changes):
    job = {k: v for k, v in HOLDS_JOB.items() if k != "form"}
    job.update(changes)
    return job


_INSTANCE = {k: HOLDS_JOB[k] for k in ("manifold", "domain", "h", "phi")}
_CFG = {"seed": 3, "samples": 200, "refine_steps": 2}


def _theorem(**theorem):
    return dict(_INSTANCE, theorem=theorem, cfg=_CFG)


def _raw(job: dict, key: str, text: str) -> str:
    """job as JSON text with the value of top-level `key` replaced by text,
    for the non-finite literals json.dumps cannot write (1e400)."""
    return json.dumps(dict(job, **{key: 0.0})).replace(f'"{key}": 0.0', f'"{key}": {text}')


# a plain job runs `check`; a (command, job) pair names its command
@pytest.mark.parametrize("job, key", [
    (_malformed(manifold={"kind": "Euclidean", "dim": "x"}), "manifold.dim"),
    (_malformed(manifold=[1]), "manifold"),
    (_malformed(h=3), "h"),
    (_malformed(E=3), "E"),
    (_malformed(E=["x1", 2]), "E"),
    (_malformed(phi=["a - b"]), "phi"),
    (_malformed(domain={"box": 5}), "domain.box"),
    (_malformed(domain={"box": [[0, "low"]]}), "domain.box"),
    (_malformed(domain={"box": [[-1, 1]], "membership": 2}), "domain.membership"),
    (_malformed(cfg=[["seed", 3]]), "cfg"),
    ([HOLDS_JOB], "top level"),
    (("verify", _theorem(id="Composition", h2=3)), "theorem.h2"),
    (("verify", _theorem(id="PhiLimit", phis=[3])), "theorem.phis"),
    (("verify", _theorem(id="Sum41b", h_list=[3, 4])), "theorem.h_list"),
    (("verify", _theorem(id="Intersection52", h_list=[3, 4])), "theorem.h_list"),
    (("verify", _theorem(id="DiffeoInvariance", H=3, Hinv=4)), "theorem.H"),
    (("verify", _theorem(id="WeightedSum", h_list=["x1^2"], weights="x")), "theorem.weights"),
    (("verify", _theorem(id="ContinuityBound", K=math.nan, eps=0.2)), "theorem.K"),
    (("verify", _theorem(id="NoSuchTheorem")), "theorem.id"),
    (("verify", _theorem(id="DiffeoInvariance", diffeo="stereographic")), "theorem.diffeo"),
    (("verify", _theorem(id="Intersection52", h_list=["x1^2", "log(x1)"])), "theorem.h_list[1]"),
    (("check-product-set", dict(_INSTANCE, product_set={"graph_bound": 3, "v_range": [0, 3]})),
     "product_set.graph_bound"),
    (("check-product-set", dict(_INSTANCE, product_set={"graph_bound": "v - x1^2",
                                                        "v_range": [0]})),
     "product_set.v_range"),
    (("check-epigraph", dict(_INSTANCE, queries=[[0.0]])), "queries[0]"),
    (("check-epigraph", dict(_INSTANCE, queries=[[[0.5], 0.25], [[0.0], 1.0, 3]])), "queries[1]"),
    (("check-epigraph", dict(_INSTANCE, queries=[[[0.0], "x"]])), "queries[0]"),
    (("check-phi", {"phi": 3}), "phi"),
    (("check-phi", {"phi": "a - b", "properties": ["seq_upper_bounded"], "sequences": 3}),
     "sequences"),
    (_malformed(cfg={"samples": 1.5}), "cfg.samples"),
    (_malformed(cfg={"workers": 2.5}), "cfg.workers"),
    (_malformed(cfg={"tol_abs": math.nan}), "cfg.tol_abs"),
    (_malformed(cfg={"seed": True}), "cfg.seed"),
    (_malformed(cfg={"sample": 100}), "cfg.sample"),
    (_raw(_malformed(), "note", "1e400"), "note"),
    # values that used to be misread rather than rejected
    (_malformed(strict="false"), "strict"),
    (_malformed(form="intervall"), "form"),
    (_malformed(form="interval", manifold={"kind": "Euclidean", "dim": 2},
                domain={"box": [[-1, 1], [-1, 1]]}, E=["x2", "x1"]), "form"),
    (("check-phi", {"phi": "a - b", "properties": "additive"}), "properties"),
    (_malformed(domain={"box": [[-1e308, 1e308]]}), "domain.box[0]"),
    (_malformed(form="slope", manifold={"kind": "Euclidean", "dim": 2},
                domain={"box": [[-1, 1], [-1, 1]]}, E=["x2", "x1"]), "form"),
    (_malformed(form="slope", manifold={"kind": "Sphere", "dim": 1},
                domain={"box": [[-2, 2], [-2, 2]]}, E=["x1", "x2"]), "form"),
    *((("verify", dict(_theorem(id=tid, **points), manifold={"kind": kind, "dim": 2},
                       domain={"box": [[-0.5, 0.5]] * (3 if kind == "Sphere" else 2)})),
       "manifold")
      for tid, points in (("MeanValue31", {"u1": 0.3, "u2": 0.0}),
                          ("ThreePoint32", {"mu1": 0.0, "mu2": 0.1, "mu3": 0.2}))
      for kind in ("Euclidean", "Sphere", "PoincareBall")),
])
def test_malformed_job_type_exit_three(tmp_path, capsys, job, key):
    command, job = job if isinstance(job, tuple) else ("check", job)
    cfgp = _write(tmp_path, "job.json", job)
    code = main([command, "--config", cfgp])
    out, err = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in out + err
    payload = json.loads(err)
    assert payload["kind"] == "config"
    assert payload["error"].startswith(key)


@pytest.mark.parametrize("argv, names", [
    (["check"], "--config"),
    (["check", "--config", "{job}", "--samples", "x"], "--samples"),
    (["no-such-command", "--config", "{job}"], "no-such-command"),
    (["check", "--config", "{job}", "--out", "{tmp}/missing/report.json"], "--out"),
    (["check", "--config", "{job}", "--witness-csv", "{tmp}/missing/w.csv"], "--witness-csv"),
])
def test_bad_arguments_exit_three(tmp_path, capsys, argv, names):
    job = _write(tmp_path, "job.json", VIOLATED_JOB)
    code = main([a.format(job=job, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in out + err
    payload = json.loads(err)
    assert payload["kind"] == "config" and names in payload["error"]


def test_bad_seed_variable_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GEOCONVEX_SEED", "abc")
    code = main(["check", "--config", _write(tmp_path, "job.json", HOLDS_JOB)])
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"].startswith("GEOCONVEX_SEED")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_internal_error_exit_four(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("verifier bug")

    monkeypatch.setitem(STATEMENTS, TheoremId.EPIGRAPH_EQUIV, broken)
    code = main(["verify", "--config", _write(tmp_path, "job.json", _theorem(id="EpigraphEquiv"))])
    out, err = capsys.readouterr()
    assert code == 4
    assert "Traceback" not in out + err
    payload = json.loads(err)
    assert payload["kind"] == "internal" and "verifier bug" in payload["error"]


# ---------------------------------------------------------------------------
# fuzzing: one valid job per command, mutated

_FUZZ_CFG = {"seed": 1, "samples": 120, "refine_steps": 1, "t_grid": 5}
_FUZZ_BASE = {k: HOLDS_JOB[k] for k in ("manifold", "h", "E", "phi")}
_FUZZ_BASE.update(domain={"box": [[-1, 1]], "membership": "1 - x1^2"}, cfg=_FUZZ_CFG)
_FUZZ_JOB_SPACE = {k: _FUZZ_BASE[k] for k in ("manifold", "domain", "E", "cfg")}
# every key of these jobs is read by its command
_FUZZ_JOBS = {
    "check": dict(_FUZZ_BASE, form="slope", strict=False),
    "check-set": _FUZZ_JOB_SPACE,
    "check-product-set": dict(_FUZZ_JOB_SPACE, phi="a - b", product_set={
        "graph_bound": "v - x1^2", "v_range": [0, 3], "base": {"box": [[-0.5, 0.5]]}}),
    "check-epigraph": dict(_FUZZ_BASE, queries=[[[0.5], 0.25]]),
    "verify": dict(_FUZZ_BASE, theorem={"id": "WeightedSum", "h_list": ["x1^2", "abs(x1)"],
                                        "weights": [0.5, 2]}),
    "search": dict(_FUZZ_BASE, strict=True),
    "check-phi": {"phi": "a - b", "E": "x1", "properties": ["additive", "seq_upper_bounded"],
                  "sequences": [[[1, 0], [0, 1]]], "cfg": _FUZZ_CFG},
}


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from _paths(v, path + (k,))


def _parent(job, path):
    for k in path[:-1]:
        job = job[k]
    return job


def _class(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


# a value of each JSON type; swapping in one of another type breaks any key
_SWAPS = ("x", 1.5, True, [[]], {"k": 1})


def _mutate(data, job, op):
    path = data.draw(st.sampled_from(list(_paths(job))[1:]))
    parent, key = _parent(job, path), path[-1]
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "arity" and isinstance(value, list):
        parent[key] = value[:-1] if data.draw(st.booleans()) else value + value[:1]
    elif op in ("arity", "nest"):
        parent[key] = data.draw(st.sampled_from([[value], {"v": value}, [[value, None]]]))
    elif op == "garbage":
        parent[key] = data.draw(st.sampled_from([None, [], {}, "", -1, 0, [None, {"a": []}]]))
    elif op == "swap":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(
            [v for v in _SWAPS if _class(v) != _class(value)])))
    else:  # non-finite
        parent[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=70, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_jobs_exit_cleanly(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_JOBS)))
    job = copy.deepcopy(_FUZZ_JOBS[command])
    free = data.draw(st.lists(st.sampled_from(["drop", "arity", "nest", "garbage"]), max_size=2))
    for op in free:
        if len(list(_paths(job))) > 1:
            _mutate(data, job, op)
    breaking = data.draw(st.sampled_from([None, "swap", "non-finite"]))
    if breaking and len(list(_paths(job))) > 1:
        _mutate(data, job, breaking)
    else:
        breaking = None
    code = main([command, "--config", _write(tmp_path, "job.json", job)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2, 3), err
    # every key of the base jobs is read, so a lone type swap is caught;
    # a non-finite number is rejected wherever it sits
    if breaking == "non-finite" or (breaking == "swap" and not free):
        assert code == 3, job
