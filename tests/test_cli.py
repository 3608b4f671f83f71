import csv
import json

import pytest

from geoconvex.cli import list_builtins, main

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
    path = tmp_path / name
    path.write_text(json.dumps(payload))
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
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["kind"] == "config"


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
])
def test_malformed_job_type_exit_three(tmp_path, capsys, job, key):
    cfgp = _write(tmp_path, "job.json", job)
    code = main(["check", "--config", cfgp])
    out, err = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in out + err
    payload = json.loads(err)
    assert payload["kind"] == "config"
    assert payload["error"].startswith(key)
