"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _pass_digest(wl) -> str:
    for i, op in enumerate(wl.ops):
        out = wl.gate(i, op.call())
        assert not out.problems, out.problems
    return wl.digest()


def test_check_100k_digest_same_across_worker_counts(tmp_path):
    digests = []
    for workers in (1, workloads.default_workers()):
        wl = workloads.check_100k(0, tmp_path, workers=workers)
        try:
            digests.append(_pass_digest(wl))
        finally:
            wl.close()
    assert digests[0] == digests[1]


def test_benchmark_json_matches_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(metrics.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    for name, _, _, moves, steady in metrics.PER_LAYER:
        for target in moves:
            metric, workload = target.split("@")
            assert metric in {m[0] for m in metrics.END_TO_END}, name
            assert workload in metrics.WORKLOADS, name
        assert set(steady) <= set(metrics.WORKLOADS), name


def test_tracer_install_restores_every_name():
    import geoconvex.checker
    import geoconvex.theorems

    before = (geoconvex.checker.geodesic_batch, geoconvex.theorems.geodesic_batch,
              geoconvex.ScalarFn.__call__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert geoconvex.checker.geodesic_batch is not before[0]
        assert geoconvex.theorems.geodesic_batch is geoconvex.checker.geodesic_batch
    finally:
        tracer.uninstall()
    after = (geoconvex.checker.geodesic_batch, geoconvex.theorems.geodesic_batch,
             geoconvex.ScalarFn.__call__)
    assert all(a is b for a, b in zip(before, after))


def test_children_cover_merges_overlapping_children():
    # parent 0 spans [0, 10]; children overlap as on two pool threads
    spans = {
        "sid": np.array([0, 1, 2, 3, 4]),
        "parent": np.array([-1, 0, 0, 0, 1]),
        "t0": np.array([0.0, 1.0, 2.0, 7.0, 2.5]),
        "t1": np.array([10.0, 4.0, 5.0, 8.0, 3.0]),  # span 4: a grandchild of 0
    }
    cover = tracing._children_cover(spans, np.array([0, 1]))
    assert cover.tolist() == [5.0, 0.5]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan_bulk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
