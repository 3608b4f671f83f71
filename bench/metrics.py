"""Metric table of the geoconvex benchmark.

BENCHMARK.json lists the same metrics with only name, unit, better (and
bound for end-to-end metrics); this table adds, for each per-layer metric,
the end-to-end metrics and workloads it is expected to move.  A later
change that claims a gain cites these entries by name.  `test_bench.py`
keeps the two in step.
"""

WORKLOADS = {
    "check_100k": "CLI jobs at 100k samples and two workers: bulk scan, set premise, "
                  "one refinement and the thread pool in every job",
    "scan_bulk": "holding set checks at 100k samples on one worker: sampling, batch "
                 "evaluation and geodesics with almost no refinement",
    "verify_cases": "statement verifiers at the implication-suite budget: many small "
                    "checks dominated by scalar refinement and repeated premise scans",
}

# name, unit, better, bound (share of the parent's median).  The timing
# bounds are wide because runs on a shared 2-CPU host drift by up to 30%
# between runs a few minutes apart, with no change to the program.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SCAN = ("pairs_per_s@scan_bulk",)
_SCAN_CLI = ("pairs_per_s@scan_bulk", "pairs_per_s@check_100k")
_VERIFY = ("ops_per_s@verify_cases",)
_NONE = ()

# name, unit, better, moves ("metric@workload"; a workload listed under
# "steady" is one the layer is expected to leave unchanged)
PER_LAYER = (
    ("rng.calls", "count", "lower", _SCAN, ("verify_cases",)),
    ("rng.rows", "count", "lower", _SCAN, ("verify_cases",)),
    ("rng.busy_s", "s", "lower", _SCAN, ("verify_cases",)),
    ("algebra.sample.calls", "count", "lower", _SCAN_CLI, _NONE),
    ("algebra.sample.rows", "count", "lower", _SCAN_CLI, _NONE),
    ("algebra.sample.busy_s", "s", "lower", _SCAN_CLI, _NONE),
    ("algebra.member.rows", "count", "lower", _SCAN_CLI, _NONE),
    ("algebra.member.busy_s", "s", "lower", _SCAN_CLI, _NONE),
    ("algebra.member.accept_ratio", "ratio", "higher", _SCAN_CLI, _NONE),
    ("exprlang.batch.calls", "count", "lower", _SCAN, _NONE),
    ("exprlang.batch.rows", "count", "lower", _SCAN, _NONE),
    ("exprlang.batch.busy_s", "s", "lower", _SCAN, _NONE),
    ("exprlang.scalar.calls", "count", "lower",
     ("ops_per_s@verify_cases", "op_p50_ms@verify_cases", "op_p50_ms@check_100k"),
     ("scan_bulk",)),
    ("exprlang.scalar.busy_s", "s", "lower",
     ("ops_per_s@verify_cases", "op_p50_ms@verify_cases", "op_p50_ms@check_100k"),
     ("scan_bulk",)),
    ("manifold.geodesic.calls", "count", "lower", _SCAN_CLI, _NONE),
    ("manifold.geodesic.rows", "count", "lower", _SCAN_CLI, _NONE),
    ("manifold.geodesic.busy_s", "s", "lower", _SCAN_CLI, _NONE),
    ("manifold.geodesic.calls_1row", "count", "lower", _SCAN_CLI, _NONE),
    ("manifold.distance.busy_s", "s", "lower", _SCAN_CLI, _NONE),
    ("manifold.mask.busy_s", "s", "lower", _VERIFY, ("scan_bulk",)),
    ("checker.checks", "count", "lower", _SCAN_CLI, _NONE),
    ("checker.set_checks", "count", "lower", _SCAN_CLI, _NONE),
    ("checker.busy_s", "s", "lower", _SCAN_CLI, _NONE),
    ("checker.self_s", "s", "lower", _SCAN_CLI, _NONE),
    ("theorems.verifies", "count", "lower", _VERIFY, _NONE),
    ("theorems.self_s", "s", "lower", _VERIFY, _NONE),
    ("theorems.checks_per_verify", "ratio", "lower", _VERIFY, _NONE),
    ("cli.jobs", "count", "lower", ("op_p50_ms@check_100k",), _NONE),
    ("cli.self_s", "s", "lower", ("op_p50_ms@check_100k",), _NONE),
    ("cli.report_bytes", "B", "lower", ("op_p50_ms@check_100k",), _NONE),
    ("path.refine_share", "ratio", "lower",
     ("ops_per_s@verify_cases", "op_p50_ms@check_100k"), ("scan_bulk",)),
    ("trace.pass_s", "s", "lower", _NONE, _NONE),
    ("trace.overhead_s", "s", "lower", _NONE, _NONE),
    ("trace.spans", "count", "lower", _NONE, _NONE),
)
