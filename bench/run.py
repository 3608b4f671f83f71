"""geoconvex benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload <check_100k|scan_bulk|verify_cases>
                         --seed N --seconds S --trace <0|1>

Run from anywhere inside a source checkout; geoconvex is imported from the
checkout's `src/`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the report digest, the environment and the sample counts.

This process only orchestrates: it imports neither numpy nor geoconvex.
Set-up time is measured on fresh processes (start to first op, that is
interpreter start, imports and input generation), several times per run,
and the median is reported.  The measured run is one more such process;
BLAS and OpenMP pools are pinned to one thread there, so the checks'
`workers` setting is the only source of threads.

Untraced runs (--trace 0) repeat whole passes over the workload's ops
while another pass fits in S seconds.  Each op's latency is the median of
its repetitions; throughput is ops (or sampled pairs) per second of the
pass made of those latencies, and op_p50_ms and op_p90_ms are percentiles
over the ops of one pass.  Peak memory is that of the measured process.

Traced runs (--trace 1) alternate one untraced and one traced pass while
another pair fits in S seconds.  Per-layer metrics are per pass (counts
repeat exactly; times are medians over the traced passes), and the
tracing overhead is the traced minus the untraced pass time.  Spans of the
last traced pass are written to `.bench_work/traces/<workload>.npz` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

WORKLOADS = ("check_100k", "scan_bulk", "verify_cases")
SETUP_PROBES = 5
# the whole run must end within 180 s; leave room for set-up and reporting
CHILD_DEADLINE_S = 165.0
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# child side: imports, inputs, measurement


def _import_geoconvex():
    if not (SRC / "geoconvex" / "__init__.py").is_file():
        raise BenchError(f"no geoconvex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geoconvex

    if Path(geoconvex.__file__).resolve().parent != (SRC / "geoconvex").resolve():
        raise BenchError(f"geoconvex imported from {geoconvex.__file__}, not {SRC}")


def _percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _call(wl, index, tracer=None):
    """Time one op; the gate runs later, outside the op and any tracing."""
    op = wl.ops[index]
    token = tracer.begin_op(index) if tracer else None
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an op that raises is a failed op
        result, error = None, f"{op.label}: raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.end_op(token)
    return elapsed, index, result, error


def _settle(wl, tally, call):
    _, index, result, error = call
    tally["attempted"] += 1
    if error is None:
        out = wl.gate(index, result)
        problems = out.problems
        tally["samples"] += out.samples
        tally["report_bytes"] += out.report_bytes
    else:
        problems = [error]
    if problems:
        tally["failed"] += 1
        for p in problems:
            print(f"FAIL {p}", file=sys.stderr)


def _new_tally():
    return {"attempted": 0, "failed": 0, "samples": 0, "report_bytes": 0}


def _run_pass(wl, tally, tracer=None):
    """Op latencies of one pass over the workload's ops.  With a tracer the
    ops run traced, and the gate runs after the tracer is removed."""
    if tracer:
        tracer.install()
    try:
        calls = [_call(wl, i, tracer) for i in range(len(wl.ops))]
    finally:
        if tracer:
            tracer.uninstall()
    for c in calls:
        _settle(wl, tally, c)
    return [c[0] for c in calls]


def _more(start, seconds, last_s):
    """Whether another pass (or pair of passes) fits in the run's seconds."""
    return time.perf_counter() - start + last_s <= seconds


def measure_untraced(wl, seconds):
    tally = _new_tally()
    reps = []  # reps[p][k]: latency of op k in pass p
    start = time.perf_counter()
    while not reps or _more(start, seconds, sum(reps[-1])):
        reps.append(_run_pass(wl, tally))
    typical = [statistics.median(column) for column in zip(*reps)]
    pass_s = sum(typical)
    metrics = {
        "ops_per_s": len(typical) / pass_s,
        "pairs_per_s": tally["samples"] / len(reps) / pass_s,
        "op_p50_ms": 1e3 * statistics.median(typical),
        "op_p90_ms": 1e3 * _percentile(typical, 90),
    }
    return metrics, tally, {"ops": len(typical), "passes": len(reps)}


def measure_traced(wl, seconds):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tally = _new_tally()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(sum(_run_pass(wl, tally)))
        bytes_before = tally["report_bytes"]
        traced.append(sum(_run_pass(wl, tally, tracer)))
        spans = tracer.take()
        m = layer_metrics(spans, tracer.names, tracer.layer_of)
        jobs = m["cli.jobs"]
        m["cli.report_bytes"] = (tally["report_bytes"] - bytes_before) / jobs if jobs else 0.0
        per_pass.append(m)
        if not _more(start, seconds, untraced[-1] + traced[-1]):
            break
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    _write_spans(wl.name, spans, tracer)
    return metrics, tally, {"passes": len(per_pass), "ops": tally["attempted"]}


def _write_spans(name, spans, tracer):
    import numpy as np

    out = WORKDIR / "traces"
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / f"{name}.npz", names=np.array(tracer.names),
             layer_of=np.array(tracer.layer_of), **spans)


def _environment():
    import numpy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def child_main(args) -> int:
    import resource

    _import_geoconvex()
    import workloads

    wl = workloads.BUILDERS[args.workload](args.seed, WORKDIR)
    ready_at = time.monotonic()
    try:
        if args.child == "setup":
            print(json.dumps({"ready_at": ready_at}))
            return 0
        if args.trace:
            metrics, tally, counts = measure_traced(wl, args.seconds)
        else:
            metrics, tally, counts = measure_untraced(wl, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = peak_kb / 1024.0
    finally:
        wl.close()
    print(json.dumps({
        "ready_at": ready_at,
        "metrics": metrics,
        "tally": tally,
        "counts": counts,
        "digest": wl.digest(),
        "env": _environment(),
        "workers": wl.workers,
    }))
    return 0


# ---------------------------------------------------------------------------
# parent side: set-up probes, the measured child, the result line


def _spawn(args, mode, timeout):
    env = dict(os.environ)
    env.update({k: "1" for k in PIN_THREADS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - t0
    return out


def parent_main(args) -> int:
    from metrics import END_TO_END, PER_LAYER

    if not (SRC / "geoconvex" / "__init__.py").is_file():
        raise BenchError(f"no geoconvex sources under {SRC}: run from a source checkout")
    deadline = time.monotonic() + CHILD_DEADLINE_S
    setups = [_spawn(args, "setup", 60.0)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _spawn(args, "run", deadline - time.monotonic())
    setups.append(res["setup_s"])
    measured = dict(res["metrics"])
    if args.trace:
        table = [(name, unit) for name, unit, *_ in PER_LAYER]
    else:
        measured["setup_s"] = statistics.median(setups)
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in table}
    tally = res["tally"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": res["digest"],
        "counts": res["counts"],
        "workers": res["workers"],
        "setup_samples_s": setups,
        "env": res["env"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        return child_main(args) if args.child else parent_main(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
