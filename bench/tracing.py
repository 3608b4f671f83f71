"""Spans around geoconvex's layer boundaries, installed from the benchmark.

Each traced function is replaced by a wrapper that records one span per
call: name, start, end, parent span, op id, row count, accepted rows (for
membership tests) and the set of layers open above it.  `checker` and
`theorems` import names directly (`from .manifold import geodesic_batch`),
so a function is replaced in every geoconvex module whose namespace holds
it; methods are replaced on their class.  `uninstall` restores the
originals, so untraced passes run the unmodified code.

Spans are appended to two flat arrays (times and integers) and turned into
the layer metrics when the pass ends.  A chunk scanned on a pool thread
has no open span of its own; its parent is the innermost span open on the
main thread, which is the public check waiting for the pool.  A layer's
busy time is the summed duration of its outermost spans over all threads;
a span's self time is its duration minus the union of its children's.
"""

from __future__ import annotations

import array
import functools
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = (
    "op", "rng", "algebra.sample", "algebra.member", "exprlang.batch",
    "exprlang.scalar", "manifold.geodesic", "manifold.distance", "manifold.mask",
    "checker", "theorems", "cli.main", "cli.run_job",
)
_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}

_CHECKS = (
    "check_phiE_convex_interval", "check_slope_inequality",
    "check_geodesic_E_convex_set", "check_geodesic_phiE_convex_fn",
    "check_geodesic_phiE_convex_set", "search_counterexample",
)

# (layer, module, attribute, index of the argument whose length is the row
# count; None for one row, -1 for calls that have no row count)
TARGETS = (
    ("rng", "rng", "base_array", 1),
    ("rng", "rng", "unit_array", 0),
    ("algebra.sample", "algebra", "sample_members", 1),
    ("algebra.sample", "algebra", "sample_product_members", 1),
    ("algebra.member", "algebra", "member_mask_batch", 1),
    ("algebra.member", "algebra", "ProductSet.member_mask", 1),
    ("algebra.member", "algebra", "outside_margin_batch", 1),
    ("algebra.member", "algebra", "ProductSet.outside_margin", 1),
    ("exprlang.batch", "exprlang", "ScalarFn.eval_batch", 1),
    ("exprlang.batch", "exprlang", "EndoMap.eval_batch", 1),
    ("exprlang.batch", "exprlang", "Bifunction.eval_batch", 1),
    ("exprlang.scalar", "exprlang", "ScalarFn.__call__", None),
    ("exprlang.scalar", "exprlang", "EndoMap.__call__", None),
    ("exprlang.scalar", "exprlang", "Bifunction.__call__", None),
    ("manifold.geodesic", "manifold", "geodesic_batch", 1),
    ("manifold.distance", "manifold", "distance_batch", 1),
    ("manifold.mask", "manifold", "valid_mask", 1),
    ("manifold.mask", "manifold", "antipodal_mask", 0),
    ("cli.main", "cli", "main", -1),
    ("cli.run_job", "cli", "run_job", -1),
) + tuple(("checker", "checker", name, -1) for name in _CHECKS)

# span columns: times in one array of doubles, the rest in one of int32
TIME_COLS = ("t0", "t1")
INT_COLS = ("sid", "name", "parent", "op", "rows", "acc", "mask")


def _nrows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if shape else 1
    return len(x)


def _verify_targets():
    theorems = sys.modules["geoconvex.theorems"]
    return tuple(
        ("theorems", "theorems", name, -1)
        for name, fn in sorted(vars(theorems).items())
        if name.startswith("verify_") and getattr(fn, "__module__", "") == theorems.__name__
    )


class Tracer:
    """Records spans while installed; `take` hands over one pass's spans."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.layer_of: list[int] = [LAYERS.index("op")]
        self.op = -1
        self._undo: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._reset()

    def _reset(self):
        self._times = array.array("d")
        self._ints = array.array("i")
        self._ids = itertools.count()

    def _record(self, sid, name_id, t0, t1, parent, rows, acc, mask):
        # the two arrays must stay row-aligned across pool threads
        with self._lock:
            self._times.extend((t0, t1))
            self._ints.extend((sid, name_id, parent, self.op, rows, acc, mask))

    def _wrap(self, fn, name_id: int, layer: str, row_arg):
        bit = _BIT[layer]
        count_accepted = layer == "algebra.member"
        clock = time.perf_counter
        local = self._local
        main_stack = self._main_stack
        record = self._record
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent, pmask = stack[-1]
            elif main_stack:
                parent, pmask = main_stack[-1]
            else:
                parent, pmask = -1, 0
            sid = next(tracer._ids)
            stack.append((sid, pmask | bit))
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                if row_arg is None:
                    rows = 1
                elif row_arg < 0:
                    rows = 0
                else:
                    rows = _nrows(args[row_arg])
                acc = int(np.count_nonzero(out)) if count_accepted and out is not None else 0
                record(sid, name_id, t0, t1, parent, rows, acc, pmask)

        return wrapper

    def begin_op(self, op_id: int):
        self.op = op_id
        sid = next(self._ids)
        self._main_stack.append((sid, _BIT["op"]))
        return sid, time.perf_counter()

    def end_op(self, token):
        sid, t0 = token
        t1 = time.perf_counter()
        self._main_stack.pop()
        self._record(sid, 0, t0, t1, -1, 0, 0, 0)

    # -- installation ----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
        return self.names.index(name)

    def install(self):
        """Replace every target in geoconvex; geoconvex must be imported."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sys.modules.items()
                if n == "geoconvex" or n.startswith("geoconvex.")]
        for layer, modname, attr, row_arg in TARGETS + _verify_targets():
            owner = sys.modules[f"geoconvex.{modname}"]
            name_id = self._name_id(f"{modname}.{attr}", layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name_id, layer, row_arg))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name_id, layer, row_arg)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def take(self) -> dict:
        """The recorded spans as named columns, in the order they ended."""
        times = np.frombuffer(self._times, dtype=np.float64).reshape(-1, len(TIME_COLS))
        ints = np.frombuffer(self._ints, dtype=np.int32).reshape(-1, len(INT_COLS))
        spans = {c: times[:, k] for k, c in enumerate(TIME_COLS)}
        spans.update({c: ints[:, k] for k, c in enumerate(INT_COLS)})
        self._reset()
        return spans


# ---------------------------------------------------------------------------
# metrics from one pass's span table


def _children_cover(spans: dict, parents: np.ndarray) -> np.ndarray:
    """Per parent span id, the length of the union of its children's spans."""
    cover = np.zeros(parents.size)
    pos = {int(p): k for k, p in enumerate(parents)}
    sel = np.flatnonzero(np.isin(spans["parent"], parents))
    if sel.size == 0:
        return cover
    par, t0s, t1s = spans["parent"][sel], spans["t0"][sel], spans["t1"][sel]
    order = np.lexsort((t0s, par))
    par, t0s, t1s = par[order], t0s[order], t1s[order]
    bounds = np.flatnonzero(np.diff(par)) + 1
    for lo, hi in zip(np.concatenate(([0], bounds)), np.concatenate((bounds, [par.size]))):
        t0, reach = t0s[lo:hi], np.maximum.accumulate(t1s[lo:hi])
        starts = np.concatenate(([0], np.flatnonzero(t0[1:] > reach[:-1]) + 1))
        ends = np.concatenate((starts[1:] - 1, [t0.size - 1]))
        cover[pos[int(par[lo])]] = float(np.sum(reach[ends] - t0[starts]))
    return cover


def layer_metrics(spans: dict, names: list[str], layer_of: list[int]) -> dict:
    """Per-layer metrics of one pass (see metrics.PER_LAYER)."""
    sid = spans["sid"]
    name = spans["name"].astype(np.int64)
    layer = np.asarray(layer_of, dtype=np.int64)[name]
    mask = spans["mask"].astype(np.int64)
    dur = spans["t1"] - spans["t0"]
    rows = spans["rows"].astype(np.int64)
    parent = spans["parent"]
    lid = {name_: i for i, name_ in enumerate(LAYERS)}
    outer = (mask & (1 << layer)) == 0
    # layer of each span's parent (-1 for roots); sids are 0..n-1
    layer_by_sid = np.full(sid.size, -1, dtype=np.int64)
    layer_by_sid[sid] = layer
    parent_layer = np.where(parent >= 0, layer_by_sid[np.maximum(parent, 0)], -1)

    def of(layer_name):
        return layer == lid[layer_name]

    def busy(layer_name):
        return float(np.sum(dur[of(layer_name) & outer]))

    def self_time(layer_name):
        sel = of(layer_name)
        return float(np.sum(dur[sel] - _children_cover(spans, sid[sel])))

    out = {}
    for key in ("rng", "algebra.sample", "exprlang.batch"):
        sel = of(key)
        out[f"{key}.calls"] = int(np.sum(sel))
        out[f"{key}.rows"] = int(np.sum(rows[sel & outer]))
        out[f"{key}.busy_s"] = busy(key)

    member = of("algebra.member") & outer
    out["algebra.member.rows"] = int(np.sum(rows[member]))
    out["algebra.member.busy_s"] = busy("algebra.member")
    in_sampling = member & (parent_layer == lid["algebra.sample"])
    tested = int(np.sum(rows[in_sampling]))
    out["algebra.member.accept_ratio"] = (
        int(np.sum(spans["acc"][in_sampling])) / tested if tested else 0.0
    )

    out["exprlang.scalar.calls"] = int(np.sum(of("exprlang.scalar")))
    out["exprlang.scalar.busy_s"] = busy("exprlang.scalar")

    geo = of("manifold.geodesic")
    out["manifold.geodesic.calls"] = int(np.sum(geo))
    out["manifold.geodesic.rows"] = int(np.sum(rows[geo]))
    out["manifold.geodesic.busy_s"] = busy("manifold.geodesic")
    out["manifold.geodesic.calls_1row"] = int(np.sum(geo & (rows == 1)))
    out["manifold.distance.busy_s"] = busy("manifold.distance")
    out["manifold.mask.busy_s"] = busy("manifold.mask")

    checks = of("checker")
    set_check = names.index("checker.check_geodesic_E_convex_set")
    out["checker.checks"] = int(np.sum(checks))
    out["checker.set_checks"] = int(np.sum(name == set_check))
    out["checker.busy_s"] = busy("checker")
    out["checker.self_s"] = self_time("checker")

    verifies = of("theorems")
    out["theorems.verifies"] = int(np.sum(verifies))
    out["theorems.self_s"] = self_time("theorems")
    outer_verifies = int(np.sum(verifies & outer))
    checks_in_verify = int(np.sum(checks & ((mask & (1 << lid["theorems"])) != 0)))
    out["theorems.checks_per_verify"] = (
        checks_in_verify / outer_verifies if outer_verifies else 0.0
    )

    out["cli.jobs"] = int(np.sum(of("cli.run_job")))
    out["cli.self_s"] = self_time("cli.main")

    # the refinement path: one-row calls into the evaluation layers
    point_layers = [lid[x] for x in ("algebra.sample", "algebra.member", "exprlang.batch",
                                     "exprlang.scalar", "manifold.geodesic",
                                     "manifold.distance", "manifold.mask")]
    one_row = np.isin(layer, point_layers) & (rows == 1) & outer
    op_time = float(np.sum(dur[of("op")]))
    out["path.refine_share"] = float(np.sum(dur[one_row])) / op_time if op_time else 0.0
    out["trace.spans"] = int(sid.size)
    return out
