"""The statement table, the CLI and the seeded cases agree: every statement
id has a verifier and a seeded case, and the seeded case written as a
`verify` job gives the report of calling its verifier directly."""

import pytest

from geoconvex import CheckConfig, Instance, ScalarFn
from geoconvex.cli import run_job
from geoconvex.exprlang import Expr, point_vars
from geoconvex.instances import _CASES, theorem_case
from geoconvex.theorems import STATEMENTS, TheoremId

# the implication suite's budget
CFG = CheckConfig(seed=1234, samples=160, t_grid=9, refine_steps=12)
NUMBER_KEYS = ("u1", "u2", "mu1", "mu2", "mu3", "K", "eps")


def _instance_keys(inst: Instance) -> dict:
    dom, m = inst.domain, inst.manifold
    membership = dom.membership and ScalarFn(dom.membership).source()
    return {
        "manifold": {"kind": m.kind.value, "dim": m.dim},
        "domain": {"box": [list(axis) for axis in dom.box], "membership": membership},
        "h": inst.h.source(), "E": inst.E.sources(), "phi": inst.phi.source(),
    }


def _graph_h(graph: Expr) -> str:
    """h of an epigraph set's graph bound v - h."""
    return ScalarFn(Expr(graph.root.rhs, point_vars(1))).source()


def _job(tid: TheoremId, kwargs: dict) -> dict:
    """The `verify` job that reads back to the keyword arguments."""
    theorem = {"id": tid.value}
    theorem.update((key, float(kwargs[key])) for key in NUMBER_KEYS if key in kwargs)
    inst = kwargs.get("inst")
    if "insts" in kwargs:
        inst = kwargs["insts"][0]
        theorem["h_list"] = [sub.h.source() for sub in kwargs["insts"]]
    if "weights" in kwargs and kwargs["weights"] is not None:
        theorem["weights"] = [float(w) for w in kwargs["weights"]]
    if "sets" in kwargs:
        sets = kwargs["sets"]
        theorem["h_list"] = [_graph_h(s.graph_bound) for s in sets]
        inst = Instance(kwargs["m"], ScalarFn.from_source(theorem["h_list"][0], 1),
                        kwargs["E"], kwargs["phi"], sets[0].base)
    if "h2" in kwargs:
        theorem["h2"] = kwargs["h2"].source()
    if "mu_star" in kwargs:
        theorem["mu_star"] = [float(c) for c in kwargs["mu_star"].coords]
    if "phis" in kwargs:
        theorem["phis"] = [phi.source() for phi in kwargs["phis"]]
    if "diffeo" in kwargs:
        diffeo = kwargs["diffeo"]
        if diffeo.name == "stereographic":
            theorem["diffeo"] = "stereographic"
        else:
            theorem.update(H=diffeo.fwd.sources(), Hinv=diffeo.inv.sources())
    return dict(_instance_keys(inst), theorem=theorem)


def test_every_id_has_a_verifier_and_a_case():
    assert set(STATEMENTS) == set(TheoremId)
    assert set(_CASES) == set(TheoremId)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("tid", list(TheoremId), ids=lambda t: t.value)
def test_cli_job_matches_seeded_case(tid, seed):
    verifier, kwargs = theorem_case(tid, seed, CFG)
    assert verifier is STATEMENTS[tid]
    job = _job(tid, kwargs)
    assert run_job(job, "verify", CFG) == [verifier(**kwargs).to_dict()]
