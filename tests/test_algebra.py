import numpy as np
import pytest

from geoconvex import (
    Bifunction,
    DomainSet,
    EndoMap,
    Verdict,
    check_additive,
    check_antisymmetric,
    check_nonneg_homogeneous,
    check_nonneg_linear,
    check_seq_upper_bounded,
    euclidean,
    poincare_ball,
    sphere,
)
from geoconvex import rng
from geoconvex.algebra import member_mask_batch, sample_members
from geoconvex.errors import EmptySequenceError
from geoconvex.exprlang import parse, point_vars

BUDGET = 4000


def test_homogeneous_linear_form_holds():
    rep = check_nonneg_homogeneous(Bifunction.from_source("a - 2*b"), BUDGET)
    assert rep.holds and rep.max_violation <= 1e-9


def test_homogeneous_constant_offset_violated():
    rep = check_nonneg_homogeneous(Bifunction.from_source("a - b + 1"), BUDGET)
    assert rep.verdict is Verdict.VIOLATED
    # the hand value at (u1,u2,t) = (0,0,2): lhs 1, rhs 2
    phi = Bifunction.from_source("a - b + 1")
    assert phi(0.0, 0.0) == 1.0 and 2.0 * phi(0.0, 0.0) == 2.0
    assert rep.witness.violation > 1e-9


def test_homogeneous_zero_function():
    rep = check_nonneg_homogeneous(Bifunction.from_source("0"), BUDGET)
    assert rep.holds and rep.max_violation == 0.0


def test_additive():
    assert check_additive(Bifunction.from_source("a - 2*b"), BUDGET).holds
    rep = check_additive(Bifunction.from_source("a*b"), BUDGET)
    assert rep.verdict is Verdict.VIOLATED
    phi = Bifunction.from_source("a*b")
    assert phi(1.0, 1.0) == 1.0 and phi(1.0, 0.0) + phi(0.0, 1.0) == 0.0
    assert check_additive(Bifunction.from_source("0"), BUDGET).holds


def test_antisymmetric():
    assert check_antisymmetric(Bifunction.from_source("a - b"), BUDGET).holds
    rep = check_antisymmetric(Bifunction.from_source("a - 2*b"), BUDGET)
    assert rep.verdict is Verdict.VIOLATED
    phi = Bifunction.from_source("a - 2*b")
    assert phi(1.0, 0.0) == 1.0 and -phi(0.0, 1.0) == 2.0
    assert check_antisymmetric(Bifunction.from_source("0"), BUDGET).holds
    assert any("interpretation" in n for n in rep.notes)


def test_nonneg_linear_flag_is_conjunction():
    both = check_nonneg_linear(Bifunction.from_source("a - 2*b"), BUDGET)
    assert both.flags["nonneg_linear"] is True and both.holds
    only_hom = check_nonneg_linear(Bifunction.from_source("a*b"), BUDGET)
    assert only_hom.flags["nonneg_linear"] is False
    assert only_hom.verdict is Verdict.VIOLATED


def test_seq_upper_bounded_difference_gap():
    phi = Bifunction.from_source("a - b")
    rep = check_seq_upper_bounded(phi, EndoMap.identity(1), [((1.0, 0.0), (0.0, 1.0))])
    assert rep.verdict is Verdict.VIOLATED
    assert rep.witness.lhs == pytest.approx(1.0)
    assert rep.witness.rhs == pytest.approx(0.0)


def test_seq_upper_bounded_constant_and_abs():
    const = Bifunction.from_source("3")
    rep = check_seq_upper_bounded(const, EndoMap.identity(1), [((1.0, 2.0), (3.0, 4.0))])
    assert rep.holds and rep.max_violation == 0.0
    # nonnegative sequences: sup of |.| commutes with sup there
    phi = Bifunction.from_source("abs(a) + abs(b)")
    s = rng.Stream(5)
    seqs = [
        (
            [s.uniform(0, 2) for _ in range(6)],
            [s.uniform(0, 2) for _ in range(6)],
        )
        for _ in range(20)
    ]
    rep2 = check_seq_upper_bounded(phi, EndoMap.identity(1), seqs)
    # exhaustive oracle over the same finite sequences
    for useq, vseq in seqs:
        lhs = max(phi(a, b) for a, b in zip(useq, vseq))
        assert lhs <= phi(max(useq), max(vseq)) + 1e-12
    assert rep2.holds


def test_seq_upper_bounded_rejects_empty():
    phi = Bifunction.from_source("a - b")
    with pytest.raises(EmptySequenceError):
        check_seq_upper_bounded(phi, EndoMap.identity(1), [])
    with pytest.raises(EmptySequenceError):
        check_seq_upper_bounded(phi, EndoMap.identity(1), [((), ())])


def test_property_checks_are_deterministic():
    phi = Bifunction.from_source("a - b + 0.5*a*b")
    r1 = check_additive(phi, BUDGET, seed=9)
    r2 = check_additive(phi, BUDGET, seed=9)
    assert r1 == r2


def test_domain_sampling_membership_and_regions():
    dom = DomainSet(
        euclidean(2),
        ((-1.0, 1.0), (-1.0, 1.0)),
        parse("x1 + x2", point_vars(2)),
    )
    bases = rng.base_array(3, np.arange(500, dtype=np.uint64))
    pts = sample_members(dom, bases, region=0)
    assert member_mask_batch(dom, pts).all()
    other = sample_members(dom, bases, region=1)
    assert not np.allclose(pts, other)
    again = sample_members(dom, bases, region=0)
    np.testing.assert_array_equal(pts, again)


def test_domain_sampling_chunk_independence():
    dom = DomainSet(euclidean(1), ((-2.0, 3.0),))
    bases = rng.base_array(17, np.arange(100, dtype=np.uint64))
    full = sample_members(dom, bases, region=2)
    parts = np.concatenate([
        sample_members(dom, bases[:37], region=2),
        sample_members(dom, bases[37:], region=2),
    ])
    np.testing.assert_array_equal(full, parts)


def test_sphere_and_ball_sampling_valid():
    cap = DomainSet(
        sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3))
    )
    bases = rng.base_array(1, np.arange(300, dtype=np.uint64))
    pts = sample_members(cap, bases, region=0)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert (pts[:, 2] > 0.5).all()
    ball = DomainSet(poincare_ball(2), ((-0.9, 0.9), (-0.9, 0.9)))
    bpts = sample_members(ball, bases, region=0)
    assert (np.linalg.norm(bpts, axis=1) < 1.0).all()


def test_box_excess_matches_axis_max():
    from geoconvex.algebra import DomainSet, box_excess_batch
    from geoconvex.manifold import euclidean

    box = ((-1.0, 2.0), (0.5, 0.5), (-3.0, -3.0), (0.0, 1e-300))  # two degenerate axes
    dom = DomainSet(euclidean(4), box)
    rng = np.random.default_rng(0)
    X = rng.uniform(-4.0, 4.0, size=(200, 4))
    X[:20, 1] = 0.5
    X[10:30, 2] = -3.0
    X[30:40] = (-1.0, 0.5, -3.0, 0.0)
    X[40, 3] = -0.0
    X[41, 0] = np.nan
    X[42, 2] = np.inf
    X[43, 1] = -np.inf
    lo = dom.lows()[None, :]
    hi = dom.highs()[None, :]
    with np.errstate(all="ignore"):
        ref = np.max(np.maximum(lo - X, X - hi), axis=1)
        got = box_excess_batch(dom, X)
    nan = np.isnan(ref)
    assert np.array_equal(nan, np.isnan(got))
    assert got[~nan].tobytes() == ref[~nan].tobytes()
