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
from geoconvex.algebra import (
    ProductSet,
    member_mask_batch,
    sample_members,
    sample_product_members,
)
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


def test_non_evaluable_phi_is_a_domain_error_report():
    phi = Bifunction.from_source("log(a)")
    for check in (check_nonneg_homogeneous, check_additive, check_antisymmetric):
        rep = check(phi, BUDGET, seed=4)
        assert rep.verdict is Verdict.DOMAIN_ERROR and rep.max_violation is None
        assert "non-finite value at sample" in rep.notes[-1]
    rep = check_nonneg_linear(phi, BUDGET, seed=4)
    assert rep.verdict is Verdict.DOMAIN_ERROR and rep.max_violation is None
    assert rep.flags["nonneg_linear"] is False
    assert "non-finite value at sample" in rep.notes[-1]


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
    pts, found = sample_members(dom, bases, region=0)
    assert found.all() and member_mask_batch(dom, pts).all()
    other, _ = sample_members(dom, bases, region=1)
    assert not np.allclose(pts, other)
    again, _ = sample_members(dom, bases, region=0)
    np.testing.assert_array_equal(pts, again)


def test_domain_sampling_chunk_independence():
    bases = rng.base_array(17, np.arange(100, dtype=np.uint64))
    line = DomainSet(euclidean(1), ((-2.0, 3.0),))
    for sample in (lambda b: sample_members(line, b, region=2)[0],
                   lambda b: sample_product_members(_BAND, b, region=2)[0]):
        full = sample(bases)
        parts = np.concatenate([sample(bases[:37]), sample(bases[37:])])
        np.testing.assert_array_equal(full, parts)


# the first rows drawn at seed 3, region 1; a change to the rejection loop,
# the draws or the member tests that moves a bit of any row shows here
_HALF_PLANE = DomainSet(euclidean(2), ((-1.0, 1.0), (-1.0, 1.0)), parse("x1 + x2", point_vars(2)))
_BAND = ProductSet(_HALF_PLANE, parse("v - x1^2 - x2", point_vars(2) + ("v",)), (0.0, 2.0))
_GOLDEN_ROWS = {
    "box": (_HALF_PLANE, [
        ["0x1.18fe30f1419d6p-1", "-0x1.50d6b6701ff48p-3"],
        ["0x1.fd4981be3d220p-1", "-0x1.3fc24c1abd4b8p-3"],
        ["0x1.d2314f08a3a80p-2", "-0x1.845cf5f5dc320p-4"],
        ["0x1.423511e8d7c60p-4", "0x1.076099ec6cab8p-3"],
    ]),
    "cap": (DomainSet(sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3))), [
        ["-0x1.b8490aa1dd93ep-4", "0x1.42f267eca4bb9p-2", "0x1.e2be5dc1a257fp-1"],
        ["-0x1.38c4bc6e16db1p-1", "-0x1.2336c926aac38p-4", "0x1.93b9e2d32af96p-1"],
        ["-0x1.c5abf64c5beedp-2", "0x1.b9c6603b53384p-3", "0x1.bd8627c98ba28p-1"],
        ["-0x1.86956b6f147fep-1", "-0x1.94cacef6ec9bfp-4", "0x1.4726cbc8a4be8p-1"],
    ]),
    "ball": (DomainSet(poincare_ball(2), ((-0.9, 0.9), (-0.9, 0.9))), [
        ["-0x1.8e01b2ac98693p-1", "-0x1.d61ed02c8ff78p-2"],
        ["0x1.ca5bc1919d6b7p-1", "-0x1.1fc877b1aa5d8p-3"],
        ["-0x1.079fc8ca3b38bp-1", "-0x1.3f07ab9f83612p-2"],
        ["-0x1.f09418404024fp-2", "-0x1.9ff8ea6f72811p-1"],
    ]),
    "product": (_BAND, [
        ["-0x1.c9ad752d178d8p-2", "0x1.18fe30f1419d6p-1", "0x1.abca5263f802ep-1"],
        ["0x1.fd4981be3d220p-1", "-0x1.3fc24c1abd4b8p-3", "0x1.3105e96de1ff2p+0"],
        ["0x1.9d2c2049d6940p-4", "0x1.d2314f08a3a80p-2", "0x1.cf7461414479cp-1"],
        ["0x1.e3a12a83d8540p-2", "-0x1.da1218eb31620p-2", "0x1.470dc53b4db93p+0"],
    ]),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_ROWS))
def test_sampler_first_rows_golden(name):
    dom, expected = _GOLDEN_ROWS[name]
    bases = rng.base_array(3, np.arange(4, dtype=np.uint64))
    sample = sample_product_members if name == "product" else sample_members
    rows, found = sample(dom, bases, region=1)
    assert found.all()
    assert [[x.hex() for x in r] for r in rows.tolist()] == expected


def _one_attempt_per_call(bases, region, stride, draw, accept):
    """The rejection loop drawing one attempt of every active row per call,
    the reference the batched tail must equal."""
    from geoconvex.algebra import MAX_REJECTION_ROUNDS, REGION_SIZE

    rows = np.zeros((bases.shape[0], draw(bases[:1], 0).shape[1]))
    active = np.ones(bases.shape[0], dtype=bool)
    for attempt in range(MAX_REJECTION_ROUNDS):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        cand = draw(bases[idx], region * REGION_SIZE + attempt * stride)
        ok = accept(cand)
        rows[idx[ok]] = cand[ok]
        active[idx[ok]] = False
    return rows, ~active


# disks of 1 in about 2000 draws, where some rows are found in none of the
# MAX_REJECTION_ROUNDS attempts, and of 1 in 30, where one call of the
# batched tail often draws several members of a row; and 10,000 rows on a
# disk of 1 in 4, which leave more than TAIL_ROWS rows after attempt 0, so
# the tail's first rounds draw one attempt per row
@pytest.mark.parametrize("r2, some_lost, n", [
    pytest.param("0.00064", True, 40, id="0.00064-True"),
    pytest.param("0.04", False, 40, id="0.04-False"),
    pytest.param("0.3183", False, 10_000, id="0.3183-False-10000"),
])
def test_rejection_tail_keeps_each_rows_first_accepted_attempt(r2, some_lost, n):
    from functools import partial

    from geoconvex.algebra import (
        REGION_SIZE, TAIL_ROWS, _attempt_stride, _draw, _rejection_sample,
    )

    speck = DomainSet(euclidean(2), ((-1.0, 1.0), (-1.0, 1.0)),
                      parse(f"{r2} - x1^2 - x2^2", point_vars(2)))
    bases = rng.base_array(8, np.arange(n, dtype=np.uint64))
    left = np.sum(~member_mask_batch(speck, _draw(speck, bases, 4 * REGION_SIZE)))
    assert (left > TAIL_ROWS) == (n > 40)
    args = (bases, 4, _attempt_stride(speck), partial(_draw, speck),
            partial(member_mask_batch, speck))
    rows, found = _rejection_sample(*args)
    ref_rows, ref_found = _one_attempt_per_call(*args)
    assert (not found.all()) == some_lost and found.any()
    assert np.array_equal(found, ref_found)
    assert rows.tobytes() == ref_rows.tobytes()
    assert not rows[~found].any()


def test_never_accepted_row_costs_few_draw_calls():
    from geoconvex.algebra import MAX_REJECTION_ROUNDS, TAIL_ROWS, _rejection_sample

    calls, drawn = [], []

    def draw(bases, pos0):
        calls.append(1)
        drawn.extend(np.broadcast_to(pos0, bases.shape).tolist())
        return rng.unit_array(bases, pos0)[:, None]

    bases = rng.base_array(0, np.arange(3, dtype=np.uint64))
    rows, found = _rejection_sample(bases, 0, 1, draw, lambda R: np.zeros(len(R), bool))
    assert not found.any() and not rows.any()
    # every attempt of every row is drawn once, in few calls
    assert sorted(drawn) == sorted(list(range(MAX_REJECTION_ROUNDS)) * 3)
    assert len(calls) <= 2 + 3 * MAX_REJECTION_ROUNDS // TAIL_ROWS


def test_sphere_and_ball_sampling_valid():
    cap = DomainSet(
        sphere(2), ((-1.0, 1.0),) * 3, parse("x3 - 0.5", point_vars(3))
    )
    bases = rng.base_array(1, np.arange(300, dtype=np.uint64))
    pts, found = sample_members(cap, bases, region=0)
    assert found.all()
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert (pts[:, 2] > 0.5).all()
    ball = DomainSet(poincare_ball(2), ((-0.9, 0.9), (-0.9, 0.9)))
    bpts, found = sample_members(ball, bases, region=0)
    assert found.all()
    assert (np.linalg.norm(bpts, axis=1) < 1.0).all()


@pytest.mark.parametrize("axis", [(-1e308, 1e308), (1.0, 0.0), (0.0, float("inf"))])
def test_domain_rejects_unusable_box_axis(axis):
    with pytest.raises(ValueError, match="box axis"):
        DomainSet(euclidean(2), ((0.0, 1.0), axis))


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
