import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivariation import averages
from bivariation.averages import (
    AvgRequest,
    DegenerateScale,
    TimeGrid,
    avg_at,
    avg_field,
    avg_sweep,
    dtt_avg,
    dtt_avg_field,
    dtt_avg_via_body,
    fast_slice_avg,
)
from bivariation.bodies import CustomBody, ball, cube, gamma_body, normalize, polytope_body
from bivariation.fields import Box, Field


def line(values, origin=0, mesh=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return Field(Box(1, (origin,), (len(values),), mesh), values)


def wide_box(n=33, mesh=1.0):
    return Box(1, (-(n // 2),), (n,), mesh)


BALL = ball(1)


# ---------------------------------------------------------------------------
# avg_at

def test_constants_average_to_product():
    box = wide_box()
    f1 = Field(box, np.full(33, 3.0))
    f2 = Field(box, np.full(33, 0.5))
    for mode in ("continuum_quadrature", "lattice_counting"):
        v = avg_at(AvgRequest(BALL, 3.0, f1, f2, mode), [0])
        assert v == pytest.approx(1.5, rel=1e-14)


def test_lattice_delta_pair():
    box = wide_box()
    d0 = np.zeros(33)
    d0[16] = 1.0
    f = Field(box, d0)
    assert avg_at(AvgRequest(BALL, 1.0, f, f, "lattice_counting"), [0]) == 0.2


def test_lattice_shifted_delta():
    box = wide_box()
    d0 = np.zeros(33)
    d0[16] = 1.0
    d1 = np.zeros(33)
    d1[17] = 1.0
    v = avg_at(AvgRequest(BALL, 1.0, Field(box, d1), Field(box, d0), "lattice_counting"), [0])
    assert v == 0.2


def test_bilinearity():
    box = wide_box()
    rng = np.random.default_rng(0)
    f1, g1, f2 = (Field(box, rng.normal(size=33)) for _ in range(3))
    a, b = 1.7, -0.3
    combo = Field(box, a * f1.samples + b * g1.samples)
    lhs = avg_at(AvgRequest(BALL, 2.5, combo, f2), [1])
    rhs = a * avg_at(AvgRequest(BALL, 2.5, f1, f2), [1]) + b * avg_at(
        AvgRequest(BALL, 2.5, g1, f2), [1]
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_positivity_and_sup_bound():
    box = wide_box()
    rng = np.random.default_rng(1)
    f1 = Field(box, np.abs(rng.normal(size=33)))
    f2 = Field(box, np.abs(rng.normal(size=33)))
    v = avg_at(AvgRequest(BALL, 2.0, f1, f2), [0])
    assert v >= 0.0
    assert v <= f1.samples.max() * f2.samples.max() * (1 + 1e-12)


def test_holder_type_bound():
    box = wide_box()
    rng = np.random.default_rng(2)
    f1 = Field(box, rng.normal(size=33))
    f2 = Field(box, rng.normal(size=33))
    for l in (1.2, 1.5, 1.9):
        pow1 = Field(box, np.abs(f1.samples) ** l)
        pow2 = Field(box, np.abs(f2.samples) ** l)
        lhs = abs(avg_at(AvgRequest(BALL, 2.7, f1, f2), [2]))
        rhs = avg_at(AvgRequest(BALL, 2.7, pow1, pow2), [2]) ** (1.0 / l)
        assert lhs <= rhs * (1 + 1e-12)


def test_degenerate_scale_via_hollow_predicate():
    # direct construction bypasses the certificate spot-check on purpose
    hollow = CustomBody(
        d=1, r_in=0.5, kind="custom",
        predicate=lambda y: (np.linalg.norm(y, axis=1) <= 1.0)
        & (np.linalg.norm(y, axis=1) >= 0.9),
    )
    box = wide_box()
    f = Field(box, np.ones(33))
    with pytest.raises(DegenerateScale):
        avg_at(AvgRequest(hollow, 0.5, f, f, "lattice_counting"), [0])


def test_point_cache_keeps_custom_predicate_alive():
    # a cache keyed by id(predicate) could hand a dead body's points to a new
    # body whose predicate reuses that id
    body = normalize(1, lambda y: np.abs(y).sum(axis=1) <= 3.0, 3.0 / np.sqrt(2), 3.0)
    box = wide_box()
    f = Field(box, np.ones(33))
    avg_at(AvgRequest(body, 2.5, f, f), [0])
    ref = weakref.ref(body.predicate)
    del body
    gc.collect()
    assert ref() is not None
    assert any(ref() in key[0][3] for key in averages._POINT_CACHE)


def test_request_validation():
    box = wide_box()
    f = Field(box, np.ones(33))
    g = Field(Box(1, (0,), (4,)), np.ones(4))
    with pytest.raises(ValueError):
        AvgRequest(BALL, 1.0, f, g)
    with pytest.raises(ValueError):
        AvgRequest(BALL, -1.0, f, f)
    with pytest.raises(ValueError):
        AvgRequest(BALL, 1.0, f, f, mode="fourier")


# ---------------------------------------------------------------------------
# avg_sweep

def test_sweep_constant_inputs():
    box = wide_box()
    f1 = Field(box, np.full(33, 2.0))
    f2 = Field(box, np.full(33, -1.5))
    grid = TimeGrid((0.5, 1.0, 2.0, 3.3))
    out = avg_sweep(BALL, grid, f1, f2, [0])
    assert np.allclose(out, -3.0, rtol=1e-14)


def test_sweep_bit_identical_to_pointwise():
    box = wide_box()
    rng = np.random.default_rng(3)
    f1 = Field(box, rng.normal(size=33))
    f2 = Field(box, rng.normal(size=33))
    grid = TimeGrid((0.7, 1.0, np.sqrt(2), 2.0, 2.9, 4.0))
    for mode in ("continuum_quadrature", "lattice_counting"):
        sw = avg_sweep(BALL, grid, f1, f2, [1], mode)
        for i, t in enumerate(grid.times):
            assert sw[i] == avg_at(AvgRequest(BALL, t, f1, f2, mode), [1])


def test_sweep_empty_grid():
    box = wide_box()
    f = Field(box, np.ones(33))
    assert avg_sweep(BALL, TimeGrid(()), f, f, [0]).size == 0


# ---------------------------------------------------------------------------
# fast_slice_avg

def test_fast_slice_requires_d1_lattice():
    box = wide_box()
    f = Field(box, np.ones(33))
    with pytest.raises(ValueError):
        fast_slice_avg(AvgRequest(BALL, 1.0, f, f, "continuum_quadrature"), 0)
    box2 = Box(2, (0, 0), (4, 4))
    f2 = Field(box2, np.ones(16))
    with pytest.raises(ValueError):
        fast_slice_avg(AvgRequest(ball(2), 1.0, f2, f2, "lattice_counting"), (0, 0))


def test_fast_slice_exact_on_integer_fields():
    # integer-valued samples make the float arithmetic exact on both routes
    box = wide_box()
    rng = np.random.default_rng(4)
    for trial in range(300):
        f1 = Field(box, rng.integers(-9, 10, size=33).astype(float))
        f2 = Field(box, rng.integers(-9, 10, size=33).astype(float))
        t = rng.uniform(0.5, 8.0)
        x = int(rng.integers(-10, 11))
        body = [BALL, cube(1), gamma_body(1, [[1.0, 0.4], [-0.2, 0.8]])][trial % 3]
        req = AvgRequest(body, t, f1, f2, "lattice_counting")
        assert fast_slice_avg(req, x) == avg_at(req, [x])


def test_fast_slice_close_on_float_fields():
    box = wide_box()
    rng = np.random.default_rng(5)
    for _ in range(100):
        f1 = Field(box, rng.normal(size=33))
        f2 = Field(box, rng.normal(size=33))
        t = rng.uniform(0.5, 8.0)
        req = AvgRequest(BALL, t, f1, f2, "lattice_counting")
        x = int(rng.integers(-8, 9))
        assert fast_slice_avg(req, x) == pytest.approx(avg_at(req, [x]), rel=1e-12, abs=1e-13)


def test_fast_slice_zero_second_factor():
    box = wide_box()
    f1 = Field(box, np.ones(33))
    f2 = Field(box, np.zeros(33))
    assert fast_slice_avg(AvgRequest(BALL, 2.0, f1, f2, "lattice_counting"), 0) == 0.0


def test_fast_slice_delta_reduces_to_slice_mean():
    box = wide_box()
    d0 = np.zeros(33)
    d0[16] = 1.0  # f1 = delta at 0
    rng = np.random.default_rng(6)
    f2 = Field(box, rng.normal(size=33))
    t = 3.0
    req = AvgRequest(BALL, t, Field(box, d0), f2, "lattice_counting")
    # only the k = 0 slice contributes: m in [-3, 3], total count of ball t=3
    count = sum(1 for k in range(-3, 4) for m in range(-3, 4) if k * k + m * m <= 9.0)
    expect = sum(f2.values_at(np.array([[-m]]))[0] for m in range(-3, 4)) / count
    assert fast_slice_avg(req, 0) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# avg_field

def test_avg_field_matches_avg_at_d1():
    box = wide_box()
    rng = np.random.default_rng(7)
    f1 = Field(box, rng.normal(size=33))
    f2 = Field(box, rng.normal(size=33))
    for mode in ("continuum_quadrature", "lattice_counting"):
        fld = avg_field(BALL, 2.6, f1, f2, mode)
        for x in (-16, -3, 0, 5, 16):
            assert fld.samples[x + 16] == pytest.approx(
                avg_at(AvgRequest(BALL, 2.6, f1, f2, mode), [x]), rel=1e-12, abs=1e-13
            )


def test_avg_field_matches_avg_at_d2():
    box = Box(2, (-4, -4), (9, 9))
    rng = np.random.default_rng(8)
    f1 = Field(box, rng.normal(size=81))
    f2 = Field(box, rng.normal(size=81))
    fld = avg_field(ball(2), 1.8, f1, f2)
    for x in ((-4, -4), (0, 0), (2, -1)):
        got = fld.samples[x[0] + 4, x[1] + 4]
        assert got == pytest.approx(
            avg_at(AvgRequest(ball(2), 1.8, f1, f2), x), rel=1e-12, abs=1e-13
        )


D1_BODIES = [
    BALL,
    cube(1),
    gamma_body(1, [[1.0, 0.4], [-0.2, 0.8]]),
    polytope_body(1, [[1.0, 1.0], [-1.0, -1.0], [1.0, -0.5], [-1.0, 0.5]]),
    normalize(1, lambda y: np.abs(y).sum(axis=1) <= 5.0, 5.0 / np.sqrt(2), 5.0),
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(D1_BODIES) - 1),
    st.integers(-40, 10),
    st.integers(1, 40),
    st.sampled_from([0.25, 0.37, 2.0]),
    st.one_of(st.floats(0.3, 9.0), st.integers(1, 8).map(float)),
    st.integers(0, 2**32 - 1),
)
def test_sliced_kernel_matches_pointwise(which, origin, n, mesh, t, seed):
    body = D1_BODIES[which]
    box = Box(1, (origin,), (n,), mesh)
    rng = np.random.default_rng(seed)
    f1 = Field(box, rng.normal(size=n))
    f2 = Field(box, rng.normal(size=n))
    g1 = Field(box, rng.integers(-9, 10, size=n).astype(float))
    g2 = Field(box, rng.integers(-9, 10, size=n).astype(float))
    for mode in ("continuum_quadrature", "lattice_counting"):
        fld = avg_field(body, t, f1, f2, mode)
        for i, x in enumerate(box.lattice_axes()[0]):
            assert fld.samples[i] == pytest.approx(
                avg_at(AvgRequest(body, t, f1, f2, mode), [x]), rel=1e-12, abs=1e-13
            )
    req = AvgRequest(body, t, g1, g2, "lattice_counting")
    for x in range(origin - 3, origin + n + 3):
        assert fast_slice_avg(req, x) == avg_at(req, [x])


# ---------------------------------------------------------------------------
# linear-change-of-variables route

def test_dtt_identity_decouples():
    box = wide_box(65)
    rng = np.random.default_rng(9)
    f1 = Field(box, rng.normal(size=65))
    f2 = Field(box, rng.normal(size=65))
    t = 4.0
    v = dtt_avg(np.eye(2), t, f1, f2, [0])
    j = np.arange(-4, 5)
    j = j[np.abs(j) < t]
    m1 = np.mean(f1.values_at(j.reshape(-1, 1)))
    m2 = np.mean(f2.values_at(j.reshape(-1, 1)))
    assert v == pytest.approx(m1 * m2, rel=1e-12)


def test_dtt_constants():
    box = wide_box(65)
    f1 = Field(box, np.full(65, 2.0))
    f2 = Field(box, np.full(65, 3.0))
    assert dtt_avg([[1.0, 0.5], [-0.25, 1.0]], 3.0, f1, f2, [0]) == pytest.approx(6.0, rel=1e-12)


def test_dtt_rejects_singular():
    box = wide_box()
    f = Field(box, np.ones(33))
    with pytest.raises(ValueError):
        dtt_avg([[1.0, 2.0], [2.0, 4.0]], 1.0, f, f, [0])


def test_dtt_field_rejects_nonpositive_t():
    box = wide_box()
    f = Field(box, np.ones(33))
    lam = np.array([[0.9, 0.3], [-0.2, 1.1]])
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="t must be positive"):
            dtt_avg_field(lam, t, f, f)


def test_dtt_field_matches_pointwise():
    box = wide_box(65)
    rng = np.random.default_rng(10)
    f1 = Field(box, rng.normal(size=65))
    f2 = Field(box, rng.normal(size=65))
    lam = np.array([[0.9, 0.3], [-0.2, 1.1]])
    fld = dtt_avg_field(lam, 2.5, f1, f2)
    for x in (-10, 0, 7):
        assert fld.samples[x + 32] == pytest.approx(
            dtt_avg(lam, 2.5, f1, f2, [x]), rel=1e-12, abs=1e-13
        )


def test_dtt_routes_agree_under_refinement():
    lam = np.array([[1.0, 0.3], [-0.4, 0.8]])
    W = 24.0
    errs = []
    for grid in (48, 96, 192):
        h = W / grid
        box = Box(1, (-grid,), (2 * grid,), h)
        xs = np.arange(-grid, grid) * h
        f1 = Field(box, np.sin(2 * np.pi * xs / W) + 0.5 * np.cos(2 * np.pi * 3 * xs / W))
        f2 = Field(box, np.cos(2 * np.pi * xs / W + 0.7))
        a = dtt_avg(lam, 3.0, f1, f2, [1])
        b = dtt_avg_via_body(lam, 3.0, f1, f2, [1])
        errs.append(abs(a - b))
    assert errs[0] > 1e-6  # a genuine discrepancy to shrink
    assert errs[2] < errs[0]


# ---------------------------------------------------------------------------
# TimeGrid

def test_time_grid_anchors():
    g = TimeGrid((0.25, 0.3, 0.5, 1.0, 3.0, 4.0))
    assert g.dyadic_anchors == (0, 2, 3, 5)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid((1.0, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((-1.0, 2.0))


def test_block_of_is_exact():
    assert TimeGrid.block_of(2.0) == 0   # 2 in (1, 2]
    assert TimeGrid.block_of(2.0000001) == 1
    assert TimeGrid.block_of(1.0) == -1
    assert TimeGrid.block_of(0.75) == -1
    assert TimeGrid.block_of(8.0) == 2


def test_dyadic_spanning_contains_anchors():
    rng = np.random.default_rng(11)
    g = TimeGrid.dyadic_spanning(-2, 5, per_block=2, rng=rng)
    anchor_times = {g.times[i] for i in g.dyadic_anchors}
    assert {2.0**k for k in range(-2, 6)} <= anchor_times
