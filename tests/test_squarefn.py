import numpy as np
import pytest

from bivariation.averages import AvgRequest, avg_at
from bivariation.bodies import ball
from bivariation.dyadic import level_range
from bivariation.fields import Box, Field, lp_norm
from bivariation.martingale import cond_expect
from bivariation.squarefn import long_variation_check, square_function, square_piece

BALL = ball(1)


def line(values, origin=0, mesh=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return Field(Box(1, (origin,), (len(values),), mesh), values)


def test_constants_give_zero_piece_in_interior():
    # compact support means box-constants only look constant away from the
    # edges; there both terms equal the product of the constants
    f1 = line(np.full(64, 2.0))
    f2 = line(np.full(64, -1.0))
    for k in (0, 2, 4):
        p = square_piece(f1, f2, BALL, k)
        margin = (1 << k) + 1
        assert np.abs(p.samples[margin : 64 - margin]).max() < 1e-14


def test_zero_factor_gives_zero():
    rng = np.random.default_rng(0)
    f1 = line(rng.normal(size=32))
    z = line(np.zeros(32))
    assert np.all(square_piece(f1, z, BALL, 3).samples == 0.0)


def test_piece_matches_independent_evaluation():
    rng = np.random.default_rng(1)
    f1 = line(rng.normal(size=32))
    f2 = line(rng.normal(size=32))
    k = 2
    piece = square_piece(f1, f2, BALL, k)
    for x in (0, 7, 20, 31):
        direct = avg_at(AvgRequest(BALL, 2.0**k, f1, f2), [x])
        direct -= cond_expect(f1, k).samples[x] * cond_expect(f2, k).samples[x]
        assert piece.samples[x] == pytest.approx(direct, rel=1e-12, abs=1e-13)


def test_piece_is_bilinear():
    rng = np.random.default_rng(2)
    f1, g1, f2 = (line(rng.normal(size=32)) for _ in range(3))
    combo = line(f1.samples + g1.samples)
    lhs = square_piece(combo, f2, BALL, 2).samples
    rhs = square_piece(f1, f2, BALL, 2).samples + square_piece(g1, f2, BALL, 2).samples
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_aggregate_recomputation():
    rng = np.random.default_rng(3)
    f1 = line(rng.normal(size=64))
    f2 = line(rng.normal(size=64))
    sp = square_function(f1, f2, BALL)
    recomputed = np.sqrt(sum(p.samples**2 for p in sp.pieces.values()))
    assert np.abs(recomputed - sp.aggregate.samples).max() < 1e-12


def test_aggregate_constants_vanish_in_interior():
    f1 = line(np.full(64, 1.5))
    f2 = line(np.full(64, 2.0))
    sp = square_function(f1, f2, BALL, k_range=(0, 3))
    assert np.abs(sp.aggregate.samples[9:-9]).max() < 1e-13


def test_default_range_and_tail():
    rng = np.random.default_rng(4)
    f1 = line(rng.normal(size=64))
    f2 = line(rng.normal(size=64))
    assert level_range(f1.box) == (0, 7)
    sp = square_function(f1, f2, BALL)
    assert sp.k_range == (0, 7)
    assert np.isfinite(sp.tail_max)
    with pytest.raises(ValueError):
        square_function(f1, f2, BALL, (3, 2))


def test_long_variation_dominated_by_aggregate():
    rng = np.random.default_rng(5)
    for trial in range(10):
        f1 = line(rng.normal(size=64))
        f2 = line(rng.normal(size=64))
        q = float(rng.uniform(2.1, 4.0))
        assert long_variation_check(square_function(f1, f2, BALL), q)[2]


def test_empirical_l2_ratio_bounded():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        f1 = line(rng.normal(size=64))
        f2 = line(rng.normal(size=64))
        sp = square_function(f1, f2, BALL)
        den = lp_norm(f1, np.inf) * lp_norm(f2, 2.0)
        worst = max(worst, lp_norm(sp.aggregate, 2.0) / den)
    assert worst < 10.0

