import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivariation import variation
from bivariation.averages import TimeGrid
from bivariation.variation import (
    Q_MAX,
    long_variation,
    product_rule_check,
    short_variation,
    sup_vs_variation_check,
    vq_exact,
    vq_value_batch,
)


def brute_force_vq(a, q):
    """Independent oracle: enumerate every increasing subsequence and
    accumulate left to right.  The elementary power table is computed once
    (vectorized and scalar float powers can differ in the last ulp, which
    would mask genuine search errors behind libm noise)."""
    from itertools import combinations

    a = np.asarray(a, dtype=np.float64)
    pw = np.abs(a[None, :] - a[:, None]) ** q
    m = len(a)
    best = 0.0
    for r in range(2, m + 1):
        for idx in combinations(range(m), r):
            acc = 0.0
            for u, v in zip(idx, idx[1:]):
                acc += pw[u, v]
            best = max(best, acc)
    return best ** (1.0 / q)


def scalar_dp_oracle(a, q):
    """Oracle: the scalar DP that ``vq_exact`` ran before the row kernel,
    returning (value, witness)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    m = a.size
    if m < 2:
        return 0.0, (0,) if m else ()
    diffs = np.abs(a[None, :] - a[:, None])
    top = float(diffs.max())
    if top == 0.0:
        return 0.0, (0,)
    scale = 1.0 if 1e-18 < top < 1e18 else top
    pw = (diffs / scale) ** q if scale != 1.0 else diffs**q
    best = np.zeros(m)
    prev = np.full(m, -1, dtype=np.int64)
    for j in range(1, m):
        cand = best[:j] + pw[:j, j]
        i = int(np.argmax(cand))  # argmax takes the earliest maximizer
        if cand[i] > best[j]:
            best[j] = cand[i]
            prev[j] = i
    end = int(np.argmax(best))
    value = scale * float(best[end]) ** (1.0 / q)
    path = []
    while end >= 0:
        path.append(end)
        end = int(prev[end])
    return value, tuple(reversed(path))


ROW_KINDS = ("normal", "plateau", "tiny", "huge")


def draw_row(kind, m, rng):
    """Normal rows, integer plateaus (many tied candidates) and rows at 1e-20
    and 1e20 scale (outside the rescale band)."""
    if kind == "plateau":
        return rng.integers(-2, 3, size=m).astype(np.float64)
    return rng.normal(size=m) * {"normal": 1.0, "tiny": 1e-20, "huge": 1e20}[kind]


@st.composite
def rows(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw_row(draw(st.sampled_from(ROW_KINDS)), draw(st.integers(0, 13)), rng)


# ---------------------------------------------------------------------------
# vq_exact

def test_constant_sequence():
    out = vq_exact([2.0, 2.0, 2.0, 2.0], 2.0)
    assert out.value == 0.0


def test_alternating_sequence():
    out = vq_exact([0, 1, 0, 1, 0, 1], 2.0)
    assert out.value == pytest.approx(np.sqrt(5.0), rel=1e-14)
    assert out.witness == (0, 1, 2, 3, 4, 5)


def test_skipping_beats_adjacent():
    out = vq_exact([0.0, 1.0, 2.0], 2.0)
    assert out.value == 2.0
    assert out.witness == (0, 2)


def test_short_sequences():
    assert vq_exact([], 2.0).value == 0.0
    assert vq_exact([5.0], 2.0).value == 0.0
    assert vq_exact([5.0], 2.0).witness == (0,)


def test_q_domain():
    with pytest.raises(ValueError):
        vq_exact([0.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        vq_exact([0.0, 1.0], 17.0)


def test_witness_reproduces_value():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.normal(size=rng.integers(2, 20))
        q = rng.uniform(1.5, 6.0)
        out = vq_exact(a, q)
        recomputed = sum(
            abs(a[j] - a[i]) ** q for i, j in zip(out.witness, out.witness[1:])
        )
        assert recomputed == pytest.approx(out.value**q, rel=1e-12, abs=1e-300)


def test_matches_brute_force_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(120):
        m = int(rng.integers(2, 10))
        a = rng.normal(size=m)
        q = float(rng.uniform(1.5, 5.0))
        assert vq_exact(a, q).value == brute_force_vq(a, q)


def test_large_q_rescaling_stays_finite():
    a = np.array([0.0, 1e-30, 0.0, 2e-30])
    out = vq_exact(a, 16.0)
    assert np.isfinite(out.value) and out.value > 0


def test_monotone_in_q():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.normal(size=12)
        vals = [vq_exact(a, q).value for q in (2.0, 2.5, 3.0, 4.0)]
        assert all(v2 <= v1 * (1 + 1e-12) for v1, v2 in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=10),
    st.lists(st.floats(-5, 5), min_size=2, max_size=10),
    st.floats(2.0, 6.0),
)
def test_subadditivity(a, b, q):
    n = min(len(a), len(b))
    a, b = np.asarray(a[:n]), np.asarray(b[:n])
    lhs = vq_exact(a + b, q).value
    rhs = vq_exact(a, q).value + vq_exact(b, q).value
    assert lhs <= rhs + 1e-9


@settings(max_examples=400, deadline=None)
@given(rows(), st.floats(1.0, Q_MAX, exclude_min=True))
def test_matches_scalar_dp_oracle(a, q):
    out = vq_exact(a, q)
    value, witness = scalar_dp_oracle(a, q)
    assert out.value.hex() == value.hex()
    assert out.witness == witness


@pytest.mark.parametrize("a", [[0.0, np.inf, 1.0], [np.nan], [2.0, -np.inf], [-1e308, 1e308]])
def test_non_finite_input_raises(a):
    # the last row is finite, but its difference overflows
    with pytest.raises(ValueError, match="finite"):
        vq_exact(a, 3.0)
    with pytest.raises(ValueError, match="finite"):
        vq_value_batch(np.stack([np.zeros(len(a)), a]), 3.0)
    with pytest.raises(ValueError, match="finite"):  # padded to the widest block
        variation._vq_blocks([np.zeros((2, 5)), np.array([a]), np.zeros((1, 0))], 3.0)


# the padding's rows: besides ROW_KINDS, near-ties of tiny steps (many
# chains within an ulp of each other at q = 16) and rows whose largest
# difference sits at an edge of the rescale band
PAD_KINDS = ROW_KINDS + ("steps", "band")
BAND_EDGES = [np.nextafter(e, e * s) for e in (1e-18, 1e18) for s in (0.5, 2.0)] + [1e-18, 1e18]


def draw_pad_row(kind, m, rng):
    if kind == "steps":
        steps = rng.choice([-1.0, 0.0, 1.0], size=m) + rng.choice([0.0, 2.0**-12], size=m)
        return 1.0 + np.cumsum(steps) * 2.0**-40
    if kind == "band":
        row = rng.normal(size=m)
        top = row.max(initial=0.0) - row.min(initial=0.0)
        return row / top * rng.choice(BAND_EDGES) if top > 0 else row
    return draw_row(kind, m, rng)


@st.composite
def ragged_blocks(draw):
    """0-5 blocks of 0-4 rows each, of widths 0-40, every row of its own kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        m = draw(st.sampled_from([0, 1, 2, 3, 40]) | st.integers(0, 40))
        kinds = draw(st.lists(st.sampled_from(PAD_KINDS), max_size=4))
        blocks.append(np.array([draw_pad_row(k, m, rng) for k in kinds]).reshape(len(kinds), m))
    return blocks


@settings(max_examples=300, deadline=None)
@given(ragged_blocks(), st.sampled_from([1.5, 2.5, 3.0, Q_MAX]) | st.floats(1.0, Q_MAX, exclude_min=True))
def test_padded_blocks_keep_every_bit(blocks, q):
    got = variation._vq_blocks(blocks, q)
    want = np.concatenate([vq_value_batch(b, q) for b in blocks] + [np.empty(0)])
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    at = 0
    for b in blocks:
        for row in b[:2]:  # a few rows against the other routes
            assert got[at].hex() == vq_exact(row, q).value.hex()
            if 2 <= row.size <= 8 and q <= 5.0 and 1e-18 < np.ptp(row) < 1e18:
                assert got[at] == brute_force_vq(row, q)
            at += 1
        at += max(len(b) - 2, 0)


def test_multi_sequence_checks_batch_their_rows(monkeypatch):
    calls = []
    kernel = variation._vq_rows

    def counted(seqs, q, **kw):
        calls.append(seqs.shape)
        return kernel(seqs, q, **kw)

    monkeypatch.setattr(variation, "_vq_rows", counted)
    rng = np.random.default_rng(7)
    product_rule_check(rng.normal(size=5), rng.normal(size=5), 3.0)
    assert calls == [(3, 5)]
    calls.clear()
    # blocks (0.5, 1], (1, 2], (2, 4], (4, 8] of lengths 1, 2, 2, 3, padded to 3
    grid = TimeGrid((0.75, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0))
    a = rng.normal(size=len(grid))
    sv = short_variation(grid, a, 2.5)
    assert calls == [(4, 3)]
    total = 0.0  # the per-block loop, in block order
    for idx in ([0], [1, 2], [3, 4], [5, 6, 7]):
        total += vq_exact(a[idx], 2.5).value ** 2.5
    assert sv == total ** (1.0 / 2.5)


def test_batch_matches_scalar():
    rng = np.random.default_rng(3)
    for q in (1.05, 2.0, 3.0, 7.5, Q_MAX):
        for m in (0, 1, 2, 9, 13):
            # every row kind in one batch, so the magnitudes are mixed
            seqs = np.stack([draw_row(kind, m, rng) for kind in ROW_KINDS for _ in range(10)])
            batch = vq_value_batch(seqs, q)
            assert batch.shape == (len(seqs),)
            for row, v in zip(seqs, batch):
                assert v.hex() == vq_exact(row, q).value.hex()


def test_dp_memory_is_linear_in_the_batch():
    # the DP forms one column of the pairwise power table at a time: the whole
    # (N, m, m) table of a (1024, 200) batch would take 320 MiB
    seqs = np.random.default_rng(4).normal(size=(1024, 200))
    tracemalloc.start()
    try:
        vq_value_batch(seqs, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# long / short variation

def test_long_variation_examples():
    g = TimeGrid((1.0, 2.0, 4.0))
    assert long_variation(g, [0.0, 1.0, 0.0], 2.0) == pytest.approx(np.sqrt(2.0))
    # anchors carry the whole grid
    assert long_variation(g, [0.0, 1.0, 0.0], 2.0) == vq_exact([0.0, 1.0, 0.0], 2.0).value


def test_long_variation_no_anchors_warns():
    g = TimeGrid((1.1, 2.3))
    with pytest.warns(UserWarning):
        assert long_variation(g, [5.0, 9.0], 2.0) == 0.0


@pytest.mark.parametrize("q", [0.5, np.nan, 100.0])
def test_variations_reject_bad_q_on_a_grid_without_anchors(q):
    # long_variation returned 0.0 here, before it looked at q
    g = TimeGrid((1.5, 3.0, 5.0))
    for route in (long_variation, short_variation):
        with pytest.raises(ValueError, match="q must lie"):
            route(g, [0.0, 1.0, 0.0], q)


def test_short_variation_pure_dyadic():
    g = TimeGrid((1.0, 2.0, 4.0, 8.0))
    assert short_variation(g, [3.0, 1.0, 4.0, 1.0], 2.0) == 0.0


def test_short_variation_single_block():
    g = TimeGrid((2.5, 4.0))  # both in (2, 4]
    assert short_variation(g, [0.0, 1.0], 2.0) == 1.0


def test_short_variation_two_blocks():
    g = TimeGrid((1.5, 2.0, 3.0, 4.0))  # blocks (1,2] and (2,4]
    assert short_variation(g, [0.0, 1.0, 0.0, 2.0], 2.0) == pytest.approx(np.sqrt(5.0))


def test_split_domination_random():
    rng = np.random.default_rng(4)
    for trial in range(200):
        sub = np.random.default_rng((5, trial))
        grid = TimeGrid.dyadic_spanning(-1, 4, per_block=2, rng=sub)
        a = sub.normal(size=len(grid))
        q = float(sub.uniform(2.1, 5.0))
        full = vq_exact(a, q).value
        lv = long_variation(grid, a, q)
        sv = short_variation(grid, a, q)
        assert full <= lv + 2.0 * sv + 1e-10 * (1.0 + lv + sv)


# ---------------------------------------------------------------------------
# elementary inequalities

def test_product_rule_constant_factor():
    a = np.array([0.0, 1.0, 0.5, 2.0])
    b = np.full(4, 3.0)
    rep = product_rule_check(a, b, 2.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(3.0 * vq_exact(a, 2.0).value, rel=1e-14)


def test_product_rule_simple_case():
    rep = product_rule_check([0.0, 1.0], [0.0, 1.0], 2.0)
    assert rep.lhs == 1.0 and rep.rhs == 2.0 and rep.holds


def test_product_rule_random_signs():
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = int(rng.integers(2, 16))
        a = rng.choice([-1.0, 1.0], size=m)
        b = rng.choice([-1.0, 1.0], size=m)
        assert product_rule_check(a, b, 3.0).holds


def test_product_rule_length_mismatch():
    with pytest.raises(ValueError):
        product_rule_check([1.0], [1.0, 2.0], 2.0)


def test_sup_vs_variation_examples():
    rep = sup_vs_variation_check([3.0, 3.0, 3.0], 2.0, t0=1)
    assert rep.holds and rep.lhs == 3.0 and rep.rhs == 3.0
    rep2 = sup_vs_variation_check([0.0, 5.0], 2.0, t0=0)
    assert rep2.holds and rep2.lhs == 5.0 and rep2.rhs == 10.0


def test_sup_vs_variation_random():
    rng = np.random.default_rng(6)
    for _ in range(500):
        m = int(rng.integers(1, 20))
        a = rng.normal(size=m)
        assert sup_vs_variation_check(a, 2.5, t0=int(rng.integers(0, m))).holds
