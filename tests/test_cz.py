import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bivariation import cz
from bivariation.cz import (
    MAX_ROOT_CELLS,
    CZCertificate,
    CZOutput,
    _certify_rows,
    _decompose_rows,
    cz_certify,
    cz_decompose,
    format_cz_report,
)
from bivariation.dyadic import (
    DyadicCube,
    covering_level,
    cube_cell_values,
    cube_slices,
    orthant_regions,
)
from bivariation.fields import Box, Field, lp_norm


def line(values, origin=0, mesh=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return Field(Box(1, (origin,), (len(values),), mesh), values)


def test_below_threshold_selects_nothing():
    f = line([0.1, -0.05, 0.02, 0.0, 0.0, 0.0, 0.0, 0.1])
    out = cz_decompose(f, 1.0, 10.0, 1.0)
    assert out.bad_pieces == ()
    assert np.array_equal(out.good.embed(out.good.box).samples[:8], f.samples)
    assert cz_certify(out, f).all_pass


def test_hand_stopping_time():
    f = line([0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    out = cz_decompose(f, 1.0, 1.0, 1.0)
    cubes = [(c.level, c.corner()) for c, _ in out.bad_pieces]
    # averages: level 0 cell = 4, level 1 pair = 2, level 2 quad = 1 (not > 1)
    assert cubes == [(1, (2,))]
    piece = out.bad_pieces[0][1]
    assert np.sum(piece.samples) == pytest.approx(0.0, abs=1e-14)
    assert cz_certify(out, f).all_pass


def test_selected_cubes_are_maximal():
    rng = np.random.default_rng(0)
    f = line(rng.normal(size=64) ** 3)
    out = cz_decompose(f, 1.0, 0.3, 1.0)
    assert out.bad_pieces
    fr = f.embed(out.good.box)
    for cube, _ in out.bad_pieces:
        assert _oracle_lp_avg_pow(fr, cube, 1.0) > 0.3
        assert _oracle_lp_avg_pow(fr, cube.parent(), 1.0) <= 0.3


def test_good_part_structure():
    rng = np.random.default_rng(1)
    f = line(rng.normal(size=32))
    out = cz_decompose(f, 1.0, 0.5, 1.0)
    fr = f.embed(out.good.box)
    covered = np.zeros(out.good.box.extent, dtype=bool)
    for cube, _ in out.bad_pieces:
        vals = cube_cell_values(fr, cube)
        mean = np.sum(vals) / cube.side_cells
        a = cube.corner()[0] - out.good.box.origin[0]
        sl = slice(max(a, 0), min(a + cube.side_cells, out.good.box.extent[0]))
        covered[sl] = True
        assert np.allclose(out.good.samples[sl], mean, rtol=0, atol=1e-12)
    assert np.array_equal(out.good.samples[~covered], fr.samples[~covered])


def test_mass_bound_is_sharp_constant_one():
    rng = np.random.default_rng(2)
    f = line(rng.normal(size=64))
    alpha = 0.4
    out = cz_decompose(f, 1.0, alpha, 1.0)
    total = sum(c.volume(1.0, 1) for c, _ in out.bad_pieces)
    assert total <= (alpha**-1.0) * lp_norm(f, 1.0)


def test_reconstruction_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = line(rng.normal(size=64), origin=int(rng.integers(-16, 16)))
        out = cz_decompose(f, 1.5, float(rng.uniform(0.2, 1.5)), 1.0)
        fr = f.embed(out.good.box)
        recon = out.good.samples + out.bad.samples
        assert np.abs(recon - fr.samples).max() < 1e-12 * max(1.0, np.abs(f.samples).max())


def test_certificates_on_random_fields():
    rng = np.random.default_rng(4)
    for trial in range(60):
        raw = rng.normal(size=64) * rng.choice([0.2, 1.0, 5.0], size=64)
        f = line(raw)
        for p_i in (1.0, 1.5, 2.0):
            alpha = float(rng.uniform(0.1, 2.0))
            out = cz_decompose(f, p_i, alpha, 1.0)
            cert = cz_certify(out, f)
            assert cert.all_pass, (trial, p_i, cert.checks, cert.margins)


def test_domain_validation():
    f = line([1.0, 2.0])
    with pytest.raises(ValueError):
        cz_decompose(f, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(f, np.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(f, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(line(np.zeros(4)), 1.0, 1.0, 1.0)
    for p in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="p must lie"):
            cz_decompose(f, 1.0, 2.0, p)


def test_flagged_when_root_would_explode():
    f = line(np.full(64, 1.0e9))
    out = cz_decompose(f, 1.0, 1e-9, 1.0)
    assert out.flagged
    assert len(out.bad_pieces) == 1


def test_report_format():
    f = line([0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    out = cz_decompose(f, 1.0, 1.0, 1.0)
    text = format_cz_report(out, cz_certify(out, f))
    assert "selected cubes: 1" in text
    assert "pass" in text


# ---------------------------------------------------------------------------
# The cube-by-cube stopping time and the four-pass certifier, kept as oracles
# of the level-wise descent and the one-pass certifier.

def _oracle_lp_avg_pow(f, cube, p_i):
    vals = cube_cell_values(f, cube)
    if vals.size == 0:
        return 0.0
    total = float(np.sum(np.abs(vals) ** p_i)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def _oracle_mean(f, cube):
    vals = cube_cell_values(f, cube)
    total = float(np.sum(vals)) * f.box.cell_volume
    return total / cube.volume(f.box.mesh, f.box.dim)


def _oracle_decompose(f, p_i, alpha, p):
    bounds = f.support_bounds()
    threshold_pow = float(alpha ** p)
    roots = []
    flagged = False
    for lo, hi in orthant_regions(*bounds):
        level = covering_level(lo, hi)
        root = DyadicCube(level, tuple(int(v) >> level for v in lo))
        while _oracle_lp_avg_pow(f, root, p_i) > threshold_pow:
            root = root.parent()
            if root.side_cells ** f.box.dim > MAX_ROOT_CELLS:
                flagged = True
                break
        roots.append(root)
    root_level = max(r.level for r in roots)
    out_lo = list(f.box.origin)
    out_hi = [o + e for o, e in zip(f.box.origin, f.box.extent)]
    for root in roots:
        for a in range(f.box.dim):
            out_lo[a] = min(out_lo[a], root.corner()[a])
            out_hi[a] = max(out_hi[a], root.corner()[a] + root.side_cells)
    root_box = Box(
        f.box.dim, tuple(out_lo), tuple(h - l for l, h in zip(out_lo, out_hi)), f.box.mesh
    )
    fr = f.embed(root_box)
    selected = list(roots) if flagged else []
    stack = [] if flagged else list(roots)
    while stack:
        cube = stack.pop()
        if cube.level == 0:
            continue
        for offset in np.ndindex(*([2] * f.box.dim)):
            child = DyadicCube(
                cube.level - 1, tuple((c << 1) + o for c, o in zip(cube.coords, offset))
            )
            avg = _oracle_lp_avg_pow(fr, child, p_i)
            if avg > threshold_pow:
                selected.append(child)
            elif avg > 0.0:
                stack.append(child)
    pieces = []
    good = fr.samples.copy()
    for cube in sorted(selected, key=lambda c: (c.level, c.coords)):
        mean = _oracle_mean(fr, cube)
        piece = np.zeros(root_box.extent)
        sl = cube_slices(fr.box, cube)
        piece[sl] = fr.samples[sl] - mean
        good[sl] = mean
        pieces.append((cube, Field(root_box, piece)))
    return CZOutput(Field(root_box, good), tuple(pieces), p_i, alpha, p, root_level, flagged)


def _oracle_certify(out, f):
    f = f.embed(out.good.box)
    d = f.box.dim
    p_i, alpha, p = out.p_i, out.alpha, out.p
    height = float(alpha ** (p / p_i))
    tol = 1e-12 * max(1.0, float(np.abs(f.samples).max()))
    checks, margins = {}, {}

    recon = out.good.samples + out.bad.samples
    checks["i_reconstruction"] = bool(np.abs(recon - f.samples).max() <= tol)
    margins["i_reconstruction"] = float(np.abs(recon - f.samples).max())

    interiors_disjoint = True
    seen = np.zeros(f.box.extent, dtype=bool)
    for cube, _ in out.bad_pieces:
        sl = cube_slices(f.box, cube)
        if np.any(seen[sl]):
            interiors_disjoint = False
        seen[sl] = True
    checks["ii_disjoint_cubes"] = interiors_disjoint
    margins["ii_disjoint_cubes"] = 0.0

    supp_ok, mean_ok, mean_worst = True, True, 0.0
    for cube, piece in out.bad_pieces:
        sl = cube_slices(f.box, cube)
        outside = piece.samples.copy()
        outside[sl] = 0.0
        if np.any(outside != 0.0):
            supp_ok = False
        m = abs(float(np.sum(piece.samples)) * f.box.cell_volume)
        mean_worst = max(mean_worst, m)
        if m > 1e-12 * max(1.0, lp_norm(f, 1.0)):
            mean_ok = False
    checks["iii_support"] = supp_ok
    margins["iii_support"] = 0.0
    checks["iv_mean_zero"] = mean_ok
    margins["iv_mean_zero"] = mean_worst

    c5 = 2.0 ** (d + p_i)
    ok5, worst5 = True, 0.0
    for cube, piece in out.bad_pieces:
        lhs = lp_norm(piece, p_i) ** p_i
        rhs = c5 * (alpha**p) * cube.volume(f.box.mesh, d)
        worst5 = max(worst5, lhs / rhs if rhs else np.inf)
        if lhs > rhs * (1 + 1e-12):
            ok5 = False
    checks["v_piece_size"] = ok5
    margins["v_piece_size"] = worst5

    total_q = sum(c.volume(f.box.mesh, d) for c, _ in out.bad_pieces)
    rhs6 = (alpha**-p) * lp_norm(f, p_i) ** p_i
    checks["vi_cube_mass"] = total_q <= rhs6 * (1 + 1e-12)
    margins["vi_cube_mass"] = total_q / rhs6 if rhs6 else 0.0

    lhs7 = lp_norm(out.bad, p_i)
    rhs7 = 2.0 ** ((d + p_i) / p_i) * lp_norm(f, p_i)
    checks["vii_bad_total"] = lhs7 <= rhs7 * (1 + 1e-12)
    margins["vii_bad_total"] = lhs7 / rhs7 if rhs7 else 0.0

    lhs8a = lp_norm(out.good, p_i)
    rhs8a = lp_norm(f, p_i)
    lhs8b = lp_norm(out.good, np.inf)
    rhs8b = 2.0 ** (d / p_i) * height
    ok8 = lhs8a <= rhs8a * (1 + 1e-12) and lhs8b <= rhs8b * (1 + 1e-12)
    checks["viii_good_bounds"] = ok8
    margins["viii_good_bounds"] = max(
        lhs8a / rhs8a if rhs8a else 0.0, lhs8b / rhs8b if rhs8b else 0.0
    )

    maximal = True
    for cube, _ in out.bad_pieces:
        if cube.level >= out.root_level:
            continue
        if _oracle_lp_avg_pow(f, cube.parent(), p_i) > alpha**p:
            maximal = False
    checks["maximality"] = maximal or out.flagged
    margins["maximality"] = 0.0
    return CZCertificate(checks=checks, margins=margins)


def _cube_box(cube, like):
    return Box(like.dim, cube.corner(), (cube.side_cells,) * like.dim, like.mesh)


def _on_root_box(out):
    """``out`` with each piece on the root box, as the oracles store them."""
    return replace(out, bad_pieces=tuple((c, piece.embed(out.good.box))
                                         for c, piece in out.bad_pieces))


def _assert_same_output(new, old):
    """``new`` holds each piece on its cube's box, ``old`` on the root box."""
    assert new.good.box == old.good.box
    assert new.good.samples.tobytes() == old.good.samples.tobytes()
    assert [c for c, _ in new.bad_pieces] == [c for c, _ in old.bad_pieces]
    for cube, piece in new.bad_pieces:
        assert piece.box == _cube_box(cube, new.good.box)
    for (_, a), (_, b) in zip(_on_root_box(new).bad_pieces, old.bad_pieces):
        assert a.samples.tobytes() == b.samples.tobytes()
    assert new.bad.samples.tobytes() == old.bad.samples.tobytes()
    assert (new.flagged, new.root_level) == (old.flagged, old.root_level)


def _normal_case(origin, shape, mesh, p_i, p, depth, u=1.0, density=1.0, seed=0):
    """(field, p_i, alpha, p) on a normal-valued field, zeroed off a random
    ``density`` share of its cells.  The threshold alpha^p is ``u`` times
    the p_i-mass spread over a cube of side 2^depth, which lifts the root
    from the support's covering level to about level ``depth``."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * (rng.random(shape) < density)
    threshold = float(np.sum(np.abs(values) ** p_i)) * 2.0 ** (-len(shape) * depth) * u
    return Field(Box(len(shape), origin, shape, mesh), values), p_i, threshold ** (1.0 / p), p


@st.composite
def cz_cases(draw):
    """Indicator and spike fields sum exactly in any order, so they would
    hide a change of summation order: draw normal values."""
    d = draw(st.sampled_from([1, 2]))
    case = _normal_case(
        origin=tuple(draw(st.integers(-40, 20)) for _ in range(d)),
        shape=tuple(draw(st.integers(1, 40 if d == 1 else 9)) for _ in range(d)),
        mesh=draw(st.sampled_from([0.25, 0.37, 2.0])),
        p_i=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        p=draw(st.sampled_from([0.5, 1.0, 2.0])),
        depth=draw(st.integers(0, 14 if d == 1 else 7)),
        u=draw(st.floats(0.5, 2.0)),
        density=draw(st.floats(0.2, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    assume(np.any(case[0].samples))
    return case


@settings(max_examples=100, deadline=None)
@given(cz_cases())
# a flagged root: no sub-threshold cube is representable
@example((line(np.full(64, 1.0e9)), 1.0, 1e-9, 1.0))
# a d = 2 root at level 10 over one level-9 piece of 2^18 cells: summing its
# strided 2-D cube slice instead of the ravel changes the mean's last bit
@example(_normal_case((0, 0), (64, 48), 0.37, 1.0, 1.0, depth=10, seed=1))
def test_level_descent_matches_recursive_oracle(case):
    f, p_i, alpha, p = case
    out = cz_decompose(f, p_i, alpha, p)
    _assert_same_output(out, _oracle_decompose(f, p_i, alpha, p))
    # the certifier sums each piece as if stored on the root box: normal
    # values show any other summation order in the margins' last bits
    cert, oracle = cz_certify(out, f), _oracle_certify(_on_root_box(out), f)
    assert list(cert.checks.items()) == list(oracle.checks.items())
    assert list(cert.margins.items()) == list(oracle.margins.items())


def _forgeries():
    f = line([3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.5, 1.5])
    out = cz_decompose(f, 1.0, 1.9, 1.0)
    (cube, piece), rest = out.bad_pieces[0], out.bad_pieces[1:]
    assert [c.corner() for c, _ in out.bad_pieces] == [(0,), (6,)]
    # a piece may sit on any box inside the root box: this one leaks past its cube
    leaked = piece.embed(out.good.box).samples.copy()
    leaked[3] = 1e-3
    children = [DyadicCube(cube.level - 1, (2 * cube.coords[0] + o,)) for o in (0, 1)]
    return f, out, {
        "duplicated": (out.bad_pieces + out.bad_pieces[:1],
                       {"i_reconstruction", "ii_disjoint_cubes", "vi_cube_mass"}),
        "leaked": (((cube, Field(out.good.box, leaked)),) + rest,
                   {"i_reconstruction", "iii_support", "iv_mean_zero"}),
        "scaled": (((cube, Field(piece.box, 1e3 * piece.samples)),) + rest,
                   {"i_reconstruction", "v_piece_size", "vii_bad_total"}),
        "split": (tuple((c, piece) for c in children) + rest,
                  {"i_reconstruction", "iii_support", "maximality"}),
    }


FORGERIES = ["duplicated", "leaked", "scaled", "split"]


@pytest.mark.parametrize("kind", FORGERIES)
def test_forged_certificates_fail_their_checks(kind):
    f, out, forged = _forgeries()
    assert cz_certify(out, f).all_pass
    pieces, failing = forged[kind]
    bad_out = replace(out, bad_pieces=pieces)
    cert, oracle = cz_certify(bad_out, f), _oracle_certify(_on_root_box(bad_out), f)
    assert {name for name, ok in cert.checks.items() if not ok} == failing
    assert list(cert.checks.items()) == list(oracle.checks.items())
    assert list(cert.margins.items()) == list(oracle.margins.items())
    # certified in one call with an honest row and the other forgeries
    outs = [out] + [replace(out, bad_pieces=forged[k][0]) for k in FORGERIES]
    certs = _certify_rows(outs, [f] * len(outs))
    assert certs[0].all_pass
    assert certs[1 + FORGERIES.index(kind)] == cert


def _margin_reprs(cert):
    return [(name, repr(m)) for name, m in cert.margins.items()]  # nan-aware, bit for bit


@pytest.mark.parametrize("u", [0.3, 3.0])
@pytest.mark.parametrize("d", [1, 2])
def test_certify_takes_max_norms_at_p_i_inf(d, u):
    # cz_decompose rejects p_i = inf, but cz_certify takes a hand-built
    # output with it: its L^inf norms are max |x|, as lp_norm takes them
    origin, shape = ((-3,), (20,)) if d == 1 else ((-2, 1), (5, 4))
    f, p_i, alpha, _ = _normal_case(origin, shape, 0.5, 2.0, 1.0, depth=3, u=u)
    honest = cz_decompose(f, p_i, alpha, 1.0)
    out = replace(honest, p_i=np.inf)
    cert, oracle = cz_certify(out, f), _oracle_certify(_on_root_box(out), f)
    assert list(cert.checks.items()) == list(oracle.checks.items())
    assert _margin_reprs(cert) == _margin_reprs(oracle)
    height = 1.0  # alpha^(p/inf)
    worst = float(np.abs(out.good.samples).max())
    assert cert.margins["viii_good_bounds"] == max(worst / float(np.abs(f.samples).max()),
                                                   worst / (2.0 ** (d / np.inf) * height))
    # in one call with a finite p_i row of the same root box
    certs = _certify_rows([out, honest], [f, f])
    assert [_margin_reprs(c) for c in certs] == [_margin_reprs(cert),
                                                 _margin_reprs(cz_certify(honest, f))]


def test_pieces_live_on_their_cubes_boxes():
    f = line([3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.5, 1.5])
    out = cz_decompose(f, 1.0, 1.9, 1.0)
    assert [p.box for _, p in out.bad_pieces] == [Box(1, (0,), (2,)), Box(1, (6,), (2,))]
    assert [p.samples.tolist() for _, p in out.bad_pieces] == [[1.0, -1.0], [0.5, -0.5]]
    assert out.bad.samples.tolist() == [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.5, -0.5]
    # a piece whose box leaves the root box cannot be summed on it
    cube, piece = out.bad_pieces[0]
    outside = Field(Box(1, (-2,), (4,)), np.ones(4))
    with pytest.raises(ValueError):
        cz_certify(replace(out, bad_pieces=((cube, outside),)), f)


# ---------------------------------------------------------------------------
# The row kernels against the per-row oracles

@st.composite
def cz_batches(draw):
    """(rows, p): one mesh and one dimension per batch, as ``_decompose_rows``
    takes them, and rows of mixed root-box shapes, p_i and origins."""
    d = draw(st.sampled_from([1, 2]))
    mesh = draw(st.sampled_from([0.25, 0.37, 1.0, 2.0]))
    p = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        f, p_i, alpha, _ = _normal_case(
            origin=tuple(draw(st.integers(-40, 20)) for _ in range(d)),
            shape=tuple(draw(st.integers(1, 40 if d == 1 else 9)) for _ in range(d)),
            mesh=mesh,
            p_i=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
            p=p,
            depth=draw(st.integers(0, 14 if d == 1 else 7)),
            u=draw(st.floats(0.5, 2.0)),
            density=draw(st.floats(0.2, 1.0)),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
        assume(np.any(f.samples))
        rows.append((f, p_i, alpha))
    return rows, p


def _assert_rows_match_oracles(rows, p, outs, certs):
    for (f, p_i, alpha), out, cert in zip(rows, outs, certs):
        _assert_same_output(out, _oracle_decompose(f, p_i, alpha, p))
        oracle = _oracle_certify(_on_root_box(out), f)
        assert list(cert.checks.items()) == list(oracle.checks.items())
        assert list(cert.margins.items()) == list(oracle.margins.items())


@settings(max_examples=60, deadline=None)
@given(cz_batches())
# a flagged row among rows that share root boxes and p_i
@example(([(line(np.full(64, 1.0e9)), 1.0, 1e-9)]
          + [_normal_case((-20,), (37,), 1.0, p_i, 1.0, depth=6, seed=seed)[:3]
             for seed, p_i in enumerate([1.0, 1.5, 1.0, 2.0])], 1.0))
def test_row_kernels_match_the_per_row_oracles(batch):
    rows, p = batch
    outs = _decompose_rows(rows, p)
    certs = _certify_rows(outs, [f for f, _, _ in rows])
    _assert_rows_match_oracles(rows, p, outs, certs)


def _mixed_batch():
    """Rows that share root boxes, mesh and p_i, in d = 1 and d = 2."""
    batches = []
    for d, shape, origins in [(1, (37,), [(-20,), (3,), (-5,)]), (2, (5, 4), [(-3, 0), (2, -6)])]:
        rows = [_normal_case(origin, shape, 0.37, p_i, 1.0, depth=depth, seed=seed)[:3]
                for seed, (origin, p_i, depth) in enumerate(
                    (o, p_i, depth) for o in origins for p_i in (1.0, 1.5)
                    for depth in (2, 4))]
        batches.append((rows, _decompose_rows(rows, 1.0)))
    return batches


def test_small_blocks_split_the_groups():
    batches = _mixed_batch()
    rows = [row for batch, _ in batches for row in batch]
    outs = [out for _, batch in batches for out in batch]
    # rows of both dimensions in one call, as one block per group
    certs = _certify_rows(outs, [f for f, _, _ in rows])
    assert len({(out.good.box.extent, out.p_i) for out in outs}) < len(outs)
    for bound in (1, 64, 200):
        with mock.patch.object(cz, "_BLOCK_VALUES", bound):
            assert _certify_rows(outs, [f for f, _, _ in rows]) == certs
    for batch, batch_outs in batches:
        _assert_rows_match_oracles(batch, 1.0, batch_outs,
                                   _certify_rows(batch_outs, [f for f, _, _ in batch]))


def test_root_box_rows_sum_as_root_box_arrays():
    # the certifier sums each piece, f, the good and the bad part as one row
    # of a C-contiguous block; numpy must add the row as it adds the 2-D
    # root-box array the row stands for, and raise it to p_i alike
    rng = np.random.default_rng(11)
    for _ in range(60):
        shape = tuple(rng.integers(1, 300, size=2).tolist())
        arrays = []
        for _ in range(int(rng.integers(1, 6))):
            a = np.zeros(shape)
            lo = rng.integers(0, shape)
            hi = lo + rng.integers(1, np.subtract(shape, lo) + 1)
            a[lo[0] : hi[0], lo[1] : hi[1]] = rng.normal(size=tuple(hi - lo))
            arrays.append(a)
        block = np.stack([a.ravel() for a in arrays])
        assert np.sum(block, axis=-1).tolist() == [float(np.sum(a)) for a in arrays]
        for p_i in (1.0, 1.5, 2.0):
            got = np.sum(np.abs(block) ** p_i, axis=-1).tolist()
            assert got == [float(np.sum(np.abs(a) ** p_i)) for a in arrays]


@pytest.mark.parametrize("p_i", [1.0, 1.5])
def test_large_root_certificate_holds_one_root_row_at_a_time(p_i):
    # a 4 x 3 field across the origin at alpha = 2^-18: a 2048 x 2048 root
    # box and 4 pieces.  The per-piece certifier peaked at 164.0 MiB here
    # (tracemalloc).  The row certifier holds at most three 32 MiB root rows
    # at once (the bad part with a piece row or its |x|^p_i copy, then the
    # good and the bad part), so a fourth live row, such as two stacked
    # piece rows or a block kept alive past its use, fails the bound
    f = Field(Box(2, (-2, -1), (4, 3)), np.random.default_rng(0).normal(size=(4, 3)))
    out = cz_decompose(f, p_i, 2.0**-18, 1.0)
    assert (out.good.box.extent, len(out.bad_pieces)) == ((2048, 2048), 4)
    tracemalloc.start()
    try:
        cert = cz_certify(out, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 2048 * 2048
    oracle = _oracle_certify(_on_root_box(out), f)
    assert list(cert.checks.items()) == list(oracle.checks.items())
    assert list(cert.margins.items()) == list(oracle.margins.items())
