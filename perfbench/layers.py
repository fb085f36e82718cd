"""The traced layers: which functions get spans, the counts computed for them,
and the per-layer metrics derived from one traced pass.

Every public function (named in ``__all__`` and defined in the module) of the
modules below gets a span named ``<module>.<function>``, as do the functions
in ``NAMED`` (``dyadic.cell_cube_ids`` is not in ``__all__``),
``ConvexBody.contains_point`` and the suites' CSV writer.  Metrics are
medians over the traced passes of a run, each taken per pass; times are
scaled to the reference machine speed like ``wall_s``.  In every pass the
self times of all spans plus ``harness.uncovered_s`` add up to
``trace.wall_s``, which the worker checks.
"""

from __future__ import annotations

import inspect
import math
import os
import sys

from bivariation import bodies
from bivariation.harness import suites

MODULES = (
    "averages", "bodies", "cz", "dyadic", "extremal", "fields", "martingale",
    "squarefn", "variation",
    "harness.generators", "harness.suites", "harness.config", "harness.cli",
)

# functions reported one by one, with .calls and .self_s
NAMED = (
    "averages.avg_field", "averages.dtt_avg_field", "averages.avg_at",
    "averages.avg_sweep", "averages.fast_slice_avg",
    "bodies.slice_interval", "bodies.contains_point", "bodies.enumerate_lattice",
    "fields.bmo_dyadic_norm",
    "dyadic.cell_cube_ids", "dyadic.iter_cubes",
    "martingale.cond_expect", "martingale.star_maximal", "martingale.carleson_tent_ratio",
    "martingale.carleson_weighted_sum", "martingale.paraproduct_telescope",
    "martingale.domination_check",
    "variation.vq_value_batch", "variation.vq_exact",
    "squarefn.square_function", "cz.cz_decompose", "cz.cz_certify",
    "extremal.ergodic_avg_profile", "extremal.counterexample_average",
)

# spans whose self time is reported as one group
GROUPS = {
    "fields.norms": ("fields.lp_norm", "fields.weak_lp_quasinorm", "fields.norm_report"),
    "harness.generators": ("harness.generators.",),
    "harness.suites": ("harness.suites.", "harness.config.", "harness.cli."),
    "harness.csv": ("harness.csv",),
}

_ENUMERATE = bodies.enumerate_lattice  # untraced, for the computed node counts
_POINT_ROUTES = ("averages.avg_at", "averages.avg_sweep", "averages.avg_field")


# ---------------------------------------------------------------------------
# computed counts (hooks run after the span closes; see tracer.Tracer.wrap)

def _avg_field(tr, caller, result, body, t, f1, f2, mode="continuum_quadrature"):
    T = t if mode == "lattice_counting" else t / f1.box.mesh
    cells = f1.box.cell_count
    if body.d == 1:
        tr.counters["averages.avg_field.slices"] += cells * (2 * math.ceil(T * body.r_out) + 1)
        return
    tr.counters["averages.point_cache.lookups"] += 1
    key = (repr(body), float(T))
    if key not in tr.memo:
        tr.memo[key] = _ENUMERATE(body, T).count
    tr.counters["averages.avg_field.cell_nodes"] += cells * tr.memo[key]


def _point_lookup(tr, caller, result, *args, **kwargs):
    tr.counters["averages.point_cache.lookups"] += 1


def _enumerate_lattice(tr, caller, result, body, t):
    tr.counters["bodies.enumerate_lattice.points"] += result.count
    if caller in _POINT_ROUTES:
        tr.counters["averages.point_cache.misses"] += 1


def _cell_cube_ids(tr, caller, result, box, level):
    key = ("cell_cube_ids", box, level)
    if key in tr.seen:
        tr.counters["dyadic.cell_cube_ids.repeats"] += 1
    tr.seen.add(key)


def _vq_value_batch(tr, caller, result, seqs, q):
    tr.counters["variation.vq_value_batch.rows"] += len(result)


def _write_csv(tr, caller, result, path, header, rows):
    tr.counters["harness.csv.bytes"] += os.path.getsize(path)


HOOKS = {
    "averages.avg_field": _avg_field,
    "averages.avg_at": _point_lookup,
    "averages.avg_sweep": _point_lookup,
    "bodies.enumerate_lattice": _enumerate_lattice,
    "dyadic.cell_cube_ids": _cell_cube_ids,
    "variation.vq_value_batch": _vq_value_batch,
    "harness.csv": _write_csv,
}


def targets():
    """(owner, attribute, span name, hook) for every traced function."""
    out = []
    # a function or module that a later version of the package no longer has
    # is skipped, and its metrics read 0
    for short in MODULES:
        mod = sys.modules.get(f"bivariation.{short}")
        if mod is None:
            continue
        named = [n.rsplit(".", 1)[1] for n in NAMED if n.rsplit(".", 1)[0] == short]
        for attr in dict.fromkeys([*getattr(mod, "__all__", ()), *named]):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                out.append((mod, attr, name, HOOKS.get(name)))
    for owner, attr, name in ((bodies.ConvexBody, "contains_point", "bodies.contains_point"),
                              (suites, "_write_csv", "harness.csv")):
        if hasattr(owner, attr):
            out.append((owner, attr, name, HOOKS.get(name)))
    return out


def holders():
    """Modules that may hold traced functions imported by name."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bivariation" or n.startswith("bivariation."))]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def _group_self(tr, members) -> float:
    return sum((v for k, v in tr.self_s.items()
               if any(k == m or (m.endswith(".") and k.startswith(m)) for m in members)), 0.0)


def pass_metrics(tr, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds,
    hooks included."""
    c = tr.counters
    m: dict[str, float] = {}
    for name in NAMED:
        m[f"{name}.calls"] = tr.calls.get(name, 0)
        m[f"{name}.self_s"] = tr.self_s.get(name, 0.0)
    m["averages.avg_field.slices"] = c["averages.avg_field.slices"]
    m["averages.avg_field.cell_nodes"] = c["averages.avg_field.cell_nodes"]
    lookups = c["averages.point_cache.lookups"]
    m["averages.point_cache.hit_frac"] = (
        1.0 - c["averages.point_cache.misses"] / lookups if lookups else 0.0)
    slices = tr.calls.get("bodies.slice_interval", 0)
    m["bodies.contains_point.per_slice"] = (
        tr.calls.get("bodies.contains_point", 0) / slices if slices else 0.0)
    m["bodies.enumerate_lattice.points"] = c["bodies.enumerate_lattice.points"]
    ids = tr.calls.get("dyadic.cell_cube_ids", 0)
    m["dyadic.cell_cube_ids.repeat_frac"] = c["dyadic.cell_cube_ids.repeats"] / ids if ids else 0.0
    m["variation.vq_value_batch.rows"] = c["variation.vq_value_batch.rows"]
    for group, members in GROUPS.items():
        m[f"{group}.self_s"] = _group_self(tr, members)
    m["harness.csv.bytes"] = c["harness.csv.bytes"]
    total_self = sum(tr.self_s.values())
    reported = sum(tr.self_s.get(n, 0.0) for n in NAMED) + sum(
        m[f"{g}.self_s"] for g in GROUPS)
    m["trace.other_self_s"] = total_self - reported
    m["trace.wall_s"] = wall - tr.hook_s
    m["harness.uncovered_s"] = wall - tr.covered - tr.top_hook_s
    m["trace.spans"] = tr.spans_closed
    return m


def accounting_error(tr, metrics) -> float:
    """|sum of self times + uncovered - traced wall|, which is 0 up to
    rounding when every span nests inside its parent."""
    return abs(sum(tr.self_s.values()) + metrics["harness.uncovered_s"] - metrics["trace.wall_s"])


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(".per_slice"):
        return "calls/slice"
    return "count"
