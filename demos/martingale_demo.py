"""Dyadic projections, neighbor-maximal functions, and the Carleson tent sums.

Run: python3 demos/martingale_demo.py
"""

import numpy as np

from bivariation import (
    Box,
    Field,
    ball,
    bilinear_maximal,
    bmo_dyadic_norm,
    carleson_tent_mass,
    cond_expect,
    domination_check,
    mart_diff,
    paraproduct_telescope,
    star_maximal,
)
from bivariation.dyadic import DyadicCube
from bivariation.martingale import carleson_tent_ratios, measurable_field

rng = np.random.default_rng(2)
box = Box(1, (0,), (64,), 1.0)
f = Field(box, rng.normal(size=64))

print("== dyadic ladder ==")
for j in (0, 2, 4, 6, 7):
    e = cond_expect(f, j)
    print(f"  level {j}: {len(set(np.round(e.samples, 12)))} distinct values, "
          f"mass {np.sum(e.samples):+.6f}")
print("  (mass is preserved at every level; beyond the box size the projection")
print("   acts as the global mean, so differences vanish there)")

recon = cond_expect(f, 7).samples + sum(mart_diff(f, j).samples for j in range(1, 8))
print(f"  telescoping reconstruction error: {np.abs(recon - f.samples).max():.2e}")

print("\n== neighbor-maximal functions ==")
h = Field(Box(1, (0,), (4,), 1.0), [0.0, 1.0, 0.0, 0.0])
print(f"  h = {h.samples},  h* = {star_maximal(h, 1).samples}")
h1 = Field(Box(1, (0,), (4,), 1.0), [0.0, 1.0, 0.0, 0.0])
h2 = Field(Box(1, (0,), (4,), 1.0), [1.0, 0.0, 0.0, 0.0])
bb = bilinear_maximal(h1, h2, 1)
print(f"  adjacent indicators: h1*h2 = 0 pointwise, but [h1,h2]+ = {bb.samples}")

print("\n== pointwise domination of averages ==")
h1, h2 = (measurable_field(box, 2, rng.normal(size=16)) for _ in range(2))
rep = domination_check(ball(1), h1, h2, 3, 1)
print(f"  scale 2^1 vs level-2 atoms: dominated = {rep.holds} "
      f"(max average {rep.max_average:.4f})")
vals1 = np.zeros(4); vals1[0] = 1.0
vals2 = np.zeros(4); vals2[2] = 1.0
g1 = measurable_field(Box(1, (0,), (16,), 1.0), 2, vals1)
g2 = measurable_field(Box(1, (0,), (16,), 1.0), 2, vals2)
edge = domination_check(ball(1), g1, g2, 3, 2)
print(f"  boundary level k = n-1, opposed sparse atoms: dominated = {edge.holds} "
      f"(excess {edge.max_excess:.4f}; see docs/notes.md)")

print("\n== paraproduct telescoping ==")
g = Field(box, rng.normal(size=64))
rep = paraproduct_telescope(f, g, ball(1), 3, 1, 8)
print(f"  residual {rep.residual_max:.2e}, coarse boundary {rep.coarse_boundary_max:.4f}")

print("\n== Carleson tents ==")
b = Field(Box(1, (0,), (4,), 1.0), [1.0, -1.0, 0.0, 0.0])
print(f"  two-cell step: tent mass over its pair cube = "
      f"{carleson_tent_mass(b, DyadicCube(1, (0,)), 0)} (by hand: 2)")
step = Field(box, np.repeat(rng.uniform(-1, 1, 16), 4))
print(f"  random step field, bmo = {bmo_dyadic_norm(step):.4f}")
ratios = carleson_tent_ratios(step, 6)
for n in range(0, 7, 2):
    print(f"    shift n={n}: sup tent ratio {ratios[n]:.4f}")
print("  (nonincreasing in the shift; see docs/notes.md)")
