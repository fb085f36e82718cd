"""The compensated-average square function: pieces, aggregate, and how it
dominates the dyadic-scale variation.

Run: python3 demos/square_demo.py
"""

import numpy as np

from bivariation import Box, Field, ball, long_variation_check, lp_norm, square_function

rng = np.random.default_rng(4)
box = Box(1, (0,), (64,), 1.0)
f1 = Field(box, rng.normal(size=64))
f2 = Field(box, rng.normal(size=64))
body = ball(1)

sp = square_function(f1, f2, body)
print(f"pieces over levels {sp.k_range}, truncation tail max {sp.tail_max:.2e}")
for k, piece in sorted(sp.pieces.items()):
    print(f"  level {k}: ||piece||_2 = {lp_norm(piece, 2.0):.4f}")
print(f"aggregate L2 norm: {lp_norm(sp.aggregate, 2.0):.4f}")
print(f"ratio to ||f1||_inf ||f2||_2: "
      f"{lp_norm(sp.aggregate, 2.0) / (lp_norm(f1, np.inf) * lp_norm(f2, 2.0)):.4f}")

lv, bound, holds = long_variation_check(sp, 3.0)
print(f"\ndyadic-scale variation <= 2*aggregate + projection variation at every cell: {holds}")
print(f"  worst slack: {float((bound - lv).min()):.4f}")
