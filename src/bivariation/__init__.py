"""Bilinear averages over convex bodies, their scale variation, and the dyadic
machinery used to study them numerically.

Submodules
----------
fields       sampled fields on integer boxes; Lp / weak-Lp / dyadic-BMO norms
bodies       normalized convex bodies, lattice enumeration, shells
averages     the averaging operators and scale grids
variation    exact q-variation and the elementary inequalities
martingale   conditional expectations, neighbor-maximal functions, Carleson sums
squarefn     the compensated-average square function
cz           stopping-time decomposition with certified constants
extremal     alternating counterexample, interpolation hull, torus rotations
harness      config-driven experiment suites and the CLI
"""

__version__ = "0.1.0"

from .averages import (
    AvgRequest,
    DegenerateScale,
    TimeGrid,
    avg_at,
    avg_field,
    avg_field_sweep,
    avg_sweep,
    dtt_avg,
    dtt_avg_via_body,
    fast_slice_avg,
)
from .bodies import (
    ConvexBody,
    LatticePointSet,
    ball,
    body_from_descriptor,
    cube,
    enumerate_lattice,
    gamma_body,
    normalize,
    polytope_body,
    shell,
    symmetric_difference_volume,
)
from .cz import CZCertificate, CZOutput, cz_certify, cz_decompose
from .extremal import (
    CounterexampleInstance,
    counterexample_average,
    counterexample_variation,
    ergodic_bilinear_avg,
    find_growth_ratio,
    interp_weights,
    make_instance,
)
from .fields import (
    Box,
    Field,
    bmo_dyadic_norm,
    export_csv,
    import_csv,
    lp_norm,
    read_ndf1,
    weak_lp_quasinorm,
    write_ndf1,
)
from .martingale import (
    bilinear_maximal,
    carleson_tent_mass,
    carleson_weighted_sum,
    cond_expect,
    domination_check,
    mart_diff,
    paraproduct_telescope,
    star_maximal,
    young_convolution_check,
)
from .squarefn import SquarePieces, long_variation_check, square_function, square_piece
from .variation import (
    VariationOutcome,
    long_variation,
    product_rule_check,
    short_variation,
    sup_vs_variation_check,
    vq_exact,
    vq_value_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
