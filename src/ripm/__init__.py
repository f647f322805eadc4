"""Interior-point proximal trust-region solvers for nonsmooth bound-constrained
optimization, projected-direction baselines, benchmark problems, and a CLI
harness."""

from .errors import BoundaryPoint, BudgetExhausted, EmptyBox, OracleFailure
from .interior import (BarrierTerms, DualEstimate, IpmOptions, barrier_grad, barrier_value,
                       crossover, dual_update, inner_solve, kkt_residuals, outer_solve)
from .oracles import CallableOracle, QuadModelOracle, SmoothOracle
from .qnops import LBFGS, LSR1, SpectralDiag, make_operator
from .r2 import R2Options, r2_solve
from .regprox import (Box, Regularizer, ShiftedRegularizer, fraction_to_boundary_box,
                      intersect_boxes, iprox_shifted)
from .report import SolverReport
from .trust_region import (ShiftedBounds, TrustRegionOptions, first_order_step, tr_iterate,
                           tr_solve, trdh_solve)

__all__ = [
    "BoundaryPoint", "BudgetExhausted", "EmptyBox", "OracleFailure", "BarrierTerms",
    "DualEstimate", "IpmOptions", "barrier_grad", "barrier_value", "crossover",
    "dual_update", "inner_solve", "kkt_residuals", "outer_solve", "CallableOracle",
    "QuadModelOracle", "SmoothOracle", "LBFGS", "LSR1", "SpectralDiag", "make_operator",
    "R2Options", "r2_solve", "Box", "Regularizer", "ShiftedRegularizer",
    "fraction_to_boundary_box", "intersect_boxes", "iprox_shifted", "SolverReport",
    "ShiftedBounds", "TrustRegionOptions", "first_order_step", "tr_iterate", "tr_solve",
    "trdh_solve",
]
