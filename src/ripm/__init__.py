"""Interior-point proximal trust-region solvers for nonsmooth bound-constrained
optimization, projected-direction baselines, benchmark problems, and a CLI
harness."""

from .errors import BoundaryPoint, BudgetExhausted, EmptyBox, OracleFailure
from .interior import (BarrierTerms, DualEstimate, IpmOptions, barrier_value, crossover,
                       inner_solve, outer_solve)
from .oracles import QuadModelOracle, SmoothOracle
from .qnops import LBFGS, LSR1, SpectralDiag
from .r2 import R2Options, first_order_step, r2_solve
from .regprox import Box, Regularizer, fraction_to_boundary_box, intersect_boxes, iprox_shifted
from .report import SolverReport
from .trust_region import ShiftedBounds, TrustRegionOptions, tr_iterate, tr_solve, trdh_solve

__all__ = [
    "BoundaryPoint", "BudgetExhausted", "EmptyBox", "OracleFailure", "BarrierTerms",
    "DualEstimate", "IpmOptions", "barrier_value", "crossover", "inner_solve", "outer_solve",
    "QuadModelOracle", "SmoothOracle", "LBFGS", "LSR1", "SpectralDiag",
    "R2Options", "r2_solve", "Box", "Regularizer",
    "fraction_to_boundary_box", "intersect_boxes", "iprox_shifted", "SolverReport",
    "ShiftedBounds", "TrustRegionOptions", "first_order_step", "tr_iterate", "tr_solve",
    "trdh_solve",
]
