"""Interior-point proximal trust-region solvers for nonsmooth bound-constrained
optimization, projected-direction baselines, benchmark problems, and a CLI
harness."""

from .errors import BoundaryPoint, BudgetExhausted, EmptyBox, OracleFailure
from .interior import (BarrierTerms, DualEstimate, barrier_value, crossover,
                       fraction_to_boundary_box, inner_solve, outer_solve)
from .oracles import QuadModelOracle, SmoothOracle
from .qnops import LSR1, SpectralDiag
from .r2 import first_order_step, r2_solve
from .regprox import Box, Regularizer, iprox_shifted
from .report import SolverReport
from .trust_region import ShiftedBounds, tr_iterate, tr_solve, trdh_solve

__all__ = [
    "BoundaryPoint", "BudgetExhausted", "EmptyBox", "OracleFailure", "BarrierTerms",
    "DualEstimate", "barrier_value", "crossover", "inner_solve", "outer_solve",
    "QuadModelOracle", "SmoothOracle", "LSR1", "SpectralDiag", "r2_solve", "Box",
    "Regularizer", "fraction_to_boundary_box", "iprox_shifted", "SolverReport",
    "ShiftedBounds", "first_order_step", "tr_iterate", "tr_solve", "trdh_solve",
]
