"""Chordal vertex deletion: kernelization, approximation, exact solving."""

from .graphs import DiGraph, Graph, Hole, InvariantError
from .chordal import CliqueTree, PEO, hole_vertices, is_chordal, recognize
from .flower import Flower, flower_and_cover, two_flower
from .kernel import AChvdInstance, KernelResult, kernelize
from .lp import ChvdProblem, CuttingPlaneCapExceeded, FractionalSolution, \
    MulticutProblem, solve_fractional
from .multicut import DownwardInstance, MulticutInstance, SkewInstance, \
    build_downward, downward_multicut, min_vertex_cut, skew_multicut
from .approx import NO_INSTANCE, NoInstance, approximate
from .oracle import ExactResult, SearchBudgetExceeded, exact_chvd, \
    exact_chvd_forced, exact_multicut

__all__ = [
    "AChvdInstance",
    "ChvdProblem",
    "CliqueTree",
    "CuttingPlaneCapExceeded",
    "DiGraph",
    "DownwardInstance",
    "ExactResult",
    "Flower",
    "FractionalSolution",
    "Graph",
    "Hole",
    "InvariantError",
    "KernelResult",
    "MulticutInstance",
    "MulticutProblem",
    "NO_INSTANCE",
    "NoInstance",
    "PEO",
    "SearchBudgetExceeded",
    "SkewInstance",
    "approximate",
    "build_downward",
    "downward_multicut",
    "exact_chvd",
    "exact_chvd_forced",
    "exact_multicut",
    "flower_and_cover",
    "hole_vertices",
    "is_chordal",
    "kernelize",
    "min_vertex_cut",
    "recognize",
    "skew_multicut",
    "solve_fractional",
    "two_flower",
]

__version__ = "0.1.0"
