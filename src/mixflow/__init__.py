"""Path-based mixed regular/autonomous vehicle traffic assignment.

Regular vehicles follow a cross-nested-logit stochastic equilibrium,
autonomous vehicles a deterministic user equilibrium; both are solved
jointly by a flow-swapping algorithm over per-(OD, class) path sets, with
an optional alternating path-generation outer loop.
"""

from .costs import ClassParams
from .network import AV, RV, Link, Network, ODPair, load_network, split_demand, validate
from .paths import Path, merge_path_sets, yen_k_shortest
from .pga import PgaConfig, pga_solve
from .solver import FlowState, SolveResult, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "AV", "RV", "ClassParams", "FlowState", "Link", "Network", "ODPair",
    "Path", "PgaConfig", "SolveResult", "SolverConfig",
    "load_network", "merge_path_sets", "pga_solve", "solve", "split_demand",
    "validate", "yen_k_shortest", "__version__",
]
