"""Essential-vertex detection for six vertex-deletion problems, with a
detection-driven exact solver whose branching budget is bounded by the
non-essential part of the optimum."""

from .detect import DetectionResult, FlowerCertificate, detect, detector_factory
from .graphs import Digraph, Graph, delete_vertices, parse_graph, serialize_graph
from .oracle import OracleCaps, brute_essential, brute_flower, brute_opt, oracle_report
from .problems import PROBLEM_IDS, PROBLEMS
from .solve import exact_budgeted_solve, meta_solve

__version__ = "0.1.0"

__all__ = [
    "DetectionResult",
    "Digraph",
    "FlowerCertificate",
    "Graph",
    "OracleCaps",
    "PROBLEMS",
    "PROBLEM_IDS",
    "brute_essential",
    "brute_flower",
    "brute_opt",
    "delete_vertices",
    "detect",
    "detector_factory",
    "exact_budgeted_solve",
    "meta_solve",
    "oracle_report",
    "parse_graph",
    "serialize_graph",
    "__version__",
]
