"""Joint proactive-caching / VNF-chain placement toolkit.

Exact integer-program solving at desk scale, the PPCC greedy heuristic,
the AGW and SPBA baselines, a seeded scenario generator, and a Monte-Carlo
benchmark harness.
"""

from .bench import ResultTable, SweepSpec, emit_results, run_sweep, trial_seed
from .evaluation import (
    ConstraintViolation,
    CostReport,
    EvaluationError,
    SolveResult,
    UndefinedGainError,
    check_constraints,
    evaluate_cost,
    gain,
)
from .exact import (
    ExportSizeError,
    SolveBudget,
    export_lp,
    lower_bound,
    solve_exact,
)
from .graph import (
    DisconnectedGraphError,
    EdgeNetwork,
    Link,
    PathInfo,
    PathTable,
    shortest_paths,
)
from .heuristics import agw, ppcc, spba
from .model import (
    MobilityProfile,
    ParseError,
    Placement,
    ProblemInstance,
    Resources,
    ServiceRequest,
    Violation,
    build_placement,
    build_placement_per_pair,
    instance_from_json,
    instance_to_json,
    placement_to_json,
    validate_instance,
)
from .scenario import GenerationError, ScenarioParams, generate_instance

__version__ = "0.1.0"

__all__ = [
    "ConstraintViolation",
    "CostReport",
    "DisconnectedGraphError",
    "EdgeNetwork",
    "EvaluationError",
    "ExportSizeError",
    "GenerationError",
    "Link",
    "MobilityProfile",
    "ParseError",
    "PathInfo",
    "PathTable",
    "Placement",
    "ProblemInstance",
    "Resources",
    "ResultTable",
    "ScenarioParams",
    "ServiceRequest",
    "SolveBudget",
    "SolveResult",
    "SweepSpec",
    "UndefinedGainError",
    "Violation",
    "agw",
    "build_placement",
    "build_placement_per_pair",
    "check_constraints",
    "emit_results",
    "evaluate_cost",
    "export_lp",
    "gain",
    "generate_instance",
    "instance_from_json",
    "instance_to_json",
    "lower_bound",
    "placement_to_json",
    "ppcc",
    "run_sweep",
    "shortest_paths",
    "solve_exact",
    "spba",
    "trial_seed",
    "validate_instance",
]
