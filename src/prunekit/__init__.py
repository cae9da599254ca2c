"""Budget-driven channel pruning for serialized CNN models."""

from .costs import (
    effective_model_costs,
    model_flop_count,
    model_param_count,
    unit_flop_cost,
    unit_param_cost,
)
from .errors import (
    DegenerateModelError,
    GraphValidationError,
    InfeasibleBudgetError,
    ManifestError,
    PlanMismatchError,
    PruneKitError,
    ShapeError,
)
from .eval import forward_eval
from .graph import (
    GraphBuilder,
    LayerNode,
    ModelGraph,
    graph_checksum,
    infer_shapes,
    load_model,
    save_model,
    validate,
)
from .planner import PruningPlan, multi_pass, rank_global, select_threshold
from .scoring import (
    Config,
    ImportanceRecord,
    ScoreTable,
    combined_importance,
    dependency_l1,
    normalize_cost_scores,
    normalize_weight_scores,
    score_all,
)
from .surgeon import SurgeryReport, apply_plan, apply_units, zero_equivalence_check
from .units import PruneUnit, build_prune_units, unit_table
from .zoo import densenet40, resnet56, vgg16

__version__ = "0.1.0"

__all__ = [
    "Config",
    "DegenerateModelError",
    "GraphBuilder",
    "GraphValidationError",
    "ImportanceRecord",
    "InfeasibleBudgetError",
    "LayerNode",
    "ManifestError",
    "ModelGraph",
    "PlanMismatchError",
    "PruneKitError",
    "PruneUnit",
    "PruningPlan",
    "ScoreTable",
    "ShapeError",
    "SurgeryReport",
    "apply_plan",
    "apply_units",
    "build_prune_units",
    "combined_importance",
    "dependency_l1",
    "densenet40",
    "effective_model_costs",
    "forward_eval",
    "graph_checksum",
    "infer_shapes",
    "load_model",
    "model_flop_count",
    "model_param_count",
    "multi_pass",
    "normalize_cost_scores",
    "normalize_weight_scores",
    "rank_global",
    "resnet56",
    "save_model",
    "score_all",
    "select_threshold",
    "unit_flop_cost",
    "unit_param_cost",
    "unit_table",
    "validate",
    "vgg16",
    "zero_equivalence_check",
]
