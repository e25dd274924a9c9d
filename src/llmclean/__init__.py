"""Context-aware tabular data cleaning.

Builds a context model for a dirty CSV through a pluggable language-model
gateway, extracts dependency rules from it, and enforces them to produce
cell-level error reports; includes a prompt-ensembling optimizer and an
error-injection evaluation harness.
"""

from .dataset import (
    Cell,
    CellKind,
    CellRef,
    Dataset,
    MISSING,
    PlaceholderSet,
    load_csv,
    normalize_missing,
)
from .detection import DetectionReport, run_all
from .ensemble import (
    EnsembleConfig,
    EvalRecord,
    SearchSpec,
    find_best_ensemble,
    find_consensus,
    score_micro_f1,
)
from .evaluation import ErrorSpec, GroundTruth, inject_errors, score_detection, score_repair
from .rules import DependencyKind, OfdRule, SensorSpec, parse_rule, render_rule

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CellKind",
    "CellRef",
    "Dataset",
    "DependencyKind",
    "DetectionReport",
    "EnsembleConfig",
    "ErrorSpec",
    "EvalRecord",
    "GroundTruth",
    "MISSING",
    "OfdRule",
    "PlaceholderSet",
    "SearchSpec",
    "SensorSpec",
    "find_best_ensemble",
    "find_consensus",
    "inject_errors",
    "load_csv",
    "normalize_missing",
    "parse_rule",
    "render_rule",
    "run_all",
    "score_detection",
    "score_micro_f1",
    "score_repair",
    "__version__",
]
