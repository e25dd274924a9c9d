"""Context-aware tabular data cleaning.

Builds a context model for a dirty CSV through a pluggable language-model
gateway, extracts dependency rules from it, and enforces them to produce
cell-level error reports; includes a prompt-ensembling optimizer and an
error-injection evaluation harness.
"""

import importlib

# Each public name and the module that defines it. The modules are imported
# on first use (PEP 562), so ``import llmclean.cli`` loads only what the
# command it runs needs.
_EXPORTS = {
    "Cell": "dataset",
    "CellKind": "dataset",
    "CellRef": "dataset",
    "Dataset": "dataset",
    "MISSING": "dataset",
    "load_csv": "dataset",
    "normalize_missing": "dataset",
    "DetectionReport": "detection",
    "run_all": "detection",
    "EnsembleConfig": "ensemble",
    "EvalRecord": "ensemble",
    "SearchSpec": "ensemble",
    "find_best_ensemble": "ensemble",
    "find_consensus": "ensemble",
    "score_micro_f1": "ensemble",
    "ErrorSpec": "evaluation",
    "GroundTruth": "evaluation",
    "inject_errors": "evaluation",
    "score_detection": "evaluation",
    "DependencyKind": "rules",
    "OfdRule": "rules",
    "SensorSpec": "rules",
    "parse_rule": "rules",
    "render_rule": "rules",
}

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
