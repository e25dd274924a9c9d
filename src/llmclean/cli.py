"""Command-line frontend wiring the pipeline end to end.

Commands: classify, build-context, detect, evaluate, ensemble. Every
LLM-dependent command requires an explicit --backend {remote,replay}; there
is no silent network access. Exit codes: 0 success, 1 input error,
2 external-service error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import context_model, detection, ensemble, evaluation, generation
from .dataset import Dataset, dataset_to_csv, load_csv, normalize_missing
from .errors import GatewayError, LLMCleanError
from .gateway import API_KEY_ENV, ENDPOINT_ENV, RemoteBackend, ReplayBackend
from .rules import SensorSpec, parse_rule_file, parse_sensor_spec, render_rule_file

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EXTERNAL = 2
EXIT_INTERNAL = 3

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


@dataclass
class RunManifest:
    """Everything needed to reproduce a run with the same cassette and seed."""

    command: str
    input_path: str
    backend: str = ""
    dataset_class: str = ""
    seed: int | None = None
    outputs: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    excluded_concepts: list[str] = field(default_factory=list)
    mapping: dict[str, str] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    def write(self, path: Path) -> None:
        payload = {
            "command": self.command,
            "input": self.input_path,
            "backend": self.backend,
            "class": self.dataset_class,
            "seed": self.seed,
            "outputs": self.outputs,
            "warnings": self.warnings,
            "excluded_concepts": self.excluded_concepts,
            "mapping": self.mapping,
            "timings_ms": self.timings_ms,
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)


def _load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        return load_csv(fh)


def _make_backend(args: argparse.Namespace):
    if args.backend == "replay":
        if not args.cassette:
            raise LLMCleanError("--backend replay requires --cassette")
        return ReplayBackend(args.cassette, max_parallel=args.parallel)
    endpoint = os.environ.get(ENDPOINT_ENV, DEFAULT_ENDPOINT)
    if not os.environ.get(API_KEY_ENV):
        raise GatewayError(f"remote backend needs {API_KEY_ENV} in the environment")
    return RemoteBackend(
        endpoint, args.model or "gpt-4", max_parallel=args.parallel
    )


def _load_specs(path: str | None) -> dict[str, SensorSpec]:
    if not path:
        return {}
    table = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(table, dict):
        raise LLMCleanError(f"{path}: sensor specs must be a JSON object keyed by model")
    return {model: parse_sensor_spec(model, entry) for model, entry in table.items()}


def _parse_fd_pair(text: str | None) -> tuple[str | None, str | None]:
    if not text:
        return None, None
    determinant, _, dependent = text.partition(":")
    if not determinant or not dependent:
        raise LLMCleanError(f"--fd-pair expects determinant:dependent, got {text!r}")
    return determinant, dependent


def _load_ensemble_config(path: str):
    """The classify ensemble and its prompt templates from an --ensemble-config file."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise LLMCleanError(f"{path}: ensemble config must be a JSON object")
    templates = dict(generation.DEFAULT_TEMPLATES)
    try:
        for t in raw.get("templates", []):
            template = generation.PromptTemplate(
                id=str(t["id"]),
                task_text=str(t["task_text"]),
                response_format=generation.ResponseFormat(t.get("format", "yes_no")),
                few_shot=tuple((str(q), str(a)) for q, a in t.get("few_shot", [])),
            )
            templates[template.id] = template
        config = ensemble.EnsembleConfig(
            threshold=int(raw["threshold"]), prompts=tuple(map(str, raw["prompts"]))
        )
    except KeyError as exc:
        raise LLMCleanError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LLMCleanError(f"{path}: {exc}") from None
    for prompt_id in config.prompts:
        if prompt_id not in templates:
            raise LLMCleanError(f"{path}: prompt {prompt_id!r} has no template")
    return config, templates


def _classify(args, headers) -> generation.DatasetClass:
    backend = _make_backend(args)
    config, templates = ensemble.EnsembleConfig(threshold=1, prompts=("classify",)), None
    if args.ensemble_config:
        config, templates = _load_ensemble_config(args.ensemble_config)
    return generation.classify_dataset(headers, backend, config, templates)


def cmd_classify(args) -> int:
    d = _load_dataset(args.csv)
    result = _classify(args, d.headers)
    print(result.value)
    return EXIT_OK


def cmd_build_context(args) -> int:
    d = _load_dataset(args.csv)
    d = normalize_missing(d)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="build-context", input_path=args.csv, backend=args.backend,
        seed=args.seed,
    )
    backend = _make_backend(args)
    t0 = time.perf_counter()

    if args.assume_class:
        dataset_class = generation.DatasetClass(args.assume_class)
    else:
        dataset_class = _classify(args, d.headers)
    manifest.dataset_class = dataset_class.value

    specs = _load_specs(args.sensors)
    if dataset_class is generation.DatasetClass.IOT:
        if args.value_columns:
            pairs = [tuple(item.split(":", 1)) for item in args.value_columns.split(",")]
            d = generation.split_sensors(d, pairs)
        mapping = generation.map_columns(d.headers, backend)
        manifest.warnings.extend(mapping.warnings)
        manifest.mapping = dict(sorted(mapping.assignments.items()))
        d = generation.rename_columns(d, mapping)
        d, excluded = generation.generate_columns(d, mapping)
        manifest.excluded_concepts = excluded
        sanitized = generation.sanitize_for_graph(d)
        graph, build_warnings = generation.build_iot_graph(sanitized, specs)
        manifest.warnings.extend(build_warnings)
    else:
        relations = generation.pair_relationships(d.headers, backend)
        graph = generation.build_relational_graph(relations)

    rules = context_model.extract_ofds(graph)
    manifest.timings_ms["build"] = (time.perf_counter() - t0) * 1000.0

    graph_path = out_dir / "context.nt"
    graph_path.write_text(context_model.serialize(graph), encoding="utf-8")
    csv_path = out_dir / "transformed.csv"
    csv_path.write_text(dataset_to_csv(d), encoding="utf-8")
    rules_path = out_dir / "rules.ofd"
    rules_path.write_text(render_rule_file(rules), encoding="utf-8")
    manifest.outputs = {
        "graph": str(graph_path),
        "transformed_csv": str(csv_path),
        "rules": str(rules_path),
    }
    manifest.write(out_dir / "manifest.json")
    print(f"class={dataset_class.value} triples={len(graph.triples)} rules={len(rules)}")
    return EXIT_OK


def _rules_for_detection(args):
    if args.rules:
        return parse_rule_file(Path(args.rules).read_text(encoding="utf-8"))
    if args.graph:
        graph = context_model.deserialize(Path(args.graph).read_text(encoding="utf-8"))
        return context_model.extract_ofds(graph)
    raise LLMCleanError("detect needs --rules or --graph")


def cmd_detect(args) -> int:
    d = normalize_missing(_load_dataset(args.csv))
    rules = _rules_for_detection(args)
    specs = _load_specs(args.sensors)
    report = detection.run_all(d, rules, specs=specs, exact_matching=args.exact_matching)
    payload = report.to_json()
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    print(
        f"findings={len(report.findings)} cells={len(report.flagged_cells)} "
        f"skipped={len(report.skipped_rules)} duration_ms={report.duration_ms:.1f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    fd_determinant, fd_dependent = _parse_fd_pair(args.fd_pair)
    clean = normalize_missing(_load_dataset(args.csv))
    spec = evaluation.ErrorSpec(
        missing_rate=args.missing_rate,
        outlier_rate=args.outlier_rate,
        fd_swap_rate=args.fd_swap_rate,
        outlier_multiplier=args.multiplier,
        seed=args.seed or 0,
        missing_columns=tuple(args.missing_columns.split(",")) if args.missing_columns else None,
        outlier_columns=tuple(args.outlier_columns.split(",")) if args.outlier_columns else None,
        fd_determinant=fd_determinant,
        fd_dependent=fd_dependent,
    )
    dirty, truth = evaluation.inject_errors(clean, spec)
    rules = _rules_for_detection(args)
    specs = _load_specs(args.sensors)
    normalized = normalize_missing(dirty)
    report = detection.run_all(
        normalized, rules, specs=specs, exact_matching=args.exact_matching
    )
    precision, recall, f1 = evaluation.score_detection(report, truth, normalized)
    metrics = {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "injected": len(truth),
        "flagged_cells": len(report.flagged_cells),
        "detection_ms": report.duration_ms,
    }
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "dirty.csv").write_text(dataset_to_csv(dirty), encoding="utf-8")
        (out_dir / "truth.jsonl").write_text(truth.to_jsonl(), encoding="utf-8")
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics, indent=2) + "\n", encoding="utf-8"
        )
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_ensemble(args) -> int:
    if not 0.0 < args.val_fraction < 1.0:
        raise LLMCleanError(f"--val-fraction must lie in (0, 1), got {args.val_fraction}")
    text = Path(args.records).read_text(encoding="utf-8")
    records = ensemble.read_records_jsonl(text)
    if not records:
        raise LLMCleanError(f"no records in {args.records}")
    if args.val_records:
        val = ensemble.read_records_jsonl(
            Path(args.val_records).read_text(encoding="utf-8")
        )
        train = records
    else:
        # Deterministic split of the single record stream.
        import random as _random

        indices = list(range(len(records)))
        _random.Random(args.seed or 0).shuffle(indices)
        cut = max(1, round(len(records) * (1.0 - args.val_fraction)))
        cut = min(cut, len(records) - 1) if len(records) > 1 else 1
        train = [records[i] for i in sorted(indices[:cut])]
        val = [records[i] for i in sorted(indices[cut:])] or train
    prompts = sorted(records[0].per_prompt)
    configs = ensemble.find_best_ensemble(
        train, val, prompts, ensemble.SearchSpec(args.tr_range)
    )
    print(ensemble.configs_to_json(configs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llmclean",
        description="Context-aware tabular data cleaning pipeline",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flags(p):
        p.add_argument("--backend", choices=("remote", "replay"), required=True)
        p.add_argument("--cassette", help="replay cassette JSON path")
        p.add_argument("--model", help="remote model name")
        p.add_argument("--ensemble-config", dest="ensemble_config",
                       help="JSON file with classify ensemble + templates")

    def add_common(p):
        p.add_argument("--parallel", type=int, default=4)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("classify", help="print IoT or NonIoT for a CSV")
    p.add_argument("csv")
    add_backend_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build-context", help="generate graph, rules, transformed CSV")
    p.add_argument("csv")
    add_backend_flags(p)
    add_common(p)
    p.add_argument("--sensors", help="sensor spec JSON file")
    p.add_argument("--value-columns", dest="value_columns",
                   help="comma-separated column:label pairs to split into rows")
    p.add_argument("--assume-class", dest="assume_class", choices=("IoT", "NonIoT"))
    p.set_defaults(func=cmd_build_context, out_dir="out")

    p = sub.add_parser("detect", help="enforce rules against a CSV")
    p.add_argument("csv")
    p.add_argument("--rules", help="rule file")
    p.add_argument("--graph", help="context graph .nt file (rules auto-extracted)")
    p.add_argument("--sensors", help="sensor spec JSON file")
    p.add_argument("--exact-matching", dest="exact_matching", action="store_true",
                   help="disable blocking for matching rules")
    add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="inject errors, detect, score")
    p.add_argument("csv", help="clean CSV input")
    p.add_argument("--rules")
    p.add_argument("--graph")
    p.add_argument("--sensors")
    p.add_argument("--missing-rate", dest="missing_rate", type=float, default=0.0)
    p.add_argument("--outlier-rate", dest="outlier_rate", type=float, default=0.0)
    p.add_argument("--fd-swap-rate", dest="fd_swap_rate", type=float, default=0.0)
    p.add_argument("--multiplier", type=float, default=100.0)
    p.add_argument("--missing-columns", dest="missing_columns")
    p.add_argument("--outlier-columns", dest="outlier_columns")
    p.add_argument("--fd-pair", dest="fd_pair", help="determinant:dependent")
    p.add_argument("--exact-matching", dest="exact_matching", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="search best prompt-ensemble configs")
    p.add_argument("records", help="JSONL evaluation records")
    p.add_argument("--val-records", dest="val_records")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.5)
    p.add_argument("--tr-range", dest="tr_range", type=int, default=4)
    add_common(p)
    p.set_defaults(func=cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except (LLMCleanError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last resort: invariant violation
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
