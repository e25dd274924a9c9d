"""Command-line frontend wiring the pipeline end to end.

Commands: classify, build-context, detect, evaluate, ensemble. Every
LLM-dependent command requires an explicit --backend {remote,replay}; there
is no silent network access. Exit codes: 0 success, 1 input error,
2 external-service error, 3 internal invariant violation; a malformed
command line exits 1 as well. Each command imports the package modules it
runs when it runs, so detect, evaluate and ensemble start without the
LLM-facing ones (generation, gateway). Nothing logs: build-context reports
its warnings and work counts in manifest.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Collection

from .dataset import Dataset, dataset_to_csv, load_csv, normalize_missing, read_headers
from .errors import GatewayError, LLMCleanError
from .rules import SensorSpec, parse_rule_file, parse_sensor_specs, render_rule_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EXTERNAL = 2
EXIT_INTERNAL = 3

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


def _load_dataset(path: str, columns: Collection[str] | None = None) -> Dataset:
    """Load a CSV with the cyclic collector paused, then freeze the table.

    ``columns`` are the case-folded names to keep (see :func:`load_csv`);
    None keeps every column. The loader leaves no cyclic garbage, so a
    collection during the load would free nothing and only walk the table
    being built. Freezing keeps later collections off the loaded table;
    :func:`main` unfreezes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            d = load_csv(fh, columns=columns)
    finally:
        if enabled:
            gc.enable()
    gc.freeze()
    return d


def _make_backend(args: argparse.Namespace):
    """The backend the flags name."""
    from .gateway import API_KEY_ENV, ENDPOINT_ENV, RemoteBackend, ReplayBackend

    if args.backend == "replay":
        if not args.cassette:
            raise LLMCleanError("--backend replay requires --cassette")
        return ReplayBackend(args.cassette)
    endpoint = os.environ.get(ENDPOINT_ENV, DEFAULT_ENDPOINT)
    if not os.environ.get(API_KEY_ENV):
        raise GatewayError(f"remote backend needs {API_KEY_ENV} in the environment")
    return RemoteBackend(
        endpoint, args.model or "gpt-4", max_parallel=args.parallel
    )


def _load_specs(path: str | None) -> dict[str, SensorSpec]:
    if not path:
        return {}
    return parse_sensor_specs(Path(path).read_text(encoding="utf-8"), path)


def _parse_fd_pair(text: str | None) -> tuple[str | None, str | None]:
    if not text:
        return None, None
    determinant, _, dependent = text.partition(":")
    if not determinant or not dependent:
        raise LLMCleanError(f"--fd-pair expects determinant:dependent, got {text!r}")
    return determinant, dependent


def _parse_value_columns(text: str) -> list[tuple[str, str]]:
    pairs = []
    for item in text.split(","):
        column, _, label = item.partition(":")
        if not column or not label:
            raise LLMCleanError(f"--value-columns expects column:label pairs, got {item!r}")
        pairs.append((column, label))
    return pairs


def _load_ensemble_config(path: str):
    """The classify ensemble and its prompt templates from an --ensemble-config file."""
    from . import ensemble, generation

    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise LLMCleanError(f"{path}: ensemble config must be a JSON object")
    templates = dict(generation.DEFAULT_TEMPLATES)
    try:
        listed = raw.get("templates", [])
        if not isinstance(listed, list) or not all(isinstance(t, dict) for t in listed):
            raise LLMCleanError(f"{path}: templates must be a list of objects, got {listed!r}")
        for t in listed:
            template_id = t["id"]
            if not isinstance(template_id, str):
                raise LLMCleanError(f"{path}: template id {template_id!r} is not a string")
            where = f"{path}: template {template_id!r}"
            task_text, fmt = t["task_text"], t.get("format", "yes_no")
            for key, value in (("task_text", task_text), ("format", fmt)):
                if not isinstance(value, str):
                    raise LLMCleanError(f"{where}: {key} must be a string, got {value!r}")
            # classify parses every answer as yes/no, whatever a template asks.
            if fmt != "yes_no":
                raise LLMCleanError(f"{where} has format {fmt!r}; classify templates must be yes_no")
            few_shot = t.get("few_shot", [])
            if not isinstance(few_shot, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
                for e in few_shot
            ):
                raise LLMCleanError(
                    f"{where}: few_shot must be a list of [input, output] strings, got {few_shot!r}"
                )
            templates[template_id] = generation.PromptTemplate(
                id=template_id,
                task_text=task_text,
                response_format=generation.ResponseFormat.YES_NO,
                few_shot=tuple(map(tuple, few_shot)),
            )
        threshold, prompts = raw["threshold"], raw["prompts"]
        # A number with no fractional part (int() raises for inf and NaN);
        # a bool or a string is not one.
        if type(threshold) not in (int, float) or int(threshold) != threshold:
            raise LLMCleanError(f"{path}: threshold must be a JSON integer, got {threshold!r}")
        if not isinstance(prompts, list) or not all(isinstance(p, str) for p in prompts):
            raise LLMCleanError(f"{path}: prompts must be a list of strings, got {prompts!r}")
        config = ensemble.EnsembleConfig(threshold=int(threshold), prompts=tuple(prompts))
    except KeyError as exc:
        raise LLMCleanError(f"{path}: missing key {exc}") from None
    except (ValueError, OverflowError) as exc:  # int() of NaN or infinity
        raise LLMCleanError(f"{path}: {exc}") from None
    for prompt_id in config.prompts:
        if prompt_id not in templates:
            raise LLMCleanError(f"{path}: prompt {prompt_id!r} has no template")
        if config.prompts.count(prompt_id) > 1:  # one answer would count as several votes
            raise LLMCleanError(f"{path}: prompt {prompt_id!r} is listed more than once")
    return config, templates


def _classify(args, headers, backend):
    """The ``generation.DatasetClass`` of a table with these headers."""
    from . import ensemble, generation

    config, templates = ensemble.EnsembleConfig(threshold=1, prompts=("classify",)), None
    if args.ensemble_config:
        config, templates = _load_ensemble_config(args.ensemble_config)
    return generation.classify_dataset(headers, backend, config, templates)


def cmd_classify(args) -> int:
    with open(args.csv, "rb") as fh:
        headers = read_headers(fh)  # checks every record, keeps no column
    result = _classify(args, headers, _make_backend(args))
    print(result.value)
    return EXIT_OK


def cmd_build_context(args) -> int:
    from . import context_model, generation

    d = _load_dataset(args.csv)
    d = normalize_missing(d)
    # Every input is read before the first prompt, which may be a paid call.
    specs = _load_specs(args.sensors)
    value_columns = _parse_value_columns(args.value_columns) if args.value_columns else None
    for column, _ in value_columns or ():
        d.column_index(column)  # raises for a column the table lacks
    backend = _make_backend(args)
    t0 = time.perf_counter()

    if args.assume_class:
        dataset_class = generation.DatasetClass(args.assume_class)
    else:
        dataset_class = _classify(args, d.headers, backend)

    mapping: dict[str, str] = {}
    excluded: list[str] = []
    pair_counts: dict[str, int] = {}
    if dataset_class is generation.DatasetClass.IOT:
        if value_columns:
            d = generation.split_sensors(d, value_columns)
        assignments, warnings = generation.map_columns(d.headers, backend)
        mapping = dict(sorted(assignments.items()))
        d = generation.rename_columns(d, assignments)
        d, excluded = generation.generate_columns(d)
        sanitized = generation.sanitize_for_graph(d)
        graph, build_warnings = generation.build_iot_graph(sanitized, specs)
        warnings += build_warnings
    else:
        edges, warnings, pair_counts = generation.pair_relationships(d, backend)
        graph = generation.build_relational_graph(edges)

    rules = context_model.extract_ofds(graph)
    build_ms = (time.perf_counter() - t0) * 1000.0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only now: a failed build leaves nothing
    outputs = {
        "graph": out_dir / "context.nt",
        "transformed_csv": out_dir / "transformed.csv",
        "rules": out_dir / "rules.ofd",
    }
    outputs["graph"].write_text(context_model.serialize(graph), encoding="utf-8")
    outputs["transformed_csv"].write_text(dataset_to_csv(d), encoding="utf-8")
    outputs["rules"].write_text(render_rule_file(rules), encoding="utf-8")
    # Everything needed to reproduce the run with the same cassette.
    manifest = {
        "command": "build-context",
        "input": args.csv,
        "backend": args.backend,
        "class": dataset_class.value,
        "outputs": {name: str(path) for name, path in outputs.items()},
        "warnings": warnings,
        "excluded_concepts": excluded,
        "mapping": mapping,
        "pair_counts": pair_counts,
        "rule_counts": dict(Counter(r.kind.value for r in rules)),
        "timings_ms": {"build": build_ms},
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, out_dir / "manifest.json")
    print(f"class={dataset_class.value} triples={len(graph.triples)} rules={len(rules)}")
    return EXIT_OK


def _rules_for_detection(args):
    if args.rules:
        return parse_rule_file(Path(args.rules).read_text(encoding="utf-8"))
    from . import context_model

    graph = context_model.deserialize(Path(args.graph).read_text(encoding="utf-8"))
    return context_model.extract_ofds(graph)


def cmd_detect(args) -> int:
    from . import detection

    rules = _rules_for_detection(args)
    d = normalize_missing(_load_dataset(args.csv, detection.columns_read(rules)))
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
    from . import detection, evaluation

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
    from . import ensemble

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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (argparse's 2 is this
    program's external-service error)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parallel(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expects an integer of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="llmclean",
        description="Context-aware tabular data cleaning pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flags(p):
        p.add_argument("--backend", choices=("remote", "replay"), required=True)
        p.add_argument("--cassette", help="replay cassette JSON path")
        p.add_argument("--model", help="remote model name")
        p.add_argument("--ensemble-config", dest="ensemble_config",
                       help="JSON file with classify ensemble + templates")
        p.add_argument("--parallel", type=_parallel, default=4,
                       help="bound on concurrent remote backend calls")

    p = sub.add_parser("classify", help="print IoT or NonIoT for a CSV")
    p.add_argument("csv")
    add_backend_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build-context", help="generate graph, rules, transformed CSV")
    p.add_argument("csv")
    add_backend_flags(p)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--sensors", help="sensor spec JSON file")
    p.add_argument("--value-columns", dest="value_columns",
                   help="comma-separated column:label pairs to split into rows")
    p.add_argument("--assume-class", dest="assume_class", choices=("IoT", "NonIoT"))
    p.set_defaults(func=cmd_build_context)

    def add_rule_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--rules", help="rule file")
        source.add_argument("--graph", help="context graph .nt file (rules auto-extracted)")

    p = sub.add_parser("detect", help="enforce rules against a CSV")
    p.add_argument("csv")
    add_rule_source(p)
    p.add_argument("--sensors", help="sensor spec JSON file")
    p.add_argument("--exact-matching", dest="exact_matching", action="store_true",
                   help="disable blocking for matching rules")
    p.add_argument("--parallel", type=_parallel, default=4)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="inject errors, detect, score")
    p.add_argument("csv", help="clean CSV input")
    add_rule_source(p)
    p.add_argument("--sensors")
    p.add_argument("--missing-rate", dest="missing_rate", type=float, default=0.0)
    p.add_argument("--outlier-rate", dest="outlier_rate", type=float, default=0.0)
    p.add_argument("--fd-swap-rate", dest="fd_swap_rate", type=float, default=0.0)
    p.add_argument("--multiplier", type=float, default=100.0)
    p.add_argument("--missing-columns", dest="missing_columns")
    p.add_argument("--outlier-columns", dest="outlier_columns")
    p.add_argument("--fd-pair", dest="fd_pair", help="determinant:dependent")
    p.add_argument("--exact-matching", dest="exact_matching", action="store_true")
    p.add_argument("--parallel", type=_parallel, default=4)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="search best prompt-ensemble configs")
    p.add_argument("records", help="JSONL evaluation records")
    p.add_argument("--val-records", dest="val_records")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.5)
    p.add_argument("--tr-range", dest="tr_range", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GatewayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except (LLMCleanError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last resort: invariant violation
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        gc.unfreeze()


def entrypoint() -> None:
    code = main()
    # Interpreter shutdown ends with a full collection of a heap the OS is
    # about to free; a frozen heap is left out of it.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
