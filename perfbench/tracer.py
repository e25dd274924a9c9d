"""Span recorder for traced ``llmclean`` CLI runs, and the per-layer report.

Run as a script, it behaves like the ``llmclean`` command but records spans:

    python3 perfbench/tracer.py --dump SPANS.json --run RUN_ID -- detect data.csv ...

Before calling ``llmclean.cli.main`` in-process it replaces the public
functions of each package module with timing wrappers, at the name through
which the caller looks them up (``cli.load_csv``, ``generation.complete``,
``detection.detect_fd_violations`` ...), so the traced run follows the exact
CLI path and no file under ``src/`` changes. Spans are kept in memory and
written as one JSON document when the command ends.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

KERNELS = {
    "detect_missing": "missing",
    "detect_fd_violations": "fd",
    "detect_matching_violations": "matching",
    "detect_capability_violations": "capability",
    "detect_temporal_violations": "temporal",
}


class Recorder:
    """Nested spans per thread; a worker thread's first span hangs off the
    span the main thread has open (the call that started the pool)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open_root(self, name: str, start: float) -> dict:
        span = {"id": 0, "name": name, "parent": None, "run": self.run_id, "start": start}
        self._main.append(0)
        return span

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``attrs(args, result, error)`` returns extra fields for the span; it
        runs after the span's end time is taken.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = {"id": next(self._ids), "name": name, "parent": parent, "run": self.run_id}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if error is not None:
                    span["error"] = type(error).__name__
                if attrs is not None:
                    span.update(attrs(args, result, error))
                self.spans.append(span)

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without a span (for hot inner calls)."""
        fn = getattr(owner, attr)
        calls = self.counters[name] = itertools.count()

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def counter_values(self) -> dict[str, int]:
        # itertools.count has no getter; reading it via next() moves it by one.
        return {name: next(c) for name, c in self.counters.items()}


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions where the pipeline looks them up."""
    from llmclean import cli, context_model, detection, evaluation, generation
    from llmclean.errors import ReplayMissError
    from llmclean.gateway import RemoteBackend

    def size(args, result, error):
        return {} if error else {"cells": result.n_rows * result.n_cols}

    rec.wrap(cli, "load_csv", "dataset.load_csv", size)
    rec.wrap(cli, "normalize_missing", "dataset.normalize_missing")
    rec.wrap(cli, "dataset_to_csv", "dataset.dataset_to_csv")
    rec.wrap(cli, "parse_rule_file", "rules.parse_rule_file")
    rec.wrap(context_model, "extract_ofds", "context_model.extract_ofds")
    rec.wrap(context_model, "serialize", "context_model.serialize",
             lambda a, r, e: {"triples": len(a[0].triples)})
    rec.wrap(context_model, "deserialize", "context_model.deserialize",
             lambda a, r, e: {} if e else {"triples": len(r.triples)})
    for fn in ("classify_dataset", "map_columns", "sanitize_for_graph", "build_iot_graph",
               "pair_relationships", "build_relational_graph"):
        rec.wrap(generation, fn, f"generation.{fn}")

    def call(args, result, error):
        backend, prompt = args[0], args[1]
        return {
            "prompt": hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16],
            "remote": isinstance(backend, RemoteBackend),
            "replay_miss": isinstance(error, ReplayMissError),
        }

    rec.wrap(generation, "complete", "gateway.complete", call)

    def report(args, result, error):
        if error:
            return {}
        return {"rules": len(args[1]), "findings": len(result.findings),
                "flagged_cells": len(result.flagged_cells)}

    rec.wrap(detection, "run_all", "detection.run_all", report)
    for fn, kernel in KERNELS.items():
        rec.wrap(detection, fn, f"detection.{kernel}",
                 lambda a, r, e: {} if e else {
                     "findings": len(r[0] if isinstance(r, tuple) else r)})
    rec.count_calls(detection, "similarity", "detection.matching.similarity_calls")
    rec.wrap(detection.DetectionReport, "to_json", "detection.to_json")
    rec.wrap(evaluation, "inject_errors", "evaluation.inject_errors",
             lambda a, r, e: {} if e else {"injected": len(r[1])})
    rec.wrap(evaluation, "score_detection", "evaluation.score_detection")


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    cli_argv = argv[sep + 1:]
    rec = Recorder(opts["--run"])
    root = rec.open_root(f"cli.{cli_argv[0]}", start)
    from llmclean import cli

    install(rec)
    try:
        code = cli.main(cli_argv)
    finally:
        root["end"] = time.perf_counter()
        rec.spans.append(root)
        payload = {"run": rec.run_id, "spans": rec.spans, "counters": rec.counter_values()}
        with open(opts["--dump"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


# --------------------------------------------------------------------------
# Reading the dumps back: per-layer metrics.


def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile; 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(dumps: list[dict], process_walls: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass over a workload's commands.

    ``dumps`` are the span documents of its commands, ``process_walls`` each
    command's process wall time as the parent measured it. A command's self
    time is that wall time minus the part its top-level layer spans cover
    (interpreter start-up and exit included). Returns the metrics plus any
    problems: a command whose layer spans and self time do not add up to its
    wall time within 5%, which happens when layer spans overlap.
    """
    m: dict[str, float] = defaultdict(float)
    problems: list[str] = []
    calls: list[float] = []
    busy: list[tuple[float, float]] = []
    prompts: set[str] = set()
    for dump in dumps:
        spans = dump["spans"]
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)
        for name, value in dump["counters"].items():
            m[name] += value
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            kids = [(c["start"], c["end"]) for c in children[s["id"]]]
            if s["parent"] is None:
                command = name.split(".", 1)[1]
                wall = process_walls[command]
                self_s = wall - union_length(kids)
                m[f"cli.{command}.self_s"] += self_s
                m[f"cli.{command}.wall_s"] += wall
                covered = sum(e - b for b, e in kids) + self_s
                if abs(covered - wall) > 0.05 * wall:
                    problems.append(
                        f"{command}: layer spans + self time {covered:.3f}s vs wall {wall:.3f}s"
                    )
                continue
            if name == "gateway.complete":  # timed by gateway.busy_s and gateway.call_ms.*
                calls.append(dur * 1000.0)
                busy.append((s["start"], s["end"]))
                prompts.add(s["prompt"])
                m["gateway.remote_calls"] += s["remote"]
                m["gateway.replay.misses"] += s["replay_miss"]
                continue
            m[f"{name}.s"] += dur
            if name == "detection.run_all":
                m["detection.merge.s"] += dur - union_length(kids)
                for key in ("rules", "findings", "flagged_cells"):
                    m[f"detection.{key}"] += s.get(key, 0)
            elif name.split(".")[1] in KERNELS.values():
                m[f"{name}.calls"] += 1
                m[f"{name}.findings"] += s.get("findings", 0)
            elif name == "dataset.load_csv":
                m["dataset.load_csv.cells"] += s.get("cells", 0)
            elif name == "context_model.extract_ofds":
                m["context_model.extract_ofds.calls"] += 1
            elif name in ("context_model.serialize", "context_model.deserialize"):
                m["context_model.triples"] = max(m["context_model.triples"], s.get("triples", 0))
            elif name == "evaluation.inject_errors":
                m["evaluation.injected"] += s.get("injected", 0)
    m["gateway.complete.calls"] = len(calls)
    m["gateway.complete.distinct"] = len(prompts)
    m["gateway.useful_ratio"] = len(prompts) / len(calls) if calls else 0.0
    m["gateway.call_ms.p50"] = _quantile(calls, 50)
    m["gateway.call_ms.p95"] = _quantile(calls, 95)
    m["gateway.busy_s"] = union_length(busy)
    m["rules.count"] = m.pop("detection.rules", 0)
    m["detection.useful_ratio"] = (
        m["detection.flagged_cells"] / m["detection.findings"] if m["detection.findings"] else 0.0
    )
    return dict(m), problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
