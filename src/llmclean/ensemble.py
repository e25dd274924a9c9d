"""Consensus voting across prompt answers and best-ensemble search.

The search sweeps every consensus threshold from 0 to ``tr_range`` and every
non-empty prompt subset, keeps the configurations with the best mean F1 on
the training records, then re-scores those candidates on the validation
records and returns the validation winners.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .frozen import Frozen, set_field

# Tolerance when comparing mean-F1 scores for ties; identical arithmetic
# normally produces identical floats, this absorbs summation-order noise.
F1_EPS = 1e-12


class EvalRecord(Frozen):
    """One instance: its true label set and each prompt's answered set."""

    __slots__ = _fields = ("instance_id", "truth", "per_prompt")

    def __init__(
        self, instance_id: str, truth: frozenset[str], per_prompt: Mapping[str, frozenset[str]]
    ):
        set_field(self, "instance_id", instance_id)
        set_field(self, "truth", truth)
        set_field(self, "per_prompt", per_prompt)

    @classmethod
    def make(
        cls,
        instance_id: str,
        truth: Iterable[str],
        per_prompt: Mapping[str, Iterable[str]],
    ) -> "EvalRecord":
        return cls(
            instance_id,
            frozenset(truth),
            {p: frozenset(a) for p, a in per_prompt.items()},
        )


class EnsembleConfig(Frozen):
    __slots__ = _fields = ("threshold", "prompts")

    def __init__(self, threshold: int, prompts: tuple[str, ...]):
        if not prompts:
            raise ValueError("ensemble needs at least one prompt")
        if not 0 <= threshold <= len(prompts):
            raise ValueError(f"threshold {threshold} outside 0..{len(prompts)}")
        set_field(self, "threshold", threshold)
        set_field(self, "prompts", tuple(sorted(prompts)))


class SearchSpec(Frozen):
    __slots__ = _fields = ("tr_range",)

    def __init__(self, tr_range: int):
        if tr_range < 0:
            raise ValueError("tr_range must be >= 0")
        set_field(self, "tr_range", tr_range)


def find_consensus(results: Sequence[Iterable[str]], threshold: int) -> list[str]:
    """Labels whose vote count across the answer sets reaches the threshold.

    Each answer set contributes at most one vote per label; the output is
    sorted. Threshold 0 returns the union of all labels.
    """
    counts: Counter[str] = Counter()
    for answer_set in results:
        counts.update(set(answer_set))
    return sorted(label for label, count in counts.items() if count >= threshold)


def score_micro_f1(
    predicted: Iterable[str], truth: Iterable[str]
) -> tuple[float, float, float]:
    """Set precision/recall/F1 with the empty-set conventions.

    An empty prediction against an empty truth scores 1.0; an empty side
    against a non-empty one scores 0.0.
    """
    pred = frozenset(predicted)
    true = frozenset(truth)
    inter = len(pred & true)
    precision = (1.0 if not true else 0.0) if not pred else inter / len(pred)
    recall = (1.0 if not pred else 0.0) if not true else inter / len(true)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def mean_ensemble_f1(
    records: Sequence[EvalRecord], prompts: Sequence[str], threshold: int
) -> float:
    """Mean per-instance F1 of the consensus answer over the records."""
    total = 0.0
    for record in records:
        consensus = find_consensus([record.per_prompt[p] for p in prompts], threshold)
        total += score_micro_f1(consensus, record.truth)[2]
    return total / len(records)


def _subsets(prompts: Sequence[str]) -> list[tuple[str, ...]]:
    ordered = sorted(prompts)
    out: list[tuple[str, ...]] = []
    for size in range(1, len(ordered) + 1):
        out.extend(combinations(ordered, size))
    return out


def _validate_records(records: Sequence[EvalRecord], prompts: Sequence[str], name: str):
    if not records:
        raise ValueError(f"{name} records must be non-empty")
    for record in records:
        for p in prompts:
            if p not in record.per_prompt:
                raise ValueError(
                    f"record {record.instance_id!r} has no answer for prompt {p!r}"
                )


def find_best_ensemble(
    train: Sequence[EvalRecord],
    val: Sequence[EvalRecord],
    prompts: Sequence[str],
    spec: SearchSpec,
) -> list[EnsembleConfig]:
    """Two-phase exhaustive search for the best (threshold, subset) configs.

    Phase 1 keeps every admissible configuration whose mean train F1 equals
    the running maximum; phase 2 re-scores the retained configurations on the
    validation records and returns those achieving the validation maximum,
    sorted by (threshold, subset). A threshold larger than the subset size
    would force an empty consensus and can never be returned, so those
    combinations are excluded from the competition; returned configs always
    satisfy ``threshold <= len(prompts)``.
    """
    if not prompts:
        raise ValueError("prompt universe must be non-empty")
    _validate_records(train, prompts, "train")
    _validate_records(val, prompts, "validation")

    scored: list[tuple[int, tuple[str, ...], float]] = []
    best_eval = 0.0
    for threshold in range(spec.tr_range + 1):
        for subset in _subsets(prompts):
            if threshold > len(subset):
                continue  # consensus would be empty by construction
            f1 = mean_ensemble_f1(train, subset, threshold)
            if f1 > best_eval:
                best_eval = f1
            scored.append((threshold, subset, f1))

    retained = [
        (threshold, subset)
        for threshold, subset, f1 in scored
        if f1 >= best_eval - F1_EPS
    ]

    val_scored = [
        (threshold, subset, mean_ensemble_f1(val, subset, threshold))
        for threshold, subset in retained
    ]
    best_val = max(f1 for _, _, f1 in val_scored)
    winners = sorted(
        (threshold, subset)
        for threshold, subset, f1 in val_scored
        if f1 >= best_val - F1_EPS
    )
    return [EnsembleConfig(threshold, subset) for threshold, subset in winners]


def _labels(value: object) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"expected a list of string labels, got {value!r}")
    return value


def read_records_jsonl(text: str) -> list[EvalRecord]:
    """Parse records from JSON Lines: {"instance":..,"truth":[..],"answers":{..}}.

    Labels are lists of strings; anything else is a ValueError naming the line.
    """
    records: list[EvalRecord] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            answers = obj["answers"]
            if not isinstance(answers, dict):
                raise TypeError(f"answers must be an object, got {answers!r}")
            records.append(
                EvalRecord.make(
                    str(obj["instance"]),
                    _labels(obj["truth"]),
                    {prompt: _labels(answer) for prompt, answer in answers.items()},
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"bad record on line {line_no}: {exc}") from None
    return records


def write_records_jsonl(records: Sequence[EvalRecord]) -> str:
    lines = [
        json.dumps(
            {
                "instance": r.instance_id,
                "truth": sorted(r.truth),
                "answers": {p: sorted(a) for p, a in sorted(r.per_prompt.items())},
            },
            sort_keys=True,
        )
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def configs_to_json(configs: Sequence[EnsembleConfig]) -> str:
    return json.dumps(
        [{"threshold": c.threshold, "prompts": list(c.prompts)} for c in configs],
        indent=2,
    )
