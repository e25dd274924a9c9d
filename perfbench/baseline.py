#!/usr/bin/env python3
"""Run every workload over seeds 1-10 and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

For each workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` once per
seed (untraced, for ``run_seconds``), prints each metric's median, quartiles
and sample count with its unit, the spread (quartile distance over median)
against the metric's bound, and ``failed_ratio`` over all runs. One traced
run per workload (seed 1) adds the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACED_SEED = 1
RESERVED_SEED = 9001  # kept for confirming later performance claims; never tune on it


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark once; return (result line, detail line)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-500:]}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                       "machine": platform.machine()},
              "run_seconds": seconds, "seeds": list(SEEDS),
              "reserved_seed": RESERVED_SEED, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        ok &= all(r["correct"] for r, _ in results)
        names = sorted({name for _, d in results for name in d["metrics"]})
        entry = {"shape": results[0][1]["shape"], "stub_delay_s": results[0][1]["stub_delay_s"],
                 "correct": all(r["correct"] for r, _ in results),
                 "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
                 "digests": {str(d["seed"]): d["digest"] for _, d in results},
                 "metrics": {}}
        print(f"{workload}: {len(results)} runs, failed_ratio {failed}/{attempted}")
        for name in names:
            values = [d["metrics"][name] for _, d in results if name in d["metrics"]]
            s = summarise(values)
            s["unit"] = units.get(name, "s" if name.endswith("_s") else "ratio")
            entry["metrics"][name] = s
            flag = ""
            if name in bounds:
                limit = bounds[name] / 3
                flag = f"  (bound {bounds[name]}, aim < {limit:.3f}: {'ok' if s['spread'] < limit else 'WIDE'})"
            print(f"  {name:<18} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n={s['n']}  spread {s['spread']:.4f}{flag}")
        traced, _ = run_once(workload, TRACED_SEED, seconds, 1)
        ok &= traced["correct"]
        entry["traced"] = {"seed": TRACED_SEED, "correct": traced["correct"],
                           "metrics": traced["metrics"]}
        print(f"  traced seed {TRACED_SEED}: correct={traced['correct']}")
        report["workloads"][workload] = entry
    out = ROOT / "perfbench" / "baseline.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
