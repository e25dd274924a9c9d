#!/usr/bin/env python3
"""Benchmark for the llmclean CLI: end-to-end metrics, or a per-layer trace.

    python3 perfbench/run.py --workload detect-20k --seed 1 --seconds 35 --trace 0

Run from the repository root. Each run generates the workload's input files
from ``--seed`` and makes one untimed warm-up pass, then runs the workload's
CLI commands back to back, one OS process per command, until ``--seconds``
have passed; every command starts after the one before it has exited (a
closed loop with one client). Before each timed pass the inputs are generated again, to time set-up across the whole
run (``setup_s`` is the median). Every output is checked. With ``--trace 1``
the run then makes one traced pass (``perfbench/tracer.py``) and reports
per-layer metrics instead of end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. ``attempted``
and ``failed`` count CLI invocations; an invocation fails if it exits
non-zero or one of its output checks fails. The metric names and units are
read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from stub import StubServer
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".perfbench_runs"
# Runs the CLI as the ``llmclean`` console script does, then writes the
# process's peak RSS (VmHWM, in kB) to the file named by its first argument.
# The child's ``ru_maxrss`` would not do: after a vfork/exec it also counts
# the benchmark's own resident memory at the time of the spawn.
CLI_ENTRY = """\
import atexit, sys
from llmclean.cli import entrypoint
hwm = sys.argv.pop(1)
def write_peak():
    with open("/proc/self/status") as status, open(hwm, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(write_peak)
sys.argv[0] = "llmclean"
entrypoint()
"""
STUB_DELAY_S = 0.005
RUN_DEADLINE_S = 150.0  # every command still running this long after the start is killed
ARTIFACTS = {  # command -> files it must write into its --out-dir
    "build-context": ("context.nt", "rules.ofd", "transformed.csv", "manifest.json"),
    "detect": ("report.json",),
    "evaluate": ("dirty.csv", "truth.jsonl", "metrics.json"),
}
TIMING_FIELDS = {"duration_ms", "detection_ms", "timings_ms", "input", "outputs"}


@dataclass
class Invocation:
    command: str
    wall_s: float
    rss_mb: float = 0.0  # peak RSS of the CLI process (untraced passes only)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    flagged: frozenset = frozenset()
    f1: float | None = None
    stub_requests: int = 0
    stub_wait_s: float = 0.0


@dataclass
class Pass:
    """One run of a workload's commands, from input file to final report."""

    invocations: list[Invocation]
    dumps: list[dict] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)


def run_process(argv: list[str], env: dict, log_prefix: Path, timeout: float) -> tuple[int, float]:
    """Run one process to completion; return (exit code, wall s).

    The process is killed after ``timeout`` seconds, or at once if the
    benchmark itself is interrupted; either way it is waited for.
    """
    with open(f"{log_prefix}.stdout", "wb") as out, open(f"{log_prefix}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return code, wall


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _strip(obj: dict) -> bytes:
    """JSON with run-dependent fields (timings, paths) removed."""
    return json.dumps({k: v for k, v in obj.items() if k not in TIMING_FIELDS},
                      sort_keys=True).encode("utf-8")


def check_outputs(inv: Invocation, out_dir: Path, inputs) -> None:
    """Parse the command's artifacts and record their digest and findings."""
    missing = [name for name in ARTIFACTS[inv.command] if not (out_dir / name).is_file()]
    if missing:
        inv.problems.append(f"missing outputs {missing}")
        return
    try:
        if inv.command == "build-context":
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            inv.digest = _digest([(out_dir / n).read_bytes()
                                  for n in ("context.nt", "rules.ofd", "transformed.csv")]
                                 + [_strip(manifest)])
        elif inv.command == "detect":
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            inv.digest = _digest([_strip(report)])
            inv.flagged = frozenset((f["row"], f["column"]) for f in report["findings"])
            if report["skipped_rules"]:
                inv.problems.append(f"skipped rules {report['skipped_rules'][:3]}")
        else:
            metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
            truth = (out_dir / "truth.jsonl").read_text(encoding="utf-8").splitlines()
            inv.digest = _digest([_strip(metrics), (out_dir / "dirty.csv").read_bytes(),
                                  "\n".join(truth).encode("utf-8")])
            inv.f1 = float(metrics["f1"])
            want = inputs.expected_injected
            if metrics["injected"] != want or len(truth) != want:
                inv.problems.append(
                    f"injected {metrics['injected']} (truth {len(truth)}), ErrorSpec implies {want}"
                )
    except (ValueError, KeyError, TypeError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")


def score(flagged: frozenset, truth: frozenset) -> tuple[float, float, float]:
    tp = len(flagged & truth)
    precision = tp / len(flagged) if flagged else 1.0
    recall = tp / len(truth) if truth else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def files_containing(paths: list[Path], needle: bytes) -> list[str]:
    hits = []
    for path in paths:
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        hits += [str(p.relative_to(ROOT)) for p in files if needle in p.read_bytes()]
    return hits


class Runner:
    """Runs passes of one workload on one set of generated inputs."""

    def __init__(self, workload, inputs, work: Path, env: dict, token: str, stub, deadline: float):
        self.workload = workload
        self.deadline = deadline  # time.perf_counter() value by which every command is killed
        self.inputs = inputs
        self.work = work
        self.env = env
        self.token = token.encode("utf-8")
        self.stub = stub
        self.reference: dict[str, str] = {}  # command -> artifact digest of the first pass
        self.pass_count = 0

    def run_pass(self, traced: bool) -> Pass:
        self.pass_count += 1
        pass_dir = self.work / f"pass{self.pass_count}"
        run_id = f"{self.workload.name}-{pass_dir.name}"
        result = Pass([])
        for command, argv, out_dir in self.workload.commands(self.inputs, pass_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
            log = pass_dir / command
            if traced:
                dump = pass_dir / f"{command}.spans.json"
                prog = [sys.executable, str(BENCH_DIR / "tracer.py"),
                        "--dump", str(dump), "--run", run_id, "--", *argv]
            else:
                hwm = pass_dir / f"{command}.hwm"
                prog = [sys.executable, "-c", CLI_ENTRY, str(hwm), *argv]
            before = self.stub.totals() if self.stub else (0, 0.0)
            code, wall = run_process(prog, self.env, log, self.deadline - time.perf_counter())
            inv = Invocation(command, wall)
            if not traced:
                try:
                    inv.rss_mb = int(hwm.read_text(encoding="utf-8")) / 1024.0
                except (OSError, ValueError) as exc:
                    inv.problems.append(f"no peak RSS: {exc!r}")
            if self.stub:
                after = self.stub.totals()
                inv.stub_requests, inv.stub_wait_s = after[0] - before[0], after[1] - before[1]
            if code != 0:
                tail = Path(f"{log}.stderr").read_text(errors="replace")[-300:]
                inv.problems.append(f"exit code {code}: {tail.strip()}")
            else:
                check_outputs(inv, out_dir, self.inputs)
            if traced and not inv.problems:
                try:
                    result.dumps.append(json.loads(dump.read_text(encoding="utf-8")))
                except (OSError, ValueError) as exc:
                    inv.problems.append(f"unreadable span dump: {exc!r}")
            if inv.digest and inv.digest != self.reference.setdefault(command, inv.digest):
                inv.problems.append("artifacts differ from the first pass of this run")
            if self.inputs.truth and inv.command == "detect" and not inv.problems:
                precision, _, inv.f1 = score(inv.flagged, self.inputs.truth)
                if precision < 1.0:
                    wrong = sorted(inv.flagged - self.inputs.truth)[:3]
                    inv.problems.append(f"flagged clean cells, e.g. {wrong}")
            leaks = files_containing(
                [out_dir, Path(f"{log}.stdout"), Path(f"{log}.stderr")]
                + ([dump] if traced and dump.exists() else []), self.token)
            if leaks:
                inv.problems.append(f"API key written to {leaks}")
            result.invocations.append(inv)
        return result


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class SetUps:
    """Generates one workload's inputs, timing each generation.

    The first copy is kept as the input of every pass; later copies are
    compared with it and removed.
    """

    workload: object
    seed: int
    scale: float
    work: Path
    inputs: object = None
    times: list[float] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)

    def run(self, count: int) -> None:
        for _ in range(count):
            target = self.work / f"inputs{len(self.times)}"
            start = time.perf_counter()
            generated = self.workload.generate(self.seed, self.scale, target)
            self.times.append(time.perf_counter() - start)
            self.digests.add(_digest([p.read_bytes() for p in sorted(target.iterdir())]))
            if self.inputs is None:
                self.inputs = generated
            else:
                shutil.rmtree(target)


def end_to_end(inputs, passes: list[Pass], setup_times: list[float]) -> dict:
    pipeline = median([p.seconds for p in passes])
    metrics = {
        "setup_s": median(setup_times),
        "pipeline_s": pipeline,
        "cells_per_s": inputs.cells / pipeline,
        "peak_rss_mb": max(inv.rss_mb for p in passes for inv in p.invocations),
    }
    f1s = [inv.f1 for p in passes for inv in p.invocations if inv.f1 is not None]
    if f1s:
        metrics["f1"] = f1s[-1]
    for command in dict.fromkeys(inv.command for inv in passes[0].invocations):
        metrics[f"{command.replace('-', '_')}_s"] = median(
            [inv.wall_s for p in passes for inv in p.invocations if inv.command == command]
        )
    return metrics


def measure(workload, args, work: Path) -> tuple[list[Pass], list[Pass], Pass | None, dict, list[str]]:
    """Set up, run the untraced passes (and the traced one); check the run.

    Returns the timed passes, every pass run (the warm-up and the traced one
    too, for the output checks), the traced pass, the metrics and the
    run-level problems.
    """
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = SetUps(workload, args.seed, args.scale, work)
    setups.run(1)
    inputs, problems = setups.inputs, []
    token = f"perfbench-stub-token-{args.seed}"
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": os.environ.get("HOME", str(ROOT)),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(ROOT / "src"),
        "LLMCLEAN_API_KEY": token,
    }
    with contextlib.ExitStack() as stack:
        stub = None
        if workload.uses_stub:
            stub = stack.enter_context(StubServer(inputs.answers, token, STUB_DELAY_S))
            env["LLMCLEAN_ENDPOINT"] = stub.endpoint
        runner = Runner(workload, inputs, work, env, token, stub, deadline)
        warmup = runner.run_pass(traced=False)  # fills the page and .pyc caches; not timed
        passes: list[Pass] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            setups.run(workload.setups_per_pass)
            passes.append(runner.run_pass(traced=False))
        traced = runner.run_pass(traced=True) if args.trace else None
    if stub is not None and (stub.unknown or stub.unauthorized):
        problems.append(f"stub saw {stub.unknown} unknown prompts, {stub.unauthorized} bad tokens")
    if len(setups.digests) != 1:
        problems.append("inputs differ between set-ups of one seed")

    metrics = end_to_end(inputs, passes, setups.times)
    if traced is not None:
        walls = {inv.command: inv.wall_s for inv in traced.invocations}
        layers, trace_problems = layer_metrics(traced.dumps, walls)
        problems += trace_problems
        requests = sum(inv.stub_requests for inv in traced.invocations)
        layers["gateway.stub.requests"] = requests
        layers["gateway.stub.wait_s"] = sum(inv.stub_wait_s for inv in traced.invocations)
        layers["gateway.retries"] = requests - layers.pop("gateway.remote_calls", 0)
        layers["trace.overhead_ratio"] = traced.seconds / metrics["pipeline_s"]  # median pass
        metrics = layers
    digest = _digest([runner.reference[c].encode() for c in sorted(runner.reference)])
    checked = [warmup, *passes] + ([traced] if traced else [])
    return passes, checked, traced, dict(metrics, digest=digest), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (self-tests use toy sizes)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: kill and wait for the running CLI
    # process, stop the stub and remove the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "llmclean" / "cli.py").is_file():
        print(f"error: no llmclean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import llmclean.cli  # noqa: F401 - compiles every module once, before any timing
    import workloads  # needs the sources on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = RUNS_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        passes, checked, traced, metrics, problems = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()

    invocations = [inv for p in checked for inv in p.invocations]
    failed = sum(1 for inv in invocations if inv.problems)
    for inv in invocations:
        for problem in inv.problems:
            print(f"FAIL {inv.command}: {problem}")
    for problem in problems:
        print(f"FAIL {workload.name}: {problem}")
    if traced is None:
        metrics["failed_ratio"] = failed / len(invocations)
    else:  # a layer the workload never reaches reads 0
        metrics = {m["name"]: 0.0 for m in wanted} | metrics
    digest = metrics.pop("digest")

    shape = " ".join(f"{k}={v}" for k, v in workload.shape(args.scale).items())
    print(f"workload {workload.name} seed {args.seed} {shape} passes={len(passes)}"
          f"{' traced=1' if traced else ''}")
    print("  pass seconds: " + " ".join(f"{p.seconds:.3f}" for p in passes))
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith(("_s", ".s")) else "ratio")
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print("detail " + json.dumps({"workload": workload.name, "seed": args.seed,
                                  "shape": workload.shape(args.scale), "digest": digest,
                                  "stub_delay_s": STUB_DELAY_S if workload.uses_stub else None,
                                  "metrics": metrics}, sort_keys=True))

    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: metrics not measured: {absent}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
