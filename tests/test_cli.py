from __future__ import annotations

import ast
import contextlib
import csv
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import llmclean
from llmclean.cli import EXIT_EXTERNAL, EXIT_INPUT, EXIT_OK, main
from llmclean.context_model import (
    META_VALUE,
    PART_OF,
    RELATED_TO,
    Concept,
    ContextGraph,
    ObjKind,
    Triple,
    deserialize,
    edge,
    entity,
    extract_ofds,
    sensor_bounds,
    serialize,
)
from llmclean.dataset import dataset_to_csv, load_csv, normalize_missing
from llmclean.detection import run_all
from llmclean.ensemble import EvalRecord, write_records_jsonl
from llmclean.gateway import ReplayBackend, render_prompt
from llmclean.generation import RELATED_TEMPLATE
from llmclean.rules import SensorSpec, parse_rule_file, parse_sensor_specs

from conftest import (
    IOT_HEADERS,
    IOT_TOPOLOGY,
    make_cassette,
    make_iot_dataset,
    iot_pipeline_responses,
    write_sensor_specs,
)
from oracles import oracle_findings


@pytest.fixture
def iot_csv(tmp_path) -> str:
    path = tmp_path / "iot.csv"
    path.write_text(dataset_to_csv(make_iot_dataset()), encoding="utf-8")
    return str(path)


@pytest.fixture
def cassette(tmp_path, iot_csv) -> str:
    headers = load_csv(Path(iot_csv).read_bytes()).headers
    return make_cassette(tmp_path, iot_pipeline_responses(headers), "iot.json")


def test_importing_cli_does_not_load_requests():
    # Only the remote backend speaks HTTP; detect and replay runs skip those
    # imports, and only the commands that ask a backend load generation/gateway.
    modules = ("requests", "urllib.request", "http.client", "ssl",
               "llmclean.generation", "llmclean.gateway")
    code = f"import sys, llmclean.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _python(code: str, *args: str, stderr: bool = False) -> str:
    """Stdout (or stderr) of ``python -c code args`` in a fresh interpreter on
    the sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return done.stderr if stderr else done.stdout


# Runs the CLI as the console script does and prints the modules it imported
# beyond what the bare interpreter had loaded.
_FOOTPRINT = """\
import json, sys
bare = set(sys.modules)
from llmclean.cli import entrypoint
sys.argv = ["llmclean", *sys.argv[1:]]
try:
    entrypoint()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


class _AnswerNo(BaseHTTPRequestHandler):
    """A chat-completions endpoint that answers "no" to every prompt."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.dumps({"choices": [{"message": {"content": "no"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_each_command_imports_only_what_it_runs(tmp_path, monkeypatch):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("sensor,value\ns1,1\n,2\ns2,3\n")
    wide_path = tmp_path / "wide.csv"  # three column pairs: a remote fan-out
    wide_path.write_text("a,b,c\n1,x,p\n2,y,q\n3,z,r\n")
    rules_path = tmp_path / "rules.ofd"
    rules_path.write_text('denial: t1&EQ(t1.sensor,"")\n')
    cassette = make_cassette(tmp_path, iot_pipeline_responses(["sensor", "value"]))
    relational = make_cassette(tmp_path, {
        render_prompt(RELATED_TEMPLATE, {"col_a": "sensor", "col_b": "value"}): "no",
    }, name="relational.json")
    llm = {"llmclean.generation", "llmclean.gateway"}
    # No command builds class methods at start-up (inspect alone costs ~7 ms)
    # or loads statistics. No command hashes: the cassette entries record
    # their prompts, and hashlib loads OpenSSL (~3.5 MB). No command logs or
    # loads a thread pool; the IoT build-context asks one prompt at a time and
    # starts no thread, and a replay opens no socket. A remote run on an
    # http:// endpoint loads no TLS and none of urllib's HTTP stack.
    everywhere = {"dataclasses", "inspect", "statistics", "hashlib", "_hashlib", "logging",
                  "concurrent.futures"}
    http_stack = {"ssl", "_ssl", "http.client", "urllib.request", "email"}
    server = HTTPServer(("127.0.0.1", 0), _AnswerNo)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-test")
    monkeypatch.setenv("LLMCLEAN_ENDPOINT", f"http://127.0.0.1:{server.server_port}/v1")
    for argv, absent in [
        (["detect", str(csv_path), "--rules", str(rules_path), "--out-dir", str(tmp_path / "d")],
         llm | {"llmclean.ensemble", "llmclean.evaluation", "llmclean.context_model"}),
        (["evaluate", str(csv_path), "--rules", str(rules_path), "--missing-rate", "0.3",
          "--seed", "1", "--out-dir", str(tmp_path / "e")], llm),
        (["classify", str(csv_path), "--backend", "replay", "--cassette", cassette],
         {"llmclean.detection", "llmclean.evaluation", "socket"}),
        (["build-context", str(csv_path), "--backend", "replay", "--cassette", cassette,
          "--assume-class", "IoT", "--out-dir", str(tmp_path / "b")],
         {"llmclean.detection", "llmclean.evaluation", "threading", "socket"}),
        (["detect", str(csv_path), "--graph", str(tmp_path / "b" / "context.nt"),
          "--out-dir", str(tmp_path / "g")],
         llm | {"llmclean.ensemble", "llmclean.evaluation"}),
        (["build-context", str(csv_path), "--backend", "replay", "--cassette", relational,
          "--assume-class", "NonIoT", "--out-dir", str(tmp_path / "r")],
         {"llmclean.detection", "llmclean.evaluation", "socket"}),
        (["build-context", str(wide_path), "--backend", "remote", "--out-dir",
          str(tmp_path / "w")], {"llmclean.detection", "llmclean.evaluation"} | http_stack),
    ]:
        loaded = set(json.loads(_python(_FOOTPRINT, *argv).splitlines()[-1]))
        assert "llmclean.dataset" in loaded
        # A name in ``absent`` also stands for its submodules (logging.handlers).
        unwanted = {m for m in loaded for name in absent | everywhere
                    if m == name or m.startswith(name + ".")}
        assert not unwanted, (argv[:2], unwanted)
    server.shutdown()
    server.server_close()
    manifest = json.loads((tmp_path / "w" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["pair_counts"]["asked"] == 3, manifest


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path, iot_csv, cassette):
    # The value types hash strings and enums, whose hashes follow the seed; no
    # artifact may depend on the order of a set or dict keyed by them.
    specs = write_sensor_specs(tmp_path)
    out = tmp_path / "out"
    dirty, rules = str(out / "e" / "dirty.csv"), str(out / "b" / "rules.ofd")
    commands = [
        ["classify", iot_csv, "--backend", "replay", "--cassette", cassette],
        ["build-context", iot_csv, "--backend", "replay", "--cassette", cassette,
         "--sensors", specs, "--out-dir", str(out / "b")],
        ["evaluate", iot_csv, "--rules", rules, "--sensors", specs, "--missing-rate", "0.02",
         "--outlier-rate", "0.03", "--fd-pair", "Sensor:Device", "--fd-swap-rate", "0.04",
         "--seed", "5", "--out-dir", str(out / "e")],
        ["detect", dirty, "--graph", str(out / "b" / "context.nt"), "--sensors", specs,
         "--out-dir", str(out / "g")],
        ["detect", dirty, "--rules", rules, "--sensors", specs, "--out-dir", str(out / "r")],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath}
        stdout = [
            subprocess.run([sys.executable, "-m", "llmclean.cli", *argv], capture_output=True,
                           text=True, env=env, check=True).stdout
            for argv in commands
        ]
        artifacts = {"classify": stdout[0]}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":  # all but the timings
                payload = json.loads(text)
                for key in ("timings_ms", "duration_ms", "detection_ms"):
                    payload.pop(key, None)
                text = json.dumps(payload, sort_keys=True)
            artifacts[str(path.relative_to(out))] = text
        runs.append(artifacts)
    assert len(runs[0]) == 10 and json.loads(runs[0]["r/report.json"])["findings"]
    assert runs[0] == runs[1] == runs[2]


def test_package_exports_load_on_first_use():
    code = """\
import sys, llmclean
assert "llmclean.dataset" not in sys.modules
values = [getattr(llmclean, name) for name in llmclean.__all__]
from llmclean import dataset, evaluation
assert llmclean.load_csv is dataset.load_csv and llmclean.ErrorSpec is evaluation.ErrorSpec
try:
    llmclean.no_such_name
except AttributeError:
    print("ok", len(values))
"""
    assert _python(code).split() == ["ok", str(len(llmclean.__all__))]


def test_package_needs_only_the_standard_library():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "requests" for n in names), path


# Documented library helpers that no command calls, and why each stays.
_UNREACHED_ALLOWED = {
    "gateway.save_cassette": "writes the cassette format the replay backend reads",
    "ensemble.write_records_jsonl": "writes the records the ensemble command reads",
    "generation.CONCEPT_TEMPLATE": "asked by no stage; the benchmark's cassette writer imports it",
    "dataset.Dataset.from_lists": "the row constructor the tests and oracles build tables with",
    "dataset.Cell.timestamp": "the timestamp constructor the tests and oracles build tables with",
    "dataset.Cell.is_missing": "read by the row-based oracles; the pipeline reads payloads",
}


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names a module reads, as plain names, attributes or imported names,
    leaving out the subtree ``skip`` (a name's own definition)."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _is_enum(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases)


def test_every_public_name_is_reached():
    """Every public module-level name, every public method of a package class
    and every Enum member is named somewhere outside its own definition (for a
    member: outside its class). A name in ``llmclean._EXPORTS`` is a string
    there, so a re-export alone does not count as reached."""
    package = Path(llmclean.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    unreached = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_names_used(t) for m, t in trees.items() if m != module))
        for cls in ast.walk(tree):  # classes nested in functions too
            if isinstance(cls, ast.ClassDef):
                unreached += [
                    f"{module}.{cls.name}.{method.name}"
                    for method in cls.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not method.name.startswith("_")
                    and method.name not in elsewhere
                    and method.name not in _names_used(tree, skip=method)
                ]
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_enum(node):
                outside = elsewhere | _names_used(tree, skip=node)
                unreached += [
                    f"{module}.{node.name}.{t.id}"
                    for member in node.body if isinstance(member, ast.Assign)
                    for t in member.targets
                    if isinstance(t, ast.Name) and t.id not in outside
                ]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if (
                    not name.startswith("_")
                    and name not in elsewhere
                    and name not in _names_used(tree, skip=node)
                ):
                    unreached.append(f"{module}.{name}")
    assert sorted(set(unreached) - set(_UNREACHED_ALLOWED)) == []
    assert sorted(set(_UNREACHED_ALLOWED) - set(unreached)) == []


# Options a command accepts without reading them, and why each stays.
_UNREAD_OPTIONS_ALLOWED = {
    ("detect", "parallel"): "perfbench/workloads.py passes it; the next benchmark change drops it",
    ("evaluate", "parallel"): "perfbench/workloads.py passes it; the next benchmark change drops it",
}


def _args_read(functions: dict[str, ast.FunctionDef], name: str, param: str) -> set[str]:
    """The attributes function ``name`` reads from its parameter ``param``,
    and those read by the module's functions it passes ``param`` to."""
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == param:
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in functions:
            callee = functions[node.func.id]
            for arg, target in zip(node.args, callee.args.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    read |= _args_read(functions, node.func.id, target.arg)
    return read


def test_every_option_is_read_by_its_command():
    from llmclean import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    parser = cli.build_parser()
    assert [a.dest for a in parser._actions] == ["help", "command"]  # no global option
    [commands] = [a for a in parser._actions if isinstance(a.choices, dict)]
    unread = set()
    for command, sub in commands.choices.items():
        read = _args_read(functions, sub.get_default("func").__name__, "args")
        unread |= {(command, a.dest) for a in sub._actions if a.dest not in read | {"help"}}
    assert unread == set(_UNREAD_OPTIONS_ALLOWED)


class TestClassify:
    def test_prints_iot(self, iot_csv, cassette, capsys):
        code = main(["classify", iot_csv, "--backend", "replay", "--cassette", cassette])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "IoT"

    def test_missing_file_exit_one(self, cassette, capsys):
        code = main(["classify", "/nope/missing.csv", "--backend", "replay", "--cassette", cassette])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_remote_without_key_exit_two(self, iot_csv, monkeypatch, capsys):
        monkeypatch.delenv("LLMCLEAN_API_KEY", raising=False)
        code = main(["classify", iot_csv, "--backend", "remote"])
        assert code == EXIT_EXTERNAL
        assert "LLMCLEAN_API_KEY" in capsys.readouterr().err

    def test_unexpected_failure_exit_three(self, iot_csv, cassette, monkeypatch, capsys):
        import llmclean.generation

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(llmclean.generation, "classify_dataset", boom)
        code = main(["classify", iot_csv, "--backend", "replay", "--cassette", cassette])
        assert code == 3
        err = capsys.readouterr().err
        assert "internal error: wires crossed" in err
        assert "Traceback (most recent call last)" in err


class TestEnsembleConfigFile:
    @pytest.mark.parametrize(
        "config,key",
        [
            ({"prompts": ["classify"]}, "'threshold'"),
            ({"threshold": 1}, "'prompts'"),
            ([1, 2], "JSON object"),
            ({"threshold": 1, "prompts": ["ghost"]}, "'ghost'"),
            ({"threshold": 1, "prompts": ["p"], "templates": [{"id": "p"}]}, "'task_text'"),
            ({"threshold": 1e400, "prompts": ["classify"]}, "infinity"),
            # classify parses yes/no, so a template may ask for nothing else
            ({"threshold": 1, "prompts": ["p"],
              "templates": [{"id": "p", "task_text": "Is it?", "format": "single_label"}]},
             "template 'p' has format 'single_label'"),
            ({"threshold": 1, "prompts": ["q"],
              "templates": [{"id": "q", "task_text": "Is it?", "format": "label_list"}]},
             "template 'q' has format 'label_list'"),
            # no threshold is rounded, and no string is split into prompts
            ({"threshold": 1.9, "prompts": ["classify"]}, "got 1.9"),
            ({"threshold": True, "prompts": ["classify"]}, "got True"),
            ({"threshold": "1", "prompts": ["classify"]}, "got '1'"),
            ({"threshold": 1, "prompts": "classify"}, "got 'classify'"),
            ({"threshold": 1, "prompts": ["classify", 1]}, "got ['classify', 1]"),
            # template fields are strings, few-shot examples pairs of strings
            ({"threshold": 1, "prompts": ["classify"],
              "templates": [{"id": 7, "task_text": ["Is", "it?"], "few_shot": [[1, 2]]}]},
             "template id 7 is not a string"),
            ({"threshold": 1, "prompts": ["p"],
              "templates": [{"id": "p", "task_text": ["Is", "it?"]}]},
             "template 'p': task_text must be a string, got ['Is', 'it?']"),
            ({"threshold": 1, "prompts": ["p"],
              "templates": [{"id": "p", "task_text": "Is it?", "format": 1}]},
             "template 'p': format must be a string, got 1"),
            ({"threshold": 1, "prompts": ["p"],
              "templates": [{"id": "p", "task_text": "Is it?", "few_shot": [[1, 2]]}]},
             "template 'p': few_shot must be a list of [input, output] strings, got [[1, 2]]"),
            ({"threshold": 1, "prompts": ["p"],
              "templates": [{"id": "p", "task_text": "Is it?", "few_shot": ["ab"]}]},
             "template 'p': few_shot must be a list of [input, output] strings, got ['ab']"),
            ({"threshold": 1, "prompts": ["classify"], "templates": {"a": 1}},
             "templates must be a list of objects, got {'a': 1}"),
            ({"threshold": 1, "prompts": ["classify"], "templates": ["p"]},
             "templates must be a list of objects, got ['p']"),
            # one answer must not count as two votes
            ({"threshold": 2, "prompts": ["classify", "classify"]},
             "prompt 'classify' is listed more than once"),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "build-context"])
    def test_malformed_config_exit_one(
        self, iot_csv, cassette, tmp_path, capsys, command, config, key
    ):
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(config))
        argv = [
            command, iot_csv, "--backend", "replay", "--cassette", cassette,
            "--ensemble-config", str(path),
        ]
        # build-context fails before it creates its out-dir; classify takes none.
        if command == "build-context":
            argv += ["--out-dir", str(tmp_path / "out")]
        code = main(argv)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not (tmp_path / "out").exists()


class TestMalformedCassette:
    @pytest.mark.parametrize(
        "body",
        [["yes"], {"abc": {"prompt": "p"}}, {"abc": "yes"}, {"abc": {"response": 1}},
         {"abc": {"prompt": 1, "response": "yes"}},
         {"a": {"prompt": "p", "response": "yes"}, "b": {"prompt": "p", "response": "no"}}],
        ids=["list", "no-response", "string-entry", "non-string-response",
             "non-string-prompt", "repeated-prompt"],
    )
    @pytest.mark.parametrize("command", ["classify", "build-context"])
    def test_exit_one_naming_the_file(self, iot_csv, tmp_path, capsys, command, body):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        argv = [command, iot_csv, "--backend", "replay", "--cassette", str(path)]
        if command == "build-context":
            argv += ["--out-dir", str(tmp_path / "out")]
        code = main(argv)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "internal error" not in err

    def test_unreadable_cassette_exits_one_when_no_prompt_is_asked(self, tmp_path, capsys):
        # One column has no pair to ask about; the cassette is read all the same.
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("a\nx\n")
        path = tmp_path / "absent.json"
        code = main(["build-context", str(csv_path), "--backend", "replay", "--cassette",
                     str(path), "--assume-class", "NonIoT", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert str(path) in capsys.readouterr().err


class TestCollectorState:
    @pytest.mark.parametrize("text,exit_code", [("a,b\n1,x\n", EXIT_OK), ("a\n1\n1,2\n", EXIT_INPUT)])
    def test_main_restores_the_collector(self, tmp_path, capsys, text, exit_code):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(text)
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.a,"")\n')
        assert main(["detect", str(csv_path), "--rules", str(rules_path)]) == exit_code
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0


# The console script as a benchmark runs it: an atexit handler registered
# before entrypoint(), which freezes the heap before the interpreter exits.
_ATEXIT_ENTRY = """\
import atexit, sys
from llmclean.cli import entrypoint
marker = sys.argv.pop(1)
def write_marker():
    with open(marker, "w") as out:
        out.write("ran")
atexit.register(write_marker)
sys.argv[0] = "llmclean"
entrypoint()
"""


class TestExitPath:
    def _run(self, tmp_path, argv, env=None):
        marker = tmp_path / "atexit.txt"
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _ATEXIT_ENTRY, str(marker), *argv],
            capture_output=True, text=True,
            env={**(os.environ if env is None else env), "PYTHONPATH": pythonpath},
        )
        assert marker.read_text() == "ran", proc.stderr
        return proc

    def test_success_writes_what_main_writes(self, tmp_path, iot_csv, cassette):
        argv = ["build-context", iot_csv, "--backend", "replay", "--cassette", cassette]
        proc = self._run(tmp_path, [*argv, "--out-dir", str(tmp_path / "sub")])
        assert proc.returncode == EXIT_OK, proc.stderr
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out-dir", str(tmp_path / "main")]) == EXIT_OK
        for name in ("context.nt", "rules.ofd", "transformed.csv"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()

    def test_input_error_exits_one(self, tmp_path, cassette):
        proc = self._run(tmp_path, ["classify", str(tmp_path / "missing.csv"),
                                    "--backend", "replay", "--cassette", cassette])
        assert proc.returncode == EXIT_INPUT
        assert "error" in proc.stderr

    def test_external_error_exits_two(self, tmp_path, iot_csv):
        env = {k: v for k, v in os.environ.items() if k != "LLMCLEAN_API_KEY"}
        proc = self._run(tmp_path, ["classify", iot_csv, "--backend", "remote"], env)
        assert proc.returncode == EXIT_EXTERNAL
        assert "LLMCLEAN_API_KEY" in proc.stderr


class TestCsvInput:
    @pytest.mark.parametrize("command", ["classify", "build-context", "detect", "evaluate"])
    def test_over_long_field_exit_one(self, tmp_path, capsys, command):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(f"a,b\nx,y\nz,{'q' * (csv.field_size_limit() + 1)}\n")
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.a,"")\n')
        argv = [command, str(csv_path)]
        if command in ("classify", "build-context"):
            argv += ["--backend", "replay", "--cassette", str(tmp_path / "unused.json")]
        if command == "build-context":
            argv += ["--out-dir", str(tmp_path / "out")]
        if command in ("detect", "evaluate"):
            argv += ["--rules", str(rules_path)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 2: field larger than field limit" in err and "internal error" not in err

    def test_byte_order_mark_changes_no_report(self, tmp_path, capsys):
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.sensor,"")\n')
        reports = []
        for name, bom in [("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")]:
            csv_path = tmp_path / name
            csv_path.write_bytes(bom + b"sensor,value\ns1,1\n,2\n")
            assert main(["detect", str(csv_path), "--rules", str(rules_path)]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            report.pop("duration_ms")
            reports.append(report)
        assert reports[0] == reports[1]
        assert [(f["row"], f["column"]) for f in reports[0]["findings"]] == [(1, "sensor")]
        assert reports[0]["skipped_rules"] == []

    def test_classify_reads_headers_past_a_byte_order_mark(self, iot_csv, cassette, capsys):
        # The replay key holds the prompt, which lists the headers.
        Path(iot_csv).write_bytes(b"\xef\xbb\xbf" + Path(iot_csv).read_bytes())
        code = main(["classify", iot_csv, "--backend", "replay", "--cassette", cassette])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "IoT"

    def test_classify_checks_records_past_a_byte_order_mark(self, iot_csv, cassette, capsys):
        lines = Path(iot_csv).read_bytes().splitlines(keepends=True)
        Path(iot_csv).write_bytes(b"\xef\xbb\xbf" + b"".join(lines[:3]) + b"x\n")
        code = main(["classify", iot_csv, "--backend", "replay", "--cassette", cassette])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 3 has 1 fields" in err and "internal error" not in err


def expected_triple_count() -> int:
    devices = {d for d, _, _ in IOT_TOPOLOGY.values()}
    sensing = {s for _, s, _ in IOT_TOPOLOGY.values()}
    locations = {loc for _, _, loc in IOT_TOPOLOGY.values()}
    entities = 1 + len(devices) + len(sensing) + len(IOT_TOPOLOGY) + len(locations)
    entity_triples = entities * 2  # rdf:type + label
    edges = (
        len(IOT_TOPOLOGY)        # sensor -> sensing device
        + len(sensing)           # sensing device -> device
        + len(sensing)           # sensing device -> location
        + len(sensing)           # sensing device partOf device
        + len(devices)           # device partOf system
    )
    capability = len(IOT_TOPOLOGY) * 2 * 5  # 2 bounds x 5 triples (unit set)
    return entity_triples + edges + capability


class TestBuildContext:
    def run_build(self, iot_csv, cassette, tmp_path, out_name="out"):
        out_dir = tmp_path / out_name
        sensors = write_sensor_specs(tmp_path)
        code = main(
            [
                "build-context", iot_csv,
                "--backend", "replay", "--cassette", cassette,
                "--sensors", sensors,
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        return out_dir

    def test_reads_the_cassette_once(self, iot_csv, cassette, tmp_path, monkeypatch):
        # classify and the later stages share one backend.
        from llmclean import gateway

        reads = []
        load = gateway.load_cassette
        monkeypatch.setattr(gateway, "load_cassette", lambda path: reads.append(path) or load(path))
        self.run_build(iot_csv, cassette, tmp_path)
        assert reads == [cassette]

    @pytest.mark.parametrize(
        "case", ["sensors", "value-columns", "unknown-value-column", "absent-cassette"]
    )
    def test_bad_input_asks_nothing_and_writes_nothing(
        self, iot_csv, cassette, tmp_path, monkeypatch, capsys, case
    ):
        # A prompt may be a paid call, so every input is read before the
        # first one; the out dir is made only when the artifacts are written.
        (tmp_path / "sensors.json").write_text('{"ds18b20": {"min": "x"}}')
        extra = {
            "sensors": ["--sensors", str(tmp_path / "sensors.json")],
            "value-columns": ["--value-columns", "value"],
            "unknown-value-column": ["--value-columns", "ghost:x"],
            "absent-cassette": [],
        }[case]
        if case == "absent-cassette":
            cassette = str(tmp_path / "absent.json")
        lookups = []
        lookup = ReplayBackend.lookup
        monkeypatch.setattr(
            ReplayBackend, "lookup", lambda self, prompt: lookups.append(prompt) or lookup(self, prompt)
        )
        code = main(["build-context", iot_csv, "--backend", "replay", "--cassette", cassette,
                     *extra, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT, capsys.readouterr().err
        assert lookups == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "entry",
        ['{"min": -Infinity, "max": 125}', '{"min": -55, "max": Infinity}',
         '{"min": -Infinity, "max": Infinity}'],
    )
    @pytest.mark.parametrize("command", ["build-context", "detect"])
    def test_non_finite_sensor_bound_exit_one(
        self, iot_csv, cassette, tmp_path, capsys, command, entry
    ):
        # Python's json reads these spellings; N-Triples has no "inf" double.
        specs_path = tmp_path / "sensors.json"
        specs_path.write_text('{"ds18b20": %s}' % entry)
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.sensor,"")\n')
        argv = {
            "build-context": ["--backend", "replay", "--cassette", cassette,
                              "--out-dir", str(tmp_path / "out")],
            "detect": ["--rules", str(rules_path)],
        }[command]
        code = main([command, iot_csv, *argv, "--sensors", str(specs_path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "'ds18b20'" in err and "finite" in err
        assert not (tmp_path / "out" / "context.nt").exists()

    def test_graph_triple_arithmetic(self, iot_csv, cassette, tmp_path, capsys):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        graph = deserialize((out_dir / "context.nt").read_text())
        assert len(graph.triples) == expected_triple_count()
        assert "class=IoT" in capsys.readouterr().out

    def test_sensor_flag_adds_capability_triples(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        text = (out_dir / "context.nt").read_text()
        assert "llmc:metaType" in text
        assert '"MinValue"' in text and '"MaxValue"' in text

    def test_rules_file_covers_all_kinds(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        rules = parse_rule_file((out_dir / "rules.ofd").read_text())
        kinds = {r.kind.value for r in rules}
        assert kinds == {"device_link", "locality", "capability", "denial"}

    def test_rerun_byte_identical_artifacts(self, iot_csv, cassette, tmp_path):
        first = self.run_build(iot_csv, cassette, tmp_path, "out1")
        second = self.run_build(iot_csv, cassette, tmp_path, "out2")
        for name in ("context.nt", "transformed.csv", "rules.ofd"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_records_run(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["class"] == "IoT"
        assert manifest["backend"] == "replay"
        assert manifest["mapping"]["Sensor"] == "Sensor"
        assert set(manifest["outputs"]) == {"graph", "transformed_csv", "rules"}
        assert manifest["pair_counts"] == {} and "seed" not in manifest


    def test_manifest_counts_rules_per_kind(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        counts = manifest["rule_counts"]
        assert list(counts) == sorted(counts)
        assert counts["device_link"] == 1 and counts["locality"] == 1
        rules = parse_rule_file((out_dir / "rules.ofd").read_text())
        assert sum(counts.values()) == len(rules)


def _fleet_csv(path: Path) -> set[tuple[int, str]]:
    """Write a 120-sensor IoT table, 8 readings per sensor; return its planted cells.

    Each sensor has its own sensing device; four sensors share a device and
    eight a room. One reading of some sensors carries a missing System, a
    missing Location, a Device of another sensor's group or a reading outside
    the sensor's range, so every group keeps a clean majority.
    """
    rows, planted = [], set()
    for i in range(960):
        k = i % 120
        sensor = f"ds18b20_{k}" if k % 2 == 0 else f"wsdcgq11lm_{k}"
        row = ["home_system", f"device_{k // 4}", f"sensing_{k}", sensor, "temperature",
               f"{20 + i % 7}.5", str(1_700_000_000_000 + i * 1000), f"room_{k // 8}"]
        if i // 120 == 3 and k % 10 in (1, 3, 5, 7):  # the fourth reading of some sensors
            column, value = {
                1: (0, ""), 3: (7, "N/A"), 5: (1, f"device_{(k // 4 + 1) % 30}"), 7: (5, "250.0"),
            }[k % 10]
            row[column] = value
            planted.add((i, IOT_HEADERS[column]))
        rows.append(",".join(row))
    path.write_text(",".join(IOT_HEADERS) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return planted


class TestGraphRulesAtFleetScale:
    """A graph with 120 sensors yields one rule per modelled dependency."""

    @pytest.fixture
    def fleet(self, tmp_path):
        csv_path = tmp_path / "fleet.csv"
        planted = _fleet_csv(csv_path)
        cassette = make_cassette(tmp_path, iot_pipeline_responses(IOT_HEADERS), "fleet.json")
        sensors = write_sensor_specs(tmp_path)
        ctx, det = tmp_path / "ctx", tmp_path / "det"
        assert main(["build-context", str(csv_path), "--backend", "replay",
                     "--cassette", cassette, "--sensors", sensors,
                     "--out-dir", str(ctx)]) == EXIT_OK
        assert main(["detect", str(csv_path), "--graph", str(ctx / "context.nt"),
                     "--sensors", sensors, "--out-dir", str(det)]) == EXIT_OK
        report = json.loads((det / "report.json").read_text())
        return csv_path, ctx, report, planted, sensors

    def test_rule_file_has_no_repeated_line(self, fleet):
        _, ctx, _, _, _ = fleet
        lines = (ctx / "rules.ofd").read_text().splitlines()
        assert len(lines) == len(set(lines)) == 124
        counts = json.loads((ctx / "manifest.json").read_text())["rule_counts"]
        assert counts == {"capability": 120, "denial": 2, "device_link": 1, "locality": 1}

    def test_findings_equal_the_oracle(self, fleet):
        csv_path, ctx, report, planted, sensors = fleet
        d = normalize_missing(load_csv(csv_path.read_bytes()))
        rules = extract_ofds(deserialize((ctx / "context.nt").read_text()))
        specs = parse_sensor_specs(Path(sensors).read_text(), sensors)
        got = {(f["row"], f["column"], f["rule"]) for f in report["findings"]}
        assert got == oracle_findings(d, rules, specs)
        assert {(row, column) for row, column, _ in got} == planted

    def test_each_cell_has_one_id_per_kind(self, fleet):
        csv_path, _, report, _, _ = fleet
        ids: dict[tuple[int, str, str], set[str]] = {}
        for f in report["findings"]:
            kind = f["rule"].partition(":")[0]
            if kind in ("device_link", "locality"):
                ids.setdefault((f["row"], f["column"], kind), set()).add(f["rule"])
        assert ids and all(len(found) == 1 for found in ids.values())
        d = load_csv(csv_path.read_bytes())
        sensor = d.column_index("Sensor")
        device_link_rows = {row for row, _, kind in ids if kind == "device_link"}
        assert device_link_rows
        assert all(not d.rows[row][sensor].is_missing for row in device_link_rows)


class TestBuildContextNonIot:
    HEADERS = ["ZipCode", "City", "Score"]

    def _cassette(self, tmp_path, unanswered=(), hierarchy="A"):
        """Answers for the table; no relatedness answer for the pairs in
        ``unanswered``; ``hierarchy`` answers for (ZipCode, City)."""
        from itertools import combinations

        from llmclean.gateway import render_prompt
        from llmclean.generation import (
            CLASSIFY_TEMPLATE,
            HIERARCHY_TEMPLATE,
            IOT_REFERENCE_HEADERS,
            RELATED_TEMPLATE,
        )

        entries = {
            render_prompt(
                CLASSIFY_TEMPLATE,
                {"col_names": ", ".join(self.HEADERS), "iot_names": IOT_REFERENCE_HEADERS},
            ): "no"
        }
        for a, b in combinations(self.HEADERS, 2):
            if (a, b) not in unanswered:
                prompt = render_prompt(RELATED_TEMPLATE, {"col_a": a, "col_b": b})
                entries[prompt] = "yes" if (a, b) == ("ZipCode", "City") else "no"
        entries[
            render_prompt(HIERARCHY_TEMPLATE, {"col_a": "ZipCode", "col_b": "City"})
        ] = hierarchy
        return make_cassette(tmp_path, entries, "hospital.json")

    @pytest.mark.parametrize("unanswered, warnings", [
        ((), []),
        ((("City", "Score"),), ["pair (City, Score) failed: no recorded response"]),
    ])
    def test_manifest_counts_pairs_and_lists_failed_ones(
        self, tmp_path, capsys, unanswered, warnings
    ):
        csv_path = tmp_path / "hospital.csv"
        csv_path.write_text("ZipCode,City,Score\n10018,Springfield,4\n10019,Shelbyville,5\n")
        out_dir = tmp_path / "out"
        code = main(["build-context", str(csv_path), "--backend", "replay",
                     "--cassette", self._cassette(tmp_path, unanswered),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""  # nothing logs
        manifest = json.loads((out_dir / "manifest.json").read_text())
        # Every pair is a key pair, so each is asked; the model relates one,
        # which the data cannot order.
        assert manifest["pair_counts"] == {
            "pairs": 3, "asked": 3, "related": 1, "hierarchies_asked": 1,
        }
        assert [w.split(" for prompt hash")[0] for w in manifest["warnings"]] == warnings
        assert manifest["mapping"] == {} and manifest["class"] == "NonIoT"

    @pytest.mark.parametrize("answer, warnings, edges", [
        ("Column B", ["pair (ZipCode, City) failed: expected A, B or NONE, got 'Column B'"], set()),
        ("NONE", [], {edge(RELATED_TO, "City", "ZipCode")}),
    ], ids=["unparseable", "none"])
    def test_hierarchy_answer_other_than_a_b_or_none_fails(
        self, tmp_path, answer, warnings, edges
    ):
        csv_path = tmp_path / "hospital.csv"
        csv_path.write_text("ZipCode,City,Score\n10018,Springfield,4\n10019,Shelbyville,5\n")
        out_dir = tmp_path / "out"
        code = main(["build-context", str(csv_path), "--backend", "replay",
                     "--cassette", self._cassette(tmp_path, hierarchy=answer),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        assert json.loads((out_dir / "manifest.json").read_text())["warnings"] == warnings
        graph = deserialize((out_dir / "context.nt").read_text())
        assert {t for t in graph.triples if t.predicate in (PART_OF, RELATED_TO)} == edges
        assert (out_dir / "rules.ofd").read_text() == ""

    def test_relational_graph_and_rules(self, tmp_path, capsys):
        csv_path = tmp_path / "hospital.csv"
        csv_path.write_text(
            "ZipCode,City,Score\n10018,Springfield,4\n10019,Shelbyville,5\n"
        )
        out_dir = tmp_path / "rel_out"
        code = main(
            [
                "build-context", str(csv_path),
                "--backend", "replay", "--cassette", self._cassette(tmp_path),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "class=NonIoT" in capsys.readouterr().out
        rules = parse_rule_file((out_dir / "rules.ofd").read_text())
        assert [r.kind.value for r in rules] == ["denial"]
        from llmclean.rules import render_rule

        assert render_rule(rules[0]) == (
            "t1&t2&EQ(t1.ZipCode,t2.ZipCode)&IQ(t1.City,t2.City)"
        )


class TestBuildContextSensorSplit:
    HEADERS = ["temperature", "co2", "place", "time"]

    def _cassette(self, tmp_path):
        from llmclean.gateway import render_prompt
        from llmclean.generation import (
            CLASSIFY_TEMPLATE,
            IOT_REFERENCE_HEADERS,
            MAP_COLUMN_TEMPLATE,
            MAPPING_ROLES,
        )

        entries = {
            render_prompt(
                CLASSIFY_TEMPLATE,
                {"col_names": ", ".join(self.HEADERS), "iot_names": IOT_REFERENCE_HEADERS},
            ): "yes"
        }
        split_headers = ["sensor", "value", "place", "time"]
        answers = {
            "Sensor": "sensor",
            "Value": "value",
            "Location": "place",
            "Timestamp": "time",
        }
        for role in MAPPING_ROLES:
            prompt = render_prompt(
                MAP_COLUMN_TEMPLATE,
                {"col_names": ", ".join(split_headers), "concept": role},
            )
            entries[prompt] = answers.get(role, "NONE")
        return make_cassette(tmp_path, entries, "split.json")

    def test_split_rename_generate(self, tmp_path, capsys):
        csv_path = tmp_path / "multi.csv"
        csv_path.write_text(
            "temperature,co2,place,time\n"
            "21.5,400,Room1,1700000000000\n"
            "22.0,410,Room2,1700000001000\n"
        )
        out_dir = tmp_path / "split_out"
        code = main(
            [
                "build-context", str(csv_path),
                "--backend", "replay", "--cassette", self._cassette(tmp_path),
                "--value-columns", "temperature:Temp,co2:CO2",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        transformed = load_csv((out_dir / "transformed.csv").read_bytes())
        # 2 rows x 2 value columns, canonical + generated structure
        assert transformed.n_rows == 4
        assert transformed.headers == (
            "sensor", "value", "location", "timestamp",
            "System", "Device", "SensingDevice",
        )
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["class"] == "IoT"


    @pytest.mark.parametrize(
        "value_columns,item",
        [("Value", "Value"), (",", ""), ("temperature:Temp,co2", "co2"), (":Temp", ":Temp")],
    )
    def test_malformed_value_columns_exit_one(self, tmp_path, capsys, value_columns, item):
        csv_path = tmp_path / "multi.csv"
        csv_path.write_text("temperature,co2,place,time\n21.5,400,Room1,1700000000000\n")
        code = main(
            [
                "build-context", str(csv_path),
                "--backend", "replay", "--cassette", self._cassette(tmp_path),
                "--value-columns", value_columns, "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT
        assert f"--value-columns expects column:label pairs, got {item!r}" in capsys.readouterr().err


class TestDetect:
    @pytest.fixture
    def built(self, iot_csv, cassette, tmp_path):
        out_dir = TestBuildContext().run_build(iot_csv, cassette, tmp_path)
        return out_dir

    def test_rules_file_detection(self, built, tmp_path, capsys):
        rules_path = tmp_path / "missing.ofd"
        rules_path.write_text('denial: t1&EQ(t1.System,"")\n')
        csv_path = built / "transformed.csv"
        code = main(["detect", str(csv_path), "--rules", str(rules_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["findings"] == []
        assert "findings=0" in captured.err

    def test_graph_detection_equals_library_composition(self, built, tmp_path, capsys):
        csv_path = built / "transformed.csv"
        out_dir = tmp_path / "report_out"
        code = main(
            [
                "detect", str(csv_path),
                "--graph", str(built / "context.nt"),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out_dir / "report.json").read_text())

        dataset = normalize_missing(load_csv((csv_path).read_bytes()))
        graph = deserialize((built / "context.nt").read_text())
        expected = run_all(dataset, extract_ofds(graph))
        got_cells = {(f["row"], f["column"]) for f in payload["findings"]}
        assert got_cells == expected.flagged_cells

    @pytest.mark.parametrize("source", ["--rules", "--graph"])
    def test_report_equals_a_full_load(self, built, tmp_path, source, capsys):
        # detect loads only the columns its rules read; the report must not show it.
        text = (built / "transformed.csv").read_text()
        csv_path = tmp_path / "dirty.csv"  # one reading out of range, one device swapped
        text = text.replace(",24.59,", ",999,", 1)
        csv_path.write_text(text.replace("device_in_2,sensing_in_3", "device_in_1,sensing_in_3", 1))
        sensors = write_sensor_specs(tmp_path)
        rules_path = built / ("rules.ofd" if source == "--rules" else "context.nt")
        code = main(["detect", str(csv_path), source, str(rules_path), "--sensors", sensors])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)

        if source == "--rules":
            rules = parse_rule_file(rules_path.read_text())
        else:
            rules = extract_ofds(deserialize(rules_path.read_text()))
        specs = parse_sensor_specs(Path(sensors).read_text(), sensors)
        full = run_all(normalize_missing(load_csv(csv_path.read_bytes())), rules, specs=specs)
        expected = json.loads(full.to_json())
        for key in ("findings", "skipped_rules", "uncovered_sensors", "per_rule_counts"):
            assert payload[key] == expected[key]
        assert payload["findings"]

    @pytest.mark.parametrize("sensor", ["ds18b20\u2028x_1", "ds18b20\rx_1"])
    def test_graph_with_a_line_separator_in_a_label(self, tmp_path, capsys, sensor):
        # str.splitlines breaks at U+2028, and reading the file in text mode
        # turns a raw "\r" into "\n": either split a line of context.nt.
        d = make_iot_dataset()
        csv_path = tmp_path / "iot.csv"
        csv_path.write_text(dataset_to_csv(d).replace("ds18b20_1,", f'"{sensor}",'),
                            encoding="utf-8")
        cassette = make_cassette(tmp_path, iot_pipeline_responses(d.headers))
        sensors = write_sensor_specs(tmp_path)
        ctx = tmp_path / "ctx"
        assert main(["build-context", str(csv_path), "--backend", "replay", "--cassette",
                     cassette, "--sensors", sensors, "--out-dir", str(ctx)]) == EXIT_OK
        graph = deserialize((ctx / "context.nt").read_text(encoding="utf-8"))
        assert sensor in {t.obj for t in graph.triples}
        assert main(["detect", str(csv_path), "--graph", str(ctx / "context.nt"),
                     "--sensors", sensors]) == EXIT_OK
        capsys.readouterr()

    def test_long_part_of_chain(self, tmp_path, capsys):
        # 1,200 attributes in one acyclic partOf chain, deeper than the recursion limit.
        names = [f"level_{i}" for i in range(1200)]
        graph = ContextGraph(frozenset(
            [t for n in names for t in entity(Concept.ATTRIBUTE, n)]
            + [edge(PART_OF, a, b) for a, b in zip(names, names[1:])]
        ))
        graph_path = tmp_path / "chain.nt"
        graph_path.write_text(serialize(graph))
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("level_0,level_1\nx,y\nx,y\n")
        code = main(["detect", str(csv_path), "--graph", str(graph_path)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_node_typed_twice_exits_one_on_every_hash_seed(self, tmp_path):
        # Keeping one of two types would depend on set order, hence on the hash seed.
        graph_path = tmp_path / "twice.nt"
        graph_path.write_text(
            "llmc:x rdf:type ssn:Sensor .\n"
            "llmc:x rdf:type ssn:SensingDevice .\n"
            "llmc:dev rdf:type ssn:Device .\n"
            "llmc:x llmc:attachedTo llmc:dev .\n"
        )
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("sensor,value\nx,1\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "llmclean.cli", "detect", str(csv_path),
                "--graph", str(graph_path)]
        for seed in range(16):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": pythonpath}
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == EXIT_INPUT, (seed, proc.stderr)
            assert "'llmc:x' is typed twice" in proc.stderr

    def test_metadata_node_with_two_values_exit_one(self, tmp_path, capsys):
        graph_path = tmp_path / "meta.nt"
        graph = ContextGraph(frozenset(
            entity(Concept.SENSOR, "s1")
            + sensor_bounds("s1", SensorSpec("s1", 0.0, 10.0))
            + [Triple("llmc:s1_max", META_VALUE, 100.0, ObjKind.NUMBER)]
        ))
        graph_path.write_text(serialize(graph))
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("sensor,value\ns1,50\n")
        code = main(["detect", str(csv_path), "--graph", str(graph_path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "metadata node 'llmc:s1_max' has 2 llmc:metaValue values: 10.0, 100.0" in err

    def test_monitoring_rule_line_exit_one(self, tmp_path, capsys):
        rules_path = tmp_path / "r.ofd"
        rules_path.write_text('denial: t1&EQ(t1.a,"")\nmonitoring: t1&EQ(t1.a,"x")\n')
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a\nx\n")
        code = main(["detect", str(csv_path), "--rules", str(rules_path)])
        assert code == EXIT_INPUT
        assert "line 2: unknown dependency kind 'monitoring'" in capsys.readouterr().err

    def test_actuating_device_graph_exit_one(self, tmp_path, capsys):
        graph_path = tmp_path / "g.nt"
        graph_path.write_text('llmc:fan rdf:type ssn:ActuatingDevice .\n'
                              'llmc:fan llmc:label "fan" .\n')
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a\nx\n")
        code = main(["detect", str(csv_path), "--graph", str(graph_path)])
        assert code == EXIT_INPUT
        assert "unknown concept" in capsys.readouterr().err

    def test_needs_rules_or_graph(self, built, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(built / "transformed.csv")])
        assert exc.value.code == EXIT_INPUT
        assert "one of the arguments --rules --graph is required" in capsys.readouterr().err


class TestEvaluate:
    def _write_simple(self, tmp_path):
        csv_path = tmp_path / "clean.csv"
        csv_path.write_text("System,Value\n" + "".join(f"s{i % 3},20.5\n" for i in range(50)))
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.System,"")\n')
        return str(csv_path), str(rules_path)

    def test_fd_pair_without_colon_exit_one(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--fd-pair", "X", "--fd-swap-rate", "0.01",
            ]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--fd-pair" in err and "determinant:dependent" in err

    @pytest.mark.parametrize("pair", ["a:a", "A:a"])
    def test_fd_pair_naming_one_column_twice_exit_one(self, tmp_path, capsys, pair):
        csv_path = tmp_path / "nine.csv"
        csv_path.write_text("a,b\n" + "".join(f"k{i % 3},v{i % 3}\n" for i in range(9)))
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.a,"")\n')
        code = main(
            [
                "evaluate", str(csv_path), "--rules", str(rules_path), "--out-dir",
                str(tmp_path / "out"), "--fd-pair", pair, "--fd-swap-rate", "0.2",
            ]
        )
        assert code == EXIT_INPUT
        assert "'a' twice" in capsys.readouterr().err
        assert not (tmp_path / "out" / "truth.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, column",
        [
            (["--missing-columns", "System,system", "--missing-rate", "0.1"], "System"),
            (["--missing-columns", "Value,System,Value", "--missing-rate", "0.1"], "Value"),
            (["--outlier-columns", "Value,Value", "--outlier-rate", "0.3"], "Value"),
        ],
    )
    def test_target_column_named_twice_exit_one(self, tmp_path, capsys, flags, column):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(["evaluate", csv_path, "--rules", rules_path, *flags])
        assert code == EXIT_INPUT
        assert f"{column!r} twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--fd-pair", "ghost:b"], "unknown column 'ghost'"),
            (["--missing-columns", "ghost"], "unknown column 'ghost'"),
            (["--outlier-columns", "a,a"], "'a' twice"),
        ],
    )
    def test_bad_target_refused_at_zero_rate(self, tmp_path, capsys, flags, message):
        # No rate is given, so no error of that kind is injected; a bad name still fails.
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("a,b\n1,x\n2,y\n3,z\n")
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.b,"")\n')
        code = main(["evaluate", str(csv_path), "--rules", str(rules_path), *flags])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [{"min": 1}, {"min": "low", "max": 2}, {"min": 0, "max": None},
         {"min": float("nan"), "max": 125}, 5, [1, 2],
         {"min": "5", "max": 10}, {"min": True, "max": 10}, {"min": 0, "max": False},
         {"min": 0, "max": 1, "unit": None}, {"min": 0, "max": 1, "unit": ["C"]}],
    )
    def test_bad_sensor_spec_exit_one(self, tmp_path, capsys, entry):
        csv_path, rules_path = self._write_simple(tmp_path)
        specs_path = tmp_path / "sensors.json"
        specs_path.write_text(json.dumps({"ds18b20": entry}))
        code = main(["evaluate", csv_path, "--rules", rules_path, "--sensors", str(specs_path)])
        assert code == EXIT_INPUT
        assert "'ds18b20'" in capsys.readouterr().err

    def test_sensor_specs_not_an_object_exit_one(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        specs_path = tmp_path / "sensors.json"
        specs_path.write_text("[1, 2]")
        code = main(["evaluate", csv_path, "--rules", rules_path, "--sensors", str(specs_path)])
        assert code == EXIT_INPUT
        assert "sensor specs" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_outlier_exit_one(self, tmp_path, capsys, multiplier):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--outlier-rate", "0.5", f"--multiplier={multiplier}",
            ]
        )
        assert code == EXIT_INPUT
        assert "multiplier" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier, reading", [("1", "20.5"), ("0", "0")])
    def test_no_op_outlier_exit_one(self, tmp_path, capsys, multiplier, reading):
        _, rules_path = self._write_simple(tmp_path)
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("System,Value\n" + "".join(f"s{i},{reading}\n" for i in range(3)))
        code = main(
            [
                "evaluate", str(csv_path), "--rules", rules_path, "--out-dir", str(tmp_path / "out"),
                "--outlier-rate", "0.5", "--multiplier", multiplier, "--seed", "1",
            ]
        )
        assert code == EXIT_INPUT
        assert "multiplier" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_round_trip_metrics(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--missing-rate", "0.2", "--missing-columns", "System",
                "--seed", "7",
            ]
        )
        assert code == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["injected"] == 10
        assert (metrics["precision"], metrics["recall"], metrics["f1"]) == (1.0, 1.0, 1.0)

    def test_seed_reproducible(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        args = [
            "evaluate", csv_path, "--rules", rules_path,
            "--missing-rate", "0.2", "--missing-columns", "System", "--seed", "7",
        ]
        main(args)
        first = json.loads(capsys.readouterr().out)
        main(args)
        second = json.loads(capsys.readouterr().out)
        first.pop("detection_ms")
        second.pop("detection_ms")
        assert first == second

    def test_zero_rates_give_f1_one(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(["evaluate", csv_path, "--rules", rules_path])
        assert code == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["f1"] == 1.0
        assert metrics["injected"] == 0

    def test_artifacts_written(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        out_dir = tmp_path / "eval_out"
        main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--missing-rate", "0.1", "--missing-columns", "System",
                "--seed", "1", "--out-dir", str(out_dir),
            ]
        )
        assert (out_dir / "dirty.csv").exists()
        assert (out_dir / "truth.jsonl").exists()
        assert (out_dir / "metrics.json").exists()


class TestUnreadFlagsRefused:
    """Flags a command never read are gone; the parser refuses them (exit 1)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "x.csv", "--backend", "replay", "--seed", "1"],
            ["classify", "x.csv", "--backend", "replay", "--out-dir", "out"],
            ["detect", "x.csv", "--rules", "r.ofd", "--seed", "1"],
            ["ensemble", "r.jsonl", "--parallel", "2"],
            ["ensemble", "r.jsonl", "--out-dir", "out"],
            ["build-context", "x.csv", "--backend", "replay", "--seed", "1"],
        ],
        ids=[
            "classify-seed", "classify-out-dir", "detect-seed",
            "ensemble-parallel", "ensemble-out-dir", "build-context-seed",
        ],
    )
    def test_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    def test_no_verbose_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag, "detect", "x.csv", "--rules", "r.ofd"])
        assert exc.value.code == EXIT_INPUT
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestUsageErrors:
    """A malformed command line exits 1, like any input error (2 means an
    external service failed)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--backend", "replay"],
            ["classify", "x.csv", "--backend", "replay", "--parallel", "1.5"],
            ["classify", "x.csv", "--backend", "replay", "--parallel", "0"],
            ["build-context", "--backend", "replay"],
            ["build-context", "x.csv", "--backend", "replay", "--parallel", "1.5"],
            ["build-context", "x.csv", "--backend", "replay", "--parallel", "0"],
            ["detect", "--rules", "r.ofd"],
            ["detect", "x.csv", "--rules", "r.ofd", "--parallel", "abc"],
            ["detect", "x.csv", "--rules", "r.ofd", "--parallel", "0"],
            ["evaluate", "--rules", "r.ofd"],
            ["evaluate", "x.csv", "--rules", "r.ofd", "--missing-rate", "abc"],
            ["evaluate", "x.csv", "--rules", "r.ofd", "--parallel", "0"],
            ["evaluate", "x.csv", "--rules", "r.ofd", "--parallel", "-3"],
            ["detect", "x.csv", "--no-such-flag"],
            [],
        ],
        ids=[
            "classify-no-csv", "classify-bad-number", "classify-parallel-0",
            "build-context-no-csv", "build-context-bad-number", "build-context-parallel-0",
            "detect-no-csv", "detect-bad-number", "detect-parallel-0",
            "evaluate-no-csv", "evaluate-bad-float", "evaluate-parallel-0",
            "evaluate-parallel-negative", "unknown-flag", "no-command",
        ],
    )
    def test_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    @pytest.mark.parametrize("flags, message", [
        ([], "one of the arguments --rules --graph is required"),
        (["--rules", "r.ofd", "--graph", "g.nt"], "--graph: not allowed with argument --rules"),
    ], ids=["neither", "both"])
    def test_exactly_one_rule_source(self, tmp_path, capsys, command, flags, message):
        # Refused before any file is read: none of these paths exists.
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "x.csv"), *flags])
        assert exc.value.code == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_parallel_below_one_named(self, capsys):
        with pytest.raises(SystemExit):
            main(["detect", "x.csv", "--rules", "r.ofd", "--parallel", "0"])
        assert "--parallel: expects an integer of at least 1, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage:" in capsys.readouterr().out


class TestEnsembleCommand:
    def _records(self):
        return [
            EvalRecord.make("a", {"A"}, {"p1": {"A"}, "p2": {"B"}}),
            EvalRecord.make("b", {"B"}, {"p1": {"B"}, "p2": {"B"}}),
            EvalRecord.make("c", {"C"}, {"p1": {"C"}, "p2": {"A"}}),
            EvalRecord.make("d", {"A"}, {"p1": {"A"}, "p2": {"C"}}),
        ]

    def test_matches_brute_force(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(write_records_jsonl(self._records()))
        code = main(["ensemble", str(path), "--tr-range", "2", "--seed", "0"])
        assert code == EXIT_OK
        configs = json.loads(capsys.readouterr().out)
        assert configs
        for config in configs:
            assert "p1" in config["prompts"]

    def test_tr_range_zero(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(write_records_jsonl(self._records()))
        code = main(["ensemble", str(path), "--tr-range", "0"])
        assert code == EXIT_OK
        configs = json.loads(capsys.readouterr().out)
        assert all(c["threshold"] == 0 for c in configs)

    def test_empty_records_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["ensemble", str(path)])
        assert code == EXIT_INPUT
        assert "no records" in capsys.readouterr().err

    def test_answers_not_an_object_exit_one(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text('{"instance": "a", "truth": ["A"], "answers": ["A"]}\n')
        code = main(["ensemble", str(path)])
        assert code == EXIT_INPUT
        assert "bad record on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["2", "1", "0", "-0.5", "nan"])
    def test_val_fraction_outside_unit_interval_exit_one(self, tmp_path, capsys, fraction):
        path = tmp_path / "records.jsonl"
        path.write_text(write_records_jsonl(self._records()))
        code = main(["ensemble", str(path), "--val-fraction", fraction])
        assert code == EXIT_INPUT
        assert "--val-fraction" in capsys.readouterr().err

    def test_separate_validation_file(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        val = tmp_path / "val.jsonl"
        train.write_text(write_records_jsonl(self._records()))
        val.write_text(write_records_jsonl(self._records()[:2]))
        code = main(["ensemble", str(train), "--val-records", str(val), "--tr-range", "1"])
        assert code == EXIT_OK


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["m", "min", "max", "unit", "A"]), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers(-5, 5) | st.just(10**400) | st.floats(allow_nan=True)
SENSOR_SPECS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["m", "m_1", "sensor"]),
    st.fixed_dictionaries({"min": NUMBERS, "max": NUMBERS}, optional={"unit": JSON_VALUES})
    | JSON_VALUES,
    max_size=2,
)
CSV_TOKENS = st.sampled_from(
    ["sensor", "value", "Sensor", "a", "Device", "timestamp", "message", "m", "m_1",
     "1", "-2.5", "1e999", "nan", "", "N/A", "2024-01-01T00:00:00Z", "1700000000000",
     '"x,y"', '"', "\xff"]
)
CSV_BYTES = st.one_of(
    st.binary(max_size=40),
    st.integers(1, 4)
    .flatmap(lambda width: st.lists(st.lists(CSV_TOKENS, min_size=width, max_size=width),
                                    min_size=1, max_size=6))
    .map(lambda rows: "\n".join(map(",".join, rows)).encode("utf-8", "surrogateescape")),
)
RULE_COLUMNS = st.sampled_from(["sensor", "value", "a", "Device", "timestamp", "ghost"])
RULE_LINE = st.builds(
    lambda kind, body: f"{kind}: {body}",
    st.sampled_from(["denial", "matching", "capability", "temporal", "locality",
                     "monitoring", "bogus"]),
    st.one_of(
        st.builds('t1&EQ(t1.{},"{}")'.format, RULE_COLUMNS, CSV_TOKENS),
        st.builds("t1&t2&EQ(t1.{0},t2.{0})&IQ(t1.{1},t2.{1})".format,
                  RULE_COLUMNS, RULE_COLUMNS),
        st.builds("t1&t2&SIM{0}(t1.{1},t2.{1})&SIM{0}(t1.{2},t2.{2})".format,
                  st.integers(0, 100), RULE_COLUMNS, RULE_COLUMNS),
        st.builds('t1&t2&EQ(t1.{0},"{1}")&EQ(t2.{0},"{2}")'.format,
                  RULE_COLUMNS, CSV_TOKENS, CSV_TOKENS),
    ),
)
RULE_TEXT = st.lists(RULE_LINE, max_size=4).map("\n".join) | st.text(
    alphabet='tq12&EQIMS(),."a: #\n', max_size=40
)
LABELS = st.lists(st.sampled_from(["A", "B", 1, None]), max_size=3)
RECORD_LINE = st.one_of(
    st.text(max_size=20),
    st.builds(
        json.dumps,
        st.fixed_dictionaries(
            {},
            optional={
                "instance": JSON_VALUES,
                "truth": LABELS | JSON_VALUES,
                "answers": st.dictionaries(st.sampled_from(["p1", "p2"]), LABELS, max_size=2)
                | JSON_VALUES,
            },
        ),
    ),
)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
EVAL_COLUMNS = st.sampled_from(["System", "Value", "Ghost"])
ANSWERS = st.lists(
    st.sampled_from(["yes", "no", "Yes, it does", "", "NONE", "A", "B", "sensor", "value",
                     "Sensor", "a", "m", "Device", "timestamp", "ghost", "x, y"]),
    min_size=1, max_size=6,
)
ENSEMBLE_CONFIG = st.fixed_dictionaries(
    {
        "threshold": st.integers(0, 2) | st.just(1e400) | st.just(-1e400) | JSON_VALUES,
        "prompts": st.lists(st.sampled_from(["classify", "p", "ghost"]), min_size=1, max_size=2)
        | JSON_VALUES,
    },
    optional={
        "templates": st.lists(
            st.fixed_dictionaries(
                {"id": st.sampled_from(["p", "classify"]) | JSON_VALUES,
                 "task_text": st.sampled_from(["{col_names}?", "{ghost}", "plain"])},
                optional={"format": st.sampled_from(["yes_no", "single_label", "bogus"]),
                          "few_shot": JSON_VALUES},
            ) | JSON_VALUES,
            max_size=2,
        ),
    },
) | JSON_VALUES
# Tables with unique headers, so most runs get past the loader to the pipeline.
PIPELINE_CSV = st.tuples(
    st.lists(st.sampled_from(["sensor", "value", "Sensor", "Device", "timestamp", "location",
                              "System", "t", "a", "h"]), min_size=1, max_size=5, unique=True),
    st.lists(st.lists(CSV_TOKENS, min_size=5, max_size=5), max_size=8),
).map(lambda t: "\n".join(",".join(row[:len(t[0])]) for row in [t[0], *t[1]])
      .encode("utf-8", "surrogateescape"))
VALUE_COLUMNS = st.sampled_from(
    ["value:t", "value:t,a:h", "a:t,value:h", "sensor:s", "ghost:x", "value", ":x", ","]
) | st.text(alphabet="av:,-", max_size=8)


def _pipeline_cassette(csv_bytes: bytes, value_columns: str | None, answers: list[str]) -> dict:
    """A cassette answering every prompt the default templates ask of this
    table, before and after its sensor split, from ``answers`` in turn."""
    from llmclean.cli import _parse_value_columns
    from llmclean.errors import LLMCleanError
    from llmclean.gateway import cassette_key, render_prompt
    from llmclean.generation import (
        DEFAULT_TEMPLATES, IOT_REFERENCE_HEADERS, MAPPING_ROLES, split_sensors,
    )

    tables = []
    try:
        d = load_csv(csv_bytes)
        tables.append(d.headers)
        if value_columns:
            tables.append(split_sensors(d, _parse_value_columns(value_columns)).headers)
    except (LLMCleanError, ValueError):
        pass
    prompts = []
    for headers in tables:
        names = ", ".join(headers)
        prompts.append(render_prompt(
            DEFAULT_TEMPLATES["classify"], {"col_names": names, "iot_names": IOT_REFERENCE_HEADERS}
        ))
        prompts += [render_prompt(DEFAULT_TEMPLATES["map_column"],
                                  {"col_names": names, "concept": role}) for role in MAPPING_ROLES]
        for a, b in itertools.combinations(headers, 2):
            prompts += [render_prompt(DEFAULT_TEMPLATES[t], {"col_a": a, "col_b": b})
                        for t in ("pair_related", "pair_hierarchy")]
    return {
        cassette_key(prompt): {"response": answers[i % len(answers)]}
        for i, prompt in enumerate(prompts)
    }


class TestFuzzedInputsExitCleanly:
    """Malformed user input is an input error (exit 1), never an internal one."""

    @settings(max_examples=100, deadline=None)
    @given(
        csv_bytes=CSV_BYTES,
        rule_text=RULE_TEXT,
        sensors=SENSOR_SPECS,
        exact=st.booleans(),
    )
    def test_detect(self, csv_bytes, rule_text, sensors, exact):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "data.csv").write_bytes(csv_bytes)
            (tmp / "rules.ofd").write_text(rule_text, encoding="utf-8")
            (tmp / "sensors.json").write_text(json.dumps(sensors), encoding="utf-8")
            argv = [
                "detect", str(tmp / "data.csv"), "--rules", str(tmp / "rules.ofd"),
                "--sensors", str(tmp / "sensors.json"), "--out-dir", str(tmp / "out"),
            ]
            assert main(argv + ["--exact-matching"] * exact) in (EXIT_OK, EXIT_INPUT)

    @pytest.mark.parametrize("command", ["classify", "build-context"])
    @settings(max_examples=100, deadline=None)
    @given(
        csv_bytes=PIPELINE_CSV | CSV_BYTES,
        cassette=st.none() | JSON_VALUES,
        answers=ANSWERS,
        config=st.none() | ENSEMBLE_CONFIG,
        value_columns=st.none() | VALUE_COLUMNS,
        sensors=st.none() | SENSOR_SPECS,
        assume_class=st.sampled_from([None, "IoT", "NonIoT", "iot", ""]),
    )
    def test_classify_and_build_context(
        self, command, csv_bytes, cassette, answers, config, value_columns, sensors, assume_class
    ):
        """Exit 2 only when the cassette lacks or garbles an answer."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "data.csv").write_bytes(csv_bytes)
            if cassette is None:  # answers for the prompts this table asks
                cassette = _pipeline_cassette(csv_bytes, value_columns, answers)
            (tmp / "cassette.json").write_text(json.dumps(cassette), encoding="utf-8")
            argv = [command, str(tmp / "data.csv"), "--backend", "replay",
                    "--cassette", str(tmp / "cassette.json")]
            if config is not None:
                (tmp / "ensemble.json").write_text(json.dumps(config), encoding="utf-8")
                argv.append(f"--ensemble-config={tmp / 'ensemble.json'}")
            if command == "build-context":
                argv.append(f"--out-dir={tmp / 'out'}")
                if sensors is not None:
                    (tmp / "sensors.json").write_text(json.dumps(sensors), encoding="utf-8")
                    argv.append(f"--sensors={tmp / 'sensors.json'}")
                for flag, value in (("value-columns", value_columns),
                                    ("assume-class", assume_class)):
                    if value is not None:
                        argv.append(f"--{flag}={value}")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # a malformed command line
                    code = exc.code
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EXTERNAL), err.getvalue()
            if code == EXIT_EXTERNAL:
                assert err.getvalue().startswith(
                    ("error: no recorded response", "error: expected yes/no")
                ), err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(RECORD_LINE, max_size=4),
        fraction=st.floats(allow_nan=True, allow_infinity=True),
        tr_range=st.integers(-1, 3),
    )
    def test_ensemble(self, lines, fraction, tr_range):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            path.write_text("\n".join(lines), encoding="utf-8")
            argv = ["ensemble", str(path), f"--val-fraction={fraction!r}",
                    f"--tr-range={tr_range}"]
            assert main(argv) in (EXIT_OK, EXIT_INPUT)

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.just(0.0) | st.floats(0, 1) | FLOATS, min_size=3, max_size=3),
        multiplier=st.just(0.0) | FLOATS,
        fd_pair=st.none() | st.sampled_from(["System:Value", "Value:System", "System:Ghost", ":"]),
        columns=st.lists(
            st.none() | st.lists(EVAL_COLUMNS, min_size=1, max_size=2).map(",".join),
            min_size=2, max_size=2,
        ),
    )
    @example(rates=[0.0, 0.5, 0.0], multiplier=float("nan"), fd_pair=None, columns=[None, None])
    @example(rates=[0.0, 0.5, 0.0], multiplier=1.0, fd_pair=None, columns=[None, None])
    def test_evaluate(self, rates, multiplier, fd_pair, columns):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            values = ["0", "20.5", "-3", "1e300"]
            (tmp / "clean.csv").write_text(
                "System,Value\n" + "".join(f"s{i % 3},{values[i % 4]}\n" for i in range(12))
            )
            (tmp / "rules.ofd").write_text('denial: t1&EQ(t1.System,"")\n')
            argv = [
                "evaluate", str(tmp / "clean.csv"), "--rules", str(tmp / "rules.ofd"),
                "--out-dir", str(tmp / "out"), f"--multiplier={multiplier!r}",
            ]
            for flag, rate in zip(("missing-rate", "outlier-rate", "fd-swap-rate"), rates):
                argv.append(f"--{flag}={rate!r}")
            for flag, value in zip(("missing-columns", "outlier-columns", "fd-pair"),
                                   columns + [fd_pair]):
                if value is not None:
                    argv.append(f"--{flag}={value}")
            code = main(argv)
            assert code in (EXIT_OK, EXIT_INPUT)
            if code == EXIT_OK:
                with open(tmp / "out" / "dirty.csv", newline="", encoding="utf-8") as fh:
                    header, *rows = csv.reader(fh)
                for line in (tmp / "out" / "truth.jsonl").read_text().splitlines():
                    entry = json.loads(line)
                    if entry["kind"] == "outlier":
                        dirty = rows[entry["row"]][header.index(entry["column"])]
                        assert dirty not in ("", entry["original"])
