"""Checks that every name perfbench/run.py attaches to still resolves on the
package, that every argument its hooks read is still where they read it, and
that a hook on the cli module sees the calls of main made after it is attached.

The benchmark hooks functions by (module, attribute); a hook whose name is
gone attaches nowhere, and its per-layer metrics drop out of the report.
Its AFTER and REPLACE hooks read a call's arguments by position or keyword,
through _arg(args, kwargs, pos, key); a parameter that moves is read from the
wrong place (its _collect wrapper then silently records 0 reps).  The names
and positions are read from run.py's source, which is neither imported nor run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def hooked_names() -> list:
    """(module, attribute) of each HOOKS entry and each clock.attach(exp, ...)."""
    names = []
    for node in ast.walk(ast.parse(RUN.read_text())):
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "HOOKS" for t in node.targets
        ):
            names += [(module, attr) for module, attr, *_ in ast.literal_eval(node.value)]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "attach"
            and node.args
            and getattr(node.args[0], "id", None) == "exp"  # mixdetect.experiments
        ):
            names.append(("experiments", ast.literal_eval(node.args[1])))
    return names


NAMES = hooked_names()


def test_names_found():
    assert ("statistics", "lrt_stat") in NAMES
    assert ("experiments", "_power_point") in NAMES


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_hooked_name_resolves(module, attr):
    assert hasattr(importlib.import_module(f"mixdetect.{module}"), attr)


CLI_NAMES = [attr for module, attr in NAMES if module == "cli"]


def test_cli_names_found():
    assert "cmd_test" in CLI_NAMES and "read_sample_file" in CLI_NAMES


@pytest.mark.parametrize("attr", CLI_NAMES)
def test_cli_hook_attached_after_a_call_sees_the_next(tmp_path, capsys, monkeypatch, attr):
    # the benchmark attaches its cli spans after a warm-up call of main; a
    # parser that bound cmd_test at that call would bypass the span
    cli = importlib.import_module("mixdetect.cli")
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    x.write_text("0.1\n0.4\n0.9\n")
    y.write_text("0.2\n0.6\n1.3\n")
    argv = ["test", "--x", str(x), "--y", str(y), "--tests", "ks,tailrun"]
    assert cli.main(argv) == 0
    seen = []
    original = getattr(cli, attr)
    monkeypatch.setattr(cli, attr, lambda *a, **k: seen.append(a) or original(*a, **k))
    assert cli.main(argv) == 0
    assert seen


def read_arguments() -> list:
    """(module, attribute, pos, key) of each _arg(args, kwargs, pos, key) call
    in the function that run.py's AFTER or REPLACE maps a hooked attribute to."""
    tree = ast.parse(RUN.read_text())
    modules = {attr: module for module, attr in NAMES}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in (
            "AFTER", "REPLACE"
        ):
            for attr, hook in zip(node.value.keys, node.value.values):
                attr = ast.literal_eval(attr)
                for call in ast.walk(functions[hook.id]):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                        pos, key = (ast.literal_eval(a) for a in call.args[2:])
                        reads.append((modules[attr], attr, pos, key))
    return reads


READS = read_arguments()


def test_arguments_found():
    assert ("experiments", "_collect", 8, "reps") in READS
    assert ("calibration", "save_null_table", 1, "path") in READS
    assert len(READS) >= 8


@pytest.mark.parametrize(
    "module, attr, pos, key", READS, ids=[f"{a}[{p}]={k}" for _, a, p, k in READS]
)
def test_read_argument_is_at_its_position(module, attr, pos, key):
    fn = getattr(importlib.import_module(f"mixdetect.{module}"), attr)
    assert list(inspect.signature(fn).parameters)[pos] == key
