"""Every name that perfbench/run.py attaches to still resolves on the package.

The benchmark hooks functions by (module, attribute); a hook whose name is
gone attaches nowhere, and its per-layer metrics drop out of the report.
The names are read from run.py's source, which is neither imported nor run.
"""

import ast
import importlib
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
