"""Package layout rules.

Every enumeration cap lives in `errors.py`, and `errors.py` imports nothing
from the package, so any module can read a cap without an import cycle.
Both rules are read from the source with `ast` alone; the modules that used
to own a cap still export it.  The value classes FieldSpec, Scalar and Vector
are slotted: their instances carry no `__dict__`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from ultranorm import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ultranorm"
MODULES = sorted(PACKAGE.glob("*.py"))


def module_level_names(tree: ast.Module):
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def test_package_modules_found():
    assert PACKAGE / "errors.py" in MODULES


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_caps_are_assigned_only_in_errors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    caps = [name for name in module_level_names(tree) if name.endswith("_CAP")]
    assert caps == [], f"{path.name} assigns {caps}; caps belong in errors.py"


def test_errors_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("ultranorm"), \
                f"errors.py imports from {'.' * node.level}{node.module or ''}"
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "ultranorm" for a in node.names)


@pytest.mark.parametrize("module, name", [
    ("betweenness", "DEFAULT_ENUM_CAP"),
    ("sampling", "DEFAULT_ENUM_CAP"),
    ("oracle", "DEFAULT_SPACE_CAP"),
    ("oracle", "DEFAULT_ULTRAMETRIC_SPACE_CAP"),
    ("oracle", "DEFAULT_TRIPLE_CAP"),
    ("cli", "VERIFY_CAP"),
])
def test_caps_resolve_in_their_old_modules(module, name):
    assert getattr(importlib.import_module(f"ultranorm.{module}"), name) == getattr(errors, name)


@pytest.mark.parametrize("name", ["FieldSpec", "Scalar", "Vector"])
def test_value_classes_are_slotted(name):
    from ultranorm import FieldSpec, Scalar, Vector

    field = FieldSpec.gf(3)
    instance = {"FieldSpec": field, "Scalar": Scalar(field, 1),
                "Vector": Vector.make(field, [1, 2])}[name]
    assert "__slots__" in type(instance).__dict__
    assert not hasattr(instance, "__dict__")
