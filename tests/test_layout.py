"""Package layout rules.

Every enumeration cap lives in `errors.py`, and `errors.py` imports nothing
from the package, so any module can read a cap without an import cycle.
Both rules are read from the source with `ast` alone; the modules that used
to own a cap still export it.  No module imports `dataclasses`, and every
value and report class is slotted: its instances carry no `__dict__`.  Only
`cli.py` imports `time`: reports hold findings, and the CLI's --timing is the
one clock.  Only `__main__.py` runs the CLI when executed: `python -m ultranorm`
and the `ultranorm` console script are its two ways in.  Only `fields.py`
calls `as_integer_ratio`: every exponent of |a - b| = p**e comes from its
one integer kernel, `fields._exponent`.  Only `fields.py` and `spaces.py`
name `_abs_exponent` or the kernel `_exponent`: outside `fields.py` only
`spaces._pair_exponent` reads an exponent of a difference, for the norm keys
and for `spaces._key_rows`, so the isosceles rule has one home.
Only `spaces.py` and `betweenness.py` name `Vector._each`, the builder that
checks no coordinate: the CLI, the probe-file reader and `sampling` build
every vector through the checking constructor.
Every public function and class is used elsewhere in the package or
exported: test-only helpers live in `tests/gen.py`, and the oracles in
`tests/naive.py` import neither the package nor `gen`.  A class reads JSON
(`from_json`) only if `cli.py` calls that reader: the package reads JSON
where the CLI does.  No module names `float`: no binary float may reach a
coordinate, nor any output.
"""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest

import ultranorm
from ultranorm import errors

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ultranorm"
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "dataclasses", f"{path.name} imports from dataclasses"
        elif isinstance(node, ast.Import):
            assert all(a.name != "dataclasses" for a in node.names), \
                f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_reads_the_clock(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "time", f"{path.name} imports from time"
        elif isinstance(node, ast.Import):
            assert all(a.name != "time" for a in node.names), f"{path.name} imports time"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_dunder_main_has_a_main_guard(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    guarded = any(isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
                  for node in ast.walk(tree))
    assert guarded == (path.name == "__main__.py"), \
        f"{path.name}: only __main__.py runs as a script"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_only_fields_reads_integer_ratios(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"]
    assert calls == [], f"{path.name}:{calls} reads integer ratios; use fields._exponent"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("fields.py", "spaces.py")],
                         ids=lambda p: p.name)
def test_only_fields_and_spaces_read_kept_exponents(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if "_abs_exponent" in (getattr(node, "attr", None), getattr(node, "id", None),
                                    getattr(node, "name", None))]
    assert lines == [], f"{path.name}:{lines} names _abs_exponent; use spaces._pair_exponent"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("fields.py", "spaces.py")],
                         ids=lambda p: p.name)
def test_only_fields_and_spaces_name_the_exponent_kernel(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if "_exponent" in (getattr(node, "attr", None), getattr(node, "id", None),
                                getattr(node, "name", None))]
    assert lines == [], f"{path.name}:{lines} names _exponent; use spaces._key_rows or a norm"


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("spaces.py", "betweenness.py")],
                         ids=lambda p: p.name)
def test_only_spaces_and_betweenness_build_unchecked_vectors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if "_each" in (getattr(node, "attr", None), getattr(node, "id", None),
                            getattr(node, "name", None))]
    assert lines == [], f"{path.name}:{lines} names Vector._each; build through Vector(...)"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_float(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "float"]
    assert lines == [], f"{path.name}:{lines} names float; values stay exact"


def test_fields_reads_integer_ratios():
    tree = ast.parse((PACKAGE / "fields.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
               for node in ast.walk(tree))


def _referenced_names(nodes):
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name.rsplit(".", 1)[-1]


def unused_public_names(package: Path, exported) -> list[str]:
    """Public module-level functions and classes that no other top-level
    statement of the package names (as a name, an attribute or an import)
    and that `exported` does not list."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            others = [stmt for other, t in trees.items() for stmt in t.body
                      if not (other == module and stmt is node)]
            if node.name not in exported and node.name not in _referenced_names(others):
                unused.append(f"{module[:-3]}.{node.name}")
    return unused


def test_every_public_name_is_used_in_the_package_or_exported():
    assert unused_public_names(PACKAGE, ultranorm.__all__) == [], \
        "unused public names; test-only helpers belong in tests/gen.py"


def test_every_exported_name_is_bound_once():
    exported = ultranorm.__all__
    assert [name for name in exported if not hasattr(ultranorm, name)] == []
    assert len(set(exported)) == len(exported)


def test_every_json_reader_is_called_by_the_cli():
    readers = {node.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and any(
                   isinstance(f, ast.FunctionDef) and f.name == "from_json" for f in node.body)}
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = {node.func.value.id for node in ast.walk(cli)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "from_json" and isinstance(node.func.value, ast.Name)}
    assert readers and sorted(readers - called) == [], "a from_json the CLI never calls"


def test_the_naive_oracles_import_neither_the_package_nor_gen():
    tree = ast.parse((TESTS / "naive.py").read_text(encoding="utf-8"))
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
    assert not [name for name in imported if name.split(".")[0] in ("ultranorm", "gen")]


def _instances():
    import ultranorm as U

    field = U.FieldSpec.gf(3)
    x, y = U.Vector.make(field, [1, 2]), U.Vector.make(field, [2, 1])
    probes = U.ProbeMap((x, y), (y, x))
    return {
        "FieldSpec": field, "Scalar": U.Scalar(field, 1), "Vector": x,
        "NormSpec": U.NormSpec.parse("wsup:1,2"),
        "AffineMap": U.AffineMap(field.one, field.zero),
        "TableMap": U.TableMap.from_residues(field, [0, 2, 1]),
        "AxialIsometry": U.AxialIsometry.identity(field, 2),
        "ProbeMap": probes,
        "SegmentEnumeration": U.segment(x, y),
        "AxiomReport": U.AxiomReport("demo"),
        "EnumerationResult": U.enumerate_isometries(2, 1),
        "BetweennessReport": U.exhaustive_betweenness_check(2, 1),
        "IsometryReport": U.verify_isometry(probes, U.NormSpec.one()),
    }


@pytest.mark.parametrize("name", ["FieldSpec", "Scalar", "Vector", "NormSpec", "AffineMap",
                                  "TableMap", "AxialIsometry", "ProbeMap", "SegmentEnumeration",
                                  "AxiomReport", "EnumerationResult", "BetweennessReport",
                                  "IsometryReport"])
def test_value_classes_are_slotted(name):
    instance = _instances()[name]
    assert type(instance).__name__ == name
    assert "__slots__" in type(instance).__dict__
    assert not hasattr(instance, "__dict__")


@pytest.mark.parametrize("name, keys", [("AxiomReport", ["violations"]),
                                        ("IsometryReport", ["violations", "collisions"]),
                                        ("BetweennessReport", ["witnesses"])])
def test_a_report_payload_shares_no_list_with_its_report(name, keys):
    report = _instances()[name]
    payload, ok = report.to_json_dict(), report.ok
    before = json.dumps(payload)
    for key in keys:
        payload[key].append({})
    assert report.ok == ok
    assert json.dumps(report.to_json_dict()) == before
