"""The package names the benchmark scripts under bench/ rely on still exist.

The benchmark imports names from the package and swaps module attributes at
its patch sites; a rename or removal here would only show when the benchmark
runs.  The scripts are parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_imports():
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rpnn_parareal"):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((path.name, alias.name, None) for alias in node.names
                             if alias.name.startswith("rpnn_parareal"))
    return found


def _patch_sites():
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "PATCH_SITES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no PATCH_SITES")


def test_bench_imports_resolve():
    imports = _bench_imports()
    assert any(module == "rpnn_parareal" for _, module, _ in imports)
    missing = []
    for script, module, name in imports:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            missing.append(f"{script}: {module}.{name}")
    assert not missing


def test_bench_patch_sites_resolve():
    """Each patched attribute exists and is the function its span is named after."""
    wrong = []
    for module, attr, span in _patch_sites():
        found = getattr(importlib.import_module(f"rpnn_parareal.{module}"), attr, None)
        layer, function = span.split(".")
        named = getattr(importlib.import_module(f"rpnn_parareal.{layer}"), function, None)
        if found is None or found is not named:
            wrong.append(f"rpnn_parareal.{module}.{attr} ({span})")
    assert not wrong
