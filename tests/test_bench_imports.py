"""The package names and configs the benchmark scripts under bench/ rely on still work.

The benchmark imports names from the package, swaps module attributes at its
patch sites and builds its workloads from CLI configs; a rename, a removal or
a stricter config check here would only show when the benchmark runs.  The
scripts are parsed, except ``workloads.py``, whose ``build`` is called, and
the one call of ``run.py`` that a change of training mode can break, its
Burgers LM step on the matrix-free operator, is made here too.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rpnn_parareal import (BurgersJacobianOperator, levenberg_marquardt, parareal_solve,
                           residual)
from rpnn_parareal.cli import build_solver

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


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    monkeypatch.setattr(sys, "path", [*sys.path])  # build() prepends src/
    spec.loader.exec_module(workloads)
    return workloads


def test_bench_workloads_build(tmp_path, monkeypatch):
    """Each workload config passes the CLI's checks, and the benchmark's
    solver settings equal the ones the CLI builds from it."""
    workloads = _load_workloads(monkeypatch)
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, tmp_path / name)
        assert workload.solver == build_solver(workload.config)[3], name


def test_bench_burgers_lm_step_on_operator(tmp_path, monkeypatch):
    """The traced benchmark times one LM step on the Burgers operator with
    the workload's LmOptions; that call returns a finite report."""
    wl = _load_workloads(monkeypatch).build("burgers-sine", tmp_path)
    result = parareal_solve(wl.system, wl.x0, wl.mesh, wl.solver)
    basis, theta, x = result.bases[0], result.thetas[0], result.node_states[0]
    theta_step, report = levenberg_marquardt(
        lambda th: residual(basis, th, x, wl.system),
        lambda th: BurgersJacobianOperator(basis, th, x, wl.system.spatial),
        np.zeros_like(theta), dataclasses.replace(wl.solver.lm, max_iter=1))
    assert report.iterations == 1
    assert np.all(np.isfinite(theta_step))
    assert np.isfinite(report.final_cost) and np.isfinite(report.epsilon)
