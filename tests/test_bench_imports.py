"""The package names and configs the benchmark scripts under bench/ rely on still work.

The benchmark imports names from the package, swaps module attributes at its
patch sites and builds its workloads from CLI configs; a rename, a removal or
a stricter config check here would only show when the benchmark runs.  The
scripts are parsed, except ``workloads.py``, whose ``build`` is called, and
``spans.py``, whose fine-interval probe and counted system copy are run on
the package.  The calls ``run.py`` makes on the Burgers Jacobian operator,
which is now a view of the dense residual Jacobian, are made here too: its
LM step on the operator and the matrix products its Jacobian timing runs.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from rpnn_parareal import (BurgersJacobianOperator, FineMethod, LmOptions, fine_propagate,
                           levenberg_marquardt, make_benchmark, parareal_solve, residual,
                           sample_basis, train_coarse)
from rpnn_parareal.cli import build_solver
from rpnn_parareal.problems import default_initial_state

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


def test_bench_rober_workload_follows_cli_defaults(tmp_path, monkeypatch):
    """`rober-reduced` takes its node kind and fit from the CLI's rober
    defaults: Radau nodes and the library's fit."""
    workload = _load_workloads(monkeypatch).build("rober-reduced", tmp_path)
    assert workload.solver.node_kind == "radau"
    assert workload.solver.lm.floor_to_gauss_newton == LmOptions().floor_to_gauss_newton


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


def test_bench_burgers_operator_products(tmp_path, monkeypatch):
    """The traced benchmark times `op.rmatvec_mat(op.matvec_mat(theta))` on
    the Burgers operator; the two products have shapes (C, d) and (H, d)."""
    wl = _load_workloads(monkeypatch).build("burgers-sine", tmp_path)
    result = parareal_solve(wl.system, wl.x0, wl.mesh, wl.solver)
    basis, theta, x = result.bases[0], result.thetas[0], result.node_states[0]
    op = BurgersJacobianOperator(basis, theta, x, wl.system.spatial)
    forward = op.matvec_mat(theta)
    backward = op.rmatvec_mat(forward)
    d = wl.system.dim
    assert forward.shape == (basis.colloc, d)
    assert backward.shape == (basis.hidden, d)
    assert np.all(np.isfinite(backward))


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_fine_probe_sees_one_call_per_interval_per_sweep(tmp_path, monkeypatch):
    """The modelled parallel time needs one fine_propagate call per interval
    per sweep, in interval order."""
    spans = _load_spans()
    wl = _load_workloads(monkeypatch).build("arenstorf-short", tmp_path)
    probe = spans.FineProbe()
    with probe.installed():
        start = time.perf_counter()
        result = parareal_solve(wl.system, wl.x0, wl.mesh, wl.solver)
        end = time.perf_counter()
    n = wl.mesh.n_intervals
    assert len(probe.fine) == n * result.iterations
    parts = probe.model_parts(start, end, n)
    assert parts.shape == (1 + result.iterations * (n + 1),)
    assert np.all(parts >= 0)


def test_bench_traced_system_counts_four_field_calls_per_rk4_step():
    """The traced copy's field has no float form, so every RK4 stage is one
    counted field call, and the copy propagates to the same bits."""
    spans = _load_spans()
    rec = spans.SpanRecorder()
    system = make_benchmark("arenstorf")
    x, steps, dt = default_initial_state("arenstorf"), 64, 17.0 / 80000.0
    method = FineMethod("rk4", dt)
    traced = rec.wrap("integrators.fine_propagate", fine_propagate)
    got = traced(rec.system(system), x, steps * dt, method)
    assert spans.SpanTable(rec).leaves_under(["field"]) == 4 * steps
    assert np.array_equal(got, fine_propagate(system, x, steps * dt, method))


def test_bench_traced_system_propagates_rober_implicit_euler_bitwise():
    """The traced copy's field and Jacobian have no float forms, so implicit
    Euler runs on arrays and counts one Jacobian call per Newton iteration
    and one field call more per interval: each step starts from the field
    value of the previous step's last residual.  It propagates to the float
    path's bits."""
    spans = _load_spans()
    rec = spans.SpanRecorder()
    system = make_benchmark("rober")
    x, steps, dt = default_initial_state("rober"), 200, 1e-3
    method = FineMethod("implicit-euler", dt)
    traced = rec.wrap("integrators.fine_propagate", fine_propagate)
    got = traced(rec.system(system), x, steps * dt, method)
    table = spans.SpanTable(rec)
    newton_iters = table.leaves_under(["jacobian"])
    assert newton_iters >= steps
    assert table.leaves_under(["field"]) == 1 + newton_iters
    assert np.array_equal(got, fine_propagate(system, x, steps * dt, method))


def test_bench_traced_system_trains_rober_through_field_rows():
    """Training evaluates the field only through `field_rows`, so the counted
    copy sees one `field_rows` call per residual and no `field` call, and
    its Jacobian once per collocation state; it trains to the plain system's
    bits."""
    spans = _load_spans()
    rec = spans.SpanRecorder()
    system = make_benchmark("rober")
    basis = sample_basis(5, 5, 0.1, seed=1)
    x0 = default_initial_state("rober")
    opts = LmOptions(floor_to_gauss_newton=False)
    traced = rec.wrap("collocation.train_coarse", train_coarse)
    theta, report = traced(basis, x0, rec.system(system), None, opts)
    plain_theta, plain_report = train_coarse(basis, x0, system, None, opts)
    assert np.array_equal(theta, plain_theta)
    assert report == plain_report
    table = spans.SpanTable(rec)
    assert table.leaves_under(["field"]) == 0
    assert table.leaves_under(["field_rows"]) == 1 + report.iterations
    jacobian_calls = table.leaves_under(["jacobian"])
    assert jacobian_calls > 0 and jacobian_calls % basis.colloc == 0
