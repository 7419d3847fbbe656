"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.  The full-mesh stiff run (criterion 6, desk
scale) is marked slow; its reduced variant runs everywhere.

Criterion 4b (the constant-field tightness clause) is known to fail and is
kept faithful rather than weakened; the README explains why the claim cannot
hold for a tanh ansatz.
"""

import time

import numpy as np
import pytest

from rpnn_parareal import (
    FineMethod,
    LmOptions,
    PararealConfig,
    TimeMesh,
    collocation_grid,
    make_benchmark,
    parareal_solve,
    quadrature_certificate,
    sample_basis,
    serial_solve,
    train_coarse,
)
from rpnn_parareal.cli import ExperimentConfig, run_experiment
from rpnn_parareal.collocation import levenberg_marquardt
from rpnn_parareal.problems import default_initial_state
from rpnn_parareal.rpnn import eval_network_many

from conftest import constant_system, linear_system


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Shared runs (reused by criterion 10)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sir_run():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 10.0, 10)
    config = PararealConfig(fine=FineMethod("rk4", 1e-2), tol=1e-4, max_it=20, seed=0)
    tic = time.perf_counter()
    result = parareal_solve(system, x0, mesh, config)
    reference = serial_solve(system, x0, mesh, config.fine)
    return result, reference, time.perf_counter() - tic


@pytest.fixture(scope="module")
def rober_reduced_run():
    system = make_benchmark("rober")
    x0 = np.array([1.0, 0.0, 0.0])
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 10), (1.0, 10.0, 5)])
    config = PararealConfig(
        fine=FineMethod("implicit-euler", 1e-3), tol=1e-4, max_it=20, seed=1,
        lm=LmOptions(floor_to_gauss_newton=False),
    )
    tic = time.perf_counter()
    result = parareal_solve(system, x0, mesh, config)
    reference = serial_solve(system, x0, mesh, config.fine)
    return result, reference, time.perf_counter() - tic


@pytest.fixture(scope="module")
def burgers_runs():
    system = make_benchmark("burgers")
    mesh = TimeMesh.uniform(0.0, 1.0, 50)
    config = PararealConfig(
        fine=FineMethod("implicit-euler", 1.0 / 500.0), tol=1e-4, max_it=20, seed=11,
        lm=LmOptions(),
    )
    runs = {}
    tic = time.perf_counter()
    for ic in ("sine", "quadratic", "multiwave"):
        x0 = default_initial_state("burgers", {"initial_condition": ic})
        result = parareal_solve(system, x0, mesh, config)
        reference = serial_solve(system, x0, mesh, config.fine)
        runs[ic] = (result, reference)
    return runs, time.perf_counter() - tic


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_finite_step_exactness():
    """Iteration i reproduces the first i sequential fine nodes."""
    tic = time.perf_counter()
    worst = 0.0
    for name, t_end, n, dt in (("sir", 10.0, 10, 1e-2), ("lorenz", 1.0, 25, 2e-3)):
        system = make_benchmark(name)
        x0 = {"sir": np.array([0.3, 0.5, 0.2]),
              "lorenz": np.array([20.0, 5.0, -5.0])}[name]
        mesh = TimeMesh.uniform(0.0, t_end, n)
        config = PararealConfig(
            fine=FineMethod("rk4", dt), tol=1e-300, max_it=n + 1, seed=3,
            record_trace=True,
        )
        result = parareal_solve(system, x0, mesh, config)
        reference = serial_solve(system, x0, mesh, config.fine)
        for i in range(1, len(result.trace)):
            k = min(i, n)
            prefix = result.trace[i][: k + 1]
            rel = np.linalg.norm(prefix - reference[: k + 1], axis=1)
            rel /= np.maximum(np.linalg.norm(reference[: k + 1], axis=1), 1e-300)
            worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-12 and elapsed < 10.0
    _report("1", ok, f"worst prefix rel err {worst:.2e} (<=1e-12), {elapsed:.1f}s (<10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_quadrature_exactness():
    tic = time.perf_counter()
    worst_base, worst_lobatto = 0.0, 0.0
    for dt in (1.0, 0.37):
        for kind, c_range in (("uniform", range(2, 6)), ("lobatto", range(3, 6))):
            for c in c_range:
                grid = collocation_grid(kind, c, dt)
                for k in range(c):
                    exact = dt ** (k + 1) / (k + 1)
                    err = abs(float(grid.weights @ grid.nodes**k) - exact) / abs(exact)
                    worst_base = max(worst_base, err)
                if kind == "lobatto":
                    for k in range(c, 2 * c - 2):
                        exact = dt ** (k + 1) / (k + 1)
                        err = abs(float(grid.weights @ grid.nodes**k) - exact) / abs(exact)
                        worst_lobatto = max(worst_lobatto, err)
    elapsed = time.perf_counter() - tic
    ok = worst_base <= 1e-10 and worst_lobatto <= 1e-9 and elapsed < 1.0
    _report("2", ok,
            f"monomial rel err {worst_base:.2e} (<=1e-10), "
            f"lobatto extra {worst_lobatto:.2e} (<=1e-9), {elapsed:.2f}s (<1s)")
    assert worst_base <= 1e-10
    assert worst_lobatto <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_jacobian_correctness():
    from rpnn_parareal.collocation import (
        BurgersJacobianOperator,
        residual,
        residual_jacobian,
        _unvec,
        _vec,
    )
    from conftest import sample_benchmark_state

    tic = time.perf_counter()
    worst_fd = 0.0
    rng = np.random.default_rng(2024)
    for name in ("sir", "rober", "lorenz", "arenstorf", "brusselator", "burgers"):
        system = make_benchmark(name)
        basis = sample_basis(5, 5, 0.05, seed=1)
        for _ in range(10):
            theta = 0.1 * rng.standard_normal((5, system.dim))
            x0 = sample_benchmark_state(name, rng, system)
            analytic = residual_jacobian(basis, theta, x0, system)
            flat = _vec(theta)
            fd = np.empty_like(analytic)
            for col in range(theta.size):
                e = np.zeros(theta.size)
                e[col] = 1e-7 * (1.0 + abs(flat[col]))
                plus = residual(basis, _unvec(flat + e, theta.shape), x0, system)
                minus = residual(basis, _unvec(flat - e, theta.shape), x0, system)
                fd[:, col] = _vec(plus - minus) / (2.0 * e[col])
            err = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            worst_fd = max(worst_fd, float(err))

    system11, disc11 = __import__("rpnn_parareal").burgers_semidiscretize(11, 1.0 / 50.0)
    basis11 = sample_basis(5, 5, 0.02, seed=3)
    worst_op = 0.0
    for _ in range(10):
        theta = 0.1 * rng.standard_normal((5, 11))
        x0 = rng.uniform(-1, 1, 11)
        dense = residual_jacobian(basis11, theta, x0, system11)
        op = BurgersJacobianOperator(basis11, theta, x0, disc11)
        v = rng.standard_normal(55)
        w = rng.standard_normal(55)
        worst_op = max(
            worst_op,
            float(np.max(np.abs(dense @ v - op.matvec(v)))),
            float(np.max(np.abs(dense.T @ w - op.rmatvec(w)))),
        )
    elapsed = time.perf_counter() - tic
    ok = worst_fd <= 1e-6 and worst_op <= 1e-12 and elapsed < 30.0
    _report("3", ok,
            f"FD rel err {worst_fd:.2e} (<=1e-6), operator-vs-dense {worst_op:.2e} "
            f"(<=1e-12), {elapsed:.1f}s (<30s)")
    assert worst_fd <= 1e-6
    assert worst_op <= 1e-12
    assert elapsed < 30.0


def test_criterion_4a_certificate_validity():
    tic = time.perf_counter()
    x0 = np.array([1.0])
    summary = []
    all_ok = True
    for lam in (-1.0, -0.1, 1.0):
        system = linear_system(lam)
        for dt in (0.1, 0.5):
            grid = collocation_grid("uniform", 5, dt)
            valid = 0
            for seed in range(100):
                basis = sample_basis(5, 5, dt, seed=seed)
                theta, _ = train_coarse(basis, x0, system)
                cert = quadrature_certificate(basis, theta, x0, system, grid, lam)
                ts = np.linspace(0.0, dt, 1001)
                values = eval_network_many(basis, theta, x0, ts)[:, 0]
                sup = float(np.max(np.abs(values - np.exp(lam * ts))))
                if sup <= cert.total:
                    valid += 1
            summary.append(f"lam={lam:+g},dt={dt}:{valid}/100")
            all_ok = all_ok and valid >= 99
    elapsed = time.perf_counter() - tic
    ok = all_ok and elapsed < 60.0
    _report("4a", ok, f"{'; '.join(summary)} (each >=99/100), {elapsed:.1f}s (<60s)")
    assert all_ok
    assert elapsed < 60.0


def test_criterion_4b_eps_term_alone_for_polynomial_solutions():
    """Constant field: the defect-at-nodes term alone must bound the error.

    Known red: a tanh ansatz cannot represent linear-in-time solutions, so
    between the nodes the defect is nonzero at a scale set by the interval
    length, and the stated 1e-12 slack is exceeded at dt = 0.5 (and for some
    draws at dt = 0.1).  The test is kept faithful to the stated criterion.
    """
    system = constant_system(np.array([1.0]))
    x0 = np.array([0.5])
    worst_excess = 0.0
    worst_case = ""
    for dt in (0.1, 0.5):
        grid = collocation_grid("uniform", 5, dt)
        for seed in range(20):
            basis = sample_basis(5, 5, dt, seed=seed)
            theta, _ = train_coarse(basis, x0, system)
            cert = quadrature_certificate(basis, theta, x0, system, grid, 0.0)
            ts = np.linspace(0.0, dt, 1001)
            values = eval_network_many(basis, theta, x0, ts)[:, 0]
            sup = float(np.max(np.abs(values - (x0[0] + ts))))
            excess = sup - (cert.eps_term + 1e-12)
            if excess > worst_excess:
                worst_excess = excess
                worst_case = f"dt={dt}, seed={seed}, sup={sup:.2e}, eps_term={cert.eps_term:.2e}"
    ok = worst_excess <= 0.0
    _report("4b", ok, f"worst excess {worst_excess:.2e} ({worst_case or 'none'})")
    assert worst_excess <= 0.0, (
        "eps_term alone does not bound the constant-field error: the tanh "
        "ansatz cannot represent linear-in-time solutions, so the defect "
        "between nodes contributes at the interval-length scale (see README)"
    )


def test_criterion_5_sir_convergence(sir_run):
    result, reference, elapsed = sir_run
    max_err = float(np.max(np.linalg.norm(result.node_states - reference, axis=1)))
    ok = (result.converged and result.iterations < 10 and max_err <= 1e-3
          and elapsed < 10.0)
    _report("5", ok,
            f"iterations {result.iterations} (<10), max node err {max_err:.2e} "
            f"(<=1e-3), {elapsed:.1f}s (<10s)")
    assert result.converged and result.iterations < 10
    assert max_err <= 1e-3
    assert elapsed < 10.0


def _rober_checks(result, reference):
    scale = np.array([1.0, 1e4, 1.0])
    scaled_err = float(np.max(np.abs((result.node_states - reference) * scale)))
    sum_drift = float(np.max(np.abs(reference.sum(axis=1) - 1.0)))
    return scaled_err, sum_drift


def test_criterion_6_rober_reduced(rober_reduced_run):
    result, reference, elapsed = rober_reduced_run
    scaled_err, sum_drift = _rober_checks(result, reference)
    ok = (result.converged and scaled_err <= 1e-3 and sum_drift <= 1e-10
          and elapsed < 30.0)
    _report("6", ok,
            f"reduced mesh: iterations {result.iterations}, scaled err {scaled_err:.2e} "
            f"(<=1e-3), reference sum drift {sum_drift:.2e} (<=1e-10), "
            f"{elapsed:.1f}s (<30s)")
    assert result.converged
    assert scaled_err <= 1e-3
    assert sum_drift <= 1e-10
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_6_rober_full_mesh():
    system = make_benchmark("rober")
    x0 = np.array([1.0, 0.0, 0.0])
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 100), (1.0, 100.0, 33)])
    config = PararealConfig(
        fine=FineMethod("implicit-euler", 1e-4), tol=1e-4, max_it=20, seed=1,
        lm=LmOptions(floor_to_gauss_newton=False),
    )
    tic = time.perf_counter()
    result = parareal_solve(system, x0, mesh, config)
    reference = serial_solve(system, x0, mesh, config.fine)
    elapsed = time.perf_counter() - tic
    scaled_err, sum_drift = _rober_checks(result, reference)
    ok = result.converged and scaled_err <= 1e-3 and sum_drift <= 1e-10
    _report("6-full", ok,
            f"full mesh: iterations {result.iterations}, scaled err {scaled_err:.2e}, "
            f"reference sum drift {sum_drift:.2e}, {elapsed:.0f}s "
            f"(wall-clock reported, not asserted)")
    assert result.converged
    assert scaled_err <= 1e-3
    assert sum_drift <= 1e-10


def test_criterion_7_burgers(burgers_runs):
    runs, elapsed = burgers_runs
    details = []
    all_ok = True
    for ic, (result, reference) in runs.items():
        err = float(np.max(np.abs(result.node_states - reference)))
        good = result.converged and err <= 1e-2
        details.append(f"{ic}: it={result.iterations}, err={err:.2e}")
        all_ok = all_ok and good
    ok = all_ok and elapsed < 300.0
    _report("7", ok, f"{'; '.join(details)} (each <=1e-2), {elapsed:.0f}s (<300s)")
    assert all_ok
    assert elapsed < 300.0


def test_criterion_8_linear_invariant_conservation():
    tic = time.perf_counter()
    sir = make_benchmark("sir")
    mesh = TimeMesh.uniform(0.0, 10.0, 10)
    trajectory = serial_solve(sir, np.array([0.3, 0.5, 0.2]), mesh, FineMethod("rk4", 1e-2))
    sir_drift = float(np.max(np.abs(trajectory.sum(axis=1) - 1.0)))

    rober = make_benchmark("rober")
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 10), (1.0, 100.0, 11)])
    trajectory = serial_solve(
        rober, np.array([1.0, 0.0, 0.0]), mesh, FineMethod("implicit-euler", 1e-3)
    )
    rober_drift = float(np.max(np.abs(trajectory.sum(axis=1) - 1.0)))
    elapsed = time.perf_counter() - tic
    ok = sir_drift <= 1e-10 and rober_drift <= 1e-10 and elapsed < 30.0
    _report("8", ok,
            f"sir drift {sir_drift:.2e}, rober drift {rober_drift:.2e} "
            f"(each <=1e-10), {elapsed:.1f}s (<30s)")
    assert sir_drift <= 1e-10
    assert rober_drift <= 1e-10
    assert elapsed < 30.0


def test_criterion_9_determinism(tmp_path):
    tic = time.perf_counter()
    blobs = []
    for run, workers in (("a", 1), ("b", 4), ("c", 1), ("d", 4)):
        out = tmp_path / run
        config = ExperimentConfig.from_dict({
            "benchmark": "sir",
            "t_end": 5.0,
            "mesh": {"kind": "uniform", "intervals": 5},
            "rpnn": {"seed": 42},
            "workers": workers,
            "out_dir": str(out),
            "dense_samples": 100,
        })
        run_experiment(config)
        blobs.append((out / "nodes.csv").read_bytes())
    elapsed = time.perf_counter() - tic
    identical = all(blob == blobs[0] for blob in blobs[1:])
    ok = identical and elapsed < 60.0
    _report("9", ok, f"nodes.csv byte-identical across workers 1/4: {identical}, "
                     f"{elapsed:.1f}s (<60s)")
    assert identical
    assert elapsed < 60.0


def test_criterion_10_lm_sanity(sir_run, rober_reduced_run, burgers_runs):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    theta_star = np.linalg.solve(a.T @ a, a.T @ b)
    theta, _ = levenberg_marquardt(lambda th: a @ th - b, lambda th: a, np.zeros(6))
    lsq_err = float(np.linalg.norm(theta - theta_star))

    rosen, _ = levenberg_marquardt(
        lambda th: np.array([1.0 - th[0], 10.0 * (th[1] - th[0] ** 2)]),
        lambda th: np.array([[-1.0, 0.0], [-20.0 * th[0], 10.0]]),
        np.array([-1.2, 1.0]),
    )
    rosen_err = float(np.linalg.norm(rosen - np.array([1.0, 1.0])))

    runs = [sir_run[0], rober_reduced_run[0]]
    runs.extend(result for result, _ in burgers_runs[0].values())
    monotone = True
    reports = 0
    for result in runs:
        for sweep in result.train_reports:
            for report in sweep:
                history = report.cost_history
                reports += 1
                if any(later >= earlier for earlier, later in zip(history, history[1:])):
                    monotone = False
    ok = lsq_err <= 1e-10 and rosen_err <= 1e-8 and monotone
    _report("10", ok,
            f"LS oracle err {lsq_err:.2e} (<=1e-10), rosenbrock err {rosen_err:.2e} "
            f"(<=1e-8), strict decrease over {reports} train reports: {monotone}")
    assert lsq_err <= 1e-10
    assert rosen_err <= 1e-8
    assert monotone
