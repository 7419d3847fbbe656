"""Parareal driver: correction algebra, exactness, determinism, evaluation."""

import dataclasses

import numpy as np
import pytest

from rpnn_parareal import (
    FineMethod,
    NewtonNonconvergence,
    OdeSystem,
    PararealConfig,
    PararealResult,
    StepFailure,
    TimeMesh,
    collocation_grid,
    evaluate_piecewise,
    fine_propagate,
    make_benchmark,
    parareal_solve,
    quadrature_certificate,
    sample_basis,
    serial_solve,
    zeroth_iterate,
)
from rpnn_parareal.parareal import _CoarseTrainer, correction_step, stopping_error
from rpnn_parareal.cli import ExperimentConfig, build_solver, compare_with_serial
from rpnn_parareal.problems import BENCHMARK_NAMES, _on_floats

from conftest import (
    assert_bitwise,
    benchmark_network,
    linear_system,
    sample_times,
    zero_system,
)


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------


def test_mesh_validation():
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeMesh.from_blocks([(0.0, 1.0, 2), (2.0, 3.0, 2)])
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.0, np.nan]))


# `uniform` read True as 1, raised a message without the count on 0 and -1,
# and a TypeError on 2.0.
@pytest.mark.parametrize("count", [0, -1, True, 2.0, "2"])
def test_uniform_mesh_rejects_a_count_that_is_not_an_integer_of_at_least_one(count):
    with pytest.raises(ValueError, match=r"interval count must be an integer >= 1"):
        TimeMesh.uniform(0.0, 1.0, count)


@pytest.mark.parametrize("count", [0, -1, True, 2.0, "2"])
def test_mesh_blocks_reject_a_count_that_is_not_an_integer_of_at_least_one(count):
    with pytest.raises(ValueError, match=r"mesh block 1 must be an integer >= 1"):
        TimeMesh.from_blocks([(0.0, 1.0, 10), (1.0, 10.0, count)])


# Both builders read a bool endpoint as 0 or 1, and a string t0 raised
# numpy's DTypePromotionError.
@pytest.mark.parametrize("build, name", [
    (lambda: TimeMesh.uniform(0.0, True, 2), "t_end"),
    (lambda: TimeMesh.uniform("0", 1.0, 2), "t0"),
    (lambda: TimeMesh.from_blocks([(False, True, 2)]), "start of mesh block 0"),
    (lambda: TimeMesh.from_blocks([(0.0, 1.0, 2), (1.0, "2", 2)]), "end of mesh block 1"),
], ids=["bool-t_end", "string-t0", "bool-block-start", "string-block-end"])
def test_mesh_builders_reject_endpoints_that_are_not_real_numbers(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        build()


def test_mesh_builders():
    mesh = TimeMesh.uniform(0.0, 2.0, 4)
    np.testing.assert_allclose(mesh.nodes, [0, 0.5, 1.0, 1.5, 2.0])
    assert mesh.n_intervals == 4
    blocks = TimeMesh.from_blocks([(0.0, 1.0, 2), (1.0, 4.0, 3)])
    np.testing.assert_allclose(blocks.nodes, [0, 0.5, 1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# Correction and stopping error
# ---------------------------------------------------------------------------


def test_correction_scalar_arithmetic():
    got = correction_step(np.array([1.0]), np.array([2.0]), np.array([3.0]))
    assert got[0] == 0.0


def test_correction_telescopes_bitwise():
    x_fine = np.array([0.1, 0.2, 0.3])
    coarse = np.array([5.0, -1.0, 2.5])
    assert np.array_equal(correction_step(x_fine, coarse, coarse.copy()), x_fine)


def test_correction_vector_case():
    got = correction_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_correction_shape_mismatch():
    with pytest.raises(ValueError):
        correction_step(np.zeros(2), np.zeros(3), np.zeros(2))


def test_stopping_error_cases():
    a = np.zeros((4, 2))
    assert stopping_error(a, a.copy()) == 0.0
    b = a.copy()
    b[2] = [3.0, 4.0]
    assert stopping_error(b, a) == pytest.approx(5.0)
    c = a.copy()
    c[1] = [3.0, 4.0]
    c[3] = [6.0, 8.0]
    assert stopping_error(c, a) == pytest.approx(10.0)  # max, not sum
    with pytest.raises(ValueError):
        stopping_error(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Zeroth iterate
# ---------------------------------------------------------------------------


def _config(dt, **kwargs):
    return PararealConfig(fine=FineMethod("rk4", dt), **kwargs)


# Bounds that are not a pair raised an unpacking error that named no setting.
@pytest.mark.parametrize("basis, message", [
    ({"hidden": 4}, "hidden == colloc"),
    ({"node_kind": "gauss"}, "node kind"),
    ({"weight_bounds": (1.0, -1.0)}, "weight bounds"),
    ({"weight_bounds": (-np.inf, 1.0)}, "weight bounds"),
    ({"seed": -1}, "seed"),
    ({"weight_bounds": (True, 2.0)}, "weight bounds"),
    ({"weight_bounds": (0.0, 1.0, 2.0)}, "weight bounds must be a pair"),
    ({"weight_bounds": (1.0,)}, "weight bounds must be a pair"),
    ({"weight_bounds": 5.0}, "weight bounds must be a pair"),
], ids=["hidden-not-colloc", "unknown-node-kind", "reversed-bounds", "infinite-bound",
        "negative-seed", "bool-bound", "three-bounds", "one-bound", "scalar-bounds"])
def test_config_rejects_bad_basis_settings(basis, message):
    with pytest.raises(ValueError, match=message):
        _config(1e-2, **basis)


# An infinite tol would accept the zeroth sweep after 0 iterations; a
# fractional or bool cap would run as some other count.  A bool tol ran as
# 1.0, and a string one raised a TypeError.
@pytest.mark.parametrize("settings", [
    {"tol": np.inf}, {"tol": np.nan}, {"tol": 0.0}, {"max_it": 2.5}, {"max_it": True},
    {"max_it": "3"}, {"max_it": 0}, {"tol": True}, {"tol": "1e-4"},
], ids=["inf-tol", "nan-tol", "zero-tol", "fractional-max_it", "bool-max_it",
        "string-max_it", "zero-max_it", "bool-tol", "string-tol"])
def test_config_rejects_bad_tol_and_max_it(settings):
    with pytest.raises(ValueError):
        _config(1e-2, **settings)


def test_config_accepts_numpy_integer_max_it():
    assert _config(1e-2, max_it=np.int64(3)).max_it == 3


# seed, hidden, colloc and workers were checked only by comparison: True ran
# as seed 1, seed 0.5 failed mid-solve with a TypeError, a fractional or bool
# worker count ran, and hidden = colloc = 5.0 raised a bare TypeError.
@pytest.mark.parametrize("settings", [
    {"seed": True}, {"seed": 0.5}, {"seed": "0"}, {"workers": 2.5}, {"workers": True},
    {"workers": 0}, {"hidden": 5.0, "colloc": 5.0}, {"hidden": 0, "colloc": 0},
], ids=["bool-seed", "fractional-seed", "string-seed", "fractional-workers", "bool-workers",
        "zero-workers", "float-basis-size", "zero-basis-size"])
def test_config_rejects_non_integer_counts(settings):
    with pytest.raises(ValueError, match="must be an integer"):
        _config(1e-2, **settings)


# lm=None trained with the exact fit, through `opts or LmOptions()`, although
# the default was then the regularized fit; it is refused rather than read
# as any fit.
@pytest.mark.parametrize("settings", [
    {"lm": None}, {"lm": {"floor_to_gauss_newton": False}},
    {"fine": None}, {"fine": "rk4"},
], ids=["none-lm", "dict-lm", "none-fine", "string-fine"])
def test_config_rejects_settings_of_the_wrong_type(settings):
    with pytest.raises(ValueError, match="must be an? (FineMethod|LmOptions)"):
        dataclasses.replace(_config(1e-2), **settings)


# A truthy string turned tracing on.
@pytest.mark.parametrize("flag", ["no", 1, None], ids=["string", "int", "none"])
def test_config_rejects_record_trace_that_is_not_a_bool(flag):
    with pytest.raises(ValueError, match="record_trace must be a bool"):
        _config(1e-2, record_trace=flag)


def test_config_accepts_numpy_integer_counts():
    config = _config(1e-2, seed=np.int64(0), hidden=np.int64(4), colloc=np.int64(4),
                     workers=np.int64(2))
    assert (config.seed, config.hidden, config.colloc, config.workers) == (0, 4, 4, 2)


def test_zeroth_iterate_zero_field():
    system = zero_system(2)
    x0 = np.array([1.5, -0.5])
    mesh = TimeMesh.uniform(0.0, 1.0, 4)
    nodes, trainer, *_ = zeroth_iterate(system, x0, mesh, _config(0.25, seed=0))
    for n in range(5):
        assert np.array_equal(nodes[n], x0)
    for theta in trainer.thetas:
        assert np.array_equal(theta, np.zeros((5, 2)))


def test_zeroth_iterate_within_certificate_bound_of_exact_solution():
    system = linear_system(-1.0)
    x0 = np.array([1.0])
    mesh = TimeMesh.uniform(0.0, 1.0, 4)
    config = _config(0.25, seed=2)
    nodes, trainer, *_ = zeroth_iterate(system, x0, mesh, config)
    thetas = trainer.thetas
    budget = 0.0
    for n in range(4):
        basis = trainer.bases[n]
        grid = collocation_grid("uniform", 5, basis.dt)
        cert = quadrature_certificate(basis, thetas[n], nodes[n], system, grid, -1.0)
        # decaying flow: earlier interval errors are not amplified
        budget += cert.total
        true_value = np.exp(-mesh.nodes[n + 1])
        assert abs(nodes[n + 1, 0] - true_value) <= budget


# ---------------------------------------------------------------------------
# parareal_solve
# ---------------------------------------------------------------------------


def test_single_interval_equals_fine_after_one_iteration():
    system = make_benchmark("brusselator")
    x0 = np.array([0.0, 1.0])
    mesh = TimeMesh.uniform(0.0, 0.375, 1)
    config = _config(0.375 / 20, seed=3)
    result = parareal_solve(system, x0, mesh, config)
    fine = fine_propagate(system, x0, 0.375, config.fine)
    assert np.array_equal(result.node_states[1], fine)
    assert result.iterations >= 1


@pytest.mark.parametrize("name,T,N,dt", [("sir", 10.0, 5, 1e-2), ("lorenz", 0.4, 10, 2e-3)])
def test_finite_step_exactness(name, T, N, dt):
    system = make_benchmark(name)
    x0 = {"sir": np.array([0.3, 0.5, 0.2]), "lorenz": np.array([20.0, 5.0, -5.0])}[name]
    mesh = TimeMesh.uniform(0.0, T, N)
    config = _config(dt, tol=1e-300, max_it=N + 1, seed=4, record_trace=True)
    result = parareal_solve(system, x0, mesh, config)
    reference = serial_solve(system, x0, mesh, config.fine)
    for i in range(1, len(result.trace)):
        k = min(i, N)
        prefix = result.trace[i][: k + 1]
        rel = np.linalg.norm(prefix - reference[: k + 1], axis=1)
        rel /= np.maximum(np.linalg.norm(reference[: k + 1], axis=1), 1e-300)
        assert np.max(rel) <= 1e-12


def test_initial_node_is_pinned_bitwise():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 5.0, 5)
    config = _config(1e-2, seed=5, record_trace=True, tol=1e-300, max_it=6)
    result = parareal_solve(system, x0, mesh, config)
    for iterate in result.trace:
        assert np.array_equal(iterate[0], x0)


def test_frozen_coarse_reduces_to_fine_sweep(monkeypatch):
    train_and_step = _CoarseTrainer.train_and_step

    def frozen(self, n, x, iteration):
        # After the zeroth sweep, every coarse value stays the one it produced.
        if iteration > 0:
            return self.last[n][1:]
        return train_and_step(self, n, x, iteration)

    monkeypatch.setattr(_CoarseTrainer, "train_and_step", frozen)
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 5.0, 5)
    config = _config(1e-2, seed=6, max_it=2, tol=1e-300, record_trace=True)
    result = parareal_solve(system, x0, mesh, config)
    zeroth = result.trace[0]
    after = result.trace[1]
    for n in range(5):
        fine = fine_propagate(system, zeroth[n], 1.0, config.fine)
        assert np.array_equal(after[n + 1], fine)


def _two_loop_solve(system, x0, mesh, config):
    """An earlier driver that held each interval's previous coarse value in
    its own cache and wrote the zeroth sweep as a second loop."""
    x0 = np.asarray(x0, dtype=float)
    lengths = mesh.lengths
    trainer = _CoarseTrainer(system, mesh, config)
    n_int = mesh.n_intervals
    prev_nodes = np.empty((n_int + 1, system.dim))
    prev_nodes[0] = x0
    zeroth_reports = []
    for n in range(n_int):
        prev_nodes[n + 1], report = trainer.train_and_step(n, prev_nodes[n], iteration=0)
        zeroth_reports.append(report)

    coarse_cache = prev_nodes.copy()
    error_history = []
    train_reports = [zeroth_reports]
    trace = [prev_nodes.copy()]
    error = config.tol + 1.0
    i = 1
    while i < config.max_it and error > config.tol:
        fine_values = np.empty((n_int, system.dim))
        for n in range(n_int):
            fine_values[n] = fine_propagate(system, prev_nodes[n], float(lengths[n]),
                                            config.fine)
        new_nodes = np.empty_like(prev_nodes)
        new_nodes[0] = x0
        iteration_reports = []
        for n in range(n_int):
            coarse, report = trainer.train_and_step(n, new_nodes[n], iteration=i)
            new_nodes[n + 1] = correction_step(fine_values[n], coarse,
                                               coarse_cache[n + 1])
            coarse_cache[n + 1] = coarse
            iteration_reports.append(report)
        error = stopping_error(new_nodes, prev_nodes)
        prev_nodes = new_nodes
        error_history.append(error)
        train_reports.append(iteration_reports)
        trace.append(prev_nodes.copy())
        i += 1
    return prev_nodes, error_history, trace, train_reports


_PINNED_RUNS = {
    "sir": {"benchmark": "sir", "rpnn": {"seed": 0}},
    "lorenz-20": {"benchmark": "lorenz", "t_end": 0.8,
                  "mesh": {"kind": "uniform", "intervals": 20}, "rpnn": {"seed": 0}},
    "arenstorf-short": {"benchmark": "arenstorf", "t_end": 1.632,
                        "mesh": {"kind": "uniform", "intervals": 12}, "rpnn": {"seed": 0}},
    "rober-reduced": {"benchmark": "rober", "t_end": 10.0, "fine": {"dt": 1e-3},
                      "mesh": {"kind": "blocks", "blocks": [[0.0, 1.0, 10], [1.0, 10.0, 5]]},
                      "rpnn": {"seed": 1}},
}


@pytest.mark.parametrize("settings", _PINNED_RUNS.values(), ids=_PINNED_RUNS.keys())
def test_one_sweep_driver_matches_two_loop_driver_bitwise(settings):
    system, x0, mesh, config = build_solver(ExperimentConfig.from_dict(settings))
    config = dataclasses.replace(config, record_trace=True)
    nodes, error_history, trace, train_reports = _two_loop_solve(system, x0, mesh, config)
    result = parareal_solve(system, x0, mesh, config)
    assert np.array_equal(result.node_states, nodes)
    assert np.array_equal(result.error_history, error_history)
    assert np.array_equal(result.trace, trace)
    assert result.train_reports == train_reports


def test_error_history_reproducible():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 10.0, 10)
    config = _config(1e-2, seed=7)
    first = parareal_solve(system, x0, mesh, config)
    second = parareal_solve(system, x0, mesh, config)
    assert first.error_history == second.error_history
    assert np.array_equal(first.node_states, second.node_states)


def test_worker_count_does_not_change_results():
    system = make_benchmark("lorenz")
    x0 = np.array([20.0, 5.0, -5.0])
    mesh = TimeMesh.uniform(0.0, 0.4, 10)
    base = _config(2e-3, seed=8, workers=1)
    threaded = _config(2e-3, seed=8, workers=4)
    r1 = parareal_solve(system, x0, mesh, base)
    r4 = parareal_solve(system, x0, mesh, threaded)
    assert np.array_equal(r1.node_states, r4.node_states)
    assert r1.error_history == r4.error_history


@pytest.mark.filterwarnings("ignore:overflow")
def test_fine_sweep_failure_carries_interval_and_iteration():
    # RK4 at h * lambda = -500 amplifies by about 3e9 per step: the one-step
    # first interval stays finite, the 40-step second one overflows.
    system = linear_system(-1000.0)
    mesh = TimeMesh.from_blocks([(0.0, 0.5, 1), (0.5, 20.5, 1)])
    with pytest.raises(StepFailure) as info:
        parareal_solve(system, np.array([1.0]), mesh, _config(0.5, seed=0))
    assert info.value.interval == 1
    assert info.value.iteration == 1


# x' = 1 / (2 - x) from 0 has a pole at t = 2, and an implicit Euler step of
# size h from x has a solution only while (2 - x)**2 >= 4h.  The first
# interval ends at 2 - sqrt(2); the second runs past x = 1.37, where Newton
# finds no root.  The float-form system and its array copy fail alike.
def test_implicit_euler_fine_sweep_failure_carries_interval_and_iteration():
    pole = OdeSystem(1, _on_floats(lambda x: (1.0 / (2.0 - x),)),
                     _on_floats(lambda x: (1.0 / ((2.0 - x) * (2.0 - x)),), square=True), "pole")
    arrays = dataclasses.replace(pole, field=lambda x: pole.field(x),
                                 jacobian=lambda x: pole.jacobian(x))
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 1), (1.0, 2.5, 1)])
    config = PararealConfig(fine=FineMethod("implicit-euler", 0.1), seed=0)
    failures = []
    for system in (pole, arrays):
        with pytest.raises(NewtonNonconvergence) as info:
            parareal_solve(system, np.array([0.0]), mesh, config)
        assert (info.value.interval, info.value.iteration) == (1, 1)
        failures.append((str(info.value), info.value.residual))
    assert "stalled" in failures[0][0] and failures[0] == failures[1]


def test_sir_converges_in_fewer_iterations_than_intervals():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 10.0, 10)
    result = parareal_solve(system, x0, mesh, _config(1e-2, seed=9))
    assert result.converged
    assert result.iterations < 10


def test_result_bookkeeping():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 3.0, 3)
    result = parareal_solve(system, x0, mesh, _config(1e-2, seed=10))
    assert len(result.error_history) == result.iterations
    assert len(result.thetas) == 3 and len(result.bases) == 3
    assert len(result.train_reports[0]) == 3  # zeroth sweep
    timings = result.timings
    assert set(timings) == {"zeroth_sweep", "fine_sweeps", "coarse_sweeps", "total"}
    assert all(value >= 0.0 for value in timings.values())


def test_uniform_mesh_shares_one_basis():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 4.0, 4)
    result = parareal_solve(system, x0, mesh, _config(1e-2, seed=11))
    assert all(b is result.bases[0] for b in result.bases[1:])


def test_step_divisibility_validated_before_solving():
    system = make_benchmark("sir")
    mesh = TimeMesh.uniform(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        parareal_solve(system, np.array([0.3, 0.5, 0.2]), mesh, _config(3e-2, seed=0))


def test_lobatto_collocation_solve_converges():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 10.0, 10)
    config = PararealConfig(
        fine=FineMethod("rk4", 1e-2), seed=15, node_kind="lobatto"
    )
    result = parareal_solve(system, x0, mesh, config)
    reference = serial_solve(system, x0, mesh, config.fine)
    assert result.converged
    assert np.max(np.linalg.norm(result.node_states - reference, axis=1)) <= 1e-3


# ---------------------------------------------------------------------------
# evaluate_piecewise
# ---------------------------------------------------------------------------


def _solved_sir():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh.uniform(0.0, 5.0, 5)
    return system, parareal_solve(system, x0, mesh, _config(1e-2, seed=12))


def test_piecewise_hits_node_states():
    _, result = _solved_sir()
    for n, t in enumerate(result.mesh.nodes):
        assert np.array_equal(evaluate_piecewise(result, float(t)), result.node_states[n])


def test_piecewise_zero_field_constant():
    system = zero_system(2)
    x0 = np.array([0.7, -0.1])
    mesh = TimeMesh.uniform(0.0, 1.0, 4)
    result = parareal_solve(system, x0, mesh, _config(0.25, seed=13))
    for t in np.linspace(0, 1, 17):
        assert np.array_equal(evaluate_piecewise(result, float(t)), x0)


def test_piecewise_outside_domain_rejected():
    _, result = _solved_sir()
    with pytest.raises(ValueError):
        evaluate_piecewise(result, -0.1)
    with pytest.raises(ValueError):
        evaluate_piecewise(result, 5.1)
    with pytest.raises(ValueError):
        evaluate_piecewise(result, float("nan"))
    with pytest.raises(ValueError, match=r"t=-0\.1 outside"):
        evaluate_piecewise(result, np.array([0.0, 2.5, -0.1, 5.1]))


def _three_interval_result(name):
    """A final iterate on three intervals of a benchmark's default length,
    with sampled bases and random weights and node states."""
    system, x0, basis, theta = benchmark_network(name)
    mesh = TimeMesh.uniform(0.0, 3 * basis.dt, 3)
    rng = np.random.default_rng(3)
    return PararealResult(
        mesh=mesh,
        node_states=x0 + 0.01 * rng.standard_normal((4, system.dim)),
        thetas=[(n + 1) * theta for n in range(3)],
        bases=[sample_basis(5, 5, float(length), seed=n)
               for n, length in enumerate(mesh.lengths)],
        iterations=1, error_history=[0.0], converged=True, timings={},
        train_reports=[],
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_piecewise_rows_equal_single_time_calls_bitwise(name):
    result = _three_interval_result(name)
    nodes_t = result.mesh.nodes
    ts = np.concatenate([nodes_t, sample_times(float(nodes_t[-1]))])
    rows = evaluate_piecewise(result, ts)
    assert rows.shape == (len(ts), result.node_states.shape[1])
    for k, t in enumerate(ts.tolist()):
        assert_bitwise(rows[k], evaluate_piecewise(result, t))
    assert_bitwise(rows[: len(nodes_t)], result.node_states)


def test_piecewise_decay_within_certificate_budget():
    system = linear_system(-1.0)
    x0 = np.array([1.0])
    mesh = TimeMesh.uniform(0.0, 2.0, 4)
    config = _config(0.05, seed=14, tol=1e-10, max_it=10)
    result = parareal_solve(system, x0, mesh, config)
    for n in range(4):
        basis = result.bases[n]
        grid = collocation_grid("uniform", 5, basis.dt)
        cert = quadrature_certificate(
            basis, result.thetas[n], result.node_states[n], system, grid, -1.0
        )
        t_lo, t_hi = result.mesh.nodes[n], result.mesh.nodes[n + 1]
        node_err = abs(result.node_states[n, 0] - np.exp(-t_lo))
        for t in np.linspace(t_lo, t_hi, 250):
            err = abs(evaluate_piecewise(result, float(t))[0] - np.exp(-t))
            assert err <= node_err + cert.total + 1e-14


# ---------------------------------------------------------------------------
# The regularized fit on ROBER and off it
# ---------------------------------------------------------------------------


def _cli_run(config_dict):
    """Parareal result, error against serial and train reports of a CLI config."""
    system, x0, mesh, config = build_solver(ExperimentConfig.from_dict(config_dict))
    result = parareal_solve(system, x0, mesh, config)
    error = compare_with_serial(result.node_states,
                                serial_solve(system, x0, mesh, config.fine)).max_euclidean
    return result, error, [r for sweep in result.train_reports for r in sweep]


# Before the regularized fit stopped on its endpoint, these runs read 2
# iterations with errors 4.3210e-8 and 2.2451e-6, and 30 of their 42
# trainings stopped at the iteration cap.  With the stop at 1e-12 the errors
# were the same; at 1e-10 they read 4.8823e-8 and 2.2462e-6.
@pytest.mark.parametrize("seed, error", [(1, "4.88e-08"), (6, "2.25e-06")])
def test_reduced_rober_keeps_iterations_and_error(seed, error):
    result, err, reports = _cli_run({
        "benchmark": "rober", "t_end": 10.0, "fine": {"dt": 1e-3},
        "mesh": {"kind": "blocks", "blocks": [[0.0, 1.0, 10], [1.0, 10.0, 5]]},
        "rpnn": {"seed": seed}})
    assert result.converged and result.iterations == 2
    assert f"{err:.2e}" == error
    assert any(r.termination == "endpoint_xtol" for r in reports)


# Before the endpoint stop: 1 iteration, error 1.0461e-6, and 20 755 LM
# iterations summed over the reports; with the regularized fit's endpoint
# xtol at 1e-12, error 1.046e-6 and 2 427 LM iterations.
@pytest.mark.slow
def test_rober_default_keeps_iterations_and_error_in_fewer_lm_iterations():
    result, err, reports = _cli_run({"benchmark": "rober", "rpnn": {"seed": 0}})
    assert result.converged and result.iterations == 1
    assert f"{err:.3e}" == "1.070e-06"
    assert sum(r.iterations for r in reports) < 2000


# No CLI default uses the regularized fit off rober, and `PararealConfig`
# defaults to the exact fit.  On the sir and brusselator CLI defaults at seed 0 it
# converged in 1 and 3 iterations with errors 6.8e-11 and 1.1e-10 before the
# endpoint stop, 1.3e-10 and 5.7e-11 with it at 1e-12 and 3.3e-10 and 8.3e-10
# with it at 1e-10, against tol 1e-4; the bound leaves a factor of about 3
# and 1.2.
@pytest.mark.parametrize("name, iterations", [("sir", 1), ("brusselator", 3)])
def test_regularized_fit_off_rober_converges_far_below_tol(name, iterations):
    result, err, _ = _cli_run({"benchmark": name,
                               "rpnn": {"seed": 0, "gauss_newton_floor": False}})
    assert result.converged and result.iterations == iterations
    assert err < 1e-9


# Lorenz is the row where the endpoint stop moved the error most: at seed 0
# it converged in 17 iterations with error 9.3e-6 before, in 15 with 3.1e-5
# with the stop at 1e-12, and in 8 with 5.6e-5 at 1e-10, against tol 1e-4, a
# margin of about 1.8.  Seeds 1 to 5 are not guarded: the regularized fit is
# a poor coarse map on Lorenz (8 to 19 iterations on 250 intervals), seed 5
# does not converge within max_it before the stop or after it, seed 3 did
# not with the stop at 1e-12 but does at 1e-10 (9 iterations, error 9.8e-5),
# and seed 2's error ends above tol with the stop (2.1e-5 before it, 1.4e-4
# at 1e-12, 1.5e-4 at 1e-10).
@pytest.mark.slow
def test_regularized_fit_on_lorenz_seed_0_converges_below_tol():
    result, err, _ = _cli_run({"benchmark": "lorenz",
                               "rpnn": {"seed": 0, "gauss_newton_floor": False}})
    assert result.converged and result.iterations == 8
    assert err < 1e-4


# The exact fit is the Lorenz CLI default, and Lorenz is where a change to
# the trainer's stopping tests first moves iteration counts.  At seeds 0 and
# 1 the default converges in 2 iterations with errors 1.65e-5 and 7.4e-6
# against serial (1.51e-5 and 7.8e-6 before the exact fit stopped on the
# coarse endpoint): margins of about 6 and 13 below tol 1e-4.  A
# `PararealConfig` built by hand with the CLI's fine method, tol and max_it
# is that config: its default fit is the exact fit too (the regularized fit
# took 8 and 10 iterations here when it was the default).
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_fit_on_lorenz_default_converges_in_two_iterations(seed):
    system, x0, mesh, config = build_solver(ExperimentConfig.from_dict(
        {"benchmark": "lorenz", "rpnn": {"seed": seed}}))
    by_hand = PararealConfig(fine=config.fine, tol=config.tol, max_it=config.max_it,
                             seed=seed)
    assert by_hand == config
    result = parareal_solve(system, x0, mesh, by_hand)
    err = compare_with_serial(result.node_states,
                              serial_solve(system, x0, mesh, by_hand.fine)).max_euclidean
    assert result.converged and result.iterations == 2
    assert err < 1e-4


# The short Arenstorf run of the benchmark, whose exact fits take damped
# retries after rejected Newton steps.  At seeds 0 to 3 its errors against
# serial are 1.0e-9, 7.8e-12, 3.6e-7 and 9.9e-11, against tol 1e-4.
@pytest.mark.parametrize("seed, iterations", [(0, 6), (1, 9), (2, 6), (3, 6)])
def test_arenstorf_short_keeps_iterations_and_converges_below_tol(seed, iterations):
    result, err, _ = _cli_run(dict(_PINNED_RUNS["arenstorf-short"], rpnn={"seed": seed}))
    assert result.converged and result.iterations == iterations
    assert err < 1e-4
