"""Quadrature rules, collocation residual/Jacobian, and the LM trainer."""

import dataclasses
import math
from collections import Counter
from itertools import chain

import numpy as np
import pytest

import rpnn_parareal.collocation as collocation
import rpnn_parareal.parareal as parareal
from rpnn_parareal import (
    BurgersJacobianOperator,
    FineMethod,
    LmOptions,
    OdeSystem,
    PararealConfig,
    TimeMesh,
    burgers_semidiscretize,
    collocation_grid,
    levenberg_marquardt,
    make_benchmark,
    parareal_solve,
    residual,
    residual_jacobian,
    sample_basis,
    train_coarse,
)
from rpnn_parareal.collocation import (
    TrainingError,
    TrainReport,
    _max_row_norm,
    _unvec,
    _vec,
    collocation_nodes,
    quadrature_weights,
)
from rpnn_parareal.cli import ExperimentConfig, build_solver
from rpnn_parareal.problems import BENCHMARK_NAMES, _on_floats, default_initial_state

from conftest import (assert_bitwise, benchmark_network, clock_system, constant_system,
                      linear_system, sample_benchmark_state, without_float_forms,
                      zero_system)


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


def test_uniform_nodes():
    np.testing.assert_allclose(
        collocation_nodes("uniform", 5, 1.0), [0.0, 0.25, 0.5, 0.75, 1.0], atol=0
    )
    np.testing.assert_allclose(collocation_nodes("uniform", 2, 0.4), [0.0, 0.4])
    np.testing.assert_allclose(collocation_nodes("uniform", 1, 0.8), [0.4])


def test_lobatto_nodes_closed_forms():
    np.testing.assert_allclose(collocation_nodes("lobatto", 3, 1.0), [0.0, 0.5, 1.0],
                               atol=1e-15)
    c4 = collocation_nodes("lobatto", 4, 1.0)
    np.testing.assert_allclose(
        c4, [0.0, 0.5 - 0.5 / np.sqrt(5), 0.5 + 0.5 / np.sqrt(5), 1.0], atol=1e-14
    )
    c5 = collocation_nodes("lobatto", 5, 1.0)
    inner = 0.5 * np.sqrt(3.0 / 7.0)
    np.testing.assert_allclose(c5, [0.0, 0.5 - inner, 0.5, 0.5 + inner, 1.0], atol=1e-14)


def test_lobatto_single_node_rejected():
    with pytest.raises(ValueError):
        collocation_nodes("lobatto", 1, 1.0)
    with pytest.raises(ValueError):
        collocation_nodes("chebyshev", 3, 1.0)


@pytest.mark.parametrize("kind", ["uniform", "lobatto"])
@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_nodes_reject_non_finite_length(kind, dt):
    with pytest.raises(ValueError, match="interval length must be positive and finite"):
        collocation_nodes(kind, 5, dt)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def test_trapezoid_weights():
    np.testing.assert_allclose(
        quadrature_weights(np.array([0.0, 1.0]), 1.0), [0.5, 0.5], rtol=1e-14
    )


def test_midpoint_weight():
    dt = 0.7
    np.testing.assert_allclose(quadrature_weights(np.array([dt / 2]), dt), [dt], rtol=1e-14)


def test_uniform_five_node_weights_are_booles():
    w = quadrature_weights(collocation_nodes("uniform", 5, 1.0), 1.0)
    np.testing.assert_allclose(w, np.array([7, 32, 12, 32, 7]) / 90.0, rtol=1e-12)


@pytest.mark.parametrize("kind,c_values", [("uniform", range(2, 6)), ("lobatto", range(3, 6))])
def test_monomial_exactness(kind, c_values):
    dt = 0.8
    for c in c_values:
        grid = collocation_grid(kind, c, dt)
        assert abs(grid.weights.sum() - dt) <= 1e-12 * dt
        for k in range(c):
            exact = dt ** (k + 1) / (k + 1)
            got = float(grid.weights @ grid.nodes**k)
            assert abs(got - exact) <= 1e-10 * abs(exact), (kind, c, k)


@pytest.mark.parametrize("c", range(3, 6))
def test_lobatto_extra_exactness(c):
    dt = 1.3
    grid = collocation_grid("lobatto", c, dt)
    for k in range(c, 2 * c - 2):  # degrees c..2c-3
        exact = dt ** (k + 1) / (k + 1)
        got = float(grid.weights @ grid.nodes**k)
        assert abs(got - exact) <= 1e-9 * abs(exact), (c, k)


def test_moment_solve_refuses_large_and_degenerate_inputs():
    with pytest.raises(ValueError):
        quadrature_weights(np.linspace(0, 1, 10), 1.0)
    with pytest.raises(ValueError):
        quadrature_weights(np.array([0.2, 0.2, 0.4]), 1.0)


def test_grid_order_equals_node_count():
    assert collocation_grid("uniform", 5, 1.0).order == 5


# ---------------------------------------------------------------------------
# Residual and Jacobian
# ---------------------------------------------------------------------------


def test_residual_zero_field_zero_weights():
    basis = sample_basis(5, 5, 1.0, seed=0)
    system = zero_system(3)
    g = residual(basis, np.zeros((5, 3)), np.ones(3), system)
    assert np.array_equal(g, np.zeros((5, 3)))


def test_residual_constant_field_rows():
    basis = sample_basis(5, 5, 1.0, seed=0)
    c = np.array([2.0, -1.0])
    system = constant_system(c)
    g = residual(basis, np.zeros((5, 2)), np.zeros(2), system)
    np.testing.assert_array_equal(g, np.tile(-c, (5, 1)))


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_residual_at_a_float_form_pole_is_a_training_error():
    # 1 / (2 - x) divides by zero on Python floats at x = 2; the float form
    # retries on numpy scalars, and the inf it returns fails the finiteness check.
    pole = OdeSystem(1, _on_floats(lambda x: (1.0 / (2.0 - x),)),
                     _on_floats(lambda x: (1.0 / ((2.0 - x) * (2.0 - x)),), square=True), "pole")
    basis = sample_basis(5, 5, 1.0, seed=0)
    with pytest.raises(TrainingError, match="non-finite"):
        residual(basis, np.zeros((5, 1)), np.array([2.0]), pole)
    # Training reads the float form on float rows and tests those floats.
    with pytest.raises(TrainingError, match="vector field returned non-finite values"):
        train_coarse(basis, np.array([2.0]), pole)


# The trainer reads the float forms bare on a batch of node rows; where one
# row raises on Python floats, the batch runs again with each row retried on
# numpy scalars.  The row at t = 0 is x0, where the clock's Python floats
# divide by zero, in every batch: training gives the bits, or the failure,
# of the copy without float forms.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "regularized"])
def test_float_rows_that_raise_train_as_the_array_path(exact):
    basis, x0 = sample_basis(5, 5, 0.5, seed=0), np.array([2.0, 0.0])
    assert not basis.feat_shifted[0].any()
    opts = LmOptions(floor_to_gauss_newton=exact)
    clock = clock_system(pole=False)
    theta, report = train_coarse(basis, x0, clock, None, opts)
    assert report.iterations > 1
    expected = train_coarse(basis, x0, without_float_forms(clock), None, opts)
    assert_bitwise(theta, expected[0])
    assert report == expected[1]
    pole = clock_system(pole=True)
    failures = []
    for system in (pole, without_float_forms(pole)):
        with pytest.raises(TrainingError) as info:
            train_coarse(basis, x0, system, None, opts)
        failures.append(str(info.value))
    assert failures[0] == failures[1]
    assert failures[0] == "vector field returned non-finite values at collocation states"


def test_residual_scalar_entry_formula():
    basis = sample_basis(5, 5, 0.7, seed=3)
    system = linear_system(1.0)
    rng = np.random.default_rng(7)
    theta = rng.standard_normal((5, 1))
    x0 = np.array([0.3])
    g = residual(basis, theta, x0, system)
    for c in range(5):
        expected = (basis.feat_prime @ theta)[c, 0] - (
            x0[0] + (basis.feat_shifted @ theta)[c, 0]
        )
        assert g[c, 0] == pytest.approx(expected, rel=1e-14)


def test_residual_cost_is_squared_frobenius():
    basis = sample_basis(5, 5, 0.7, seed=3)
    system = linear_system(-2.0)
    x0 = np.array([1.0])
    theta_init = np.random.default_rng(0).standard_normal((5, 1))
    theta, report = train_coarse(basis, x0, system, theta_init, LmOptions(max_iter=2))
    g = residual(basis, theta, x0, system)
    assert report.final_cost == pytest.approx(float(np.sum(g * g)), rel=1e-15)
    g0 = residual(basis, theta_init, x0, system)
    assert report.cost_history[0] == pytest.approx(float(np.sum(g0 * g0)), rel=1e-15)


def test_jacobian_constant_field_is_kron_identity():
    basis = sample_basis(4, 4, 0.5, seed=1)
    system = constant_system(np.array([1.0, 2.0, 3.0]))
    jac = residual_jacobian(basis, np.zeros((4, 3)), np.zeros(3), system)
    np.testing.assert_array_equal(jac, np.kron(np.eye(3), basis.feat_prime))


def _fd_jacobian_wrt_theta(basis, theta, x0, system, h=1e-7):
    rows = basis.colloc * system.dim
    cols = theta.size
    out = np.empty((rows, cols))
    flat = _vec(theta)
    for k in range(cols):
        e = np.zeros(cols)
        e[k] = h * (1.0 + abs(flat[k]))
        tp = _unvec(flat + e, theta.shape)
        tm = _unvec(flat - e, theta.shape)
        diff = residual(basis, tp, x0, system) - residual(basis, tm, x0, system)
        out[:, k] = _vec(diff) / (2.0 * e[k])
    return out


def _block_loop_jacobian(basis, theta, x0, system):
    """Reference assembly: I_d (x) Hp - dvecF/dvecX (I_d (x) Hm), with the
    field derivative filled in one d x d Python loop of diagonal blocks."""
    c_count = basis.colloc
    d = system.dim
    states = x0[np.newaxis, :] + basis.feat_shifted @ theta
    jacs = np.array([system.jacobian(state) for state in states])
    dvec_f = np.zeros((c_count * d, c_count * d))
    cidx = np.arange(c_count)
    for j in range(d):
        for k in range(d):
            dvec_f[j * c_count + cidx, k * c_count + cidx] = jacs[:, j, k]
    eye = np.eye(d)
    return np.kron(eye, basis.feat_prime) - dvec_f @ np.kron(eye, basis.feat_shifted)


def _entry_formula_jacobian(basis, theta, x0, system):
    """Reference assembly of the entry formula delta_jk Hp - DF_jk Hm, one
    (j, k) block at a time, with 0 * Hp off the diagonal blocks: unlike the
    block loop's matrix product, it fixes the signs of zero entries."""
    hp, hm = basis.feat_prime, basis.feat_shifted
    states = x0[np.newaxis, :] + hm @ theta
    jacs = np.array([system.jacobian(state) for state in states])
    (c_count, h_count), d = hp.shape, len(x0)
    out = np.empty((d, c_count, d, h_count))
    for j in range(d):
        for k in range(d):
            first = hp if j == k else 0.0 * hp
            out[j, :, k, :] = first - jacs[:, j, k][:, np.newaxis] * hm
    return out.reshape(d * c_count, d * h_count)


def _float_form_linear_system(d, seed):
    """x' = A x with float forms; A holds +0.0, -0.0 and negative entries."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a[rng.random((d, d)) < 0.3] = 0.0
    a[rng.random((d, d)) < 0.3] = -0.0
    rows = a.tolist()

    def field_terms(*x):
        return tuple(sum(aij * xj for aij, xj in zip(row, x)) for row in rows)

    entries = tuple(chain.from_iterable(rows))
    return OdeSystem(d, _on_floats(field_terms),
                     _on_floats(lambda *x: entries, square=True), f"linear{d}")


@pytest.mark.parametrize("name", BENCHMARK_NAMES + ("linear51",))
def test_residual_jacobian_equals_block_loop_reference(name):
    """Equal values to the block loop, and equal bit patterns, so equal
    signs of zeros too, to the entry formula; `linear51` is a float-form
    system of the Burgers size."""
    if name == "linear51":
        system = _float_form_linear_system(51, seed=4)
    else:
        system = make_benchmark(name)
    rng = np.random.default_rng(17)
    for trial in range(4):
        basis = sample_basis(5, 5, [0.02, 0.2, 1.0, 0.375][trial], seed=trial)
        if name == "linear51":
            x0 = rng.uniform(-1.0, 1.0, 51)
        else:
            x0 = sample_benchmark_state(name, rng, system)
        theta = 1e-3 * rng.standard_normal((5, system.dim))
        got = residual_jacobian(basis, theta, x0, system)
        assert np.array_equal(got, _block_loop_jacobian(basis, theta, x0, system))
        assert_bitwise(got, _entry_formula_jacobian(basis, theta, x0, system))


@pytest.mark.parametrize("name", ["sir", "lorenz", "brusselator"])
def test_residual_jacobian_matches_fd(name):
    system = make_benchmark(name)
    basis = sample_basis(5, 5, 0.2, seed=11)
    rng = np.random.default_rng(5)
    theta = 0.3 * rng.standard_normal((5, system.dim))
    x0 = rng.uniform(0.1, 1.0, system.dim)
    analytic = residual_jacobian(basis, theta, x0, system)
    fd = _fd_jacobian_wrt_theta(basis, theta, x0, system)
    err = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
    assert err <= 1e-6


def test_burgers_operator_matches_dense_small_grid():
    rng = np.random.default_rng(2)
    basis = sample_basis(5, 5, 0.02, seed=7)
    for grid_size in (11, 51):
        system, disc = burgers_semidiscretize(grid_size, 1.0 / 50.0)
        theta = 0.1 * rng.standard_normal((5, grid_size))
        x0 = np.sin(2 * np.pi * np.arange(grid_size) / (grid_size - 1))
        x0[0] = x0[-1] = 0.0
        dense = residual_jacobian(basis, theta, x0, system)
        op = BurgersJacobianOperator(basis, theta, x0, disc)
        for _ in range(5):
            v = rng.standard_normal(dense.shape[1])
            w = rng.standard_normal(dense.shape[0])
            assert np.max(np.abs(dense @ v - op.matvec(v))) <= 1e-12
            assert np.max(np.abs(dense.T @ w - op.rmatvec(w))) <= 1e-12
            assert abs(op.matvec(v) @ w - v @ op.rmatvec(w)) <= 1e-12
        assert np.array_equal(np.asarray(op), dense)
        c_count, h_count = basis.feat_prime.shape
        vmat = rng.standard_normal((h_count, grid_size))
        wmat = rng.standard_normal((c_count, grid_size))
        assert np.array_equal(
            op.matvec_mat(vmat),
            (dense @ vmat.ravel(order="F")).reshape((c_count, grid_size), order="F"))
        assert np.array_equal(
            op.rmatvec_mat(wmat),
            (dense.T @ wmat.ravel(order="F")).reshape((h_count, grid_size), order="F"))
        copied = np.array(op, copy=True)
        assert np.array_equal(copied, dense)
        assert not np.shares_memory(copied, np.asarray(op))


def test_burgers_jacobian_apply_linear_in_v():
    _, disc = burgers_semidiscretize(11, 0.02)
    basis = sample_basis(5, 5, 0.02, seed=7)
    op = BurgersJacobianOperator(basis, np.zeros((5, 11)), np.zeros(11), disc)
    assert np.array_equal(op.matvec(np.zeros(55)), np.zeros(55))
    assert np.array_equal(op.rmatvec(np.zeros(55)), np.zeros(55))
    rng = np.random.default_rng(4)
    v, w = rng.standard_normal(55), rng.standard_normal(55)
    np.testing.assert_allclose(op.matvec(2.0 * v - w), 2.0 * op.matvec(v) - op.matvec(w),
                               rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------


def test_lm_linear_least_squares_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    theta_star = np.linalg.solve(a.T @ a, a.T @ b)  # normal-equations oracle
    theta, report = levenberg_marquardt(
        lambda th: a @ th - b, lambda th: a, np.zeros(6), LmOptions(max_iter=5)
    )
    assert np.linalg.norm(theta - theta_star) <= 1e-10
    assert report.iterations <= 5


def test_lm_zero_initial_residual_returns_input():
    a = np.eye(3)
    theta0 = np.array([1.0, 2.0, 3.0])
    theta, report = levenberg_marquardt(
        lambda th: a @ th - theta0, lambda th: a, theta0.copy()
    )
    assert np.array_equal(theta, theta0)
    assert report.iterations == 0
    assert report.termination == "residual_tol"


def test_lm_rosenbrock_residual():
    def res(th):
        return np.array([1.0 - th[0], 10.0 * (th[1] - th[0] ** 2)])

    def jac(th):
        return np.array([[-1.0, 0.0], [-20.0 * th[0], 10.0]])

    theta, report = levenberg_marquardt(res, jac, np.array([-1.2, 1.0]))
    assert np.linalg.norm(theta - np.array([1.0, 1.0])) <= 1e-8
    assert report.final_cost <= 1e-16


def test_lm_accepted_costs_strictly_decrease():
    def res(th):
        return np.array([1.0 - th[0], 10.0 * (th[1] - th[0] ** 2), 0.5 * th[1]])

    def jac(th):
        return np.array([[-1.0, 0.0], [-20.0 * th[0], 10.0], [0.0, 0.5]])

    _, report = levenberg_marquardt(res, jac, np.array([-1.2, 1.0]))
    history = report.cost_history
    assert len(history) == report.accepted + 1
    assert all(b < a for a, b in zip(history, history[1:]))
    assert report.final_cost <= history[0]


def test_lm_options_validation():
    with pytest.raises(ValueError):
        LmOptions(max_iter=0)


# A truthy string selected the exact fit.
@pytest.mark.parametrize("floor", ["false", 1, None], ids=["string", "int", "none"])
def test_lm_options_reject_non_bool_fit_mode(floor):
    with pytest.raises(ValueError, match="floor_to_gauss_newton must be a bool"):
        LmOptions(floor_to_gauss_newton=floor)
    assert not LmOptions(floor_to_gauss_newton=np.bool_(False)).floor_to_gauss_newton


# A fractional cap ran as its ceiling (2.5 ran 3 iterations).
@pytest.mark.parametrize("max_iter", [2.5, True, "3", None],
                         ids=["fractional", "bool", "string", "none"])
def test_lm_options_reject_non_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        LmOptions(max_iter=max_iter)


EXACT = LmOptions(floor_to_gauss_newton=True)
TERMINATIONS = {"residual_tol", "step_tol", "ftol", "xtol", "endpoint_xtol", "max_iter"}


def test_exact_fit_square_linear_system_is_one_newton_step():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    theta, report = levenberg_marquardt(lambda th: a @ th - b, lambda th: a, np.zeros(6), EXACT)
    assert (report.iterations, report.accepted, report.rejected) == (1, 1, 0)
    assert report.termination == "residual_tol"
    assert np.array_equal(theta, np.linalg.solve(a, b))  # the undamped LU step


def test_exact_fit_singular_square_jacobian_takes_least_squares_step():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([2.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)
    theta, report = levenberg_marquardt(lambda th: a @ th - b, lambda th: a, np.zeros(2), EXACT)
    np.testing.assert_allclose(theta, [1.0, 1.0], rtol=0, atol=1e-14)  # minimum norm
    assert (report.accepted, report.rejected) == (1, 0)
    assert report.termination == "residual_tol"


def test_exact_fit_damps_after_rejected_newton_step():
    def res(th):
        return np.array([1.0 - th[0], 10.0 * (th[1] - th[0] ** 2)])

    def jac(th):
        return np.array([[-1.0, 0.0], [-20.0 * th[0], 10.0]])

    start = np.array([-1.2, 1.0])
    newton = start + np.linalg.solve(jac(start), -res(start))
    assert np.sum(res(newton) ** 2) > np.sum(res(start) ** 2)  # the first step is rejected
    theta, report = levenberg_marquardt(res, jac, start, EXACT)
    assert report.rejected >= 1
    history = report.cost_history
    assert len(history) == report.accepted + 1
    assert all(b < a for a, b in zip(history, history[1:]))
    assert report.termination in TERMINATIONS - {"max_iter"}
    assert np.linalg.norm(theta - np.array([1.0, 1.0])) <= 1e-8


def test_exact_fit_trains_burgers_with_dense_jacobian(monkeypatch):
    def refuse(*args):
        raise AssertionError("BurgersJacobianOperator built")

    monkeypatch.setattr(collocation, "BurgersJacobianOperator", refuse)
    system = make_benchmark("burgers")
    x0 = default_initial_state("burgers", {"initial_condition": "sine"})
    basis = sample_basis(5, 5, 0.02, seed=11)
    _, report = train_coarse(basis, x0, system, None, EXACT)
    assert report.epsilon <= 1e-8
    assert report.iterations <= 20
    assert report.termination in TERMINATIONS - {"max_iter"}
    # The regularized fit builds no operator either.
    _, report = train_coarse(basis, x0, system, None, LmOptions(1, floor_to_gauss_newton=False))
    assert report.iterations == 1


# The regularized fit as it stood when it solved each damped step as the
# augmented least-squares system [J; sqrt(lam*diag)] delta = [-r; 0] by
# LAPACK's SVD-based lstsq: the loop below is the version from before the
# exact fit became Newton-first, verbatim, with the constants it read then,
# less its matrix-free branch, which no dense Jacobian reaches, plus the
# endpoint xtol test added since, when given an `endpoint`, at the regularized
# fit's tolerance of 1e-10.  It is kept as the yardstick for the fit's quality.
_REF_RESIDUAL_TOL = 1e-10
_REF_STEP_TOL = 1e-12
_REF_LAMBDA_INIT = 1e-3
_REF_LAMBDA_INCREASE = 10.0
_REF_LAMBDA_DECREASE = 10.0
_REF_LAMBDA_MIN = 1e-12
_REF_LAMBDA_MAX = 1e10
_REF_MARQUARDT_DIAG_FLOOR = 1e-14


def _reference_levenberg_marquardt(residual_fn, jacobian_fn, theta_init, opts, endpoint=None):
    theta = np.array(theta_init, dtype=float)
    shape = theta.shape
    r = residual_fn(theta)
    cost = float(np.sum(r * r))
    cost_history = [cost]
    res_norm = math.sqrt(cost)
    if res_norm <= _REF_RESIDUAL_TOL:
        return theta, TrainReport(0, cost, _max_row_norm(r), 0, 0, "residual_tol",
                                  tuple(cost_history))
    lam = _REF_LAMBDA_INIT
    iterations = accepted = rejected = 0
    reason = "max_iter"
    need_jacobian = True
    jac = diag = None
    while iterations < opts.max_iter:
        iterations += 1
        if need_jacobian:
            jac = jacobian_fn(theta)
            diag = np.einsum("ij,ij->j", jac, jac)
            if np.min(diag) < _REF_MARQUARDT_DIAG_FLOOR:
                diag = np.ones_like(diag)
            need_jacobian = False
        while True:
            try:
                n_unknowns = jac.shape[1]
                if opts.floor_to_gauss_newton and lam <= _REF_LAMBDA_MIN:
                    delta = np.linalg.lstsq(jac, -_vec(r), rcond=None)[0]
                else:
                    augmented = np.vstack([jac, np.diag(np.sqrt(lam * diag))])
                    rhs = np.concatenate([-_vec(r), np.zeros(n_unknowns)])
                    delta = np.linalg.lstsq(augmented, rhs, rcond=None)[0]
                break
            except np.linalg.LinAlgError as exc:
                if lam >= _REF_LAMBDA_MAX:
                    raise TrainingError(
                        f"linear solve failed after damping escalation to {lam:.1e}"
                    ) from exc
                lam = min(lam * _REF_LAMBDA_INCREASE, _REF_LAMBDA_MAX)
        if theta.ndim == 2:
            theta_try = theta + _unvec(delta, shape)
        else:
            theta_try = theta + delta
        r_try = residual_fn(theta_try)
        cost_try = float(np.sum(r_try * r_try))
        step_norm = float(np.linalg.norm(delta))
        if cost_try < cost:
            endpoint_hit = _reference_endpoint_hit(endpoint, delta, theta,
                                                   _REF_REGULARIZED_ENDPOINT_XTOL)
            theta, r, cost = theta_try, r_try, cost_try
            accepted += 1
            need_jacobian = True
            cost_history.append(cost)
            lam = max(lam / _REF_LAMBDA_DECREASE, _REF_LAMBDA_MIN)
            if math.sqrt(cost) <= _REF_RESIDUAL_TOL:
                reason = "residual_tol"
                break
            if step_norm <= _REF_STEP_TOL:
                reason = "step_tol"
                break
            if endpoint_hit:
                reason = "endpoint_xtol"
                break
        else:
            rejected += 1
            if step_norm <= _REF_STEP_TOL:
                reason = "step_tol"
                break
            lam = min(lam * _REF_LAMBDA_INCREASE, _REF_LAMBDA_MAX)
    return theta, TrainReport(
        iterations, cost, _max_row_norm(r), accepted, rejected, reason,
        tuple(cost_history),
    )


def _endpoint_row(basis):
    """The feature row of `eval_network` at t = dt, by its own expression."""
    return np.tanh(np.multiply.outer(basis.dt, basis.a) + basis.b) - basis.sigma_b


def _reference_endpoint_hit(endpoint, delta, theta, tol):
    """The endpoint xtol, at tolerance `tol`, on a step delta from theta."""
    if endpoint is None:
        return False
    phi, x0 = endpoint
    move = float(np.linalg.norm(phi @ _unvec(delta, theta.shape)))
    return move <= tol * (tol + float(np.linalg.norm(x0 + phi @ theta)))


def test_regularized_fit_equals_reference_on_rober_intervals(monkeypatch):
    """Every training of the reduced ROBER run, warm starts included, gives
    bitwise the plain normal-equations loop's weights, cost history and
    report, endpoint xtol included."""
    calls = _rober_trainings(monkeypatch, seed=1)
    assert any(report.termination == "endpoint_xtol" for *_, report in calls)
    for basis, x0, system, theta_init, opts, theta, report in calls:
        ref_theta, ref_report = _reference_normal_equations_fit(
            lambda th: residual(basis, th, x0, system),
            lambda th: residual_jacobian(basis, th, x0, system),
            theta_init, opts, endpoint=(_endpoint_row(basis), x0))
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(report.cost_history, ref_report.cost_history)
        assert report == ref_report


def test_regularized_fit_on_reduced_rober_seldom_runs_to_the_cap(monkeypatch):
    """With the endpoint xtol at 1e-12 the 42 trainings took 1 058 LM
    iterations, 6 of them stopping at the cap of 100.  At 1e-10 they take
    523, and the 2 that still stop at the cap are the zeroth sweep's first
    two intervals, whose endpoint keeps drifting."""
    reports = [report for *_, report in _rober_trainings(monkeypatch, seed=1)]
    assert len(reports) == 42
    assert sum(r.iterations for r in reports) < 600
    assert sum(r.termination == "max_iter" for r in reports) <= 2


def test_endpoint_stop_after_accepted_and_rejected_newton_steps():
    """A step moves an endpoint whose feature row is zero by nothing.  Given
    that endpoint, both fits stop at their first accepted step, and the
    exact fit also at a rejected Newton step, returning its start unchanged.
    A rejected damped step stops neither fit."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    linear = (lambda th: a @ _vec(th) - b, lambda th: a, np.zeros((3, 2)))
    frozen = (np.zeros(3), np.ones(2))
    regularized = LmOptions(floor_to_gauss_newton=False)
    for opts in (EXACT, regularized):
        _, report = levenberg_marquardt(*linear, opts, endpoint=frozen)
        assert (report.termination, report.iterations, report.accepted) == ("endpoint_xtol", 1, 1)
        _, free = levenberg_marquardt(*linear, opts)
        assert free.termination != "endpoint_xtol" and free.iterations > 1

    # Rosenbrock's valley from (-1.2, 1): the Newton step and the step damped
    # by 1e-3 both raise the cost, and the step damped by 1e-2 lowers it.
    def res(th):
        t = _vec(th)
        return np.array([1.0 - t[0], 10.0 * (t[1] - t[0] ** 2)])

    def jac(th):
        return np.array([[-1.0, 0.0], [-20.0 * _vec(th)[0], 10.0]])

    start = np.array([[-1.2], [1.0]])
    valley = (res, jac, start)
    frozen = (np.zeros(2), np.ones(1))
    theta, report = levenberg_marquardt(*valley, EXACT, endpoint=frozen)
    assert_bitwise(theta, start)
    assert (report.termination, report.iterations, report.rejected) == ("endpoint_xtol", 1, 1)
    assert report.final_cost == report.cost_history[0] == float(np.sum(res(start) ** 2))
    # The regularized fit's first step, damped by 1e-3, is rejected.
    _, report = levenberg_marquardt(*valley, regularized, endpoint=frozen)
    assert (report.termination, report.accepted, report.rejected) == ("endpoint_xtol", 1, 1)
    # A feature row orthogonal to the exact fit's step damped by 1e-3 leaves
    # the endpoint where it is on that rejected step, and the fit goes on.
    j, r = jac(start), res(start)
    damped = np.linalg.solve(j.T @ j + 1e-3 * np.diag(np.sum(j * j, axis=0)), -j.T @ r)
    across = (np.array([-damped[1], damped[0]]), np.ones(1))
    assert abs(across[0] @ damped) <= 1e-12 * np.linalg.norm(across[1] + across[0] @ start)
    theta, report = levenberg_marquardt(*valley, EXACT, endpoint=across)
    free_theta, free = levenberg_marquardt(*valley, EXACT)
    assert report.rejected >= 2 and report.termination == "residual_tol"
    assert_bitwise(theta, free_theta) and report == free


# How much higher the final cost of a training may end than the least-squares
# loop's.  Over seeds 0 to 7 it ended at most 2.0e-7 higher (seed 6; 3.5e-7
# at seed 0 while the endpoint xtol was 1e-12): the regularized fit corrects
# each normal-equations step once by J.  Without that correction it ended up
# to 1.2e-3 higher (seed 1, interval 14, a fit both loops end at the residual
# tolerance), and at the parent up to 7.0e-4.
_REGULARIZED_COST_RTOL = 1e-3


@pytest.mark.parametrize("seed", [1, 6])
def test_regularized_fit_matches_least_squares_loop_on_rober_intervals(monkeypatch, seed):
    """On the inputs of every training of the reduced ROBER run, the
    augmented least-squares loop takes the same path: the same iteration,
    acceptance and rejection counts and termination.  The final cost ends
    at most 1e-3 relative above that loop's.  The weights themselves may
    differ widely in single entries, since most of these fits stop at the
    iteration cap in a flat valley of the cost."""
    calls = _rober_trainings(monkeypatch, seed=seed)
    for basis, x0, system, theta_init, opts, theta, report in calls:
        _, ref_report = _reference_levenberg_marquardt(
            lambda th: residual(basis, th, x0, system),
            lambda th: residual_jacobian(basis, th, x0, system),
            theta_init, opts, endpoint=(_endpoint_row(basis), x0))
        assert (report.iterations, report.accepted, report.rejected, report.termination) == (
            ref_report.iterations, ref_report.accepted, ref_report.rejected,
            ref_report.termination)
        assert report.final_cost <= ref_report.final_cost * (1 + _REGULARIZED_COST_RTOL)


def test_regularized_fit_needs_no_least_squares_solve(monkeypatch):
    """Damping is never 0 in the regularized fit, so no step reaches the
    least-squares fallback of the undamped step."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    basis = sample_basis(5, 5, 0.1, seed=1)
    theta, report = train_coarse(basis, default_initial_state("rober"), make_benchmark("rober"),
                                 None, LmOptions(floor_to_gauss_newton=False))
    assert report.iterations > 1 and report.accepted > 0
    assert np.isfinite(theta).all()


# The exact fit as it stood before its damped system was built once per
# Jacobian: the loop below is that version verbatim, with the constants it
# read then, less the regularized branch, which an exact fit never takes.
# With `opts` selecting the regularized fit it runs the regularized damping
# schedule instead (lam starts at 1e-3 and is floored at 1e-12, ftol and xtol
# off), which makes it the plain normal-equations form of that fit; with the
# corrections added since, it corrects each damped step once by J and, given
# an `endpoint`, takes the endpoint xtol test after an accepted step and, in
# the exact fit, after a rejected undamped one, at 1e-12 in the exact fit and
# 1e-10 in the regularized one.
_REF_FTOL = 1e-10
_REF_XTOL = 1e-12
_REF_REGULARIZED_ENDPOINT_XTOL = 1e-10


def _reference_undamped_step(jac, rhs):
    if jac.shape[0] == jac.shape[1]:
        try:
            return np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(jac, rhs, rcond=None)[0]


def _reference_normal_equations_fit(residual_fn, jacobian_fn, theta_init, opts,
                                    endpoint=None):
    exact = opts.floor_to_gauss_newton
    theta = np.array(theta_init, dtype=float)
    shape = theta.shape
    r = residual_fn(theta)
    cost = float(np.sum(r * r))
    cost_history = [cost]
    res_norm = math.sqrt(cost)
    if res_norm <= _REF_RESIDUAL_TOL:
        return theta, TrainReport(0, cost, _max_row_norm(r), 0, 0, "residual_tol",
                                  tuple(cost_history))
    lam = 0.0 if exact else _REF_LAMBDA_INIT
    endpoint_tol = _REF_XTOL if exact else _REF_REGULARIZED_ENDPOINT_XTOL
    iterations = accepted = rejected = 0
    reason = None
    need_jacobian = True
    jac = diag = None
    while reason is None and iterations < opts.max_iter:
        iterations += 1
        if need_jacobian:
            jac = np.asarray(jacobian_fn(theta))
            diag = np.einsum("ij,ij->j", jac, jac)
            if np.min(diag) < _REF_MARQUARDT_DIAG_FLOOR:
                diag = np.ones_like(diag)
            need_jacobian = False
        while True:
            try:
                if lam == 0.0:
                    delta = _reference_undamped_step(jac, -_vec(r))
                else:
                    normal = jac.T @ jac
                    normal.flat[:: normal.shape[0] + 1] += lam * diag
                    delta = np.linalg.solve(normal, jac.T @ -_vec(r))
                    if not exact:
                        fix = jac.T @ (-_vec(r) - jac @ delta) - lam * diag * delta
                        delta = delta + np.linalg.solve(normal, fix)
                break
            except np.linalg.LinAlgError as exc:
                if lam >= _REF_LAMBDA_MAX:
                    raise TrainingError(
                        f"linear solve failed after damping escalation to {lam:.1e}"
                    ) from exc
                lam = min(lam * _REF_LAMBDA_INCREASE, _REF_LAMBDA_MAX) if lam else _REF_LAMBDA_INIT
        theta_try = theta + _unvec(delta, shape)
        r_try = residual_fn(theta_try)
        cost_try = float(np.sum(r_try * r_try))
        step_norm = float(np.linalg.norm(delta))
        if cost_try < cost:
            ftol_hit = exact and cost - cost_try <= _REF_FTOL * cost
            xtol_hit = exact and step_norm <= _REF_XTOL * (
                _REF_XTOL + float(np.linalg.norm(theta)))
            endpoint_hit = _reference_endpoint_hit(endpoint, delta, theta, endpoint_tol)
            theta, r, cost = theta_try, r_try, cost_try
            accepted += 1
            need_jacobian = True
            cost_history.append(cost)
            lam /= _REF_LAMBDA_DECREASE
            if lam < _REF_LAMBDA_MIN:
                lam = 0.0 if exact else _REF_LAMBDA_MIN
            if math.sqrt(cost) <= _REF_RESIDUAL_TOL:
                reason = "residual_tol"
            elif step_norm <= _REF_STEP_TOL:
                reason = "step_tol"
            elif xtol_hit:
                reason = "xtol"
            elif ftol_hit:
                reason = "ftol"
            elif endpoint_hit:
                reason = "endpoint_xtol"
        else:
            rejected += 1
            if step_norm <= _REF_STEP_TOL:
                reason = "step_tol"
            elif lam == 0.0 and _reference_endpoint_hit(endpoint, delta, theta, endpoint_tol):
                reason = "endpoint_xtol"
            else:
                lam = min(lam * _REF_LAMBDA_INCREASE, _REF_LAMBDA_MAX) if lam else _REF_LAMBDA_INIT
    return theta, TrainReport(
        iterations, cost, _max_row_norm(r), accepted, rejected, reason or "max_iter",
        tuple(cost_history),
    )


def _recorded_solve(monkeypatch, system, x0, mesh, config):
    """Every `train_coarse` call of one solve, with its inputs and outputs."""
    calls = []
    real_train = parareal.train_coarse

    def recording_train(basis, x0, system, theta_init, opts):
        theta, report = real_train(basis, x0, system, theta_init, opts)
        calls.append((basis, x0.copy(), system, theta_init, opts, theta, report))
        return theta, report

    monkeypatch.setattr(parareal, "train_coarse", recording_train)
    parareal_solve(system, x0, mesh, config)
    return calls


def _recorded_trainings(monkeypatch, config_dict):
    """Every `train_coarse` call of the CLI run `config_dict`'s solve."""
    system, x0, mesh, config = build_solver(ExperimentConfig.from_dict(config_dict))
    return _recorded_solve(monkeypatch, system, x0, mesh, config)


def _rober_trainings(monkeypatch, seed):
    """Every training of the reduced ROBER run, all of them regularized fits."""
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 10), (1.0, 10.0, 5)])
    config = PararealConfig(fine=FineMethod("implicit-euler", 1e-3), tol=1e-4, max_it=20,
                            seed=seed)
    assert not config.lm.floor_to_gauss_newton
    calls = _recorded_solve(monkeypatch, make_benchmark("rober"), np.array([1.0, 0.0, 0.0]),
                            mesh, config)
    assert len(calls) >= mesh.n_intervals
    return calls


def test_exact_fit_equals_reference_on_arenstorf_intervals(monkeypatch):
    """Every training of a short Arenstorf run, warm starts and damped
    retries included, gives bitwise the reference loop's weights, cost
    history and report."""
    calls = _recorded_trainings(monkeypatch, {
        "benchmark": "arenstorf", "t_end": 1.632,
        "mesh": {"kind": "uniform", "intervals": 12}, "rpnn": {"seed": 0}})
    assert len(calls) >= 12
    assert all(opts.floor_to_gauss_newton for *_, opts, _, _ in calls)
    assert sum(report.rejected for *_, report in calls) > 0
    for basis, x0, system, theta_init, opts, theta, report in calls:
        ref_theta, ref_report = _reference_normal_equations_fit(
            lambda th: residual(basis, th, x0, system),
            lambda th: residual_jacobian(basis, th, x0, system),
            theta_init if theta_init is not None else np.zeros((basis.hidden, system.dim)),
            opts, endpoint=(_endpoint_row(basis), x0))
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(report.cost_history, ref_report.cost_history)
        assert report == ref_report


def test_exact_fit_equals_reference_on_burgers_intervals(monkeypatch):
    """Every training of the short Burgers sine run gives bitwise the
    reference loop's weights, cost history and report, endpoint xtol
    included.  Burgers has no float forms, so this pins the trainer's array
    path; the ROBER and Arenstorf pins above run on float rows."""
    calls = _recorded_trainings(monkeypatch, {
        "benchmark": "burgers", "burgers_ic": "sine", "t_end": 0.08,
        "mesh": {"kind": "uniform", "intervals": 4}, "rpnn": {"seed": 11}})
    assert len(calls) >= 4
    assert all(opts.floor_to_gauss_newton for *_, opts, _, _ in calls)
    assert any(report.termination == "endpoint_xtol" for *_, report in calls)
    for basis, x0, system, theta_init, opts, theta, report in calls:
        ref_theta, ref_report = _reference_normal_equations_fit(
            lambda th: residual(basis, th, x0, system),
            lambda th: residual_jacobian(basis, th, x0, system),
            theta_init if theta_init is not None else np.zeros((basis.hidden, system.dim)),
            opts, endpoint=(_endpoint_row(basis), x0))
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(report.cost_history, ref_report.cost_history)
        assert report == ref_report


def _training_maps(monkeypatch, basis, x0, system):
    """The residual and Jacobian functions `train_coarse` hands the trainer."""
    maps = []

    def capture(residual_fn, jacobian_fn, theta_init, opts, endpoint=None):
        maps.append((residual_fn, jacobian_fn))
        return theta_init, None

    monkeypatch.setattr(collocation, "levenberg_marquardt", capture)
    train_coarse(basis, x0, system)
    return maps[0]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_training_jacobian_reuses_only_its_residual_states(monkeypatch, name):
    """The trainer's Jacobian reads the node states of the last residual
    call when asked at those very weights, and evaluates them afresh at any
    other weights, an equal copy included; each result, and each residual,
    is bitwise the public function's at the weights asked."""
    system, x0, basis, theta = benchmark_network(name, seed=3)
    residual_fn, jacobian_fn = _training_maps(monkeypatch, basis, x0, system)
    other = theta + 1e-3
    assert_bitwise(residual_fn(theta), residual(basis, theta, x0, system))
    expected = residual_jacobian(basis, theta, x0, system)
    assert_bitwise(jacobian_fn(theta), expected)
    assert_bitwise(jacobian_fn(other), residual_jacobian(basis, other, x0, system))
    assert_bitwise(jacobian_fn(theta.copy()), expected)
    assert_bitwise(residual_fn(other), residual(basis, other, x0, system))
    assert_bitwise(jacobian_fn(theta), expected)


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "regularized"])
def test_non_finite_field_jacobian_is_a_training_error(exact, capfd):
    """DF = 0.5 / |x|**0.5 is infinite at x = 0: training names the field
    Jacobian before a solve sees it, and LAPACK prints nothing."""
    root = OdeSystem(1, _on_floats(lambda x: (abs(x) ** 0.5 + 1.0,)),
                     _on_floats(lambda x: (0.5 / abs(x) ** 0.5,), square=True), "root")
    basis = sample_basis(5, 5, 0.1, seed=0)
    with pytest.raises(TrainingError, match="field Jacobian returned non-finite values"):
        train_coarse(basis, np.array([0.0]), root, None, LmOptions(floor_to_gauss_newton=exact))
    assert capfd.readouterr().err == ""


def test_training_calls_only_float_forms(monkeypatch):
    """One reduced-ROBER training evaluates the field and its Jacobian only
    through their float forms: C calls per residual and per Jacobian, and
    no call of the array callables."""
    calls = Counter()

    def counted(fn, name):
        def array(x):
            calls[name] += 1
            return fn(x)

        def floats(*values):
            calls[name + ".floats"] += 1
            return fn.floats(*values)

        array.floats = floats
        return array

    real_lm = collocation.levenberg_marquardt

    def counting_lm(residual_fn, jacobian_fn, theta_init, opts, endpoint=None):
        def counted_residual(theta):
            calls["residuals"] += 1
            return residual_fn(theta)

        def counted_jacobian(theta):
            calls["jacobians"] += 1
            return jacobian_fn(theta)

        return real_lm(counted_residual, counted_jacobian, theta_init, opts, endpoint=endpoint)

    monkeypatch.setattr(collocation, "levenberg_marquardt", counting_lm)
    rober = make_benchmark("rober")
    system = dataclasses.replace(rober, field=counted(rober.field, "field"),
                                 jacobian=counted(rober.jacobian, "jacobian"))
    basis = sample_basis(5, 5, 0.1, seed=1)
    _, report = train_coarse(basis, default_initial_state("rober"), system, None,
                             LmOptions(floor_to_gauss_newton=False))
    assert report.iterations > 1
    assert calls["field"] == calls["jacobian"] == 0
    assert calls["residuals"] == 1 + report.iterations
    assert calls["field.floats"] == basis.colloc * calls["residuals"]
    assert calls["jacobians"] >= 1
    assert calls["jacobian.floats"] == basis.colloc * calls["jacobians"]


# ---------------------------------------------------------------------------
# train_coarse
# ---------------------------------------------------------------------------


def test_train_zero_field_stays_at_zero():
    basis = sample_basis(5, 5, 1.0, seed=0)
    system = zero_system(2)
    theta, report = train_coarse(basis, np.ones(2), system)
    assert np.array_equal(theta, np.zeros((5, 2)))
    assert report.iterations == 0


def test_train_scalar_decay_reaches_tiny_defect():
    basis = sample_basis(5, 5, 0.5, seed=5)
    system = linear_system(-1.0)
    theta, report = train_coarse(basis, np.array([1.0]), system)
    assert report.epsilon <= 1e-8


def test_train_warm_start_is_instant():
    basis = sample_basis(5, 5, 0.5, seed=5)
    system = linear_system(-1.0)
    x0 = np.array([1.0])
    theta, first = train_coarse(basis, x0, system)
    theta2, second = train_coarse(basis, x0, system, theta_init=theta)
    assert second.iterations <= 1
    assert np.array_equal(theta2, theta) or second.iterations == 1


def test_train_linear_flows_hit_small_defect_for_most_seeds():
    system_pos = linear_system(1.0)
    system_neg = linear_system(-1.0)
    hits = 0
    for seed in range(100):
        lam, system = (1.0, system_pos) if seed % 2 else (-1.0, system_neg)
        dt = 0.5 / abs(lam)
        basis = sample_basis(5, 5, dt, seed=seed)
        _, report = train_coarse(basis, np.array([1.0]), system)
        if report.epsilon <= 1e-8:
            hits += 1
    assert hits >= 95
