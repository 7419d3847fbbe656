"""A-posteriori certificates: defect, log norms, and bound validity."""

import math

import numpy as np
import pytest

from rpnn_parareal import (
    OdeSystem,
    SolverError,
    field_log_norm_bound,
    make_benchmark,
    quadrature_certificate,
    sample_basis,
    train_coarse,
    collocation_grid,
)
from rpnn_parareal.certificates import Certificate, defect, log_norm_2, sensitivity_bound
from rpnn_parareal.problems import BENCHMARK_NAMES, evaluate_rows
from rpnn_parareal.rpnn import eval_network_many

from conftest import (
    assert_bitwise,
    benchmark_network,
    constant_system,
    linear_system,
    sample_times,
    zero_system,
)


def test_defect_zero_field_zero_weights():
    basis = sample_basis(5, 5, 1.0, seed=0)
    system = zero_system(2)
    for t in (0.0, 0.4, 1.0):
        assert np.array_equal(
            defect(basis, np.zeros((5, 2)), np.ones(2), system, t), np.zeros(2)
        )


def test_defect_at_nodes_bounded_by_train_epsilon():
    basis = sample_basis(5, 5, 0.5, seed=1)
    system = linear_system(-1.0)
    x0 = np.array([1.0])
    theta, report = train_coarse(basis, x0, system)
    for tc in basis.nodes:
        norm = np.linalg.norm(defect(basis, theta, x0, system, float(tc)))
        assert norm <= report.epsilon * (1 + 1e-9) + 1e-13


def test_defect_finite_between_nodes():
    basis = sample_basis(5, 5, 0.5, seed=1)
    system = linear_system(-1.0)
    x0 = np.array([1.0])
    theta, _ = train_coarse(basis, x0, system)
    values = [np.linalg.norm(defect(basis, theta, x0, system, t))
              for t in np.linspace(0, 0.5, 100)]
    assert np.all(np.isfinite(values))


def test_nonfinite_defect_is_a_solver_error():
    basis = sample_basis(5, 5, 1.0, seed=0)
    system = constant_system(np.array([np.nan]))
    with pytest.raises(SolverError):
        defect(basis, np.zeros((5, 1)), np.zeros(1), system, 0.5)


def test_nonfinite_defect_row_names_its_time():
    basis = sample_basis(5, 5, 1.0, seed=0)
    values = iter([0.0, 0.0, np.nan, 0.0])
    system = OdeSystem(dim=1, field=lambda x: np.array([next(values)]),
                       jacobian=lambda x: np.zeros((1, 1)), name="nan-at-third-call")
    with pytest.raises(SolverError, match=r"non-finite defect at t=0\.5$"):
        defect(basis, np.zeros((5, 1)), np.zeros(1), system, np.array([0.0, 0.25, 0.5, 0.75]))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_defect_rows_equal_single_time_calls_bitwise(name):
    system, x0, basis, theta = benchmark_network(name)
    ts = sample_times(basis.dt)
    rows = defect(basis, theta, x0, system, ts)
    assert rows.shape == (len(ts), len(x0))
    for k, t in enumerate(ts.tolist()):
        assert_bitwise(rows[k], defect(basis, theta, x0, system, t))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_field_log_norm_bound_equals_per_matrix_maximum_bitwise(name):
    system, x0, basis, theta = benchmark_network(name)
    states = eval_network_many(basis, theta, x0, sample_times(basis.dt))
    expected = max(map(log_norm_2, evaluate_rows(system.jacobian, states)))
    assert_bitwise(field_log_norm_bound(system, states), expected)


def test_nonfinite_jacobian_sample_is_a_solver_error():
    # eigvalsh returns finite eigenvalues for this matrix, nan and all.
    system = OdeSystem(dim=2, field=lambda x: x,
                       jacobian=lambda x: np.array([[x[0], 1.0], [1.0, 0.0]]),
                       name="nan-jacobian")
    states = np.array([[0.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(SolverError, match="non-finite field Jacobian"):
        field_log_norm_bound(system, states)


def _certificate_per_time(basis, theta, x0, system, grid, log_norm):
    """The certificate with one single-time defect call per time."""
    dt, p = basis.dt, grid.order
    epsilon = max(float(np.linalg.norm(defect(basis, theta, x0, system, float(tc))))
                  for tc in grid.nodes)
    ts = np.linspace(0.0, dt, 201)
    samples = np.array([defect(basis, theta, x0, system, float(t)) for t in ts])
    h = float(ts[1] - ts[0])
    max_dp = float(np.max(np.linalg.norm(np.diff(samples, n=p, axis=0) / h**p, axis=1)))
    rho_sum = float(np.sum(np.abs(grid.weights)))
    delta = sensitivity_bound(log_norm, dt)
    eps_term = delta * epsilon * rho_sum
    quad_term = delta * ((1.0 + rho_sum / dt) * max_dp / math.factorial(p) * dt ** (p + 1))
    return Certificate(epsilon=epsilon, delta=delta, log_norm=log_norm, rho_sum=rho_sum,
                       eps_term=eps_term, quad_term=quad_term, total=eps_term + quad_term)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_certificate_equals_per_time_loop_bitwise(name):
    system, x0, basis, theta = benchmark_network(name)
    grid = collocation_grid("uniform", 5, basis.dt)
    states = eval_network_many(basis, theta, x0, sample_times(basis.dt))
    log_norm = field_log_norm_bound(system, states)
    got = quadrature_certificate(basis, theta, x0, system, grid, log_norm)
    expected = _certificate_per_time(basis, theta, x0, system, grid, log_norm)
    for field, value in vars(expected).items():
        assert_bitwise(getattr(got, field), value)


def test_log_norm_identity_and_skew():
    assert log_norm_2(np.eye(3)) == pytest.approx(1.0, rel=1e-14)
    skew = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
    assert log_norm_2(skew) == pytest.approx(0.0, abs=1e-14)


def test_log_norm_hand_value():
    assert log_norm_2(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(1.0, rel=1e-14)


def test_log_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        log_norm_2(np.ones((2, 3)))


def test_log_norm_subadditive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        assert log_norm_2(a + b) <= log_norm_2(a) + log_norm_2(b) + 1e-12


def test_field_log_norm_linear_system():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    system_lin = type(linear_system(0.0))(
        dim=2, field=lambda x: a @ x, jacobian=lambda x: a.copy(), name="lin"
    )
    rng = np.random.default_rng(1)
    states = rng.standard_normal((10, 2))
    assert field_log_norm_bound(system_lin, states) == pytest.approx(1.0, rel=1e-14)


def test_field_log_norm_scalar_decay():
    system = linear_system(-1.0)
    assert field_log_norm_bound(system, np.array([[0.3], [2.0]])) == pytest.approx(-1.0)


def test_field_log_norm_sir_finite():
    system = make_benchmark("sir")
    rng = np.random.default_rng(2)
    states = rng.uniform(0, 1, (100, 3))
    m = field_log_norm_bound(system, states)
    assert np.isfinite(m)


def test_field_log_norm_requires_samples():
    with pytest.raises(ValueError):
        field_log_norm_bound(make_benchmark("sir"), np.empty((0, 3)))


def test_sensitivity_bound_values():
    assert sensitivity_bound(0.0, 5.0) == 1.0
    assert sensitivity_bound(-1.0, 1.0) == pytest.approx(1.0 / np.e, rel=1e-14)
    assert sensitivity_bound(2.0, 0.5) == pytest.approx(np.e, rel=1e-14)


def test_sensitivity_bound_is_inf_past_float_range():
    assert math.isfinite(sensitivity_bound(709.0, 1.0))
    assert sensitivity_bound(710.0, 1.0) == math.inf
    assert sensitivity_bound(5061.0, 1.0) == math.inf


def test_sensitivity_matches_linear_flow_derivative():
    # d phi / d x0 for x' = lam x is exp(lam dt), exactly the bound with M=lam
    for lam in (-2.0, 0.3):
        assert sensitivity_bound(lam, 0.7) == pytest.approx(np.exp(lam * 0.7), rel=1e-14)


def test_certificate_zero_problem_is_zero():
    basis = sample_basis(5, 5, 1.0, seed=3)
    system = zero_system(1)
    grid = collocation_grid("uniform", 5, 1.0)
    cert = quadrature_certificate(basis, np.zeros((5, 1)), np.zeros(1), system, grid, 0.0)
    assert cert.epsilon == 0.0 and cert.quad_term == 0.0 and cert.total == 0.0


def test_certificate_finite_when_sensitivity_near_float_max():
    # exp(M dt) = 1e306 times a remainder factor of about 7e5 overflows, but
    # the remainder factor times dt**6 is about 1e-2.
    dt = 0.05
    basis = sample_basis(5, 5, dt, bounds=(-10.0, 10.0), seed=0)
    grid = collocation_grid("uniform", 5, dt)
    log_norm = 306.0 * np.log(10.0) / dt
    cert = quadrature_certificate(basis, np.ones((5, 1)), np.zeros(1), zero_system(1),
                                  grid, log_norm)
    assert cert.delta > 1e305
    assert np.isfinite(cert.quad_term) and cert.quad_term > 0.0
    assert np.isfinite(cert.total)


def test_certificate_bounds_true_error_on_linear_flow():
    failures = 0
    for seed in range(20):
        lam = -1.0 if seed % 2 else 1.0
        dt = 0.5
        basis = sample_basis(5, 5, dt, seed=seed)
        system = linear_system(lam)
        x0 = np.array([1.0])
        theta, _ = train_coarse(basis, x0, system)
        grid = collocation_grid("uniform", 5, dt)
        cert = quadrature_certificate(basis, theta, x0, system, grid, lam)
        ts = np.linspace(0, dt, 500)
        values = eval_network_many(basis, theta, x0, ts)[:, 0]
        sup_err = np.max(np.abs(values - np.exp(lam * ts)))
        if sup_err > cert.total:
            failures += 1
    assert failures == 0


def test_certificate_quad_term_scales_with_interval():
    # halving dt with C (hence p) fixed shrinks quad_term ~ 2^(p+1); the
    # inner weights are redrawn per dt, so compare medians over seeds
    system = linear_system(-1.0)
    x0 = np.array([1.0])
    medians = {}
    for dt in (1.0, 0.5):
        terms = []
        for seed in range(10):
            basis = sample_basis(5, 5, dt, seed=seed)
            theta, _ = train_coarse(basis, x0, system)
            grid = collocation_grid("uniform", 5, dt)
            terms.append(quadrature_certificate(basis, theta, x0, system, grid, -1.0).quad_term)
        medians[dt] = float(np.median(terms))
    ratio = medians[1.0] / medians[0.5]
    assert 2**6 / 2.5 <= ratio <= 2**6 * 2.5


def test_certificate_fields_consistent():
    basis = sample_basis(5, 5, 0.3, seed=5)
    system = linear_system(-0.5)
    x0 = np.array([2.0])
    theta, _ = train_coarse(basis, x0, system)
    grid = collocation_grid("uniform", 5, 0.3)
    m = -0.5
    cert = quadrature_certificate(basis, theta, x0, system, grid, m)
    assert cert.total == pytest.approx(cert.eps_term + cert.quad_term, rel=1e-15)
    assert cert.total >= cert.eps_term
    assert cert.delta == pytest.approx(np.exp(m * 0.3), rel=1e-14)
    assert cert.rho_sum == pytest.approx(np.sum(np.abs(grid.weights)), rel=1e-14)
