"""Benchmark systems: hand-checked values, Jacobian oracles, error handling."""

import dataclasses

import numpy as np
import pytest

from rpnn_parareal import (
    OdeSystem,
    StepFailure,
    burgers_semidiscretize,
    make_benchmark,
    rk4_step,
)
from rpnn_parareal.problems import (
    ARENSTORF_V2_0,
    BENCHMARK_NAMES,
    BurgersDiscretization,
    burgers_initial_condition,
    default_initial_state,
    evaluate_rows,
)

from conftest import central_fd_jacobian, linear_system, sample_benchmark_state


def test_sir_field_hand_value():
    system = make_benchmark("sir")
    got = system.field(np.array([0.3, 0.5, 0.2]))
    np.testing.assert_allclose(got, [-0.015, -0.035, 0.05], rtol=1e-14)


def test_lorenz_origin_is_equilibrium():
    system = make_benchmark("lorenz")
    assert np.array_equal(system.field(np.zeros(3)), np.zeros(3))


@pytest.mark.parametrize("name", ["sir", "rober"])
def test_field_component_sums_vanish(name):
    system = make_benchmark(name)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = sample_benchmark_state(name, rng, system)
        f = system.field(x)
        assert abs(f.sum()) <= 1e-14 * (1.0 + np.abs(f).max())


def test_sir_jacobian_hand_entry():
    system = make_benchmark("sir")
    jac = system.jacobian(np.array([0.3, 0.5, 0.2]))
    assert jac[0, 0] == pytest.approx(-0.05, rel=1e-14)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_linear_system_jacobian_is_constant():
    a = np.array([[1.0, 2.0], [-3.0, 0.5]])
    system = OdeSystem(2, lambda x: a @ x, lambda x: a.copy(), "lin")
    states = np.array([[0.0, 0.0], [3.0, -7.0]])
    for x in states:
        np.testing.assert_array_equal(system.jacobian(x), a)
    # Array-only systems take the row path one call per row.
    assert _bitwise_equal(evaluate_rows(system.jacobian, states), np.array([a, a]))
    assert _bitwise_equal(system.field_rows(states), np.array([a @ x for x in states]))
    # A copy with a new field evaluates the new field on the rows.
    doubled = dataclasses.replace(system, field=lambda x: 2.0 * (a @ x))
    assert _bitwise_equal(doubled.field_rows(states), np.array([2.0 * (a @ x) for x in states]))
    scalar = linear_system(-2.0)
    column = np.array([[0.5], [-3.0]])
    assert _bitwise_equal(scalar.field_rows(column), -2.0 * column)
    assert _bitwise_equal(evaluate_rows(scalar.jacobian, column), np.full((2, 1, 1), -2.0))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_jacobian_matches_finite_differences(name):
    """The analytic Jacobian matches central differences, and the row path
    gives each state's Jacobian bitwise (and, on the closed-form systems,
    each state's field; the Burgers stack form is pinned further down)."""
    system = make_benchmark(name)
    rng = np.random.default_rng(42)
    states = np.array([sample_benchmark_state(name, rng, system) for _ in range(20)])
    for x in states:
        analytic = system.jacobian(x)
        fd = central_fd_jacobian(system.field, x)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert err <= 1e-6, f"{name}: rel err {err:.2e}"
    assert _bitwise_equal(evaluate_rows(system.jacobian, states),
                          np.array([system.jacobian(x) for x in states]))
    if name != "burgers":
        assert _bitwise_equal(system.field_rows(states),
                              np.array([system.field(x) for x in states]))


def test_benchmark_defaults_match_setups():
    assert make_benchmark("sir").params == {"beta": 0.1, "gamma": 0.1}
    assert make_benchmark("rober").params == {"k1": 0.04, "k2": 3e7, "k3": 1e4}
    lorenz = make_benchmark("lorenz").params
    assert (lorenz["sigma"], lorenz["r"], lorenz["b"]) == (10.0, 28.0, 8.0 / 3.0)
    aren = make_benchmark("arenstorf").params
    assert aren["a"] == 0.12277471 and aren["b"] == 1.0 - 0.12277471
    assert make_benchmark("brusselator").params == {"A": 1.0, "B": 3.0}
    burgers = make_benchmark("burgers")
    assert burgers.params["nu"] == 1.0 / 50.0 and burgers.dim == 51


def test_arenstorf_state_ordering_and_velocity_literal():
    system = make_benchmark("arenstorf")
    assert system.labels == ("x1", "x2", "v1", "v2")
    x0 = default_initial_state("arenstorf")
    assert x0[0] == 0.994 and x0[3] == ARENSTORF_V2_0
    # first-order form: first two components are the velocities
    f = system.field(x0)
    assert f[0] == x0[2] and f[1] == x0[3]


# At the primary (x1 = -a, x2 = 0) the distance r1 is 0; at x2 = 1e-150 it
# is so small that r1**1.5 underflows to 0 and r1**-1.5 overflows.  Python
# floats raise on both; the field and Jacobian must give numpy's inf/nan
# instead, so the step fails as a StepFailure.
_ARENSTORF_A = make_benchmark("arenstorf").params["a"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "state",
    [[-_ARENSTORF_A, 0.0, 0.0, 0.0], [-_ARENSTORF_A, 1e-150, 0.0, 0.0]],
    ids=["primary", "near-primary"],
)
def test_arenstorf_singular_states_fail_as_step_failure(state):
    system = make_benchmark("arenstorf")
    x = np.array(state)
    assert not np.all(np.isfinite(system.field(x)))
    assert not np.all(np.isfinite(system.jacobian(x)))
    with pytest.raises(StepFailure):
        rk4_step(system, x, 1e-3)


@pytest.mark.filterwarnings("ignore:overflow")
def test_arenstorf_far_state_where_r_cubed_overflows():
    # r1**1.5 and r2**1.5 overflow to inf, so both attraction terms vanish
    system = make_benchmark("arenstorf")
    x = np.array([1e110, 0.0, 3.0, -2.0])
    assert np.array_equal(system.field(x), [3.0, -2.0, 1e110 - 4.0, -6.0])
    expected_jac = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 2], [0, 1, -2, 0]]
    assert np.array_equal(system.jacobian(x), expected_jac)


_FLOAT_FORM_NAMES = [name for name in BENCHMARK_NAMES
                     if hasattr(make_benchmark(name).field, "floats")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", _FLOAT_FORM_NAMES)
def test_float_form_rows_equal_per_row_array_calls_bitwise(name):
    """`evaluate_rows` calls a float form on the rows as lists; field and
    Jacobian rows are bitwise the per-row array calls, also on Arenstorf
    rows where Python floats raise and the batch runs again with each row
    retried on numpy scalars (the primary's singularity, and a far state
    whose r**1.5 overflows)."""
    system = make_benchmark(name)
    rng = np.random.default_rng(8)
    rows = [sample_benchmark_state(name, rng, system) for _ in range(6)]
    if name == "arenstorf":
        rows[2:2] = [[-_ARENSTORF_A, 0.0, 0.5, 0.0], [1e110, 0.0, 3.0, -2.0]]
    states = np.array(rows)
    for fn in (system.field, system.jacobian):
        assert _bitwise_equal(evaluate_rows(fn, states), np.array([fn(x) for x in states]))
    assert _bitwise_equal(system.field_rows(states), evaluate_rows(system.field, states))
    if name == "arenstorf":
        assert not np.isfinite(evaluate_rows(system.field, states)[2]).all()


def test_make_benchmark_rejects_bad_input():
    with pytest.raises(ValueError):
        make_benchmark("heat")
    with pytest.raises(ValueError):
        make_benchmark("sir", {"mu": 1.0})
    with pytest.raises(ValueError):
        make_benchmark("sir", {"beta": float("nan")})
    for value in (True, False, "x", None, [0.1]):
        with pytest.raises(ValueError, match="beta"):
            make_benchmark("sir", {"beta": value})
    with pytest.raises(ValueError, match="grid_size"):
        make_benchmark("burgers", {"grid_size": 20.7})
    with pytest.raises(ValueError, match="grid_size"):
        default_initial_state("burgers", {"grid_size": 20.7})


# The polynomial Jacobians written out on arrays, term by term as the
# package writes them on Python floats.
def _sir_array_jacobian(x, beta, gamma):
    s, i, _ = x
    return np.array([[-beta * i, -beta * s, 0.0],
                     [beta * i, beta * s - gamma, 0.0],
                     [0.0, gamma, 0.0]])


def _rober_array_jacobian(x, k1, k2, k3):
    _, y2, y3 = x
    return np.array([[-k1, k3 * y3, k3 * y2],
                     [k1, -2.0 * k2 * y2 - k3 * y3, -k3 * y2],
                     [0.0, 2.0 * k2 * y2, 0.0]])


def _lorenz_array_jacobian(x, sigma, r, b):
    x1, x2, x3 = x
    return np.array([[-sigma, sigma, 0.0],
                     [r - x3, -1.0, -x1],
                     [x2, x1, -b]])


def _brusselator_array_jacobian(x, A, B):
    x1, x2 = x
    return np.array([[2.0 * x1 * x2 - (B + 1.0), x1 * x1],
                     [B - 2.0 * x1 * x2, -x1 * x1]])


@pytest.mark.parametrize("name, array_jacobian", [
    ("sir", _sir_array_jacobian),
    ("rober", _rober_array_jacobian),
    ("lorenz", _lorenz_array_jacobian),
    ("brusselator", _brusselator_array_jacobian),
])
def test_polynomial_jacobian_equals_array_form_bitwise(name, array_jacobian):
    system = make_benchmark(name)
    rng = np.random.default_rng(21)
    for _ in range(2000):
        x = sample_benchmark_state(name, rng, system)
        got = system.jacobian(x)
        expected = array_jacobian(x, **system.params)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), x


def test_make_benchmark_applies_overrides():
    system = make_benchmark("sir", {"beta": 0.3})
    assert system.params["beta"] == 0.3
    np.testing.assert_allclose(
        system.field(np.array([1.0, 1.0, 0.0])), [-0.3, 0.2, 0.1], rtol=1e-14
    )
    assert make_benchmark("burgers", {"grid_size": 21.0}).dim == 21
    assert default_initial_state("burgers", {"grid_size": 21.0}).shape == (21,)


def test_system_is_frozen():
    system = make_benchmark("sir")
    with pytest.raises(Exception):
        system.dim = 5


# ---------------------------------------------------------------------------
# Burgers semi-discretization
# ---------------------------------------------------------------------------


def test_burgers_field_vanishes_at_zero():
    system, _ = burgers_semidiscretize(51, 1.0 / 50.0)
    assert np.array_equal(system.field(np.zeros(51)), np.zeros(51))


# The grid sizes on which the Burgers forms are pinned to the reference
# expressions below, bitwise.
_BURGERS_GRIDS = (3, 4, 5, 17, 51, 101)


def _reference_stencils(n):
    """The stencils filled row by row, as the first semi-discretization did."""
    dx = 1.0 / (n - 1)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    for i in range(1, n - 1):
        d1[i, i - 1] = -1.0 / (2.0 * dx)
        d1[i, i + 1] = 1.0 / (2.0 * dx)
        d2[i, i - 1] = 1.0 / dx**2
        d2[i, i] = -2.0 / dx**2
        d2[i, i + 1] = 1.0 / dx**2
    return d1, d2


def test_burgers_interior_stencils():
    _, disc = burgers_semidiscretize(5, 1.0 / 50.0)
    u = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    dx = 0.25
    d1u = disc.d1 @ u
    d2u = disc.d2 @ u
    for i in (1, 2, 3):
        assert d1u[i] == pytest.approx((u[i + 1] - u[i - 1]) / (2 * dx), rel=1e-14)
        assert d2u[i] == pytest.approx((u[i + 1] - 2 * u[i] + u[i - 1]) / dx**2, rel=1e-14)
    for n in _BURGERS_GRIDS:
        _, disc = burgers_semidiscretize(n, 1.0 / 50.0)
        d1, d2 = _reference_stencils(n)
        assert _bitwise_equal(disc.d1, d1) and _bitwise_equal(disc.d2, d2), n


def test_burgers_inviscid_hand_value():
    system, _ = burgers_semidiscretize(5, 0.0)
    u = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    f = system.field(u)
    # interior component 2: -u_2 * (u_3 - u_1) / (2 * 0.25) = 0
    assert f[2] == 0.0


def test_burgers_boundary_rows_zero():
    system, disc = burgers_semidiscretize(17, 0.5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(17)
        f = system.field(u)
        assert f[0] == 0.0 and f[-1] == 0.0
        jac = system.jacobian(u)
        assert np.all(jac[0] == 0.0) and np.all(jac[-1] == 0.0)
    assert np.all(disc.d1[0] == 0.0) and np.all(disc.d2[-1] == 0.0)


def test_burgers_jacobian_matches_fd_at_sine_profile():
    """The Jacobian matches central differences, and on random states it is
    bitwise the dense product form -diag(D1 u) - diag(u) D1 + nu D2."""
    system, _ = burgers_semidiscretize(51, 1.0 / 50.0)
    x = np.arange(51) / 50.0
    u = np.sin(2.0 * np.pi * x)
    analytic = system.jacobian(u)
    fd = central_fd_jacobian(system.field, u)
    err = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
    assert err <= 1e-6
    rng = np.random.default_rng(5)
    for n in _BURGERS_GRIDS:
        for nu in (1.0 / 50.0, 0.0):
            system, disc = burgers_semidiscretize(n, nu)
            for _ in range(20):
                u = rng.standard_normal(n)
                reference = -np.diag(disc.d1 @ u) - np.diag(u) @ disc.d1 + nu * disc.d2
                assert _bitwise_equal(system.jacobian(u), reference), (n, nu)


def test_burgers_jacobian_is_the_expression_bitwise():
    """The Jacobian, formed in one buffer, has the bytes of the expression
    -diag(D1 u) - u D1 + nu D2, signs of zeros included: on random states,
    on u = 0, on states holding -0.0, and for stencils built by hand."""
    rng = np.random.default_rng(21)
    signed_zeros = rng.standard_normal(51)
    signed_zeros[::3], signed_zeros[1::7] = -0.0, 0.0
    discs = [burgers_semidiscretize(n, nu)[1] for n in (3, 17, 51) for nu in (1.0 / 50.0, 0.0)]
    d1, d2 = rng.standard_normal((2, 6, 6))
    d1[1, :3], d2[2, 3:] = -0.0, 0.0
    discs.append(BurgersDiscretization(0.3, d1, d2))
    for disc in discs:
        n, nu = len(disc.d1), disc.viscosity
        states = [rng.standard_normal(n) for _ in range(5)]
        states += [np.zeros(n), -np.zeros(n), signed_zeros[:n], -signed_zeros[:n]]
        for u in states:
            expected = -np.diag(disc.d1 @ u) - u[:, np.newaxis] * disc.d1 + nu * disc.d2
            assert _bitwise_equal(disc.jacobian(u), expected), (n, nu, u)


def test_burgers_rejects_tiny_grid():
    with pytest.raises(ValueError):
        burgers_semidiscretize(2, 0.1)


def test_burgers_batched_field_rows_match_per_state_field():
    """The row field is the field.  On one state it is bitwise the
    matrix-vector form -u * (D1 u) + nu * (D2 u); on a C x d stack it is
    bitwise the matrix-matrix form, whose rows agree with the per-state
    values to round-off only."""
    system, _ = burgers_semidiscretize(51, 1.0 / 50.0)
    rng = np.random.default_rng(3)
    states = rng.standard_normal((5, 51))
    rows = system.field_rows(states)
    for c in range(5):
        np.testing.assert_allclose(rows[c], system.field(states[c]), atol=1e-12)
    for n in _BURGERS_GRIDS:
        system, disc = burgers_semidiscretize(n, 1.0 / 50.0)
        d1, d2, nu = disc.d1, disc.d2, disc.viscosity
        assert system.field_rows == system.field == disc.field
        for c in range(1, 30, 4):
            u = rng.standard_normal(n)
            assert _bitwise_equal(system.field(u), -u * (d1 @ u) + nu * (d2 @ u)), n
            states = rng.standard_normal((c, n))
            reference = -states * (states @ d1.T) + nu * (states @ d2.T)
            assert _bitwise_equal(system.field_rows(states), reference), (n, c)


def test_burgers_initial_conditions_vanish_at_boundary():
    x = np.arange(51) / 50.0
    for kind in ("sine", "quadratic", "multiwave"):
        u = burgers_initial_condition(kind, x)
        assert u[0] == 0.0 and u[-1] == 0.0
    with pytest.raises(ValueError):
        burgers_initial_condition("square", x)
