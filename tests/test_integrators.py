"""Fine integrators: hand-derived single steps, order checks, invariants."""

import dataclasses
import math
import os
import subprocess
import sys
import traceback
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from rpnn_parareal import (
    FineMethod,
    NewtonNonconvergence,
    NewtonOptions,
    OdeSystem,
    SolverError,
    StepFailure,
    TimeMesh,
    fine_propagate,
    implicit_euler_step,
    make_benchmark,
    rk4_step,
    serial_solve,
)
from rpnn_parareal.integrators import step_count
from rpnn_parareal.problems import _on_floats, _retrying, default_initial_state

from conftest import (clock_system, constant_system, linear_system, sample_benchmark_state,
                      without_float_forms, zero_system)


def test_rk4_matches_taylor_polynomial():
    system = linear_system(1.0)
    h = 0.1
    got = rk4_step(system, np.array([1.0]), h)
    expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert got[0] == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.1051708333333333, rel=1e-16)


def test_rk4_zero_field_fixes_state():
    system = zero_system(3)
    x = np.array([1.0, -2.0, 3.5])
    for h in (1e-3, 1.0, 50.0):
        assert np.array_equal(rk4_step(system, x, h), x)


def test_rk4_error_shrinks_sixteenfold_on_lorenz():
    # fixed-span error vs a step-halved reference drops ~2^4 per halving
    system = make_benchmark("lorenz")
    x = np.array([20.0, 5.0, -5.0])
    span = 0.08
    reference = fine_propagate(system, x, span, FineMethod("rk4", span / 32))
    def span_err(steps):
        return np.linalg.norm(
            fine_propagate(system, x, span, FineMethod("rk4", span / steps)) - reference
        )
    e1, e2 = span_err(2), span_err(4)
    assert 10.0 < e1 / e2 < 24.0


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("step", [rk4_step, implicit_euler_step],
                         ids=["rk4", "implicit-euler"])
def test_one_step_functions_reject_bad_step_size(step, h):
    with pytest.raises(ValueError, match="step size must be positive"):
        step(make_benchmark("sir"), default_initial_state("sir"), h)


_ARENSTORF_A = make_benchmark("arenstorf").params["a"]


# With h = 1, x' = lam x at x = 1 has stages of size lam, lam**2 / 2,
# lam**3 / 4 and lam**4 / 4, so lam picks the first stage that overflows.
# A constant field near the float maximum keeps every stage finite and
# overflows only in the update (stage 5).  At the Arenstorf primary its float
# form divides by zero, so the first stage comes from the numpy fallback.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "system, x0, stage",
    [
        pytest.param(make_benchmark("arenstorf"), [-_ARENSTORF_A, 0.0, 0.0, 0.0], 1,
                     id="arenstorf-primary-float-form"),
        pytest.param(OdeSystem(1, lambda x: x * x, lambda x: np.diag(2 * x), "sq"),
                     1e200, 1, id="stage1"),
        pytest.param(linear_system(1e200), 1.0, 2, id="stage2"),
        pytest.param(linear_system(1e150), 1.0, 3, id="stage3"),
        pytest.param(linear_system(1e100), 1.0, 4, id="stage4"),
        pytest.param(constant_system([1e308]), 0.0, 5, id="stage5"),
    ],
)
def test_rk4_overflow_reports_stage(system, x0, stage):
    assert hasattr(system.field, "floats") == (system.name == "arenstorf")
    with pytest.raises(StepFailure) as info:
        rk4_step(system, np.array(x0, dtype=float, ndmin=1), 1.0)
    assert info.value.stage == stage


@pytest.mark.parametrize("name", ["arenstorf", "lorenz"])
def test_rk4_step_equals_textbook_update_bitwise(name):
    system = make_benchmark(name)
    x = default_initial_state(name)
    h = 1e-3
    for _ in range(20):
        k1 = system.field(x)
        k2 = system.field(x + 0.5 * h * k1)
        k3 = system.field(x + 0.5 * h * k2)
        k4 = system.field(x + h * k3)
        expected = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = rk4_step(system, x, h)
        assert np.array_equal(got, expected)
        x = got


def _textbook_rk4(field, x, h, steps):
    for _ in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _scalar_system(float_form):
    """Scalar x' = x (1 - x) / (1 + x * x), with or without float forms of
    the field and its Jacobian."""
    terms = _on_floats(lambda x: (x * (1.0 - x) / (1.0 + x * x),))
    jac_terms = _on_floats(
        lambda x: ((1.0 - 2.0 * x - x * x) / ((1.0 + x * x) ** 2),), square=True)
    if float_form:
        return OdeSystem(1, terms, jac_terms, "scalar")
    return OdeSystem(1, lambda x: terms(x), lambda x: jac_terms(x), "scalar")


def _lorenz96_system():
    """Lorenz-96 on five components, x_i' = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + 8
    with cyclic indices, with float forms of the field and its Jacobian: a
    dimension no benchmark system has."""
    def terms(*x):
        return tuple((x[(i + 1) % 5] - x[i - 2]) * x[i - 1] - x[i] + 8.0 for i in range(5))

    def jac_terms(*x):
        rows = [[0.0] * 5 for _ in range(5)]
        for i, row in enumerate(rows):
            row[i - 2], row[i - 1] = -x[i - 1], x[(i + 1) % 5] - x[i - 2]
            row[i], row[(i + 1) % 5] = -1.0, x[i - 1]
        return tuple(chain.from_iterable(rows))

    return OdeSystem(5, _on_floats(terms), _on_floats(jac_terms, square=True), "lorenz96")


_LORENZ96_X0 = np.array([8.01, 8.0, 8.0, 8.0, 8.0])


# Burgers has no float form, so its steps go through the array adapter; the
# scalar system runs through the one-component kernel both ways.
@pytest.mark.parametrize(
    "name, dt, steps",
    [
        pytest.param("sir", 1e-2, 200, id="sir"),
        pytest.param("rober", 1e-4, 200, id="rober"),
        pytest.param("lorenz", 10.0 / 14500.0, 580, id="lorenz"),
        pytest.param("arenstorf", 17.0 / 80000.0, 640, id="arenstorf"),
        pytest.param("brusselator", 1e-2, 200, id="brusselator"),
        pytest.param("burgers", 1e-4, 50, id="burgers"),
        pytest.param("scalar", 1e-2, 200, id="scalar-float-form"),
        pytest.param("scalar-array", 1e-2, 200, id="scalar-array"),
        pytest.param("lorenz96", 1e-2, 200, id="lorenz96"),
    ],
)
def test_fine_propagate_equals_textbook_array_rk4_bitwise(name, dt, steps):
    if name.startswith("scalar"):
        system, x = _scalar_system(name == "scalar"), np.array([0.01])
    elif name == "lorenz96":
        system, x = _lorenz96_system(), _LORENZ96_X0
    else:
        system, x = make_benchmark(name), default_initial_state(name)
    assert hasattr(system.field, "floats") == (name not in ("burgers", "scalar-array"))
    got = fine_propagate(system, x, steps * dt, FineMethod("rk4", dt))
    assert np.array_equal(got, _textbook_rk4(system.field, x, dt, steps))


@pytest.mark.parametrize(
    "name, dt, steps",
    [
        pytest.param("sir", 1e-2, 200, id="sir"),
        pytest.param("rober", 1e-3, 200, id="rober"),
        pytest.param("lorenz", 1e-3, 200, id="lorenz"),
        pytest.param("arenstorf", 17.0 / 80000.0, 200, id="arenstorf"),
        pytest.param("brusselator", 1e-2, 200, id="brusselator"),
        pytest.param("scalar", 1e-2, 200, id="scalar"),
        pytest.param("lorenz96", 1e-2, 200, id="lorenz96"),
    ],
)
def test_implicit_euler_float_path_equals_array_path_bitwise(name, dt, steps):
    if name == "scalar":
        system, x = _scalar_system(True), np.array([0.01])
    elif name == "lorenz96":
        system, x = _lorenz96_system(), _LORENZ96_X0
    else:
        system, x = make_benchmark(name), default_initial_state(name)
    arrays = without_float_forms(system)
    assert not hasattr(arrays.field, "floats") and not hasattr(arrays.jacobian, "floats")
    if name == "lorenz96":
        # Not bitwise: from the array path's state after 188 steps, the
        # elimination's step differs from LAPACK's in the last bit of one
        # component, so each step is held to the Newton threshold instead.
        for _ in range(steps):
            got, expected = implicit_euler_step(system, x, dt), implicit_euler_step(arrays, x, dt)
            assert np.linalg.norm(got - expected) <= NewtonOptions().tol * (1.0 + np.linalg.norm(x))
            x = expected
        return
    method = FineMethod("implicit-euler", dt)
    got = fine_propagate(system, x, steps * dt, method)
    assert np.array_equal(got, fine_propagate(arrays, x, steps * dt, method))
    one = fine_propagate(system, x, dt, method)
    assert np.array_equal(implicit_euler_step(system, x, dt), one)
    assert np.array_equal(implicit_euler_step(arrays, x, dt), one)


# The primary and near-primary states make Python floats raise, so the float
# form is retried on numpy scalars, as the kernels and `evaluate_rows` do; at
# the far state r**1.5 overflows.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["sir", "rober", "lorenz", "arenstorf", "brusselator"])
def test_field_float_form_equals_array_field_bitwise(name):
    system = make_benchmark(name)
    rng = np.random.default_rng(20)
    states = [sample_benchmark_state(name, rng, system) for _ in range(2000)]
    if name == "arenstorf":
        states += [np.array(state) for state in (
            [-_ARENSTORF_A, 0.0, 0.0, 0.0],
            [-_ARENSTORF_A, 1e-150, 0.0, 0.0],
            [1e110, 0.0, 3.0, -2.0],
        )]
    for x in states:
        got = np.array(_retrying(system.field.floats)(*x.tolist()), dtype=float)
        assert np.array_equal(got.view(np.int64), system.field(x).view(np.int64)), x


def _counted(system, float_forms):
    """A copy of `system` that counts its field and Jacobian calls: of the
    float forms, or, without float forms, of the array callables."""
    calls = Counter()

    def counted(fn, name):
        if float_forms:
            def floats(*values):
                calls[name] += 1
                return fn.floats(*values)

            def array(x):
                return fn(x)

            array.floats = floats
            return array

        def array(x):
            calls[name] += 1
            return fn(x)

        return array

    return dataclasses.replace(system, field=counted(system.field, "field"),
                               jacobian=counted(system.jacobian, "jacobian")), calls


# Each step starts from the field value of the previous step's last
# residual, at the same floats, so an interval evaluates F once at its start
# and once per Newton iteration (one Jacobian call each), on both paths.
@pytest.mark.parametrize("float_forms", [True, False], ids=["kernel", "arrays"])
def test_implicit_euler_calls_the_field_once_more_than_newton_iterations(float_forms):
    rober, x, dt, steps = make_benchmark("rober"), np.array([1.0, 0.0, 0.0]), 1e-3, 50
    system, calls = _counted(rober, float_forms)
    method = FineMethod("implicit-euler", dt)
    y = fine_propagate(system, x, steps * dt, method)
    assert calls["jacobian"] > steps
    assert calls["field"] == 1 + calls["jacobian"]
    assert np.array_equal(y, fine_propagate(rober, x, steps * dt, method))
    calls.clear()
    implicit_euler_step(system, x, dt)
    assert calls["field"] == 1 + calls["jacobian"] >= 2


# The kernels call the float forms bare; a call that raises on Python floats
# makes the interval run again with forms retried on numpy scalars.  The
# result is bitwise that of the array path, which never raises, whether
# the run then goes on (a finite 0.0) or fails (inf), and the failure is
# the same exception, stage or residual, and interval.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["rk4", "implicit-euler"])
def test_float_form_that_raises_mid_interval_runs_as_the_array_path(kind):
    method, x0 = FineMethod(kind, 0.25), np.array([0.0, 0.0])
    clock = clock_system(pole=False)
    with pytest.raises(ZeroDivisionError):
        clock.field.floats(2.0, 0.0)
    got = fine_propagate(clock, x0, 2.5, method)
    assert got[0] == 2.5 and np.isfinite(got).all()
    assert np.array_equal(got, fine_propagate(without_float_forms(clock), x0, 2.5, method))

    mesh = TimeMesh.from_blocks([(0.0, 1.0, 1), (1.0, 3.0, 1)])
    pole = clock_system(pole=True)
    failures = []
    for system in (pole, without_float_forms(pole)):
        with pytest.raises(SolverError) as info:
            serial_solve(system, x0, mesh, method)
        exc = info.value
        failures.append((type(exc), str(exc), exc.interval, getattr(exc, "stage", None),
                         getattr(exc, "residual", None)))
    assert failures[0] == failures[1]
    assert failures[0][2] == 1


def _first_failing_step(field, x, h):
    """Step count and failing stage of array RK4 steps, staged checks."""
    step = 0
    while True:
        k1 = field(x)
        if not np.isfinite(k1).all():
            return step, 1
        k2 = field(x + 0.5 * h * k1)
        if not np.isfinite(k2).all():
            return step, 2
        k3 = field(x + 0.5 * h * k2)
        if not np.isfinite(k3).all():
            return step, 3
        k4 = field(x + h * k3)
        if not np.isfinite(k4).all():
            return step, 4
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            return step, 5
        step += 1


# x' = x**2 blows up at t = 1 / x0; with h = 0.1 the RK4 iterate overflows
# 9 to 12 steps in, at a stage that depends on x0.  The field runs once on
# arrays and once through a float form, whose products overflow to inf.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x0, stage", [(1.0, 1), (1.1, 2), (1.2, 3), (1.3, 4)])
def test_fine_propagate_failure_mid_interval_reports_stage(x0, stage):
    step, expected = _first_failing_step(lambda x: x * x, np.array([x0]), 0.1)
    assert expected == stage and step >= 5
    for field in (lambda x: x * x, _on_floats(lambda x: (x * x,))):
        system = OdeSystem(1, field, lambda x: np.diag(2 * x), "sq")
        with pytest.raises(StepFailure) as info:
            fine_propagate(system, np.array([x0]), 2.0, FineMethod("rk4", 0.1))
        assert info.value.stage == stage
        with pytest.raises(StepFailure) as info:
            serial_solve(system, np.array([x0]), TimeMesh.uniform(0.0, 2.0, 4),
                         FineMethod("rk4", 0.1))
        assert info.value.stage == stage
        assert info.value.interval == step // 5


# The README promises that a traceback from inside a step names the
# generated source: here the RK4 update of x' = x**2 overflows, and one
# Newton iteration cannot bring the ROBER residual below tol = 1e-300.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind, system, x0, source", [
    ("rk4", OdeSystem(1, _on_floats(lambda x: (x * x,)), lambda x: np.diag(2 * x), "sq"),
     [1.0], "<rk4 kernel d=1>"),
    ("implicit-euler", make_benchmark("rober"), [1.0, 0.0, 0.0], "<implicit euler kernel d=3>"),
], ids=["rk4", "implicit-euler"])
def test_step_failure_traceback_names_kernel_source(kind, system, x0, source):
    method = FineMethod(kind, 0.1, NewtonOptions(tol=1e-300, max_iter=1))
    with pytest.raises(SolverError) as info:
        fine_propagate(system, np.array(x0), 2.0, method)
    assert source in [frame.filename for frame in traceback.extract_tb(info.tb)]


def test_implicit_euler_scalar_decay_closed_form():
    system = linear_system(-1.0)
    got = implicit_euler_step(system, np.array([1.0]), 0.1)
    assert got[0] == pytest.approx(1.0 / 1.1, abs=1e-15)
    assert 1.0 / 1.1 == pytest.approx(0.9090909090909091, rel=1e-16)


def test_implicit_euler_zero_field_fixes_state():
    system = zero_system(2)
    x = np.array([0.25, -4.0])
    assert np.array_equal(implicit_euler_step(system, x, 5.0), x)


def test_implicit_euler_rober_residual_below_tolerance():
    system = make_benchmark("rober")
    x = np.array([1.0, 0.0, 0.0])
    h = 1e-4
    opts = NewtonOptions(tol=1e-12)
    y = implicit_euler_step(system, x, h, opts)
    residual = np.linalg.norm(y - x - h * system.field(y))
    assert residual <= 1e-12 * (1.0 + np.linalg.norm(x))


def test_implicit_euler_nonconvergence_signal():
    system = OdeSystem(
        1, lambda x: np.array([x[0] ** 3]), lambda x: np.array([[3 * x[0] ** 2]]), "cube"
    )
    with pytest.raises(NewtonNonconvergence) as info:
        implicit_euler_step(system, np.array([2.0]), 10.0, NewtonOptions(tol=1e-15, max_iter=1))
    assert info.value.residual > 0


def _decay_systems():
    """x' = -x built by hand on arrays and through float forms."""
    return [OdeSystem(1, lambda x: -x, lambda x: -np.eye(1), "decay"),
            OdeSystem(1, _on_floats(lambda x: (-x,)), _on_floats(lambda x: (-1.0,), square=True),
                      "decay")]


# ||x|| ** 2 overflows above about 1.3e154; a norm taken as the root of the
# sum of squares read inf for both the threshold and the residual, and
# inf <= inf accepted y = x without a Newton step.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("system", _decay_systems(), ids=["arrays", "float-form"])
def test_implicit_euler_takes_newton_steps_on_large_states(system):
    y = implicit_euler_step(system, np.array([1e200]), 0.5)
    assert y[0] == pytest.approx(1e200 / 1.5, rel=1e-15)
    y = fine_propagate(system, np.array([1e200]), 1.0, FineMethod("implicit-euler", 0.5))
    assert y[0] == pytest.approx(1e200 / 1.5 ** 2, rel=1e-15)


def _newton_failure(system, x, h, newton=None):
    with pytest.raises(NewtonNonconvergence) as info:
        implicit_euler_step(system, np.array(x), h, newton)
    return info.value


# Each failure is raised on the float path and, with the same message and
# residual, on the array path of a copy without float forms.
def test_implicit_euler_float_path_reports_stall():
    system = make_benchmark("rober")
    assert hasattr(system.field, "floats") and hasattr(system.jacobian, "floats")
    opts = NewtonOptions(tol=1e-300, max_iter=1)
    exc = _newton_failure(system, [1.0, 0.0, 0.0], 1e-3, opts)
    assert "stalled" in str(exc) and exc.residual > 0
    same = _newton_failure(without_float_forms(system), [1.0, 0.0, 0.0], 1e-3, opts)
    assert (str(same), same.residual) == (str(exc), exc.residual)


# x' = x**3 at x = 1e120: the cube overflows to inf on Python floats too, so
# the residual is -inf and the first Newton iterate 1e120 - inf.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_implicit_euler_float_path_reports_nonfinite_iterate():
    system = OdeSystem(1, _on_floats(lambda x: (x * x * x,)),
                       _on_floats(lambda x: (3.0 * x * x,), square=True), "cube")
    exc = _newton_failure(system, [1e120], 1.0)
    assert "non-finite" in str(exc)
    same = _newton_failure(without_float_forms(system), [1e120], 1.0)
    assert (str(same), same.residual) == (str(exc), exc.residual)


def test_implicit_euler_float_path_reports_singular_matrix():
    system = OdeSystem(1, _on_floats(lambda x: (x,)), _on_floats(lambda x: (1.0,), square=True),
                       "grow")
    exc = _newton_failure(system, [1.0], 1.0)
    assert "singular" in str(exc) and exc.residual == 1.0
    same = _newton_failure(without_float_forms(system), [1.0], 1.0)
    assert (str(same), same.residual) == (str(exc), exc.residual)


def _linear_system(rows, quadratic=0.0):
    """x' = A x, plus quadratic * x_2**2 in the second component when d = 3,
    with float forms of the field and the Jacobian."""
    def field_terms(*x):
        f = [sum(a * v for a, v in zip(row, x)) for row in rows]
        if quadratic:
            f[1] = f[1] + quadratic * x[2] * x[2]
        return tuple(f)

    def jac_terms(*x):
        jac = [list(row) for row in rows]
        if quadratic:
            jac[1][2] = jac[1][2] + 2.0 * quadratic * x[2]
        return tuple(chain.from_iterable(jac))

    return OdeSystem(len(rows), _on_floats(field_terms), _on_floats(jac_terms, square=True),
                     "linear")


# With h = 0.5 the Newton matrix I - h*DF has a zero in its leading entry,
# so the elimination must exchange rows to go on; the matrix stays
# nonsingular along the trajectory.  The elimination and LAPACK round
# differently, and here 5 of the 20 steps differ in the last bits, so each
# step is held to the Newton threshold against the array path's step from
# the same state.
def test_implicit_euler_float_path_pivots_past_zero_leading_entry():
    system = _linear_system([[2.0, 1.0, -0.5], [-3.0, -1.0, 0.0], [0.5, -2.0, -4.0]],
                            quadratic=0.125)
    arrays, h, tol = without_float_forms(system), 0.5, NewtonOptions().tol
    x = np.array([1.0, -0.5, 0.25])
    assert 1.0 - h * system.jacobian(x)[0, 0] == 0.0
    for _ in range(20):
        got, expected = implicit_euler_step(system, x, h), implicit_euler_step(arrays, x, h)
        threshold = tol * (1.0 + np.linalg.norm(x))
        assert np.linalg.norm(got - x - h * system.field(got)) <= threshold
        assert np.linalg.norm(got - expected) <= threshold
        x = expected


# With h = 1 the Newton matrix is [[1, 2], [2, 4]]: its leading column has
# no zero pivot, and the second pivot vanishes only after elimination.
def test_implicit_euler_float_path_reports_singular_matrix_after_elimination():
    system = _linear_system([[0.0, -2.0], [-2.0, -3.0]])
    exc = _newton_failure(system, [1.0, 0.0], 1.0)
    assert str(exc) == "singular Newton matrix at residual 2.000e+00" and exc.residual == 2.0
    same = _newton_failure(without_float_forms(system), [1.0, 0.0], 1.0)
    assert (str(same), same.residual) == (str(exc), exc.residual)


@pytest.mark.parametrize("lam", [-1.0, -1e3, -1e6])
def test_implicit_euler_unconditionally_stable(lam):
    system = linear_system(lam)
    for h in (0.1, 1.0, 10.0):
        y = implicit_euler_step(system, np.array([1.0]), h)
        assert abs(y[0]) < 1.0
        assert y[0] == pytest.approx(1.0 / (1.0 - h * lam), rel=1e-10)


def test_fine_propagate_single_step_identity():
    system = make_benchmark("brusselator")
    x = np.array([0.5, 1.5])
    method = FineMethod("rk4", 0.02)
    assert np.array_equal(
        fine_propagate(system, x, 0.02, method), rk4_step(system, x, 0.02)
    )


def test_fine_propagate_matches_exact_decay():
    system = linear_system(-1.0)
    got = fine_propagate(system, np.array([1.0]), 1.0, FineMethod("rk4", 0.01))
    assert got[0] == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_fine_propagate_conserves_sir_component_sum():
    system = make_benchmark("sir")
    x = np.array([0.3, 0.5, 0.2])
    y = fine_propagate(system, x, 1.0, FineMethod("rk4", 1e-2))
    assert abs(y.sum() - x.sum()) <= 1e-13


def test_fine_propagate_rejects_fractional_step_count():
    system = linear_system(-1.0)
    with pytest.raises(ValueError):
        fine_propagate(system, np.array([1.0]), 1.0, FineMethod("rk4", 0.3))
    # a ratio that overflows to inf has no integral step count either
    for length, dt in ((math.inf, 1.0), (1.0, 1e-320)):
        with pytest.raises(ValueError, match="not finite"):
            step_count(length, dt)


def test_fine_propagate_accepts_float_dust_ratios():
    # benchmark meshes produce ratios a few ulp off an integer
    system = linear_system(-1.0)
    fine_propagate(system, np.array([1.0]), 10.0 / 250.0, FineMethod("rk4", 10.0 / 14500.0))
    fine_propagate(system, np.array([1.0]), 3.0, FineMethod("implicit-euler", 1e-2))


def test_fine_propagate_is_deterministic():
    system = make_benchmark("lorenz")
    x = np.array([20.0, 5.0, -5.0])
    method = FineMethod("rk4", 1e-3)
    a = fine_propagate(system, x, 0.1, method)
    b = fine_propagate(system, x, 0.1, method)
    assert np.array_equal(a, b)


def test_serial_solve_single_interval_equals_fine_propagate():
    system = make_benchmark("sir")
    x0 = np.array([0.3, 0.5, 0.2])
    mesh = TimeMesh(np.array([0.0, 1.0]))
    method = FineMethod("rk4", 1e-2)
    trajectory = serial_solve(system, x0, mesh, method)
    assert np.array_equal(trajectory[1], fine_propagate(system, x0, 1.0, method))


def test_serial_solve_decay_final_value():
    system = linear_system(-1.0)
    mesh = TimeMesh.uniform(0.0, 1.0, 10)
    trajectory = serial_solve(system, np.array([1.0]), mesh, FineMethod("rk4", 1e-3))
    assert trajectory[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-10)


def test_serial_solve_rober_conserves_sum():
    system = make_benchmark("rober")
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 10), (1.0, 10.0, 5)])
    trajectory = serial_solve(
        system, np.array([1.0, 0.0, 0.0]), mesh, FineMethod("implicit-euler", 1e-3)
    )
    assert np.max(np.abs(trajectory.sum(axis=1) - 1.0)) <= 1e-10


@pytest.mark.slow
def test_serial_solve_rober_paper_mesh_conserves_sum():
    system = make_benchmark("rober")
    mesh = TimeMesh.from_blocks([(0.0, 1.0, 100), (1.0, 100.0, 33)])
    trajectory = serial_solve(
        system, np.array([1.0, 0.0, 0.0]), mesh, FineMethod("implicit-euler", 1e-4)
    )
    assert np.max(np.abs(trajectory.sum(axis=1) - 1.0)) <= 1e-10


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_serial_solve_failure_carries_interval():
    system = OdeSystem(1, lambda x: x * x, lambda x: np.diag(2 * x), "sq")
    mesh = TimeMesh.uniform(0.0, 3.0, 6)
    with pytest.raises(StepFailure) as info:
        serial_solve(system, np.array([3.0]), mesh, FineMethod("rk4", 0.5))
    assert info.value.interval is not None


def test_rk4_global_order_near_four():
    system = linear_system(-1.0)
    errors = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        y = fine_propagate(system, np.array([1.0]), 1.0, FineMethod("rk4", dt))
        errors.append(abs(y[0] - np.exp(-1.0)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert all(3.7 <= order <= 4.3 for order in orders)


def test_fine_method_validation():
    with pytest.raises(ValueError):
        FineMethod("euler", 0.1)
    with pytest.raises(ValueError):
        FineMethod("rk4", -0.1)
    with pytest.raises(ValueError):
        NewtonOptions(tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iter=0)


# An infinite tol made every step return its input; a fractional cap failed
# mid-solve with a TypeError, and True ran as one iteration.
@pytest.mark.parametrize("settings", [
    {"tol": math.inf}, {"tol": math.nan}, {"tol": -math.inf}, {"max_iter": 2.5},
    {"max_iter": True}, {"max_iter": "3"}, {"max_iter": None},
    {"tol": True}, {"tol": "1e-10"},
], ids=["inf-tol", "nan-tol", "minus-inf-tol", "fractional-max_iter", "bool-max_iter",
        "string-max_iter", "none-max_iter", "bool-tol", "string-tol"])
def test_newton_options_reject_bad_settings(settings):
    with pytest.raises(ValueError, match="newton"):
        NewtonOptions(**settings)


# newton=None or a dict failed only inside the implicit Euler loop, with an
# AttributeError; dt=inf failed later in step_count; dt=True ran as dt = 1.0.
@pytest.mark.parametrize("kind", ["rk4", "implicit-euler"])
@pytest.mark.parametrize("settings, field", [
    ({"dt": math.inf}, "fine step dt"), ({"dt": math.nan}, "fine step dt"),
    ({"dt": 0.0}, "fine step dt"), ({"dt": True}, "fine step dt"), ({"dt": "0.1"}, "fine step dt"),
    ({"dt": None}, "fine step dt"), ({"newton": None}, "newton"),
    ({"newton": {"tol": 1e-10}}, "newton"),
], ids=["inf-dt", "nan-dt", "zero-dt", "bool-dt", "string-dt", "none-dt", "none-newton",
        "dict-newton"])
def test_fine_method_rejects_bad_settings(kind, settings, field):
    with pytest.raises(ValueError, match=field):
        FineMethod(kind, **{"dt": 1e-3, **settings})


def test_fine_method_accepts_numpy_scalars():
    method = FineMethod("implicit-euler", np.float64(0.1), NewtonOptions(np.float64(1e-12)))
    y = fine_propagate(linear_system(-1.0), np.array([1.0]), 0.2, method)
    assert y[0] == pytest.approx(1.0 / 1.1**2, rel=1e-12)


def test_newton_options_accept_numpy_integer_max_iter():
    system = linear_system(-1.0)
    opts = NewtonOptions(max_iter=np.int64(3))
    assert implicit_euler_step(system, np.array([1.0]), 0.1, opts)[0] == pytest.approx(1 / 1.1)


# Each generated kernel is built on first use, so importing the package
# must leave the kernel cache empty: otherwise a benchmark's setup time would
# include kernel generation.  One kernel per stepper kind and dimension is
# built, and later intervals reuse it.
def test_import_builds_no_kernel():
    code = ("import rpnn_parareal.integrators as m; "
            "from rpnn_parareal import FineMethod, make_benchmark; "
            "from rpnn_parareal.problems import default_initial_state; "
            "size = lambda: print(m._kernel.cache_info().currsize); size(); "
            "s, x = make_benchmark('sir'), default_initial_state('sir'); "
            "run = lambda: [m.fine_propagate(s, x, 0.1, FineMethod(k, 1e-2)) "
            "for k in ('rk4', 'implicit-euler')]; "
            "run(); size(); run(); size()")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", "import rpnn_parareal; " + code],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "2", "2"]
