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
the first non-finite one.  Its results are bitwise those of the array
expressions of the scheme.  Implicit Euler runs in a loop generated the
same way (`_implicit_euler_kernel`): the residual, the Newton matrix, a
Gaussian elimination with partial pivoting and the update are written out
on local floats, and no numpy call remains.  LAPACK no longer solves the
float path's Newton systems, so the elimination may round them otherwise;
tests pin that the steps agree bitwise with the array path, which a
system without float forms keeps, but nothing guarantees it.  On a 2-vCPU
Intel Xeon host an implicit Euler step of ROBER (h = 1e-3) inside an
interval takes about 3.5 us, against 19 us when each Newton iteration
called `np.linalg.solve`.
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


def check_count(name: str, value) -> None:
    """Reject an iteration cap that is not an integer (a bool included) or
    is below 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"newton tol must be positive and finite, got {self.tol!r}")
        check_count("newton max_iter", self.max_iter)


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

    Each Newton iteration solves with the exact matrix I - h*DF(y): by
    Gaussian elimination with partial pivoting on Python floats when the
    field and the Jacobian carry float forms, by `np.linalg.solve`
    otherwise.  It terminates when ||y - x - h F(y)|| <= tol * (1 + ||x||),
    and raises NewtonNonconvergence, on a stall, a non-finite iterate or a
    singular matrix, rather than silently accepting a stale iterate.  This
    is the one-step case of the loop `fine_propagate` runs.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    return _implicit_euler_steps(system, x, h, 1, newton or NewtonOptions())


def _implicit_euler_steps(
    system: OdeSystem, x: np.ndarray, h: float, steps: int, newton: NewtonOptions
) -> np.ndarray:
    """`steps` implicit Euler steps of size h from x (see `implicit_euler_step`).

    When the field and the Jacobian both carry float forms (`OdeSystem`),
    the steps run in `_implicit_euler_kernel(len(x))` on Python floats, with
    no numpy call.  Any other system keeps arrays and solves each Newton
    system with `np.linalg.solve`.  The residual and the update are the
    array expressions written elementwise in the same order, and both paths
    take their norms as `math.hypot`, which, unlike the root of a sum of
    squares, does not overflow above about 1.3e154.  Only the solves differ:
    the kernel's elimination need not round as LAPACK does, so the paths'
    agreement is pinned by tests, not guaranteed by construction.
    """
    tol, max_iter = newton.tol, newton.max_iter
    f = getattr(system.field, "floats", None)
    df = getattr(system.jacobian, "floats", None)
    if f is not None and df is not None:
        kernel = _implicit_euler_kernel(len(x))
        return np.array(kernel(f, df, x.tolist(), h, steps, tol, max_iter))
    field, jacobian, eye = system.field, system.jacobian, np.eye(system.dim)
    y = x
    for _ in range(steps):
        x, threshold = y, tol * (1.0 + math.hypot(*y.tolist()))
        g = y - x - h * field(y)
        g_norm = math.hypot(*g.tolist())
        for _ in range(max_iter):
            if g_norm <= threshold:
                break
            y = y - _newton_solve(eye - h * jacobian(y), g, g_norm)
            if not np.all(np.isfinite(y)):
                raise _nonfinite_iterate(g_norm)
            g = y - x - h * field(y)
            g_norm = math.hypot(*g.tolist())
        else:
            if not g_norm <= threshold:
                raise _stalled(g_norm, threshold, max_iter)
    return y


def _newton_solve(matrix: np.ndarray, g, g_norm: float) -> np.ndarray:
    try:
        return np.linalg.solve(matrix, g)
    except np.linalg.LinAlgError as exc:
        raise _singular(g_norm) from exc


def _singular(g_norm: float) -> NewtonNonconvergence:
    return NewtonNonconvergence(f"singular Newton matrix at residual {g_norm:.3e}", g_norm)


def _nonfinite_iterate(g_norm: float) -> NewtonNonconvergence:
    return NewtonNonconvergence("Newton iterate became non-finite", g_norm)


def _stalled(g_norm: float, threshold: float, max_iter: int) -> NewtonNonconvergence:
    return NewtonNonconvergence(
        f"implicit Euler Newton stalled at residual {g_norm:.3e} "
        f"(tol {threshold:.3e}, {max_iter} iterations)",
        g_norm,
    )


# Implicit Euler steps written out for d components: y{i} is the iterate,
# x{i} the step's start, f{i} the field and g{i} the residual, which the
# solve overwrites with the Newton correction; a{i}_{k} is the Newton matrix
# I - h*DF(y).  As in the RK4 template, a trailing comma keeps a
# one-component target a tuple.
_IMPLICIT_EULER_TEMPLATE = """\
def implicit_euler_kernel(f, df, y, h, steps, tol, max_iter):
    {y}, = y
    for _ in range(steps):
        {x}, = {y},
        threshold = tol * (1.0 + hypot({y}))
        {f}, = f([{y}])
        {residual}
        g_norm = hypot({g})
        for _ in range(max_iter):
            if g_norm <= threshold:
                break
            {rows}, = df([{y}])
            {matrix}
            {solve}
            {update}
            if not ({finite}):
                raise _nonfinite_iterate(g_norm)
            {f}, = f([{y}])
            {newton_residual}
            g_norm = hypot({g})
        else:
            if not g_norm <= threshold:
                raise _stalled(g_norm, threshold, max_iter)
    return [{y}]
"""


def _gaussian_elimination(d: int) -> list[str]:
    """Lines that solve a x = g in place of g{i}, with partial pivoting.

    At column j the pivot is the first row of largest `abs` among rows
    j..d-1 (LAPACK's choice); it is swapped into row j, and a pivot of
    exactly 0.0 raises the array path's singular-matrix failure.
    Back-substitution subtracts the known components from the last one
    back, as a column-oriented triangular solve does.
    """
    lines = []
    for j in range(d):
        if j < d - 1:
            lines.append(f"r, p = {j}, abs(a{j}_{j})")
            for i in range(j + 1, d):
                lines.append(f"if abs(a{i}_{j}) > p: r, p = {i}, abs(a{i}_{j})")
            for n, i in enumerate(range(j + 1, d)):
                row_j = ", ".join([f"a{j}_{k}" for k in range(j, d)] + [f"g{j}"])
                row_i = ", ".join([f"a{i}_{k}" for k in range(j, d)] + [f"g{i}"])
                lines.append(f"{'el' if n else ''}if r == {i}: "
                             f"{row_j}, {row_i} = {row_i}, {row_j}")
        lines.append(f"if a{j}_{j} == 0.0: raise _singular(g_norm)")
        for i in range(j + 1, d):
            lines.append(f"m = a{i}_{j} / a{j}_{j}")
            lines += [f"a{i}_{k} = a{i}_{k} - m * a{j}_{k}" for k in range(j + 1, d)]
            lines.append(f"g{i} = g{i} - m * g{j}")
    for i in reversed(range(d)):
        known = "".join(f" - a{i}_{k} * g{k}" for k in reversed(range(i + 1, d)))
        lines.append(f"g{i} = (g{i}{known}) / a{i}_{i}" if known else f"g{i} = g{i} / a{i}_{i}")
    return lines


@functools.cache
def _implicit_euler_kernel(d: int):
    """The implicit Euler loop for states of d components, generated on
    first use.

    `implicit_euler_kernel(f, df, y, h, steps, tol, max_iter)` runs `steps`
    steps from the list y with the float forms of the field (list in, list
    out) and of the Jacobian (a list of rows) and returns the state as a
    list.  A traceback from inside a step names the source
    `<implicit euler kernel d=...>`.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(d))

    def block(lines, indent=12):
        return ("\n" + " " * indent).join(lines)

    residual = [f"g{i} = y{i} - x{i} - h * f{i}" for i in range(d)]
    source = _IMPLICIT_EULER_TEMPLATE.format(
        y=names("y"), x=names("x"), f=names("f"), g=names("g"),
        residual=block(residual, 8), newton_residual=block(residual),
        rows=", ".join("(" + ", ".join(f"a{i}_{k}" for k in range(d)) + ",)"
                       for i in range(d)),
        matrix=block(f"a{i}_{k} = {'1.0' if i == k else '0.0'} - h * a{i}_{k}"
                     for i in range(d) for k in range(d)),
        solve=block(_gaussian_elimination(d)),
        update=block(f"y{i} = y{i} - g{i}" for i in range(d)),
        finite=" and ".join(f"isfinite(y{i})" for i in range(d)),
    )
    namespace = {"hypot": math.hypot, "isfinite": math.isfinite, "_singular": _singular,
                 "_nonfinite_iterate": _nonfinite_iterate, "_stalled": _stalled}
    exec(compile(source, f"<implicit euler kernel d={d}>", "exec"), namespace)
    return namespace["implicit_euler_kernel"]


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
