"""Classical one-step fine integrators and their composition over subintervals.

Two steppers are provided: the classical explicit RK4 scheme and implicit
Euler solved by a plain Newton iteration with the exact Jacobian.  Both are
pure functions of their inputs, so propagation over distinct subintervals is
independent; the Parareal fine sweep nevertheless runs the subintervals one
after another in the calling thread.

A fine step of a small system costs a few microseconds of Python overhead
and little field work, so each stepper runs all the steps of an interval as
one loop on Python floats, calling the field and the Jacobian through their
float forms (`OdeSystem` explains) on positional floats, with no wrapper
between; where Python floats raise, `_fine_steps` runs the interval again
with forms retried on numpy scalars.  One generator (`_kernel`) writes that
loop once per stepper kind and state dimension, from one loop template and
the kind's step body written out component by component on local floats.
The RK4 body checks finiteness once per step, on the update; only a failed
step looks through its four stages for the first non-finite one.  Its
results are bitwise those of the array expressions of the scheme.  The
implicit Euler body writes out the residual, the Newton matrix, a Gaussian
elimination with partial pivoting and the update, and no numpy call
remains; it evaluates F once at the interval's start and once per Newton
iterate, so each step starts from the F(y) of the previous step's last
residual.  LAPACK does not solve the float path's Newton systems, so the
elimination may round them otherwise; tests pin that the steps agree
bitwise with the array path, which a system without float forms keeps, but
nothing guarantees it.  On a 2-vCPU Intel Xeon host an implicit Euler step
of ROBER (h = 1e-3) inside an interval takes about 2.4 us, against 3.2 us
when every step evaluated F afresh through list forms behind a per-call
wrapper, and an RK4 step of Arenstorf 2.5 us, against 2.9 us (README).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .problems import OdeSystem, _retrying

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


def check_count(name: str, value, minimum: int = 1) -> None:
    """Reject a count that is not an integer (a bool included) or is below
    `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name: str, value):
    """`value` if it is a real number; a bool or a string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _check_positive(name: str, value) -> None:
    """Reject a value that is not a real number (a bool included), or is not
    positive and finite."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value > 0 and math.isfinite(value))):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        _check_positive("newton tol", self.tol)
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
        _check_positive("fine step dt", self.dt)
        if not isinstance(self.newton, NewtonOptions):
            raise ValueError(f"newton must be a NewtonOptions, got {self.newton!r}")


def rk4_step(system: OdeSystem, x: np.ndarray, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size h.

    The one-step case of the loop `fine_propagate` runs (`_fine_steps`):
    the stages are computed on Python floats and finiteness is checked
    once, on the update (with h > 0 a non-finite stage makes the update
    non-finite too).  The StepFailure of a failed step names its first
    non-finite stage (1-4), or stage 5 when only the update overflowed.
    """
    return _fine_steps("rk4", system, x, h, 1, None)


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
    return _fine_steps("implicit-euler", system, x, h, 1, newton or NewtonOptions())


def _fine_steps(kind: str, system: OdeSystem, x: np.ndarray, h: float, steps: int,
                newton: NewtonOptions | None) -> np.ndarray:
    """`steps` steps of the `FineMethod` kind `kind` and size h from x.

    The steps run in `_kernel(kind, len(x))` on Python floats, calling the
    float forms of the field and, for implicit Euler, of the Jacobian
    (`OdeSystem`).  RK4 calls a field without one through an adapter on
    arrays.  Implicit Euler on a system without both keeps arrays and
    solves each Newton system with `np.linalg.solve`.  Its residual and
    update are the kernel's expressions in the same order, it evaluates F
    as often (once at x and once per Newton iterate, each step starting
    from the F(y) of the previous step's last residual), and both paths
    take their norms as `math.hypot`, which, unlike the root of a sum of
    squares, does not overflow above about 1.3e154.  Only the solves
    differ: the kernel's elimination need not round as LAPACK does, so the
    paths' agreement is pinned by tests, not guaranteed by construction.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    f = getattr(system.field, "floats", None)
    if kind == "rk4":
        df = tol = max_iter = None
        if f is None:
            field = system.field

            def f(*y):
                return field(np.array(y)).tolist()
    else:
        df = getattr(system.jacobian, "floats", None)
        tol, max_iter = newton.tol, newton.max_iter
    if f is not None and (kind == "rk4" or df is not None):
        kernel, y = _kernel(kind, len(x)), x.tolist()
        try:
            return np.array(kernel(f, df, y, h, steps, tol, max_iter))
        except (ZeroDivisionError, OverflowError):
            # The kernel calls the forms bare.  The run is deterministic, so
            # this one repeats it up to the call that raised, retries that
            # call on numpy scalars and goes on as the array forms would.
            df = None if df is None else _retrying(df)
            return np.array(kernel(_retrying(f), df, y, h, steps, tol, max_iter))
    field, jacobian, eye = system.field, system.jacobian, np.eye(system.dim)
    y = x
    fy = field(y)
    for _ in range(steps):
        x, threshold = y, tol * (1.0 + math.hypot(*y.tolist()))
        g = y - x - h * fy
        g_norm = math.hypot(*g.tolist())
        for _ in range(max_iter):
            if g_norm <= threshold:
                break
            y = y - _newton_solve(eye - h * jacobian(y), g, g_norm)
            if not np.all(np.isfinite(y)):
                raise _nonfinite_iterate(g_norm)
            fy = field(y)
            g = y - x - h * fy
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


# The loop of every kernel: `{preamble}` is a line run once and `{step}`
# one step at the loop body's indentation.  y{i} is the state; `{y}` stands
# for "y0, y1, ...", and the comma after it in an unpacking keeps a
# one-component target a tuple.  f and df are called with the components
# as positional floats and return tuples.
_KERNEL_TEMPLATE = """\
def kernel(f, df, y, h, steps, tol, max_iter):
    {y}, = y
    {preamble}
    for _ in range(steps):
{step}
    return [{y}]
"""

# One RK4 step: k1_{i} to k4_{i} are the four stages.
_RK4_STEP = """\
        {k1}, = f({y})
        {k2}, = f({stage2})
        {k3}, = f({stage3})
        {k4}, = f({stage4})
        {update}
        if not ({finite}):
            raise _rk4_failure([{k1}], [{k2}], [{k3}], [{k4}])"""

# One implicit Euler step: x{i} is the step's start, f{i} the field at y,
# which the preamble evaluates once and each Newton iterate then again, so
# that a step starts from the value of the previous step's last residual;
# g{i} is the residual, which the solve overwrites with the Newton
# correction, and a{i}_{k} the Newton matrix I - h*DF(y).
_IMPLICIT_EULER_STEP = """\
        {x}, = {y},
        threshold = tol * (1.0 + hypot({y}))
        {residual}
        g_norm = hypot({g})
        for _ in range(max_iter):
            if g_norm <= threshold:
                break
            {entries}, = df({y})
            {matrix}
            {solve}
            {update}
            if not ({finite}):
                raise _nonfinite_iterate(g_norm)
            {f}, = f({y})
            {newton_residual}
            g_norm = hypot({g})
        else:
            if not g_norm <= threshold:
                raise _stalled(g_norm, threshold, max_iter)"""


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
def _kernel(kind: str, d: int):
    """The loop of `kind` steps for states of d components, generated on
    first use.

    `kernel(f, df, y, h, steps, tol, max_iter)` runs `steps` steps from the
    list y with the float forms of the field and, for implicit Euler, of
    the Jacobian (`OdeSystem`), and returns the state as a list; RK4
    ignores df, tol and max_iter.  It calls both with no wrapper between:
    `_fine_steps` handles the floats that raise.  Each step is the array
    expression of the scheme written out component by component on local
    floats in the same order, and `+ - * /` on Python floats round as
    numpy's elementwise operations do, so an RK4 result is bitwise the
    array scheme's.  A traceback from inside a step names the source
    `<rk4 kernel d=...>` or `<implicit euler kernel d=...>`.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(d))

    def block(lines, indent=12):
        return ("\n" + " " * indent).join(lines)

    y, finite = names("y"), " and ".join(f"isfinite(y{i})" for i in range(d))
    if kind == "rk4":
        def stage(step, k):
            return ", ".join(f"y{i} + {step} * {k}{i}" for i in range(d))

        preamble = "hh, h6 = 0.5 * h, h / 6.0"
        step = _RK4_STEP.format(
            y=y, k1=names("k1_"), k2=names("k2_"), k3=names("k3_"), k4=names("k4_"),
            stage2=stage("hh", "k1_"), stage3=stage("hh", "k2_"), stage4=stage("h", "k3_"),
            update=block((f"y{i} = y{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
                          for i in range(d)), 8),
            finite=finite,
        )
    else:
        residual = [f"g{i} = y{i} - x{i} - h * f{i}" for i in range(d)]
        preamble = f"{names('f')}, = f({y})"
        step = _IMPLICIT_EULER_STEP.format(
            y=y, x=names("x"), f=names("f"), g=names("g"),
            residual=block(residual, 8), newton_residual=block(residual),
            entries=", ".join(f"a{i}_{k}" for i in range(d) for k in range(d)),
            matrix=block(f"a{i}_{k} = {'1.0' if i == k else '0.0'} - h * a{i}_{k}"
                         for i in range(d) for k in range(d)),
            solve=block(_gaussian_elimination(d)),
            update=block(f"y{i} = y{i} - g{i}" for i in range(d)),
            finite=finite,
        )
    source = _KERNEL_TEMPLATE.format(preamble=preamble, y=y, step=step)
    namespace = {"hypot": math.hypot, "isfinite": math.isfinite, "_rk4_failure": _rk4_failure,
                 "_singular": _singular, "_nonfinite_iterate": _nonfinite_iterate,
                 "_stalled": _stalled}
    exec(compile(source, f"<{kind.replace('-', ' ')} kernel d={d}>", "exec"), namespace)
    return namespace["kernel"]


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
    return _fine_steps(method.kind, system, y, method.dt, steps, method.newton)


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
