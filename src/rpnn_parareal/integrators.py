"""Classical one-step fine integrators and their composition over subintervals.

Two steppers are provided: the classical explicit RK4 scheme and implicit
Euler solved by a plain Newton iteration with the exact Jacobian.  Both are
pure functions of their inputs, so propagation over distinct subintervals is
independent; the Parareal fine sweep nevertheless runs the subintervals one
after another in the calling thread.

A fine step of a small system costs a few microseconds of Python overhead
and little field work, so RK4 runs all the steps of an interval as one loop
on Python floats: the field is called through its float form when it has
one (`OdeSystem` explains), and finiteness is checked once per step, on
the update; only a failed step looks through its four stages for the first
non-finite one.  The results are bitwise those of the array expressions of
the scheme.
"""

from __future__ import annotations

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

    The one-step case of the loop `fine_propagate` runs: the stages are
    computed on Python floats and finiteness is checked once, on the update
    (with h > 0 a non-finite stage makes the update non-finite too).  The
    StepFailure of a failed step names its first non-finite stage (1-4), or
    stage 5 when only the update overflowed.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    return _rk4_steps(system.field, x, h, 1)


def _rk4_steps(field, x: np.ndarray, h: float, steps: int) -> np.ndarray:
    """`steps` RK4 steps of size h from x, on Python floats.

    Each stage is the array expression written elementwise in the same
    order; `+ - * /` on Python floats round as numpy's elementwise
    operations do, so the result is bitwise the array scheme's.  The field
    runs on floats through its `floats` form when it has one, otherwise
    through an adapter that calls it on an array.
    """
    f = getattr(field, "floats", None)
    if f is None:
        def f(y):
            return field(np.array(y)).tolist()
    hh, h6 = 0.5 * h, h / 6.0
    y = x.tolist()
    for _ in range(steps):
        k1 = f(y)
        k2 = f([a + hh * b for a, b in zip(y, k1)])
        k3 = f([a + hh * b for a, b in zip(y, k2)])
        k4 = f([a + h * b for a, b in zip(y, k3)])
        out = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
               for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, out)):
            for stage, k in enumerate((k1, k2, k3, k4), 1):
                if not all(map(math.isfinite, k)):
                    raise StepFailure("non-finite RK4 stage", stage=stage)
            raise StepFailure("non-finite RK4 update", stage=5)
        y = out
    return np.array(y)


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
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    opts = newton or NewtonOptions()
    eye = np.eye(system.dim)
    threshold = opts.tol * (1.0 + math.sqrt(x.dot(x)))
    y = x
    residual = y - x - h * system.field(y)
    res_norm = math.sqrt(residual.dot(residual))
    for _ in range(opts.max_iter):
        if res_norm <= threshold:
            return y
        jac = eye - h * system.jacobian(y)
        try:
            delta = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError as exc:
            raise NewtonNonconvergence(
                f"singular Newton matrix at residual {res_norm:.3e}", res_norm
            ) from exc
        y = y - delta
        if not np.all(np.isfinite(y)):
            raise NewtonNonconvergence("Newton iterate became non-finite", res_norm)
        residual = y - x - h * system.field(y)
        res_norm = math.sqrt(residual.dot(residual))
    if res_norm <= threshold:
        return y
    raise NewtonNonconvergence(
        f"implicit Euler Newton stalled at residual {res_norm:.3e} "
        f"(tol {threshold:.3e}, {opts.max_iter} iterations)",
        res_norm,
    )


def step_count(length: float, dt: float) -> int:
    """Number of fine steps covering `length`, validating divisibility."""
    ratio = length / dt
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
    for _ in range(steps):
        y = implicit_euler_step(system, y, method.dt, method.newton)
    return y


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
