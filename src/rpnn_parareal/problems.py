"""Benchmark ODE systems with analytic Jacobians.

Each system is packaged as an :class:`OdeSystem`: a dimension, a vector field,
its exact Jacobian, and the named parameters it was built with.  Systems are
immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

BENCHMARK_NAMES = ("sir", "rober", "lorenz", "arenstorf", "brusselator", "burgers")

# Initial velocity of the periodic planar three-body orbit, stored at full
# printed precision; the float format does the rounding.
ARENSTORF_V2_0 = -2.00158510637908252240537862224


@dataclass(frozen=True)
class OdeSystem:
    """Autonomous first-order system x' = F(x) with exact Jacobian DF.

    `field` and `jacobian` receive one state as a 1-D float array of length
    `dim`; the package's small closed-form systems unpack it with `tolist()`
    and compute on Python floats, which is faster than numpy scalar
    arithmetic at this size and rounds every operation the same way.
    """

    dim: int
    field: Callable[[Vector], Vector]
    jacobian: Callable[[Vector], Matrix]
    name: str
    params: dict[str, float] = dc_field(default_factory=dict)
    labels: tuple[str, ...] = ()
    # Populated only for semi-discretized PDE systems; carries the stencil
    # matrices that `BurgersJacobianOperator` is built from.  The solver does
    # not read it; only the operator's callers do.
    spatial: "BurgersDiscretization | None" = None
    # Optional batched evaluation of the field on the rows of a matrix of
    # states; only worth wiring up when a single closed form covers it.
    field_rows: "Callable[[Matrix], Matrix] | None" = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"x{i + 1}" for i in range(self.dim))
            )


@dataclass(frozen=True)
class BurgersDiscretization:
    """Centered-difference stencils for the 1-D viscous Burgers field.

    Boundary rows of both stencil matrices are zeroed so the assembled field
    keeps homogeneous Dirichlet values pinned: boundary derivatives are 0.
    """

    grid_size: int
    viscosity: float
    dx: float
    d1: Matrix
    d2: Matrix

    @property
    def grid(self) -> Vector:
        return np.arange(self.grid_size) * self.dx


def _sir(beta: float, gamma: float) -> OdeSystem:
    def fun(x):
        s, i, _ = x.tolist()
        infection = beta * s * i
        recovery = gamma * i
        return np.array([-infection, infection - recovery, recovery])

    def jac(x):
        s, i, _ = x.tolist()
        return np.array(
            [
                [-beta * i, -beta * s, 0.0],
                [beta * i, beta * s - gamma, 0.0],
                [0.0, gamma, 0.0],
            ]
        )

    return OdeSystem(3, fun, jac, "sir", {"beta": beta, "gamma": gamma})


def _rober(k1: float, k2: float, k3: float) -> OdeSystem:
    def fun(x):
        y1, y2, y3 = x.tolist()
        r1 = k1 * y1
        r2 = k2 * y2 * y2
        r3 = k3 * y2 * y3
        return np.array([-r1 + r3, r1 - r2 - r3, r2])

    def jac(x):
        _, y2, y3 = x.tolist()
        return np.array(
            [
                [-k1, k3 * y3, k3 * y2],
                [k1, -2.0 * k2 * y2 - k3 * y3, -k3 * y2],
                [0.0, 2.0 * k2 * y2, 0.0],
            ]
        )

    return OdeSystem(3, fun, jac, "rober", {"k1": k1, "k2": k2, "k3": k3})


def _lorenz(sigma: float, r: float, b: float) -> OdeSystem:
    def fun(x):
        x1, x2, x3 = x.tolist()
        return np.array(
            [
                sigma * (x2 - x1),
                -x1 * x3 + r * x1 - x2,
                x1 * x2 - b * x3,
            ]
        )

    def jac(x):
        x1, x2, x3 = x.tolist()
        return np.array(
            [
                [-sigma, sigma, 0.0],
                [r - x3, -1.0, -x1],
                [x2, x1, -b],
            ]
        )

    return OdeSystem(3, fun, jac, "lorenz", {"sigma": sigma, "r": r, "b": b})


def _on_floats(terms: Callable[..., list]) -> Callable[[Vector], np.ndarray]:
    """`terms(*x)` as an array, evaluated on Python floats.

    Python floats raise where numpy returns inf or nan (a division by zero,
    an overflowing power); there `terms` runs again on numpy scalars, so the
    non-finite value reaches the caller's finiteness check.  Both evaluations
    round every operation the same way, so the values are bitwise equal.
    """

    def evaluate(x):
        try:
            return np.array(terms(*x.tolist()))
        except (ZeroDivisionError, OverflowError):
            return np.array(terms(*x))

    return evaluate


def _arenstorf(a: float) -> OdeSystem:
    # First-order form in (x1, x2, v1, v2); restricted three-body equations
    # with mass ratio a and b = 1 - a.
    b = 1.0 - a

    def field_terms(x1, x2, v1, v2):
        r1sq = (x1 + a) ** 2 + x2**2
        r2sq = (x1 - b) ** 2 + x2**2
        d1 = r1sq**1.5
        d2 = r2sq**1.5
        return [
            v1,
            v2,
            x1 + 2.0 * v2 - b * (x1 + a) / d1 - a * (x1 - b) / d2,
            x2 - 2.0 * v1 - b * x2 / d1 - a * x2 / d2,
        ]

    def jac_terms(x1, x2, v1, v2):
        p = x1 + a
        q = x1 - b
        r1sq = p * p + x2 * x2
        r2sq = q * q + x2 * x2
        inv_d1 = r1sq**-1.5
        inv_d2 = r2sq**-1.5
        inv_d1_5 = r1sq**-2.5
        inv_d2_5 = r2sq**-2.5
        da_dx1 = 1.0 - b * (inv_d1 - 3.0 * p * p * inv_d1_5) - a * (
            inv_d2 - 3.0 * q * q * inv_d2_5
        )
        da_dx2 = 3.0 * b * p * x2 * inv_d1_5 + 3.0 * a * q * x2 * inv_d2_5
        db_dx1 = 3.0 * b * x2 * p * inv_d1_5 + 3.0 * a * x2 * q * inv_d2_5
        db_dx2 = 1.0 - b * (inv_d1 - 3.0 * x2 * x2 * inv_d1_5) - a * (
            inv_d2 - 3.0 * x2 * x2 * inv_d2_5
        )
        return [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [da_dx1, da_dx2, 0.0, 2.0],
            [db_dx1, db_dx2, -2.0, 0.0],
        ]

    return OdeSystem(
        4,
        _on_floats(field_terms),
        _on_floats(jac_terms),
        "arenstorf",
        {"a": a, "b": b},
        labels=("x1", "x2", "v1", "v2"),
    )


def _brusselator(a: float, b: float) -> OdeSystem:
    def fun(x):
        x1, x2 = x.tolist()
        x1sq_x2 = x1 * x1 * x2
        return np.array([a + x1sq_x2 - (b + 1.0) * x1, b * x1 - x1sq_x2])

    def jac(x):
        x1, x2 = x.tolist()
        return np.array(
            [
                [2.0 * x1 * x2 - (b + 1.0), x1 * x1],
                [b - 2.0 * x1 * x2, -x1 * x1],
            ]
        )

    return OdeSystem(2, fun, jac, "brusselator", {"A": a, "B": b})


def burgers_semidiscretize(
    grid_size: int = 51, nu: float = 1.0 / 50.0
) -> tuple[OdeSystem, BurgersDiscretization]:
    """Centered-difference semi-discretization of viscous Burgers on [0, 1].

    Field: u' = -u * (D1 u) + nu * D2 u, with homogeneous Dirichlet boundary
    conditions imposed by zeroing the boundary rows of D1 and D2.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError(f"viscosity must be nonnegative and finite, got {nu}")
    n = grid_size
    dx = 1.0 / (n - 1)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    for i in range(1, n - 1):
        d1[i, i - 1] = -1.0 / (2.0 * dx)
        d1[i, i + 1] = 1.0 / (2.0 * dx)
        d2[i, i - 1] = 1.0 / dx**2
        d2[i, i] = -2.0 / dx**2
        d2[i, i + 1] = 1.0 / dx**2
    disc = BurgersDiscretization(n, nu, dx, d1, d2)

    def fun(u):
        return -u * (d1 @ u) + nu * (d2 @ u)

    def jac(u):
        return -np.diag(d1 @ u) - np.diag(u) @ d1 + nu * d2

    def fun_rows(states):
        return -states * (states @ d1.T) + nu * (states @ d2.T)

    system = OdeSystem(
        n,
        fun,
        jac,
        "burgers",
        {"nu": nu, "grid_size": float(n)},
        labels=tuple(f"u{i}" for i in range(n)),
        spatial=disc,
        field_rows=fun_rows,
    )
    return system, disc


_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "sir": {"beta": 0.1, "gamma": 0.1},
    "rober": {"k1": 0.04, "k2": 3e7, "k3": 1e4},
    "lorenz": {"sigma": 10.0, "r": 28.0, "b": 8.0 / 3.0},
    "arenstorf": {"a": 0.12277471},
    "brusselator": {"A": 1.0, "B": 3.0},
    "burgers": {"nu": 1.0 / 50.0, "grid_size": 51},
}


def make_benchmark(name: str, overrides: dict[str, float] | None = None) -> OdeSystem:
    """Build one of the six benchmark systems with its default parameters.

    `overrides` may replace any named parameter of the chosen system; unknown
    keys and non-finite values are rejected.
    """
    if name not in BENCHMARK_NAMES:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    params = dict(_DEFAULT_PARAMS[name])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"{name} has no parameter {key!r}; valid: {sorted(params)}")
        if not np.isfinite(value):
            raise ValueError(f"override {key}={value!r} is not finite")
        params[key] = value
    if name == "sir":
        return _sir(params["beta"], params["gamma"])
    if name == "rober":
        return _rober(params["k1"], params["k2"], params["k3"])
    if name == "lorenz":
        return _lorenz(params["sigma"], params["r"], params["b"])
    if name == "arenstorf":
        return _arenstorf(params["a"])
    if name == "brusselator":
        return _brusselator(params["A"], params["B"])
    system, _ = burgers_semidiscretize(int(params["grid_size"]), params["nu"])
    return system


def default_initial_state(name: str, params: dict[str, Any] | None = None) -> Vector:
    """Benchmark initial conditions as used throughout the experiment suite."""
    if name == "sir":
        return np.array([0.3, 0.5, 0.2])
    if name == "rober":
        return np.array([1.0, 0.0, 0.0])
    if name == "lorenz":
        return np.array([20.0, 5.0, -5.0])
    if name == "arenstorf":
        return np.array([0.994, 0.0, 0.0, ARENSTORF_V2_0])
    if name == "brusselator":
        return np.array([0.0, 1.0])
    if name == "burgers":
        n = int((params or {}).get("grid_size", 51))
        ic = (params or {}).get("initial_condition", "sine")
        x = np.arange(n) / (n - 1)
        return burgers_initial_condition(ic, x)
    raise ValueError(f"unknown benchmark {name!r}")


def burgers_initial_condition(kind: str, x: Vector) -> Vector:
    """Named initial profiles for the Burgers runs; all vanish at x=0 and x=1."""
    if kind == "sine":
        u = np.sin(2.0 * np.pi * x)
    elif kind == "quadratic":
        u = x * (1.0 - x)
    elif kind == "multiwave":
        u = np.sin(2.0 * np.pi * x) + np.cos(4.0 * np.pi * x) - np.cos(8.0 * np.pi * x)
    else:
        raise ValueError(f"unknown Burgers initial condition {kind!r}")
    u[0] = 0.0
    u[-1] = 0.0
    return u
