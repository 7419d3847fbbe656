"""Benchmark ODE systems with analytic Jacobians.

Each system is packaged as an :class:`OdeSystem`: a dimension, a vector field,
its exact Jacobian, and the named parameters it was built with.  Systems are
immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import chain, starmap
from typing import Any, Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

# Initial velocity of the periodic planar three-body orbit, stored at full
# printed precision; the float format does the rounding.
ARENSTORF_V2_0 = -2.00158510637908252240537862224


@dataclass(frozen=True)
class OdeSystem:
    """Autonomous first-order system x' = F(x) with exact Jacobian DF.

    `field` and `jacobian` receive one state as a 1-D float array of length
    `dim`.  The package's small closed-form systems write their field and
    Jacobian once on Python floats (see `_on_floats`), which is faster than
    numpy at this size and rounds every operation the same way.  Their
    `field` and `jacobian` carry that float form as `.floats`, called with
    the state's components as positional floats, `floats(x1, x2, ...)`; it
    returns a tuple of the d components, or for the Jacobian of its d * d
    entries row by row.  RK4 calls the field's, and runs any other field
    through an array adapter; implicit Euler runs on floats when both have
    one, and on arrays otherwise.  The float form rides on the callable, so
    a copy whose `field` or `jacobian` is replaced loses it.  Training reads
    the field on the rows of a C x d matrix of states through `field_rows`;
    left out, it is `evaluate_rows` on `field`, and it stays so in a copy
    whose `field` is replaced.  `evaluate_rows` calls the float form when
    there is one, so training and the certificates evaluate these systems'
    rows on Python floats too.
    """

    dim: int
    field: Callable[[Vector], Vector]
    jacobian: Callable[[Vector], Matrix]
    name: str
    params: dict[str, float] = dc_field(default_factory=dict)
    labels: tuple[str, ...] = ()
    # The Burgers system's `BurgersDiscretization`, which owns its callables.
    # Nothing in the package reads it; the benchmark script `bench/run.py`
    # builds `BurgersJacobianOperator` from it.
    spatial: "BurgersDiscretization | None" = None
    # Burgers passes its field, which takes a stack; left out, it is `evaluate_rows` on `field`.
    field_rows: "Callable[[Matrix], Matrix] | None" = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        # The default row form follows `field`, also in a `dataclasses.replace` copy.
        if self.field_rows is None or getattr(self.field_rows, "func", None) is evaluate_rows:
            object.__setattr__(self, "field_rows", partial(evaluate_rows, self.field))
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"x{i + 1}" for i in range(self.dim))
            )


@dataclass(frozen=True)
class BurgersDiscretization:
    """Centered-difference stencils for the 1-D viscous Burgers field.

    Boundary rows of both stencil matrices are zeroed so the assembled field
    keeps homogeneous Dirichlet values pinned: boundary derivatives are 0.
    Its methods are the Burgers system's Jacobian and field, also its row field.
    The Jacobian -diag(D1 u) - u D1 + nu D2 is formed in one buffer from
    nu D2, taken once on construction, with the operations and roundings of
    that expression, signs of zeros included.
    """

    viscosity: float
    d1: Matrix
    d2: Matrix
    _viscous_d2: Matrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_viscous_d2", self.viscosity * self.d2)

    def field(self, u: Vector) -> Vector:
        return -u * (u @ self.d1.T) + self.viscosity * (u @ self.d2.T)

    def jacobian(self, u: Vector) -> Matrix:
        # Entry by entry the operations of the expression: off the diagonal
        # -diag(D1 u) is -0.0, on it -(D1 u)_i, minus u_i D1_ij either way.
        jac = np.multiply(u[:, np.newaxis], self.d1)
        np.subtract(-0.0, jac, out=jac)
        np.subtract(-(self.d1 @ u), u * self.d1.diagonal(), out=jac.reshape(-1)[:: len(u) + 1])
        return np.add(jac, self._viscous_d2, out=jac)


def evaluate_rows(fn: Callable[[Vector], np.ndarray], states: Matrix) -> np.ndarray:
    """`fn` at each row of `states`, stacked (C x d x d for a Jacobian).

    A `fn` with a float form (`_on_floats`) is called through it on the rows
    of `states.tolist()`: the same Python floats that `fn` would pass it, so
    the result is bitwise that of the per-row array calls.  Its values are
    read into one flat list, row after row, and the array built from it is
    reshaped, which numpy does faster than reading nested lists; `square`
    marks a Jacobian's d * d entries.  Where Python floats raise, the whole
    batch runs again with each row retried on numpy scalars (`_retrying`).
    """
    floats = getattr(fn, "floats", None)
    if floats is None:
        return np.array([fn(row) for row in states])
    rows = states.tolist()
    try:
        flat = list(chain.from_iterable(starmap(floats, rows)))
    except (ZeroDivisionError, OverflowError):
        flat = list(chain.from_iterable(starmap(_retrying(floats), rows)))
    shape = states.shape + states.shape[1:] if getattr(fn, "square", False) else states.shape
    return np.array(flat).reshape(shape)


def _retrying(floats: Callable[..., tuple]) -> Callable[..., tuple]:
    """`floats`, run again on numpy scalars where Python floats raise.

    Python floats raise where numpy returns inf or nan (a division by zero,
    an overflowing power); numpy scalars give the non-finite value that the
    caller's finiteness check then sees.  Both round every operation the
    same way, so where both return, the values are bitwise equal.  The
    kernels of `integrators` and `evaluate_rows` call the float form bare and
    take this one only to redo an interval, or a batch of rows, that raised.
    """

    def retrying(*values):
        try:
            return floats(*values)
        except (ZeroDivisionError, OverflowError):
            return floats(*np.array(values))

    return retrying


def _on_floats(terms: Callable[..., tuple], square: bool = False
               ) -> Callable[[Vector], np.ndarray]:
    """`terms(*x)` as an array, evaluated on the Python floats of x.

    `terms` takes the components of a state as positional floats and
    returns a tuple of floats: the d components of a field, or, with
    `square`, the d * d entries of a Jacobian row by row, which the array
    form returns as a d x d matrix.  It rides on the returned callable as
    its `floats` attribute, which the RK4 and implicit Euler kernels of
    `integrators.fine_propagate` call without building arrays; `square`
    rides along for `evaluate_rows`.  The array form retries on numpy
    scalars where Python floats raise (`_retrying`).
    """
    retrying = _retrying(terms)

    def evaluate(x):
        values = np.array(retrying(*x.tolist()))
        return values.reshape(len(x), len(x)) if square else values

    evaluate.floats, evaluate.square = terms, square
    return evaluate


def _sir(beta: float, gamma: float) -> OdeSystem:
    def field_terms(s, i, _):
        infection = beta * s * i
        recovery = gamma * i
        return -infection, infection - recovery, recovery

    def jac_terms(s, i, _):
        return (
            -beta * i, -beta * s, 0.0,
            beta * i, beta * s - gamma, 0.0,
            0.0, gamma, 0.0,
        )

    return OdeSystem(3, _on_floats(field_terms), _on_floats(jac_terms, square=True), "sir",
                     {"beta": beta, "gamma": gamma})


def _rober(k1: float, k2: float, k3: float) -> OdeSystem:
    def field_terms(y1, y2, y3):
        r1 = k1 * y1
        r2 = k2 * y2 * y2
        r3 = k3 * y2 * y3
        return -r1 + r3, r1 - r2 - r3, r2

    def jac_terms(_, y2, y3):
        return (
            -k1, k3 * y3, k3 * y2,
            k1, -2.0 * k2 * y2 - k3 * y3, -k3 * y2,
            0.0, 2.0 * k2 * y2, 0.0,
        )

    return OdeSystem(3, _on_floats(field_terms), _on_floats(jac_terms, square=True), "rober",
                     {"k1": k1, "k2": k2, "k3": k3})


def _lorenz(sigma: float, r: float, b: float) -> OdeSystem:
    def field_terms(x1, x2, x3):
        return (
            sigma * (x2 - x1),
            -x1 * x3 + r * x1 - x2,
            x1 * x2 - b * x3,
        )

    def jac_terms(x1, x2, x3):
        return (
            -sigma, sigma, 0.0,
            r - x3, -1.0, -x1,
            x2, x1, -b,
        )

    return OdeSystem(3, _on_floats(field_terms), _on_floats(jac_terms, square=True), "lorenz",
                     {"sigma": sigma, "r": r, "b": b})


def _arenstorf(a: float) -> OdeSystem:
    # First-order form in (x1, x2, v1, v2); restricted three-body equations
    # with mass ratio a and b = 1 - a.
    b = 1.0 - a

    def field_terms(x1, x2, v1, v2):
        r1sq = (x1 + a) ** 2 + x2**2
        r2sq = (x1 - b) ** 2 + x2**2
        d1 = r1sq**1.5
        d2 = r2sq**1.5
        return (
            v1,
            v2,
            x1 + 2.0 * v2 - b * (x1 + a) / d1 - a * (x1 - b) / d2,
            x2 - 2.0 * v1 - b * x2 / d1 - a * x2 / d2,
        )

    def jac_terms(x1, x2, _, __):
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
        return (
            0.0, 0.0, 1.0, 0.0,
            0.0, 0.0, 0.0, 1.0,
            da_dx1, da_dx2, 0.0, 2.0,
            db_dx1, db_dx2, -2.0, 0.0,
        )

    return OdeSystem(
        4,
        _on_floats(field_terms),
        _on_floats(jac_terms, square=True),
        "arenstorf",
        {"a": a, "b": b},
        labels=("x1", "x2", "v1", "v2"),
    )


def _brusselator(A: float, B: float) -> OdeSystem:
    def field_terms(x1, x2):
        x1sq_x2 = x1 * x1 * x2
        return A + x1sq_x2 - (B + 1.0) * x1, B * x1 - x1sq_x2

    def jac_terms(x1, x2):
        return (
            2.0 * x1 * x2 - (B + 1.0), x1 * x1,
            B - 2.0 * x1 * x2, -x1 * x1,
        )

    return OdeSystem(2, _on_floats(field_terms), _on_floats(jac_terms, square=True),
                     "brusselator",
                     {"A": A, "B": B})


def _grid_points(grid_size: float) -> int:
    """The Burgers grid size as an int; a fractional size or one below 3 is an error."""
    if grid_size != int(grid_size) or grid_size < 3:
        raise ValueError(f"grid_size must be an integer >= 3, got {grid_size!r}")
    return int(grid_size)


def burgers_semidiscretize(
    grid_size: int = 51, nu: float = 1.0 / 50.0
) -> tuple[OdeSystem, BurgersDiscretization]:
    """Centered-difference semi-discretization of viscous Burgers on [0, 1].

    Field: u' = -u * (D1 u) + nu * D2 u, with homogeneous Dirichlet boundary
    conditions imposed by zeroing the boundary rows of D1 and D2.
    """
    n = _grid_points(grid_size)
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError(f"viscosity must be nonnegative and finite, got {nu}")
    dx = 1.0 / (n - 1)
    i = np.arange(1, n - 1)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    d1[i, i - 1], d1[i, i + 1] = -1.0 / (2.0 * dx), 1.0 / (2.0 * dx)
    d2[i, i - 1], d2[i, i], d2[i, i + 1] = 1.0 / dx**2, -2.0 / dx**2, 1.0 / dx**2
    disc = BurgersDiscretization(nu, d1, d2)
    system = OdeSystem(
        n,
        disc.field,
        disc.jacobian,
        "burgers",
        {"nu": nu, "grid_size": float(n)},
        labels=tuple(f"u{i}" for i in range(n)),
        spatial=disc,
        field_rows=disc.field,
    )
    return system, disc


def _burgers_initial_state(params: dict[str, Any]) -> Vector:
    n = _grid_points(params["grid_size"])
    x = np.arange(n) / (n - 1)
    return burgers_initial_condition(params.get("initial_condition", "sine"), x)


# Each benchmark: its builder, called with the parameters as keywords; its
# default parameters; and its initial state as a function of the parameters.
_BENCHMARKS: dict[str, tuple[Callable[..., OdeSystem], dict[str, float],
                             Callable[[dict[str, Any]], Vector]]] = {
    "sir": (_sir, {"beta": 0.1, "gamma": 0.1},
            lambda params: np.array([0.3, 0.5, 0.2])),
    "rober": (_rober, {"k1": 0.04, "k2": 3e7, "k3": 1e4},
              lambda params: np.array([1.0, 0.0, 0.0])),
    "lorenz": (_lorenz, {"sigma": 10.0, "r": 28.0, "b": 8.0 / 3.0},
               lambda params: np.array([20.0, 5.0, -5.0])),
    "arenstorf": (_arenstorf, {"a": 0.12277471},
                  lambda params: np.array([0.994, 0.0, 0.0, ARENSTORF_V2_0])),
    "brusselator": (_brusselator, {"A": 1.0, "B": 3.0},
                    lambda params: np.array([0.0, 1.0])),
    "burgers": (lambda nu, grid_size: burgers_semidiscretize(grid_size, nu)[0],
                {"nu": 1.0 / 50.0, "grid_size": 51}, _burgers_initial_state),
}

BENCHMARK_NAMES = tuple(_BENCHMARKS)


def make_benchmark(name: str, overrides: dict[str, float] | None = None) -> OdeSystem:
    """Build one of the six benchmark systems with its default parameters.

    `overrides` may replace any named parameter of the chosen system; unknown
    keys, values that are not real numbers (a bool or a string, say) and
    non-finite values are rejected.
    """
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    build, params, _ = _BENCHMARKS[name]
    params = dict(params)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"{name} has no parameter {key!r}; valid: {sorted(params)}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"override {key}={value!r} is not a real number")
        if not np.isfinite(value):
            raise ValueError(f"override {key}={value!r} is not finite")
        params[key] = value
    return build(**params)


def default_initial_state(name: str, params: dict[str, Any] | None = None) -> Vector:
    """Benchmark initial conditions as used throughout the experiment suite.

    `params` may override the benchmark's parameters; for Burgers it may also
    name the `initial_condition` profile (default "sine").
    """
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}")
    _, defaults, initial_state = _BENCHMARKS[name]
    return initial_state({**defaults, **(params or {})})


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
