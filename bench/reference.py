"""Plain-numpy reference integrators and invariants for the benchmark checks.

Each vector field here is written out again from its equations rather than
taken from the package, so a fault in the package's field, stepper or
composition shows up as a disagreement with these integrators.  The schemes
and steps are the package's own (classical RK4, implicit Euler with a
full Newton solve), so on a correct package the two agree to round-off.
"""

from __future__ import annotations

import numpy as np


def arenstorf(mu: float):
    """Restricted three-body field in the rotating frame, state (x, y, vx, vy)."""
    nu = 1.0 - mu

    def field(s):
        x, y, vx, vy = s
        r1 = np.hypot(x + mu, y)
        r2 = np.hypot(x - nu, y)
        ax = x + 2.0 * vy - nu * (x + mu) / r1**3 - mu * (x - nu) / r2**3
        ay = y - 2.0 * vx - nu * y / r1**3 - mu * y / r2**3
        return np.array([vx, vy, ax, ay])

    return field, None


def jacobi_constant(states: np.ndarray, mu: float) -> np.ndarray:
    """C = x^2 + y^2 + 2 (1 - mu) / r1 + 2 mu / r2 - |v|^2, conserved by the flow."""
    x, y, vx, vy = np.asarray(states, dtype=float).T
    r1 = np.hypot(x + mu, y)
    r2 = np.hypot(x - (1.0 - mu), y)
    return x * x + y * y + 2.0 * (1.0 - mu) / r1 + 2.0 * mu / r2 - vx * vx - vy * vy


def rober(k1: float, k2: float, k3: float):
    """Robertson chemical kinetics and its Jacobian."""

    def field(s):
        a, b, c = s
        return np.array([-k1 * a + k3 * b * c,
                         k1 * a - k2 * b * b - k3 * b * c,
                         k2 * b * b])

    def jacobian(s):
        _, b, c = s
        return np.array([[-k1, k3 * c, k3 * b],
                         [k1, -2.0 * k2 * b - k3 * c, -k3 * b],
                         [0.0, 2.0 * k2 * b, 0.0]])

    return field, jacobian


def burgers(grid_size: int, viscosity: float):
    """Viscous Burgers on [0, 1], centred differences, u = 0 held at both ends."""
    dx = 1.0 / (grid_size - 1)

    def field(u):
        out = np.zeros_like(u)
        left, mid, right = u[:-2], u[1:-1], u[2:]
        out[1:-1] = (-mid * (right - left) / (2.0 * dx)
                     + viscosity * (right - 2.0 * mid + left) / dx**2)
        return out

    def jacobian(u):
        jac = np.zeros((grid_size, grid_size))
        i = np.arange(1, grid_size - 1)
        jac[i, i] = -(u[i + 1] - u[i - 1]) / (2.0 * dx) - 2.0 * viscosity / dx**2
        jac[i, i - 1] = u[i] / (2.0 * dx) + viscosity / dx**2
        jac[i, i + 1] = -u[i] / (2.0 * dx) + viscosity / dx**2
        return jac

    return field, jacobian


def rk4(field, x, h: float, steps: int) -> np.ndarray:
    for _ in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return x


def implicit_euler(field, jacobian, x, h: float, steps: int,
                   tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """Implicit Euler; Newton from y = x until |y - x - h F(y)| <= tol (1 + |x|)."""
    eye = np.eye(len(x))
    for _ in range(steps):
        y = x.copy()
        limit = tol * (1.0 + np.linalg.norm(x))
        for _ in range(max_iter + 1):
            g = y - x - h * field(y)
            if np.linalg.norm(g) <= limit:
                break
            y = y - np.linalg.solve(eye - h * jacobian(y), g)
        else:
            raise ArithmeticError("reference Newton iteration did not converge")
        x = y
    return x


def integrate(scheme: str, field, jacobian, x0, nodes, h: float,
              newton_tol: float = 1e-12) -> np.ndarray:
    """States at every mesh node, stepping each interval with a whole number of steps."""
    out = [np.asarray(x0, dtype=float)]
    for length in np.diff(nodes):
        steps = int(round(length / h))
        if scheme == "rk4":
            out.append(rk4(field, out[-1], h, steps))
        else:
            out.append(implicit_euler(field, jacobian, out[-1], h, steps, newton_tol))
    return np.array(out)


def fields(name: str, params: dict):
    """(field, jacobian) for a package benchmark, from its parameter values.

    The parameter values come from the package's system so that the check
    is of the equations and the stepping, not of a choice of constants.
    """
    if name == "arenstorf":
        return arenstorf(params["a"])
    if name == "rober":
        return rober(params["k1"], params["k2"], params["k3"])
    if name == "burgers":
        return burgers(int(params["grid_size"]), params["nu"])
    raise ValueError(f"no reference field for {name!r}")
