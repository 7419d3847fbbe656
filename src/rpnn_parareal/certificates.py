"""Computable a-posteriori error certificates for the trained coarse map.

Two ingredients are combined: the measured defect of the network at the
collocation nodes (rigorous, given a log-norm bound on the field Jacobian),
and a quadrature-remainder term estimated from finite differences of the
defect (heuristic: the p-th derivative is sampled, not bounded).

The defect is evaluated at an array of times in one call, and the log-norm
bound takes the eigenvalues of all its Jacobian samples from one stacked
eigvalsh; both are bitwise the per-time and per-matrix computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collocation import CollocationGrid
from .integrators import SolverError
from .problems import OdeSystem, evaluate_rows
from .rpnn import RpnnBasis, eval_network, eval_network_derivative

# Number of uniform sample points used for the finite-difference estimate of
# the defect's p-th derivative (stencil step is dt / (samples - 1)).
_FD_SAMPLES = 201


@dataclass(frozen=True)
class Certificate:
    """Per-interval error certificate.

    `eps_term` is rigorous given the log-norm bound; `quad_term` is an
    estimate (its derivative factor is sampled by finite differences), so
    `total` is a near-certain but not guaranteed bound.
    """

    epsilon: float
    delta: float
    log_norm: float
    rho_sum: float
    eps_term: float
    quad_term: float
    total: float


def defect(
    basis: RpnnBasis, theta: np.ndarray, x0: np.ndarray, system: OdeSystem, t
) -> np.ndarray:
    """Residual of the network inserted into the ODE: N'(t) - F(N(t)).

    For an array of times the residuals are stacked rowwise, each row bitwise
    the residual at that time alone.
    """
    value = eval_network(basis, theta, x0, t)
    field = evaluate_rows(system.field, value.reshape(-1, len(x0))).reshape(value.shape)
    out = eval_network_derivative(basis, theta, t) - field
    finite = np.all(np.isfinite(out), axis=-1)
    if not np.all(finite):
        first_bad = np.asarray(t, dtype=float)[~finite].flat[0]
        raise SolverError(f"non-finite defect at t={first_bad}")
    return out


def _largest_symmetric_eigenvalue(a: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the symmetric part of each matrix in `a` (... x d x d).

    np.linalg.eigvalsh runs LAPACK once per matrix of a stack, so each value
    is bitwise the one from that matrix alone.
    """
    sym = a + np.swapaxes(a, -1, -2)
    sym *= 0.5  # in place: one less stack-sized temporary
    return np.linalg.eigvalsh(sym)[..., -1]


def log_norm_2(a: np.ndarray) -> float:
    """Logarithmic 2-norm: largest eigenvalue of the symmetric part."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return float(_largest_symmetric_eigenvalue(a))


def field_log_norm_bound(system: OdeSystem, states: np.ndarray) -> float:
    """Max log-norm of the field Jacobian over the sample states.

    A sample-based under-approximation of the true maximum over the region
    the trajectories visit.  A non-finite Jacobian sample raises SolverError:
    eigvalsh returns finite eigenvalues for some matrices holding nan.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.size == 0:
        raise ValueError("need at least one sample state")
    jacobians = evaluate_rows(system.jacobian, states)
    finite = np.all(np.isfinite(jacobians), axis=(1, 2))
    if not np.all(finite):
        raise SolverError(f"non-finite field Jacobian at sample state "
                          f"{states[~finite][0].tolist()}")
    return float(np.max(_largest_symmetric_eigenvalue(jacobians)))


def sensitivity_bound(log_norm: float, dt: float) -> float:
    """Bound exp(M dt) on the flow-map Jacobian norm over one interval.

    Past the float range this is the vacuous bound inf.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    try:
        return math.exp(log_norm * dt)
    except OverflowError:
        return math.inf


def quadrature_certificate(
    basis: RpnnBasis,
    theta: np.ndarray,
    x0: np.ndarray,
    system: OdeSystem,
    grid: CollocationGrid,
    log_norm: float,
) -> Certificate:
    """Assemble the quadrature-based certificate for one trained interval.

    epsilon is the max defect norm at the collocation nodes; the remainder
    factor max ||d^(p)(t)|| is estimated by p-th order differences of the
    defect on a 201-point table (the end stencils lean one-sided), and scaled
    by (1 + sum|rho|/dt) / p! to cover both the quadrature remainder and the
    partial-interval tail.  Each of the two defect tables is one batched
    `defect` call, bitwise the per-time evaluation.

    The difference estimate is at the mercy of round-off: a p-th difference
    at h = dt/200 (the fifth on the five-node uniform grid) multiplies the
    table's last-bit errors by about (2/h)^p.  Evaluating the table by one
    matrix product instead of one matrix-vector product per time moved
    quad_term by up to 45 % on the reduced rober run (interval 6: 1.24e10 to
    1.80e10), 14 % on the shortened Arenstorf run and 0.13 % on the short
    Burgers run, with every operation correctly rounded either way.
    """
    dt = basis.dt
    # One norm per row: np.linalg.norm(axis=1) sums the squares in another order.
    epsilon = max(
        float(np.linalg.norm(row)) for row in defect(basis, theta, x0, system, grid.nodes)
    )
    rho_sum = float(np.sum(np.abs(grid.weights)))
    delta = sensitivity_bound(log_norm, dt)
    eps_term = delta * epsilon * rho_sum

    p = grid.order
    ts = np.linspace(0.0, dt, _FD_SAMPLES)
    samples = defect(basis, theta, x0, system, ts)
    h = float(ts[1] - ts[0])
    dp_table = np.diff(samples, n=p, axis=0) / h**p
    max_dp = float(np.max(np.linalg.norm(dp_table, axis=1)))
    kappa_bar = (1.0 + rho_sum / dt) * max_dp / math.factorial(p)
    # delta may be close to the float maximum on a strongly expanding flow,
    # so it multiplies last, after the small dt power has shrunk kappa_bar.
    quad_term = delta * (kappa_bar * dt ** (p + 1))
    return Certificate(
        epsilon=epsilon,
        delta=delta,
        log_norm=log_norm,
        rho_sum=rho_sum,
        eps_term=eps_term,
        quad_term=quad_term,
        total=eps_term + quad_term,
    )
