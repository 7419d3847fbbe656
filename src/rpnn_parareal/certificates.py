"""Computable a-posteriori error certificates for the trained coarse map.

Two ingredients are combined: the measured defect of the network at the
collocation nodes (rigorous, given a log-norm bound on the field Jacobian),
and a quadrature-remainder term estimated from finite differences of the
defect (heuristic: the p-th derivative is sampled, not bounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collocation import CollocationGrid
from .integrators import SolverError
from .problems import OdeSystem
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
    basis: RpnnBasis, theta: np.ndarray, x0: np.ndarray, system: OdeSystem, t: float
) -> np.ndarray:
    """Residual of the network inserted into the ODE: N'(t) - F(N(t))."""
    value = eval_network(basis, theta, x0, t)
    out = eval_network_derivative(basis, theta, t) - system.field(value)
    if not np.all(np.isfinite(out)):
        raise SolverError(f"non-finite defect at t={t}")
    return out


def log_norm_2(a: np.ndarray) -> float:
    """Logarithmic 2-norm: largest eigenvalue of the symmetric part."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def field_log_norm_bound(system: OdeSystem, states: np.ndarray) -> float:
    """Max log-norm of the field Jacobian over the sample states.

    A sample-based under-approximation of the true maximum over the region
    the trajectories visit.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.size == 0:
        raise ValueError("need at least one sample state")
    return max(log_norm_2(system.jacobian(z)) for z in states)


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


def _defect_samples(basis, theta, x0, system, n_samples: int) -> tuple[np.ndarray, float]:
    ts = np.linspace(0.0, basis.dt, n_samples)
    out = np.empty((n_samples, len(x0)))
    for k, t in enumerate(ts):
        out[k] = defect(basis, theta, x0, system, float(t))
    return out, float(ts[1] - ts[0])


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
    partial-interval tail.
    """
    dt = basis.dt
    epsilon = max(
        float(np.linalg.norm(defect(basis, theta, x0, system, float(tc))))
        for tc in grid.nodes
    )
    rho_sum = float(np.sum(np.abs(grid.weights)))
    delta = sensitivity_bound(log_norm, dt)
    eps_term = delta * epsilon * rho_sum

    p = grid.order
    samples, h = _defect_samples(basis, theta, x0, system, _FD_SAMPLES)
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
