"""Random-feature ansatz for one time subinterval.

The coarse propagator approximates the solution on [0, dt] with

    N(t) = x0 + theta^T (sigma(a t + b) - sigma(b)),    sigma = tanh,

where the inner weights (a, b) are sampled once from a uniform distribution
and frozen; only theta is trained.  The construction satisfies N(0) = x0
exactly: sigma(b) is computed once at sampling time and reused, so the
cancellation at t = 0 is bitwise.

The value and its time derivative are evaluated at one time or, in one
call, at an array of times; each row of the array form is bitwise the
evaluation at that time alone, so a batched caller reproduces a per-time
loop exactly.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections.abc import Sized
from dataclasses import dataclass, field as dc_field

import numpy as np

from .collocation import collocation_nodes
from .integrators import SolverError, check_count

logger = logging.getLogger(__name__)

# Inner-weight draws whose node-derivative feature matrix is worse conditioned
# than this are rejected and resampled (at most _MAX_RESAMPLES times) so the
# trainer stays well posed.  Invertibility holds with probability one; good
# conditioning does not.  The limit leaves room for short intervals, where
# cond grows like (1/dt)^(C-1) for every draw (at dt = 1e-2 the median draw
# is already ~1e13), and a tighter gate would reject every draw on the
# benchmark meshes.  The trainer takes LU Newton steps there (least squares
# only on a singular Jacobian) and solves its damped steps by the normal
# equations.
_COND_LIMIT = 1e14
_MAX_RESAMPLES = 10


class BasisConditioningError(SolverError):
    """All resampling attempts produced an ill-conditioned feature matrix."""


@dataclass(frozen=True)
class RpnnBasis:
    """Sampled inner layer plus precomputed feature matrices on the nodes."""

    hidden: int
    colloc: int
    a: np.ndarray
    b: np.ndarray
    sigma_b: np.ndarray
    nodes: np.ndarray
    node_kind: str
    dt: float
    feat: np.ndarray          # sigma(a t_c + b), C x H
    feat_prime: np.ndarray    # sigma'(a t_c + b) * a, C x H
    feat_shifted: np.ndarray  # feat - 1_C sigma(b)^T
    cond: float
    resamples: int
    seed: int
    # sigma(a dt + b) - sigma(b): the features of the value at t = dt, which
    # `train_coarse` stops on, formed once per basis.
    _feat_end: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_feat_end", np.tanh(self.a * self.dt + self.b) - self.sigma_b)


def _feature_matrices(a, b, nodes):
    z = np.outer(nodes, a) + b
    tanh_z = np.tanh(z)
    feat = tanh_z
    feat_prime = (1.0 - tanh_z * tanh_z) * a
    return feat, feat_prime


def _check_ansatz(hidden, colloc, node_kind, bounds, dt=1.0) -> np.ndarray:
    """The collocation nodes on [0, dt].  Rejects counts that are not integers
    >= 1 or differ, a node kind that cannot be placed, and bounds that are
    not a pair of finite reals lo < hi."""
    check_count("hidden", hidden)
    check_count("colloc", colloc)
    if hidden != colloc:
        raise ValueError("this ansatz requires hidden == colloc")
    nodes = collocation_nodes(node_kind, colloc, dt)
    if not (isinstance(bounds, Sized) and len(bounds) == 2):
        raise ValueError(f"weight bounds must be a pair (lo, hi), got {bounds!r}")
    lo, hi = bounds
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for v in bounds) or not lo < hi:
        raise ValueError(f"invalid weight bounds {bounds!r}")
    return nodes


def sample_basis(
    hidden: int = 5,
    colloc: int = 5,
    dt: float = 1.0,
    node_kind: str = "uniform",
    bounds: tuple[float, float] = (-1.0, 1.0),
    seed: int = 0,
) -> RpnnBasis:
    """Draw the frozen inner layer and precompute the node feature matrices.

    Deterministic for a fixed seed.  If the sampled feature-derivative matrix
    is ill conditioned, (a, b) are redrawn with a fresh derived seed, at most
    10 times; the resample count is recorded on the basis.
    """
    nodes = _check_ansatz(hidden, colloc, node_kind, bounds, dt)
    lo, hi = bounds
    for attempt in range(_MAX_RESAMPLES + 1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        a = rng.uniform(lo, hi, hidden)
        b = rng.uniform(lo, hi, hidden)
        feat, feat_prime = _feature_matrices(a, b, nodes)
        singular_values = np.linalg.svd(feat_prime, compute_uv=False)
        if singular_values[-1] > 0.0:
            cond = float(singular_values[0] / singular_values[-1])
            if cond <= _COND_LIMIT:
                sigma_b = np.tanh(b)
                return RpnnBasis(
                    hidden=hidden,
                    colloc=colloc,
                    a=a,
                    b=b,
                    sigma_b=sigma_b,
                    nodes=nodes,
                    node_kind=node_kind,
                    dt=dt,
                    feat=feat,
                    feat_prime=feat_prime,
                    feat_shifted=feat - sigma_b,
                    cond=cond,
                    resamples=attempt,
                    seed=seed,
                )
        logger.debug("resampling basis (seed=%s attempt=%d): ill conditioned", seed, attempt)
    raise BasisConditioningError(
        f"all {_MAX_RESAMPLES + 1} draws for seed {seed} were ill conditioned"
    )


def _rows_times(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """theta^T f for each row f of `features`, or for `features` if a vector.

    np.matmul over a stack of column vectors makes one matrix-vector product
    per row, so each row is bitwise the single-time product theta.T @ f.  A
    matrix product, features @ theta, rounds its sums differently.
    """
    return np.matmul(theta.T, features[..., np.newaxis])[..., 0]


def eval_network(basis: RpnnBasis, theta: np.ndarray, x0: np.ndarray, t) -> np.ndarray:
    """Network value x0 + theta^T (sigma(a t + b) - sigma(b)).

    For an array of times the values are stacked rowwise, each row bitwise
    the value at that time alone.
    """
    if theta.shape[0] != basis.hidden or theta.shape[1] != len(x0):
        raise ValueError(
            f"theta shape {theta.shape} incompatible with H={basis.hidden}, d={len(x0)}"
        )
    features = np.tanh(np.multiply.outer(t, basis.a) + basis.b) - basis.sigma_b
    return x0 + _rows_times(theta, features)


def eval_network_derivative(basis: RpnnBasis, theta: np.ndarray, t) -> np.ndarray:
    """Time derivative theta^T (sigma'(a t + b) * a), rowwise for an array of times."""
    if theta.shape[0] != basis.hidden:
        raise ValueError(f"theta shape {theta.shape} incompatible with H={basis.hidden}")
    tanh_z = np.tanh(np.multiply.outer(t, basis.a) + basis.b)
    return _rows_times(theta, (1.0 - tanh_z * tanh_z) * basis.a)


def eval_network_many(
    basis: RpnnBasis, theta: np.ndarray, x0: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Network values at a sequence of times, one row per time."""
    return eval_network(basis, theta, x0, np.asarray(ts, dtype=float).reshape(-1))


def admissible_step_bound(basis: RpnnBasis, lipschitz_f: float) -> float:
    """Right endpoint of the contraction step-size condition.

    Returns (||(Hp)^-1||_2 Lip(F) sqrt(C) ||a||_2)^-1, computed from the
    smallest singular value of the derivative feature matrix; +inf when the
    field's Lipschitz estimate is zero.  The check is advisory: the Lipschitz
    constant is a user-supplied local estimate.
    """
    if lipschitz_f < 0:
        raise ValueError("Lipschitz estimate must be nonnegative")
    smallest = float(np.linalg.svd(basis.feat_prime, compute_uv=False)[-1])
    if smallest == 0.0:
        raise ValueError("derivative feature matrix is singular")
    if basis.nodes[0] <= 0.0 or basis.nodes[-1] >= basis.dt:
        # The contraction theory assumes nodes strictly inside (0, dt); the
        # benchmark grids include the endpoints, so report rather than error.
        logger.debug("step-bound hypothesis: nodes touch the interval endpoints")
    if lipschitz_f == 0.0:
        return np.inf
    return smallest / (lipschitz_f * np.sqrt(basis.colloc) * float(np.linalg.norm(basis.a)))
