"""Collocation residual, its analytic Jacobian, quadrature rules, and the trainer.

The outer-layer weights of the random-feature ansatz are fitted per interval
by driving the collocation residual

    G(theta) = Hp @ theta - F(1_C x0^T + (H - H0) @ theta)

to zero in the least-squares sense with a Levenberg-Marquardt iteration.  The
Jacobian of vec(G) with respect to vec(theta) (column stacking) is

    I_d (x) Hp - dvecF/dvecX . (I_d (x) (H - H0)),

assembled densely for the small benchmarks and applied matrix-free for the
semi-discretized Burgers system, where the field's structure makes both the
operator and its transpose cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .integrators import SolverError
from .problems import BurgersDiscretization, OdeSystem

if TYPE_CHECKING:
    from .rpnn import RpnnBasis

# Moment solves beyond this many nodes are refused: the rescaled Vandermonde
# system becomes too ill-conditioned to trust.
_MAX_MOMENT_NODES = 9

_MARQUARDT_DIAG_FLOOR = 1e-14

# Levenberg-Marquardt stopping rules and damping schedule.
_RESIDUAL_TOL = 1e-10
_STEP_TOL = 1e-12
_LAMBDA_INIT = 1e-3
_LAMBDA_INCREASE = 10.0
_LAMBDA_DECREASE = 10.0
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e10
# Conjugate-gradient inner solve of the matrix-free path: relative residual
# tolerance and iteration cap per unknown.
_CG_TOL = 1e-12
_CG_MAX_ITER_FACTOR = 10


class TrainingError(SolverError):
    """Levenberg-Marquardt failed; carries solver context when available."""

    def __init__(self, message: str, interval: int | None = None, iteration: int | None = None):
        super().__init__(message)
        self.interval = interval
        self.iteration = iteration


def _vec(m: np.ndarray) -> np.ndarray:
    return m.ravel(order="F")


def _unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return v.reshape(shape, order="F")


# ---------------------------------------------------------------------------
# Nodes and quadrature weights
# ---------------------------------------------------------------------------


def _legendre_gauss_lobatto(n: int) -> np.ndarray:
    """LGL nodes on [-1, 1]: the endpoints plus the roots of P'_{n-1}.

    Newton iteration on the Legendre three-term recurrence, starting from the
    Chebyshev-Gauss-Lobatto points.
    """
    if n == 2:
        return np.array([-1.0, 1.0])
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    vand = np.zeros((n, n))
    x_prev = x + 1.0
    while np.max(np.abs(x - x_prev)) > 1e-15:
        vand[:, 0] = 1.0
        vand[:, 1] = x
        for k in range(1, n - 1):
            vand[:, k + 1] = ((2 * k + 1) * x * vand[:, k] - k * vand[:, k - 1]) / (k + 1)
        x_prev = x.copy()
        x = x_prev - (x * vand[:, n - 1] - vand[:, n - 2]) / (n * vand[:, n - 1])
    x = np.sort(x)
    x[0] = -1.0
    x[-1] = 1.0
    return x


def collocation_nodes(kind: str, c: int, dt: float) -> np.ndarray:
    """Collocation times in [0, dt]: equispaced or Gauss-Lobatto."""
    if c < 1:
        raise ValueError("need at least one collocation node")
    if not dt > 0:
        raise ValueError("interval length must be positive")
    if kind == "uniform":
        if c == 1:
            return np.array([0.5 * dt])
        return np.linspace(0.0, dt, c)
    if kind == "lobatto":
        if c == 1:
            raise ValueError("Lobatto nodes are undefined for a single point")
        return 0.5 * dt * (_legendre_gauss_lobatto(c) + 1.0)
    raise ValueError(f"unknown node kind {kind!r}")


def quadrature_weights(nodes: np.ndarray, dt: float) -> np.ndarray:
    """Weights making the rule exact for polynomials of degree < len(nodes).

    Solves the moment system sum_c rho_c t_c^k = dt^(k+1)/(k+1) for
    k = 0..C-1, with nodes rescaled to [0, 1] for conditioning.
    """
    nodes = np.asarray(nodes, dtype=float)
    c = len(nodes)
    if c > _MAX_MOMENT_NODES:
        raise ValueError(f"moment solve refused for C={c} > {_MAX_MOMENT_NODES} nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be strictly increasing")
    if nodes[0] < -1e-12 * dt or nodes[-1] > dt * (1.0 + 1e-12):
        raise ValueError("nodes must lie inside [0, dt]")
    s = nodes / dt
    vand = np.vander(s, c, increasing=True).T  # row k holds s**k
    moments = 1.0 / (1.0 + np.arange(c))
    try:
        w = np.linalg.solve(vand, moments)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular moment system (duplicate nodes?)") from exc
    return dt * w


@dataclass(frozen=True)
class CollocationGrid:
    """Node/weight pair with its guaranteed exactness order (p = C here)."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    order: int


def collocation_grid(kind: str, c: int, dt: float) -> CollocationGrid:
    nodes = collocation_nodes(kind, c, dt)
    return CollocationGrid(kind, nodes, quadrature_weights(nodes, dt), c)


# ---------------------------------------------------------------------------
# Residual and its Jacobian
# ---------------------------------------------------------------------------


def collocation_states(basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Ansatz values at the collocation nodes, stacked rowwise (C x d)."""
    return x0[np.newaxis, :] + basis.feat_shifted @ theta


def residual(
    basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray, system: OdeSystem
) -> np.ndarray:
    """Collocation residual G = Hp theta - F(states), one row per node."""
    states = collocation_states(basis, theta, x0)
    if system.field_rows is not None:
        f_rows = system.field_rows(states)
    else:
        f_rows = np.empty_like(states)
        for c in range(states.shape[0]):
            f_rows[c] = system.field(states[c])
    if not np.all(np.isfinite(f_rows)):
        raise TrainingError("vector field returned non-finite values at collocation states")
    return basis.feat_prime @ theta - f_rows


def residual_jacobian(
    basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray, system: OdeSystem
) -> np.ndarray:
    """Dense Jacobian of vec(G) w.r.t. vec(theta), shape (C*d, H*d).

    Entry ((j, c), (k, h)) is delta_jk Hp[c, h] - DF(state_c)[j, k] Hm[c, h].
    """
    hp, hm = basis.feat_prime, basis.feat_shifted
    c_count, h_count = hp.shape
    d = system.dim
    states = collocation_states(basis, theta, x0)
    jacs = np.empty((c_count, d, d))
    for c in range(c_count):
        jacs[c] = system.jacobian(states[c])
    # Axes (j, c, k, h): rows of vec(G) are (j, c), columns of vec(theta) (k, h).
    eye = np.eye(d)[:, np.newaxis, :, np.newaxis]
    dfs = jacs.transpose(1, 0, 2)[:, :, :, np.newaxis]
    blocks = eye * hp[:, np.newaxis, :] - dfs * hm[:, np.newaxis, :]
    return blocks.reshape(d * c_count, d * h_count)


class BurgersJacobianOperator:
    """Matrix-free residual Jacobian for the semi-discretized Burgers field.

    Applies J and J^T without materializing the (C*d, H*d) matrix, using
    dvecF/dvecX = -diag(vec(X D1^T)) - diag(vec(X)) (D1 (x) I_C) + nu D2 (x) I_C.
    """

    def __init__(
        self,
        basis: "RpnnBasis",
        theta: np.ndarray,
        x0: np.ndarray,
        disc: BurgersDiscretization,
    ):
        self.basis = basis
        self.disc = disc
        self.c_count, self.h_count = basis.feat_prime.shape
        self.d = disc.grid_size
        self.shape = (self.c_count * self.d, self.h_count * self.d)
        self.states = collocation_states(basis, theta, x0)  # X, C x d
        self.d1t = np.ascontiguousarray(disc.d1.T)
        self.d2t = np.ascontiguousarray(disc.d2.T)
        self.states_d1t = self.states @ self.d1t

    def matvec_mat(self, vmat: np.ndarray) -> np.ndarray:
        hp, hm = self.basis.feat_prime, self.basis.feat_shifted
        d1t, d2t, nu = self.d1t, self.d2t, self.disc.viscosity
        w = hm @ vmat
        return hp @ vmat + self.states_d1t * w + self.states * (w @ d1t) - nu * (w @ d2t)

    def rmatvec_mat(self, wmat: np.ndarray) -> np.ndarray:
        hp, hm = self.basis.feat_prime, self.basis.feat_shifted
        d1, d2, nu = self.disc.d1, self.disc.d2, self.disc.viscosity
        field_part = -self.states_d1t * wmat - (self.states * wmat) @ d1 + nu * (wmat @ d2)
        return hp.T @ wmat - hm.T @ field_part

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return _vec(self.matvec_mat(_unvec(v, (self.h_count, self.d))))

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return _vec(self.rmatvec_mat(_unvec(w, (self.c_count, self.d))))

    def make_preconditioner_mat(self, lam: float, diag_mat: np.ndarray):
        """Inverse of the dominant normal-equation term, applied blockwise.

        The (I_d (x) Hp) part of J gives the normal equations a block-diagonal
        backbone Hp^T Hp per state component; inverting it (plus the damping)
        keeps conjugate gradients fast even when Hp is badly conditioned.
        """
        btb = self.basis.feat_prime.T @ self.basis.feat_prime
        blocks = np.repeat(btb[np.newaxis, :, :], self.d, axis=0)
        idx = np.arange(self.h_count)
        blocks[:, idx, idx] += lam * diag_mat.T
        inv_blocks = np.linalg.inv(blocks)

        def apply(vmat: np.ndarray) -> np.ndarray:
            return np.einsum("jhk,kj->hj", inv_blocks, vmat)

        return apply

    def diag_jtj_mat(self) -> np.ndarray:
        """Column norms squared of J as an H x d array (Marquardt diagonal).

        Column (h, j) of J, viewed as a C x d matrix, is
            hm[:, h] * B[:, :, j] + e_j * (Hp[:, h] + A[:, j] * hm[:, h])
        with A = X D1^T and B[c, k, j] = X[c, k] D1[k, j] - nu D2[k, j].
        """
        hp, hm = self.basis.feat_prime, self.basis.feat_shifted
        d1, d2, nu = self.disc.d1, self.disc.d2, self.disc.viscosity
        a = self.states_d1t
        b = self.states[:, :, np.newaxis] * d1[np.newaxis, :, :] - nu * d2[np.newaxis, :, :]
        s1 = np.einsum("ckj,ckj->cj", b, b)
        bd = np.einsum("cjj->cj", b)
        p = hp[:, :, np.newaxis] + a[:, np.newaxis, :] * hm[:, :, np.newaxis]
        hm_sq = hm * hm
        return (
            np.einsum("ch,cj->hj", hm_sq, s1)
            + 2.0 * np.einsum("ch,cj,chj->hj", hm, bd, p)
            + np.einsum("chj,chj->hj", p, p)
        )

    def diag_jtj(self) -> np.ndarray:
        return _vec(self.diag_jtj_mat())


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LmOptions:
    """Iteration cap and the floor-step mode of the Levenberg-Marquardt trainer.

    With `floor_to_gauss_newton` (the default), a step whose damping has hit
    its floor is computed without damping, via a rank-revealing solve: a
    floored Marquardt term would suppress small-singular-value directions
    indefinitely.  Callers fitting under-resolved stiff transients should
    turn it off so the fit stays regularized.
    """

    max_iter: int = 100
    floor_to_gauss_newton: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run on a single interval."""

    iterations: int
    final_cost: float
    epsilon: float
    accepted: int
    rejected: int
    termination: str
    cost_history: tuple[float, ...] = dc_field(default=())

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_cost": self.final_cost,
            "epsilon": self.epsilon,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "termination": self.termination,
            "cost_history": list(self.cost_history),
        }


def _max_row_norm(g: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(np.atleast_2d(g), axis=1)))


def _conjugate_gradient(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float,
    max_iter: int,
    apply_m: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """(Preconditioned) CG for SPD systems, stopping at ||Ax - b|| <= tol ||b||.

    Operands may be arrays of any shape; inner products flatten.
    """
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = math.sqrt(float(np.vdot(b, b)))
    if b_norm == 0.0:
        return x
    z = apply_m(r) if apply_m is not None else r
    p = z.copy()
    rz = float(np.vdot(r, z))
    threshold = tol * b_norm
    for _ in range(max_iter):
        if math.sqrt(float(np.vdot(r, r))) <= threshold:
            return x
        ap = apply_a(p)
        denom = float(np.vdot(p, ap))
        if denom <= 0.0:
            raise np.linalg.LinAlgError("CG breakdown: operator not positive definite")
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        z = apply_m(r) if apply_m is not None else r
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray | BurgersJacobianOperator],
    theta_init: np.ndarray,
    opts: LmOptions | None = None,
) -> tuple[np.ndarray, TrainReport]:
    """Classic Levenberg-Marquardt on vec(theta).

    Solves (J^T J + lam * diag(J^T J)) delta = -J^T r each iteration, falling
    back to identity scaling when the Marquardt diagonal degenerates.  Steps
    are accepted only if the cost strictly decreases; lam shrinks on
    acceptance and grows on rejection.  The Jacobian may be a dense array or
    a matrix-free operator (matvec_mat/rmatvec_mat/diag_jtj_mat), in which
    case the damped normal equations are solved by preconditioned conjugate
    gradients.
    """
    opts = opts or LmOptions()
    theta = np.array(theta_init, dtype=float)
    shape = theta.shape
    r = residual_fn(theta)
    cost = float(np.sum(r * r))
    cost_history = [cost]
    res_norm = math.sqrt(cost)
    if res_norm <= _RESIDUAL_TOL:
        return theta, TrainReport(0, cost, _max_row_norm(r), 0, 0, "residual_tol",
                                  tuple(cost_history))
    lam = _LAMBDA_INIT
    iterations = accepted = rejected = 0
    reason = "max_iter"
    need_jacobian = True
    jac = g = diag = None
    dense = True
    while iterations < opts.max_iter:
        iterations += 1
        if need_jacobian:
            jac = jacobian_fn(theta)
            dense = isinstance(jac, np.ndarray)
            if dense:
                diag = np.einsum("ij,ij->j", jac, jac)
            else:
                # matrix-shaped unknowns throughout the operator path
                g = jac.rmatvec_mat(r)
                diag = jac.diag_jtj_mat()
            if np.min(diag) < _MARQUARDT_DIAG_FLOOR:
                diag = np.ones_like(diag)
            need_jacobian = False
        while True:
            try:
                if dense:
                    # Same damped normal equations, solved as the augmented
                    # least-squares system [J; sqrt(lam*diag)] to avoid
                    # squaring the conditioning of J.  Once lam has floored,
                    # the damping is dropped entirely (Gauss-Newton step via
                    # a rank-revealing solve), as floored damping would keep
                    # suppressing small-singular-value directions forever.
                    n_unknowns = jac.shape[1]
                    if opts.floor_to_gauss_newton and lam <= _LAMBDA_MIN:
                        delta = np.linalg.lstsq(jac, -_vec(r), rcond=None)[0]
                    else:
                        augmented = np.vstack([jac, np.diag(np.sqrt(lam * diag))])
                        rhs = np.concatenate([-_vec(r), np.zeros(n_unknowns)])
                        delta = np.linalg.lstsq(augmented, rhs, rcond=None)[0]
                else:
                    preconditioner = jac.make_preconditioner_mat(lam, diag)
                    delta = _conjugate_gradient(
                        lambda v: jac.rmatvec_mat(jac.matvec_mat(v)) + lam * (diag * v),
                        -g,
                        _CG_TOL,
                        _CG_MAX_ITER_FACTOR * g.size,
                        apply_m=preconditioner,
                    )
                break
            except np.linalg.LinAlgError as exc:
                if lam >= _LAMBDA_MAX:
                    raise TrainingError(
                        f"linear solve failed after damping escalation to {lam:.1e}"
                    ) from exc
                lam = min(lam * _LAMBDA_INCREASE, _LAMBDA_MAX)
        if dense and theta.ndim == 2:
            theta_try = theta + _unvec(delta, shape)
        else:
            theta_try = theta + delta
        r_try = residual_fn(theta_try)
        cost_try = float(np.sum(r_try * r_try))
        step_norm = float(np.linalg.norm(delta))
        if cost_try < cost:
            theta, r, cost = theta_try, r_try, cost_try
            accepted += 1
            need_jacobian = True
            cost_history.append(cost)
            lam = max(lam / _LAMBDA_DECREASE, _LAMBDA_MIN)
            if math.sqrt(cost) <= _RESIDUAL_TOL:
                reason = "residual_tol"
                break
            if step_norm <= _STEP_TOL:
                reason = "step_tol"
                break
        else:
            rejected += 1
            if step_norm <= _STEP_TOL:
                reason = "step_tol"
                break
            lam = min(lam * _LAMBDA_INCREASE, _LAMBDA_MAX)
    return theta, TrainReport(
        iterations, cost, _max_row_norm(r), accepted, rejected, reason,
        tuple(cost_history),
    )


def train_coarse(
    basis: "RpnnBasis",
    x0: np.ndarray,
    system: OdeSystem,
    theta_init: np.ndarray | None = None,
    opts: LmOptions | None = None,
) -> tuple[np.ndarray, TrainReport]:
    """Fit the outer-layer weights so the ansatz satisfies the ODE at the nodes.

    Uses the dense residual Jacobian for the small benchmarks; for the
    semi-discretized Burgers system the matrix-free operator is used together
    with a conjugate-gradient inner solve.
    """
    h_count = basis.feat_prime.shape[1]
    if theta_init is None:
        theta_init = np.zeros((h_count, system.dim))

    def residual_fn(theta):
        return residual(basis, theta, x0, system)

    if system.spatial is not None:
        disc = system.spatial

        def jacobian_fn(theta):
            return BurgersJacobianOperator(basis, theta, x0, disc)

    else:

        def jacobian_fn(theta):
            return residual_jacobian(basis, theta, x0, system)

    return levenberg_marquardt(residual_fn, jacobian_fn, theta_init, opts)
