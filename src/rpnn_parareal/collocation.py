"""Collocation residual, its analytic Jacobian, quadrature rules, and the trainer.

The outer-layer weights of the random-feature ansatz are fitted per interval
by driving the collocation residual

    G(theta) = Hp @ theta - F(1_C x0^T + (H - H0) @ theta)

to zero with a Levenberg-Marquardt iteration.  The Jacobian of vec(G) with
respect to vec(theta) (column stacking) is

    I_d (x) Hp - dvecF/dvecX . (I_d (x) (H - H0)),

square when there are as many hidden units as collocation nodes; F and DF on
the C node states come from `system.field_rows` and `evaluate_rows`, which
call the float forms of the closed-form systems on the rows as lists.  The
trainer works on this dense Jacobian for every system, with its constant
block I_d (x) Hp built once per training, and has two modes.
The exact fit solves G = 0 by Newton's method, damping only after a rejected
step.  The regularized fit keeps Marquardt damping on throughout, so that a
stiff transient the ansatz cannot resolve still gets weights of moderate size.
Either builds its damped system once per Jacobian and rewrites only its
diagonal for each damping tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .integrators import SolverError, check_count
from .problems import BurgersDiscretization, OdeSystem, evaluate_rows

if TYPE_CHECKING:
    from .rpnn import RpnnBasis

# Moment solves beyond this many nodes are refused: the rescaled Vandermonde
# system becomes too ill-conditioned to trust.
_MAX_MOMENT_NODES = 9

_MARQUARDT_DIAG_FLOOR = 1e-14

# Levenberg-Marquardt stopping rules and damping schedule.
_RESIDUAL_TOL = 1e-10
_STEP_TOL = 1e-12
# Relative stopping tests of the exact fit on an accepted step, after MINPACK
# (More 1978): ftol on its cost decrease against the previous cost, xtol on
# its norm against xtol + ||theta||.
_FTOL = 1e-10
_XTOL = 1e-12
_LAMBDA_INIT = 1e-3
_LAMBDA_INCREASE = 10.0
_LAMBDA_DECREASE = 10.0
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e10


class TrainingError(SolverError):
    """Levenberg-Marquardt failed; carries solver context when available."""


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

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def collocation_grid(kind: str, c: int, dt: float) -> CollocationGrid:
    nodes = collocation_nodes(kind, c, dt)
    return CollocationGrid(nodes, quadrature_weights(nodes, dt), c)


# ---------------------------------------------------------------------------
# Residual and its Jacobian
# ---------------------------------------------------------------------------


def collocation_states(basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Ansatz values at the collocation nodes, stacked rowwise (C x d)."""
    return x0[np.newaxis, :] + basis.feat_shifted @ theta


def residual(
    basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray, system: OdeSystem
) -> np.ndarray:
    """Collocation residual G = Hp theta - F(states), F from `system.field_rows`."""
    f_rows = system.field_rows(collocation_states(basis, theta, x0))
    if not np.isfinite(f_rows).all():
        raise TrainingError("vector field returned non-finite values at collocation states")
    return basis.feat_prime @ theta - f_rows


def _residual_jacobian_of(
    basis: "RpnnBasis", x0: np.ndarray, system: OdeSystem
) -> Callable[[np.ndarray], np.ndarray]:
    """`residual_jacobian(basis, theta, x0, system)` as a function of theta.

    Rows of vec(G) are (j, c) and columns of vec(theta) (k, h), so the
    Jacobian is the (d, C, d, H) array delta_jk * Hp[c, h] - DF_c[j, k] *
    Hm[c, h].  Its first term, I_d (x) Hp, is built here once; each call
    multiplies DF by Hm into a fresh buffer and subtracts it from that block
    in place.  Off the diagonal blocks the first term is 0 * Hp, so even the
    signs of zeros are those of the expression.  A non-finite DF raises
    `TrainingError` before any solve sees it.
    """
    hp, hm = basis.feat_prime, basis.feat_shifted[:, np.newaxis, :]
    (c_count, h_count), d = hp.shape, len(x0)
    frame = np.eye(d)[:, np.newaxis, :, np.newaxis] * hp[:, np.newaxis, :]

    def jacobian(theta):
        jacs = evaluate_rows(system.jacobian, collocation_states(basis, theta, x0))
        if not np.isfinite(jacs).all():
            raise TrainingError("field Jacobian returned non-finite values at collocation states")
        blocks = np.multiply(jacs.transpose(1, 0, 2)[:, :, :, np.newaxis], hm,
                             out=np.empty(frame.shape))
        return np.subtract(frame, blocks, out=blocks).reshape(d * c_count, d * h_count)

    return jacobian


def residual_jacobian(
    basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray, system: OdeSystem
) -> np.ndarray:
    """Dense Jacobian of vec(G) w.r.t. vec(theta), shape (C*d, H*d).

    Entry ((j, c), (k, h)) is delta_jk Hp[c, h] - DF(state_c)[j, k] Hm[c, h].
    DF comes from `evaluate_rows`; only `system.jacobian` is read, so
    `system` may be a `BurgersDiscretization`.
    """
    return _residual_jacobian_of(basis, x0, system)(theta)


class BurgersJacobianOperator:
    """The dense Burgers residual Jacobian behind a matrix-vector interface.

    Built once, on construction, by `residual_jacobian` with the field
    Jacobian of `disc`; `np.asarray` on the operator returns that matrix.
    The trainer does not use it: it is kept only for the benchmark script
    `bench/run.py` and `tests/test_bench_imports.py`, which build it from
    `OdeSystem.spatial`, until the benchmark times `residual_jacobian` itself.
    """

    def __init__(
        self,
        basis: "RpnnBasis",
        theta: np.ndarray,
        x0: np.ndarray,
        disc: BurgersDiscretization,
    ):
        self.matrix = residual_jacobian(basis, theta, x0, disc)
        self.shape = self.matrix.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return self.matrix.T @ w

    def matvec_mat(self, vmat: np.ndarray) -> np.ndarray:
        return _unvec(self.matvec(_vec(vmat)), (-1, vmat.shape[1]))

    def rmatvec_mat(self, wmat: np.ndarray) -> np.ndarray:
        return _unvec(self.rmatvec(_vec(wmat)), (-1, wmat.shape[1]))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # numpy casts the float64 result to a requested dtype itself.
        return self.matrix.copy() if copy else self.matrix


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LmOptions:
    """Iteration cap and fit mode of the Levenberg-Marquardt trainer.

    With `floor_to_gauss_newton` (the default) the trainer makes an exact fit:
    Newton's method on the residual, damped only after a rejected step, with
    the relative stopping tests ftol and xtol.  Turned off, it makes a
    regularized fit: damping starts at 1e-3 and never drops below 1e-12, so
    the weights stay moderate where the ansatz cannot resolve a stiff
    transient; each of its steps is a dense least-squares solve twice the
    height of the Jacobian.
    """

    max_iter: int = 100
    floor_to_gauss_newton: bool = True

    def __post_init__(self):
        check_count("max_iter", self.max_iter)


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


def _max_row_norm(g: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(np.atleast_2d(g), axis=1)))


def _norm(a: np.ndarray) -> float:
    """`np.linalg.norm(a)` of a float array, taken as it does: the root of
    v . v for v = a.ravel(order="K")."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def _raise_damping(lam: float) -> float:
    return min(lam * _LAMBDA_INCREASE, _LAMBDA_MAX) if lam else _LAMBDA_INIT


def _undamped_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton step: an LU solve when J is square and nonsingular, else the
    minimum-norm least-squares step."""
    if jac.shape[0] == jac.shape[1]:
        try:
            return np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(jac, rhs, rcond=None)[0]


def levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    theta_init: np.ndarray,
    opts: LmOptions | None = None,
) -> tuple[np.ndarray, TrainReport]:
    """Levenberg-Marquardt on vec(theta), in the fit mode `opts` selects.

    A damped step solves (J^T J + lam * diag(J^T J)) delta = -J^T r, with
    identity scaling when the Marquardt diagonal degenerates.  Steps are
    accepted only if the cost strictly decreases; lam shrinks on acceptance
    and grows on rejection.

    The exact fit starts at lam = 0, where the step is the undamped Newton
    step `_undamped_step`.  A rejection sets lam to 1e-3 and each further one
    multiplies it by 10; an accepted step divides it by 10, back to 0 below
    1e-12.  The regularized fit starts at lam = 1e-3 and floors it at 1e-12.

    Terminations: "residual_tol" (||r|| <= 1e-10), "step_tol"
    (||delta|| <= 1e-12), "max_iter", and in the exact fit also, after an
    accepted step, "ftol" (it lowered the cost by at most 1e-10 of it) and
    "xtol" (||delta|| <= 1e-12 (1e-12 + ||theta||)).

    `jacobian_fn` may return anything `np.asarray` turns into the dense
    Jacobian of vec(r) with respect to vec(theta); the trainer works on that
    matrix.
    """
    opts = opts or LmOptions()
    exact = opts.floor_to_gauss_newton
    theta = np.array(theta_init, dtype=float)
    shape = theta.shape
    r = residual_fn(theta)
    cost = float(np.sum(r * r))
    cost_history = [cost]
    res_norm = math.sqrt(cost)
    if res_norm <= _RESIDUAL_TOL:
        return theta, TrainReport(0, cost, _max_row_norm(r), 0, 0, "residual_tol",
                                  tuple(cost_history))
    lam = 0.0 if exact else _LAMBDA_INIT
    iterations = accepted = rejected = 0
    reason = None
    need_jacobian = True
    while reason is None and iterations < opts.max_iter:
        iterations += 1
        if need_jacobian:
            # r changes only with an accepted step, which also asks for a new
            # Jacobian, so everything built here serves each damping tried.
            jac = np.asarray(jacobian_fn(theta))
            (m, n), minus_r = jac.shape, -_vec(r)
            diag = np.einsum("ij,ij->j", jac, jac)
            if diag.min() < _MARQUARDT_DIAG_FLOOR:
                diag = np.ones_like(diag)
            need_jacobian = False
            if exact:
                normal = None  # J^T J and J^T (-r), formed at the first damped step
            else:
                # The augmented system [J; sqrt(lam*diag)], [-r; 0]: only the
                # diagonal of its lower block changes with lam.
                augmented = np.zeros((m + n, n))
                augmented[:m] = jac
                damping = augmented.reshape(-1)[m * n:: n + 1]
                rhs = np.zeros(m + n)
                rhs[:m] = minus_r
        while True:
            try:
                if lam == 0.0:
                    delta = _undamped_step(jac, minus_r)
                elif exact:
                    # The damped normal equations, in one buffer.
                    if normal is None:
                        normal, gradient = jac.T @ jac, jac.T @ minus_r
                        normal_diagonal = normal.reshape(-1)[:: n + 1]
                        undamped_diagonal = normal_diagonal.copy()
                    np.add(undamped_diagonal, lam * diag, out=normal_diagonal)
                    delta = np.linalg.solve(normal, gradient)
                else:
                    # The same damped normal equations, solved as the
                    # augmented least-squares system to avoid squaring the
                    # conditioning of J.
                    np.sqrt(lam * diag, out=damping)
                    delta = np.linalg.lstsq(augmented, rhs, rcond=None)[0]
                break
            except np.linalg.LinAlgError as exc:
                if lam >= _LAMBDA_MAX:
                    raise TrainingError(
                        f"linear solve failed after damping escalation to {lam:.1e}"
                    ) from exc
                lam = _raise_damping(lam)
        theta_try = theta + _unvec(delta, shape)
        r_try = residual_fn(theta_try)
        cost_try = float(np.sum(r_try * r_try))
        step_norm = _norm(delta)
        if cost_try < cost:
            ftol_hit = exact and cost - cost_try <= _FTOL * cost
            xtol_hit = exact and step_norm <= _XTOL * (_XTOL + _norm(theta))
            theta, r, cost = theta_try, r_try, cost_try
            accepted += 1
            need_jacobian = True
            cost_history.append(cost)
            lam /= _LAMBDA_DECREASE
            if lam < _LAMBDA_MIN:
                lam = 0.0 if exact else _LAMBDA_MIN
            if math.sqrt(cost) <= _RESIDUAL_TOL:
                reason = "residual_tol"
            elif step_norm <= _STEP_TOL:
                reason = "step_tol"
            elif xtol_hit:
                reason = "xtol"
            elif ftol_hit:
                reason = "ftol"
        else:
            rejected += 1
            if step_norm <= _STEP_TOL:
                reason = "step_tol"
            else:
                lam = _raise_damping(lam)
    return theta, TrainReport(
        iterations, cost, _max_row_norm(r), accepted, rejected, reason or "max_iter",
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

    Both fit modes train on the dense `residual_jacobian`, whose constant
    block is built once per call.
    """
    opts = opts or LmOptions()
    h_count = basis.feat_prime.shape[1]
    if theta_init is None:
        theta_init = np.zeros((h_count, system.dim))

    def residual_fn(theta):
        return residual(basis, theta, x0, system)

    return levenberg_marquardt(residual_fn, _residual_jacobian_of(basis, x0, system),
                               theta_init, opts)
