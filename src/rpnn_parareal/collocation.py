"""Collocation residual, its analytic Jacobian, quadrature rules, and the trainer.

The outer-layer weights of the random-feature ansatz are fitted per interval
by driving the collocation residual

    G(theta) = Hp @ theta - F(1_C x0^T + (H - H0) @ theta)

to zero with a Levenberg-Marquardt iteration.  The Jacobian of vec(G) with
respect to vec(theta) (column stacking) is

    I_d (x) Hp - dvecF/dvecX . (I_d (x) (H - H0)),

square when there are as many hidden units as collocation nodes.  F and DF
on the C node states come from `system.field_rows` and `evaluate_rows`; on
the closed-form systems the trainer keeps the states as rows of Python
floats and reads both through their float forms by `problems._float_rows`,
the loop `evaluate_rows` runs.  The states are evaluated once per trial
weights: the residual keeps them for the Jacobian, which is asked for only
at the weights of an accepted trial.  The trainer works on this dense
Jacobian for every system, with its constant block I_d (x) Hp built once
per training, and has two modes.
The exact fit solves G = 0 by Newton's method, damping only after a rejected
step.  The regularized fit keeps Marquardt damping on throughout, so that a
stiff transient the ansatz cannot resolve still gets weights of moderate size.
Both solve every damped step through one set of normal equations, built once
per Jacobian with only its diagonal rewritten for each damping tried.  The
regularized fit also corrects each such step once by J itself.  Both stop
once an accepted step no longer moves the network's value at t = dt, the
coarse endpoint: the exact fit once it moves by round-off, 1e-12 of its
size, and also once a rejected Newton step does; the regularized fit, whose
damped steps seldom reach round-off, once it moves by 1e-10 of its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .integrators import SolverError, check_count
from .problems import BurgersDiscretization, OdeSystem, _float_rows, evaluate_rows

if TYPE_CHECKING:
    from .rpnn import RpnnBasis

# Moment solves beyond this many nodes are refused: the rescaled Vandermonde
# system becomes too ill-conditioned to trust.
_MAX_MOMENT_NODES = 9

_MARQUARDT_DIAG_FLOOR = 1e-14

# Levenberg-Marquardt stopping rules and damping schedule.
_RESIDUAL_TOL = 1e-10
_STEP_TOL = 1e-12
# Relative stopping tests on an accepted step, after MINPACK (More 1978): in
# the exact fit ftol on its cost decrease against the previous cost and xtol
# on its norm against xtol + ||theta||; in both fits xtol on the coarse
# endpoint.
_FTOL = 1e-10
_XTOL = 1e-12
# The regularized fit's xtol on the coarse endpoint.  The exact fit's Newton
# steps converge quadratically, so its endpoint reaches round-off, _XTOL, in a
# step or two.  The damped steps do not: crawling along a flat valley of the
# cost they seldom reach round-off before the iteration cap, while the
# endpoint has long settled far below any Parareal tolerance.
_REGULARIZED_ENDPOINT_XTOL = 1e-10
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
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"interval length must be positive and finite, got {dt!r}")
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


def _at_nodes(states: np.ndarray | list, floats: Callable | None,
              rows_fn: Callable[[np.ndarray], np.ndarray], what: str) -> np.ndarray:
    """F or DF at the node states, one row per state; a non-finite value
    raises `TrainingError`, naming `what`.

    The states are a C x d array, read by `rows_fn`, or its rows as lists
    of floats, read by the float form `floats` through `_float_rows`, whose
    Python floats are then tested for finiteness as they are.  A Jacobian's
    rows are C x d x d from `rows_fn` and C x d*d from `floats`.
    """
    if isinstance(states, list):
        flat = _float_rows(floats, states)
        values = np.array(flat).reshape(len(states), -1)
        finite = all(map(math.isfinite, flat))
    else:
        values = rows_fn(states)
        finite = np.isfinite(values).all()
    if not finite:
        raise TrainingError(f"{what} returned non-finite values at collocation states")
    return values


def residual(
    basis: "RpnnBasis", theta: np.ndarray, x0: np.ndarray, system: OdeSystem
) -> np.ndarray:
    """Collocation residual G = Hp theta - F(states), F from `system.field_rows`."""
    states = collocation_states(basis, theta, x0)
    return basis.feat_prime @ theta - _at_nodes(states, None, system.field_rows, "vector field")


def _residual_jacobian_of(
    basis: "RpnnBasis", x0: np.ndarray, system: OdeSystem
) -> Callable[[np.ndarray], np.ndarray]:
    """`residual_jacobian(basis, theta, x0, system)` as a function of the
    node states `collocation_states(basis, theta, x0)`, as an array or as
    float rows (`_at_nodes`).

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
    floats = getattr(system.jacobian, "floats", None)
    rows_fn = partial(evaluate_rows, system.jacobian)

    def jacobian(states):
        jacs = _at_nodes(states, floats, rows_fn, "field Jacobian").reshape(c_count, d, d)
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
    return _residual_jacobian_of(basis, x0, system)(collocation_states(basis, theta, x0))


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
    transient; it corrects each damped step once by J.  Both modes solve
    each damped step by the same normal equations, and in `train_coarse`
    both stop once an accepted step, or in the exact fit a rejected Newton
    step, moves the coarse endpoint by at most 1e-12 of its size in the
    exact fit and 1e-10 in the regularized one.
    """

    max_iter: int = 100
    floor_to_gauss_newton: bool = True

    def __post_init__(self):
        check_count("max_iter", self.max_iter)
        if not isinstance(self.floor_to_gauss_newton, (bool, np.bool_)):
            raise ValueError(f"floor_to_gauss_newton must be a bool, got "
                             f"{self.floor_to_gauss_newton!r}")


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
    endpoint: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, TrainReport]:
    """Levenberg-Marquardt on vec(theta), in the fit mode `opts` selects.

    A damped step solves the normal equations
    (J^T J + lam * diag(J^T J)) delta = -J^T r, formed once per Jacobian,
    with identity scaling when the Marquardt diagonal degenerates.  The
    regularized fit adds to delta the solution for the right-hand side
    J^T (-r - J delta) - lam diag(J^T J) delta (corrected semi-normal
    equations), which makes its step about as accurate as a least-squares
    solve of the damped system.  Steps are accepted only if the cost
    strictly decreases; lam shrinks on acceptance and grows on rejection.

    The exact fit starts at lam = 0, where the step is the undamped Newton
    step `_undamped_step`.  A rejection sets lam to 1e-3 and each further one
    multiplies it by 10; an accepted step divides it by 10, back to 0 below
    1e-12.  The regularized fit starts at lam = 1e-3 and floors it at 1e-12.

    Terminations: "residual_tol" (||r|| <= 1e-10), "step_tol"
    (||delta|| <= 1e-12), "max_iter", and in the exact fit also, after an
    accepted step, "ftol" (it lowered the cost by at most 1e-10 of it) and
    "xtol" (||delta|| <= 1e-12 (1e-12 + ||theta||)).  Given
    `endpoint = (phi, x0)`, both fits also stop after an accepted step with
    "endpoint_xtol" when the step moves the endpoint x0 + phi^T theta of a
    2-D theta by ||phi^T delta|| <= tol (tol + ||x0 + phi^T theta||): xtol
    on the value a coarse propagator steps with, at tol = 1e-12 in the
    exact fit and 1e-10 in the regularized one.  The exact fit also
    stops so after a rejected undamped step that passes this test, and
    returns the weights it had: a full Newton step is the largest move it
    makes from theta, so a damped retry has nothing left to gain at the
    endpoint.  A rejected damped step never stops on it.

    `jacobian_fn` may return anything `np.asarray` turns into the dense
    Jacobian of vec(r) with respect to vec(theta); the trainer works on that
    matrix.  It is asked only at the very array `residual_fn` was last
    called with (the start or an accepted trial), and no array passed to
    either is written to, so `residual_fn` may keep what it computed there
    for `jacobian_fn`, as `train_coarse`'s does with the node states.
    """
    opts = opts or LmOptions()
    exact = opts.floor_to_gauss_newton
    phi, x0 = (None, None) if endpoint is None else endpoint
    theta = np.array(theta_init, dtype=float)
    shape = theta.shape
    r = residual_fn(theta)
    cost = float(np.add.reduce(r * r, axis=None))  # np.sum's pairwise sum, called directly
    cost_history = [cost]
    res_norm = math.sqrt(cost)
    if res_norm <= _RESIDUAL_TOL:
        return theta, TrainReport(0, cost, _max_row_norm(r), 0, 0, "residual_tol",
                                  tuple(cost_history))
    lam = 0.0 if exact else _LAMBDA_INIT
    endpoint_tol = _XTOL if exact else _REGULARIZED_ENDPOINT_XTOL
    theta_norm = _norm(theta)
    if phi is not None:
        # ||x0 + phi^T theta|| <= ||x0|| + ||phi|| ||theta||, doubled so that
        # rounding cannot lift the computed norm above the bound.
        x0_bound, phi_bound = 2.0 * _norm(x0), 2.0 * _norm(phi)
    iterations = accepted = rejected = 0
    reason = None
    need_jacobian = True
    while reason is None and iterations < opts.max_iter:
        iterations += 1
        if need_jacobian:
            # r changes only with an accepted step, which also asks for a new
            # Jacobian, so everything built here serves each damping tried.
            jac = np.asarray(jacobian_fn(theta))
            minus_r = -r.ravel(order="F")
            need_jacobian = False
            # J^T J, J^T (-r) and the Marquardt diagonal, formed at the first
            # damped step: an undamped Newton step reads none of them.
            normal = None
        while True:
            try:
                if lam == 0.0:
                    delta = _undamped_step(jac, minus_r)
                else:
                    # The damped normal equations, in one buffer.
                    if normal is None:
                        normal, gradient = jac.T @ jac, jac.T @ minus_r
                        diag = np.einsum("ij,ij->j", jac, jac)
                        if diag.min() < _MARQUARDT_DIAG_FLOOR:
                            diag = np.ones_like(diag)
                        normal_diagonal = normal.reshape(-1)[:: len(diag) + 1]
                        undamped_diagonal = normal_diagonal.copy()
                    np.add(undamped_diagonal, lam * diag, out=normal_diagonal)
                    delta = np.linalg.solve(normal, gradient)
                    if not exact:
                        # One correction by J itself: forming J^T J squares
                        # J's condition number, which the step should not.
                        fix = jac.T @ (minus_r - jac @ delta) - lam * diag * delta
                        delta += np.linalg.solve(normal, fix)
                break
            except np.linalg.LinAlgError as exc:
                if lam >= _LAMBDA_MAX:
                    raise TrainingError(
                        f"linear solve failed after damping escalation to {lam:.1e}"
                    ) from exc
                lam = _raise_damping(lam)
        step = delta.reshape(shape, order="F")
        theta_try = theta + step
        r_try = residual_fn(theta_try)
        cost_try = float(np.add.reduce(r_try * r_try, axis=None))
        step_norm = _norm(delta)
        endpoint_hit = False
        if phi is not None and (cost_try < cost or lam == 0.0):
            # xtol on the coarse endpoint x0 + phi^T theta; the endpoint is
            # formed only for a move that passes the test against its bound.
            move = _norm(phi @ step)
            endpoint_hit = (
                move <= endpoint_tol * (endpoint_tol + x0_bound + phi_bound * theta_norm)
                and move <= endpoint_tol * (endpoint_tol + _norm(x0 + phi @ theta)))
        if cost_try < cost:
            ftol_hit = exact and cost - cost_try <= _FTOL * cost
            xtol_hit = exact and step_norm <= _XTOL * (_XTOL + theta_norm)
            theta, r, cost = theta_try, r_try, cost_try
            theta_norm = _norm(theta)
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
            elif endpoint_hit:
                reason = "endpoint_xtol"
        else:
            rejected += 1
            if step_norm <= _STEP_TOL:
                reason = "step_tol"
            elif endpoint_hit:
                # An undamped step: not even the full Newton step moved the
                # endpoint beyond round-off, so a damped retry cannot gain there.
                reason = "endpoint_xtol"
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
    block is built once per call.  The residual and Jacobian handed to
    `levenberg_marquardt` are bitwise `residual` and `residual_jacobian`;
    the Jacobian reuses the node states of the last residual call when
    asked at those weights.  The trainer also gets the feature row phi of
    `eval_network` at t = dt, for "endpoint_xtol" in both fit modes: a step
    that moves the network's value there by at most 1e-12 of its size stops
    the exact fit, and by at most 1e-10 the regularized one.
    """
    opts = opts or LmOptions()
    hp, hs = basis.feat_prime, basis.feat_shifted
    if theta_init is None:
        theta_init = np.zeros((hp.shape[1], system.dim))
    x0_row = x0[np.newaxis, :]
    field_rows, floats = system.field_rows, getattr(system.field, "floats", None)
    # Float rows when both F and DF have float forms and F's rows are the
    # default `evaluate_rows`, which would read them through that form.
    on_floats = (floats is not None and hasattr(system.jacobian, "floats")
                 and getattr(field_rows, "func", None) is evaluate_rows)
    jacobian_at = _residual_jacobian_of(basis, x0, system)
    last = [None, None]  # the weights of the last residual call and its node states

    def node_states(theta):
        states = x0_row + hs @ theta
        return states.tolist() if on_floats else states

    def residual_fn(theta):
        states = node_states(theta)
        last[:] = theta, states
        return hp @ theta - _at_nodes(states, floats, field_rows, "vector field")

    def jacobian_fn(theta):
        # levenberg_marquardt asks for a Jacobian only at the weights its last
        # residual call saw, and writes to no weights it has passed.
        return jacobian_at(last[1] if theta is last[0] else node_states(theta))

    phi = np.tanh(basis.a * basis.dt + basis.b) - basis.sigma_b
    return levenberg_marquardt(residual_fn, jacobian_fn, theta_init, opts, endpoint=(phi, x0))
