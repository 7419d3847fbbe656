"""Hybrid Parareal driver with an online-trained random-feature coarse map.

One pass of the algorithm:

* zeroth iterate: a sequential coarse sweep trains one weight matrix per
  interval and propagates the nodes with the network;
* each later iteration runs the fine propagator from the previous iterate's
  nodes on every interval (independent propagations, run one after another
  in the calling thread), then the same coarse sweep again, which retrains
  the weights at the updated nodes and applies the predictor-corrector
  update (Lions, Maday and Turinici 2001) to the fine values;
* the stopping error is the largest Euclidean node difference between
  consecutive iterates.

Training on an interval is memoized on its bitwise input state: retraining at
an unchanged node returns the cached weights, which keeps the trained-weight
map a function of the node value and makes the finite-step exactness property
hold bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collocation import LmOptions, TrainReport, TrainingError, train_coarse
from .integrators import (FineMethod, SolverError, _check_positive, _check_real, check_count,
                          fine_propagate, step_count)
from .problems import OdeSystem
from .rpnn import BasisConditioningError, RpnnBasis, _check_ansatz, eval_network, sample_basis


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing node times t_0 < ... < t_N."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("mesh needs at least two node times")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("mesh nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @classmethod
    def uniform(cls, t0: float, t_end: float, n: int) -> "TimeMesh":
        check_count("interval count", n)
        return cls(np.linspace(_check_real("t0", t0), _check_real("t_end", t_end), n + 1))

    @classmethod
    def from_blocks(cls, blocks: Sequence[tuple[float, float, int]]) -> "TimeMesh":
        """Concatenate uniform blocks, e.g. a refined early region then a
        coarse tail; `blocks` must be a list or tuple of (start, end, count)
        lists or tuples, adjacent blocks must share their boundary time, each
        block's endpoints must be real numbers and its interval count an
        integer >= 1 (a bool is neither)."""
        nodes = None
        for i, (start, end, count) in enumerate(_block_triples(blocks)):
            check_count(f"interval count of mesh block {i}", count)
            block = np.linspace(_check_real(f"start of mesh block {i}", start),
                                _check_real(f"end of mesh block {i}", end), count + 1)
            if nodes is None:
                nodes = block
            else:
                if block[0] != nodes[-1]:
                    raise ValueError("mesh blocks must be contiguous")
                nodes = np.concatenate([nodes, block[1:]])
        return cls(nodes)


def _block_triples(blocks):
    """`blocks` if it is a list or tuple of 3-item lists or tuples."""
    if not (isinstance(blocks, (list, tuple)) and all(
            isinstance(block, (list, tuple)) and len(block) == 3 for block in blocks)):
        raise ValueError(f"mesh blocks must be a list of [start, end, count] triples, "
                         f"got {blocks!r}")
    return blocks


@dataclass(frozen=True)
class PararealConfig:
    """Solver settings; tolerance and iteration cap follow the benchmark setup.

    `max_it` counts the zeroth sweep: a run makes at most `max_it - 1`
    corrected iterations, so `max_it = 1` runs the zeroth sweep only and
    never converges.
    `fine` must be a `FineMethod` and `lm` an `LmOptions` (`None` is
    refused); `lm` defaults to `LmOptions()`, the exact fit.
    `workers` is accepted and validated but has no effect: the fine sweep
    runs in the calling thread.
    """

    fine: FineMethod
    tol: float = 1e-4
    max_it: int = 20
    hidden: int = 5
    colloc: int = 5
    node_kind: str = "uniform"
    weight_bounds: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0
    record_trace: bool = False
    workers: int = 1
    lm: LmOptions = LmOptions()

    def __post_init__(self):
        if not isinstance(self.fine, FineMethod):
            raise ValueError(f"fine must be a FineMethod, got {self.fine!r}")
        if not isinstance(self.lm, LmOptions):
            raise ValueError(f"lm must be an LmOptions, got {self.lm!r}")
        _check_positive("tol", self.tol)
        check_count("max_it", self.max_it)
        check_count("workers", self.workers)
        check_count("seed", self.seed, 0)
        if not isinstance(self.record_trace, (bool, np.bool_)):
            raise ValueError(f"record_trace must be a bool, got {self.record_trace!r}")
        _check_ansatz(self.hidden, self.colloc, self.node_kind, self.weight_bounds)


@dataclass
class PararealResult:
    """Final iterate plus everything needed to re-evaluate or audit the run."""

    mesh: TimeMesh
    node_states: np.ndarray
    thetas: list[np.ndarray]
    bases: list[RpnnBasis]
    iterations: int
    error_history: list[float]
    converged: bool
    timings: dict
    # One report per interval per sweep: an interval whose node state is
    # unchanged is not retrained and repeats its previous report, so a sum of
    # `iterations` counts that training again.
    train_reports: list[list[TrainReport]]
    trace: list[np.ndarray] | None = None


def correction_step(x_fine: np.ndarray, x_coarse_new: np.ndarray,
                    x_coarse_prev: np.ndarray) -> np.ndarray:
    """Predictor-corrector update: fine value plus the coarse increment.

    The coarse difference is formed first so that an unchanged coarse value
    telescopes away bitwise.
    """
    if not (x_fine.shape == x_coarse_new.shape == x_coarse_prev.shape):
        raise ValueError("correction operands must share one shape")
    return x_fine + (x_coarse_new - x_coarse_prev)


def stopping_error(current_nodes: np.ndarray, previous_nodes: np.ndarray) -> float:
    """Largest Euclidean difference over the non-initial mesh nodes.

    One norm per node: the batched ``axis=1`` norm can differ in the last ulp.
    """
    current = np.asarray(current_nodes, dtype=float)
    previous = np.asarray(previous_nodes, dtype=float)
    if current.shape != previous.shape:
        raise ValueError("iterates must share one shape")
    return max([0.0, *(float(np.linalg.norm(c - p))
                       for c, p in zip(current[1:], previous[1:]))])


def _interval_seed(seed: int, n: int) -> int:
    return int(np.random.SeedSequence((seed, n)).generate_state(1)[0])


class _CoarseTrainer:
    """Per-interval bases, weights, and memoized training results.

    One basis is sampled per distinct interval length (bitwise key) and reused
    across all iterations; weights warm-start from the interval's previous
    ones.  `last[n]` holds interval n's latest (input state, coarse value,
    train report): a retrain request at a bitwise-identical input state
    returns that coarse value and report, and a corrected sweep reads the
    coarse value as the previous iterate's.
    """

    def __init__(self, system: OdeSystem, mesh: TimeMesh, config: PararealConfig):
        self.system = system
        self.config = config
        lengths = mesh.lengths
        by_length: dict[float, RpnnBasis] = {}
        self.bases: list[RpnnBasis] = []
        for n, length in enumerate(lengths):
            key = float(length)
            if key not in by_length:
                try:
                    by_length[key] = sample_basis(
                        config.hidden, config.colloc, key, config.node_kind,
                        config.weight_bounds, _interval_seed(config.seed, n))
                except BasisConditioningError as exc:
                    exc.interval, exc.iteration = n, 0
                    raise
            self.bases.append(by_length[key])
        self.thetas = [np.zeros((config.hidden, system.dim)) for _ in lengths]
        self.last: list[tuple[np.ndarray, np.ndarray, TrainReport] | None] = [None] * len(lengths)

    def train_and_step(self, n: int, x: np.ndarray, iteration: int
                       ) -> tuple[np.ndarray, TrainReport]:
        """Train interval n at state x and return (coarse endpoint, report).

        In the zeroth sweep (iteration 0) the weights start from the previous
        interval's, when it shares the basis.
        """
        last = self.last[n]
        if last is not None and np.array_equal(last[0], x):
            return last[1], last[2]
        basis = self.bases[n]
        theta_init = self.thetas[n]
        if iteration == 0 and n > 0 and self.bases[n - 1] is basis:
            # Weights only transfer between intervals sharing the basis.
            theta_init = self.thetas[n - 1]
        try:
            theta, report = train_coarse(basis, x, self.system, theta_init,
                                         self.config.lm)
        except TrainingError as exc:
            exc.interval, exc.iteration = n, iteration
            raise
        coarse = eval_network(basis, theta, x, basis.dt)
        self.thetas[n] = theta
        self.last[n] = (x.copy(), coarse, report)
        return coarse, report

    def sweep(self, x0: np.ndarray, iteration: int, fine_values: np.ndarray | None = None
              ) -> tuple[np.ndarray, list[TrainReport]]:
        """One sequential coarse sweep from x0; returns the nodes and train reports.

        Without fine values (the zeroth sweep) each node is the coarse value
        of the interval before it.  With them each node is the
        predictor-corrector update of that interval's fine value by its new
        and previous coarse values.
        """
        nodes = np.empty((len(self.bases) + 1, self.system.dim))
        nodes[0] = x0
        reports: list[TrainReport] = []
        for n in range(len(self.bases)):
            last = self.last[n]  # the previous iterate's, before training replaces it
            coarse, report = self.train_and_step(n, nodes[n], iteration)
            nodes[n + 1] = (coarse if fine_values is None
                            else correction_step(fine_values[n], coarse, last[1]))
            reports.append(report)
        return nodes, reports


def zeroth_iterate(
    system: OdeSystem, x0: np.ndarray, mesh: TimeMesh, config: PararealConfig
) -> tuple[np.ndarray, _CoarseTrainer, list[TrainReport]]:
    """Sequential coarse sweep producing starting values for every interval.

    Returns the node states (each one the coarse endpoint of the interval
    before it), the trainer holding the bases and weights, and the
    per-interval train reports.
    """
    trainer = _CoarseTrainer(system, mesh, config)
    nodes, reports = trainer.sweep(np.asarray(x0, dtype=float), iteration=0)
    return nodes, trainer, reports


def parareal_solve(
    system: OdeSystem,
    x0: np.ndarray,
    mesh: TimeMesh,
    config: PararealConfig,
) -> PararealResult:
    """Run the hybrid Parareal iteration to tolerance or the iteration cap.

    The fine sweep of iteration i consumes only iterate i-1's nodes, never
    in-flight values, preserving the parallel structure of the algorithm.
    """
    x0 = np.asarray(x0, dtype=float)
    lengths = mesh.lengths
    for length in lengths:
        step_count(float(length), config.fine.dt)  # validate divisibility early

    t_start = time.perf_counter()
    prev_nodes, trainer, zeroth_reports = zeroth_iterate(system, x0, mesh, config)
    t_zeroth = time.perf_counter() - t_start

    error_history: list[float] = []
    train_reports: list[list[TrainReport]] = [zeroth_reports]
    trace = [prev_nodes.copy()] if config.record_trace else None
    fine_time = 0.0
    coarse_time = 0.0

    error = config.tol + 1.0
    i = 1
    while i < config.max_it and error > config.tol:
        tic = time.perf_counter()
        fine_values = np.empty((mesh.n_intervals, system.dim))
        for n, length in enumerate(lengths):
            try:
                fine_values[n] = fine_propagate(system, prev_nodes[n], float(length),
                                                config.fine)
            except SolverError as exc:
                exc.interval, exc.iteration = n, i
                raise
        fine_time += time.perf_counter() - tic

        tic = time.perf_counter()
        new_nodes, iteration_reports = trainer.sweep(x0, i, fine_values)
        error = stopping_error(new_nodes, prev_nodes)
        coarse_time += time.perf_counter() - tic

        prev_nodes = new_nodes
        error_history.append(error)
        train_reports.append(iteration_reports)
        if trace is not None:
            trace.append(prev_nodes.copy())
        i += 1

    total = time.perf_counter() - t_start
    return PararealResult(
        mesh=mesh,
        node_states=prev_nodes,
        thetas=list(trainer.thetas),
        bases=list(trainer.bases),
        iterations=i - 1,
        error_history=error_history,
        converged=bool(error <= config.tol),
        timings={
            "zeroth_sweep": t_zeroth,
            "fine_sweeps": fine_time,
            "coarse_sweeps": coarse_time,
            "total": total,
        },
        train_reports=train_reports,
        trace=trace,
    )


def evaluate_piecewise(result: PararealResult, t) -> np.ndarray:
    """Evaluate the piecewise-smooth approximant of the final iterate at t.

    For t in [t_n, t_{n+1}) this is the interval-n network started at the
    final node state; at t = t_N it is the final node state itself.  For an
    array of times the states are stacked rowwise, one network call per
    interval, each row bitwise the value at that time alone.
    """
    nodes_t = result.mesh.nodes
    ts = np.asarray(t, dtype=float)
    inside = (nodes_t[0] <= ts) & (ts <= nodes_t[-1])
    if not np.all(inside):
        raise ValueError(f"t={ts[~inside].flat[0]} outside [{nodes_t[0]}, {nodes_t[-1]}]")
    interval = np.searchsorted(nodes_t, ts, side="right") - 1
    out = np.empty(ts.shape + result.node_states.shape[1:])
    for n in set(interval.ravel().tolist()):  # np.unique would import numpy.ma, ~2 MB
        rows = interval == n
        if n == result.mesh.n_intervals:
            out[rows] = result.node_states[-1]
        else:
            out[rows] = eval_network(result.bases[n], result.thetas[n],
                                     result.node_states[n], ts[rows] - nodes_t[n])
    return out
