"""Experiment runner: config parsing, solver invocation, and run artifacts.

A run executes the parallel-in-time solver `repeats` times on one benchmark,
timing the phases of each solve; the first solve provides the result, which
is compared against the sequential fine reference and written out as CSV/JSON
artifacts suitable for plotting.

Output files (all CSVs carry a header row; floats are printed with 17
significant digits so parsing reproduces the in-memory values bitwise):

* ``nodes.csv``      final node states: t, one column per state component
  (for the rober benchmark an extra ``x2_scaled_1e4`` column is appended)
* ``dense.csv``      piecewise-smooth evaluation on a uniform time grid
* ``errors.csv``     per-iteration stopping error
* ``reference.csv``  node states of the sequential fine solve
* ``compare.csv``    per-node Euclidean and max-abs deviation from reference
* ``timings.json``   per-phase wall-clock statistics over the ``repeats`` solves
* ``meta.json``      config echo, seeds, basis conditioning, train reports,
  certificates (with ``--certify``), comparison maxima

Exit codes: 0 success, 2 config error, 3 iteration cap hit without meeting
the tolerance, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import field_log_norm_bound, quadrature_certificate
from .collocation import LmOptions, collocation_grid
from .integrators import FineMethod, NewtonOptions, SolverError, serial_solve
from .parareal import PararealConfig, PararealResult, TimeMesh, evaluate_piecewise, parareal_solve
from .problems import (
    BENCHMARK_NAMES,
    default_initial_state,
    make_benchmark,
)
from .rpnn import eval_network_many


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Benchmark setups: coarse/fine step sizes and horizons used throughout the
# experiment suite.  The sir horizon T=10 is a repo choice (the setup fixes
# only the step sizes), documented in the README.
#
# Training mode per benchmark: the non-stiff problems fit best with the
# undamped floor step (gauss_newton_floor), while the stiff ones need the
# damped floor so under-resolved transients stay regularized.  Arenstorf's
# iteration cap is raised: contraction on the close-approach orbit is slower
# with this damping schedule than the 20-sweep setup assumes.
_BENCH_DEFAULTS: dict[str, dict] = {
    "sir": {
        "t_end": 10.0,
        "mesh": {"kind": "uniform", "intervals": 10},
        "fine": {"kind": "rk4", "dt": 1e-2},
        "gauss_newton_floor": True,
    },
    "rober": {
        "t_end": 100.0,
        "mesh": {"kind": "blocks", "blocks": [[0.0, 1.0, 100], [1.0, 100.0, 33]]},
        "fine": {"kind": "implicit-euler", "dt": 1e-4},
        "gauss_newton_floor": False,
    },
    "lorenz": {
        "t_end": 10.0,
        "mesh": {"kind": "uniform", "intervals": 250},
        "fine": {"kind": "rk4", "dt": 10.0 / 14500.0},
        "gauss_newton_floor": True,
    },
    "arenstorf": {
        "t_end": 17.0,
        "mesh": {"kind": "uniform", "intervals": 125},
        "fine": {"kind": "rk4", "dt": 17.0 / 80000.0},
        "gauss_newton_floor": True,
        "max_it": 40,
    },
    "brusselator": {
        "t_end": 12.0,
        "mesh": {"kind": "uniform", "intervals": 32},
        "fine": {"kind": "rk4", "dt": 12.0 / 640.0},
        "gauss_newton_floor": True,
    },
    "burgers": {
        "t_end": 1.0,
        "mesh": {"kind": "uniform", "intervals": 50},
        "fine": {"kind": "implicit-euler", "dt": 1.0 / 500.0},
        "gauss_newton_floor": False,
    },
}

_CONFIG_KEYS = {
    "benchmark", "params", "initial_state", "burgers_ic", "t0", "t_end",
    "mesh", "fine", "rpnn", "tol", "max_it", "repeats", "workers",
    "out_dir", "certify", "trace", "dense_samples",
}


@dataclass
class ExperimentConfig:
    benchmark: str
    t_end: float
    mesh: dict
    fine: dict
    params: dict = dc_field(default_factory=dict)
    initial_state: list | None = None
    burgers_ic: str = "sine"
    t0: float = 0.0
    rpnn: dict = dc_field(default_factory=lambda: {
        "hidden": 5, "colloc": 5, "node_kind": "uniform",
        "bounds": [-1.0, 1.0], "seed": None,
    })
    tol: float = 1e-4
    max_it: int = 20
    repeats: int = 1
    workers: int = 1
    out_dir: str = "runs"
    certify: bool = False
    trace: bool = False
    dense_samples: int = 1000

    def to_dict(self) -> dict:
        return json.loads(json.dumps(dataclasses.asdict(self)))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "benchmark" not in data:
            raise ConfigError("config needs a 'benchmark' key")
        benchmark = data["benchmark"]
        if benchmark not in BENCHMARK_NAMES:
            raise ConfigError(f"unknown benchmark {benchmark!r}")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = benchmark_defaults(benchmark)
        for key, value in data.items():
            if key in ("fine", "rpnn", "mesh") and isinstance(value, dict):
                merged[key] = {**merged[key], **value}
            else:
                merged[key] = value
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.benchmark not in BENCHMARK_NAMES:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if not (np.isfinite(self.t0) and np.isfinite(self.t_end) and self.t0 < self.t_end):
            raise ConfigError("need finite t0 < t_end")
        kind = self.mesh.get("kind")
        if kind == "uniform":
            if int(self.mesh.get("intervals", 0)) < 1:
                raise ConfigError("uniform mesh needs intervals >= 1")
        elif kind == "blocks":
            blocks = self.mesh.get("blocks")
            if not blocks:
                raise ConfigError("block mesh needs a nonempty 'blocks' list")
        else:
            raise ConfigError(f"unknown mesh kind {kind!r}")
        if self.fine.get("kind") not in ("rk4", "implicit-euler"):
            raise ConfigError(f"unknown fine method {self.fine.get('kind')!r}")
        if not float(self.fine.get("dt", 0)) > 0:
            raise ConfigError("fine dt must be positive")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.max_it < 1 or self.repeats < 1 or self.workers < 1:
            raise ConfigError("max_it, repeats and workers must be >= 1")
        if self.dense_samples < 2:
            raise ConfigError("dense_samples must be >= 2")
        if self.initial_state is not None and not np.all(np.isfinite(self.initial_state)):
            raise ConfigError("initial_state must be finite")


def benchmark_defaults(name: str) -> dict:
    if name not in _BENCH_DEFAULTS:
        raise ConfigError(f"unknown benchmark {name!r}")
    base = json.loads(json.dumps(_BENCH_DEFAULTS[name]))  # deep copy
    return {
        "benchmark": name,
        "params": {},
        "initial_state": None,
        "burgers_ic": "sine",
        "t0": 0.0,
        "t_end": base["t_end"],
        "mesh": base["mesh"],
        "fine": {"newton_tol": 1e-12, "newton_max_iter": 50, **base["fine"]},
        "rpnn": {"hidden": 5, "colloc": 5, "node_kind": "uniform",
                 "bounds": [-1.0, 1.0], "seed": None,
                 "gauss_newton_floor": base["gauss_newton_floor"]},
        "tol": 1e-4,
        "max_it": base.get("max_it", 20),
        "repeats": 1,
        "workers": 1,
        "out_dir": f"runs/{name}",
        "certify": False,
        "trace": False,
        "dense_samples": 1000,
    }


def _build_mesh(config: ExperimentConfig) -> TimeMesh:
    if config.mesh["kind"] == "uniform":
        return TimeMesh.uniform(config.t0, config.t_end, int(config.mesh["intervals"]))
    blocks = [(float(a), float(b), int(n)) for a, b, n in config.mesh["blocks"]]
    try:
        return TimeMesh.from_blocks(blocks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_problem(config: ExperimentConfig):
    try:
        system = make_benchmark(config.benchmark, config.params or None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.initial_state is not None:
        x0 = np.asarray(config.initial_state, dtype=float)
        if x0.shape != (system.dim,):
            raise ConfigError(
                f"initial_state has length {len(x0)}, benchmark dimension is {system.dim}"
            )
    else:
        x0 = default_initial_state(
            config.benchmark,
            {**config.params, "initial_condition": config.burgers_ic},
        )
    return system, x0


# ---------------------------------------------------------------------------
# Comparison and timing helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Per-node deviation between two node trajectories, plus global maxima."""

    euclidean: np.ndarray
    max_abs: np.ndarray
    max_euclidean: float
    global_max_abs: float


def compare_with_serial(parareal_nodes: np.ndarray, serial_nodes: np.ndarray) -> ComparisonTable:
    p = np.asarray(parareal_nodes, dtype=float)
    s = np.asarray(serial_nodes, dtype=float)
    if p.shape != s.shape:
        raise ValueError(f"node arrays differ in shape: {p.shape} vs {s.shape}")
    diff = p - s
    euclid = np.linalg.norm(diff, axis=1)
    max_abs = np.max(np.abs(diff), axis=1)
    return ComparisonTable(euclid, max_abs, float(np.max(euclid)), float(np.max(max_abs)))


def _stats(values: list[float]) -> dict:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return {"mean": mean, "min": min(values), "max": max(values),
            "stddev": math.sqrt(var)}


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------


@dataclass
class RunArtifact:
    out_dir: Path
    result: PararealResult
    reference: np.ndarray
    comparison: ComparisonTable
    timings: dict
    meta: dict
    files: dict


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _state_rows(times: np.ndarray, states: np.ndarray, scale_x2: bool):
    for t, state in zip(times, states):
        row = [t, *state]
        if scale_x2:
            row.append(1e4 * state[1])
        yield row


def _certificates(system, result: PararealResult, node_kind: str) -> list[dict]:
    out = []
    for n, (basis, theta) in enumerate(zip(result.bases, result.thetas)):
        x_n = result.node_states[n]
        grid = collocation_grid(node_kind, basis.colloc, basis.dt)
        ts = np.linspace(0.0, basis.dt, 21)
        samples = eval_network_many(basis, theta, x_n, ts)
        states = np.vstack([samples, result.node_states[n : n + 2]])
        log_norm = field_log_norm_bound(system, states)
        cert = quadrature_certificate(basis, theta, x_n, system, grid, log_norm)
        out.append({"interval": n, **cert.to_dict()})
    return out


def run_experiment(config: ExperimentConfig) -> RunArtifact:
    """Solve `repeats` times, compare the first with the serial reference, write artifacts."""
    system, x0 = _build_problem(config)
    mesh = _build_mesh(config)
    rpnn = config.rpnn
    pinned = rpnn.get("seed") is not None
    base_seed = int(rpnn["seed"]) if pinned else int(np.random.SeedSequence().generate_state(1)[0])
    fine = FineMethod(
        kind=config.fine["kind"],
        dt=float(config.fine["dt"]),
        newton=NewtonOptions(
            tol=float(config.fine.get("newton_tol", 1e-12)),
            max_iter=int(config.fine.get("newton_max_iter", 50)),
        ),
    )
    pconfig = PararealConfig(
        fine=fine,
        tol=config.tol,
        max_it=config.max_it,
        hidden=int(rpnn.get("hidden", 5)),
        colloc=int(rpnn.get("colloc", 5)),
        node_kind=rpnn.get("node_kind", "uniform"),
        weight_bounds=tuple(rpnn.get("bounds", (-1.0, 1.0))),
        seed=base_seed,
        record_trace=config.trace,
        workers=config.workers,
        lm=LmOptions(
            floor_to_gauss_newton=bool(rpnn.get("gauss_newton_floor", False))
        ),
    )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta: dict = {
        "config": config.to_dict(),
        "version": __version__,
        "seed": base_seed,
        "seed_pinned": pinned,
        "state_labels": list(system.labels),
    }

    try:
        # The artifact solve is also the first timed solve.
        result = parareal_solve(system, x0, mesh, pconfig)
    except SolverError as exc:
        meta["failure"] = {"type": type(exc).__name__, "message": str(exc)}
        with open(out_dir / "meta.json", "w") as handle:
            json.dump(meta, handle, indent=2)
        raise

    tic = time.perf_counter()
    reference = serial_solve(system, x0, mesh, fine)
    serial_time = time.perf_counter() - tic
    comparison = compare_with_serial(result.node_states, reference)

    repeat_seeds = [base_seed]
    solve_timings = [result.timings]
    for r in range(1, config.repeats):
        seed_r = base_seed if pinned else int(
            np.random.SeedSequence((base_seed, 0xA11CE, r)).generate_state(1)[0]
        )
        repeat_seeds.append(seed_r)
        cfg_r = dataclasses.replace(pconfig, seed=seed_r, record_trace=False)
        solve_timings.append(parareal_solve(system, x0, mesh, cfg_r).timings)
    phase_samples = {
        key: [t[key] for t in solve_timings]
        for key in ("zeroth_sweep", "fine_sweeps", "coarse_sweeps", "total")
    }
    coarse_step_means = [
        float(np.mean(t["zeroth_train_per_interval"])) for t in solve_timings
    ]

    timings = {
        "repeats": config.repeats,
        "phases": {key: _stats(values) for key, values in phase_samples.items()},
        "avg_coarse_step_zeroth": _stats(coarse_step_means),
        "total_average": _stats(phase_samples["total"])["mean"],
        "serial_reference": serial_time,
    }

    scale_x2 = config.benchmark == "rober"
    labels = list(system.labels)
    node_header = ["t", *labels] + (["x2_scaled_1e4"] if scale_x2 else [])
    files = {
        "nodes": out_dir / "nodes.csv",
        "dense": out_dir / "dense.csv",
        "errors": out_dir / "errors.csv",
        "reference": out_dir / "reference.csv",
        "compare": out_dir / "compare.csv",
        "timings": out_dir / "timings.json",
        "meta": out_dir / "meta.json",
    }
    _write_csv(files["nodes"], node_header,
               _state_rows(mesh.nodes, result.node_states, scale_x2))
    dense_ts = np.linspace(mesh.nodes[0], mesh.nodes[-1], config.dense_samples)
    _write_csv(files["dense"], ["t", *labels],
               ([t, *evaluate_piecewise(result, float(t))] for t in dense_ts))
    _write_csv(files["errors"], ["iteration", "stopping_error"],
               ((i + 1, err) for i, err in enumerate(result.error_history)))
    _write_csv(files["reference"], ["t", *labels],
               _state_rows(mesh.nodes, reference, False))
    _write_csv(files["compare"], ["node", "t", "euclidean_error", "max_abs_error"],
               ((n, t, e, m) for n, (t, e, m) in enumerate(
                   zip(mesh.nodes, comparison.euclidean, comparison.max_abs))))

    meta.update(
        converged=result.converged,
        iterations=result.iterations,
        error_history=result.error_history,
        repeat_seeds=repeat_seeds,
        bases=[
            {"interval": n, "dt": b.dt, "seed": b.seed, "cond": b.cond,
             "resamples": b.resamples}
            for n, b in enumerate(result.bases)
        ],
        weights=[theta.tolist() for theta in result.thetas],
        inner_weights=[
            {"a": b.a.tolist(), "b": b.b.tolist()} for b in result.bases
        ],
        train_reports=[
            [report.to_dict() for report in sweep] for sweep in result.train_reports
        ],
        comparison={
            "max_euclidean": comparison.max_euclidean,
            "max_abs": comparison.global_max_abs,
        },
    )
    if config.certify:
        meta["certificates"] = _certificates(system, result, pconfig.node_kind)
    with open(files["timings"], "w") as handle:
        json.dump(timings, handle, indent=2)
    with open(files["meta"], "w") as handle:
        json.dump(meta, handle, indent=2)
    return RunArtifact(out_dir, result, reference, comparison, timings, meta, files)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpnn-parareal",
        description="Parallel-in-time benchmark runner with a trained coarse propagator",
    )
    parser.add_argument("--benchmark", choices=BENCHMARK_NAMES,
                        help="benchmark to run (provides all defaults)")
    parser.add_argument("--config", type=str, help="JSON config file")
    parser.add_argument("--out", type=str, help="output directory")
    parser.add_argument("--seed", type=int, help="pin the inner-weight seed")
    parser.add_argument("--workers", type=int,
                        help="accepted for compatibility; has no effect, the fine "
                             "sweep runs in the calling thread")
    parser.add_argument("--repeats", type=int,
                        help="timed solves; the first also provides the artifacts")
    parser.add_argument("--certify", action="store_true",
                        help="attach per-interval error certificates to meta.json")
    parser.add_argument("--trace", action="store_true",
                        help="record per-iteration node arrays")
    parser.add_argument("--tol", type=float, help="stopping tolerance")
    parser.add_argument("--max-it", type=int, help="iteration cap")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    if args.benchmark:
        data["benchmark"] = args.benchmark
    if args.out is not None:
        data["out_dir"] = args.out
    if args.seed is not None:
        data.setdefault("rpnn", {})["seed"] = args.seed
    if args.workers is not None:
        data["workers"] = args.workers
    if args.repeats is not None:
        data["repeats"] = args.repeats
    if args.certify:
        data["certify"] = True
    if args.trace:
        data["trace"] = True
    if args.tol is not None:
        data["tol"] = args.tol
    if args.max_it is not None:
        data["max_it"] = args.max_it
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        artifact = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    result = artifact.result
    print(f"benchmark          : {config.benchmark}")
    print(f"state ordering     : {', '.join(artifact.meta['state_labels'])}")
    print(f"iterations         : {result.iterations}")
    print(f"converged          : {result.converged}")
    print(f"max node error vs serial reference: {artifact.comparison.max_euclidean:.3e}")
    print(f"artifacts          : {artifact.out_dir}")
    if not result.converged:
        print("iteration cap reached before meeting the tolerance", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
