"""Experiment runner: config parsing, solver invocation, and run artifacts.

A config is a JSON object overlaid on one benchmark's defaults
(`benchmark_defaults`); `build_solver` turns it into the system, initial
state, mesh and solver settings, and is also what validates it.  A run
solves once with the parallel-in-time solver, timing its phases, solves the
sequential fine reference, computes the certificates (with ``--certify``)
and only then writes CSV/JSON artifacts suitable for plotting.

Output files (all CSVs carry a header row; floats are printed with 17
significant digits so parsing reproduces the in-memory values bitwise):

* ``nodes.csv``      final node states: t, one column per state component
  (for the rober benchmark an extra ``x2_scaled_1e4`` column is appended)
* ``dense.csv``      piecewise-smooth evaluation on a uniform time grid, one
  network call per interval
* ``errors.csv``     per-iteration stopping error
* ``reference.csv``  node states of the sequential fine solve
* ``compare.csv``    per-node Euclidean and max-abs deviation from reference
* ``timings.json``   phase wall-clock times of the solve, its zeroth sweep's
  mean time per interval, and the serial reference time
* ``meta.json``      config echo, seeds, basis conditioning, train reports,
  certificates (with ``--certify``), comparison maxima

Both JSON files are strict JSON: a non-finite number (a vacuous certificate
bound, say) is written as ``null``.

Exit codes: 0 success, 2 config error (nothing is written), 3 iteration cap
hit without meeting the tolerance, 4 numerical failure (a failed fine step,
training run, basis sampling or certificate).  A numerical failure in the
Parareal solve, the serial reference solve or the certificates writes only
``meta.json``, whose ``failure`` block names the phase (``parareal``,
``serial_reference`` or ``certificates``), the exception's type and
message, and the interval and iteration it carries (``null`` when it
carries none); it first removes the other files of an earlier run in the
same directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import field_log_norm_bound, quadrature_certificate
from .collocation import LmOptions, collocation_grid
from .integrators import FineMethod, NewtonOptions, SolverError, serial_solve, step_count
from .parareal import PararealConfig, PararealResult, TimeMesh, evaluate_piecewise, parareal_solve
from .problems import BENCHMARK_NAMES, OdeSystem, default_initial_state, make_benchmark
from .rpnn import eval_network_many


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Benchmark setups: coarse/fine step sizes and horizons used throughout the
# experiment suite.  The sir horizon T=10 is a repo choice (the setup fixes
# only the step sizes), documented in the README.
#
# Training mode per benchmark (gauss_newton_floor): the non-stiff problems and
# Burgers make the exact fit, Newton's method on the square collocation
# system, while rober makes the regularized fit, damped throughout, because
# the exact fit of its under-resolved transient has weights of order 1e7 and
# stalls the fine implicit-Euler Newton iteration that starts from it.
# Arenstorf's iteration cap is raised: contraction on the close-approach
# orbit is slower than the 20-sweep setup assumes.
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
        "gauss_newton_floor": True,
    },
}

# Each mesh kind and the key holding its size.
_MESH_SIZE_KEYS = {"uniform": "intervals", "blocks": "blocks"}


@dataclass
class ExperimentConfig:
    """One run's settings; `from_dict` fills every field from `benchmark_defaults`."""

    benchmark: str
    t_end: float
    mesh: dict
    fine: dict
    params: dict
    initial_state: list | None
    burgers_ic: str
    t0: float
    rpnn: dict
    tol: float
    max_it: int
    workers: int
    out_dir: str
    certify: bool
    dense_samples: int

    def to_dict(self) -> dict:
        return json.loads(json.dumps(dataclasses.asdict(self)))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Overlay `data` on the benchmark's defaults and validate the result.

        The `mesh`, `fine` and `rpnn` objects are merged key by key.  Keys
        the defaults do not name are rejected at both levels, except that a
        mesh may switch kind and so take `intervals` or `blocks`.
        """
        if "benchmark" not in data:
            raise ConfigError("config needs a 'benchmark' key")
        merged = benchmark_defaults(data["benchmark"])
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if isinstance(merged[key], dict) and not isinstance(value, dict):
                raise ConfigError(f"{key!r} must be an object")
            if key in ("mesh", "fine", "rpnn"):
                allowed = set(merged[key])
                if key == "mesh":
                    allowed = {"kind", *_MESH_SIZE_KEYS.values()}
                unknown = set(value) - allowed
                if unknown:
                    raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
                value = {**merged[key], **value}
            merged[key] = value
        config = cls(**merged)
        build_solver(config)
        return config


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def benchmark_defaults(name: str) -> dict:
    """Every config key with its default value for one benchmark."""
    if name not in BENCHMARK_NAMES:
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
        "workers": 1,
        "out_dir": f"runs/{name}",
        "certify": False,
        "dense_samples": 1000,
    }


def _integer(name: str, value, minimum: int) -> int:
    """`value` as an int; an integral float such as 10.0 counts, 10.5 does not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value % 1 != 0 or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(name: str, value):
    """`value` if it is a real number; a bool or a string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _reals(name: str, values) -> list:
    """`values` if it is a list (or tuple) of real numbers, as a list."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of real numbers, got {values!r}")
    return [_real(f"{name} entry", value) for value in values]


def _boolean(name: str, value) -> bool:
    """`value` if it is a bool; JSON `true` and `false` are, "false" and 0 are not."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def build_solver(config: ExperimentConfig
                 ) -> tuple[OdeSystem, np.ndarray, TimeMesh, PararealConfig]:
    """Map a config to the system, initial state, mesh and solver settings.

    The objects built check their own arguments; this adds the checks that
    span several of them (fine-step divisibility, state length) or that no
    object makes (integer settings are integral, real ones are numbers and
    switches are bools, a certified run's grid has quadrature weights).
    Any ValueError or TypeError becomes a ConfigError.
    An unpinned seed is drawn fresh here; nothing is sampled or solved.
    """
    try:
        system = make_benchmark(config.benchmark, config.params or None)
        if config.initial_state is None:
            x0 = default_initial_state(
                config.benchmark,
                {**config.params, "initial_condition": config.burgers_ic},
            )
        else:
            x0 = np.asarray(_reals("initial_state", config.initial_state), dtype=float)
            if x0.shape != (system.dim,):
                raise ValueError(f"initial_state has shape {x0.shape}, "
                                 f"benchmark dimension is {system.dim}")
            if not np.all(np.isfinite(x0)):
                raise ValueError("initial_state must be finite")

        t0, t_end = _real("t0", config.t0), _real("t_end", config.t_end)
        kind = config.mesh["kind"]
        if kind not in _MESH_SIZE_KEYS:
            raise ValueError(f"unknown mesh kind {kind!r}")
        if _MESH_SIZE_KEYS[kind] not in config.mesh:
            raise ValueError(f"{kind} mesh needs {_MESH_SIZE_KEYS[kind]!r}")
        if kind == "uniform":
            mesh = TimeMesh.uniform(t0, t_end,
                                    _integer("mesh intervals", config.mesh["intervals"], 1))
        else:
            mesh = TimeMesh.from_blocks(
                [(float(_real("mesh block start", a)), float(_real("mesh block end", b)),
                  _integer("mesh block count", n, 1))
                 for a, b, n in config.mesh["blocks"]])
            span = (float(mesh.nodes[0]), float(mesh.nodes[-1]))
            if span != (t0, t_end):
                raise ValueError(f"mesh blocks span {list(span)}, "
                                 f"not [t0, t_end] = {[t0, t_end]}")

        fine = FineMethod(
            kind=config.fine["kind"],
            dt=float(_real("fine dt", config.fine["dt"])),
            newton=NewtonOptions(tol=float(_real("fine newton_tol", config.fine["newton_tol"])),
                                 max_iter=_integer("fine newton_max_iter",
                                                   config.fine["newton_max_iter"], 1)),
        )
        for length in mesh.lengths:
            step_count(float(length), fine.dt)

        rpnn = config.rpnn
        seed = rpnn["seed"]
        solver = PararealConfig(
            fine=fine,
            tol=_real("tol", config.tol),
            max_it=_integer("max_it", config.max_it, 1),
            hidden=_integer("rpnn hidden", rpnn["hidden"], 1),
            colloc=_integer("rpnn colloc", rpnn["colloc"], 1),
            node_kind=rpnn["node_kind"],
            weight_bounds=tuple(_reals("rpnn bounds", rpnn["bounds"])),
            seed=(int(np.random.SeedSequence().generate_state(1)[0]) if seed is None
                  else _integer("rpnn seed", seed, 0)),
            workers=_integer("workers", config.workers, 1),
            lm=LmOptions(floor_to_gauss_newton=_boolean("rpnn gauss_newton_floor",
                                                        rpnn["gauss_newton_floor"])),
        )
        if _boolean("certify", config.certify):
            collocation_grid(solver.node_kind, solver.colloc, 1.0)  # the certificates' grid
        _integer("dense_samples", config.dense_samples, 2)
        if not isinstance(config.out_dir, str):
            raise TypeError("out_dir must be a string")
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return system, x0, mesh, solver


# ---------------------------------------------------------------------------
# Comparison
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


# Both writers replace an existing file rather than truncate it: on ext4 the
# truncation of a written file forces its writeback, about 50 ms a file.
def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header through csv.writer, then each row through one
    "%.17g,...\r\n" template: the bytes csv.writer writes for the row's
    values formatted as f"{float(v):.17g}", which never need quoting."""
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        template = ",".join(["%.17g"] * len(header)) + "\r\n"
        for row in rows:
            handle.write(template % tuple(row))


def _write_json(path: Path, data: dict) -> None:
    path.unlink(missing_ok=True)
    with open(path, "w") as handle:
        json.dump(_finite_or_null(data), handle, indent=2, allow_nan=False)


def _finite_or_null(value):
    """`value` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _state_rows(times: np.ndarray, states: np.ndarray, scale_x2: bool):
    for t, state in zip(times.tolist(), states):
        row = [t, *state.tolist()]
        if scale_x2:
            row.append(1e4 * row[2])
        yield row


def _certificates(system, result: PararealResult, node_kind: str) -> list[dict]:
    """One certificate per interval; a SolverError is tagged with its interval."""
    out = []
    for n, (basis, theta) in enumerate(zip(result.bases, result.thetas)):
        x_n = result.node_states[n]
        try:
            grid = collocation_grid(node_kind, basis.colloc, basis.dt)
            ts = np.linspace(0.0, basis.dt, 21)
            samples = eval_network_many(basis, theta, x_n, ts)
            states = np.vstack([samples, result.node_states[n : n + 2]])
            log_norm = field_log_norm_bound(system, states)
            cert = quadrature_certificate(basis, theta, x_n, system, grid, log_norm)
        except SolverError as exc:
            exc.interval = n
            raise
        out.append({"interval": n, **dataclasses.asdict(cert)})
    return out


def run_experiment(config: ExperimentConfig) -> RunArtifact:
    """Solve once, compare with the serial reference, write artifacts."""
    system, x0, mesh, pconfig = build_solver(config)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(out_dir)!r}: {exc}") from exc
    # Every file a run writes; a failed run removes them all, then writes meta.json.
    files = {
        "nodes": out_dir / "nodes.csv",
        "dense": out_dir / "dense.csv",
        "errors": out_dir / "errors.csv",
        "reference": out_dir / "reference.csv",
        "compare": out_dir / "compare.csv",
        "timings": out_dir / "timings.json",
        "meta": out_dir / "meta.json",
    }
    meta: dict = {
        "config": config.to_dict(),
        "version": __version__,
        "seed": pconfig.seed,
        "seed_pinned": config.rpnn["seed"] is not None,
        "state_labels": list(system.labels),
    }

    phase = "parareal"
    try:
        result = parareal_solve(system, x0, mesh, pconfig)
        phase = "serial_reference"
        tic = time.perf_counter()
        reference = serial_solve(system, x0, mesh, pconfig.fine)
        serial_time = time.perf_counter() - tic
        phase = "certificates"
        certificates = (_certificates(system, result, pconfig.node_kind)
                        if config.certify else None)
    except SolverError as exc:
        meta["failure"] = {"phase": phase, "type": type(exc).__name__,
                           "message": str(exc), "interval": exc.interval,
                           "iteration": exc.iteration}
        for path in files.values():
            path.unlink(missing_ok=True)
        _write_json(files["meta"], meta)
        raise
    comparison = compare_with_serial(result.node_states, reference)
    timings = {
        "phases": result.timings,
        "avg_coarse_step_zeroth": result.timings["zeroth_sweep"] / mesh.n_intervals,
        "serial_reference": serial_time,
    }

    scale_x2 = config.benchmark == "rober"
    labels = list(system.labels)
    node_header = ["t", *labels] + (["x2_scaled_1e4"] if scale_x2 else [])
    _write_csv(files["nodes"], node_header,
               _state_rows(mesh.nodes, result.node_states, scale_x2))
    dense_ts = np.linspace(mesh.nodes[0], mesh.nodes[-1], int(config.dense_samples))
    _write_csv(files["dense"], ["t", *labels],
               _state_rows(dense_ts, evaluate_piecewise(result, dense_ts), False))
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
            [dataclasses.asdict(report) for report in sweep] for sweep in result.train_reports
        ],
        comparison={
            "max_euclidean": comparison.max_euclidean,
            "max_abs": comparison.global_max_abs,
        },
    )
    if certificates is not None:
        meta["certificates"] = certificates
    _write_json(files["timings"], timings)
    _write_json(files["meta"], meta)
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
    parser.add_argument("--certify", action="store_true",
                        help="attach per-interval error certificates to meta.json")
    parser.add_argument("--tol", type=float, help="stopping tolerance")
    parser.add_argument("--max-it", type=int,
                        help="iteration cap, counting the zeroth sweep: at most max-it - 1 "
                             "corrected iterations, so 1 runs the zeroth sweep only and exits 3")
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
    if args.seed is not None and isinstance(data.get("rpnn", {}), dict):
        data["rpnn"] = {**data.get("rpnn", {}), "seed": args.seed}  # else from_dict rejects it
    if args.workers is not None:
        data["workers"] = args.workers
    if args.certify:
        data["certify"] = True
    if args.tol is not None:
        data["tol"] = args.tol
    if args.max_it is not None:
        data["max_it"] = args.max_it
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args)
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
