"""The benchmark's workloads: CLI configurations with pinned solver seeds.

Run as a script with a workload name, this imports the package, builds that
workload and prints ``ready``; ``run.py`` times that from process start to
measure set-up.

Why these three (see README.md for the figures):

* ``arenstorf-short`` spends most of its solve in RK4 fine sweeps and little
  in training, so fine-sweep work shows and coarse work hardly does;
* ``burgers-sine`` is its mirror image: matrix-free LM/CG training is nearly
  the whole solve and the fine sweep costs under one per cent;
* ``rober-reduced`` uses both layers differently from the other two: stiff
  implicit Euler with dense Newton solves, and dense LM with damping kept on
  over two interval lengths.

Each solver seed is pinned, because iterations and convergence depend on it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = {
    # The Arenstorf defaults cut to their first 12 of 125 intervals.
    "arenstorf-short": {
        "benchmark": "arenstorf",
        "t_end": 1.632,
        "mesh": {"kind": "uniform", "intervals": 12},
        "rpnn": {"seed": 0},
    },
    # The CLI's Burgers default interval length (0.02) on a shorter horizon.
    "burgers-sine": {
        "benchmark": "burgers",
        "burgers_ic": "sine",
        "t_end": 0.08,
        "mesh": {"kind": "uniform", "intervals": 4},
        "rpnn": {"seed": 11},
    },
    # The reduced block mesh and fine step the acceptance tests use.
    "rober-reduced": {
        "benchmark": "rober",
        "t_end": 10.0,
        "mesh": {"kind": "blocks", "blocks": [[0.0, 1.0, 10], [1.0, 10.0, 5]]},
        "fine": {"dt": 1e-3},
        "rpnn": {"seed": 1},
    },
}

# serial_solve calls per round, so that each round times 0.2 to 0.3 s of
# serial work: a Burgers serial solve takes 3 ms.
SERIAL_REPEATS = {"arenstorf-short": 2, "burgers-sine": 80, "rober-reduced": 2}


@dataclass
class Workload:
    name: str
    config: object  # cli.ExperimentConfig of the CLI run, certificates on
    system: object  # OdeSystem
    x0: object
    mesh: object  # TimeMesh
    solver: object  # PararealConfig equal to the one the CLI run builds


def build(name: str, out_dir: Path) -> Workload:
    """Import the package and build the workload through its public functions."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rpnn_parareal import (FineMethod, LmOptions, NewtonOptions,
                               PararealConfig, TimeMesh, make_benchmark)
    from rpnn_parareal.cli import ExperimentConfig
    from rpnn_parareal.problems import default_initial_state

    config = ExperimentConfig.from_dict(
        {**WORKLOADS[name], "certify": True, "out_dir": str(out_dir)})
    system = make_benchmark(config.benchmark, config.params or None)
    x0 = default_initial_state(
        config.benchmark, {**config.params, "initial_condition": config.burgers_ic})
    if config.mesh["kind"] == "uniform":
        mesh = TimeMesh.uniform(config.t0, config.t_end, int(config.mesh["intervals"]))
    else:
        mesh = TimeMesh.from_blocks([(float(a), float(b), int(n))
                                     for a, b, n in config.mesh["blocks"]])
    fine = FineMethod(
        kind=config.fine["kind"],
        dt=float(config.fine["dt"]),
        newton=NewtonOptions(tol=float(config.fine["newton_tol"]),
                             max_iter=int(config.fine["newton_max_iter"])),
    )
    rpnn = config.rpnn
    solver = PararealConfig(
        fine=fine,
        tol=config.tol,
        max_it=config.max_it,
        hidden=int(rpnn["hidden"]),
        colloc=int(rpnn["colloc"]),
        node_kind=rpnn["node_kind"],
        weight_bounds=tuple(rpnn["bounds"]),
        seed=int(rpnn["seed"]),
        workers=config.workers,
        lm=LmOptions(floor_to_gauss_newton=bool(rpnn["gauss_newton_floor"])),
    )
    return Workload(name, config, system, x0, mesh, solver)


if __name__ == "__main__":
    build(sys.argv[1], ROOT / "bench" / "out" / sys.argv[1])
    print("ready", flush=True)
