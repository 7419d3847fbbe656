"""Bitwise fingerprint of the solver's output on the benchmark workloads.

    python3 tools/fingerprint.py [NAME ...]

Builds each named workload of ``bench/workloads.py`` (all three by
default), imported as it stands, with the package from this checkout's
``src/``.  It runs ``parareal_solve`` on the workload's solver settings and
the CLI run with certificates, and prints sha256 digests of

* every training's weights and ``TrainReport``, in the order the solver ran
  them (a memoized repeat is not a training), with their count;
* the final node states;
* each CLI artifact but ``timings.json``, with ``meta.json`` read without
  its ``out_dir``.

The first line gives numpy's version and the BLAS thread settings: the bits
of a training depend on the BLAS thread count.  To check that a change keeps
every bit, run this file in both checkouts (copy it into the other one if
it has none) at the same thread settings and compare the output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def blas_settings() -> str:
    import numpy as np

    threads = ", ".join(f"{name}={os.environ[name]}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                        if name in os.environ)
    return f"numpy {np.__version__}; BLAS threads: {threads or 'not set'}"


def fingerprint(workload) -> dict[str, str]:
    """Digests of one built workload (`workloads.build`), by what they cover.

    The CLI run writes to the workload's `out_dir`.
    """
    from rpnn_parareal import parareal
    from rpnn_parareal.cli import run_experiment

    trainings = []
    train = parareal.train_coarse

    def recorded(*args, **kwargs):
        theta, report = train(*args, **kwargs)
        trainings.append(theta.tobytes() + repr(dataclasses.astuple(report)).encode())
        return theta, report

    parareal.train_coarse = recorded
    try:
        result = parareal.parareal_solve(workload.system, workload.x0, workload.mesh,
                                         workload.solver)
    finally:
        parareal.train_coarse = train
    digests = {f"trainings ({len(trainings)})": _sha256(trainings),
               "nodes": _sha256([result.node_states.tobytes()])}

    out_dir = Path(run_experiment(workload.config).out_dir)
    for path in sorted(out_dir.iterdir()):
        if path.name == "timings.json":
            continue
        data = path.read_bytes()
        if path.name == "meta.json":
            meta = json.loads(data)
            del meta["config"]["out_dir"]
            data = json.dumps(meta, sort_keys=True).encode()
        digests[path.name] = _sha256([data])
    return digests


def main(argv: list[str]) -> None:
    sys.path.insert(0, str(BENCH))
    import workloads

    print(blas_settings())
    with tempfile.TemporaryDirectory() as tmp:
        for name in argv or list(workloads.WORKLOADS):
            digests = fingerprint(workloads.build(name, Path(tmp) / name))
            for what, digest in digests.items():
                print(f"{name:16} {what:18} {digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
