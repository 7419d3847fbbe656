"""Benchmark of the Parareal solver with a random-feature coarse map.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times whole rounds (one Parareal solve, the serial fine solve
and a CLI run with certificates) until the next round would overrun
``--seconds``, and reports each end-to-end time as its fastest round: on a
shared host, interference only ever slows a round down (see README.md).
``--trace 1`` runs one round with spans recorded at the package's layer
boundaries and times the layers' public functions one by one; it reports
the per-layer metrics and ignores ``--seconds``.

The solver seed of each workload is pinned (see workloads.py).  ``--seed``
picks the interval whose state, basis and weights feed the layer
microbenchmarks.  Every run also checks the outputs: see README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "model_parallel_s": "s", "serial_s": "s",
    "run_s": "s", "iterations": "count", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "problems.field_calls": "count", "problems.field_rows_calls": "count",
    "problems.jacobian_calls": "count", "problems.field_us": "us",
    "integrators.fine_s": "s", "integrators.fine_calls": "count",
    "integrators.fine_interval_max_ms": "ms", "integrators.rk4_step_us": "us",
    "integrators.implicit_euler_step_us": "us", "integrators.newton_iters": "count",
    "collocation.train_s": "s", "collocation.train_calls": "count",
    "collocation.lm_iters": "count", "collocation.lm_max_iter_stops": "count",
    "collocation.lm_accepted_ratio": "ratio", "collocation.cache_hits": "count",
    "collocation.residual_us": "us", "collocation.jacobian_us": "us",
    "collocation.lm_step_us": "us", "collocation.train_ms": "ms",
    "rpnn.sample_basis_us": "us", "rpnn.eval_network_us": "us",
    "parareal.zeroth_s": "s", "parareal.self_s": "s",
    "parareal.coarse_fine_ratio": "ratio", "parareal.coarse_interval_ms": "ms",
    "parareal.fine_interval_ms": "ms",
    "certificates.certify_s": "s", "certificates.field_calls": "count",
    "certificates.certificate_ms": "ms",
    "cli.solves": "count", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 15
# serial_solve against the plain-numpy integrators: same scheme and step,
# so only round-off separates them (measured: 4e-14 on Arenstorf).
REFERENCE_RTOL = 1e-11
# Finite-step exactness, as the package's own acceptance test states it.
EXACTNESS_RTOL = 1e-12
# Drift of the Arenstorf Jacobi constant over the serial solve
# (measured: 3e-9 at the default fine step).
JACOBI_DRIFT = 1e-7
ROBER_MASS_DRIFT = 1e-10

clock = time.perf_counter


class Checks:
    """Failed correctness checks, by message."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


class Ops:
    """Operations attempted and failed with a numerical error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn):
        from rpnn_parareal import SolverError

        self.attempted += 1
        try:
            return fn()
        except SolverError as exc:
            self.failed += 1
            self.fail(f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        """Count an attempted operation whose output shows a program fault."""
        self.failed += 1
        print(f"# failed: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Machine and set-up
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine(workers: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "workers": workers,
    }


def measure_setup(name: str) -> float:
    """Median time from process start until the workload is built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen([sys.executable, str(HERE / "workloads.py"), name],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(clock() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def max_node_error(nodes, other) -> float:
    return float(np.max(np.linalg.norm(np.asarray(nodes) - np.asarray(other), axis=1)))


def check_serial(wl, serial, ref, checks: Checks) -> None:
    scale = 1.0 + float(np.max(np.abs(ref)))
    diff = float(np.max(np.abs(serial - ref)))
    checks.require(diff <= REFERENCE_RTOL * scale,
                   f"serial_solve differs from the reference integrator by {diff:.3e}")
    name = wl.config.benchmark
    if name == "rober":
        drift = float(np.max(np.abs(serial.sum(axis=1) - 1.0)))
        checks.require(drift <= ROBER_MASS_DRIFT, f"ROBER mass drift {drift:.3e} on serial")
    elif name == "burgers":
        checks.require(np.all(serial[:, [0, -1]] == 0.0),
                       "Burgers boundary values are not 0 on serial")
    elif name == "arenstorf":
        jacobi = reference.jacobi_constant(serial, wl.system.params["a"])
        drift = float(np.max(np.abs(jacobi - jacobi[0])))
        checks.require(drift <= JACOBI_DRIFT, f"Jacobi constant drift {drift:.3e} on serial")


def check_solve(wl, result, serial, checks: Checks) -> None:
    """Convergence, distance to serial, and the invariants on the nodes.

    Parareal stops once no node moves by more than tol in an iteration; at
    the superlinear convergence these runs show, the remaining distance to
    the serial solve is below the last move, so tol bounds it.
    """
    tol = wl.solver.tol
    checks.require(result.converged, f"parareal_solve did not converge in {result.iterations}")
    err = max_node_error(result.node_states, serial)
    checks.require(err <= tol, f"Parareal nodes are {err:.3e} from serial (tol {tol})")
    nodes = result.node_states
    if wl.config.benchmark == "rober":
        drift = float(np.max(np.abs(nodes.sum(axis=1) - 1.0)))
        checks.require(drift <= tol, f"ROBER mass drift {drift:.3e} on Parareal nodes")
    elif wl.config.benchmark == "burgers":
        edge = float(np.max(np.abs(nodes[:, [0, -1]])))
        checks.require(edge <= tol, f"Burgers boundary value {edge:.3e} on Parareal nodes")


def check_run(wl, artifact, solve_nodes, checks: Checks) -> None:
    checks.require(artifact.result.converged, "CLI run did not converge")
    checks.require(np.array_equal(artifact.result.node_states, solve_nodes),
                   "CLI run nodes differ from the solve with the same config and seed")
    checks.require(artifact.comparison.max_euclidean <= wl.solver.tol,
                   f"CLI run is {artifact.comparison.max_euclidean:.3e} from serial")
    checks.require(len(artifact.meta.get("certificates", [])) == wl.mesh.n_intervals,
                   "the CLI run has not one certificate per interval")


def certificate_faults(artifact) -> list[str]:
    """Certificates of the CLI run that are not finite and positive.

    Such a run counts as a failed operation rather than a wrong result: on
    arenstorf-short one certificate overflows to inf on every run, a fault
    of the program on inputs that do not depend on --seed (see CHANGES.md).
    """
    return [f"certificate of interval {cert['interval']} is {cert['total']!r}"
            for cert in artifact.meta.get("certificates", [])
            if not (np.isfinite(cert["total"]) and cert["total"] > 0.0)]


def check_exactness(result, serial, checks: Checks) -> None:
    """Iterate k reproduces the first k + 1 serial nodes."""
    checks.require(result.trace is not None and len(result.trace) == result.iterations + 1,
                   "record_trace did not keep every iterate")
    for k, iterate in enumerate(result.trace or []):
        head = min(k, len(serial) - 1) + 1
        rel = np.linalg.norm(iterate[:head] - serial[:head], axis=1)
        rel /= np.maximum(np.linalg.norm(serial[:head], axis=1), 1e-300)
        worst = float(np.max(rel))
        checks.require(worst <= EXACTNESS_RTOL,
                       f"iterate {k} is {worst:.3e} from the first {head} serial nodes")


# ---------------------------------------------------------------------------
# Timed rounds (--trace 0)
# ---------------------------------------------------------------------------


def timed_round(wl, ops: Ops, checks: Checks, ref) -> dict:
    from rpnn_parareal import parareal_solve, serial_solve
    from rpnn_parareal.cli import run_experiment

    sample: dict[str, float] = {}
    probe = spans.FineProbe()
    with probe.installed():
        t0 = clock()
        result = ops.attempt(lambda: parareal_solve(wl.system, wl.x0, wl.mesh, wl.solver))
        t1 = clock()
    if result is not None:
        sample["solve_s"] = t1 - t0
        sample["model_parts"] = probe.model_parts(t0, t1, wl.mesh.n_intervals)
        sample["model_parallel_s"] = spans.model_parallel([sample["model_parts"]],
                                                          wl.mesh.n_intervals)
        sample["iterations"] = result.iterations

    serial_times = []
    serial = None
    for _ in range(workloads.SERIAL_REPEATS[wl.name]):
        t0 = clock()
        serial = ops.attempt(lambda: serial_solve(wl.system, wl.x0, wl.mesh, wl.solver.fine))
        if serial is not None:
            serial_times.append(clock() - t0)
    if serial_times:
        sample["serial_s"] = statistics.median(serial_times)

    t0 = clock()
    artifact = ops.attempt(lambda: run_experiment(wl.config))
    if artifact is not None:
        sample["run_s"] = clock() - t0

    if serial is not None:
        check_serial(wl, serial, ref, checks)
        if result is not None:
            check_solve(wl, result, serial, checks)
            sample["max_error_vs_serial"] = max_node_error(result.node_states, serial)
    if artifact is not None:
        faults = certificate_faults(artifact)
        if faults:
            ops.fail("; ".join(faults))
        if result is not None:
            check_run(wl, artifact, result.node_states, checks)
    sample["nodes"] = None if result is None else result.node_states
    return sample


def timed_run(wl, seconds: float, ops: Ops, checks: Checks, ref) -> dict:
    setup_s = measure_setup(wl.name)
    samples: list[dict] = []
    started = clock()
    longest = 0.0
    while not samples or (clock() - started) + longest <= seconds:
        t0 = clock()
        samples.append(timed_round(wl, ops, checks, ref))
        longest = max(longest, clock() - t0)
    first = samples[0]["nodes"]
    checks.require(all(s["nodes"] is not None and first is not None
                       and np.array_equal(s["nodes"], first) for s in samples),
                   "repeated solves with one seed gave different nodes")
    values = {"setup_s": setup_s}
    for name in ("solve_s", "serial_s", "run_s", "iterations"):
        got = [s[name] for s in samples if name in s]
        if got:
            values[name] = min(got)
    parts = [s["model_parts"] for s in samples if "model_parts" in s]
    if parts:
        values["model_parallel_s"] = spans.model_parallel(parts, wl.mesh.n_intervals)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["rounds"] = [{k: v for k, v in s.items() if k not in ("nodes", "model_parts")}
                        for s in samples]
    return values


# ---------------------------------------------------------------------------
# Traced round and layer microbenchmarks (--trace 1)
# ---------------------------------------------------------------------------


def per_call(fn, repeats: int = 7, batch_s: float = 2e-3) -> float:
    """Median seconds per call over `repeats` batches, after one warm-up call.

    A batch holds enough calls to last about `batch_s`, so the clock's
    resolution does not show in microsecond timings.
    """
    fn()
    t0 = clock()
    fn()
    inner = max(1, int(batch_s / max(clock() - t0, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(inner):
            fn()
        samples.append((clock() - t0) / inner)
    return statistics.median(samples)


def microbenchmarks(wl, result, interval: int) -> dict:
    """Each layer's public functions on one interval's inputs from the run."""
    from rpnn_parareal import (BurgersJacobianOperator, collocation_grid, eval_network,
                               field_log_norm_bound, implicit_euler_step,
                               levenberg_marquardt, quadrature_certificate, residual,
                               residual_jacobian, rk4_step, sample_basis, train_coarse,
                               zeroth_iterate)

    system, fine = wl.system, wl.solver.fine
    basis = result.bases[interval]
    theta = result.thetas[interval]
    x = result.node_states[interval]
    zeros = np.zeros_like(theta)
    if system.spatial is not None:
        def jacobian_fn(th):
            return BurgersJacobianOperator(basis, th, x, system.spatial)

        def jacobian_once():
            op = jacobian_fn(theta)
            op.rmatvec_mat(op.matvec_mat(theta))
    else:
        def jacobian_fn(th):
            return residual_jacobian(basis, th, x, system)

        jacobian_once = lambda: jacobian_fn(theta)  # noqa: E731
    one_step = dataclasses.replace(wl.solver.lm, max_iter=1)
    grid = collocation_grid(wl.solver.node_kind, basis.colloc, basis.dt)
    log_norm = field_log_norm_bound(system, result.node_states[interval:interval + 2])

    t0 = clock()
    zeroth_iterate(system, wl.x0, wl.mesh, wl.solver)
    zeroth_s = clock() - t0
    us, ms = 1e6, 1e3
    return {
        "parareal.zeroth_s": zeroth_s,
        "problems.field_us": us * per_call(lambda: system.field(x)),
        "integrators.rk4_step_us": us * per_call(lambda: rk4_step(system, x, fine.dt)),
        "integrators.implicit_euler_step_us": us * per_call(
            lambda: implicit_euler_step(system, x, fine.dt, fine.newton)),
        "collocation.residual_us": us * per_call(lambda: residual(basis, theta, x, system)),
        "collocation.jacobian_us": us * per_call(jacobian_once),
        "collocation.lm_step_us": us * per_call(lambda: levenberg_marquardt(
            lambda th: residual(basis, th, x, system), jacobian_fn, zeros, one_step)),
        "collocation.train_ms": ms * per_call(
            lambda: train_coarse(basis, x, system, None, wl.solver.lm), repeats=5),
        "rpnn.sample_basis_us": us * per_call(lambda: sample_basis(
            basis.hidden, basis.colloc, basis.dt, basis.node_kind,
            wl.solver.weight_bounds, basis.seed)),
        "rpnn.eval_network_us": us * per_call(lambda: eval_network(basis, theta, x, basis.dt)),
        "certificates.certificate_ms": ms * per_call(lambda: quadrature_certificate(
            basis, theta, x, system, grid, log_norm), repeats=5),
    }


def traced_run(wl, seed: int, ops: Ops, checks: Checks, ref) -> dict:
    from rpnn_parareal import parareal_solve, serial_solve
    from rpnn_parareal.cli import run_experiment

    n_int = wl.mesh.n_intervals
    values: dict[str, float] = {}

    probe = spans.FineProbe()
    with probe.installed():
        t0 = clock()
        untraced = ops.attempt(lambda: parareal_solve(wl.system, wl.x0, wl.mesh, wl.solver))
        untraced_s = clock() - t0
    if probe.fine and probe.train:
        fine = [end - begin for begin, end in probe.fine]
        train = [end - begin for begin, end in probe.train]
        values["integrators.fine_interval_max_ms"] = 1e3 * max(fine)
        values["parareal.fine_interval_ms"] = 1e3 * statistics.fmean(fine)
        values["parareal.coarse_interval_ms"] = 1e3 * statistics.fmean(train)
        values["parareal.coarse_fine_ratio"] = statistics.fmean(train) / statistics.fmean(fine)

    recorders = {op: spans.SpanRecorder() for op in ("solve", "serial", "run")}
    rec = recorders["solve"]
    traced_config = dataclasses.replace(wl.solver, record_trace=True)
    with spans.tracing(rec):
        solve = rec.wrap("parareal.parareal_solve", parareal_solve)
        t0 = clock()
        result = ops.attempt(lambda: solve(rec.system(wl.system), wl.x0, wl.mesh, traced_config))
        values["trace.overhead_s"] = clock() - t0 - untraced_s
    rec = recorders["serial"]
    with spans.tracing(rec):
        serial_fn = rec.wrap("integrators.serial_solve", serial_solve)
        serial = ops.attempt(lambda: serial_fn(rec.system(wl.system), wl.x0, wl.mesh,
                                               wl.solver.fine))
    rec = recorders["run"]
    with spans.tracing(rec):
        artifact = ops.attempt(lambda: rec.wrap("cli.run_experiment", run_experiment)(wl.config))

    tables = {op: spans.SpanTable(r) for op, r in recorders.items()}
    solve_t, run_t = tables["solve"], tables["run"]
    fine_mask = solve_t.select("integrators.fine_propagate")
    train_mask = solve_t.select("collocation.train_coarse")
    reports = [report for _, report in recorders["solve"].results["collocation.train_coarse"]]
    lm_iters = sum(r.iterations for r in reports)
    cert_mask = run_t.layer == "certificates"
    values.update({
        "problems.field_calls": solve_t.leaves_under(["field"]),
        "problems.field_rows_calls": solve_t.leaves_under(["field_rows"]),
        "problems.jacobian_calls": solve_t.leaves_under(["jacobian"]),
        "integrators.fine_s": float(np.sum(solve_t.duration[fine_mask])),
        "integrators.fine_calls": int(np.sum(fine_mask)),
        "integrators.newton_iters": solve_t.leaves_under(["jacobian"], fine_mask),
        "collocation.train_s": float(np.sum(solve_t.duration[train_mask])),
        "collocation.train_calls": int(np.sum(train_mask)),
        "collocation.lm_iters": lm_iters,
        "collocation.lm_max_iter_stops": sum(r.termination == "max_iter" for r in reports),
        "collocation.lm_accepted_ratio": sum(r.accepted for r in reports) / max(lm_iters, 1),
        "parareal.self_s": solve_t.layer_self_time("parareal"),
        "certificates.certify_s": float(np.sum(run_t.duration[cert_mask])),
        "certificates.field_calls": run_t.leaves_under(["field", "field_rows"], cert_mask),
        "cli.solves": int(np.sum(run_t.select("parareal.parareal_solve"))),
        "cli.self_s": run_t.layer_self_time("cli"),
    })
    for layer in spans.LAYERS:
        count = sum(t.layer_spans(layer) for t in tables.values())
        checks.require(count > 0, f"traced round recorded no {layer} spans")
    out_dir = Path(wl.config.out_dir)
    if artifact is not None:
        values["cli.bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    with open(out_dir.parent / "trace.json", "w") as handle:
        json.dump({op: r.to_json() for op, r in recorders.items()}, handle)

    if result is not None:
        values["observed"] = {
            "iterations": result.iterations,
            "converged": result.converged,
            "error_history": result.error_history,
            "max_error_vs_serial": (None if serial is None
                                    else max_node_error(result.node_states, serial)),
            "lm_terminations": {reason: sum(r.termination == reason for r in reports)
                                for reason in sorted({r.termination for r in reports})},
        }
        values["collocation.cache_hits"] = n_int * (result.iterations + 1) - int(np.sum(train_mask))
        if serial is not None:
            check_serial(wl, serial, ref, checks)
            check_solve(wl, result, serial, checks)
            check_exactness(result, serial, checks)
        if artifact is not None:
            check_run(wl, artifact, result.node_states, checks)
        if untraced is not None:
            checks.require(np.array_equal(untraced.node_states, result.node_states),
                           "traced and untraced solves differ")
        interval = int(np.random.default_rng(seed).integers(n_int))
        values.update(microbenchmarks(wl, result, interval))
    if artifact is not None and certificate_faults(artifact):
        ops.fail("; ".join(certificate_faults(artifact)))
    return values


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "rpnn_parareal" / "__init__.py").is_file():
        print(f"bench: no package source at {workloads.SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, out_dir / "run")
    fine = wl.solver.fine
    field, jacobian = reference.fields(wl.config.benchmark, wl.system.params)
    ref = reference.integrate(fine.kind, field, jacobian, wl.x0, wl.mesh.nodes, fine.dt,
                              fine.newton.tol)
    ops, checks = Ops(), Checks()
    if args.trace:
        values, names = traced_run(wl, args.seed, ops, checks, ref), PER_LAYER
    else:
        values, names = timed_run(wl, args.seconds, ops, checks, ref), END_TO_END
    extras = {key: values.pop(key) for key in ("rounds", "observed") if key in values}
    missing = sorted(set(names) - set(values))
    checks.require(not missing, f"metrics not measured: {missing}")
    for message in checks.failures:
        print(f"# check failed: {message}", file=sys.stderr)
    report = {
        "correct": not checks.failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items() if name in values},
    }
    with open(out_dir / f"BENCH_seed{args.seed}_trace{args.trace}.json", "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": machine(wl.solver.workers),
                   "failures": checks.failures, **extras, **report},
                  handle, indent=1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
