import dataclasses
import os

import numpy as np
import pytest

from rpnn_parareal import OdeSystem
from rpnn_parareal.problems import _on_floats


def _blas_settings():
    threads = ", ".join(f"{name}={os.environ[name]}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                        if name in os.environ)
    return f"numpy {np.__version__}; BLAS threads: {threads or 'not set'}"


def pytest_report_header(config):
    """numpy's version and the BLAS thread settings: the bitwise pins hold
    at a fixed BLAS thread count (README, notes on determinism)."""
    return _blas_settings()


def pytest_terminal_summary(terminalreporter):
    # -q drops the header, so a quiet log gets the settings at its end.
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_blas_settings())


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RPNN_PARAREAL_RUN_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="desk-scale run; set RPNN_PARAREAL_RUN_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def clock_system(pole: bool) -> OdeSystem:
    """x1' = 1, a clock, and x2' = g(x1), with float forms on which Python
    floats divide by zero at x1 = 2: `pole` g = 1 / (2 - x1), where numpy
    scalars give inf, or else g = 1 / (1 / (2 - x1) + 1) = (2 - x1) / (3 - x1),
    where they give the finite 0.0.  Steps of 0.25 from x1 = 0 reach 2.0
    exactly, and so does the state at t = 0 of a training from x1 = 2."""
    def terms(x1, x2):
        return 1.0, (1.0 / (2.0 - x1) if pole else 1.0 / (1.0 / (2.0 - x1) + 1.0))

    def jac_terms(x1, x2):
        slope = 1.0 / ((2.0 - x1) * (2.0 - x1)) if pole else -1.0 / ((3.0 - x1) * (3.0 - x1))
        return 0.0, 0.0, slope, 0.0

    return OdeSystem(2, _on_floats(terms), _on_floats(jac_terms, square=True),
                     "pole" if pole else "clock")


def without_float_forms(system: OdeSystem) -> OdeSystem:
    """A copy whose field and Jacobian carry no float forms, so implicit Euler
    and training keep arrays for it."""
    return dataclasses.replace(system, field=lambda x: system.field(x),
                               jacobian=lambda x: system.jacobian(x))


def central_fd_jacobian(fun, x, base_step=1e-6):
    """Central-difference Jacobian oracle with state-scaled step."""
    x = np.asarray(x, dtype=float)
    h = base_step * (1.0 + np.linalg.norm(x))
    out = np.empty((len(fun(x)), len(x)))
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        out[:, k] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def linear_system(lam: float) -> OdeSystem:
    """Scalar test problem x' = lam * x."""
    return OdeSystem(
        dim=1,
        field=lambda x: lam * x,
        jacobian=lambda x: np.array([[lam]]),
        name=f"linear({lam})",
    )


def constant_system(c: np.ndarray) -> OdeSystem:
    c = np.asarray(c, dtype=float)
    d = len(c)
    return OdeSystem(
        dim=d,
        field=lambda x: c.copy(),
        jacobian=lambda x: np.zeros((d, d)),
        name="constant",
    )


def zero_system(d: int) -> OdeSystem:
    return OdeSystem(
        dim=d,
        field=lambda x: np.zeros(d),
        jacobian=lambda x: np.zeros((d, d)),
        name="zero",
    )


# Sampling boxes for randomized Jacobian cross-checks, sized to each
# benchmark's state regime.
BENCHMARK_BOXES = {
    "sir": (np.zeros(3), np.ones(3)),
    "rober": (np.array([0.0, 0.0, 0.0]), np.array([1.0, 1e-4, 1.0])),
    "lorenz": (np.full(3, -20.0), np.full(3, 20.0)),
    "arenstorf": (np.full(4, -1.5), np.full(4, 1.5)),
    "brusselator": (np.zeros(2), np.full(2, 4.0)),
    "burgers": (np.full(51, -1.0), np.full(51, 1.0)),
}


def sample_benchmark_state(name, rng, system):
    lo, hi = BENCHMARK_BOXES[name]
    if len(lo) != system.dim:
        lo = np.full(system.dim, lo[0])
        hi = np.full(system.dim, hi[0])
    while True:
        x = rng.uniform(lo, hi)
        if name != "arenstorf":
            return x
        # keep clear of the two gravitational singularities
        a = system.params["a"]
        b = system.params["b"]
        d1 = (x[0] + a) ** 2 + x[1] ** 2
        d2 = (x[0] - b) ** 2 + x[1] ** 2
        if min(d1, d2) > 0.05:
            return x


def assert_bitwise(got, expected):
    """Equal shapes and equal bit patterns (so -0.0 != 0.0 and nan == nan)."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def benchmark_network(name, seed=0):
    """A benchmark's system and initial state with a sampled basis on the
    first interval of its default mesh and small random outer weights."""
    from rpnn_parareal.cli import ExperimentConfig, build_solver
    from rpnn_parareal.rpnn import sample_basis

    config = ExperimentConfig.from_dict({"benchmark": name, "rpnn": {"seed": seed}})
    system, x0, mesh, _ = build_solver(config)
    basis = sample_basis(5, 5, float(mesh.lengths[0]), seed=seed)
    theta = 0.1 * np.random.default_rng(seed).standard_normal((5, system.dim))
    return system, x0, basis, theta


def sample_times(dt, seed=0):
    """Both interval ends, a uniform grid and random times in [0, dt]."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, dt], np.linspace(0.0, dt, 21), rng.uniform(0.0, dt, 16)])
