"""Tests of the benchmark itself: its reference integrators and its output.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import workloads

sys.path.insert(0, str(workloads.SRC))

from rpnn_parareal import FineMethod, fine_propagate, make_benchmark  # noqa: E402
from rpnn_parareal.problems import default_initial_state  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name,kind,dt,steps", [
    ("arenstorf", "rk4", 17.0 / 80000.0, 50),
    ("rober", "implicit-euler", 1e-3, 50),
    ("burgers", "implicit-euler", 1.0 / 500.0, 10),
])
def test_reference_integrators_match_package(name, kind, dt, steps):
    system = make_benchmark(name)
    x0 = default_initial_state(name)
    field, jacobian = reference.fields(name, system.params)
    expected = fine_propagate(system, x0, steps * dt, FineMethod(kind, dt))
    if kind == "rk4":
        got = reference.rk4(field, x0, dt, steps)
    else:
        got = reference.implicit_euler(field, jacobian, x0, dt, steps)
    np.testing.assert_allclose(got, expected, rtol=0.0,
                               atol=run.REFERENCE_RTOL * (1.0 + np.max(np.abs(expected))))


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rober-reduced", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_package_source(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rober-reduced", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
