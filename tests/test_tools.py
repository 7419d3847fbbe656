"""The scripts under tools/ run on the package as it stands.

``tools/fingerprint.py`` is run on the ``burgers-sine`` benchmark workload,
the cheapest of the three, through its command-line entry point.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from rpnn_parareal import collocation, parareal, parareal_solve

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_fingerprint_digests_a_workloads_trainings_nodes_and_artifacts(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", [*sys.path])  # the tool and build() prepend paths
    workloads = _load(ROOT / "bench" / "workloads.py", "workloads", monkeypatch)
    tool = _load(ROOT / "tools" / "fingerprint.py", "fingerprint", monkeypatch)
    tool.main(["burgers-sine"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert "BLAS threads" in header
    digests = {}
    for line in lines:
        name, *what, digest = line.split()
        assert name == "burgers-sine" and len(digest) == 64
        digests[" ".join(what)] = digest
    assert list(digests) == ["trainings (9)", "nodes", "compare.csv", "dense.csv",
                             "errors.csv", "meta.json", "nodes.csv", "reference.csv"]
    assert parareal.train_coarse is collocation.train_coarse  # the recorder is removed
    wl = workloads.build("burgers-sine", tmp_path)
    result = parareal_solve(wl.system, wl.x0, wl.mesh, wl.solver)
    assert digests["nodes"] == hashlib.sha256(result.node_states.tobytes()).hexdigest()
