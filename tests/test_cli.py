"""Experiment runner: config round-trips, artifacts, determinism, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from rpnn_parareal import (FineMethod, PararealConfig, SolverError, cli, evaluate_piecewise,
                           make_benchmark)
from rpnn_parareal.cli import (
    ComparisonTable,
    ConfigError,
    ExperimentConfig,
    benchmark_defaults,
    compare_with_serial,
    main,
    run_experiment,
)
from rpnn_parareal.problems import BENCHMARK_NAMES

from conftest import assert_bitwise


def _tiny_sir_config(out_dir, **extra):
    data = {
        "benchmark": "sir",
        "t_end": 2.0,
        "mesh": {"kind": "uniform", "intervals": 2},
        "rpnn": {"seed": 7},
        "out_dir": str(out_dir),
        "dense_samples": 50,
        **extra,
    }
    return ExperimentConfig.from_dict(data)


def test_benchmark_defaults_cover_paper_setups():
    rober = benchmark_defaults("rober")
    assert rober["mesh"]["blocks"] == [[0.0, 1.0, 100], [1.0, 100.0, 33]]
    assert rober["fine"] == {"kind": "implicit-euler", "dt": 1e-4,
                             "newton_tol": 1e-12, "newton_max_iter": 50}
    lorenz = benchmark_defaults("lorenz")
    assert lorenz["mesh"]["intervals"] == 250
    assert lorenz["fine"]["dt"] == 10.0 / 14500.0
    arenstorf = benchmark_defaults("arenstorf")
    assert arenstorf["t_end"] == 17.0 and arenstorf["mesh"]["intervals"] == 125
    burgers = benchmark_defaults("burgers")
    assert burgers["fine"]["dt"] == 1.0 / 500.0 and burgers["mesh"]["intervals"] == 50
    brusselator = benchmark_defaults("brusselator")
    assert brusselator["mesh"]["intervals"] == 32 and brusselator["fine"]["dt"] == 12.0 / 640.0
    sir = benchmark_defaults("sir")
    assert sir["t_end"] == 10.0 and sir["fine"]["dt"] == 1e-2
    assert sir["tol"] == 1e-4 and sir["max_it"] == 20
    assert sir["rpnn"]["gauss_newton_floor"] is True
    # One default fit, `PararealConfig`'s, for every benchmark; rober alone
    # collocates on Radau nodes.
    library = PararealConfig(fine=FineMethod()).lm.floor_to_gauss_newton
    for name in BENCHMARK_NAMES:
        rpnn = benchmark_defaults(name)["rpnn"]
        assert rpnn["gauss_newton_floor"] == library
        assert rpnn["node_kind"] == ("radau" if name == "rober" else "uniform"), name
    assert arenstorf["max_it"] == 40


def test_config_round_trip(tmp_path):
    config = _tiny_sir_config(tmp_path)
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"benchmark": "heat"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"benchmark": "sir", "turbo": True})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"benchmark": "sir", "mesh": {"kind": "random"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"benchmark": "sir", "tol": -1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"benchmark": "sir", "initial_state": [1.0, float("nan"), 0.0]}
        )


def test_wrong_length_initial_state_rejected_by_from_dict(tmp_path):
    with pytest.raises(ConfigError):
        _tiny_sir_config(tmp_path, initial_state=[1.0, 2.0])


def test_run_experiment_writes_all_artifacts(tmp_path):
    artifact = run_experiment(_tiny_sir_config(tmp_path))
    for name in ("nodes", "dense", "errors", "reference", "compare", "timings", "meta"):
        assert artifact.files[name].exists(), name
    with open(artifact.files["nodes"]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "x1", "x2", "x3"]
    assert len(rows) == 1 + 3  # header + N+1 nodes
    # float round-trip: parsing reproduces the in-memory values bitwise
    for n, row in enumerate(rows[1:]):
        assert float(row[0]) == artifact.result.mesh.nodes[n]
        for j in range(3):
            assert float(row[j + 1]) == artifact.result.node_states[n, j]


def test_meta_config_echo_reparses_equal(tmp_path):
    config = _tiny_sir_config(tmp_path)
    run_experiment(config)
    with open(tmp_path / "meta.json") as handle:
        meta = json.load(handle)
    assert ExperimentConfig.from_dict(meta["config"]) == config
    assert meta["seed"] == 7 and meta["seed_pinned"] is True
    assert meta["converged"] is True


def test_nodes_csv_byte_identical_across_workers(tmp_path):
    paths = []
    for workers in (1, 4, 1):
        out = tmp_path / f"w{workers}_{len(paths)}"
        run_experiment(_tiny_sir_config(out, workers=workers))
        paths.append(out / "nodes.csv")
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_rerun_replaces_artifacts_instead_of_truncating(tmp_path):
    """A second run into the same directory writes new files: a hard link to
    the first run's nodes.csv keeps the old file and its bytes."""
    config = _tiny_sir_config(tmp_path / "run")
    first = run_experiment(config).files["nodes"]
    kept = tmp_path / "kept.csv"
    kept.hardlink_to(first)
    before = kept.read_bytes()
    second = run_experiment(config).files["nodes"]
    assert not kept.samefile(second)
    assert kept.read_bytes() == before == second.read_bytes()


def test_write_csv_matches_csv_writer_bytes(tmp_path):
    header = ["t", "x,1", "x2"]  # csv.writer quotes the second name
    rows = [
        [0, 1, -2],
        [np.float64(0.1), np.float64(-1.0 / 3.0), np.float64(2.0**60)],
        (-0.0, float("inf"), float("-inf")),
        (float("nan"), 1e-300, 5e-324),
        [np.int64(7), 10**17 + 1, 123456789.123456789],
    ]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(v):.17g}" for v in row])
    got = tmp_path / "got.csv"
    cli._write_csv(got, header, iter(rows))
    assert got.read_bytes() == expected.read_bytes()


def test_dense_csv_parses_back_to_piecewise_values_bitwise(tmp_path):
    artifact = run_experiment(_tiny_sir_config(tmp_path))
    with open(artifact.files["dense"]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "x1", "x2", "x3"]
    table = np.array(rows[1:], dtype=float)
    assert_bitwise(table[:, 0], np.linspace(0.0, 2.0, 50))
    for row in table:
        assert_bitwise(row[1:], evaluate_piecewise(artifact.result, float(row[0])))


def test_rober_nodes_carry_scaled_column(tmp_path):
    data = {
        "benchmark": "rober",
        "t_end": 1.0,
        "mesh": {"kind": "blocks", "blocks": [[0.0, 0.5, 2], [0.5, 1.0, 1]]},
        "fine": {"kind": "implicit-euler", "dt": 1e-3},
        "rpnn": {"seed": 3},
        "out_dir": str(tmp_path),
        "dense_samples": 20,
    }
    artifact = run_experiment(ExperimentConfig.from_dict(data))
    with open(artifact.files["nodes"]) as handle:
        rows = list(csv.reader(handle))
    assert rows[0][-1] == "x2_scaled_1e4"
    x2 = artifact.result.node_states[1, 1]
    assert float(rows[2][-1]) == 1e4 * x2


def test_certify_attaches_certificates(tmp_path):
    run_experiment(_tiny_sir_config(tmp_path, certify=True))
    with open(tmp_path / "meta.json") as handle:
        meta = json.load(handle)
    certs = meta["certificates"]
    assert len(certs) == 2
    for cert in certs:
        assert cert["total"] >= cert["eps_term"] >= 0.0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_nonfinite_certificate_is_written_as_null(tmp_path, monkeypatch):
    certificate = cli.quadrature_certificate

    def vacuous(*args, **kwargs):
        cert = certificate(*args, **kwargs)
        return dataclasses.replace(cert, delta=float("inf"), total=float("inf"))

    monkeypatch.setattr(cli, "quadrature_certificate", vacuous)
    artifact = run_experiment(_tiny_sir_config(tmp_path, certify=True))
    meta = json.loads((tmp_path / "meta.json").read_text(), parse_constant=_reject_constant)
    json.loads((tmp_path / "timings.json").read_text(), parse_constant=_reject_constant)
    for cert in meta["certificates"]:
        assert cert["delta"] is None and cert["total"] is None
        assert cert["eps_term"] >= 0.0
    assert artifact.meta["certificates"][0]["total"] == float("inf")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_exits_4_from_arenstorf_primary(tmp_path, monkeypatch):
    a = make_benchmark("arenstorf").params["a"]
    primary = [-a, 0.0, 0.0, 0.0]

    def run(name, **extra):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "benchmark": "arenstorf",
            "t_end": 0.272,
            "mesh": {"kind": "uniform", "intervals": 2},
            "out_dir": str(tmp_path / name),
            **extra,
        }))
        assert main(["--config", str(config), "--seed", "0"]) == 4
        meta = (tmp_path / name / "meta.json").read_text()
        return json.loads(meta, parse_constant=_reject_constant)["failure"]

    # Training the first interval from the primary fails in the zeroth sweep.
    failure = run("primary", initial_state=primary)
    assert failure["phase"] == "parareal" and failure["type"] == "TrainingError"
    assert failure["interval"] == 0 and failure["iteration"] == 0

    # The serial reference solve from the primary fails in its first step.
    real_serial_solve = cli.serial_solve
    monkeypatch.setattr(cli, "serial_solve", lambda system, x0, mesh, fine:
                        real_serial_solve(system, np.array(primary), mesh, fine))
    failure = run("serial")
    assert failure == {"phase": "serial_reference", "type": "StepFailure",
                       "message": "non-finite RK4 stage", "interval": 0,
                       "iteration": None}
    assert sorted(path.name for path in (tmp_path / "serial").iterdir()) == ["meta.json"]


def test_main_exits_4_when_a_certificate_fails(tmp_path, monkeypatch):
    """A failed certification writes only meta.json, whose failure block
    names the phase and the interval; a rerun into an earlier run's
    directory removes that run's other files."""
    config = tmp_path / "sir.json"
    config.write_text(json.dumps({"benchmark": "sir", "t_end": 2.0,
                                  "mesh": {"kind": "uniform", "intervals": 2},
                                  "dense_samples": 50}))
    argv = ["--config", str(config), "--seed", "0", "--certify", "--out"]
    earlier = tmp_path / "earlier"
    assert main([*argv, str(earlier)]) == 0
    assert len(list(earlier.iterdir())) == 7

    certificate, calls = cli.quadrature_certificate, []

    def fails_on_second_interval(*args):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise SolverError("certificate failed")
        return certificate(*args)

    monkeypatch.setattr(cli, "quadrature_certificate", fails_on_second_interval)
    fresh = tmp_path / "fresh"
    for out in (fresh, earlier):
        assert main([*argv, str(out)]) == 4
        meta = json.loads((out / "meta.json").read_text(), parse_constant=_reject_constant)
        assert meta["failure"] == {"phase": "certificates", "type": "SolverError",
                                   "message": "certificate failed", "interval": 1,
                                   "iteration": None}
        assert "certificates" not in meta and "converged" not in meta
    for out in (fresh, earlier):
        assert sorted(path.name for path in out.iterdir()) == ["meta.json"]


def test_main_exits_4_when_no_basis_draw_is_well_conditioned(tmp_path):
    # On intervals of length 0.002 every draw's feature-derivative matrix is
    # worse conditioned than the sampler accepts.
    config = tmp_path / "short.json"
    config.write_text(json.dumps({
        "benchmark": "sir",
        "t_end": 0.02,
        "mesh": {"kind": "uniform", "intervals": 10},
        "fine": {"dt": 1e-4},
        "out_dir": str(tmp_path / "short"),
    }))
    assert main(["--config", str(config), "--seed", "0"]) == 4
    assert sorted(path.name for path in (tmp_path / "short").iterdir()) == ["meta.json"]
    failure = json.loads((tmp_path / "short" / "meta.json").read_text())["failure"]
    assert failure.pop("message").endswith("were ill conditioned")
    assert failure == {"phase": "parareal", "type": "BasisConditioningError",
                       "interval": 0, "iteration": 0}


def test_integral_float_settings_run_as_integers(tmp_path):
    integral = {"mesh": {"kind": "uniform", "intervals": 2.0}, "max_it": 20.0,
                "dense_samples": 50.0, "fine": {"newton_max_iter": 50.0},
                "rpnn": {"seed": 7.0, "hidden": 5.0, "colloc": 5.0}}
    plain = run_experiment(_tiny_sir_config(tmp_path / "int"))
    floats = run_experiment(_tiny_sir_config(tmp_path / "float", **integral))
    for name in ("nodes", "dense", "errors"):
        assert plain.files[name].read_bytes() == floats.files[name].read_bytes(), name


def test_compare_with_serial():
    nodes = np.zeros((4, 2))
    table = compare_with_serial(nodes, nodes.copy())
    assert isinstance(table, ComparisonTable)
    assert table.max_euclidean == 0.0 and table.global_max_abs == 0.0
    perturbed = nodes.copy()
    perturbed[2] = [3.0, 4.0]
    table = compare_with_serial(perturbed, nodes)
    assert table.euclidean[2] == pytest.approx(5.0)
    assert table.max_euclidean == pytest.approx(5.0)
    assert table.global_max_abs == pytest.approx(4.0)
    with pytest.raises(ValueError):
        compare_with_serial(np.zeros((3, 2)), np.zeros((4, 2)))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_main_exit_codes(tmp_path, capsys):
    # config error
    assert main(["--benchmark", "sir", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2

    # success
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "benchmark": "sir",
        "t_end": 2.0,
        "mesh": {"kind": "uniform", "intervals": 2},
        "out_dir": str(tmp_path / "ok"),
        "dense_samples": 20,
    }))
    assert main(["--config", str(good), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "state ordering" in out

    # nonconvergence: iteration cap of 1 means no correction sweeps ever run
    assert main(["--config", str(good), "--seed", "5", "--max-it", "1",
                 "--tol", "1e-300", "--out", str(tmp_path / "stuck")]) == 3

    # numerical failure: coarse RK4 step on a chaotic system overflows
    blow = tmp_path / "blow.json"
    blow.write_text(json.dumps({
        "benchmark": "lorenz",
        "t_end": 10.0,
        "mesh": {"kind": "uniform", "intervals": 4},
        "fine": {"kind": "rk4", "dt": 2.5},
        "out_dir": str(tmp_path / "blow"),
        "dense_samples": 20,
    }))
    assert main(["--config", blow.as_posix(), "--seed", "0"]) == 4


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "flags"
    code = main([
        "--benchmark", "sir", "--out", str(out), "--seed", "11",
        "--workers", "2", "--tol", "1e-3", "--max-it", "15",
    ])
    assert code == 0
    with open(out / "meta.json") as handle:
        meta = json.load(handle)
    cfg = meta["config"]
    assert cfg["tol"] == 1e-3 and cfg["max_it"] == 15
    assert cfg["workers"] == 2
    assert meta["seed"] == 11


def test_unpinned_seed_is_fresh_but_recorded(tmp_path):
    config = _tiny_sir_config(tmp_path)
    config.rpnn["seed"] = None
    artifact = run_experiment(config)
    assert artifact.meta["seed_pinned"] is False
    assert isinstance(artifact.meta["seed"], int)


def test_timings_json_structure(tmp_path):
    run_experiment(_tiny_sir_config(tmp_path))
    with open(tmp_path / "timings.json") as handle:
        timings = json.load(handle)
    phases = timings["phases"]
    assert set(phases) == {"zeroth_sweep", "fine_sweeps", "coarse_sweeps", "total"}
    assert 0.0 < phases["zeroth_sweep"] <= phases["total"]
    assert phases["fine_sweeps"] + phases["coarse_sweeps"] <= phases["total"]
    assert set(timings) == {"phases", "avg_coarse_step_zeroth", "serial_reference"}
    assert timings["avg_coarse_step_zeroth"] == phases["zeroth_sweep"] / 2
    assert timings["serial_reference"] > 0.0


# Settings (on sir unless named) that only the solver objects rejected, or
# that nothing rejected.
_BAD_SIR_SETTINGS = {
    "fine-dt-not-dividing-interval": {"fine": {"dt": 0.03}},
    "hidden-not-colloc": {"rpnn": {"hidden": 4}},
    "unknown-node-kind": {"rpnn": {"node_kind": "gauss"}},
    "reversed-bounds": {"rpnn": {"bounds": [1.0, -1.0]}},
    "non-integer-intervals": {"mesh": {"intervals": "abc"}},
    "misspelt-rpnn-key": {"rpnn": {"hiden": 5}},
    "nan-t_end": {"t_end": float("nan")},
    "t_end-outside-blocks": {"benchmark": "rober", "t_end": 5.0},
    "rpnn-not-object": {"rpnn": 5},
    "fractional-burgers-grid": {"benchmark": "burgers", "params": {"grid_size": 20.7}},
    "certify-beyond-quadrature-nodes": {"certify": True, "rpnn": {"hidden": 10, "colloc": 10}},
    "fractional-intervals": {"mesh": {"intervals": 10.5}},
    "fractional-block-count": {"benchmark": "rober", "t_end": 1.0, "fine": {"dt": 1e-3},
                               "mesh": {"kind": "blocks",
                                        "blocks": [[0.0, 0.5, 2.5], [0.5, 1.0, 1]]}},
    "fractional-hidden": {"rpnn": {"hidden": 5.5}},
    "fractional-colloc": {"rpnn": {"colloc": 5.5}},
    "fractional-seed": {"rpnn": {"seed": 0.7}},
    "fractional-max_it": {"max_it": 2.5},
    "fractional-newton_max_iter": {"fine": {"newton_max_iter": 3.5}},
    "overflowing-step-count": {"t_end": 1e308, "fine": {"dt": 1e-10}},
    "bool-param": {"params": {"beta": True}},
    "string-param": {"params": {"beta": "x"}},
    "infinite-tol": {"tol": float("inf")},
    "infinite-newton_tol": {"fine": {"kind": "implicit-euler", "newton_tol": float("inf")}},
}


@pytest.mark.parametrize("settings", _BAD_SIR_SETTINGS.values(), ids=_BAD_SIR_SETTINGS.keys())
def test_main_rejects_bad_config_with_exit_2(tmp_path, capsys, settings):
    out = tmp_path / "out"
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"benchmark": "sir", "out_dir": str(out), **settings}))
    rpnn = settings.get("rpnn")
    pin = [] if isinstance(rpnn, dict) and "seed" in rpnn else ["--seed", "0"]
    assert main(["--config", str(config), *pin]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# Values of the wrong JSON type, each with the key its message names.  Each
# ran: "false" and "no" are truthy, true is taken as 1, and "0.01" went
# through float() and was echoed as a string in meta.json.
_MISTYPED_SIR_SETTINGS = {
    "string-gauss_newton_floor": ({"rpnn": {"gauss_newton_floor": "false"}},
                                  "rpnn gauss_newton_floor"),
    "number-gauss_newton_floor": ({"rpnn": {"gauss_newton_floor": 0}}, "rpnn gauss_newton_floor"),
    "string-certify": ({"certify": "no"}, "certify"),
    "bool-tol": ({"tol": True}, "tol"),
    "bool-t_end": ({"t_end": True}, "t_end"),
    "string-t0": ({"t0": "0"}, "t0"),
    "bool-newton_tol": ({"fine": {"newton_tol": True}}, "fine newton_tol"),
    "bool-bounds-entry": ({"rpnn": {"bounds": [True, 2]}}, "rpnn bounds entry"),
    "string-bounds": ({"rpnn": {"bounds": "-1,1"}}, "rpnn bounds"),
    "string-fine-dt": ({"fine": {"dt": "0.01"}}, "fine dt"),
    "string-initial_state-entry": ({"initial_state": ["0.3", 0.5, 0.2]}, "initial_state entry"),
    "bool-initial_state-entry": ({"initial_state": [0.3, 0.5, True]}, "initial_state entry"),
    "string-block-end": ({"benchmark": "rober", "t_end": 1.0, "fine": {"dt": 1e-3},
                          "mesh": {"kind": "blocks", "blocks": [[0.0, "1.0", 2]]}},
                         "mesh block end"),
    # These named no setting: an unpacking error, or "'int' object is not iterable".
    "three-bounds": ({"rpnn": {"bounds": [-1, 0, 1]}}, "weight bounds"),
    "pair-block": ({"benchmark": "rober", "t_end": 1.0, "fine": {"dt": 1e-3},
                    "mesh": {"kind": "blocks", "blocks": [[0.0, 1.0]]}}, "mesh blocks"),
    "number-blocks": ({"benchmark": "rober", "t_end": 1.0, "fine": {"dt": 1e-3},
                       "mesh": {"kind": "blocks", "blocks": 5}}, "mesh blocks"),
}


@pytest.mark.parametrize("settings, key", _MISTYPED_SIR_SETTINGS.values(),
                         ids=_MISTYPED_SIR_SETTINGS.keys())
def test_main_rejects_mistyped_config_value_with_exit_2(tmp_path, capsys, settings, key):
    out = tmp_path / "out"
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"benchmark": "sir", "out_dir": str(out), **settings}))
    assert main(["--config", str(config), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be" in err
    assert not out.exists()


# An infinite tol accepted the zeroth sweep as converged after 0 iterations.
def test_main_rejects_infinite_tol_flag_with_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "sir.json"
    config.write_text(json.dumps({"benchmark": "sir", "out_dir": str(out)}))
    assert main(["--config", str(config), "--seed", "0", "--tol", "inf"]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# An --out that names a file, or a path under one, died in mkdir with exit 1.
@pytest.mark.parametrize("inside", [False, True], ids=["file", "below-file"])
def test_main_rejects_unusable_output_directory_with_exit_2(tmp_path, capsys, inside):
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / "run" if inside else blocker
    assert main(["--benchmark", "sir", "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(out) in err
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]
