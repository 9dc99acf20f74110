"""End-to-end driver tests: validation, artefacts, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patchtooth as pt
from patchtooth import cli

KAPPA5 = [3.965, 2.531, 0.838, 0.331, 7.275]


def base_config(**overrides):
    config = {
        "model": "diffusion1d",
        "grid": {"L": 2 * np.pi, "N": 6, "n": 4, "r": 0.3},
        "profile": {"kind": "inline", "values": [1.0, 2.0]},
        "coupling": {"scheme": "spectral"},
        "task": "eigen",
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_schema_violation_names_the_field(tmp_path, capsys):
    config = base_config(grid={"L": 2 * np.pi, "N": 6, "n": 4, "r": 1.5})
    assert cli.run(config, tmp_path) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "'r'" in err
    assert cli.run(base_config(workers=2), tmp_path) == 1
    assert "'workers'" in capsys.readouterr().err


GRID_2D = {
    "x": {"L": 2 * np.pi, "N": 3, "n": 2, "r": 0.4},
    "y": {"L": 2 * np.pi, "N": 4, "n": 2, "r": 0.4},
}


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"profile": {"kind": "inline", "values": [1.0, 2.0], "period": 3}}, "['profile']"),
        ({"model": "diffusion2d", "grid": GRID_2D,
          "profile": {"kind": "inline", "kx": [[1.0, 2.0]], "ky": [[1.0, 2.0], [1.0, 2.0]]}},
         "['profile']"),
        ({"model": "diffusion2d", "grid": GRID_2D,
          "profile": {"kind": "inline", "kx": [[1.0, 2.0], [1.0]], "ky": [[1.0], [1.0]]}},
         "['profile']"),
        ({"profile": {"kind": "inline", "values": [1.0, float("nan")]}},
         "['profile']['values'][1]"),
        ({"grid": {"L": float("inf"), "N": 6, "n": 4, "r": 0.3}}, "['grid']['L']"),
    ],
    ids=["period", "kx-ky-shapes", "ragged-kx", "nan-diffusivity", "infinite-L"],
)
def test_config_faults_exit_1_and_name_the_key(tmp_path, capsys, overrides, key):
    """Inconsistent inline profiles and non-finite numbers are config faults,
    not numerical precondition failures."""
    assert cli.run(base_config(**overrides), tmp_path) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err


def test_cross_field_validation(tmp_path):
    assert cli.run(base_config(model="diffusion2d"), tmp_path) == 1
    assert cli.run(base_config(coupling={"scheme": "lagrangian"}), tmp_path) == 1
    assert cli.run(base_config(coupling={"scheme": "spectral", "order": 2}), tmp_path) == 1
    bad_sim = base_config(task="simulate", simulate={"integrator": "exact"})
    assert cli.run(bad_sim, tmp_path) == 1
    assert cli.run(base_config(task="sweep"), tmp_path) == 1


def test_incompatible_assembly_exits_2(tmp_path, capsys):
    config = base_config(profile={"kind": "inline", "values": [1.0, 2.0, 3.0]})
    assert cli.run(config, tmp_path) == 2
    assert "numerical precondition" in capsys.readouterr().err


@pytest.mark.parametrize("parameter", ["order", "patches", "homogenize"])
def test_incompatible_sweep_exits_2_with_the_assembly_message(tmp_path, capsys, parameter):
    """Sweeps and homogenize build no base operator, yet reject an incompatible
    base config (p = 3 does not divide n = 4) exactly as assembling it would."""
    profile = {"kind": "inline", "values": [1.0, 2.0, 3.0]}
    assert cli.run(base_config(profile=profile), tmp_path / "eigen") == 2
    want = capsys.readouterr().err
    assert "not a multiple of the diffusivity period p = 3" in want
    if parameter == "homogenize":
        task = {"task": "homogenize"}
    else:
        task = {"task": "sweep", "sweep": {"parameter": parameter, "values": [6, 7, 8], "modes": 1}}
    assert cli.run(base_config(profile=profile, **task), tmp_path / "task") == 2
    assert capsys.readouterr().err == want
    if parameter == "homogenize":
        # the ensemble lifts the restriction, and allow_incompatible waives it
        for waiver in ({"ensemble": True}, {"allow_incompatible": True}):
            assert cli.run(base_config(profile=profile, **task, **waiver), tmp_path / "w") == 0


def test_tasks_measure_symmetry_once_and_sweeps_skip_the_base_operator(tmp_path, monkeypatch):
    calls = {"symmetry_defect": 0, "assemble_patch_1d": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, pt.spectra):
        counted(module, "symmetry_defect")
    counted(cli, "assemble_patch_1d")
    for task in ("eigen", "check"):
        calls.update(symmetry_defect=0)
        assert cli.run(base_config(task=task), tmp_path / task) == 0
        assert calls["symmetry_defect"] == 1, task
    calls.update(assemble_patch_1d=0)
    sweep = {"parameter": "patches", "values": [6, 7, 8], "modes": 1}
    assert cli.run(base_config(task="sweep", sweep=sweep), tmp_path / "sweep") == 0
    assert calls["assemble_patch_1d"] == 6  # a test and a reference operator per point
    calls.update(assemble_patch_1d=0)
    assert cli.run(base_config(task="homogenize"), tmp_path / "homogenize") == 0
    assert calls["assemble_patch_1d"] == 0


def test_eigen_task_matches_the_library(tmp_path):
    config = base_config()
    assert cli.run(config, tmp_path) == 0
    rows = read_csv(tmp_path / "eigenvalues.csv")
    assert rows[0] == ["rank", "real", "imag", "magnitude"]
    got = np.array([float(row[1]) for row in rows[1:]])
    grid = pt.build_grid_1d(2 * np.pi, 6, 4, 0.3)
    op = pt.assemble_patch_1d(
        grid, pt.DiffusivityProfile1D((1.0, 2.0)), pt.CouplingSpec("spectral")
    )
    want = pt.eigen_symmetric(op).eigenvalues
    np.testing.assert_array_equal(got, want)  # %.17g round trips doubles
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_macro"] == 6
    assert summary["symmetry"]["defect"] == 0.0
    assert summary["gap_ratio"] > 1.0
    assert summary["max_eigenvalue"] <= 1e-10


def test_simulate_task_writes_positions_and_conserves_mass(tmp_path):
    config = base_config(
        task="simulate",
        simulate={"integrator": "exact", "t_final": 0.5, "snapshots": 3},
    )
    assert cli.run(config, tmp_path) == 0
    rows = read_csv(tmp_path / "trajectory.csv")
    assert rows[0] == ["t", "patch", "interior", "position", "value"]
    assert len(rows) == 1 + 4 * 6 * 4  # header + snapshots x patches x interior
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mass_drift"] <= 1e-9
    assert summary["final_time"] == 0.5


def test_simulate_rerun_is_byte_identical(tmp_path):
    config = base_config(
        task="simulate",
        simulate={"integrator": "exact", "t_final": 0.2, "snapshots": 2,
                   "initial": {"kind": "random", "seed": 9}},
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.run(config, out1) == 0
    assert cli.run(config, out2) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_rk4_stability_guard(tmp_path):
    config = base_config(
        task="simulate",
        simulate={"integrator": "rk4", "dt": 1.0, "steps": 3},
    )
    assert cli.run(config, tmp_path) == 2
    config["simulate"]["allow_unstable"] = True
    assert cli.run(config, tmp_path) == 0


def test_simulate_2d_layout(tmp_path):
    config = {
        "model": "diffusion2d",
        "grid": {
            "x": {"L": 2 * np.pi, "N": 3, "n": 2, "r": 0.4},
            "y": {"L": 2 * np.pi, "N": 4, "n": 2, "r": 0.4},
        },
        "profile": {"kind": "inline", "kx": [[1.3, 0.8], [0.9, 1.2]],
                     "ky": [[0.7, 1.4], [1.1, 0.9]]},
        "coupling": {"scheme": "spectral"},
        "task": "simulate",
        "simulate": {"integrator": "exact", "t_final": 0.1, "snapshots": 1,
                      "initial": {"kind": "sine", "modes": [1, 2]}},
    }
    assert cli.run(config, tmp_path) == 0
    rows = read_csv(tmp_path / "trajectory.csv")
    assert rows[0] == ["t", "I", "J", "i", "j", "x", "y", "value"]
    assert len(rows) == 1 + 2 * 3 * 4 * 2 * 2


def test_wave_eigen_and_simulate(tmp_path):
    config = base_config(
        model="wave1d",
        grid={"L": 2 * np.pi, "N": 6, "n": 4, "r": 0.8},
        profile={"kind": "lognormal", "period": 4, "sigma": 0.5, "seed": 7},
        epsilon=0.02,
    )
    assert cli.run(config, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_real_part"] <= 1e-10
    sim = dict(config, task="simulate",
               simulate={"dt": 0.001, "steps": 20, "stride": 10})
    out2 = tmp_path / "sim"
    assert cli.run(sim, out2) == 0
    rows = read_csv(out2 / "trajectory.csv")
    assert rows[0] == ["t", "field", "patch", "interior", "position", "value"]
    fields = {row[1] for row in rows[1:]}
    assert fields == {"u", "v"}


def test_homogenize_task_frozen_rationals(tmp_path):
    config = base_config(
        grid={"L": 2 * np.pi, "N": 6, "n": 6, "r": 0.3},
        profile={"kind": "inline", "values": [1.0, 2.0, 3.0]},
        task="homogenize",
    )
    assert cli.run(config, tmp_path) == 0
    payload = json.loads((tmp_path / "homogenize.json").read_text())
    assert payload["K2"] == pytest.approx(18 / 11, rel=1e-12)
    assert payload["K4"] == pytest.approx(675 / 2662, rel=1e-7)
    grid = pt.build_grid_1d(2 * np.pi, 6, 6, 0.3)
    assert payload["beta"] == pytest.approx(2 * np.pi**2 / (9 * grid.d**2), rel=1e-12)
    branch = read_csv(tmp_path / "slow_branch.csv")
    assert branch[0] == ["k", "eigenvalue"]
    assert len(branch) == 9


def test_order_sweep_reproduces_the_decay_curve(tmp_path):
    config = base_config(
        grid={"L": 2 * np.pi, "N": 20, "n": 5, "r": 0.1},
        profile={"kind": "inline", "values": KAPPA5},
        task="sweep",
        sweep={"parameter": "order", "values": [1, 2, 3, 4, 5], "modes": 1},
    )
    assert cli.run(config, tmp_path) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0] == ["order", "err_mode_1"]
    errs = [float(row[1]) for row in rows[1:]]
    # Order 5 is 1.10412e-07 to six digits (an extended precision solve of
    # the same operators); a plain double solve is off by up to 1e-10, 1e-3
    # relative, so 1.104e-07 keeps both inside rtol.
    frozen = [4.442e-01, 9.827e-03, 2.171e-04, 4.865e-06, 1.104e-07]
    np.testing.assert_allclose(errs, frozen, rtol=1e-3)


def test_patches_sweep_reports_slopes(tmp_path):
    config = base_config(
        grid={"L": 2 * np.pi, "N": 10, "n": 20, "r": 0.1},
        profile={"kind": "inline", "values": KAPPA5},
        coupling={"scheme": "lagrangian", "order": 2},
        task="sweep",
        sweep={"parameter": "patches", "values": [10, 20, 40], "modes": 1},
    )
    assert cli.run(config, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["slopes"][0] == pytest.approx(-4.110, abs=0.02)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: an ensemble operator has members*N macro modes but "
    "n_macro defaults to N, so the sweep finds too few distinct modes and exits 2",
)
def test_ensemble_patches_sweep_finds_its_macro_modes(tmp_path):
    config = base_config(
        grid={"L": 2 * np.pi, "N": 9, "n": 6, "r": 0.3},
        profile={"kind": "lognormal", "period": 4, "sigma": 1.0, "seed": 0},
        coupling={"scheme": "lagrangian", "order": 2},
        ensemble=True,
        task="sweep",
        sweep={"parameter": "patches", "values": [9, 13, 17], "modes": 3},
    )
    assert cli.run(config, tmp_path) == 0


def test_check_task_consistency_at_full_size(tmp_path):
    config = base_config(
        grid={"L": 2 * np.pi, "N": 6, "n": 4, "r": 1.0},
        task="check",
    )
    assert cli.run(config, tmp_path) == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["symmetry"]["defect"] == 0.0
    assert payload["consistency"]["available"] is True
    # the kernel row is measured against a floored denominator, which caps
    # its contribution near 1e-7 rather than machine precision
    assert payload["consistency"]["max_relative_error"] <= 1e-6
    partial = base_config(task="check")
    out2 = tmp_path / "partial"
    assert cli.run(partial, out2) == 0
    payload2 = json.loads((out2 / "check.json").read_text())
    assert payload2["consistency"]["available"] is False
    assert "r = 1" in payload2["consistency"]["reason"]
    # Tilings with fewer than 3 lattice points along an axis have a valid
    # patch operator but no full lattice to compare with.
    small_2d = {
        "model": "diffusion2d",
        "grid": {
            "x": {"L": 2 * np.pi, "N": 1, "n": 2, "r": 1.0},
            "y": {"L": 2 * np.pi, "N": 2, "n": 2, "r": 1.0},
        },
        "profile": {"kind": "inline", "kx": [[1.3, 0.8], [0.9, 1.2]],
                     "ky": [[0.7, 1.4], [1.1, 0.9]]},
        "coupling": {"scheme": "spectral"},
        "task": "check",
    }
    small = [
        base_config(grid={"L": 2 * np.pi, "N": 1, "n": 2, "r": 1.0}, task="check"),
        base_config(grid={"L": 2 * np.pi, "N": 2, "n": 1, "r": 1.0},
                    profile={"kind": "inline", "values": [1.5]}, task="check"),
        small_2d,
    ]
    for k, config in enumerate(small):
        out = tmp_path / f"small{k}"
        assert cli.run(config, out) == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["symmetry"]["relative"] <= 1e-10
        assert payload["consistency"]["available"] is False
        assert "3-point minimum" in payload["consistency"]["reason"]


def test_task_override_and_missing_config(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "--task", "check"]) == 0
    assert (tmp_path / "check.json").exists()
    assert cli.main(["--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["--config", str(broken)]) == 1


def test_module_entry_point_runs(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "patchtooth", "--config", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "eigenvalues.csv").exists()
