"""Output oracles for the benchmark workloads.

Each workload's reference is computed once per benchmark run, from the
generated config and the library's public building blocks, and never inside a
timed call.  `check` then reads the artefacts of one run and returns the list
of problems it found; an empty list means the run is correct.

    eigen    one real eigenvalue row per dimension; the eigenvalue sum equals
             trace(A) and the sum of squares equals ||A||_F^2 for the
             operator A assembled here; the reported symmetry defect is 0.
    simulate every trajectory row present and finite; the final (u, v)
             matches expm_multiply(t W) x0 on the wave matrix W built here.
    sweep    one row of finite, positive errors per patch count; every
             reported slope equals the least-squares slope of its column and
             lies within SLOPE_TOLERANCE of -2P for Lagrangian order P.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EIGEN_TOLERANCE = 1e-12
TRAJECTORY_TOLERANCE = 1e-8
SLOPE_TOLERANCE = 0.5


def build_operator(config: dict):
    """Assemble the config's operator through the public library calls."""
    from patchtooth.assembly import assemble_patch_1d, assemble_patch_2d, assemble_wave
    from patchtooth.coupling import CouplingSpec
    from patchtooth.geometry import build_grid_1d, build_grid_2d
    from patchtooth.microscale import random_lognormal_profile, random_lognormal_profile_2d

    g, prof, c = config["grid"], config["profile"], config["coupling"]
    coupling = CouplingSpec(scheme=c["scheme"], order=c.get("order"))
    ensemble = bool(config.get("ensemble", False))
    if config["model"] == "diffusion2d":
        grid = build_grid_2d(*(g[a][k] for a in "xy" for k in ("L", "N", "n", "r")))
        profile = random_lognormal_profile_2d(*prof["periods"], prof["sigma"], prof["seed"])
        return assemble_patch_2d(grid, profile, coupling, ensemble=ensemble)
    grid = build_grid_1d(g["L"], g["N"], g["n"], g["r"])
    profile = random_lognormal_profile(prof["period"], prof["sigma"], prof["seed"])
    op = assemble_patch_1d(grid, profile, coupling, ensemble=ensemble)
    if config["model"] == "wave1d":
        op = assemble_wave(op, epsilon=float(config.get("epsilon", 0.02)))
    return op


def reference(config: dict) -> dict:
    """Everything `check` compares against, as JSON-serialisable numbers."""
    task = config["task"]
    if task == "eigen":
        A = build_operator(config).matrix
        return {
            "dimension": int(A.shape[0]),
            "trace": float(np.trace(A)),
            "frobenius_sq": float(np.sum(A * A)),
        }
    if task == "simulate":
        import scipy.sparse
        import scipy.sparse.linalg

        op = build_operator(config)
        sim = config["simulate"]
        grid = op.grid
        positions = np.concatenate([grid.positions(I) for I in range(grid.N)])
        u0 = np.sin(2.0 * np.pi * sim["initial"]["mode"] * positions / grid.L)
        x0 = np.concatenate([u0, np.zeros_like(u0)])
        t_final = sim["steps"] * sim["dt"]
        final = scipy.sparse.linalg.expm_multiply(
            t_final * scipy.sparse.csr_matrix(op.matrix), x0
        )
        return {"half": int(u0.size), "t_final": t_final, "final": final.tolist()}
    if task == "sweep":
        return {}
    raise ValueError(f"no oracle for task {task!r}")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_eigen(config: dict, ref: dict, out: Path) -> list[str]:
    rows = _read_csv(out / "eigenvalues.csv")
    dim = ref["dimension"]
    if rows[0] != ["rank", "real", "imag", "magnitude"]:
        return [f"eigenvalues.csv header {rows[0]}"]
    body = rows[1:]
    if len(body) != dim:
        return [f"eigenvalues.csv has {len(body)} rows, expected {dim}"]
    ranks = [int(r[0]) for r in body]
    values = np.array([[float(x) for x in r[1:]] for r in body])
    real, imag, mag = values.T
    problems = []
    if ranks != list(range(1, dim + 1)):
        problems.append("ranks are not 1..dim")
    if not np.all(np.isfinite(values)):
        problems.append("non-finite eigenvalue entries")
        return problems
    if np.any(imag != 0.0):
        problems.append("nonzero imaginary part in a symmetric spectrum")
    if np.any(mag != np.abs(real)) or np.any(np.diff(mag) < 0):
        problems.append("magnitudes inconsistent or not ascending")
    trace_err = abs(real.sum() - ref["trace"]) / abs(ref["trace"])
    frob_err = abs(np.sum(real * real) - ref["frobenius_sq"]) / ref["frobenius_sq"]
    if not trace_err <= EIGEN_TOLERANCE:
        problems.append(f"eigenvalue sum differs from trace(A) by {trace_err:.3e} relative")
    if not frob_err <= EIGEN_TOLERANCE:
        problems.append(f"sum of squares differs from ||A||_F^2 by {frob_err:.3e} relative")
    summary = json.loads((out / "summary.json").read_text())
    if summary["dimension"] != dim:
        problems.append(f"summary dimension {summary['dimension']} != {dim}")
    if summary["symmetry"]["defect"] != 0.0:
        problems.append(f"symmetry defect {summary['symmetry']['defect']} != 0")
    return problems


def _check_simulate(config: dict, ref: dict, out: Path) -> list[str]:
    sim = config["simulate"]
    half = ref["half"]
    snapshots = len(range(0, sim["steps"] + 1, sim["stride"]))
    lines = (out / "trajectory.csv").read_text().splitlines()
    if lines[0] != "t,field,patch,interior,position,value":
        return [f"trajectory.csv header {lines[0]!r}"]
    body = lines[1:]
    expected = snapshots * 2 * half
    if len(body) != expected:
        return [f"trajectory.csv has {len(body)} data rows, expected {expected}"]
    values = np.array([float(line.rsplit(",", 1)[1]) for line in body])
    if not np.all(np.isfinite(values)):
        return ["non-finite trajectory values"]
    problems = []
    last = body[-2 * half:]
    t_last = float(last[0].split(",", 1)[0])
    if not math.isclose(t_last, ref["t_final"], rel_tol=1e-12):
        problems.append(f"last snapshot at t = {t_last}, expected {ref['t_final']}")
    fields = [line.split(",", 2)[1] for line in last]
    if fields != ["u"] * half + ["v"] * half:
        problems.append("last snapshot is not u then v")
    final = values[-2 * half:]
    want = np.array(ref["final"])
    diff = float(np.linalg.norm(final - want) / np.linalg.norm(want))
    if not diff <= TRAJECTORY_TOLERANCE:
        problems.append(f"final state differs from expm_multiply by {diff:.3e} relative")
    summary = json.loads((out / "summary.json").read_text())
    if summary["snapshots"] != sim["steps"] + 1:
        problems.append(f"summary reports {summary['snapshots']} snapshots")
    return problems


def _check_sweep(config: dict, ref: dict, out: Path) -> list[str]:
    sweep = config["sweep"]
    modes = sweep["modes"]
    rows = _read_csv(out / "sweep.csv")
    if rows[0] != ["patches"] + [f"err_mode_{k}" for k in range(1, modes + 1)]:
        return [f"sweep.csv header {rows[0]}"]
    body = rows[1:]
    if [int(r[0]) for r in body] != sweep["values"]:
        return [f"sweep.csv patch counts {[r[0] for r in body]} != {sweep['values']}"]
    errors = np.array([[float(x) for x in r[1:]] for r in body])
    if errors.shape != (len(sweep["values"]), modes):
        return [f"sweep.csv error table has shape {errors.shape}"]
    if not (np.all(np.isfinite(errors)) and np.all(errors > 0)):
        return ["sweep errors not all finite and positive"]
    slopes = json.loads((out / "summary.json").read_text()).get("slopes")
    if not isinstance(slopes, list) or len(slopes) != modes:
        return [f"summary slopes {slopes!r}"]
    target = -2.0 * config["coupling"]["order"]
    log_n = np.log(np.array(sweep["values"], dtype=float))
    problems = []
    for k, slope in enumerate(slopes):
        fitted = float(np.polyfit(log_n, np.log(errors[:, k]), 1)[0])
        if slope is None or not abs(slope - fitted) <= 1e-9 * abs(fitted):
            problems.append(f"mode {k + 1}: slope {slope} is not the fit {fitted} of its errors")
        elif not abs(slope - target) <= SLOPE_TOLERANCE:
            problems.append(f"mode {k + 1}: slope {slope:.3f} not within {SLOPE_TOLERANCE} of {target}")
    return problems


_CHECKS = {"eigen": _check_eigen, "simulate": _check_simulate, "sweep": _check_sweep}


def check(config: dict, ref: dict, out) -> list[str]:
    """Problems with the artefacts of one run in `out`; empty when correct."""
    try:
        return _CHECKS[config["task"]](config, ref, Path(out))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artefacts: {type(exc).__name__}: {exc}"]
