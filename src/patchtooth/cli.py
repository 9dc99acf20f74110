"""Command line driver: JSON config in, CSV and JSON artefacts out.

A run config names a model (diffusion1d, diffusion2d, wave1d), a patch grid,
a diffusivity profile (inline values or a seeded log-normal draw), a coupling
scheme, and a task.  Tasks:

    eigen       full spectrum, macro/micro split, gap and kernel diagnostics
    simulate    time integration, trajectory CSV with physical positions
    homogenize  K2, K4, beta of the profile plus slow-branch samples
    sweep       error tables against the spectral reference over coupling
                order or patch count (fixed microscale spacing)
    check       operator health report, optionally consistency against the
                assembled full lattice when the grid has one (r = 1)

Exit codes: 0 success, 1 malformed config (schema, cross-field semantics,
non-finite numbers or integers beyond the double range, inconsistent inline
profiles, grids with more unknowns than an array can index or a lattice
spacing whose 1/d^2 is not finite, diffusivities that are not finite or whose
stencil entries overflow), 2 numerical precondition failure (incompatible
single-phase assembly, lost symmetry, branch separation, unstable step, a run
that runs out of memory and the like).

All floating point output is formatted with %.17g and JSON keys are sorted,
so identical configs reproduce artefacts byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import geometry
from .assembly import (
    _raise_on_errors,
    assemble_patch_1d,
    assemble_patch_2d,
    assemble_wave,
    symmetry_defect,
)
from .coupling import CouplingSpec, weights_for
from .homogenize import (
    BranchSeparationError,
    FitResidualError,
    extract_coefficients,
    slow_branch,
)
from .microscale import (
    DiffusivityProfile1D,
    DiffusivityProfile2D,
    full_lattice_operator_1d,
    full_lattice_operator_2d,
    random_lognormal_profile,
    random_lognormal_profile_2d,
)
from .spectra import (
    SymmetryPreconditionError,
    convergence_slope,
    eigen_general,
    eigen_symmetric,
    error_table,
)
from .timestep import StabilityError, StateVector, conserved_mass, evolve_exact, evolve_rk4


class ConfigError(ValueError):
    """Config is structurally valid JSON but semantically unusable."""


_GRID_1D = {
    "type": "object",
    "properties": {
        "L": {"type": "number", "exclusiveMinimum": 0},
        "N": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "r": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
    "required": ["L", "N", "n", "r"],
    "additionalProperties": False,
}

_POSITIVE_ROW = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1}

_PROFILE = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "inline"},
                "values": _POSITIVE_ROW,
                "period": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "values"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "inline"},
                "kx": {"type": "array", "items": _POSITIVE_ROW, "minItems": 1},
                "ky": {"type": "array", "items": _POSITIVE_ROW, "minItems": 1},
                "periods": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "required": ["kind", "kx", "ky"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "lognormal"},
                "period": {"type": "integer", "minimum": 1},
                "periods": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "sigma": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["kind", "sigma", "seed"],
            "additionalProperties": False,
        },
    ],
}

_INITIAL = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["sine", "constant", "random"]},
        "mode": {"type": "integer", "minimum": 0},
        "modes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "amplitude": {"type": "number"},
        "offset": {"type": "number"},
        "value": {"type": "number"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": {"enum": ["diffusion1d", "diffusion2d", "wave1d"]},
        "grid": {
            "oneOf": [
                _GRID_1D,
                {
                    "type": "object",
                    "properties": {"x": _GRID_1D, "y": _GRID_1D},
                    "required": ["x", "y"],
                    "additionalProperties": False,
                },
            ]
        },
        "profile": _PROFILE,
        "coupling": {
            "type": "object",
            "properties": {
                "scheme": {"enum": ["spectral", "lagrangian"]},
                "order": {"type": "integer", "minimum": 1},
            },
            "required": ["scheme"],
            "additionalProperties": False,
        },
        "ensemble": {"type": "boolean"},
        "allow_incompatible": {"type": "boolean"},
        "epsilon": {"type": "number", "minimum": 0},
        "task": {"enum": ["eigen", "simulate", "homogenize", "sweep", "check"]},
        "eigen": {
            "type": "object",
            "properties": {"n_macro": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "simulate": {
            "type": "object",
            "properties": {
                "integrator": {"enum": ["exact", "rk4"]},
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "snapshots": {"type": "integer", "minimum": 1},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
                "stride": {"type": "integer", "minimum": 1},
                "allow_unstable": {"type": "boolean"},
                "initial": _INITIAL,
            },
            "additionalProperties": False,
        },
        "homogenize": {
            "type": "object",
            "properties": {
                "node_spacing": {"type": "number", "exclusiveMinimum": 0},
                "node_count": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "parameter": {"enum": ["order", "patches"]},
                "values": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "modes": {"type": "integer", "minimum": 1},
            },
            "required": ["parameter", "values"],
            "additionalProperties": False,
        },
        "out": {"type": "string"},
    },
    "required": ["model", "grid", "profile", "coupling", "task"],
    "additionalProperties": False,
}


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _unusable_numbers(value, path=""):
    """(path, problem) of each number in a parsed config that no finite double holds."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, "not a finite number"
    elif isinstance(value, int) and not isinstance(value, bool) and abs(value) > sys.float_info.max:
        yield path, "too large for a double"
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _unusable_numbers(item, f"{path}[{key!r}]")


def _validate_config(config: dict) -> None:
    # JSON parsers accept NaN, Infinity and integers of any size, and NaN
    # passes every schema bound.
    for path, problem in _unusable_numbers(config):
        raise ConfigError(f"at {path or '(top level)'}: {problem}")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: len(e.absolute_path))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        path = "".join(f"[{part!r}]" for part in best.absolute_path) or "(top level)"
        raise ConfigError(f"at {path}: {best.message}")

    model = config["model"]
    grid_is_2d = "x" in config["grid"]
    if (model == "diffusion2d") != grid_is_2d:
        raise ConfigError(
            f"model {model} and grid shape disagree: "
            f"{'2D' if grid_is_2d else '1D'} grid supplied"
        )
    profile = config["profile"]
    profile_is_2d = "kx" in profile or "periods" in profile
    if (model == "diffusion2d") != profile_is_2d:
        raise ConfigError(
            f"model {model} and profile shape disagree: "
            f"{'2D' if profile_is_2d else '1D'} profile supplied"
        )
    if profile["kind"] == "lognormal" and not profile_is_2d and "period" not in profile:
        raise ConfigError("a 1D lognormal profile needs a period")
    if config["coupling"]["scheme"] == "lagrangian" and "order" not in config["coupling"]:
        raise ConfigError("lagrangian coupling needs an order")
    if config["coupling"]["scheme"] == "spectral" and "order" in config["coupling"]:
        raise ConfigError("spectral coupling takes no order")

    task = config["task"]
    if task == "homogenize" and model != "diffusion1d":
        raise ConfigError("homogenize works on the 1D diffusion symbol only")
    if task == "sweep":
        if model == "wave1d":
            raise ConfigError("sweep compares symmetric spectra; wave model unsupported")
        if "sweep" not in config:
            raise ConfigError("the sweep task needs a sweep section")
        sweep = config["sweep"]
        if sweep["parameter"] == "order" and config["coupling"]["scheme"] != "spectral":
            raise ConfigError(
                "an order sweep varies the Lagrangian order against the "
                "spectral reference; set coupling.scheme to spectral"
            )
        if sweep["parameter"] == "patches" and model != "diffusion1d":
            raise ConfigError("patch-count sweeps are 1D only")
    if task == "simulate":
        sim = config.get("simulate", {})
        integrator = sim.get("integrator", "rk4" if model == "wave1d" else "exact")
        if model == "wave1d" and integrator == "exact":
            raise ConfigError("the wave system is not symmetric; use the rk4 integrator")
        if integrator == "exact" and "t_final" not in sim:
            raise ConfigError("exact integration needs t_final")
        if integrator == "rk4" and not ("dt" in sim and "steps" in sim):
            raise ConfigError("rk4 integration needs dt and steps")


def _build_profile(config: dict):
    spec = config["profile"]
    try:
        if spec["kind"] == "inline":
            if "kx" in spec:
                return DiffusivityProfile2D.from_json(spec)
            return DiffusivityProfile1D.from_json(spec)
        if "periods" in spec:
            px, py = spec["periods"]
            return random_lognormal_profile_2d(px, py, spec["sigma"], spec["seed"])
        return random_lognormal_profile(spec["period"], spec["sigma"], spec["seed"])
    except ValueError as exc:
        raise ConfigError(f"at ['profile']: {exc}") from exc


def _build_grid(config: dict):
    g = config["grid"]
    if "x" in g:
        return geometry.build_grid_2d(
            g["x"]["L"], g["x"]["N"], g["x"]["n"], g["x"]["r"],
            g["y"]["L"], g["y"]["N"], g["y"]["n"], g["y"]["r"],
        )
    return geometry.build_grid_1d(g["L"], g["N"], g["n"], g["r"])


def _check_representable(config: dict, grid, profile) -> None:
    """Reject a grid whose unknowns (members x N * n per axis) no array can index
    or whose lattice spacing d has no finite 1/d^2, and a profile whose largest
    stencil entry, 2 max(bonds) / d^2 summed over the axes, overflows."""
    count = math.prod(profile.periods) if config.get("ensemble", False) else 1
    limit = np.iinfo(np.intp).max
    sections = ["['grid']['x']", "['grid']['y']"] if len(grid.axes) > 1 else ["['grid']"]
    for section, g in zip(sections, grid.axes):
        count *= g.N * g.n
        if count > limit:
            raise ConfigError(f"at {section}: more unknowns than an array can index ({limit})")
    with np.errstate(over="ignore", divide="ignore"):
        scales = [1.0 / np.square(g.d) for g in grid.axes]
        for section, g, scale in zip(sections, grid.axes, scales):
            if not np.isfinite(scale):
                raise ConfigError(
                    f"at {section}: the lattice spacing d = {g.d!r} has no finite 1/d^2"
                )
        largest = sum(2.0 * np.max(bonds) * scale for scale, bonds in zip(scales, profile.bonds))
    if not np.isfinite(largest):
        raise ConfigError(
            "at ['profile']: the largest stencil entry, 2 max(diffusivity) / d^2 "
            "summed over the axes, is not a finite double"
        )


def _build_coupling(config: dict) -> CouplingSpec:
    c = config["coupling"]
    return CouplingSpec(scheme=c["scheme"], order=c.get("order"))


def _assemble(config: dict, grid, profile):
    coupling = _build_coupling(config)
    ens = bool(config.get("ensemble", False))
    allow = bool(config.get("allow_incompatible", False))
    if config["model"] == "diffusion2d":
        op = assemble_patch_2d(grid, profile, coupling, ensemble=ens,
                               allow_incompatible=allow)
    else:
        op = assemble_patch_1d(grid, profile, coupling, ensemble=ens,
                               allow_incompatible=allow)
    if config["model"] == "wave1d":
        op = assemble_wave(op, epsilon=float(config.get("epsilon", 0.02)))
    return op


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_eigen_csv(path: Path, values: np.ndarray) -> None:
    """eigenvalues.csv: rank, real, imag, magnitude per eigenvalue.

    The bytes are those csv.writer writes with _fmt fields: one %-format per row.
    """
    columns = (values.real.tolist(), values.imag.tolist(), np.abs(values).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("rank,real,imag,magnitude\r\n")
        fh.writelines(
            "%d,%.17g,%.17g,%.17g\r\n" % row for row in zip(range(1, values.size + 1), *columns)
        )


def _task_eigen(config: dict, grid, profile, out: Path) -> None:
    op = _assemble(config, grid, profile)
    n_macro = config.get("eigen", {}).get("n_macro")
    if config["model"] == "wave1d":
        report = eigen_general(op, n_macro=n_macro)
        sym = symmetry_defect(op)
        extra = {"max_real_part": float(np.max(np.real(report.eigenvalues)))}
    else:
        report = eigen_symmetric(op, n_macro=n_macro)
        sym = report.symmetry
        extra = {"max_eigenvalue": float(np.max(np.real(report.eigenvalues)))}
    _write_eigen_csv(out / "eigenvalues.csv", report.eigenvalues)
    _write_json(out / "summary.json", {
        "model": config["model"],
        "dimension": op.dimension,
        "n_macro": int(report.n_macro),
        "zero_mode_magnitude": report.zero_mode_magnitude,
        "gap_ratio": report.gap_ratio,
        "symmetry": {"defect": sym.defect, "scale": sym.scale, "relative": sym.relative},
        **extra,
    })


def _positions(grid: geometry.PatchGrid1D) -> np.ndarray:
    """Interior lattice positions of every patch, shape (N, n)."""
    return np.array([grid.positions(I) for I in range(grid.N)])


def _initial_state(config: dict, op) -> StateVector:
    """One member's start values, repeated for every member; v = 0 for a wave.

    A sine start is offset + amplitude * the product over the axes of sin(2 pi m x / L).
    """
    init = config.get("simulate", {}).get("initial", {"kind": "sine"})
    layout = op.layout
    kind = init.get("kind", "sine")
    size = math.prod(layout.shape[1:])
    if kind == "constant":
        per_member = np.full(size, float(init.get("value", 1.0)))
    elif kind == "random":
        per_member = np.random.default_rng(int(init.get("seed", 0))).standard_normal(size)
    else:
        axes = op.grid.axes
        modes = init.get("modes", (1, 1)) if len(axes) > 1 else [int(init.get("mode", 1))]
        sines = [np.sin(2.0 * np.pi * m * _positions(g) / g.L) for g, m in zip(axes, modes)]
        # (N_y, n_y, N_x, n_x) from the outer product, then (patches..., points...) order
        product = functools.reduce(np.multiply.outer, sines[::-1])
        k = product.ndim
        product = product.transpose([*range(0, k, 2), *range(1, k, 2)])
        per_member = float(init.get("offset", 0.0)) + float(init.get("amplitude", 1.0)) * product
    u = np.tile(per_member.ravel(), layout.members)
    if layout.half is not None:
        u = np.concatenate([u, np.zeros_like(u)])
    return StateVector(values=u, time=0.0)


def _write_trajectory(path: Path, op, times: np.ndarray, states: np.ndarray) -> None:
    """trajectory.csv: a row (t, [field], [member], labels..., value) per snapshot and unknown.

    The bytes are those csv.writer writes (no field needs quoting, \r\n line
    ends).  Each unknown's label text is built once; a whole snapshot is then
    one %-format of its time and %.17g values.
    """
    layout = op.layout
    if isinstance(op.grid, geometry.PatchGrid2D):
        xs, ys = _positions(op.grid.x), _positions(op.grid.y)
        names = ["I", "J", "i", "j", "x", "y"]

        def label(J, I, j, i):
            return [I, J, i + 1, j + 1, _fmt(xs[I, i]), _fmt(ys[J, j])]
    else:
        pos = _positions(op.grid)
        names = ["patch", "interior", "position"]

        def label(I, i):
            return [I, i + 1, _fmt(pos[I, i])]

    wave = layout.half is not None
    header = (["t"] + (["field"] if wave else []) + (["member"] if layout.ensemble else [])
              + names + ["value"])
    # one label per unknown, in state order
    labels = [
        ",".join(map(str, ([e] if layout.ensemble else []) + label(*idx)))
        for e, *idx in np.ndindex(layout.shape)
    ]
    fields = ("u,", "v,") if wave else ("",)
    row = "".join(f"%s,{field}{lab}," + "%.17g\r\n" for field in fields for lab in labels)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, values in zip(times, states):
            args = [_fmt(t)] * (2 * values.size)
            args[1::2] = values.tolist()
            fh.write(row % tuple(args))


def _task_simulate(config: dict, grid, profile, out: Path) -> None:
    op = _assemble(config, grid, profile)
    sim = config.get("simulate", {})
    integrator = sim.get("integrator", "rk4" if config["model"] == "wave1d" else "exact")
    state = _initial_state(config, op)
    stride = int(sim.get("stride", 1))
    if integrator == "exact":
        t_final = float(sim["t_final"])
        snapshots = int(sim.get("snapshots", 10))
        times = np.linspace(0.0, t_final, snapshots + 1)
        traj = evolve_exact(op, state, times)
        final_time = traj.times[-1]
        stored = slice(None, None, stride)
    else:
        dt, steps = float(sim["dt"]), int(sim["steps"])
        traj = evolve_rk4(
            op, state, dt, steps,
            allow_unstable=bool(sim.get("allow_unstable", False)), stride=stride,
        )
        final_time = state.time + dt * steps
        stored = slice(None)
    _write_trajectory(out / "trajectory.csv", op, traj.times[stored], traj.states[stored])
    # one sum per step (rk4) or per snapshot (exact)
    sums, drift = conserved_mass(traj)
    _write_json(out / "summary.json", {
        "model": config["model"],
        "integrator": integrator,
        "snapshots": int(sums.size),
        "initial_mass": float(sums[0]),
        "mass_drift": drift,
        "final_time": float(final_time),
    })


def _task_homogenize(config: dict, grid, profile, out: Path) -> None:
    # The outputs depend on the profile and d only, so nothing is assembled.
    _require_compatible(config, grid, profile, bool(config.get("allow_incompatible", False)))
    params = config.get("homogenize", {})
    spacing = float(params.get("node_spacing", 0.02))
    count = int(params.get("node_count", 8))
    coeffs = extract_coefficients(profile, grid.d, node_spacing=spacing, node_count=count)
    _write_json(out / "homogenize.json", {
        "K2": coeffs.K2,
        "K4": coeffs.K4,
        "beta": coeffs.beta,
        "d": coeffs.d,
        "fit_residual": coeffs.fit_residual,
    })
    with open(out / "slow_branch.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "eigenvalue"])
        for m in range(1, count + 1):
            k = spacing * m
            writer.writerow([_fmt(k), _fmt(slow_branch(profile, k))])


def _require_compatible(config: dict, grid, profile, allow_incompatible: bool) -> None:
    """Reject an incompatible grid and profile as the assembler would, without assembling."""
    ensemble = bool(config.get("ensemble", False))
    _raise_on_errors(geometry.validate_compatibility(grid, profile, ensemble), allow_incompatible)


def _sweep_point(config: dict, base_grid, profile, parameter: str, value: int, modes: int):
    ens = bool(config.get("ensemble", False))
    if parameter == "order":
        grid = base_grid
        test_coupling = CouplingSpec(scheme="lagrangian", order=value)
    else:
        r = geometry.ratio_for_spacing(base_grid.L, value, base_grid.n, base_grid.d)
        grid = geometry.build_grid_1d(base_grid.L, value, base_grid.n, r)
        test_coupling = _build_coupling(config)
    assemble = assemble_patch_2d if config["model"] == "diffusion2d" else assemble_patch_1d
    test_op = assemble(grid, profile, test_coupling, ensemble=ens)
    ref_op = assemble(grid, profile, CouplingSpec(scheme="spectral"), ensemble=ens)
    table = error_table(eigen_symmetric(test_op), eigen_symmetric(ref_op), modes)
    return list(table.relative_errors)


def _task_sweep(config: dict, grid, profile, out: Path) -> None:
    sweep = config["sweep"]
    parameter = sweep["parameter"]
    values = list(sweep["values"])
    modes = int(sweep.get("modes", 3))
    # No base operator is assembled, so reject an incompatible base config
    # here, before any point is built.
    _require_compatible(config, grid, profile, allow_incompatible=False)
    rows = [_sweep_point(config, grid, profile, parameter, v, modes) for v in values]
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([parameter] + [f"err_mode_{k}" for k in range(1, modes + 1)])
        for value, errs in zip(values, rows):
            writer.writerow([value] + [_fmt(e) for e in errs])
    summary = {"parameter": parameter, "values": values, "modes": modes}
    if parameter == "patches" and len(values) >= 3:
        slopes = []
        for k in range(modes):
            errs = [rows[i][k] for i in range(len(values))]
            if all(e > 0 for e in errs):
                slopes.append(convergence_slope(values, errs))
            else:
                slopes.append(None)
        summary["slopes"] = slopes
    _write_json(out / "summary.json", summary)


def _full_lattice_reference(config: dict, op):
    """Assembled full-lattice counterpart, or (None, reason) if there is none."""
    if op.layout.half is not None:
        return None, "full-lattice comparison is defined for diffusion models"
    if op.layout.ensemble:
        return None, "ensemble runs have no single full-lattice counterpart"
    axes = op.grid.axes
    if any(g.r != 1.0 for g in axes):
        return None, "patches only tile the lattice at r = 1"
    sizes = [g.N * g.n for g in axes]
    lattice = f"full lattice of {' x '.join(map(str, sizes))} points"
    if min(sizes) < 3:
        return None, f"{lattice} is below the 3-point minimum"
    if math.prod(sizes) > 4096:
        return None, f"{lattice} too large for a dense comparison"
    if config["model"] == "diffusion2d":
        return full_lattice_operator_2d(op.profile, sizes, [g.d for g in axes]), None
    return full_lattice_operator_1d(op.profile, sizes[0], axes[0].d), None


def _task_check(config: dict, grid, profile, out: Path) -> None:
    op = _assemble(config, grid, profile)
    wave = op.layout.half is not None
    if wave:
        sym, report = symmetry_defect(op), eigen_general(op)
    else:
        try:
            report = eigen_symmetric(op)
            sym = report.symmetry
        except SymmetryPreconditionError as exc:
            report, sym = None, exc.symmetry
    dim = op.dimension
    if wave:
        half = op.layout.half
        kernel_vec = np.concatenate([np.ones(half), np.zeros(half)])
    else:
        kernel_vec = np.ones(dim)
    kernel_residual = float(np.max(np.abs(op.matvec(kernel_vec))))
    payload = {
        "model": config["model"],
        "dimension": dim,
        "symmetry": {"defect": sym.defect, "scale": sym.scale, "relative": sym.relative},
        "kernel_residual": kernel_residual,
        "diagnostics": [list(item) for item in op.layout.diagnostics],
    }
    if wave:
        payload["max_real_part"] = float(np.max(np.real(report.eigenvalues)))
        payload["zero_mode_magnitude"] = report.zero_mode_magnitude
    elif report is not None:
        payload["max_eigenvalue"] = float(np.max(np.real(report.eigenvalues)))
        payload["zero_mode_magnitude"] = report.zero_mode_magnitude
        payload["gap_ratio"] = report.gap_ratio
        full, reason = _full_lattice_reference(config, op)
        if full is None:
            payload["consistency"] = {"available": False, "reason": reason}
        else:
            patch_vals = np.sort(np.real(report.eigenvalues))
            full_vals = np.sort(np.linalg.eigvalsh(full.matrix))
            scale = float(np.max(np.abs(full_vals)))
            # The denominator floor keeps the kernel rows from reading
            # round-off noise as relative error.
            err = float(
                np.max(np.abs(patch_vals - full_vals) / np.maximum(np.abs(full_vals), 1e-9 * scale))
            )
            payload["consistency"] = {"available": True, "max_relative_error": err}
    else:
        payload["note"] = (
            "operator is not symmetric; spectral diagnostics skipped "
            "(rerun without allow_incompatible for a usable operator)"
        )
    _write_json(out / "check.json", payload)


_TASKS = {
    "eigen": _task_eigen,
    "simulate": _task_simulate,
    "homogenize": _task_homogenize,
    "sweep": _task_sweep,
    "check": _task_check,
}


def run(config: dict, outdir=None) -> int:
    """Validate a config, execute its task, write artefacts; returns exit code."""
    try:
        _validate_config(config)
        profile, grid = _build_profile(config), _build_grid(config)
        _check_representable(config, grid, profile)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(outdir if outdir is not None else config.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    try:
        _TASKS[config["task"]](config, grid, profile, out)
    except (
        SymmetryPreconditionError,
        BranchSeparationError,
        FitResidualError,
        StabilityError,
        ValueError,
        RuntimeError,
    ) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical precondition failed: out of memory{detail}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patchtooth",
        description="Self-adjoint patch scheme for heterogeneous lattice diffusion.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (default: config's 'out' or '.')")
    parser.add_argument(
        "--task", default=None,
        choices=["eigen", "simulate", "homogenize", "sweep", "check"],
        help="override the task named in the config",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    if args.task is not None:
        config = dict(config)
        config["task"] = args.task
    return run(config, outdir=args.out)


if __name__ == "__main__":
    sys.exit(main())
