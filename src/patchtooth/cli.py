"""Command line driver: JSON config in, CSV and JSON artefacts out.

A run config names a model (diffusion1d, diffusion2d, wave1d), a patch grid,
a diffusivity profile (inline values or a seeded log-normal draw), a coupling
scheme, and a task.  Tasks:

    eigen       full spectrum, macro/micro split, gap and kernel diagnostics
    simulate    time integration, trajectory CSV with physical positions
    homogenize  K2, K4 (a Taylor series), beta of the profile, slow-branch samples
    sweep       error tables against the spectral reference over coupling
                order or patch count (fixed microscale spacing)
    check       eigen's spectrum fields (one step, _spectrum), the kernel
                residual from the row sums of the first block row,
                diagnostics, and consistency against the assembled full
                lattice when the grid has one (r = 1)

Exit codes: 0 success; 1 a malformed config, and the message names the key
at fault: schema, cross-field rules, integers given as non-integers, numbers
no finite double holds, inconsistent inline profiles, grids with more
unknowns than an array can index or with no finite 1/d^2, diffusivities that
are not finite or whose stencil entries overflow, a Lagrangian stencil wider
than a grid the run assembles, swept patch counts that need r > 1 or do not
increase where slopes are fitted, a patch sweep with spectral coupling, a
sweep with allow_incompatible, an eigen n_macro beyond the operator's
dimension; 2 a numerical precondition failure (incompatible single-phase
assembly, lost symmetry, a profile beyond the solvers' dynamic range, branch
separation, a homogenised series swamped by round-off, unstable step, an RK4
run that leaves the double range, a run that runs out of memory and the
like); 3 a programming bug, any other exception, with its traceback.

CSV values are formatted with %.17g, JSON numbers with Python's shortest
repr, and JSON keys are sorted, so identical configs reproduce artefacts
byte for byte.  Every CSV goes through one table writer, _write_table: a
task hands it a header and fields.  The last field fills the table, one row
per index of its other axes, and comes as blocks of rows: simulate's states
a piece at a time as the integrator yields them, one block for any other
task.  It is formatted a block of values at a time (_text), so a run's
memory does not grow with its trajectory.  Each earlier field repeats along
one of those axes, as a trajectory's times and labels do, and is formatted
once (_compact).  JSON artefacts are strict: a gap ratio with no gap is
null.  Each artefact is written under a temporary name and renamed into
place when complete, so a failed run leaves no half-written file.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import traceback
import types
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .assembly import (
    _assemble_patches,
    _kernel_residual,
    _raise_on_errors,
    assemble_patch_1d,
    assemble_wave,
    symmetry_defect,
)
from .coupling import CouplingSpec, weights_for
from .homogenize import extract_coefficients, slow_branch
from .microscale import (
    DiffusivityProfile1D,
    DiffusivityProfile2D,
    _full_lattice,
    random_lognormal_profile,
    random_lognormal_profile_2d,
)
from .spectra import (
    SymmetryPreconditionError,
    _error_rows,
    _symmetric_solves,
    convergence_slope,
    eigen_general,
    eigen_symmetric,
)
from .timestep import StateVector, _exact_stream, _rk4_stream, conserved_mass


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
        "mode": {"type": "integer", "minimum": 0, "default": 1},
        "modes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
            "default": [1, 1],
        },
        "amplitude": {"type": "number", "default": 1.0},
        "offset": {"type": "number", "default": 0.0},
        "value": {"type": "number", "default": 1.0},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
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
        "ensemble": {"type": "boolean", "default": False},
        "allow_incompatible": {"type": "boolean", "default": False},
        "epsilon": {"type": "number", "minimum": 0, "default": 0.02},
        "task": {"enum": ["eigen", "simulate", "homogenize", "sweep", "check"]},
        "eigen": {
            "type": "object",
            "properties": {"n_macro": {"type": "integer", "minimum": 1}},
            "additionalProperties": False, "default": {},
        },
        "simulate": {
            "type": "object",
            "properties": {
                # the default integrator is rk4 for wave1d and exact otherwise (_resolve)
                "integrator": {"enum": ["exact", "rk4"]},
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "snapshots": {"type": "integer", "minimum": 1, "default": 10},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
                "stride": {"type": "integer", "minimum": 1, "default": 1},
                "allow_unstable": {"type": "boolean", "default": False},
                "initial": {**_INITIAL, "default": {"kind": "sine"}},
            },
            "additionalProperties": False, "default": {},
        },
        "homogenize": {
            "type": "object",
            "properties": {
                "node_spacing": {"type": "number", "exclusiveMinimum": 0, "default": 0.02},
                # the slow_branch.csv samples k = node_spacing * (1..node_count)
                "node_count": {"type": "integer", "minimum": 1, "default": 8},
            },
            "additionalProperties": False, "default": {},
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
                "modes": {"type": "integer", "minimum": 1, "default": 3},
            },
            "required": ["parameter", "values"],
            "additionalProperties": False,
        },
        "out": {"type": "string", "default": "."},
    },
    "required": ["model", "grid", "profile", "coupling", "task"],
    "additionalProperties": False,
}


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


_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def _schema_problem(value, schema: dict, path: tuple = ()):
    """The first (path, message) by which a parsed config breaks `schema`, or None.

    Knows the keywords SCHEMA uses, with their JSON Schema (draft 2020-12)
    meaning, except that an integer is a JSON integer: 1.0 is not one.  A
    bool is no number.  An object's missing and unexpected keys are reported
    before its values.  When every oneOf branch fails, the problem of the
    branch that got deepest into the value is reported.
    """
    kind = schema.get("type")
    if kind and (
        isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind])
    ):
        return path, f"{value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected, not {value!r}"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is below the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, f"{value!r} is not greater than {schema['exclusiveMinimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return path, f"{value!r} is above the maximum of {schema['maximum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} has fewer than {schema['minItems']} items"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} has more than {schema['maxItems']} items"
        for index, item in enumerate(value):
            if problem := _schema_problem(item, schema.get("items", {}), (*path, index)):
                return problem
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"the key {key!r} is required"
        if schema.get("additionalProperties", True) is False:
            for key in value:
                if key not in properties:
                    return path, f"the key {key!r} is not allowed here"
        for key, sub in properties.items():
            if key in value and (problem := _schema_problem(value[key], sub, (*path, key))):
                return problem
    if "oneOf" in schema:
        problems = [_schema_problem(value, branch, path) for branch in schema["oneOf"]]
        if None not in problems:
            return max(problems, key=lambda problem: len(problem[0]))
        if problems.count(None) > 1:
            return path, "more than one of the allowed forms fits"
    return None


def _with_defaults(value, schema: dict):
    """A copy of `value` with the `default` of each property `schema` gives one
    filled in where the key is absent, at every depth."""
    if not isinstance(value, dict):
        return value
    properties = schema.get("properties", {})
    filled = {key: sub["default"] for key, sub in properties.items() if "default" in sub} | value
    return {key: _with_defaults(item, properties.get(key, {})) for key, item in filled.items()}


@dataclass(frozen=True)
class _Run:
    """A checked config: what it builds, and what it asks for with every default filled in.

    `section` is the task's own section (None for check); `swept_grids` a patch sweep's grids.
    """

    model: str
    task: str
    grid: geometry.PatchGrid1D | geometry.PatchGrid2D
    profile: DiffusivityProfile1D | DiffusivityProfile2D
    coupling: CouplingSpec
    ensemble: bool
    allow_incompatible: bool
    epsilon: float
    out: str
    section: dict | None
    swept_grids: tuple


def _resolve(config) -> _Run:
    """Check a parsed config and build its run; raises ConfigError naming the key at fault.

    SCHEMA states the format: keys, types, bounds and defaults.  The checks
    run in a fixed order, the schema's first, so a config with several
    faults always reports the same one.
    """
    # JSON parsers accept NaN, Infinity and integers of any size, and NaN
    # passes every schema bound.
    for path, problem in _unusable_numbers(config):
        raise ConfigError(f"at {path or '(top level)'}: {problem}")
    if problem := _schema_problem(config, SCHEMA):
        path, message = problem
        where = "".join(f"[{part!r}]" for part in path) or "(top level)"
        raise ConfigError(f"at {where}: {message}")
    config = _with_defaults(config, SCHEMA)

    model, task, spec, g = config["model"], config["task"], config["profile"], config["grid"]
    grid_is_2d = "x" in g
    profile_is_2d = "kx" in spec or "periods" in spec
    for key, is_2d in (("grid", grid_is_2d), ("profile", profile_is_2d)):
        if (model == "diffusion2d") != is_2d:
            raise ConfigError(f"at [{key!r}]: model {model} and {key} shape disagree: "
                              f"{'2D' if is_2d else '1D'} {key} supplied")
    if spec["kind"] == "lognormal" and not profile_is_2d and "period" not in spec:
        raise ConfigError("at ['profile']: a 1D lognormal profile needs a period")
    try:
        coupling = CouplingSpec(**config["coupling"])
    except ValueError as exc:
        raise ConfigError(f"at ['coupling']: {exc}") from exc

    section = config.get(task)
    if task == "homogenize" and model != "diffusion1d":
        raise ConfigError("at ['task']: homogenize works on the 1D diffusion symbol only")
    if task == "sweep":
        if model == "wave1d":
            raise ConfigError("at ['task']: sweep compares symmetric spectra; wave model unsupported")
        if config["allow_incompatible"]:
            raise ConfigError("at ['allow_incompatible']: a sweep's symmetric solves need "
                              "compatible operators; the waiver does not apply to a sweep")
        if section is None:
            raise ConfigError("at ['sweep']: the sweep task needs a sweep section")
        patches = section["parameter"] == "patches"
        if not patches and coupling.scheme != "spectral":
            raise ConfigError(
                "at ['coupling']['scheme']: an order sweep varies the Lagrangian order "
                "against the spectral reference; set coupling.scheme to spectral"
            )
        if patches and model != "diffusion1d":
            raise ConfigError("at ['sweep']['parameter']: patch-count sweeps are 1D only")
        if patches:
            N = (min(section["values"]),)
        else:
            N = tuple(axis["N"] for axis in (g["x"], g["y"])) if grid_is_2d else (g["N"],)
        # the classes {j, -j} of nonzero patch wavenumbers; j = -j (mod N)
        # only at j = 0 and, along an axis of even N, at j = N / 2
        limit = (math.prod(N) + math.prod(2 - N_a % 2 for N_a in N)) // 2 - 1
        if section["modes"] > limit:
            raise ConfigError(
                f"at ['sweep']['modes']: {section['modes']} wavenumbers asked for, but the "
                f"{'smallest swept ' if patches else ''}grid "
                f"has {limit} distinct nonzero ones"
            )
    if task == "simulate":
        section.setdefault("integrator", "rk4" if model == "wave1d" else "exact")
        if model == "wave1d" and section["integrator"] == "exact":
            raise ConfigError("at ['simulate']['integrator']: the wave system is not "
                              "symmetric; use the rk4 integrator")
        if section["integrator"] == "exact" and "t_final" not in section:
            raise ConfigError("at ['simulate']: exact integration needs t_final")
        if section["integrator"] == "rk4" and not ("dt" in section and "steps" in section):
            raise ConfigError("at ['simulate']: rk4 integration needs dt and steps")

    try:
        if spec["kind"] == "inline":
            profile = (DiffusivityProfile2D if "kx" in spec else DiffusivityProfile1D).from_json(spec)
        elif "periods" in spec:
            profile = random_lognormal_profile_2d(*spec["periods"], spec["sigma"], spec["seed"])
        else:
            profile = random_lognormal_profile(spec["period"], spec["sigma"], spec["seed"])
    except ValueError as exc:
        raise ConfigError(f"at ['profile']: {exc}") from exc
    if grid_is_2d:
        grid = geometry.build_grid_2d(*(g[axis][key] for axis in "xy" for key in "LNnr"))
    else:
        grid = geometry.build_grid_1d(*(g[key] for key in "LNnr"))
    unknowns = _check_representable(grid, profile, config["ensemble"])

    swept_grids = ()
    if task == "sweep" and patches:
        values = section["values"]
        for v in values:
            try:
                r = geometry.ratio_for_spacing(grid.L, v, grid.n, grid.d)
            except ValueError as exc:
                raise ConfigError(f"at ['sweep']['values']: N = {v}: {exc}") from exc
            swept_grids += (geometry.build_grid_1d(grid.L, v, grid.n, r),)
        if len(values) >= 3 and any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(
                "at ['sweep']['values']: the patch counts of a sweep with fitted "
                "convergence slopes (three or more values) must strictly increase"
            )
    # the Lagrangian stencil of each grid the run assembles must fit in its patch count
    if task in ("eigen", "simulate", "check"):
        stencils = [("['coupling']['order']", coupling, grid)]
    elif task == "sweep" and patches:
        stencils = [("['sweep']['values']", coupling, min(swept_grids, key=lambda s: s.N))]
    elif task == "sweep":
        stencils = [("['sweep']['values']", CouplingSpec("lagrangian", v), grid)
                    for v in section["values"]]
    else:
        stencils = []
    for key, stencil, assembled in stencils:
        if stencil.scheme == "lagrangian":
            for axis in assembled.axes:
                try:
                    weights_for(stencil, axis.N, axis.r)
                except ValueError as exc:
                    raise ConfigError(f"at {key}: {exc}") from exc
    if task == "sweep" and patches and coupling.scheme == "spectral":
        raise ConfigError(
            "at ['coupling']['scheme']: a patch sweep measures the Lagrangian scheme "
            "against the spectral reference; set coupling.scheme to lagrangian"
        )
    dimension = 2 * unknowns if model == "wave1d" else unknowns
    if task == "eigen" and section.get("n_macro", 1) > dimension:
        raise ConfigError(
            f"at ['eigen']['n_macro']: {section['n_macro']} macro modes asked for, "
            f"but the operator has {dimension} eigenvalues"
        )

    return _Run(
        model=model, task=task, grid=grid, profile=profile, coupling=coupling,
        ensemble=config["ensemble"], allow_incompatible=config["allow_incompatible"],
        epsilon=float(config["epsilon"]), out=config["out"], section=section,
        swept_grids=swept_grids,
    )


def _check_representable(grid, profile, ensemble: bool) -> int:
    """The count of unknowns (members x N * n per axis).  Rejects a grid whose count no
    array can index or whose lattice spacing d has no finite 1/d^2, and a profile
    whose largest stencil entry, 2 max(bonds) / d^2 summed over the axes, overflows."""
    count = math.prod(profile.periods) if ensemble else 1
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
    return count


def _assemble(run: _Run):
    # assemble_patch_1d assembles 2D grids too; assemble_patch_2d is the same function
    op = assemble_patch_1d(run.grid, run.profile, run.coupling, ensemble=run.ensemble,
                           allow_incompatible=run.allow_incompatible)
    if run.model == "wave1d":
        op = assemble_wave(op, epsilon=run.epsilon)
    return op


# %.17g text in bulk.  A value's digits are D = round-half-even(|x| 10^(16 - X)),
# 10^16 <= D < 10^17, with X its decimal exponent after rounding.  |x| 10^s is
# taken as a double-double: Dekker's exact product of |x| and the double
# nearest 10^s, plus |x| times the remainder of 10^s.  Its error is below
# 2^-104 of the product: 2^-47 for the digits (below 2^57), 2^-44 for the
# tenfold products a one-off exponent gives.  So a fraction farther than
# _MARGIN from 1/2 rounds exactly.  The rest (non-finite values, magnitudes
# outside [_LEAST, _BEYOND), fractions too close to 1/2, exact ties among
# them) take '%.17g' itself.  This needs IEEE binary64 arithmetic without
# fused multiply-add, which numpy's one-operation ufuncs give.

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's factor: splits a double into 26-bit halves
_LEAST, _BEYOND = 1e-100, 1e100
_X_MIN, _X_MAX = -101, 100  # the decimal exponents of that range
_MARGIN = 0.5 - 2.0**-40
_S_MIN = 16 - _X_MAX - 1  # the powers 10^s the exponent search can ask for


def _rounded_digits(a: np.ndarray, X: np.ndarray):
    """round-half-even(a 10^(16 - X)) as int64, and where that rounding is undecided."""
    s = 16 - X - _S_MIN
    hi, lo, top, bottom = (row[s] for row in _tables().powers)
    product = a * hi
    upper = _SPLIT * a - (_SPLIT * a - a)
    lower = a - upper
    error = ((upper * top - product) + upper * bottom + lower * top) + lower * bottom
    rest = error + a * lo
    whole = np.rint(rest)
    undecided = np.abs(rest - whole) > _MARGIN
    return product.astype(np.int64) + whole.astype(np.int64), undecided


def _decimal(a: np.ndarray):
    """Decimal exponent X, the 17 digits D and the undecided flags of positive doubles."""
    X = np.floor(np.log10(a)).astype(np.int64)
    D, undecided = _rounded_digits(a, X)
    # log10 may be one off near powers of ten
    up = np.flatnonzero(D >= 10**17)
    if up.size:
        X[up] += 1
        D[up], undecided_up = _rounded_digits(a[up], X[up])
        undecided[up] |= undecided_up
    # D = 10^16 can also be the carry of X - 1's rounding
    down = np.flatnonzero(D <= 10**16)
    if down.size:
        D_down, undecided_down = _rounded_digits(a[down], X[down] - 1)
        keep = D_down < 10**17
        down = down[keep]
        X[down] -= 1
        D[down] = D_down[keep]
        undecided[down] |= undecided_down[keep]
    return X, D, undecided


# A value's text is put together in five little-endian 64-bit words: the
# sign and the "0.000" lead of -4 <= X < 0; three words of digits, the point
# among them; the exponent and the end of the value's column.  Each word's
# text is NUL-padded on the right.
_WORD = np.dtype("<u8")
_TEXT_WORDS = 5
# Formatted text per block of values, which bounds the writers' memory; 2^18
# wrote the rk4-wave1d trajectory faster than 2^17 or 2^19 (see README).
_BLOCK_BYTES = 2**18
_BLOCK_VALUES = _BLOCK_BYTES // (_TEXT_WORDS * _WORD.itemsize)


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The formatter's lookup tables, built on first use."""
    powers = []  # hi, lo, hi's upper and lower 26-bit halves of 10^s = hi + lo, from _S_MIN up
    for s in range(_S_MIN, 18 - _X_MIN):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den  # exact integers, so both divisions round correctly
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        top = _SPLIT * hi - (_SPLIT * hi - hi)
        powers.append((hi, lo, top, hi - top))
    chunks = np.arange(10**4)
    # for a chunk of four of the digits d1..d16, the count of those up to its last nonzero one
    last = sum(chunks % 10**k != 0 for k in range(1, 5))
    exponents = [b"" if -4 <= X < 17 else b"e%+03d" % X for X in range(_X_MIN, _X_MAX + 1)]
    return types.SimpleNamespace(
        powers=np.array(powers).T.copy(),
        # the four ASCII digits of 0..9999 in the low bytes of a word
        spread=sum((chunks // 10 ** (3 - k) % 10 + 48) << 8 * k for k in range(4)).astype(_WORD),
        ends=np.array([np.where(last > 0, 4 * k + last, 0) for k in range(4)], np.int8),
        # by 2 (X - _X_MIN) + sign: the sign and the lead
        heads=np.array(
            [int.from_bytes(sign + (b"0." + b"0" * (-X - 1) if -4 <= X < 0 else b""), "little")
             for X in range(_X_MIN, _X_MAX + 1) for sign in (b"", b"-")],
            _WORD,
        ),
        # by X - _X_MIN: the exponent, and its length in bits
        tails=np.array([int.from_bytes(e, "little") for e in exponents], _WORD),
        tail_bits=np.array([8 * len(e) for e in exponents], _WORD),
        # per digit word, by q: the mask of the digits before the q-th
        # (q = 24: all), and the point put at the q-th
        before=np.array([[2 ** (8 * min(max(q - 8 * w, 0), 8)) - 1 for q in range(25)]
                         for w in range(3)], _WORD),
        dots=np.array([[ord(".") << 8 * (q - 8 * w) if 0 <= q - 8 * w < 8 else 0 for q in range(25)]
                       for w in range(3)], _WORD),
    )


def _text(values, ends) -> np.ndarray:
    """The '%.17g' text of each double, followed by the end of its column.

    `values` has one column per item of `ends` along its last axis.  A row's
    texts come as 64-bit words along that axis, _TEXT_WORDS per value, NUL
    bytes (anywhere in them) being padding.
    """
    values = np.asarray(values, dtype=np.float64)
    x = values.ravel()
    negative = np.signbit(x)
    a = np.abs(x)
    zero = a == 0
    with np.errstate(invalid="ignore"):
        bulk = (a >= _LEAST) & (a < _BEYOND)
    X, D, slow = _decimal(np.where(bulk, a, 1.0))
    X[zero] = D[zero] = 0
    slow |= ~(bulk | zero)

    # D's digits d0..d16: d0, then four chunks of four
    high, low = np.divmod(D, 10**8)
    high, low = high.astype(np.uint32), low.astype(np.uint32)
    first, high = np.divmod(high, 10**8)
    chunks = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    t = _tables()
    digits = functools.reduce(np.maximum, (t.ends[k][c] for k, c in enumerate(chunks)))
    digits += 1
    fixed = (X >= 0) & (X < 17)
    kept = np.where(fixed, np.maximum(digits, X + 1), digits)
    # the point follows digit X in fixed notation, d0 in exponent notation
    point = np.where(fixed, X + 1, np.where((X >= -4) & (X < 0), 24, 1))
    point[kept <= point] = 24

    words = np.empty((x.size, _TEXT_WORDS), _WORD)
    index = X - _X_MIN
    words[:, 0] = t.heads[2 * index + negative]
    c1, c2, c3, c4 = (t.spread[c] for c in chunks)
    digit_words = (
        first.astype(_WORD) + 48 | c1 << 8 | c2 << 40,
        c2 >> 24 | c3 << 8 | c4 << 40,
        c4 >> 24,
    )
    carry = 0
    for w, word in enumerate(digit_words):
        word &= t.before[w][kept]
        before = t.before[w][point]
        after = word & ~before
        words[:, w + 1] = word & before | t.dots[w][point] | after << 8 | carry
        carry = after >> 56
    end_words = np.array([int.from_bytes(end, "little") for end in ends], _WORD)
    tails = t.tails[index].reshape(-1, len(ends))
    words[:, 4] = (tails | end_words << t.tail_bits[index].reshape(tails.shape)).ravel()

    text = words.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        text[i] = 0
        one = b"%.17g" % x[i] + ends[i % len(ends)]
        text[i, : len(one)] = np.frombuffer(one, np.uint8)
    return words.reshape(*values.shape[:-1], -1)


def _compact(field: np.ndarray, ends: list) -> np.ndarray:
    """Each row of a field as 64-bit words of text: its columns' text, each followed by its end.

    Every row is NUL-padded to the words of the longest, along a new last axis.
    """
    if field.dtype.kind == "S":
        strings = functools.reduce(np.char.add, map(np.char.add, np.moveaxis(field, -1, 0), ends))
    else:
        flat, rows = field.reshape(-1, field.shape[-1]), []
        step = max(1, _BLOCK_VALUES // flat.shape[1])
        for start in range(0, len(flat), step):
            text = _text(flat[start : start + step], ends)
            rows += (r.replace(b"\0", b"") for r in text.view(f"S{8 * text.shape[1]}").ravel().tolist())
        strings = np.array(rows, dtype="S").reshape(field.shape[:-1])
    words = strings.astype(f"S{8 * -(-strings.itemsize // 8)}").view(_WORD)
    return words.reshape(*strings.shape, -1)


def _write_file(path: Path, chunks) -> None:
    """Write the byte strings of `chunks` to `path`.

    They go to a temporary file beside it, which replaces `path` only once
    complete and is removed if anything fails, so no half-written artefact
    is left under the name.  writelines lets go of each string before it
    asks for the next.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_table(path: Path, header: list, fields: list) -> None:
    """Write a CSV file: the header, then a row per index of the last field's other axes.

    Each field holds its columns along its last axis: doubles, written as
    '%.17g' text (an integer-valued one as that integer), or byte strings,
    written as they are.  The last field, of doubles, fills the table.  It
    comes as an iterable of blocks, consecutive along its first axis: a
    block's axes before the last, at most two, index its rows, and it is
    formatted about _BLOCK_VALUES values at a time.  Every earlier field
    repeats along one of those axes, where its length is 1, and is formatted
    once, by _compact.  The bytes are those csv.writer writes: no field needs
    quoting, and lines end in \\r\\n.
    """
    *repeating, blocks = fields
    words = [_compact(f, [b","] * f.shape[-1]) for f in map(np.asarray, repeating)]
    words = [w.reshape((1, 1, *w.shape)[-3:]) for w in words]

    def lines():
        yield (",".join(header) + "\r\n").encode()
        start = 0
        for filling in blocks:
            filling = np.asarray(filling)
            outer, inner, width = (1, 1, *filling.shape)[-3:]
            filling = filling.reshape(outer, inner, width)
            # a field along the first axis gives this block's rows of it
            parts = [np.broadcast_to(w[start : start + outer] if len(w) > 1 else w,
                                     (outer, inner, w.shape[-1])) for w in words]
            start += outer
            ends = [b","] * (width - 1) + [b"\r\n"]
            rows = max(1, _BLOCK_VALUES // width)
            step, across = max(1, rows // inner), min(inner, rows)
            for a, c in itertools.product(range(0, outer, step), range(0, inner, across)):
                yield from _unpadded(np.concatenate(
                    [*(w[a : a + step, c : c + across] for w in parts),
                     _text(filling[a : a + step, c : c + across], ends)], axis=-1))

    _write_file(path, lines())


def _unpadded(words: np.ndarray):
    """The bytes of rows of 64-bit words without their NUL padding, 1,024 rows a string.

    Strings of about 100 KB are reused by the allocator; one string per block
    was mapped and unmapped afresh for each block of a streamed run (3,800
    page faults per warm rk4-wave1d run, against none).
    """
    words = words.reshape(-1, words.shape[-1])
    for row in range(0, len(words), 1024):
        yield words[row : row + 1024].tobytes().translate(None, b"\0")


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: a value that is not a finite double raises a ValueError."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _write_file(path, [(text + "\n").encode()])


def _spectrum(op, n_macro=None):
    """The spectrum report of an operator, and the fields eigen and check write of it.

    The wave system takes the general solve, and its symmetry is measured
    on its own; any other operator takes the symmetric solve, which raises
    SymmetryPreconditionError on one that is not symmetric.
    """
    wave = op.layout.half is not None
    report = (eigen_general if wave else eigen_symmetric)(op, n_macro=n_macro)
    return report, {
        "symmetry": asdict(symmetry_defect(op) if wave else report.symmetry),
        "max_real_part" if wave else "max_eigenvalue": float(np.max(report.eigenvalues.real)),
        "zero_mode_magnitude": report.zero_mode_magnitude,
        # infinite when every mode is macro or the macro scale is zero; JSON has no infinity
        "gap_ratio": report.gap_ratio if math.isfinite(report.gap_ratio) else None,
    }


def _task_eigen(run: _Run, out: Path) -> None:
    op = _assemble(run)
    report, spectrum = _spectrum(op, run.section.get("n_macro"))
    values = report.eigenvalues
    columns = (np.arange(1.0, values.size + 1), values.real, values.imag, np.abs(values))
    _write_table(out / "eigenvalues.csv", ["rank", "real", "imag", "magnitude"],
                 [[np.column_stack(columns)]])
    _write_json(out / "summary.json", {
        "model": run.model, "dimension": op.dimension, "n_macro": int(report.n_macro), **spectrum,
    })


def _positions(grid: geometry.PatchGrid1D) -> np.ndarray:
    """Interior lattice positions of every patch, shape (N, n)."""
    return np.array([grid.positions(I) for I in range(grid.N)])


def _initial_state(init: dict, op) -> StateVector:
    """One member's start values, repeated for every member; v = 0 for a wave.

    `init` is the simulate section's `initial`, defaults filled in.  A sine
    start is offset + amplitude * the product over the axes of sin(2 pi m x / L).
    """
    layout = op.layout
    size = math.prod(layout.shape[1:])
    if init["kind"] == "constant":
        per_member = np.full(size, float(init["value"]))
    elif init["kind"] == "random":
        per_member = np.random.default_rng(init["seed"]).standard_normal(size)
    else:
        axes = op.grid.axes
        modes = init["modes"] if len(axes) > 1 else [init["mode"]]
        sines = [np.sin(2.0 * np.pi * m * _positions(g) / g.L) for g, m in zip(axes, modes)]
        # (N_y, n_y, N_x, n_x) from the outer product, then (patches..., points...) order
        product = functools.reduce(np.multiply.outer, sines[::-1])
        k = product.ndim
        product = product.transpose([*range(0, k, 2), *range(1, k, 2)])
        per_member = float(init["offset"]) + float(init["amplitude"]) * product
    u = np.tile(per_member.ravel(), layout.members)
    if layout.half is not None:
        u = np.concatenate([u, np.zeros_like(u)])
    return StateVector(values=u, time=0.0)


def _write_trajectory(path: Path, op, times: np.ndarray, states) -> None:
    """trajectory.csv: a row (t, [field], [member], labels..., value) per snapshot and unknown.

    `states` holds the snapshots of `times` in blocks, in order, each of one
    or more states.
    """
    layout = op.layout
    member, *index = np.indices(layout.shape).reshape(len(layout.shape), -1)
    if isinstance(op.grid, geometry.PatchGrid2D):
        J, I, j, i = index
        names = ["I", "J", "i", "j", "x", "y"]
        columns = [I, J, i + 1, j + 1, _positions(op.grid.x)[I, i], _positions(op.grid.y)[J, j]]
    else:
        I, i = index
        names = ["patch", "interior", "position"]
        columns = [I, i + 1, _positions(op.grid)[I, i]]
    if layout.ensemble:
        columns.insert(0, member)
    labels = np.stack(columns, axis=1)[None]
    wave = layout.half is not None
    header = ["t", *["field"] * wave, *["member"] * layout.ensemble, *names, "value"]
    # a table row per snapshot (and wave field: u, then v) and a column per unknown
    values = (np.reshape(block, (-1, len(member), 1)) for block in states)
    fields = [np.repeat(times, 1 + wave)[:, None, None], labels, values]
    if wave:
        fields.insert(1, np.tile([[[b"u"]], [[b"v"]]], (len(times), 1, 1)))
    _write_table(path, header, fields)


def _task_simulate(run: _Run, out: Path) -> None:
    op = _assemble(run)
    sim = run.section
    state = _initial_state(sim["initial"], op)
    # two writer blocks of states per piece: a piece costs about 0.15 ms of
    # transforms and checks beyond its states' own work, 7 % of an rk4-wave1d
    # run at one block a piece
    chunk = max(1, 2 * _BLOCK_VALUES // op.dimension)
    if sim["integrator"] == "exact":
        times = np.linspace(0.0, float(sim["t_final"]), sim["snapshots"] + 1)
        times, pieces = _exact_stream(op, state, times, chunk)
        stride, final_time = sim["stride"], times[-1]
    else:
        dt, steps = float(sim["dt"]), sim["steps"]
        times, pieces = _rk4_stream(op, state, dt, steps, sim["allow_unstable"], sim["stride"],
                                    chunk)
        stride, final_time = 1, state.time + dt * steps
    # one sum per step (rk4) or per snapshot (exact), and the largest drift from the first
    mass = types.SimpleNamespace(sums=0, first=None, drift=0.0)

    def stored():
        """Every stride-th snapshot of the pieces, as they come."""
        done = 0
        for piece in pieces:
            sums = conserved_mass(piece)[0]
            mass.first = sums[0] if mass.first is None else mass.first
            mass.drift = max(mass.drift, float(np.max(np.abs(sums - mass.first))))
            mass.sums += sums.size
            yield piece.states[-done % stride :: stride]
            done += len(piece.times)

    _write_trajectory(out / "trajectory.csv", op, times[::stride], stored())
    _write_json(out / "summary.json", {
        "model": run.model,
        "integrator": sim["integrator"],
        "snapshots": mass.sums,
        "initial_mass": float(mass.first),
        "mass_drift": mass.drift,
        "final_time": float(final_time),
    })


def _task_homogenize(run: _Run, out: Path) -> None:
    # The outputs depend on the profile and d only, so nothing is assembled; an
    # incompatible config is still rejected as the assembler would reject it.
    diagnostics = geometry.validate_compatibility(run.grid, run.profile, run.ensemble)
    _raise_on_errors(diagnostics, run.allow_incompatible)
    coeffs = extract_coefficients(run.profile, run.grid.d)
    spacing, count = float(run.section["node_spacing"]), run.section["node_count"]
    ks = [spacing * m for m in range(1, count + 1)]
    branch = np.array([[k, slow_branch(run.profile, k)] for k in ks])
    _write_json(out / "homogenize.json", asdict(coeffs))
    _write_table(out / "slow_branch.csv", ["k", "eigenvalue"], [[branch]])


def _sweep_rows(run: _Run):
    """The error table row of each swept value: wavenumbers 1..modes against spectral.

    Every operator of the sweep is assembled first, in one stencil batch:
    the test and the spectral reference of each swept grid, or the
    reference and then each order of an order sweep, which solves its
    reference once.  One _symmetric_solves call then solves only the
    Bloch blocks of those wavenumbers, one batched solve per plan group (the
    operators whose blocks store the same (row, col) pairs: all of them on
    a 1D sweep), and names the first operator in that order that fails;
    one _error_rows call pairs the solves without making reports.
    """
    modes = run.section["modes"]
    spectral = CouplingSpec(scheme="spectral")
    order = run.section["parameter"] == "order"
    if order:
        points = [(run.grid, spectral)]
        points += [(run.grid, CouplingSpec("lagrangian", v)) for v in run.section["values"]]
    else:
        points = [(g, c) for g in run.swept_grids for c in (run.coupling, spectral)]
    ops = _assemble_patches(points, run.profile, run.ensemble)
    solves = _symmetric_solves(ops, modes)
    if order:
        ref, *tests = solves
        pairs = [(test, ref) for test in tests]
    else:
        pairs = zip(solves[::2], solves[1::2])
    spectra = [(w, ranks, labels, counts) for pair in pairs for _, labels, counts, _, w, ranks in pair]
    return [list(row) for row in _error_rows(spectra, modes)[2]]


def _task_sweep(run: _Run, out: Path) -> None:
    parameter, values, modes = (run.section[key] for key in ("parameter", "values", "modes"))
    rows = _sweep_rows(run)
    _write_table(out / "sweep.csv", [parameter] + [f"err_mode_{k}" for k in range(1, modes + 1)],
                 [[np.column_stack([np.array(values, dtype=float), rows])]])
    summary = {"parameter": parameter, "values": values, "modes": modes}
    if parameter == "patches" and len(values) >= 3:
        summary["slopes"] = [
            convergence_slope(values, errs) if all(e > 0 for e in errs) else None
            for errs in zip(*rows)
        ]
    _write_json(out / "summary.json", summary)


def _full_lattice_reference(op):
    """Assembled full-lattice counterpart of a diffusion operator, or (None, reason)."""
    if op.layout.ensemble:
        return None, "ensemble runs have no single full-lattice counterpart"
    axes = op.grid.axes
    if any(g.r != 1.0 for g in axes):
        return None, "patches only tile the lattice at r = 1"
    sizes = [g.N * g.n for g in axes]
    lattice = f"full lattice of {' x '.join(map(str, sizes))} points"
    if min(sizes) < 3:
        return None, f"{lattice} is below the 3-point minimum"
    return _full_lattice(op.profile, sizes, [g.d for g in axes]), None


def _task_check(run: _Run, out: Path) -> None:
    op = _assemble(run)
    wave = op.layout.half is not None
    try:
        report, payload = _spectrum(op)
    except SymmetryPreconditionError as exc:
        report, payload = None, {
            "symmetry": asdict(exc.symmetry),
            "note": "operator is not symmetric; spectral diagnostics skipped "
                    "(rerun without allow_incompatible for a usable operator)",
        }
    payload.update({
        "model": run.model,
        "dimension": op.dimension,
        "kernel_residual": _kernel_residual(op),
        "diagnostics": [list(item) for item in op.layout.diagnostics],
    })
    if report is not None and not wave:
        full, reason = _full_lattice_reference(op)
        if full is None:
            payload["consistency"] = {"available": False, "reason": reason}
        else:
            patch_vals = np.sort(np.real(report.eigenvalues))
            full_vals = np.sort(eigen_symmetric(full).eigenvalues)
            scale = float(np.max(np.abs(full_vals)))
            # The denominator floor keeps the kernel rows from reading
            # round-off noise as relative error.
            err = float(
                np.max(np.abs(patch_vals - full_vals) / np.maximum(np.abs(full_vals), 1e-9 * scale))
            )
            payload["consistency"] = {"available": True, "max_relative_error": err}
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
        resolved = _resolve(config)
        out = Path(outdir if outdir is not None else resolved.out)
        out.mkdir(parents=True, exist_ok=True)
        _TASKS[resolved.task](resolved, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # every precondition error of the solvers (symmetry, branch separation,
    # the homogenised series, stability, dynamic range), and some bugs, is a
    # ValueError or RuntimeError
    except (ValueError, RuntimeError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical precondition failed: out of memory{detail}", file=sys.stderr)
        return 2
    except Exception:  # a bug in the program, not in the config
        traceback.print_exc()
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patchtooth",
        description="Self-adjoint patch scheme for heterogeneous lattice diffusion.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (default: config's 'out' or '.')")
    parser.add_argument("--task", default=None, choices=SCHEMA["properties"]["task"]["enum"],
                        help="override the task named in the config")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    if args.task is not None and isinstance(config, dict):
        # any other JSON value fails validation in run(), as a config error
        config = {**config, "task": args.task}
    return run(config, outdir=args.out)


if __name__ == "__main__":
    sys.exit(main())
