"""End-to-end driver tests: validation, artefacts, determinism."""

import copy
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quartic_coefficient

import patchtooth as pt
from patchtooth import cli, timestep

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


def fmt(x):
    """The writer's number format, spelled out apart from the program."""
    return "%.17g" % float(x)


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

# Valid configs that between them use every section and keyword of the schema.
SCHEMA_SAMPLES = [
    base_config(
        profile={"kind": "lognormal", "period": 2, "sigma": 1.0, "seed": 0},
        coupling={"scheme": "lagrangian", "order": 2},
        ensemble=False, allow_incompatible=False, out="out",
        eigen={"n_macro": 3},
        homogenize={"node_spacing": 0.02, "node_count": 8},
        sweep={"parameter": "patches", "values": [6, 7, 8], "modes": 2},
        simulate={"integrator": "exact", "t_final": 0.1, "snapshots": 4, "stride": 1,
                  "initial": {"kind": "random", "seed": 0}},
    ),
    base_config(
        model="diffusion2d", grid=GRID_2D, task="sweep",
        profile={"kind": "inline", "kx": [[1.0, 2.0]], "ky": [[1.0, 2.0]], "periods": [2, 1]},
        sweep={"parameter": "order", "values": [1, 2]},
        simulate={"initial": {"kind": "sine", "modes": [1, 0], "amplitude": 1.0, "offset": 0.5}},
    ),
    base_config(
        model="wave1d", task="simulate", epsilon=0.02,
        profile={"kind": "inline", "values": [1.0, 2.0], "period": 2},
        simulate={"integrator": "rk4", "dt": 1e-3, "steps": 10, "allow_unstable": True,
                  "initial": {"kind": "constant", "value": 1.0, "mode": 1}},
    ),
]

# jsonschema with the one stated difference: an integer is a JSON integer.
STRICT_SCHEMA = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)(cli.SCHEMA)


def _nodes(value, path=()):
    """The path of every value in a parsed config, the config itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, (*path, key))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


@st.composite
def mutated_configs(draw):
    """A schema sample after up to two of these: drop a key, add an unknown
    key, swap a value's type, push a number across a bound, empty an array,
    change a kind or scheme."""
    config = copy.deepcopy(draw(st.sampled_from(SCHEMA_SAMPLES)))
    for _ in range(draw(st.integers(0, 2))):
        nodes = list(_nodes(config))
        mutation = draw(st.sampled_from(
            ["drop", "add", "swap", "swap", "bound", "bound", "empty", "kind"]))
        if mutation == "drop":
            paths = [p for p in nodes if p and isinstance(_at(config, p[:-1]), dict)]
        elif mutation == "add":
            paths = [p for p in nodes if isinstance(_at(config, p), dict)]
        elif mutation == "swap":
            paths = nodes[1:]
        elif mutation == "bound":
            paths = [p for p in nodes if type(_at(config, p)) in (int, float)]
        elif mutation == "empty":
            paths = [p for p in nodes if isinstance(_at(config, p), list)]
        else:
            paths = [p for p in nodes if p and p[-1] in ("kind", "scheme")]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = _at(config, path[:-1])
        if mutation == "drop":
            del parent[path[-1]]
        elif mutation == "add":
            _at(config, path)["unknown"] = 1
        elif mutation == "swap":
            parent[path[-1]] = draw(st.sampled_from(
                [True, False, None, "text", 2, 2.0, 3.0, -1.5, [], {}, [1], {"a": 1}]))
        elif mutation == "bound":
            parent[path[-1]] = draw(st.sampled_from([-1, 0, 0.0, 1e-300, 0.5, 1, 1.0, 1.5, 2, 2.0]))
        elif mutation == "empty":
            parent[path[-1]] = []
        else:
            parent[path[-1]] = draw(st.sampled_from(
                ["inline", "lognormal", "sine", "constant", "random", "spectral", "lagrangian",
                 "other"]))
    return config


def _error_paths(errors):
    """The absolute path of each jsonschema error and of every error in its context."""
    for error in errors:
        yield tuple(error.absolute_path)
        yield from _error_paths(error.context)


def test_the_schema_samples_are_valid():
    for config in SCHEMA_SAMPLES:
        assert cli._schema_problem(config, cli.SCHEMA) is None
        jsonschema.Draft202012Validator(cli.SCHEMA).validate(config)


@settings(max_examples=400)
@given(mutated_configs())
def test_the_validator_agrees_with_jsonschema(config):
    """The validator rejects exactly what jsonschema rejects, but for integral
    floats in integer fields, and names a path jsonschema names too."""
    problem = cli._schema_problem(config, cli.SCHEMA)
    errors = list(STRICT_SCHEMA.iter_errors(config))
    assert (problem is None) == (not errors)
    if problem is None:
        return
    path, message = problem
    assert path in set(_error_paths(errors))
    if jsonschema.Draft202012Validator(cli.SCHEMA).is_valid(config):
        value = _at(config, path)
        assert type(value) is float and value.is_integer(), problem
        assert message == f"{value!r} is not of type 'integer'"


def test_one_of_takes_exactly_one_branch():
    """No branch of SCHEMA's oneOf lists can fit together with another, so
    the mutated configs never reach this case."""
    one_of = {"oneOf": [{"type": "integer"}, {"type": "number"}]}
    assert cli._schema_problem(1.5, one_of) is None
    assert cli._schema_problem(1, one_of) == ((), "more than one of the allowed forms fits")
    assert cli._schema_problem("1", one_of) == ((), "'1' is not of type 'integer'")


def _subschemas(schema):
    """`schema` and every schema nested in it."""
    yield schema
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        yield from _subschemas(sub)


def test_the_schema_uses_only_the_keywords_the_validator_knows():
    """`default` is an annotation, which JSON Schema does not validate."""
    known = {"type", "enum", "const", "minimum", "exclusiveMinimum", "maximum", "items",
             "minItems", "maxItems", "properties", "required", "additionalProperties", "oneOf",
             "default"}
    for schema in _subschemas(cli.SCHEMA):
        assert schema.get("additionalProperties", False) is False
        assert set(schema) - {"$schema"} <= known


def test_every_schema_default_fits_its_schema():
    for sub in _subschemas(cli.SCHEMA):
        if "default" not in sub:
            continue
        assert cli._schema_problem(sub["default"], sub) is None, sub
        STRICT_SCHEMA.evolve(schema=sub).validate(sub["default"])
    # so a valid config stays valid with its defaults filled in
    for config in SCHEMA_SAMPLES + [base_config()]:
        assert cli._schema_problem(cli._with_defaults(config, cli.SCHEMA), cli.SCHEMA) is None


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
        ({"grid": {"L": 2 * np.pi, "N": 10**400, "n": 4, "r": 0.3}}, "['grid']['N']"),
        ({"model": "diffusion2d", "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]},
          "grid": {"x": dict(GRID_2D["x"], N=10**400), "y": GRID_2D["y"]}},
         "['grid']['x']['N']"),
        ({"grid": {"L": 2 * np.pi, "N": 10**20, "n": 4, "r": 0.3}}, "['grid']"),
        ({"grid": {"L": 2 * np.pi, "N": 10**300, "n": 4, "r": 0.3}}, "['grid']"),
        ({"grid": {"L": 2 * np.pi, "N": 6, "n": 10**300, "r": 0.3}}, "['grid']"),
        ({"model": "diffusion2d", "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]},
          "grid": {"x": dict(GRID_2D["x"], N=10**300), "y": GRID_2D["y"]}},
         "['grid']['x']"),
        ({"ensemble": True, "profile": {"kind": "inline", "values": [1.0] * 7},
          "grid": {"L": 2 * np.pi, "N": 2**61, "n": 1, "r": 0.3}},
         "['grid']"),
        ({"task": "homogenize",
          "profile": {"kind": "lognormal", "period": 2, "sigma": 1000, "seed": 1}},
         "['profile']"),
        ({"model": "diffusion2d", "grid": GRID_2D,
          "profile": {"kind": "lognormal", "periods": [1, 2], "sigma": 1000, "seed": 1}},
         "['profile']"),
        ({"task": "homogenize", "profile": {"kind": "inline", "values": [1e308, 1e308]}},
         "['profile']"),
        ({"profile": {"kind": "inline", "values": [1e308, 1.0]}}, "['profile']"),
        ({"grid": {"L": 1e-170, "N": 6, "n": 4, "r": 0.3}}, "['grid']: the lattice spacing"),
        ({"model": "diffusion2d", "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]},
          "grid": {"x": GRID_2D["x"], "y": dict(GRID_2D["y"], L=1e-170)}},
         "['grid']['y']: the lattice spacing"),
        ({"task": "sweep", "sweep": {"parameter": "patches", "values": [8, 6, 7], "modes": 4}},
         "['sweep']['modes']: 4 wavenumbers asked for, but the smallest swept grid has 3"),
        ({"model": "diffusion2d", "grid": GRID_2D, "task": "sweep",
          "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]},
          "sweep": {"parameter": "order", "values": [1], "modes": 7}},
         "['sweep']['modes']: 7 wavenumbers asked for, but the grid has 6"),
        ({"profile": {"kind": "lognormal", "period": 2, "sigma": 1.0, "seed": 1.0}},
         "['profile']['seed']"),
        ({"profile": {"kind": "lognormal", "period": 2.0, "sigma": 1.0, "seed": 1}},
         "['profile']['period']"),
        ({"eigen": {"n_macro": 3.0}}, "['eigen']['n_macro']"),
        ({"task": "homogenize", "homogenize": {"node_count": 4.0}},
         "['homogenize']['node_count']"),
        ({"grid": {"L": 2 * np.pi, "N": 3, "n": 4, "r": 0.3},
          "coupling": {"scheme": "lagrangian", "order": 2}},
         "['coupling']['order']: stencil width 2P+1 = 5 exceeds patch count N = 3"),
        ({"model": "diffusion2d", "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]},
          "grid": GRID_2D, "coupling": {"scheme": "lagrangian", "order": 2}, "task": "check"},
         "['coupling']['order']: stencil width 2P+1 = 5 exceeds patch count N = 3"),
        ({"model": "wave1d", "coupling": {"scheme": "lagrangian", "order": 3}, "task": "simulate",
          "simulate": {"dt": 1e-4, "steps": 2}},
         "['coupling']['order']: stencil width 2P+1 = 7 exceeds patch count N = 6"),
        ({"grid": {"L": 2 * np.pi, "N": 9, "n": 4, "r": 0.3}, "task": "sweep",
          "sweep": {"parameter": "order", "values": [1, 2, 5]}},
         "['sweep']['values']: stencil width 2P+1 = 11 exceeds patch count N = 9"),
        ({"coupling": {"scheme": "lagrangian", "order": 4}, "task": "sweep",
          "sweep": {"parameter": "patches", "values": [7, 9], "modes": 1}},
         "['sweep']['values']: stencil width 2P+1 = 9 exceeds patch count N = 7"),
        ({"grid": {"L": 2 * np.pi, "N": 9, "n": 4, "r": 0.3}, "task": "sweep",
          "sweep": {"parameter": "patches", "values": [9, 40000]}},
         "['sweep']['values']: N = 40000: spacing d = "),
        ({"grid": {"L": 2 * np.pi, "N": 9, "n": 4, "r": 0.3}, "task": "sweep",
          "coupling": {"scheme": "lagrangian", "order": 1},
          "sweep": {"parameter": "patches", "values": [9, 9, 17]}},
         "['sweep']['values']: the patch counts of a sweep with fitted convergence slopes"),
        ({"task": "homogenize", "homogenize": {"node_count": 0}},
         "['homogenize']['node_count']: 0 is below the minimum of 1"),
        ({"task": "simulate", "simulate": {"t_final": 1.0, "initial": {"kind": "sine",
                                                                       "modes": [1, 1, 1]}}},
         "['simulate']['initial']['modes']: [1, 1, 1] has more than 2 items"),
        ({"grid": {"L": 2 * np.pi, "N": 9, "n": 4, "r": 0.3}, "task": "sweep",
          "sweep": {"parameter": "patches", "values": [9, 17, 25]}},
         "['coupling']['scheme']: a patch sweep measures the Lagrangian scheme"),
        ({"grid": {"L": 2 * np.pi, "N": 9, "n": 10, "r": 0.05},
          "profile": {"kind": "lognormal", "period": 5, "sigma": 1.0, "seed": 0}, "task": "sweep",
          "sweep": {"parameter": "patches", "values": [9, 17, 25]}},
         "['coupling']['scheme']: a patch sweep measures the Lagrangian scheme"),
        ({"eigen": {"n_macro": 1000}},
         "['eigen']['n_macro']: 1000 macro modes asked for, but the operator has 24 eigenvalues"),
        ({"model": "wave1d", "eigen": {"n_macro": 49}},
         "['eigen']['n_macro']: 49 macro modes asked for, but the operator has 48 eigenvalues"),
        ({"model": "diffusion2d"}, "['grid']: model diffusion2d and grid shape disagree"),
        ({"model": "diffusion2d", "grid": GRID_2D},
         "['profile']: model diffusion2d and profile shape disagree"),
        ({"profile": {"kind": "lognormal", "sigma": 1.0, "seed": 0}},
         "['profile']: a 1D lognormal profile needs a period"),
        ({"coupling": {"scheme": "lagrangian"}}, "['coupling']: lagrangian coupling needs an order"),
        ({"coupling": {"scheme": "spectral", "order": 2}},
         "['coupling']: spectral coupling takes no order"),
        ({"model": "diffusion2d", "grid": GRID_2D, "task": "homogenize",
          "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]}},
         "['task']: homogenize works on the 1D diffusion symbol only"),
        ({"model": "wave1d", "task": "sweep", "sweep": {"parameter": "order", "values": [1]}},
         "['task']: sweep compares symmetric spectra"),
        ({"task": "sweep"}, "['sweep']: the sweep task needs a sweep section"),
        ({"coupling": {"scheme": "lagrangian", "order": 1}, "task": "sweep",
          "sweep": {"parameter": "order", "values": [1]}},
         "['coupling']['scheme']: an order sweep varies the Lagrangian order"),
        ({"model": "diffusion2d", "grid": GRID_2D, "task": "sweep",
          "profile": {"kind": "inline", "kx": [[1.0]], "ky": [[1.0]]},
          "sweep": {"parameter": "patches", "values": [3, 4]}},
         "['sweep']['parameter']: patch-count sweeps are 1D only"),
        ({"model": "wave1d", "task": "simulate",
          "simulate": {"integrator": "exact", "t_final": 1.0}},
         "['simulate']['integrator']: the wave system is not symmetric"),
        ({"task": "simulate", "simulate": {"integrator": "exact"}},
         "['simulate']: exact integration needs t_final"),
        ({"task": "simulate", "simulate": {"integrator": "rk4", "dt": 0.1}},
         "['simulate']: rk4 integration needs dt and steps"),
        ({"model": "wave1d", "task": "simulate"}, "['simulate']: rk4 integration needs dt and steps"),
        ({"profile": {"kind": "inline", "values": [1.0, 2.0, 3.0]}, "allow_incompatible": True,
          "task": "sweep", "sweep": {"parameter": "order", "values": [1, 2], "modes": 1}},
         "['allow_incompatible']: a sweep's symmetric solves need compatible operators"),
        ({"allow_incompatible": True, "task": "sweep",
          "sweep": {"parameter": "order", "values": [1, 2], "modes": 1}},
         "['allow_incompatible']: a sweep's symmetric solves need compatible operators"),
        ({"model": "diffusion2d", "coupling": {"scheme": "lagrangian"}, "task": "sweep"},
         "['grid']: model diffusion2d and grid shape disagree"),
    ],
    ids=["period", "kx-ky-shapes", "ragged-kx", "nan-diffusivity", "infinite-L",
         "huge-N", "huge-2d-N", "unindexable-N", "unindexable-N-1e300", "unindexable-n",
         "unindexable-2d-N", "unindexable-ensemble", "lognormal-draws-inf",
         "lognormal-2d-draws-0", "diffusivity-sum-overflows", "stencil-overflows",
         "spacing-squared-underflows", "2d-spacing-squared-underflows",
         "sweep-modes-beyond-the-grid", "2d-sweep-modes-beyond-the-grid",
         "float-seed", "float-period", "float-n_macro", "float-node_count",
         "order-beyond-the-grid", "2d-order-beyond-the-grid", "wave-order-beyond-the-grid",
         "swept-order-beyond-the-grid", "swept-patches-below-the-order",
         "swept-patches-beyond-the-spacing", "swept-patches-not-increasing",
         "node_count-below-one", "initial-modes-beyond-maxItems", "spectral-patch-sweep",
         "spectral-patch-sweep-of-the-benchmark-grid",
         "n_macro-beyond-the-operator", "wave-n_macro-beyond-the-operator",
         "model-vs-grid", "model-vs-profile", "lognormal-without-period",
         "lagrangian-without-order", "spectral-with-order", "2d-homogenize", "wave-sweep",
         "sweep-without-section", "lagrangian-order-sweep", "2d-patch-sweep", "exact-wave",
         "exact-without-t_final", "rk4-without-steps", "wave-rk4-by-default-without-dt",
         "incompatible-sweep-with-the-waiver", "compatible-sweep-with-the-waiver",
         "several-faults-report-the-first"],
)
def test_config_faults_exit_1_and_name_the_key(tmp_path, capsys, overrides, key):
    """Inconsistent inline profiles, non-finite numbers and integers no double
    holds are config faults, not numerical precondition failures.  So are
    grids with more unknowns than an array can index or a spacing whose 1/d^2
    overflows, diffusivities that are drawn infinite and profiles whose
    stencil entries overflow.  So is a sweep that asks for more wavenumbers
    than its smallest grid has: N // 2 in 1D, 6 on the 3 x 4 grid.  So is an
    integer field given as a float, even an integral one.  So is a Lagrangian
    stencil wider than a grid the run assembles, a swept patch count whose
    spacing needs r > 1, swept counts that do not increase where slopes are
    fitted, a homogenize node_count below its minimum of 1 and a list
    longer than its maxItems.  So is a
    patch sweep with spectral coupling, which would measure the spectral
    operator against itself, a sweep with allow_incompatible, whose
    symmetric solves could not take a waived operator, compatible or not,
    and an eigen n_macro beyond the operator's dimension (twice the unknowns
    for the wave system).  Every
    cross-field rule names its key too, and the checks run in a fixed order,
    so a config with several faults reports the first."""
    assert cli.run(base_config(**overrides), tmp_path) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err


def test_a_profile_beyond_the_dynamic_range_exits_2(tmp_path, capsys):
    """sigma = 1000 draws bonds of 4e54 and 4e-58: round-off of the 6.5e56
    stencil entries swamps a slowest macro mode of about 8e-58, which once
    gave an eigen run with a max_eigenvalue of 3e41 and exit 0."""
    config = base_config(profile={"kind": "lognormal", "period": 2, "sigma": 1000, "seed": 0})
    assert cli.run(config, tmp_path) == 2
    err = capsys.readouterr().err
    assert "numerical precondition failed: dynamic range: eps * ||H|| is " in err
    ratio = float(err.split("||H|| is ")[1].split()[0])
    assert ratio > 1e90
    assert not any(tmp_path.iterdir())


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """A MemoryError in a task, or in building what the config describes (a
    lognormal period of 10^12 draws 8 TB), is a numerical precondition
    failure, not a traceback."""

    def exhausted(*args):
        raise MemoryError("Unable to allocate 22.4 GiB for an array")

    monkeypatch.setattr(cli, "_assemble", exhausted)
    monkeypatch.setattr(cli, "random_lognormal_profile", exhausted)
    profile = {"kind": "lognormal", "period": 10**12, "sigma": 1.0, "seed": 0}
    for config in (base_config(), base_config(profile=profile)):
        assert cli.run(config, tmp_path) == 2
        err = capsys.readouterr().err
        assert "numerical precondition failed: out of memory: Unable to allocate 22.4 GiB" in err


def test_a_programming_bug_exits_3_with_its_traceback(tmp_path, capsys, monkeypatch):
    """An exception that is no precondition failure is neither a config
    fault (1) nor a numerical one (2): the interpreter's own exit code for
    it would be 1."""

    def broken(run, out):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._TASKS, "eigen", broken)
    assert cli.run(base_config(), tmp_path) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: unsupported operand" in err
    assert cli.main(["--config", str(write_config(tmp_path, base_config()))]) == 3
    assert "TypeError: unsupported operand" in capsys.readouterr().err


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
        # orders above 2 do not fit the N = 6 grid, a config fault reported first
        values = [1, 2] if parameter == "order" else [6, 7, 8]
        task = {"task": "sweep", "sweep": {"parameter": parameter, "values": values, "modes": 1}}
        if parameter == "patches":
            task["coupling"] = {"scheme": "lagrangian", "order": 1}
    assert cli.run(base_config(profile=profile, **task), tmp_path / "task") == 2
    assert capsys.readouterr().err == want
    if parameter == "homogenize":
        # the ensemble lifts the restriction, and allow_incompatible waives it
        for waiver in ({"ensemble": True}, {"allow_incompatible": True}):
            assert cli.run(base_config(profile=profile, **task, **waiver), tmp_path / "w") == 0


def test_tasks_measure_symmetry_once_and_sweeps_skip_the_base_operator(tmp_path, monkeypatch):
    calls = {"symmetry_defect": 0, "assemble_patch_1d": 0, "_assemble_patches": 0}

    def counted(module, name, count=lambda *args: 1, key=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += count(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "symmetry_defect")
    # the operators measured by the batched check of the symmetric solves
    counted(pt.spectra, "_symmetry_defects", lambda ops: len(ops), key="symmetry_defect")
    counted(cli, "assemble_patch_1d")
    counted(cli, "_assemble_patches", lambda points, *rest: len(points))  # operators assembled
    for task in ("eigen", "check"):
        calls.update(symmetry_defect=0)
        assert cli.run(base_config(task=task), tmp_path / task) == 0
        assert calls["symmetry_defect"] == 1, task
    calls.update(assemble_patch_1d=0)
    sweep = {"parameter": "patches", "values": [6, 7, 8], "modes": 1}
    lagrangian = {"scheme": "lagrangian", "order": 1}
    config = base_config(task="sweep", sweep=sweep, coupling=lagrangian)
    assert cli.run(config, tmp_path / "sweep") == 0
    assert calls["_assemble_patches"] == 6  # a test and a reference operator per point
    assert calls["assemble_patch_1d"] == 0  # all of them in one batch
    calls.update(_assemble_patches=0)
    assert cli.run(base_config(task="homogenize"), tmp_path / "homogenize") == 0
    assert calls["assemble_patch_1d"] == calls["_assemble_patches"] == 0


@pytest.mark.parametrize("config", [
    base_config(grid={"L": 2 * np.pi, "N": 9, "n": 10, "r": 0.05},
                profile={"kind": "lognormal", "period": 5, "sigma": 1.0, "seed": 0},
                coupling={"scheme": "lagrangian", "order": 2}, task="sweep",
                sweep={"parameter": "patches", "values": list(range(9, 130, 8)), "modes": 3}),
    base_config(grid={"L": 2 * np.pi, "N": 20, "n": 5, "r": 0.1},
                profile={"kind": "inline", "values": KAPPA5}, task="sweep",
                sweep={"parameter": "order", "values": [1, 2, 3, 4, 5], "modes": 3}),
    base_config(model="diffusion2d", grid={"x": {"L": 2 * np.pi, "N": 7, "n": 2, "r": 0.4},
                                           "y": {"L": 2 * np.pi, "N": 6, "n": 3, "r": 0.3}},
                profile={"kind": "lognormal", "periods": [2, 3], "sigma": 0.5, "seed": 0},
                task="sweep", sweep={"parameter": "order", "values": [1, 2], "modes": 3}),
    base_config(grid={"L": 2 * np.pi, "N": 9, "n": 6, "r": 0.3},
                profile={"kind": "lognormal", "period": 4, "sigma": 1.0, "seed": 0},
                coupling={"scheme": "lagrangian", "order": 2}, ensemble=True, task="sweep",
                sweep={"parameter": "patches", "values": [9, 13, 17], "modes": 3}),
], ids=["benchmark-patches", "order-1d", "order-2d", "ensemble-g2-patches"])
def test_a_sweep_assembled_in_one_batch_gives_the_rows_of_one_operator_per_point(config):
    """_sweep_rows assembles every operator of a sweep in one stencil batch
    and solves them in one pass of the symmetric solves; its rows equal,
    float for float, those of one assemble_patch_1d, eigen_symmetric(op,
    modes=...) and error_table per point, on the BLAS kernel in use."""
    run = cli._resolve(config)
    sweep, modes = config["sweep"], config["sweep"]["modes"]
    spectral = pt.CouplingSpec("spectral")
    expected = []
    for v in sweep["values"]:
        if sweep["parameter"] == "order":
            grid, coupling = run.grid, pt.CouplingSpec("lagrangian", v)
        else:
            L, n = run.grid.L, run.grid.n
            grid = pt.build_grid_1d(L, v, n, pt.ratio_for_spacing(L, v, n, run.grid.d))
            coupling = run.coupling
        test, ref = (
            pt.eigen_symmetric(pt.assemble_patch_1d(grid, run.profile, c, ensemble=run.ensemble),
                               modes=modes)
            for c in (coupling, spectral)
        )
        expected.append(pt.error_table(test, ref, modes).relative_errors)
    batched = cli._sweep_rows(run)
    assert len(batched) == len(sweep["values"])
    assert [[float.hex(e) for e in row] for row in batched] == [
        [float.hex(float(e)) for e in row] for row in expected
    ]


def test_ensemble_eigen_counts_every_member_orbit(tmp_path):
    """p = 4 and n = 6 give g = gcd(p, n) = 2 slow modes per Bloch block, so
    an ensemble on N = 9 patches has 2 * 9 macro modes."""
    config = base_config(
        grid={"L": 2 * np.pi, "N": 9, "n": 6, "r": 0.3},
        profile={"kind": "lognormal", "period": 4, "sigma": 1.0, "seed": 0},
        ensemble=True,
    )
    assert cli.run(config, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_macro"] == 2 * 9



@pytest.mark.parametrize(
    "overrides, slow, gap",
    [
        ({"grid": {"L": 2 * np.pi, "N": 8, "n": 4, "r": 0.3}}, 1, 3.02),
        ({"grid": {"L": 2 * np.pi, "N": 9, "n": 6, "r": 0.3}, "ensemble": True,
          "profile": {"kind": "lognormal", "period": 4, "sigma": 0.5, "seed": 0}}, 2, 2.73),
    ],
    ids=["single-phase", "g2-ensemble"],
)
def test_wave_gap_ratio_splits_after_every_macro_pair(tmp_path, overrides, slow, gap):
    """Each macro mode of A is a pair +-i omega of the wave system, so the
    macro band holds 2 g N eigenvalues.  A split at g N fell inside it and
    read a gap ratio of 1 + a few ulps, the ratio of two modes of one
    wavenumber; check writes the same gap ratio as eigen.  Bloch block 0
    holds one defective zero pair per member orbit, written as 2 g exact
    zero rows, and no pair has a positive real part."""
    config = base_config(model="wave1d", **overrides)
    assert cli.run(config, tmp_path / "eigen") == 0
    summary = strict_json(tmp_path / "eigen" / "summary.json")
    N = config["grid"]["N"]
    assert summary["n_macro"] == 2 * slow * N
    assert summary["max_real_part"] <= 0
    rows = read_csv(tmp_path / "eigen" / "eigenvalues.csv")[1:]
    assert sum(float(row[1]) == 0 and float(row[2]) == 0 for row in rows) == 2 * slow
    magnitudes = np.array([float(row[3]) for row in rows])
    assert summary["gap_ratio"] == magnitudes[2 * slow * N] / magnitudes[2 * slow * N - 1]
    assert summary["gap_ratio"] == pytest.approx(gap, abs=0.005)
    assert cli.run(base_config(**{**config, "task": "check"}), tmp_path / "check") == 0
    assert strict_json(tmp_path / "check" / "check.json")["gap_ratio"] == summary["gap_ratio"]

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


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigen_csv_bytes_match_the_csv_writer(tmp_path, monkeypatch, dtype):
    """The eigen task's table, of 40 eigenvalues and of more than a block of
    the writer's values, so that rows cross the block edges."""
    rng = np.random.default_rng(3)
    for size in (40, cli._BLOCK_VALUES + 5):
        values = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)).astype(dtype)
        if dtype is complex:
            values.imag = rng.standard_normal(size)
            values[:4] = [
                complex(0.0, -0.0), complex(-0.0, 0.0), complex(-1.5, -0.0), complex(1e-300, 1e308)
            ]
        else:
            values[:3] = [-0.0, 0.0, 1 / 3]
        symmetry = pt.SymmetryReport(defect=0.0, scale=1.0, relative=0.0)
        report = pt.SpectrumReport(eigenvalues=values, n_macro=1, symmetry=symmetry)
        for solver in ("eigen_symmetric", "eigen_general"):
            monkeypatch.setattr(cli, solver, lambda op, n_macro: report)
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(["rank", "real", "imag", "magnitude"])
        for rank, lam in enumerate(report.eigenvalues, start=1):
            writer.writerow(
                [rank, fmt(np.real(lam)), fmt(np.imag(lam)), fmt(np.abs(lam))]
            )
        model = "wave1d" if dtype is complex else "diffusion1d"
        assert cli.run(base_config(model=model), tmp_path / str(size)) == 0
        assert (tmp_path / str(size) / "eigenvalues.csv").read_bytes() == out.getvalue().encode()


def texts(values):
    """The writer's text of each double, one string per value."""
    words = cli._text(np.asarray(values, dtype=np.float64)[:, None], [b"\n"])
    return bytes(words.view(np.uint8)).replace(b"\0", b"").decode().splitlines()


def exact_ties():
    """Dyadic a / 2^b whose exact expansion has 18 significant digits, the
    last a 5: halfway between two 17-digit decimals."""
    for b in range(2, 80):
        low, high = -(-(10**17) // 5**b), min(10**18 // 5**b, 2**53)
        for a in {low | 1, (low + high) // 2 | 1, (high - 1) | 1}:
            if low <= a < high:
                yield a / 2**b


def neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


FORMAT_CASES = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    *(y for k in range(-323, 309) for y in neighbours(float(f"1e{k}"))),
    *neighbours(1e16), *neighbours(1e17), *neighbours(-1e16), *neighbours(-1e17),
    *exact_ties(), *(-t for t in exact_ties()),
]


def test_the_formatter_writes_percent_17g_at_edge_cases():
    values = np.array(FORMAT_CASES)
    assert texts(values) == [fmt(x) for x in values]


@pytest.mark.parametrize("towards", [-np.inf, np.inf])
def test_the_formatter_takes_a_log10_one_ulp_off(monkeypatch, towards):
    """The decimal exponent starts from floor(log10 |x|), which a less
    accurate log10 can put one too low or too high near powers of ten."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), towards))
    values = np.array(FORMAT_CASES)
    assert texts(values) == [fmt(x) for x in values]


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_the_formatter_writes_percent_17g(floats, patterns):
    """Any double, NaN, infinities and subnormals too, by value and by bit pattern."""
    values = np.concatenate([floats, np.array(patterns, dtype=np.uint64).view(np.float64)])
    assert texts(values) == [fmt(x) for x in values]


def test_sweep_csv_bytes_match_the_csv_writer(tmp_path, monkeypatch):
    rows = [[1e-300, np.nan, -np.inf], [0.0, 2.5e17, 1 / 3], [-0.0, 1e300, 123456.75]]
    monkeypatch.setattr(cli, "_sweep_rows", lambda *args: rows)
    config = base_config(
        task="sweep", sweep={"parameter": "patches", "values": [6, 8, 10]},
        coupling={"scheme": "lagrangian", "order": 1},
    )
    assert cli.run(config, tmp_path) == 0
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["patches", "err_mode_1", "err_mode_2", "err_mode_3"])
    for value, errs in zip([6, 8, 10], rows):
        writer.writerow([value] + [fmt(e) for e in errs])
    assert (tmp_path / "sweep.csv").read_bytes() == out.getvalue().encode()


def test_slow_branch_csv_bytes_match_the_csv_writer(tmp_path, monkeypatch):
    eigenvalues = iter([-1e-300, np.nan, np.inf, -0.0, 0.1, -2e-5, 7e22, 1 / 3])
    monkeypatch.setattr(cli, "slow_branch", lambda profile, k: next(eigenvalues))
    config = base_config(task="homogenize")
    assert cli.run(config, tmp_path) == 0
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["k", "eigenvalue"])
    for m, lam in zip(range(1, 9), [-1e-300, np.nan, np.inf, -0.0, 0.1, -2e-5, 7e22, 1 / 3]):
        writer.writerow([fmt(0.02 * m), fmt(lam)])
    assert (tmp_path / "slow_branch.csv").read_bytes() == out.getvalue().encode()


def test_a_failed_write_leaves_no_artefact(tmp_path, monkeypatch):
    """Running out of memory in the middle of trajectory.csv exits 2 and
    leaves neither the file nor its temporary copy, which did hold the
    blocks written before."""
    original = cli._text
    value_blocks = []

    def failing(values, ends):
        if ends == [b"\r\n"]:
            value_blocks.append(values.size)
            if len(value_blocks) == 2:
                (partial,) = tmp_path.iterdir()
                assert partial.name != "trajectory.csv" and partial.stat().st_size > 0
                raise MemoryError
        return original(values, ends)

    monkeypatch.setattr(cli, "_text", failing)
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 480)  # 20 snapshots, more than a write buffer holds
    config = base_config(task="simulate", simulate={"integrator": "rk4", "dt": 1e-4, "steps": 100})
    assert cli.run(config, tmp_path) == 2
    assert len(value_blocks) == 2
    assert list(tmp_path.iterdir()) == []


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


def test_an_rk4_wave_step_is_certified_at_half_its_exact_limit_and_exits_2_above_it(
    tmp_path, capsys, monkeypatch
):
    """The wave-half entry of tests/artefact_digests.py, and 1.05 times its
    step: the row-sum certificate admits the half step with no general
    eigensolve; the larger step falls back to the exact limit and exits 2."""
    grid = {"L": 2 * np.pi, "N": 8, "n": 4, "r": 0.3}
    op = pt.assemble_patch_1d(pt.build_grid_1d(**grid), pt.DiffusivityProfile1D((1.0, 2.0)),
                              pt.CouplingSpec("spectral"))
    limit = pt.stability_limit(pt.assemble_wave(op, epsilon=0.02))
    solves, original = [], timestep._bloch_eigenvalues

    def counted(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(timestep, "_bloch_eigenvalues", counted)
    for factor, code, count in ((0.5, 0, 0), (1.05, 2, 1)):
        config = base_config(model="wave1d", grid=grid, epsilon=0.02, task="simulate",
                             simulate={"integrator": "rk4", "dt": factor * limit, "steps": 100,
                                       "stride": 10})
        assert cli.run(config, tmp_path / str(factor)) == code
        assert len(solves) == count
    assert "exceeds the RK4 stability limit" in capsys.readouterr().err


def blocks_written(monkeypatch):
    """The number of byte strings _write_file has taken for each file name."""
    written = {}
    write = cli._write_file

    def counted(path, chunks):
        written[path.name] = 0
        for chunk in chunks:
            written[path.name] += 1
            yield chunk

    monkeypatch.setattr(cli, "_write_file", lambda path, chunks: write(path, counted(path, chunks)))
    return written


def test_exact_simulate_that_overflows_exits_2_without_artefacts(tmp_path, capsys, monkeypatch):
    """A profile of extreme dynamic range gives spurious positive eigenvalues
    of size 3e41, whose exp(w t) overflows: that is a numerical failure, not
    a trajectory of nan rows.  So is one that overflows after a block of the
    trajectory has been written."""
    config = base_config(
        task="simulate",
        profile={"kind": "lognormal", "period": 2, "sigma": 1000, "seed": 0},
        simulate={"integrator": "exact", "t_final": 0.1},
    )
    assert cli.run(config, tmp_path) == 2
    err = capsys.readouterr().err
    assert "numerical precondition failed: exact evolution" in err
    assert "largest eigenvalue" in err
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "summary.json").exists()

    # a positive eigenvalue of 1000 put in the first block's solve: exp(1000 t)
    # overflows from t = 0.75 on, the 16th of 41 snapshots, after the first
    # piece of 8 has been written
    solve = timestep._bloch_solves

    def spurious(*args, **kwargs):
        for w, V, slow in solve(*args, **kwargs):
            w = w.copy()
            w.flat[0] = 1000.0
            yield w, V, slow

    monkeypatch.setattr(timestep, "_bloch_solves", spurious)
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 50)
    written = blocks_written(monkeypatch)
    config = base_config(task="simulate", simulate={
        "integrator": "exact", "t_final": 2.0, "snapshots": 40, "initial": {"kind": "random", "seed": 1}})
    assert cli.run(config, tmp_path) == 2
    assert "exact evolution to t = 2 left the double range: largest eigenvalue 1000" in (
        capsys.readouterr().err)
    # the header, then the first piece's 8 snapshots in writer blocks of 2
    assert written == {"trajectory.csv": 1 + 8 // 2}
    assert not any(tmp_path.iterdir())


def test_an_unstable_rk4_run_that_overflows_exits_2_without_artefacts(tmp_path, capsys,
                                                                       monkeypatch):
    """allow_unstable waives the step-size guard only.  A wave run at 3.3
    times the stability limit whose states leave the double range is a
    numerical failure, not a trajectory of nan rows with a NaN mass drift,
    also when the overflow comes after a block of the trajectory was written."""
    config = base_config(
        model="wave1d", grid={"L": 2 * np.pi, "N": 8, "n": 4, "r": 0.3}, task="simulate",
        simulate={"integrator": "rk4", "dt": 0.2, "steps": 4000, "stride": 1000,
                  "allow_unstable": True},
    )
    assert cli.run(config, tmp_path) == 2
    err = capsys.readouterr().err
    assert "numerical precondition failed: RK4 run left the double range at t = " in err
    assert not any(tmp_path.iterdir())

    # the run leaves the double range at step 140, the 29th of 81 stored
    # states, after the first piece of 8 has been written
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 64)
    written = blocks_written(monkeypatch)
    config["simulate"].update(steps=400, stride=5)
    assert cli.run(config, tmp_path) == 2
    assert "RK4 run left the double range at t = 28 " in capsys.readouterr().err
    assert written["trajectory.csv"] > 1
    assert not any(tmp_path.iterdir())


def strict_json(path):
    """A JSON artefact parsed strictly: NaN and Infinity are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} in {path.name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_an_infinite_gap_ratio_is_written_as_null(tmp_path):
    """Every mode is macro (n_macro = dim, or one point per patch), so there is
    no gap: summary.json and check.json stay strict JSON, the ratio null."""
    assert cli.run(base_config(eigen={"n_macro": 24}), tmp_path / "eigen") == 0
    assert strict_json(tmp_path / "eigen" / "summary.json")["gap_ratio"] is None
    config = base_config(task="check", grid={"L": 2 * np.pi, "N": 6, "n": 1, "r": 0.3},
                         profile={"kind": "inline", "values": [1.0]})
    assert cli.run(config, tmp_path / "check") == 0
    assert strict_json(tmp_path / "check" / "check.json")["gap_ratio"] is None
    assert cli.run(base_config(), tmp_path / "finite") == 0
    assert strict_json(tmp_path / "finite" / "summary.json")["gap_ratio"] > 1.0


def test_simulate_rk4_summary_counts_every_step(tmp_path):
    """Only every stride-th state is written, but the summary still counts
    steps + 1 snapshots, ends at steps * dt and measures the drift of every step."""
    config = base_config(
        task="simulate",
        simulate={"integrator": "rk4", "dt": 1e-3, "steps": 20, "stride": 7,
                  "initial": {"kind": "random", "seed": 4}},
    )
    assert cli.run(config, tmp_path) == 0
    rows = read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 1 + 3 * 6 * 4
    assert sorted({float(row[0]) for row in rows[1:]}) == [0.0, 7e-3, 14e-3]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["snapshots"] == 21
    assert summary["final_time"] == 20 * 1e-3
    assert summary["mass_drift"] <= 1e-12 * abs(summary["initial_mass"]) + 1e-13


def traced_peak(config, out):
    """The peak of traced allocations of one in-process CLI run, in bytes."""
    tracemalloc.start()
    try:
        assert cli.run(config, out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("simulate", "counts"), [
    ({"integrator": "rk4", "dt": 1e-4, "steps": 4000}, {"stride": [400, 10]}),
    ({"integrator": "exact", "t_final": 0.1}, {"snapshots": [10, 400]}),
], ids=["rk4-wave", "exact"])
def test_simulate_memory_does_not_grow_with_the_stored_count(tmp_path, simulate, counts):
    """The states stream into trajectory.csv a piece at a time: 401 stored
    states or snapshots peak within 1.2 times the traced allocations of 11
    (dim 800: the wave of 40 patches of 10, or the diffusion of 80)."""
    wave = simulate["integrator"] == "rk4"
    config = base_config(
        model="wave1d" if wave else "diffusion1d",
        grid={"L": 2 * np.pi, "N": 40 if wave else 80, "n": 10, "r": 0.2},
        profile={"kind": "lognormal", "period": 5, "sigma": 1.0, "seed": 0},
        coupling={"scheme": "lagrangian", "order": 2}, task="simulate",
    )
    (key, (small, large)), = counts.items()
    runs = [dict(config, simulate={**simulate, key: value}) for value in (small, small, large)]
    assert cli.run(runs[0], tmp_path / "warm-up") == 0  # the formatter's tables, lazy imports
    peaks = [traced_peak(run, tmp_path / str(i)) for i, run in enumerate(runs[1:])]
    for i, stored in enumerate((11, 401)):
        with open(tmp_path / str(i) / "trajectory.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 1 + stored * 800
    assert peaks[1] <= 1.2 * peaks[0], [f"{p / 2**20:.2f} MB" for p in peaks]


def reference_trajectory_csv(op, times, states):
    """The trajectory.csv rows of a csv.writer, one row built per snapshot and unknown."""
    layout = op.layout
    if isinstance(op.grid, pt.PatchGrid2D):
        xs, ys = cli._positions(op.grid.x), cli._positions(op.grid.y)
        names = ["I", "J", "i", "j", "x", "y"]

        def label(J, I, j, i):
            return [I, J, i + 1, j + 1, fmt(xs[I, i]), fmt(ys[J, j])]
    else:
        pos = cli._positions(op.grid)
        names = ["patch", "interior", "position"]

        def label(I, i):
            return [I, i + 1, fmt(pos[I, i])]

    wave = layout.half is not None
    fields = ("u", "v") if wave else (None,)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["t"] + (["field"] if wave else []) + (["member"] if layout.ensemble else [])
                    + names + ["value"])
    labels = [([e] if layout.ensemble else []) + label(*idx) for e, *idx in np.ndindex(layout.shape)]
    for t, state in zip(times, states):
        for name, vec in zip(fields, np.split(state, len(fields))):
            head = [fmt(t)] if name is None else [fmt(t), name]
            for lab, value in zip(labels, vec.tolist()):
                writer.writerow(head + lab + [fmt(value)])
    return out.getvalue().encode()


TRAJECTORY_LAYOUTS = {
    "1d": {},
    "1d-ensemble": {"ensemble": True, "profile": {"kind": "inline", "values": [1.0, 2.0, 3.0]}},
    "2d": {"model": "diffusion2d", "grid": GRID_2D,
           "profile": {"kind": "inline", "kx": [[1.3, 0.8], [0.9, 1.2]], "ky": [[0.7, 1.4], [1.1, 0.9]]}},
    "2d-ensemble": {"model": "diffusion2d", "grid": GRID_2D, "ensemble": True,
                    "profile": {"kind": "inline", "kx": [[1.3, 0.8, 2.0]], "ky": [[0.7, 1.4, 0.5]]}},
    "wave": {"model": "wave1d"},
}


@pytest.mark.parametrize(
    ("overrides", "block_values"),
    [pytest.param(overrides, values, id=name if values is None else f"{name}-{values}-values")
     for values in (None, 7, 50) for name, overrides in TRAJECTORY_LAYOUTS.items()],
)
def test_trajectory_bytes_match_the_csv_writer(tmp_path, monkeypatch, overrides, block_values):
    """Every layout at the writer's own block size, where a block holds all three
    snapshots, and at blocks of 7 and 50 values (_BLOCK_VALUES), which cut the
    unknown axis or span several snapshots of fewer unknowns.

    Then the CLI's streamed runs of both integrators, whose pieces of states
    hold two writer blocks (8 states or more): 21 stored states cross their
    edges at blocks of 7 and 50 values, and the bytes and the summary are
    those of the library's Trajectory, every stride-th snapshot of the exact
    run."""
    if block_values is not None:
        monkeypatch.setattr(cli, "_BLOCK_VALUES", block_values)
    simulate = {"integrator": "rk4", "dt": 1e-4, "steps": 1}
    op = cli._assemble(cli._resolve(base_config(task="simulate", simulate=simulate, **overrides)))
    rng = np.random.default_rng(5)
    # values of every magnitude and sign, an exact zero and the non-finite ones
    states = rng.standard_normal((3, op.dimension)) * 10.0 ** rng.integers(-300, 300, (3, op.dimension))
    states[1, :4] = [0.0, np.nan, np.inf, -np.inf]
    times = np.array([0.0, 1 / 3, 2e-7])
    cli._write_trajectory(tmp_path / "trajectory.csv", op, times, states)
    assert (tmp_path / "trajectory.csv").read_bytes() == reference_trajectory_csv(op, times, states)

    initial = {"kind": "random", "seed": 2}
    runs = {"rk4": {"integrator": "rk4", "dt": 1e-4, "steps": 40, "stride": 2, "initial": initial}}
    if op.layout.half is None:
        runs["exact"] = {"integrator": "exact", "t_final": 0.2, "snapshots": 62, "stride": 3,
                         "initial": initial}
    for name, simulate in runs.items():
        config = base_config(task="simulate", simulate=simulate, **overrides)
        state = cli._initial_state(cli._resolve(config).section["initial"], op)
        out = tmp_path / name
        assert cli.run(config, out) == 0
        if name == "rk4":
            traj = pt.evolve_rk4(op, state, 1e-4, 40, stride=2)
            stored = slice(None)
        else:
            traj = pt.evolve_exact(op, state, np.linspace(0.0, 0.2, 63))
            stored = slice(None, None, 3)
        want = reference_trajectory_csv(op, traj.times[stored], traj.states[stored])
        assert (out / "trajectory.csv").read_bytes() == want
        sums, drift = pt.conserved_mass(traj)
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["snapshots"], summary["initial_mass"], summary["mass_drift"]) == (
            sums.size, sums[0], drift)


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


def test_sine_start_is_the_product_over_the_axes(tmp_path):
    """A 2D sine start is offset + amplitude * sin(2 pi m_x x / L_x) sin(2 pi m_y y / L_y)
    at every unknown, repeated for each ensemble member."""
    init = {"kind": "sine", "modes": [2, 1], "amplitude": 0.7, "offset": 1.5}
    config = base_config(
        model="diffusion2d", grid=GRID_2D, ensemble=True,
        profile={"kind": "inline", "kx": [[1.3, 0.8, 2.0]], "ky": [[0.7, 1.4, 0.5]]},
        task="simulate", simulate={"integrator": "exact", "t_final": 0.1, "initial": init},
    )
    run = cli._resolve(config)
    op = cli._assemble(run)
    u = cli._initial_state(run.section["initial"], op).values.reshape(op.layout.shape)
    gx, gy = run.grid.x, run.grid.y
    for e, J, I, j, i in np.ndindex(op.layout.shape):
        x, y = gx.positions(I)[i], gy.positions(J)[j]
        want = 1.5 + 0.7 * np.sin(2 * np.pi * 2 * x / gx.L) * np.sin(2 * np.pi * y / gy.L)
        assert u[e, J, I, j, i] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_constant_start_fills_every_unknown(tmp_path):
    init = {"kind": "constant", "value": 2.5}
    for model in ("diffusion1d", "wave1d"):
        config = base_config(model=model, task="simulate",
                             simulate={"integrator": "rk4", "dt": 1e-4, "steps": 2, "initial": init})
        run = cli._resolve(config)
        op = cli._assemble(run)
        u = cli._initial_state(run.section["initial"], op).values
        want = np.full(6 * 4, 2.5)
        if model == "wave1d":
            want = np.concatenate([want, np.zeros(6 * 4)])  # the velocity starts at rest
        np.testing.assert_array_equal(u, want)


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
    assert set(payload) == {"K2", "K4", "beta", "d"}
    assert payload["K2"] == pytest.approx(18 / 11, rel=1e-12)
    assert abs(payload["K4"] - 675 / 2662) <= 4 * np.finfo(float).eps * (675 / 2662)
    grid = pt.build_grid_1d(2 * np.pi, 6, 6, 0.3)
    assert payload["beta"] == pytest.approx(2 * np.pi**2 / (9 * grid.d**2), rel=1e-12)
    branch = read_csv(tmp_path / "slow_branch.csv")
    assert branch[0] == ["k", "eigenvalue"]
    assert len(branch) == 9


def test_homogenize_samples_the_slow_branch_at_one_node(tmp_path):
    """One slow_branch.csv sample is enough: node_count only sets how many
    are written, since no fit reads them."""
    config = base_config(
        grid={"L": 2 * np.pi, "N": 6, "n": 6, "r": 0.3},
        profile={"kind": "inline", "values": [1.0, 2.0, 3.0]},
        task="homogenize", homogenize={"node_count": 1},
    )
    assert cli.run(config, tmp_path) == 0
    profile = pt.DiffusivityProfile1D(np.array([1.0, 2.0, 3.0]))
    assert read_csv(tmp_path / "slow_branch.csv") == [
        ["k", "eigenvalue"], [fmt(0.02), fmt(pt.slow_branch(profile, 0.02))]
    ]


def test_homogenize_of_an_eight_periodic_lognormal_profile(tmp_path):
    config = base_config(
        grid={"L": 2 * np.pi, "N": 6, "n": 8, "r": 0.3},
        profile={"kind": "lognormal", "period": 8, "sigma": 1.0, "seed": 0},
        task="homogenize",
    )
    assert cli.run(config, tmp_path) == 0
    payload = json.loads((tmp_path / "homogenize.json").read_text())
    assert set(payload) == {"K2", "K4", "beta", "d"}
    values = pt.random_lognormal_profile(8, 1.0, 0).values
    assert payload["K4"] == pytest.approx(quartic_coefficient(values), rel=1e-12)


@pytest.mark.parametrize("values, section, message", [
    ([1e-8, 1.0, 1e8], {}, "series k^2 coefficient"),
    ([1.0, 2.0, 3.0], {"node_spacing": 0.25}, "branch separation failure at k = 0.75"),
], ids=["contrast-beyond-the-series-round-off", "samples-beyond-the-branch-crossing"])
def test_a_failed_homogenize_exits_2_without_artefacts(tmp_path, capsys, values, section, message):
    """The coefficients sample no wavenumber, but the slow_branch.csv samples
    are taken before anything is written."""
    config = base_config(
        grid={"L": 2 * np.pi, "N": 6, "n": 6, "r": 0.3},
        profile={"kind": "inline", "values": values},
        task="homogenize", homogenize=section,
    )
    assert cli.run(config, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_homogenize_builds_one_lattice_per_run(tmp_path, monkeypatch):
    """The symbol's lattice of three periods is built once per profile, not
    once per symbol: the series and 16 symbols, a slow-branch sample and its
    k = 0 gap at each of 8 nodes, in a run."""
    from patchtooth import homogenize

    calls = []
    original = homogenize._full_lattice

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homogenize, "_full_lattice", counted)
    homogenize._symbol_terms.cache_clear()
    config = base_config(
        grid={"L": 2 * np.pi, "N": 6, "n": 6, "r": 0.3},
        profile={"kind": "inline", "values": [1.0, 2.0, 4.0]},
        task="homogenize",
    )
    assert cli.run(config, tmp_path / "first") == 0
    assert len(calls) == 1
    assert cli.run(config, tmp_path / "again") == 0
    assert len(calls) == 1
    for name in ("homogenize.json", "slow_branch.csv"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


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


def test_ensemble_patches_sweep_finds_its_macro_modes(tmp_path):
    """p = 4 and n = 6 give g = 2 member orbits, so each Bloch block holds two
    slow modes; a row pairs them by rank and reports the worse of the two."""
    config = base_config(
        grid={"L": 2 * np.pi, "N": 9, "n": 6, "r": 0.3},
        profile={"kind": "lognormal", "period": 4, "sigma": 1.0, "seed": 0},
        coupling={"scheme": "lagrangian", "order": 2},
        ensemble=True,
        task="sweep",
        sweep={"parameter": "patches", "values": [9, 13, 17], "modes": 3},
    )
    assert cli.run(config, tmp_path) == 0
    rows = [[float(x) for x in row[1:]] for row in read_csv(tmp_path / "sweep.csv")[1:]]
    errors = np.array(rows)
    assert errors.shape == (3, 3)
    assert np.all(np.diff(errors, axis=0) < 0)  # every wavenumber converges in N


def test_a_patches_sweep_solves_its_blocks_in_one_call(tmp_path, monkeypatch):
    """Every operator of a patch sweep shares one pair plan, so the selected
    blocks of all of them go through a single eigvalsh; its table is the one
    that one eigen_symmetric call per operator gives."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    config = base_config(
        grid={"L": 2 * np.pi, "N": 9, "n": 6, "r": 0.3},
        profile={"kind": "lognormal", "period": 4, "sigma": 1.0, "seed": 0},
        coupling={"scheme": "lagrangian", "order": 2},
        ensemble=True,
        task="sweep",
        sweep={"parameter": "patches", "values": [9, 13, 17], "modes": 3},
    )
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert cli.run(config, tmp_path) == 0
    # 3 grids x 2 couplings x 3 wavenumbers, each block split into g = 2 orbits
    assert calls == [(36, 12, 12)]
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["patches", "err_mode_1", "err_mode_2", "err_mode_3"])
    prof = pt.random_lognormal_profile(4, 1.0, 0)
    d = pt.build_grid_1d(2 * np.pi, 9, 6, 0.3).d
    for N in (9, 13, 17):
        grid = pt.build_grid_1d(2 * np.pi, N, 6, pt.ratio_for_spacing(2 * np.pi, N, 6, d))
        test, ref = (
            pt.eigen_symmetric(pt.assemble_patch_1d(grid, prof, c, ensemble=True), modes=3)
            for c in (pt.CouplingSpec("lagrangian", 2), pt.CouplingSpec("spectral"))
        )
        writer.writerow([N] + [fmt(e) for e in pt.error_table(test, ref, 3).relative_errors])
    assert (tmp_path / "sweep.csv").read_bytes() == out.getvalue().encode()


def test_a_sweep_names_its_first_failing_operator(tmp_path, capsys):
    """On a coarse g = 1 ensemble (p = 5, n = 4 at r = 0.3) every operator
    of this order sweep mixes a fast mode into the slow ones of wavenumber 3,
    each at magnitudes of its own.  The spectral reference comes first, and
    its block has two equal smallest magnitudes: the batched solve names
    that operator's block, as one solve per operator would."""
    config = base_config(
        grid={"L": 2 * np.pi, "N": 9, "n": 4, "r": 0.3},
        profile={"kind": "lognormal", "period": 5, "sigma": 1.0, "seed": 0},
        ensemble=True,
        task="sweep",
        sweep={"parameter": "order", "values": [1, 2], "modes": 3},
    )
    assert cli.run(config, tmp_path) == 2
    err = capsys.readouterr().err
    assert "the Bloch block of wavenumber 3 does not separate" in err
    assert "largest slow magnitude 8.68838, smallest fast 8.68838" in err
    assert not (tmp_path / "sweep.csv").exists()


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
    # a 2D Lagrangian tiling at r = 1 is the full lattice too
    lattice_2d = {
        "model": "diffusion2d",
        "grid": {"x": {"L": 2 * np.pi, "N": 7, "n": 4, "r": 1.0},
                 "y": {"L": 2 * np.pi, "N": 6, "n": 4, "r": 1.0}},
        "profile": {"kind": "lognormal", "periods": [2, 2], "sigma": 0.5, "seed": 0},
        "coupling": {"scheme": "lagrangian", "order": 2},
        "task": "check",
    }
    assert cli.run(lattice_2d, tmp_path / "lattice-2d") == 0
    payload = strict_json(tmp_path / "lattice-2d" / "check.json")
    assert payload["consistency"]["available"] is True
    assert payload["consistency"]["max_relative_error"] <= 1e-9
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


def test_check_compares_full_lattices_of_any_size(tmp_path):
    """The reference spectrum is a Bloch solve, so lattices above 4,096 points
    (4,100 in 1D, 66 x 64 in 2D) are compared too.

    At r = 1 the spectral weights are the exact one-hot shift, so each patch
    operator is the full lattice: the errors read 4.0e-11 in 1D and 0 in 2D.
    They read 1.1e-5 and 1.3e-7 while the weights were N-term exponential
    sums, which missed the one-hot weights by about N eps.
    """
    grid_2d = {
        "x": {"L": 2 * np.pi, "N": 22, "n": 3, "r": 1.0},
        "y": {"L": 2 * np.pi, "N": 32, "n": 2, "r": 1.0},
    }
    configs = [
        base_config(grid={"L": 2 * np.pi, "N": 1025, "n": 4, "r": 1.0}, task="check"),
        base_config(model="diffusion2d", grid=grid_2d, task="check",
                    profile={"kind": "lognormal", "periods": [3, 2], "sigma": 0.5, "seed": 2}),
    ]
    for k, config in enumerate(configs):
        out = tmp_path / f"large{k}"
        assert cli.run(config, out) == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["dimension"] > 4096
        assert payload["consistency"]["available"] is True
        assert payload["consistency"]["max_relative_error"] <= 1e-9


@pytest.mark.parametrize(
    "overrides, fixed, spectral",
    [
        ({"model": "wave1d"}, {}, ["max_real_part", "zero_mode_magnitude", "gap_ratio"]),
        ({"profile": {"kind": "inline", "values": [1.0, 2.0, 3.0]}, "allow_incompatible": True},
         {"note": "operator is not symmetric; spectral diagnostics skipped "
                  "(rerun without allow_incompatible for a usable operator)"},
         []),
        ({"grid": {"L": 2 * np.pi, "N": 6, "n": 6, "r": 1.0}, "ensemble": True,
          "profile": {"kind": "lognormal", "period": 4, "sigma": 1.0, "seed": 0}},
         {"consistency": {"available": False,
                          "reason": "ensemble runs have no single full-lattice counterpart"}},
         ["max_eigenvalue", "zero_mode_magnitude", "gap_ratio"]),
        ({}, {"consistency": {"available": False, "reason": "patches only tile the lattice at r = 1"}},
         ["max_eigenvalue", "zero_mode_magnitude", "gap_ratio"]),
    ],
    ids=["wave", "allow-incompatible", "ensemble-at-r-1", "single-phase-below-r-1"],
)
def test_check_writes_the_fields_its_operator_allows(tmp_path, overrides, fixed, spectral):
    """The wave system has a general spectrum and no full lattice; an
    incompatible operator has no symmetric spectrum, only a note;
    an ensemble, or patches that do not tile the lattice, no consistency."""
    config = base_config(task="check", **overrides)
    assert cli.run(config, tmp_path) == 0
    payload = strict_json(tmp_path / "check.json")
    op = cli._assemble(cli._resolve(config))
    common = {"model", "dimension", "symmetry", "kernel_residual", "diagnostics"}
    assert set(payload) == common | set(fixed) | set(spectral)
    assert {key: payload[key] for key in fixed} == fixed
    assert payload["symmetry"] == dataclasses.asdict(pt.symmetry_defect(op))
    assert payload["diagnostics"] == [list(item) for item in op.layout.diagnostics]
    if spectral:
        report = (pt.eigen_general if config["model"] == "wave1d" else pt.eigen_symmetric)(op)
        top = float(np.max(report.eigenvalues.real))
        library = {"max_real_part": top, "max_eigenvalue": top, "gap_ratio": report.gap_ratio,
                   "zero_mode_magnitude": report.zero_mode_magnitude}
        assert {key: payload[key] for key in spectral} == {key: library[key] for key in spectral}
    # the kernel is the constant u, with v = 0 for the wave system: a v of
    # ones would leave 1 in every row of the upper half
    assert payload["kernel_residual"] <= 1e-12


def test_task_override_and_missing_config(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "--task", "check"]) == 0
    assert (tmp_path / "check.json").exists()
    assert cli.main(["--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["--config", str(broken)]) == 1


@pytest.mark.parametrize("payload", [[1, 2], "x", [["model", "diffusion1d"], ["task", "check"]]])
def test_task_override_of_a_config_that_is_not_an_object_exits_1(tmp_path, capsys, payload):
    """--task overrides a key only of a JSON object; any other config, a list
    of pairs included, is reported as what it is."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "--task", "eigen"]) == 1
    assert "is not of type 'object'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _src_env():
    """The environment of a child interpreter that imports patchtooth from src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "patchtooth", "--config", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "eigenvalues.csv").exists()


def test_importing_the_cli_loads_no_scipy():
    """scipy and jsonschema, with its dependencies, serve only the tests, and
    the CSV artefacts need no csv module."""
    code = (
        "import sys, patchtooth.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'jsonschema', 'referencing', 'attrs', 'rpds', 'csv')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_cli_runs_without_jsonschema(tmp_path):
    """A runtime-only install has no jsonschema; None in sys.modules makes
    any import of it fail."""
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = (
        "import sys; sys.modules['jsonschema'] = None; from patchtooth import cli; "
        f"sys.exit(cli.main(['--config', {str(path)!r}, '--out', {str(out)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["eigenvalues.csv", "summary.json"]
