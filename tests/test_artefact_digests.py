"""The config list of tests/artefact_digests.py, checked without running it.

The script's entries are CI's byte checks: each must be a config the CLI
accepts, under a name of its own, and every path through the CLI must have
one.  A path is a (model, task, integrator, sweep parameter, ensemble)
combination; the ones the CLI accepts are found by asking cli._resolve, so
that a new path without an entry fails here.
"""

import contextlib
import itertools

from artefact_digests import configs

from patchtooth import cli

ENTRIES = list(configs())
SCHEMA = cli.SCHEMA["properties"]


def combination(run):
    """The path of a resolved run: (model, task, integrator, sweep parameter, ensemble)."""
    section = run.section or {}
    return (run.model, run.task, section.get("integrator") if run.task == "simulate" else None,
            section.get("parameter") if run.task == "sweep" else None, run.ensemble)


def probes(model, task, choice, ensemble):
    """Small configs of one combination, each coupling scheme in turn."""
    grid = {"L": 6.0, "N": 9, "n": 4, "r": 0.3}
    profile = {"kind": "inline", "values": [1.0, 2.0]}
    if model == "diffusion2d":
        grid = {"x": grid, "y": grid}
        profile = {"kind": "inline", "kx": [[1.0, 2.0]], "ky": [[2.0, 1.0]]}
    section = {
        "simulate": {"integrator": choice, "t_final": 0.1, "dt": 0.01, "steps": 1},
        "sweep": {"parameter": choice, "values": [9, 17, 25] if choice == "patches" else [1, 2]},
    }
    for coupling in ({"scheme": "spectral"}, {"scheme": "lagrangian", "order": 1}):
        config = {"model": model, "grid": grid, "profile": profile, "coupling": coupling,
                  "ensemble": ensemble, "task": task}
        if task in section:
            config[task] = section[task]
        yield config


def accepted_combinations():
    """Every combination for which some probe config resolves."""
    choices = {"simulate": SCHEMA["simulate"]["properties"]["integrator"]["enum"],
               "sweep": SCHEMA["sweep"]["properties"]["parameter"]["enum"]}
    accepted = set()
    for model, task, ensemble in itertools.product(
        SCHEMA["model"]["enum"], SCHEMA["task"]["enum"], (False, True)
    ):
        for choice in choices.get(task, [None]):
            for config in probes(model, task, choice, ensemble):
                with contextlib.suppress(cli.ConfigError):
                    accepted.add(combination(cli._resolve(config)))
    return accepted


def test_every_entry_resolves_under_a_name_of_its_own():
    """Resolving changes no entry: several entries share their parts."""
    names = [name for name, _ in ENTRIES]
    assert len(set(names)) == len(names)
    before = repr(ENTRIES)
    for _, config in ENTRIES:
        cli._resolve(config)
    assert repr(ENTRIES) == before


def test_every_combination_the_cli_accepts_has_an_entry():
    """The probes find every combination an entry takes, so they miss none
    the list has; and the list misses none they find."""
    covered = {combination(cli._resolve(config)) for _, config in ENTRIES}
    accepted = accepted_combinations()
    assert covered - accepted == set()
    assert accepted - covered == set()

