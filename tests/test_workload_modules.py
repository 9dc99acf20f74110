"""The package modules that each benchmark workload's smoke config executes.

bench/run.py traces which modules of src/patchtooth a run enters and
reports a module entered without a span of its own (`trace.unspanned_layers`),
and bench/selftest.py fails on one.  So where a private helper lives is part
of what the benchmark measures; this test pins each workload's set, read
from bench/workloads.json and traced the same way, so that moving a helper
between modules fails here first.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

import patchtooth
from patchtooth import cli

WORKLOADS = json.loads((Path(__file__).parents[1] / "bench" / "workloads.json").read_text())
BASE = {"assembly", "cli", "coupling", "geometry", "microscale"}
MODULES = {
    "eigen2d-ens": BASE | {"spectra"},
    "rk4-wave1d": BASE | {"timestep"},
    "sweep1d-patches": BASE | {"spectra"},
}


def reached_modules(config, out) -> set[str]:
    """The modules of the package whose functions a CLI run calls."""
    package = str(Path(patchtooth.__file__).resolve().parent) + "/"
    reached = set()

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            reached.add(Path(frame.f_code.co_filename).stem)

    sys.settrace(on_call)
    try:
        code = cli.run(config, out)
    finally:
        sys.settrace(None)
    assert code == 0
    return reached - {"__init__", "__main__"}


def test_every_workload_is_pinned():
    assert set(MODULES) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_each_workload_reaches_its_modules(tmp_path, name):
    spec = WORKLOADS[name]
    config = copy.deepcopy(spec["config"])
    config.update(copy.deepcopy(spec["smoke"]))  # as bench/run.py makes a smoke config
    assert reached_modules(config, tmp_path) == MODULES[name]
