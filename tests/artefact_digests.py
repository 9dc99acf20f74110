"""Print the sha256 of every artefact the CLI writes for a fixed list of configs.

    python3 tests/artefact_digests.py > digests.txt

Runs the patchtooth of this checkout (its own src/) on the three benchmark
workloads of bench/workloads.json at seeds 0, 3, 7 and 11, and on configs
that take the paths those workloads do not: an exact 2D ensemble simulate,
an order sweep, a g = 2 ensemble patches sweep, a check at r = 1 and a 2D
eigen on unequal axis lengths.  Each artefact gives one line
`sha256  config/artefact`, and a run that exits nonzero one line
`exit <code>  config`.  A change meant to keep every artefact byte is
checked by one diff of this output on the parent and on the change.

The file name does not match test_*.py, so pytest does not collect it.
"""

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from patchtooth import cli  # noqa: E402

TAU = 6.283185307179586

EXTRA = {
    "simulate-exact-2d-ensemble": {
        "model": "diffusion2d",
        "grid": {"x": {"L": TAU, "N": 5, "n": 3, "r": 0.3},
                 "y": {"L": TAU, "N": 4, "n": 3, "r": 0.3}},
        "profile": {"kind": "lognormal", "periods": [2, 3], "sigma": 0.5, "seed": 1},
        "coupling": {"scheme": "spectral"},
        "ensemble": True,
        "task": "simulate",
        "simulate": {"integrator": "exact", "t_final": 0.5, "snapshots": 6,
                     "initial": {"kind": "random", "seed": 2}},
    },
    "sweep-order": {
        "model": "diffusion1d",
        "grid": {"L": TAU, "N": 9, "n": 4, "r": 0.3},
        "profile": {"kind": "inline", "values": [1.0, 2.0]},
        "coupling": {"scheme": "spectral"},
        "task": "sweep",
        "sweep": {"parameter": "order", "values": [1, 2, 3], "modes": 3},
    },
    "sweep-patches-ensemble-g2": {
        "model": "diffusion1d",
        "grid": {"L": TAU, "N": 7, "n": 6, "r": 0.2},
        "profile": {"kind": "lognormal", "period": 4, "sigma": 0.7, "seed": 5},
        "coupling": {"scheme": "lagrangian", "order": 2},
        "ensemble": True,
        "task": "sweep",
        "sweep": {"parameter": "patches", "values": [7, 9, 11], "modes": 2},
    },
    "check-r1": {
        "model": "diffusion1d",
        "grid": {"L": TAU, "N": 6, "n": 4, "r": 1.0},
        "profile": {"kind": "inline", "values": [1.0, 2.0]},
        "coupling": {"scheme": "spectral"},
        "task": "check",
    },
    "eigen-2d-unequal-lengths": {
        "model": "diffusion2d",
        "grid": {"x": {"L": TAU, "N": 5, "n": 2, "r": 0.3},
                 "y": {"L": 4.0, "N": 4, "n": 2, "r": 0.3}},
        "profile": {"kind": "lognormal", "periods": [2, 2], "sigma": 0.5, "seed": 4},
        "coupling": {"scheme": "spectral"},
        "task": "eigen",
    },
}


def configs():
    """(name, config) of every run, the workloads first."""
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())
    for name, spec in workloads.items():
        for seed in (0, 3, 7, 11):
            config = copy.deepcopy(spec["config"])
            config["profile"]["seed"] = seed
            yield f"{name}-seed{seed}", config
    yield from EXTRA.items()


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, config in configs():
            out = Path(work) / name
            code = cli.run(config, out)
            if code != 0:
                print(f"exit {code}  {name}")
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
