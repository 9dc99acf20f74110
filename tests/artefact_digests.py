"""Print the sha256 of every artefact the CLI writes for a fixed list of configs.

    python3 tests/artefact_digests.py > digests.txt

Runs the patchtooth of this checkout (its own src/) on four families of
configs, in one process:

- the three benchmark workloads of bench/workloads.json at seeds 0, 3, 7
  and 11 (the sweep1d-patches config at seed 0 is also the per-grid sweep
  of tests/test_cli.py);
- paths those workloads do not take: an exact 2D ensemble simulate, an
  order sweep, a g = 2 ensemble patches sweep, a check at r = 1 and a 2D
  eigen on unequal axis lengths;
- configs that once had a CI step of their own, under that step's file
  name: g = 2 ensemble and wave ensemble eigen, Bluestein patch counts,
  whole spectra of a g = 1 ensemble whose blocks do not separate,
  homogenize of closed-form and lognormal profiles, patch, order and
  ensemble sweeps, RK4 and exact simulates with stride (wave-half steps at
  half its exact stability limit), and check of a wave, an incompatible
  profile, a wave ensemble, a 2D ensemble and an r = 1 2D lattice;
- one config for each (model, task, integrator, sweep parameter, ensemble)
  combination that no entry above takes; tests/test_artefact_digests.py
  fails when a combination the CLI accepts has no entry.

Each artefact gives one line `sha256  config/artefact`.  A run that exits
nonzero gives a line `exit <code>  config`, an empty artefact a line
`empty  config/artefact` and a JSON artefact holding NaN or Infinity a line
`not strict JSON  config/artefact`; any of these makes the script exit 1.

CI runs the script in fresh processes, twice as it is and once each under
OPENBLAS_NUM_THREADS=1 and 2, and diffs the outputs: every artefact is the
same bytes on every run and on one and two BLAS threads.  A change meant
to keep every artefact byte is checked by one diff of this output on the
parent and on the change (README, "Tests").  A new path through the CLI
needs one new entry here.

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

import patchtooth as pt  # noqa: E402
from patchtooth import cli  # noqa: E402

TAU = 6.283185307179586
INLINE = {"kind": "inline", "values": [1.0, 2.0]}
SPECTRAL = {"scheme": "spectral"}
LAGRANGIAN = {"scheme": "lagrangian", "order": 2}


def grid_1d(N, n, r):
    return {"L": TAU, "N": N, "n": n, "r": r}


def grid_2d(x, y):
    return {"x": grid_1d(*x), "y": grid_1d(*y)}


def lognormal(period, sigma, seed=0):
    return {"kind": "lognormal", "period": period, "sigma": sigma, "seed": seed}


def lognormal_2d(periods, sigma, seed=0):
    return {"kind": "lognormal", "periods": periods, "sigma": sigma, "seed": seed}


def entry(model, grid, profile, coupling, task, **rest):
    return {"model": model, "grid": grid, "profile": profile, "coupling": coupling,
            "task": task, **rest}


def rk4(dt, steps, stride, **initial):
    return {"simulate": {"integrator": "rk4", "dt": dt, "steps": steps, "stride": stride,
                         **({"initial": initial} if initial else {})}}


WAVE = entry("wave1d", grid_1d(8, 4, 0.3), INLINE, SPECTRAL, "simulate", **rk4(0.01, 100, 10))

EXTRA = {
    # paths the workloads do not take
    "simulate-exact-2d-ensemble": entry(
        "diffusion2d", grid_2d((5, 3, 0.3), (4, 3, 0.3)),
        lognormal_2d([2, 3], 0.5, seed=1), SPECTRAL, "simulate", ensemble=True,
        simulate={"integrator": "exact", "t_final": 0.5, "snapshots": 6,
                  "initial": {"kind": "random", "seed": 2}},
    ),
    "sweep-order": entry("diffusion1d", grid_1d(9, 4, 0.3), INLINE, SPECTRAL, "sweep",
                         sweep={"parameter": "order", "values": [1, 2, 3], "modes": 3}),
    "sweep-patches-ensemble-g2": entry(
        "diffusion1d", grid_1d(7, 6, 0.2), lognormal(4, 0.7, seed=5), LAGRANGIAN, "sweep",
        ensemble=True, sweep={"parameter": "patches", "values": [7, 9, 11], "modes": 2},
    ),
    "check-r1": entry("diffusion1d", grid_1d(6, 4, 1.0), INLINE, SPECTRAL, "check"),
    "eigen-2d-unequal-lengths": entry(
        "diffusion2d", {"x": grid_1d(5, 2, 0.3), "y": {"L": 4.0, "N": 4, "n": 2, "r": 0.3}},
        lognormal_2d([2, 2], 0.5, seed=4), SPECTRAL, "eigen",
    ),
    # the configs of the CI steps that ran the CLI twice and compared the bytes
    "eigen": entry("diffusion1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL, "eigen"),
    "simulate": entry("diffusion1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL, "simulate",
                      ensemble=True, simulate={"integrator": "exact", "t_final": 0.1}),
    "ensemble-eigen": entry("diffusion1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL, "eigen",
                            ensemble=True),
    "wave-ensemble-eigen": entry("wave1d", grid_1d(9, 6, 0.3), lognormal(4, 0.5), SPECTRAL,
                                 "eigen", ensemble=True),
    "bluestein-1d": entry("diffusion1d", grid_1d(191, 10, 0.05), lognormal(5, 1.0),
                          LAGRANGIAN, "eigen"),
    "bluestein-2d": entry("diffusion2d", grid_2d((9, 4, 0.3), (113, 4, 0.05)),
                          lognormal_2d([2, 2], 0.5), SPECTRAL, "eigen"),
    "coarse-ensemble": entry("diffusion1d", grid_1d(9, 4, 0.3), lognormal(5, 1.0), SPECTRAL,
                             "eigen", ensemble=True),
    "coarse-ensemble-check": entry("diffusion1d", grid_1d(9, 4, 0.3), lognormal(5, 1.0),
                                   SPECTRAL, "check", ensemble=True),
    "homogenize": entry("diffusion1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL, "homogenize"),
    "homogenize-123": entry("diffusion1d", grid_1d(6, 6, 0.3),
                            {"kind": "inline", "values": [1.0, 2.0, 3.0]}, SPECTRAL,
                            "homogenize"),
    "homogenize-lognormal": entry("diffusion1d", grid_1d(6, 8, 0.3), lognormal(8, 1.0),
                                  SPECTRAL, "homogenize"),
    "sweep": entry("diffusion1d", grid_1d(9, 10, 0.05), lognormal(5, 1.0), LAGRANGIAN, "sweep",
                   sweep={"parameter": "patches", "values": [9, 17, 25]}),
    "order-sweep": entry(
        "diffusion1d", grid_1d(20, 5, 0.1),
        {"kind": "inline", "values": [3.965, 2.531, 0.838, 0.331, 7.275]}, SPECTRAL, "sweep",
        sweep={"parameter": "order", "values": [1, 2, 3, 4, 5], "modes": 3},
    ),
    "ensemble-sweep": entry(
        "diffusion1d", grid_1d(9, 6, 0.3), lognormal(4, 1.0), LAGRANGIAN, "sweep", ensemble=True,
        sweep={"parameter": "patches", "values": [9, 13, 17], "modes": 3},
    ),
    "wave-stride": WAVE,
    "ensemble-2d-exact": entry(
        "diffusion2d", grid_2d((4, 2, 0.3), (3, 3, 0.3)),
        {"kind": "inline", "kx": [[1.3, 0.8, 2.0]], "ky": [[0.7, 1.4, 0.5]]}, SPECTRAL,
        "simulate", ensemble=True,
        simulate={"integrator": "exact", "t_final": 0.2, "snapshots": 6, "stride": 2},
    ),
    "diffusion-2d-rk4": entry("diffusion2d", grid_2d((5, 4, 0.3), (4, 4, 0.3)),
                              lognormal_2d([2, 2], 0.5), SPECTRAL, "simulate",
                              **rk4(0.001, 200, 20)),
    "wave-check": entry("wave1d", grid_1d(8, 4, 0.3), INLINE, SPECTRAL, "check"),
    "incompatible-check": entry("diffusion1d", grid_1d(6, 4, 0.3),
                                {"kind": "inline", "values": [1.0, 2.0, 3.0]}, SPECTRAL,
                                "check", allow_incompatible=True),
    "wave-ensemble-check": entry("wave1d", grid_1d(9, 4, 0.3), lognormal(5, 1.0), SPECTRAL,
                                 "check", ensemble=True),
    "ensemble-2d-check": entry("diffusion2d", grid_2d((9, 3, 0.3), (9, 3, 0.3)),
                               lognormal_2d([2, 2], 0.5), SPECTRAL, "check", ensemble=True),
    "lattice-2d-check": entry("diffusion2d", grid_2d((7, 4, 1.0), (6, 4, 1.0)),
                              lognormal_2d([2, 2], 0.5), LAGRANGIAN, "check"),
    # one config for each combination no entry above takes
    "simulate-exact-1d": entry("diffusion1d", grid_1d(6, 4, 0.3), lognormal(2, 0.5),
                               LAGRANGIAN, "simulate",
                               simulate={"t_final": 0.3, "initial": {"kind": "random"}}),
    "simulate-rk4-1d": entry("diffusion1d", grid_1d(7, 4, 0.3), INLINE, LAGRANGIAN,
                             "simulate", **rk4(0.001, 50, 10, kind="constant", value=2.5)),
    "simulate-rk4-1d-ensemble": entry("diffusion1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL,
                                      "simulate", ensemble=True, **rk4(0.002, 30, 10)),
    "homogenize-ensemble": entry("diffusion1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL,
                                 "homogenize", ensemble=True, homogenize={"node_count": 3}),
    "sweep-order-ensemble": entry("diffusion1d", grid_1d(9, 4, 0.3), INLINE, SPECTRAL, "sweep",
                                  ensemble=True,
                                  sweep={"parameter": "order", "values": [1, 2], "modes": 2}),
    "simulate-exact-2d": entry("diffusion2d", grid_2d((4, 3, 0.3), (3, 2, 0.4)),
                               lognormal_2d([3, 2], 0.5, seed=6), SPECTRAL, "simulate",
                               simulate={"integrator": "exact", "t_final": 0.2,
                                         "initial": {"kind": "sine", "modes": [1, 2]}}),
    "simulate-rk4-2d-ensemble": entry("diffusion2d", grid_2d((3, 2, 0.3), (3, 2, 0.3)),
                                      lognormal_2d([2, 2], 0.5, seed=2), SPECTRAL, "simulate",
                                      ensemble=True, **rk4(0.001, 40, 10, kind="random")),
    "sweep-order-2d": entry("diffusion2d", grid_2d((7, 2, 0.4), (6, 3, 0.3)),
                            lognormal_2d([2, 3], 0.5), SPECTRAL, "sweep",
                            sweep={"parameter": "order", "values": [1, 2], "modes": 3}),
    "sweep-order-2d-ensemble": entry("diffusion2d", grid_2d((5, 2, 0.3), (5, 2, 0.3)),
                                     lognormal_2d([2, 2], 0.5, seed=3), SPECTRAL, "sweep",
                                     ensemble=True,
                                     sweep={"parameter": "order", "values": [1, 2], "modes": 2}),
    "eigen-wave": entry("wave1d", grid_1d(8, 4, 0.3), lognormal(4, 0.5, seed=1), LAGRANGIAN,
                        "eigen", epsilon=0.05),
    "simulate-rk4-wave-ensemble": entry("wave1d", grid_1d(6, 4, 0.3), INLINE, SPECTRAL,
                                        "simulate", ensemble=True, **rk4(0.005, 40, 10)),
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
    # the RK4 wave at half its exact stability limit, which the row-sum
    # certificate admits with no general eigensolve
    base = pt.assemble_patch_1d(pt.build_grid_1d(TAU, 8, 4, 0.3),
                                pt.DiffusivityProfile1D((1.0, 2.0)), pt.CouplingSpec("spectral"))
    limit = pt.stability_limit(pt.assemble_wave(base, epsilon=0.02))
    yield "wave-half", {**WAVE, "epsilon": 0.02, **rk4(0.5 * limit, 100, 10)}


def refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as work:
        for name, config in configs():
            out = Path(work) / name
            code = cli.run(config, out)
            if code != 0:
                print(f"exit {code}  {name}")
                problems += 1
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                data = path.read_bytes()
                print(f"{hashlib.sha256(data).hexdigest()}  {name}/{path.name}")
                if not data:
                    print(f"empty  {name}/{path.name}")
                    problems += 1
                elif path.suffix == ".json":
                    try:
                        json.loads(data, parse_constant=refuse)
                    except ValueError:
                        print(f"not strict JSON  {name}/{path.name}")
                        problems += 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
