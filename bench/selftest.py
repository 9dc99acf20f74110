"""Self-test of the benchmark: oracles, tracing, smoke runs and refusal.

Usage (from the repository root): python3 bench/selftest.py

Checks that each oracle accepts a real run and rejects a perturbed
eigenvalue, a truncated trajectory.csv and a wrong slope; that traced self
times add up to the traced run_s with each layer where it belongs; that the
coverage guard names a missing function and an unspanned layer; that the
smoke benchmark passes traced and untraced; and that the benchmark refuses to
run, without printing a result, next to no program.  Exits 1 on any failure.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import oracles
import run
import spans

run.check_program()
sys.path.insert(0, str(run.SRC))

import patchtooth.assembly  # noqa: E402
import patchtooth.cli as cli  # noqa: E402

WORKLOADS = json.loads((run.BENCH / "workloads.json").read_text())
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def smoke_run(name: str, out: Path):
    config = run.make_config(WORKLOADS[name], seed=0, smoke=True)
    ref = oracles.reference(config)
    code = cli.run(config, out)
    expect(code == 0, f"{name}: smoke run exits 0")
    expect(oracles.check(config, ref, out) == [], f"{name}: oracle accepts a real run")
    return config, ref


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_oracles(work: Path) -> None:
    out = work / "eigen"
    config, ref = smoke_run("eigen2d-ens", out)

    def perturb(rows):
        rows[-1][1] = "%.17g" % (float(rows[-1][1]) * (1 + 1e-6))
        rows[-1][3] = "%.17g" % abs(float(rows[-1][1]))

    rewrite_csv(out / "eigenvalues.csv", perturb)
    expect(oracles.check(config, ref, out) != [], "eigen: oracle rejects a perturbed eigenvalue")

    out = work / "rk4"
    config, ref = smoke_run("rk4-wave1d", out)
    lines = (out / "trajectory.csv").read_text().splitlines(keepends=True)
    (out / "trajectory.csv").write_text("".join(lines[:-10]))
    expect(oracles.check(config, ref, out) != [], "rk4: oracle rejects a truncated trajectory.csv")

    out = work / "sweep"
    config, ref = smoke_run("sweep1d-patches", out)
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["slopes"][0] += 1.0
    summary_path.write_text(json.dumps(summary))
    expect(oracles.check(config, ref, out) != [], "sweep: oracle rejects a slope that is not the fit")

    config, ref = smoke_run("sweep1d-patches", out)

    def flatten(rows):
        for row in rows[1:]:
            row[1] = "%.17g" % (float(row[1]) * int(row[0]))

    rewrite_csv(out / "sweep.csv", flatten)
    with open(out / "sweep.csv", newline="") as fh:
        body = list(csv.reader(fh))[1:]
    logs = np.log([[int(r[0]), float(r[1])] for r in body])
    summary = json.loads(summary_path.read_text())
    summary["slopes"][0] = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    summary_path.write_text(json.dumps(summary))
    expect(oracles.check(config, ref, out) != [],
           "sweep: oracle rejects a consistent slope far from -2P")


def traced_metrics(name: str, out: Path) -> dict:
    config = run.make_config(WORKLOADS[name], seed=0, smoke=True)
    cli.run(config, out)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run(cli.run, config, out)
    finally:
        tracer.uninstall()
    expect(tracer.missing == [], f"{name}: every wrapped name exists")
    return spans.layer_metrics(tracer.spans)


def test_tracing(work: Path) -> None:
    for name in WORKLOADS:
        m = traced_metrics(name, work / name)
        total = sum(m[k] for k in spans.PARTITION)
        expect(abs(total - m["trace.run_s"]) <= 1e-9 * m["trace.run_s"],
               f"{name}: self times add up to trace.run_s")
        uses_spectra = name != "rk4-wave1d"
        expect((m["spectra.self_s"] > 0) == uses_spectra, f"{name}: spectra time where expected")
        expect((m["timestep.integrate_s"] > 0) == (not uses_spectra),
               f"{name}: timestep time where expected")


def test_used_fraction() -> None:
    config = run.make_config(WORKLOADS["eigen2d-ens"], seed=0, smoke=True)

    def build_two_use_one():
        oracles.build_operator(config)
        patchtooth.assembly.symmetry_defect(oracles.build_operator(config))

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run(build_two_use_one)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans)
    expect(m["assembly.used_frac"] == 0.5, "an operator never passed on counts as unused")


def test_guard(work: Path) -> None:
    config = run.make_config(WORKLOADS["rk4-wave1d"], seed=0, smoke=True)
    out = work / "guard"
    bogus = {**spans.LAYER_FUNCTIONS, "spectra": ["no_such_function"]}
    bogus.pop("timestep")
    with mock.patch.dict(spans.LAYER_FUNCTIONS, bogus, clear=True):
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.run(cli.run, config, out)
        finally:
            tracer.uninstall()
    _, reached = spans.reached_layers(cli.run, config, out)
    expect(tracer.missing == ["spectra.no_such_function"], "guard names a missing function")
    expect(reached - spans.spanned_layers(tracer.spans) == {"timestep"},
           "guard names a layer reached without a span")


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_smoke() -> None:
    for trace in ("0", "1"):
        done = bench(["bench/run.py", "--workload", "all", "--smoke", "--seconds", "1",
                      "--trace", trace], run.ROOT)
        last = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
        expect(done.returncode == 0 and last.get("correct") is True
               and last.get("failed") == 0, f"smoke benchmark passes with --trace {trace}")


def test_refusal(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = bench(["bench/run.py", "--workload", "eigen2d-ens", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], bare)
    expect(done.returncode != 0 and done.stdout.strip() == "",
           "refuses without a result next to no program")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        test_oracles(work)
        test_tracing(work)
        test_used_fraction()
        test_guard(work)
        test_refusal(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    test_smoke()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
