"""Benchmark of the patchtooth CLI and library on three fixed workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, seed 0
    python3 bench/run.py --workload all --smoke    # reduced sizes, seconds

NAME is a key of bench/workloads.json.  The seed goes into the lognormal
diffusivity profile of the generated config; the program receives only that
config file.  With --trace 0 the run measures, one child process at a time:

    setup_s      import of patchtooth.cli in fresh interpreters
    cli_s        fresh `python -m patchtooth --config ... --out ...` processes,
                 whose ru_maxrss gives peak_rss_mb
    run_s/cpu_s  warm patchtooth.cli.run calls in one worker process

With --trace 1 it runs untraced and traced calls in one worker and reports
the per-layer metrics of the traced call with the median run_s.  Every run's
artefacts are checked against an oracle computed outside the timed calls.
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MB = 2.0**20

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_CYCLES = 3
SETUP_PROBES_PER_CYCLE = 2
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import patchtooth.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_program() -> None:
    if not (SRC / "patchtooth" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'patchtooth'} is missing")


def make_config(spec: dict, seed: int, smoke: bool) -> dict:
    config = copy.deepcopy(spec["config"])
    if smoke:
        config.update(copy.deepcopy(spec["smoke"]))
    config["profile"]["seed"] = seed % 2**32
    return config


def setup_probe() -> float:
    """Seconds to import patchtooth.cli, measured inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"import patchtooth.cli failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def cli_run(work: Path, worker: "Worker") -> dict:
    """One fresh `python -m patchtooth` process: wall time, peak RSS, problems.

    A child's ru_maxrss starts from the peak RSS of the process that forks
    it, which is why this process imports no numpy and holds no arrays; the
    worker checks the artefacts.
    """
    out = work / "cli-out"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "patchtooth", "--config", str(work / "config.json"),
           "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr.fileno())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    problems = worker.call("check")["problems"] if code == 0 else [f"exit code {code}"]
    return {"wall": wall, "rss_mb": usage.ru_maxrss * 1024 / MB, "problems": problems}


class Worker:
    """A bench/worker.py process that makes warm runs on request."""

    def __init__(self, work: Path):
        job = {"config": str(work / "config.json"), "out": str(work / "worker-out"),
               "cli_out": str(work / "cli-out")}
        (work / "job.json").write_text(json.dumps(job))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(work / "job.json")],
            env=child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.warmup = self._reply()
            if SRC not in Path(self.warmup["program"]).resolve().parents:
                raise BenchError(f"patchtooth imported from {self.warmup['program']}, not {SRC}")
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise BenchError(f"benchmark worker ended with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        """End of input stops the worker; kill it if it does not stop."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cycles(seconds: float, cycle) -> None:
    """Call cycle() at least MIN_CYCLES times, then while `seconds` last."""
    start, last, count = time.perf_counter(), 0.0, 0
    while count < MIN_CYCLES or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        cycle()
        count += 1
        last = time.perf_counter() - begin


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g}, n={n}"


def bench_untraced(name: str, work: Path, seconds: float):
    """Interleave import probes, fresh CLI processes and warm runs over the run."""
    setup, cli, warm = [], [], []
    worker = Worker(work)
    try:
        def cycle():
            setup.extend(setup_probe() for _ in range(SETUP_PROBES_PER_CYCLE))
            cli.append(cli_run(work, worker))
            warm.append(worker.call("plain"))

        cycles(seconds, cycle)
    finally:
        worker.close()
    runs = cli + [worker.warmup] + warm
    failed = sum(1 for r in runs if r["problems"])
    samples = {
        "cli_s": [r["wall"] for r in cli],
        "run_s": [r["wall"] for r in warm],
        "setup_s": setup,
        "cpu_s": [r["cpu"] for r in warm],
        "peak_rss_mb": [r["rss_mb"] for r in cli],
    }
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in samples.items()}
    lines = [f"{name}: {len(runs)} runs attempted, {failed} failed"]
    for key, values in samples.items():
        lines.append(f"  {key:<12} {statistics.median(values):12.6g} {END_TO_END[key]:<3}"
                     f"  median of {len(values)}; {tail(values)}")
    lines.append(f"  {'fail_frac':<12} {failed / len(runs):12.6g} 1    {failed} of {len(runs)} runs")
    return metrics, len(runs), failed, lines


def bench_traced(name: str, work: Path, seconds: float):
    """Alternate untraced and traced warm runs; report the median traced run."""
    plain, traced = [], []
    worker = Worker(work)
    try:
        cycles(seconds, lambda: (plain.append(worker.call("plain")),
                                 traced.append(worker.call("traced"))))
        finish = worker.call("finish")
    finally:
        worker.close()
    runs = [worker.warmup] + plain + traced
    failed = sum(1 for r in runs if r["problems"])
    chosen = sorted(traced, key=lambda r: r["wall"])[(len(traced) - 1) // 2]
    values = spans.layer_metrics([s for s in finish["spans"] if s["run"] == chosen["run_id"]])
    values["cli.artefact_bytes"] = chosen["artefact_bytes"]
    untraced = statistics.median(r["wall"] for r in plain)
    values["trace.overhead_frac"] = (
        statistics.median(r["wall"] for r in traced) - untraced) / untraced
    unspanned = sorted(set(worker.warmup["reached"]) - spans.spanned_layers(finish["spans"]))
    values["trace.missing_names"] = len(finish["missing"])
    values["trace.unspanned_layers"] = len(unspanned)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    partition = sum(values[k] for k in spans.PARTITION)
    lines = [f"{name}: {len(runs)} runs attempted, {failed} failed; per-layer metrics of "
             f"the traced run with the median run_s, of {len(traced)}"]
    lines += [f"  {k:<24} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"  self times sum to {partition:.6g} s of trace.run_s {values['trace.run_s']:.6g} s")
    if finish["missing"]:
        lines.append(f"  WARNING wrapped names no longer exist: {', '.join(finish['missing'])}")
    if unspanned:
        lines.append(f"  WARNING layers reached without a span: {', '.join(unspanned)}")
    return metrics, len(runs), failed, lines


def bench_workload(name: str, spec: dict, args) -> tuple:
    config = make_config(spec, args.seed, args.smoke)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        (work / "config.json").write_text(json.dumps(config, indent=2))
        if args.trace:
            return bench_traced(name, work, args.seconds)
        return bench_untraced(name, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv=None) -> int:
    workloads = json.loads((BENCH / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced workload sizes")
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be a positive number")
    try:
        check_program()
        names = list(workloads) if args.workload == "all" else [args.workload]
        results = {n: bench_workload(n, workloads[n], args) for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for _, _, _, lines in results.values():
        print("\n".join(lines))
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r[0].items()}
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
