"""Child process of the benchmark: warm in-process runs of `patchtooth.cli.run`.

Usage: python3 bench/worker.py JOB.json

The job file names the config and two output directories: the worker's own
and the one the parent's fresh CLI processes write.  The worker imports
patchtooth, computes the oracle reference, makes one warm-up run that records
which patchtooth modules it entered, replies with one JSON line, and then
serves one command per line of standard input, each answered by one JSON line:

    plain   one untraced run: wall and process CPU seconds, problems found
    traced  the same under spans.Tracer, plus the artefact bytes written
    check   the problems in the CLI output directory
    finish  the wrapped names that were missing and every recorded span

Every run starts from an empty output directory, and its artefacts are
checked by the oracles after the clock stops.  Anything the program prints
to standard output is sent to standard error, which keeps the replies intact.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import oracles
import spans


def main(job_path: str) -> None:
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def reply(payload: dict) -> None:
        replies.write(json.dumps(payload) + "\n")
        replies.flush()

    job = json.loads(Path(job_path).read_text())
    config = json.loads(Path(job["config"]).read_text())
    out = Path(job["out"])

    import patchtooth.cli as cli

    ref = oracles.reference(config)

    def report(problems: list[str]) -> list[str]:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return problems

    def attempt(call) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = call()
        except Exception:
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = oracles.check(config, ref, out) if code == 0 else [f"exit code {code}"]
        return {"wall": wall, "cpu": cpu, "problems": report(problems)}

    def plain():
        return cli.run(config, out)

    reached = set()

    def recorded():
        code, layers = spans.reached_layers(plain)
        reached.update(layers)
        return code

    warmup = attempt(recorded)
    reply({**warmup, "reached": sorted(reached), "program": cli.__file__})

    tracer = spans.Tracer()
    for line in sys.stdin:
        command = line.strip()
        if command == "plain":
            reply(attempt(plain))
        elif command == "traced":
            tracer.install()
            try:
                traced = attempt(lambda: tracer.run(cli.run, config, out))
            finally:
                tracer.uninstall()
            size = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
            reply({**traced, "run_id": tracer.run_id, "artefact_bytes": size})
        elif command == "check":
            reply({"problems": report(oracles.check(config, ref, job["cli_out"]))})
        elif command == "finish":
            reply({"missing": tracer.missing, "spans": tracer.spans})
            return
        else:
            raise ValueError(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1])
