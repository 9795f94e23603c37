"""orthocd benchmark: one run of one workload.

    python3 perfbench/run.py --workload desk-gs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Starts worker.py in a fresh process
that drives orthocd through `cli.main` and `optim.srcd_step` /
`optim.srgd_step`, checks the outputs, and reports; with --trace 0 also
times set-up in SETUP_SAMPLES fresh processes.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  Lines
before it give the raw figures, the host-speed kernels, the BLAS thread
counts and the machine.  Exits non-zero, printing no result, when the
worker fails or the orthocd sources are missing.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7      # set-up timings per run: 6 set-up-only processes + the worker
TIME_LIMIT_S = 170.0   # a run ends within this, or fails


class RunError(Exception):
    pass


def start_until_ready(argv: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not start: {line.strip()!r}, exit {proc.returncode}")
    return elapsed, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker ran past the time limit")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "orthocd" / "__init__.py").is_file():
        print(f"run.py: no orthocd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    try:
        setup = []   # seconds from start to READY
        n_starts = 1 if args.trace else SETUP_SAMPLES
        for k in range(n_starts):
            setup_only = k < n_starts - 1
            elapsed, proc = start_until_ready(
                worker + (["--setup-only"] if setup_only else []), deadline)
            setup.append(elapsed)
            if setup_only:
                finish(proc, deadline)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (RunError, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        # set-up is interpreter-bound and runs in other processes: it is
        # scaled by the worker's median python-kernel slowdown.  (Timing
        # the kernel here, in a process that mostly waits, read the
        # host's wake-up from idle, up to 2x slow.)
        result["raw"]["setup_s"] = statistics.median(setup)
        result["metrics"]["setup_s"] = {
            "value": result["raw"]["setup_s"] / result["host"]["python_slowdown_median"],
            "unit": "s"}
        print(f"set-up samples (s): {json.dumps(setup)}")
    for key in ("machine", "host", "raw"):
        print(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    print(f"rounds: {result['rounds']}")
    print(f"timeline: {json.dumps(result['timeline'])}")
    if "span_file" in result:
        print(f"spans of the first traced round: {result['span_file']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
