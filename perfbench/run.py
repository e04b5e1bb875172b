"""Benchmark launcher for curvact.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs each workload in a fresh Python process (``bench.py``) with the BLAS
thread count pinned here, before numpy loads, so every commit is measured
with the same value; the installed OpenBLAS is threaded and would otherwise
pick its own.  The last line of standard output is one JSON result.  With
``--workload all`` the three workloads run one after another and the last
line merges them, metric names prefixed by workload.

Exits non-zero without a result when the library sources are missing or a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "robust_eval", "hessian")
BLAS_THREADS = "1"
WORKLOAD_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(name: str, args) -> dict | None:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own session, so a timeout can stop the worker and its set-up children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: workload {name} exceeded {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvact benchmark launcher")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curvact" / "__init__.py").is_file():
        print(f"error: no curvact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
