"""ebench benchmark: three workloads, checked results, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cv-fidelity --seed 1 --seconds 25 --trace 0

Workloads are defined in ops.py.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics (op_s.p50, op_s.tail,
throughput_ops_s, setup_s, peak_rss_mb); with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The workload runs in a fresh worker
process with BLAS pinned to one thread and EBENCH_THREADS unset; ebench is
imported from ``src`` of this checkout, nothing is installed.  Files go to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from ops import WORKLOADS
from speed import PROBE_REF_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
PROBE = ("import sys, ebench, ebench.cli\n"
         "sys.stdout.write('ready\\n')\n"
         "sys.stdout.flush()\n")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("EBENCH_THREADS", "EBENCH_SEED", "EBENCH_TRACE"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(env) -> float:
    """Median time for a fresh interpreter to import ebench and ebench.cli.

    Each start is scaled to the reference speed by a probe taken just before it.
    """
    times, probes = [], []
    probe()                              # the interpreter specialises the loop on first use
    for _ in range(SETUP_RUNS):
        probes.append(probe())
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return statistics.median(t * PROBE_REF_S / p for t, p in zip(times, probes))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "ebench" / "__init__.py").is_file():
        print(f"no ebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated launcher raises SystemExit, so subprocess kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    metrics = {}
    if not args.trace:
        try:
            metrics["setup_s"] = {"value": setup_seconds(env), "unit": "s"}
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=165)
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if "setup_s" in metrics:
        print(f"setup_s: median of {SETUP_RUNS} fresh imports of ebench and ebench.cli")
    result["metrics"].update(metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
