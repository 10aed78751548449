"""Byte-compare the outputs of the benchmark operations between two checkouts.

Usage:

    python3 tools/diff_outputs.py OLD_ROOT NEW_ROOT --workload dv-schmidt --seeds 1:3 --cycles 3

Each root is a checkout holding ``src/ebench`` and ``perfbench/ops.py``.  For
every seed in the inclusive range ``a:b`` and every cycle ``0 .. n-1`` the
tool builds the cycle's operations as ``perfbench/worker.py`` does, from
``numpy.random.default_rng([seed, cycle])``, and runs them in order, once per
tree, each tree in a fresh interpreter with ``src`` of that tree on the path,
BLAS on one thread and the ``EBENCH_*`` variables unset.  Per operation it
compares:

* CLI operations: the exit code, stdout with every ``wall_time_s`` value
  masked, and stderr with the directory of the input files masked;
* library operations: the returned value, every float written as
  ``float.hex``;
* either kind: the exception, if the operation raised one.

It prints each differing operation and a total, and exits 1 if any operation
differs, 0 if none does.  The two trees run one after the other, so memory
use is that of one benchmark worker.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]+')


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("EBENCH_THREADS", "EBENCH_SEED", "EBENCH_TRACE"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def seed_range(text: str) -> range:
    first, _, last = text.partition(":")
    seeds = range(int(first), int(last) + 1)
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


# ---------------------------------------------------------------------------
# one tree, in its own interpreter
# ---------------------------------------------------------------------------

def canonical(x):
    """JSON-ready form of an operation's value with every float as float.hex."""
    if isinstance(x, float):
        return float.hex(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, complex):
        return [float.hex(x.real), float.hex(x.imag)]
    if isinstance(x, np.generic):
        return canonical(x.item())
    if isinstance(x, np.ndarray):
        return {"dtype": str(x.dtype), "shape": list(x.shape),
                "data": [canonical(v) for v in x.ravel().tolist()]}
    if dataclasses.is_dataclass(x):
        return {"type": type(x).__name__,
                **{f.name: canonical(getattr(x, f.name)) for f in dataclasses.fields(x)}}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    return {"type": type(x).__name__, "repr": repr(x)}


def op_fields(op, inputs: str) -> dict:
    def mask(text: str) -> str:
        return text.replace(inputs, "<inputs>")
    try:
        res = op.call()
    except Exception as exc:                 # noqa: BLE001 - the exception is the output
        return {"raised": mask(f"{type(exc).__name__}: {exc}")}
    # ops.cli_call operations return (exit code, stdout, stderr)
    if (isinstance(res, tuple) and len(res) == 3 and isinstance(res[0], int)
            and isinstance(res[1], str) and isinstance(res[2], str)):
        rc, out, err = res
        return {"exit": rc, "stdout": WALL_TIME.sub(r"\1<masked>", out),
                "stderr": mask(err)}
    return {"value": canonical(res)}


def dump(root: Path, workload: str, seeds: range, cycles: int, out_path: Path) -> int:
    """Run the operations on the ebench of ``root``; write [label, fields] records."""
    sys.path.insert(0, str(root / "perfbench"))
    import ebench as eb
    import ebench.cli  # noqa: F401  (ops call eb.cli.main)
    import ops

    if Path(eb.__file__).resolve().parent != (root / "src" / "ebench").resolve():
        print(f"ebench imported from {eb.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    if workload not in ops.WORKLOADS:
        print(f"{root}: no workload {workload!r}; known: {sorted(ops.WORKLOADS)}",
              file=sys.stderr)
        return 2
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        ctx = ops.FileInputs(Path(tmp))
        for seed in seeds:
            for cycle in range(cycles):
                rng = np.random.default_rng([seed, cycle])
                for op in ops.WORKLOADS[workload](eb, rng, ctx):
                    records.append([f"seed {seed} cycle {cycle}: {op.label}",
                                    op_fields(op, tmp)])
    out_path.write_text(json.dumps(records), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_tree(root: Path, args, out_path: Path) -> list | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(root), str(root),
           "--workload", args.workload, "--seeds", args.seeds,
           "--cycles", str(args.cycles), "--out", str(out_path)]
    proc = subprocess.run(cmd, env=child_env(root), cwd=root)
    if proc.returncode != 0:
        print(f"{root}: run failed with exit {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out_path.read_text(encoding="utf-8"))


def compare(old: list, new: list) -> int:
    differ = 0
    if len(old) != len(new):
        print(f"DIFF op count: {len(old)} old, {len(new)} new")
        differ += 1
    for (label_old, f_old), (label_new, f_new) in zip(old, new):
        if label_old != label_new:
            print(f"DIFF op label: {label_old!r} old, {label_new!r} new")
            differ += 1
            continue
        keys = [k for k in sorted(set(f_old) | set(f_new)) if f_old.get(k) != f_new.get(k)]
        if keys:
            print(f"DIFF {label_new}: {', '.join(keys)}")
            differ += 1
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range FIRST:LAST")
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        seeds = seed_range(args.seeds)
    except ValueError:
        ap.error(f"--seeds expects FIRST:LAST with FIRST <= LAST, got {args.seeds!r}")
    if args.cycles < 1:
        ap.error("--cycles must be >= 1")
    if args.dump:
        return dump(args.old_root.resolve(), args.workload, seeds, args.cycles, args.out)
    roots = [args.old_root.resolve(), args.new_root.resolve()]
    for root in roots:
        if not (root / "perfbench" / "ops.py").is_file() or not (root / "src" / "ebench").is_dir():
            ap.error(f"{root} holds no src/ebench and perfbench/ops.py")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for root, side in zip(roots, ("old", "new")):
            results.append(run_tree(root, args, Path(tmp) / f"{side}.json"))
            if results[-1] is None:
                return 2
    differ = compare(*results)
    print(f"{args.workload} seeds {args.seeds} x {args.cycles} cycles: "
          f"{len(results[1])} ops, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
