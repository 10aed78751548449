"""Compare the outputs of the benchmark operations between two checkouts.

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

By default it compares bytes: it prints each differing operation and a total,
and exits 1 if any operation differs, 0 if none does.  The two trees run one after the other, so memory
use is that of one benchmark worker.

``--values`` compares values instead of bytes.  CLI stdout is parsed as a JSON
record, a JSON list of sweep records or CSV rows; exit codes, key sets,
strings (verdicts included), ints and stderr must match exactly, and each float
may move by at most ``VALUE_FRACTION`` of its record's old ``error_estimate``.
A record without one and unparsable stdout must match exactly.  In a library
value, each float of a ``ConsistencyReport`` may move by at most
``VALUE_FRACTION`` of the report's old ``tolerance``; its keys, its
``tolerance`` and whether it passes must not change, and every other library
value must match exactly.  Per operation the tool prints the largest |delta|
and the largest |delta| / ``error_estimate`` (or / ``tolerance``).

``--expect FILE`` declares intended changes, in either mode.  FILE holds a JSON
list of entries ``{"op": PATTERN, "fields": {FIELD: {"old": V, "new": V}},
"reason": TEXT}``: PATTERN is an ``fnmatch`` pattern on the operation label
(``seed S cycle C: LABEL``), FIELD one of ``exit``, ``stdout``, ``stderr``,
``value`` or ``raised``, and ``"*"`` stands for any value.  A declared field
must hold its old value in the old tree and its new value in the new one, and
is then left out of the comparison.  An entry that matches no operation fails
the run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fnmatch
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]+')
# a float may move by this fraction of its record's old error_estimate, or of
# its ConsistencyReport's old tolerance (--values)
VALUE_FRACTION = 0.01
FIELDS = ("exit", "stdout", "stderr", "value", "raised")


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
        return {"exit": rc, "stdout": WALL_TIME.sub(r'\1"<masked>"', out),
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


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_records(stdout: str) -> list[dict] | None:
    """CLI stdout as records: a JSON object, a JSON list of objects or CSV rows."""
    try:
        data = json.loads(stdout)
    except ValueError:
        data = None
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list) and data and all(isinstance(r, dict) for r in data):
        return data
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows):
        return [dict(zip(rows[0], map(_cell, r))) for r in rows[1:]]
    return None


def error_estimate(record: dict) -> float:
    """The record's error_estimate (top level or under results), else 0."""
    for where in (record, record.get("results")):
        if isinstance(where, dict) and isinstance(where.get("error_estimate"), float):
            return where["error_estimate"]
    return 0.0


def diff_values(old, new, tol: float, path: str, problems: list) -> float:
    """Append each mismatch beyond tol to problems; return the largest float |delta|."""
    if isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        delta = abs(new - old)
        if not delta <= tol:
            problems.append(f"{path} {old!r} -> {new!r}")
        return delta
    if isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            problems.append(f"{path} keys {sorted(set(old) ^ set(new))}")
            return 0.0
        return max((diff_values(old[k], new[k], tol, f"{path}.{k}", problems)
                    for k in sorted(old)), default=0.0)
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max((diff_values(a, b, tol, f"{path}[{i}]", problems)
                    for i, (a, b) in enumerate(zip(old, new))), default=0.0)
    if type(old) is not type(new) or old != new:
        problems.append(f"{path} {old!r} -> {new!r}")
    return 0.0


def diff_stdout(old: str, new: str, problems: list) -> tuple[float, float]:
    """(largest |delta|, largest |delta| / error_estimate) between two stdouts."""
    recs_old, recs_new = parse_records(old), parse_records(new)
    if recs_old is None or recs_new is None or len(recs_old) != len(recs_new):
        if old != new:
            problems.append("stdout")
        return 0.0, 0.0
    top = ratio = 0.0
    for i, (a, b) in enumerate(zip(recs_old, recs_new)):
        err = error_estimate(a)
        delta = diff_values(a, b, VALUE_FRACTION * err, f"stdout[{i}]", problems)
        top = max(top, delta)
        if delta:
            ratio = max(ratio, delta / err if err > 0 else math.inf)
    return top, ratio


def diff_library(old, new, problems: list, path: str = "value") -> tuple[float, float]:
    """(largest |delta|, largest |delta| / tolerance) over the ConsistencyReports
    in two canonical library values; anything else must match exactly."""
    report = "ConsistencyReport"
    if isinstance(old, dict) and isinstance(new, dict) and old.get("type") == report:
        if new.get("type") != report or set(old) != set(new) or old["tolerance"] != new["tolerance"]:
            problems.append(f"{path} {old!r} -> {new!r}")
            return 0.0, 0.0
        a, b = ({k: float.fromhex(v) for k, v in rec.items() if k != "type"} for rec in (old, new))
        tol = a["tolerance"]
        if (a["gap"] <= tol) != (b["gap"] <= tol):
            problems.append(f"{path}.passed {a['gap'] <= tol} -> {b['gap'] <= tol}")
        delta = diff_values(a, b, VALUE_FRACTION * tol, path, problems)
        return delta, (delta / tol if tol > 0 else math.inf) if delta else 0.0
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        items = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(old, new))]
    elif isinstance(old, dict) and isinstance(new, dict) and set(old) == set(new):
        items = [(f"{path}.{k}", old[k], new[k]) for k in sorted(old)]
    else:
        if old != new:
            problems.append(f"{path} {old!r} -> {new!r}")
        return 0.0, 0.0
    found = [diff_library(x, y, problems, where) for where, x, y in items]
    return max((d for d, _ in found), default=0.0), max((r for _, r in found), default=0.0)


def load_expect(path: Path) -> list[dict]:
    """The declared changes of an --expect file; ValueError if malformed."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError("an --expect file holds a JSON list of entries")
    for i, e in enumerate(entries):
        fields = e.get("fields") if isinstance(e, dict) else None
        if (not isinstance(fields, dict) or not fields or not isinstance(e.get("op"), str)
                or not isinstance(e.get("reason"), str) or not e["reason"].strip()
                or any(f not in FIELDS or not isinstance(v, dict) or set(v) != {"old", "new"}
                       for f, v in fields.items())):
            raise ValueError(f"entry {i}: need op, reason and fields "
                             f"{{FIELD: {{old, new}}}} with FIELD in {FIELDS}")
    return entries


def _declared(want, got) -> bool:
    return want == "*" or want == got


def compare(old: list, new: list, values: bool = False, expect: list = (),
            title: str = "") -> int:
    """Print each failing operation and a total; return the number that fail."""
    failed = differ = 0
    used = [0] * len(expect)
    top = 0.0
    ratios = {"error_estimate": 0.0, "tolerance": 0.0}
    if len(old) != len(new):
        print(f"DIFF op count: {len(old)} old, {len(new)} new")
        failed += 1
    for (label_old, f_old), (label, f_new) in zip(old, new):
        if label_old != label:
            print(f"DIFF op label: {label_old!r} old, {label!r} new")
            failed += 1
            continue
        problems = []
        declared = set()
        for i, entry in enumerate(expect):
            if not fnmatch.fnmatchcase(label, entry["op"]):
                continue
            used[i] += 1
            for field, want in entry["fields"].items():
                declared.add(field)
                got = (f_old.get(field), f_new.get(field))
                if not (_declared(want["old"], got[0]) and _declared(want["new"], got[1])):
                    problems.append(f"declared {field} {want['old']!r} -> {want['new']!r}, "
                                    f"got {got[0]!r} -> {got[1]!r}")
        changed = [k for k in sorted(set(f_old) | set(f_new)) if f_old.get(k) != f_new.get(k)]
        differ += bool(changed)
        bits = [k for k in changed if k not in declared]
        op_top = op_ratio = 0.0
        scale = "error_estimate"
        for k in bits:
            if values and k == "stdout" and "stdout" in f_old and "stdout" in f_new:
                op_top, op_ratio = diff_stdout(f_old[k], f_new[k], problems)
            elif values and k == "value" and "value" in f_old and "value" in f_new:
                op_top, op_ratio = diff_library(f_old[k], f_new[k], problems)
                scale = "tolerance"
            else:
                problems.append(k)
        top = max(top, op_top)
        ratios[scale] = max(ratios[scale], op_ratio)
        if problems:
            print(f"DIFF {label}: {'; '.join(problems)}")
            failed += 1
        elif op_top:
            print(f"VALUES {label}: max |delta| {op_top:.3g}, "
                  f"max |delta|/{scale} {op_ratio:.3g}")
    for entry, n in zip(expect, used):
        if not n:
            print(f"STALE expect entry {entry['op']!r}: matches no operation")
            failed += 1
    mode = ("values: " + ", ".join([f"largest |delta| {top:.3g}"] + [
        f"largest |delta|/{k} {v:.3g}" for k, v in ratios.items()]) if values else "bytes")
    print(f"{title}{len(new)} ops, {differ} differ, {failed} fail ({mode})")
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range FIRST:LAST")
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--values", action="store_true",
                    help="compare parsed values within 1%% of each error_estimate "
                         "(or ConsistencyReport tolerance)")
    ap.add_argument("--expect", type=Path, help="JSON list of declared changes")
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
    try:
        expect = load_expect(args.expect) if args.expect else []
    except (OSError, ValueError) as exc:
        ap.error(f"--expect {args.expect}: {exc}")
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
    title = f"{args.workload} seeds {args.seeds} x {args.cycles} cycles: "
    return 1 if compare(*results, values=args.values, expect=expect, title=title) else 0


if __name__ == "__main__":
    sys.exit(main())
