"""Run the benchmark on two checkouts in alternating order and compare them.

Usage:

    python3 tools/ab_bench.py OLD_ROOT NEW_ROOT --workload cv-fidelity --seeds 1:4

For every seed in the inclusive range ``a:b`` the tool runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` of each tree,
from that tree's root, one run at a time.  The tree that runs first swaps from
one seed to the next (the old tree goes first on the first seed), so a drift of
the machine's speed over a pair does not always favour the same side.  ``N`` is
``run_seconds`` of ``NEW_ROOT/BENCHMARK.json``.

It prints every run as it finishes and then, for each end-to-end metric that
``BENCHMARK.json`` lists, the median and quartiles of each side over the seeds
and the number of pairs (runs of one seed) that the new tree won, in the
direction the metric names as better; ties count for neither side.  With
``--claim METRIC`` it then prints whether the claimed gain on METRIC holds and
a bound verdict for every other metric (see ``verdicts``).  Each run
also shows its failed share (failed ops over attempted ops).  It exits 1 if a
run fails, or if on any seed the new tree reports ``correct: false`` or a
larger failed share than the old tree; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from diff_outputs import seed_range


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run of ``root``: its final JSON line."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs: list[tuple[dict, dict]], spec: dict):
    """(old values, new values, pairs the new tree won, sign) of one metric.

    ``sign`` is +1 when higher is better and -1 when lower is better.
    """
    name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
    old = [o["metrics"][name]["value"] for o, _ in pairs]
    new = [n["metrics"][name]["value"] for _, n in pairs]
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    return old, new, wins, sign


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric from (old, new) run results of the same seeds."""
    lines = []
    for spec in metrics:
        old, new, wins, _ = compare(pairs, spec)
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        lines.append(f"{spec['name']} ({spec['unit']}, {spec['better']} is better): "
                     f"old {o2:.6g} [{o1:.6g}, {o3:.6g}], new {n2:.6g} [{n1:.6g}, {n3:.6g}], "
                     f"ratio {n2 / o2:.4g}, new better in {wins}/{len(pairs)} pairs")
    return lines


def verdicts(pairs: list[tuple[dict, dict]], metrics: list[dict], claim: str) -> list[str]:
    """The verdict on the claimed metric, then one line per other metric.

    The claim holds when the new tree wins at least 9 of every 10 pairs and its
    median beats the old median by more than the old interquartile range.
    Every other metric is ``unresolved`` when the old interquartile range,
    relative to the old median, exceeds the metric's ``bound``, unless every
    new run is better than every old run; otherwise it is ``ok`` when the new
    median is no worse than the old one, and ``worse within bound`` or ``worse
    beyond bound`` by the relative loss of the median.
    """
    lines = []
    for spec in metrics:
        old, new, wins, sign = compare(pairs, spec)
        (o1, o2, o3), n2 = quartiles(old), statistics.median(new)
        name, iqr = spec["name"], o3 - o1
        if name == claim:
            gap = sign * (n2 - o2)
            held = wins * 10 >= 9 * len(pairs) and gap > iqr
            lines.insert(0, f"claim {name}: {'holds' if held else 'does not hold'} "
                            f"(new better in {wins}/{len(pairs)} pairs, median gain "
                            f"{gap:.6g} vs old interquartile range {iqr:.6g})")
            continue
        bound, loss = spec["bound"], -sign * (n2 - o2) / abs(o2)
        separated = min(sign * b for b in new) > max(sign * a for a in old)
        if iqr / abs(o2) > bound and not separated:
            verdict = "unresolved"
        elif loss <= 0:
            verdict = "ok"
        else:
            verdict = "worse within bound" if loss <= bound else "worse beyond bound"
        lines.append(f"{name}: {verdict} (median loss {max(loss, 0.0):.4g}, "
                     f"old spread {iqr / abs(o2):.4g}, bound {bound:g})")
    return lines


def failed_share(res: dict) -> float:
    return res["failed"] / res["attempted"] if res["attempted"] else 0.0


def gate(seeds: list[int], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per seed on which the new tree is incorrect or fails more ops."""
    lines = []
    for seed, (old, new) in zip(seeds, pairs):
        if not new["correct"]:
            lines.append(f"seed {seed}: new tree reports correct: false")
        if failed_share(new) > failed_share(old):
            lines.append(f"seed {seed}: failed share rose from {failed_share(old):.6g} "
                         f"to {failed_share(new):.6g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range FIRST:LAST")
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric the new tree claims to improve")
    args = ap.parse_args(argv)
    try:
        seeds = seed_range(args.seeds)
    except ValueError:
        ap.error(f"--seeds expects FIRST:LAST with FIRST <= LAST, got {args.seeds!r}")
    roots = (args.old_root.resolve(), args.new_root.resolve())
    for root in roots:
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} holds no perfbench/run.py")
    bench = json.loads((roots[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        ap.error(f"--claim expects one of {', '.join(names)}, got {args.claim!r}")

    pairs = []
    for i, seed in enumerate(seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            try:
                pair[side] = run_once(roots[side], args.workload, seed, seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            res = pair[side]
            values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                              for m in bench["end_to_end"])
            print(f"seed {seed} {('old', 'new')[side]}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"failed_share={failed_share(res):.6g} {values}", flush=True)
        pairs.append(tuple(pair))
    print(f"{args.workload}, seeds {args.seeds}, {seconds} s per run, alternating order:")
    for line in summarize(pairs, bench["end_to_end"]):
        print(line)
    if args.claim is not None:
        for line in verdicts(pairs, bench["end_to_end"], args.claim):
            print(line)
    problems = gate(seeds, pairs)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
