"""One workload in one fresh process: a single closed-loop client.

Started by run.py with BLAS pinned to one thread and ``src`` on the path.
Runs whole cycles of checked operations (see ops.py) for about ``--seconds``
and prints one JSON object as its last line.  With ``--trace 1`` it runs each
cycle twice, untraced and with every public ebench function wrapped, and
reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ebench as eb
import ebench.cli  # noqa: F401  (ops call eb.cli.main)

import envinfo
import ops as opsmod
from speed import SpeedTracker
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# op_s.tail is this percentile on every run of a workload, so runs and commits
# compare like with like.  Each is the highest of p99.9/p99/p95/p90/p75/p50
# that the run length allows, and an untraced run repeats cycles until at
# least ten samples lie beyond it.
TAIL_PCT = {"cv-fidelity": 75.0, "choi-oracle": 75.0, "dv-schmidt": 99.0}
CUTOFFS = (12, 20, 30, 40, 60)
GRIDS = (32, 64, 128)


@dataclass
class Sample:
    label: str
    start: float
    seconds: float
    cutoff: int | None
    grid: int | None


@dataclass
class Phase:
    samples: list = field(default_factory=list)
    busy: list = field(default_factory=list)     # (start, seconds) of every op
    wall_s: float = 0.0
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    known: Counter = field(default_factory=Counter)
    budget_checked: int = 0
    budget_missed: int = 0


def run_op(op, phase: Phase):
    phase.attempted += 1
    error = None
    t0 = perf_counter()
    try:
        out = op.call()
    except Exception:                        # noqa: BLE001 - an unexpected exception fails the op
        error = traceback.format_exc(limit=3)
    dt = perf_counter() - t0
    if error is None:
        try:
            outcome = op.check(out)
        except opsmod.CheckFailed as exc:
            error = str(exc)
        except Exception:                    # noqa: BLE001 - a malformed output fails the op
            error = traceback.format_exc(limit=3)
    phase.busy.append((t0, perf_counter() - t0))
    if error is not None:
        phase.failed += 1
        if op.known_defect:
            phase.known[op.known_defect] += 1
        else:
            phase.unexpected.append(f"{op.label}: {error}")
        return
    phase.samples.append(Sample(op.label, t0, dt, op.cutoff, op.grid))
    if outcome.budget_miss is not None:
        phase.budget_checked += 1
        phase.budget_missed += int(outcome.budget_miss)


def run_cycle(cycle_fn, seed, ctx, phase: Phase, tracer: Tracer | None = None,
              speed: SpeedTracker | None = None):
    t0, probe_s = perf_counter(), 0.0
    if tracer is not None:
        tracer.op = -1                   # spans made while generating the cycle
    for op in cycle_fn(eb, np.random.default_rng([seed, phase.cycles]), ctx):
        if speed is not None:
            probe_s += speed.tick()
        if tracer is None:
            run_op(op, phase)
        else:
            tracer.op = phase.attempted
            with tracer.span("bench.op"):
                run_op(op, phase)
    phase.cycles += 1
    phase.wall_s += perf_counter() - t0 - probe_s


def run_traced_cycle(cycle_fn, seed, ctx, phase: Phase, tracer: Tracer):
    tracer.install()
    try:
        run_cycle(cycle_fn, seed, ctx, phase, tracer)
    finally:
        tracer.uninstall()


def run_cycles(cycle_fn, seed, ctx, budget_s, min_samples=0, tracer=None):
    """Whole cycles until the cycle boundary nearest ``budget_s``.

    Untraced cycles are interleaved with speed probes.  With a tracer each
    cycle runs twice, untraced and traced, in alternating order, so machine
    speed drift and warm-up fall on both alike and their wall times give the
    overhead.
    """
    plain, traced, speed = Phase(), Phase(), SpeedTracker()
    t0 = perf_counter()
    while True:
        if tracer is not None and plain.cycles % 2:
            run_traced_cycle(cycle_fn, seed, ctx, traced, tracer)
        run_cycle(cycle_fn, seed, ctx, plain, speed=speed)
        if tracer is not None and traced.cycles < plain.cycles:
            run_traced_cycle(cycle_fn, seed, ctx, traced, tracer)
        elapsed = perf_counter() - t0
        if (len(plain.samples) >= min_samples
                and elapsed + 0.5 * elapsed / plain.cycles >= budget_s):
            return plain, traced, speed


def min_samples(pct):
    return math.ceil(10 / (1.0 - pct / 100.0) - 1e-9)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def scaled_seconds(phase: Phase, speed: SpeedTracker):
    """Each op's time scaled to the reference speed around it (see speed.py)."""
    return [s.seconds * speed.scale_at(s.start, s.seconds) for s in phase.samples]


def end_to_end(phase: Phase, pct, speed: SpeedTracker):
    raw = [s.seconds for s in phase.samples]
    secs = scaled_seconds(phase, speed)
    busy = sum(b for _, b in phase.busy)
    wall_scale = sum(b * speed.scale_at(t, b) for t, b in phase.busy) / busy
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    notes = [f"ops {len(secs)} in {phase.cycles} cycles, {phase.wall_s:.2f} s; "
             f"op_s.tail is p{pct:g}",
             f"unscaled: op_s.p50 {np.median(raw):.6g} s, op_s.tail "
             f"{np.percentile(raw, pct):.6g} s, throughput_ops_s "
             f"{phase.attempted / phase.wall_s:.6g} 1/s; mean speed scale {wall_scale:.4f}"]
    return {
        "op_s.p50": metric(np.median(secs), "s"),
        "op_s.tail": metric(np.percentile(secs, pct), "s"),
        "throughput_ops_s": metric(phase.attempted / (phase.wall_s * wall_scale), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }, notes


def scale_buckets(phase: Phase, speed: SpeedTracker):
    secs = scaled_seconds(phase, speed)
    out = {}
    for key, values in (("c", CUTOFFS), ("g", GRIDS)):
        for v in values:
            bucket = [t for s, t in zip(phase.samples, secs)
                      if (s.cutoff if key == "c" else s.grid) == v]
            out[f"scale.{key}{v}.op_s.p50"] = metric(np.median(bucket) if bucket else 0.0, "s")
    return out


def ratios(phase: Phase):
    return {
        "fail_ratio": metric(phase.failed / phase.attempted, "ratio"),
        "budget_miss_ratio": metric(phase.budget_missed / max(phase.budget_checked, 1), "ratio"),
        "budget_checked": metric(phase.budget_checked, "count"),
    }


def per_layer(tr: Tracer, plain: Phase, traced: Phase, pct, speed: SpeedTracker):
    c = tr.counts

    def calls(name):
        return metric(tr.calls.get(name, 0), "count")

    def self_s(name):
        return metric(tr.self_s(name), "s")

    def ratio(num, den):
        return metric(c[num] / c[den] if c[den] else 0.0, "ratio")

    m = {
        "fock.coherent_ket.calls": calls("fock.coherent_ket"),
        "fock.coherent_ket.self_s": self_s("fock.coherent_ket"),
        "quadrature.grid.calls": calls("quadrature.grid"),
        "quadrature.grid.self_s": self_s("quadrature.grid"),
        "quadrature.grid.nodes": metric(c["quadrature.grid.nodes"], "count"),
        "channels.build_channel.self_s": self_s("channels.build_channel"),
        "channels.heterodyne_mp.calls": calls("channels.heterodyne_mp"),
        "channels.heterodyne_mp.self_s": self_s("channels.heterodyne_mp"),
        "channels.heterodyne_mp.kept_ratio": ratio("channels.heterodyne_mp.kept",
                                                   "channels.heterodyne_mp.nodes"),
        "channels.transfer.calls": calls("channels.transfer"),
        "channels.transfer.self_s": self_s("channels.transfer"),
        "channels.transfer.tmp_mb": metric(c["channels.transfer.tmp_mb"], "MB"),
        "channels.apply.calls": calls("channels.apply"),
        "channels.apply.self_s": self_s("channels.apply"),
        "channels.choi_state.calls": calls("channels.choi_state"),
        "channels.choi_state.self_s": self_s("channels.choi_state"),
        "channels.choi_state.J_mb": metric(c["channels.choi_state.J_mb"], "MB"),
        "channels.povm_closure_defect.self_s": self_s("channels.povm_closure_defect"),
        "witness.ensemble_from_state.calls": calls("witness.ensemble_from_state"),
        "witness.ensemble_from_state.self_s": self_s("witness.ensemble_from_state"),
        "witness.ensemble.kept_ratio": ratio("witness.ensemble.kept", "witness.ensemble.nodes"),
        "witness.eb_value.self_s": self_s("witness.eb_value"),
        "witness.pairs_evaluator.self_s": self_s("witness.pairs_evaluator"),
        "witness.choi_witness_expectation.calls": calls("witness.choi_witness_expectation"),
        "witness.choi_witness_expectation.self_s": self_s("witness.choi_witness_expectation"),
        "witness.choi_witness_expectation.gflop":
            metric(c["witness.choi_witness_expectation.gflop"], "GFLOP"),
        "witness.errors": metric(c["witness.errors"], "count"),
        "cv.gaussian_coherent_ensemble.self_s": self_s("cv.gaussian_coherent_ensemble"),
        "cv.fidelity_benchmark.self_s": self_s("cv.fidelity_benchmark"),
        "dv.schmidt_benchmark.calls": calls("dv.schmidt_benchmark"),
        "dv.schmidt_benchmark.self_s": self_s("dv.schmidt_benchmark"),
        "dv.gen_pauli.calls": calls("dv.gen_pauli"),
        "dv.gen_pauli.self_s": self_s("dv.gen_pauli"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.run.self_s": self_s("cli.run"),
    }
    layers = 0.0
    for layer in LAYERS:
        s = tr.layer_self_s(layer)
        layers += s
        m[f"layer.{layer}.self_s"] = metric(s, "s")
    bench = tr.self_s("bench.op")
    m["bench.self_s"] = metric(bench, "s")
    m["trace.wall_s"] = metric(traced.wall_s, "s")
    m["trace.accounted_ratio"] = metric((layers + bench) / traced.wall_s, "ratio")
    m["trace.overhead_ratio"] = metric(traced.wall_s / plain.wall_s, "ratio")
    m["trace.ops"] = metric(traced.attempted, "count")
    m["trace.spans"] = metric(len(tr.spans), "count")
    m["op_s.tail.pct"] = metric(pct, "percentile")
    m.update(scale_buckets(plain, speed))
    m.update(ratios(plain))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(opsmod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if Path(eb.__file__).resolve().parent != src / "ebench":
        print(f"ebench imported from {eb.__file__}, not from {src}", file=sys.stderr)
        return 2
    cycle_fn = opsmod.WORKLOADS[args.workload]
    inputs_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        ctx = opsmod.FileInputs(inputs_dir)
        if args.trace:
            tracer = Tracer(eb)
            plain, traced, speed = run_cycles(cycle_fn, args.seed, ctx, args.seconds,
                                              tracer=tracer)
            tracer.write(OUT / f"spans-{args.workload}.csv")
            metrics = per_layer(tracer, plain, traced, TAIL_PCT[args.workload], speed)
            phases = (plain, traced)
            notes = [f"traced {traced.attempted} ops in {traced.wall_s:.2f} s "
                     f"({len(tracer.spans)} spans, written to perfbench/out/spans-"
                     f"{args.workload}.csv); untraced {plain.wall_s:.2f} s",
                     "computed from array shapes (ignores cache misses): "
                     + ", ".join(f"{k} = {metrics[k]['value']:.6g} {metrics[k]['unit']}"
                                 for k in ("channels.transfer.tmp_mb",
                                           "channels.choi_state.J_mb",
                                           "witness.choi_witness_expectation.gflop"))]
        else:
            pct = TAIL_PCT[args.workload]
            plain, _, speed = run_cycles(cycle_fn, args.seed, ctx, args.seconds,
                                         min_samples=min_samples(pct))
            metrics, notes = end_to_end(plain, pct, speed)
            phases = (plain,)
            r = ratios(plain)
            notes.append(f"fail_ratio {r['fail_ratio']['value']:.6g}, budget_miss_ratio "
                         f"{r['budget_miss_ratio']['value']:.6g} of "
                         f"{plain.budget_checked} checked ops")
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    unexpected = [u for p in phases for u in p.unexpected]
    for k, v in sum((p.known for p in phases), Counter()).items():
        notes.append(f"known defect, {v} ops failed: {k}")
    for u in unexpected[:10]:
        notes.append(f"FAILED {u}")
    for s in opsmod.SKIPPED[args.workload]:
        notes.append(f"skipped {s.case}: {s.bytes:.3g} B; {s.reason}")
    env = envinfo.collect(args.seed)
    notes.append("env " + json.dumps(env, sort_keys=True))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "notes": notes,
              "skipped": [vars(s) for s in opsmod.SKIPPED[args.workload]],
              "samples": [[s.label, s.seconds] for s in plain.samples]}
    (OUT / f"report-{args.workload}-{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    for line in notes:
        print(line)
    result = {"correct": not unexpected,
              "attempted": sum(p.attempted for p in phases),
              "failed": sum(p.failed for p in phases),
              "metrics": metrics}
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
