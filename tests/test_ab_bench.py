"""tools/ab_bench.py: the per-metric summary of alternating benchmark pairs."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_ab_bench():
    sys.path.insert(0, str(TOOLS))           # ab_bench imports diff_outputs
    try:
        spec = importlib.util.spec_from_file_location("ab_bench", TOOLS / "ab_bench.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(TOOLS))
    return mod


def result(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}}


def test_summary_quartiles_and_wins_in_the_better_direction():
    ab = load_ab_bench()
    specs = [{"name": "ops", "unit": "1/s", "better": "higher"},
             {"name": "p50", "unit": "s", "better": "lower"}]
    pairs = [(result(ops=1.0, p50=2.0), result(ops=2.0, p50=1.0)),
             (result(ops=1.0, p50=1.0), result(ops=1.0, p50=1.0)),    # a tie
             (result(ops=3.0, p50=1.0), result(ops=2.0, p50=3.0))]
    ops_line, p50_line = ab.summarize(pairs, specs)
    assert "old 1 [1, 2], new 2 [1.5, 2], ratio 2," in ops_line
    assert ops_line.endswith("new better in 1/3 pairs")
    assert "old 1 [1, 1.5], new 1 [1, 2]" in p50_line
    assert p50_line.endswith("new better in 1/3 pairs")


def test_gate_flags_incorrect_runs_and_a_larger_failed_share():
    ab = load_ab_bench()
    ok = {"correct": True, "failed": 1, "attempted": 70}
    pairs = [(ok, ok),
             (ok, {"correct": False, "failed": 1, "attempted": 70}),
             (ok, {"correct": True, "failed": 2, "attempted": 70}),
             (ok, {"correct": True, "failed": 1, "attempted": 80})]    # smaller share
    assert ab.gate([1, 2, 3, 4], pairs) == [
        "seed 2: new tree reports correct: false",
        "seed 3: failed share rose from 0.0142857 to 0.0285714"]
