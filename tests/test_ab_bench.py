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



SPECS = [{"name": "setup", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1},
         {"name": "tail", "unit": "s", "better": "lower", "bound": 0.25}]


def ten_pairs(setup_new, ops_new, rss_new, tail_old, tail_new=None):
    """Ten pairs; the old tree's setup spreads over [0.36, 0.40] (IQR 0.02)."""
    tail_new = tail_old if tail_new is None else tail_new
    return [(result(setup=0.36 + 0.04 * i / 9, ops=100.0, rss=60.0, tail=tail_old[i]),
             result(setup=setup_new[i], ops=ops_new, rss=rss_new, tail=tail_new[i]))
            for i in range(10)]


def test_claim_holds_with_nine_wins_and_a_gap_beyond_the_old_spread():
    ab = load_ab_bench()
    setup_new = [0.19] * 9 + [0.5]                       # one lost pair
    lines = ab.verdicts(ten_pairs(setup_new, 90.0, 65.0, [1.0] * 10), SPECS, "setup")
    assert lines[0].startswith("claim setup: holds (new better in 9/10 pairs")
    assert lines[1].startswith("ops: worse within bound (median loss 0.1,")
    assert lines[2].startswith("rss: worse within bound")
    assert lines[3].startswith("tail: ok (median loss 0,")


def test_claim_fails_on_eight_wins_or_a_gap_inside_the_old_spread():
    ab = load_ab_bench()
    eight = ab.verdicts(ten_pairs([0.19] * 8 + [0.5] * 2, 100.0, 60.0, [1.0] * 10),
                        SPECS, "setup")
    assert eight[0].startswith("claim setup: does not hold (new better in 8/10 pairs")
    # every pair won, but the median gain (0.01) is inside the old IQR (0.02)
    small = ab.verdicts(ten_pairs([0.35 + 0.04 * i / 9 for i in range(10)],
                                  100.0, 60.0, [1.0] * 10), SPECS, "setup")
    assert small[0].startswith("claim setup: does not hold (new better in 10/10 pairs")


def test_bound_verdicts_beyond_bound_and_unresolved():
    ab = load_ab_bench()
    wide_tail = [0.5, 1.5] * 5                           # old spread 1.0 of median 1.0
    lines = ab.verdicts(ten_pairs([0.19] * 10, 70.0, 67.0, wide_tail), SPECS, "setup")
    assert lines[1].startswith("ops: worse beyond bound (median loss 0.3,")
    assert lines[2].startswith("rss: worse beyond bound")
    assert lines[3].startswith("tail: unresolved")
    # the same old spread, but every new run beats every old run
    lines = ab.verdicts(ten_pairs([0.19] * 10, 70.0, 67.0, wide_tail, [0.4] * 10),
                        SPECS, "setup")
    assert lines[3].startswith("tail: ok")
