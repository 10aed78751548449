"""tools/diff_outputs.py: byte and value comparison of recorded operation outputs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_diff_outputs():
    spec = importlib.util.spec_from_file_location("diff_outputs", TOOLS / "diff_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


DO = load_diff_outputs()


def cv_stdout(f_avg=0.81234567891, verdict="violated", err=1.2e-5, extra=None):
    """A masked `ebench cv` report as op_fields records it."""
    results = {"F_avg": f_avg, "P_s": 1.0, "margin": 0.7 - f_avg, "error_estimate": err,
               "grid": {"angular": 32, "radial": 32, "kind": "gauss_laguerre"}}
    results.update(extra or {})
    rec = {"config": {"channel": "loss:0.5", "cutoff": 20}, "results": results,
           "provenance": {"wall_time_s": 0.0123}, "verdict": verdict, "notes": ["n"]}
    return DO.WALL_TIME.sub(r'\1"<masked>"', json.dumps(rec, indent=2, sort_keys=True))


def cli(stdout="", exit=0, stderr=""):
    return {"exit": exit, "stdout": stdout, "stderr": stderr}


def records(*fields, label="cv loss:0.5 c20 g32"):
    return [[f"seed 1 cycle 0: {label} #{i}", f] for i, f in enumerate(fields)]


def run(old, new, capsys, **kw):
    failed = DO.compare(old, new, **kw)
    return failed, capsys.readouterr().out


def test_masked_report_parses_as_a_record():
    recs = DO.parse_records(cv_stdout())
    assert recs[0]["provenance"]["wall_time_s"] == "<masked>"
    assert DO.error_estimate(recs[0]) == 1.2e-5


def test_last_bit_change_passes_values_and_fails_bytes(capsys):
    f = 0.81234567891
    old = records(cli(cv_stdout(f)))
    new = records(cli(cv_stdout(math.nextafter(f, 1.0))))
    failed, out = run(old, new, capsys)
    assert failed == 1 and "DIFF" in out and "stdout" in out
    failed, out = run(old, new, capsys, values=True)
    assert failed == 0
    assert "VALUES" in out and "max |delta| 1.11e-16" in out
    assert "1 ops, 1 differ, 0 fail" in out


def test_float_beyond_the_fraction_of_error_estimate_fails(capsys):
    old = records(cli(cv_stdout(0.8, err=1e-5)))
    ok = records(cli(cv_stdout(0.8 + 0.9e-7, err=1e-5)))
    bad = records(cli(cv_stdout(0.8 + 1.1e-7, err=1e-5)))
    assert run(old, ok, capsys, values=True)[0] == 0
    failed, out = run(old, bad, capsys, values=True)
    assert failed == 1 and "stdout[0].results.F_avg" in out


def test_verdict_flip_fails_both_modes(capsys):
    old = records(cli(cv_stdout(verdict="violated")))
    new = records(cli(cv_stdout(verdict="inconclusive")))
    assert run(old, new, capsys)[0] == 1
    failed, out = run(old, new, capsys, values=True)
    assert failed == 1 and "verdict 'violated' -> 'inconclusive'" in out


def test_key_set_change_fails_values(capsys):
    old = records(cli(cv_stdout()))
    new = records(cli(cv_stdout(extra={"error_budget": {"floor": 1e-5}})))
    failed, out = run(old, new, capsys, values=True)
    assert failed == 1 and "keys ['error_budget']" in out


def test_sweep_csv_rows_compare_by_value(capsys):
    head = "step,param,param_value,margin,value,bound,P_s,error_estimate,verdict\n"
    old = head + "0,tau,0.2,-0.1,0.8000000000000002,0.7,1.0,1e-05,violated\n"
    new = head + "0,tau,0.2,-0.1,0.8000000000000003,0.7,1.0,1e-05,violated\n"
    flip = head + "0,tau,0.2,-0.1,0.8000000000000003,0.7,1.0,1e-05,satisfied\n"
    assert DO.parse_records(old)[0]["step"] == 0
    assert run(records(cli(old)), records(cli(new)), capsys, values=True)[0] == 0
    assert run(records(cli(old)), records(cli(flip)), capsys, values=True)[0] == 1


def test_sweep_json_list_uses_each_records_own_estimate(capsys):
    steps = [json.loads(cv_stdout(0.5, err=1e-3)), json.loads(cv_stdout(0.5, err=1e-9))]
    moved = [json.loads(cv_stdout(0.5 + 1e-6, err=1e-3)),
             json.loads(cv_stdout(0.5 + 1e-6, err=1e-9))]
    failed, out = run(records(cli(json.dumps(steps))), records(cli(json.dumps(moved))),
                      capsys, values=True)
    assert failed == 1 and "stdout[1].results.F_avg" in out
    assert "stdout[0]" not in out


def test_library_values_must_match_exactly(capsys):
    old = records({"value": {"gap": float.hex(1e-13)}})
    new = records({"value": {"gap": float.hex(math.nextafter(1e-13, 1.0))}})
    failed, out = run(old, new, capsys, values=True)
    assert failed == 1 and "value" in out


def test_undeclared_exit_code_change_fails(capsys):
    old = records(cli(exit=2, stderr="config error: channel annihilates"))
    new = records(cli(exit=3, stderr="numerical failure: channel annihilates"))
    for values in (False, True):
        failed, out = run(old, new, capsys, values=values)
        assert failed == 1 and "exit" in out and "stderr" in out


ZERO_KRAUS = {"op": "*error dv zero kraus d*",
              "fields": {"exit": {"old": 2, "new": 3}, "stderr": {"old": "*", "new": "*"}},
              "reason": "P_s < 1e-12 is a numerical failure"}


def test_declared_exit_code_change_passes(capsys):
    old = records(cli(exit=2, stderr="config error: x"), label="error dv zero kraus d3")
    new = records(cli(exit=3, stderr="numerical failure: x"), label="error dv zero kraus d3")
    for values in (False, True):
        failed, out = run(old, new, capsys, values=values, expect=[ZERO_KRAUS])
        assert failed == 0 and "1 ops, 1 differ, 0 fail" in out


def test_declared_change_that_does_not_happen_fails(capsys):
    old = records(cli(exit=2, stderr="config error: x"), label="error dv zero kraus d3")
    failed, out = run(old, old, capsys, expect=[ZERO_KRAUS])
    assert failed == 1 and "declared exit 2 -> 3, got 2 -> 2" in out


def test_declared_field_leaves_the_others_checked(capsys):
    old = records(cli(stdout="a", exit=2), label="error dv zero kraus d3")
    new = records(cli(stdout="b", exit=3), label="error dv zero kraus d3")
    failed, out = run(old, new, capsys, expect=[ZERO_KRAUS])
    assert failed == 1 and "stdout" in out


def test_stale_entry_fails(capsys):
    old = records(cli(cv_stdout()))
    failed, out = run(old, old, capsys, values=True, expect=[ZERO_KRAUS])
    assert failed == 1 and "STALE" in out


def test_load_expect_rejects_malformed_entries(tmp_path):
    path = tmp_path / "expect.json"
    path.write_text(json.dumps([ZERO_KRAUS]))
    assert DO.load_expect(path) == [ZERO_KRAUS]
    for bad in ([{"op": "*", "fields": {"exit": {"old": 2, "new": 3}}}],   # no reason
                [{"op": "*", "fields": {"verdict": {"old": 1, "new": 2}}, "reason": "r"}],
                [{"op": "*", "fields": {"exit": 3}, "reason": "r"}],
                ["*"], {"op": "*"}):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            DO.load_expect(path)


def report(choi=-0.2450018175281229, gap=7.2e-15, tolerance=1e-4, ensemble=-0.24500181752813008):
    """A ConsistencyReport as op_fields records a library operation's value."""
    return {"type": "ConsistencyReport", "ensemble_value": float.hex(ensemble),
            "choi_value": float.hex(choi), "gap": float.hex(gap),
            "tolerance": float.hex(tolerance)}


PARAMS = {"type": "GaussianBenchParams", "xi": float.hex(0.57735026918962573)}


def library(*values, label="oracle fidelity loss:0.7 c20 g64"):
    return records(*({"value": v} for v in values), label=label)


def test_report_move_of_1e_16_passes_values_and_fails_bytes(capsys):
    old = library([PARAMS, report()])
    new = library([PARAMS, report(choi=-0.2450018175281229 + 1e-16, gap=7.3e-15)])
    failed, out = run(old, new, capsys)
    assert failed == 1 and "DIFF" in out and "value" in out
    failed, out = run(old, new, capsys, values=True)
    assert failed == 0 and "1 ops, 1 differ, 0 fail" in out
    assert "VALUES" in out and "max |delta| 1.11e-16, max |delta|/tolerance 1.11e-12" in out
    assert "largest |delta|/tolerance 1.11e-12" in out


def test_report_move_beyond_the_fraction_of_tolerance_fails(capsys):
    old = library(report(tolerance=1e-4))
    ok = library(report(choi=-0.2450018175281229 + 0.9e-6, tolerance=1e-4))
    bad = library(report(choi=-0.2450018175281229 + 1.1e-6, tolerance=1e-4))
    assert run(old, ok, capsys, values=True)[0] == 0
    failed, out = run(old, bad, capsys, values=True)
    assert failed == 1 and "value.choi_value" in out


def test_report_tolerance_keys_and_verdict_must_not_change(capsys):
    old = library(report(gap=0.9999e-4, tolerance=1e-4))
    tol = library(report(gap=0.9999e-4, tolerance=2e-4))
    keys = library({**report(gap=0.9999e-4, tolerance=1e-4), "passed": True})
    flip = library(report(gap=1.0001e-4, tolerance=1e-4))
    for new in (tol, keys):
        failed, out = run(old, new, capsys, values=True)
        assert failed == 1 and "DIFF" in out
    failed, out = run(old, flip, capsys, values=True)
    assert failed == 1 and "value.passed True -> False" in out


def test_last_bit_move_outside_a_report_fails_values(capsys):
    xi = float.hex(math.nextafter(0.57735026918962573, 1.0))
    old = library([PARAMS, report()])
    new = library([{**PARAMS, "xi": xi}, report()])
    failed, out = run(old, new, capsys, values=True)
    assert failed == 1 and "value[0].xi" in out
