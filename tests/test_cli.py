"""Config parsing, report determinism, sweeps, verdicts, and exit codes."""

import csv
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from ebench import cli
from ebench.cli import (ConfigError, SWEEP_COLUMNS, main, parse_config,
                        parse_witness, run, sweep, sweep_csv, _validate)


def make_config(**kw):
    raw = {"mode": "dv", "channel": "depolarizing:0.6", "d": 3, "k": 1}
    raw.update(kw)
    return _validate(raw)


class TestParseConfig:
    def test_minimal_dv_defaults(self):
        cfg = parse_config('{"mode": "dv"}')
        assert cfg.d == 3 and cfg.k == 1 and cfg.cutoff == 40
        assert cfg.radial == 64 and cfg.angular == 64
        assert cfg.output_format == "json"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config('{"mode": "dv", "bogus": 1}')

    def test_range_errors_are_exhaustive(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"mode": "cv", "lambda": -1, "eta": -2, "cutoff": 0}')
        msg = str(err.value)
        assert "lambda" in msg and "eta" in msg and "cutoff" in msg

    def test_bad_json_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"mode": "cv",}')

    def test_bad_channel(self):
        with pytest.raises(ConfigError, match="channel"):
            parse_config('{"mode": "cv", "channel": "warp:9"}')

    def test_k_range_against_d(self):
        with pytest.raises(ConfigError, match="k must be"):
            parse_config('{"mode": "dv", "d": 3, "k": 3}')

    def test_round_trip(self):
        cfg = parse_config(json.dumps({
            "mode": "sweep", "channel": "depolarizing:0.5", "d": 3, "k": 1,
            "sweep": {"param": "p", "start": 0, "stop": 1, "steps": 11},
            "output": {"path": "-", "format": "csv"}, "seed": 7}))
        again = parse_config(json.dumps(cfg.to_dict()))
        assert again == cfg

    def test_sweep_mode_needs_block(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config('{"mode": "sweep"}')

    def test_bad_sweep_param(self):
        with pytest.raises(ConfigError, match="sweep.param"):
            parse_config('{"mode": "sweep", "sweep": {"param": "volume"}}')


class TestWitnessMiniLanguage:
    def test_builtin_schmidt(self):
        cfg = make_config()
        w = parse_witness("schmidt_witness(1,3)", cfg)
        assert len(w.pairs) == 5

    def test_builtin_fidelity(self):
        from ebench.fock import FockSpace
        cfg = make_config(mode="cv")
        w = parse_witness("fidelity_witness(0.1, 0.8, 0.6)", cfg,
                          FockSpace(10, "A"), FockSpace(10, "B"))
        assert w.meta["X"] == pytest.approx(0.1)

    def test_terms_expression(self, tmp_path):
        from ebench.fock import FockSpace
        a = np.diag([1.0, -1.0, 0.5]).astype(complex)
        path = tmp_path / "amat.npy"
        np.save(path, a)
        cfg = make_config(mode="cv")
        text = f"1.0 * A[{path}] (bd^1 b^1) + -0.5 * A[{path}] (bd^0 b^0)"
        sp = FockSpace(3 - 1, "B")  # A-matrix fixes the A side; B space separate
        w = parse_witness(text, cfg, FockSpace(2, "A"), sp)
        assert len(w.terms) == 2
        assert w.terms[0].m == 1 and w.terms[0].n == 1
        assert w.terms[1].coeff == pytest.approx(-0.5)

    def test_identity_terms(self):
        from ebench.fock import FockSpace
        cfg = make_config(mode="cv")
        w = parse_witness("1.0 * I (bd^2 b^1)", cfg, FockSpace(5, "A"),
                          FockSpace(5, "B"))
        assert w.terms[0].m == 2 and w.terms[0].n == 1

    def test_parse_errors(self):
        cfg = make_config(mode="cv")
        from ebench.fock import FockSpace
        sp = FockSpace(5, "A")
        for bad in ("1.0 * Q (bd^1 b^1)", "nonsense", "1.0 * I (b^1 bd^1)"):
            with pytest.raises(ConfigError):
                parse_witness(bad, cfg, sp, FockSpace(5, "B"))


class TestRun:
    def test_dv_satisfied(self):
        rec = run(make_config())
        assert rec.verdict == "satisfied"
        assert rec.results["margin"] == pytest.approx(0.2, abs=1e-9)

    def test_dv_violated(self):
        rec = run(make_config(channel="identity", k=1))
        assert rec.verdict == "violated"
        assert rec.results["margin"] == pytest.approx(-1.0, abs=1e-9)

    def test_cv_loss_violated(self):
        cfg = make_config(mode="cv", channel="loss:0.64",
                          **{"lambda": 1.0, "eta": 0.64, "cutoff": 40})
        rec = run(cfg)
        assert rec.verdict == "violated"
        want = 2.0 / 2.64 - 1.0
        assert rec.results["margin"] == pytest.approx(want, abs=2e-3)

    def test_convert_dv(self):
        cfg = make_config(mode="convert", witness="schmidt_witness(1,3)",
                          channel="depolarizing:0.2")
        rec = run(cfg)
        assert rec.verdict == "violated"
        assert rec.results["value"] == pytest.approx(1.0 - 2.0 * 0.8, abs=1e-9)

    def test_convert_cv_terms(self):
        # <I (x) b^dag b> replacement on the squeezed ensemble: identity
        # channel keeps the mean photon number xi^2/(1 - xi^2)
        cfg = make_config(mode="convert", channel="identity",
                          witness="1.0 * I (bd^1 b^1)", cutoff=30, radial=48,
                          angular=32, **{"lambda": 1.0, "eta": 1.0})
        rec = run(cfg)
        assert rec.results["value"] == pytest.approx(1.0, abs=1e-4)

    def test_convert_cv_fidelity_builtin(self):
        cfg = make_config(mode="convert", channel="loss:0.8", cutoff=30,
                          radial=40, angular=32,
                          witness="fidelity_witness(0.1, 0.8, 0.6)",
                          **{"lambda": 1.0, "eta": 0.5625})
        rec = run(cfg)
        assert np.isfinite(rec.results["value"])
        assert rec.verdict in ("violated", "satisfied", "inconclusive")

    def test_verdict_consistency(self):
        for rec in (run(make_config()), run(make_config(channel="identity"))):
            m, e = rec.results["margin"], rec.results["error_estimate"]
            if rec.verdict == "violated":
                assert m < -e
            elif rec.verdict == "satisfied":
                assert m > e
            else:
                assert abs(m) <= e

    def test_determinism_modulo_wall_time(self):
        cfg = make_config(mode="cv", channel="loss:0.5", cutoff=25, radial=32,
                          angular=32)
        blobs = []
        for _ in range(2):
            rec = run(cfg)
            data = json.loads(rec.to_json())
            data["provenance"].pop("wall_time_s")
            blobs.append(json.dumps(data, sort_keys=True))
        assert blobs[0] == blobs[1]


class TestSweep:
    def test_depolarizing_crossing(self):
        cfg = make_config(mode="sweep", channel="depolarizing:0.5",
                          sweep={"param": "p", "start": 0, "stop": 1, "steps": 11})
        records = sweep(cfg)
        margins = [r.results["margin"] for r in records]
        ps = [float(r.config["channel"].split(":")[1]) for r in records]
        # margin 2p - 1 crosses zero between p = 0.4 and p = 0.6
        crossing = None
        for (p1, m1), (p2, m2) in zip(zip(ps, margins), zip(ps[1:], margins[1:])):
            if m1 <= 0 <= m2:
                crossing = p1 + m1 * (p1 - p2) / (m2 - m1)
        assert crossing == pytest.approx(0.5, abs=1e-9)

    def test_k_sweep_identity(self):
        cfg = make_config(mode="sweep", channel="identity",
                          sweep={"param": "k", "start": 1, "stop": 2, "steps": 2})
        records = sweep(cfg)
        assert [r.verdict for r in records] == ["violated", "violated"]

    def test_gain_sweep_optimum(self):
        cfg = make_config(mode="sweep", channel="heterodyne:1.0", cutoff=25,
                          radial=40, angular=40,
                          **{"lambda": 1.0, "eta": 1.0},
                          sweep={"param": "gain", "start": 0.5, "stop": 1.5,
                                 "steps": 11})
        records = sweep(cfg)
        fs = [r.results["F_avg"] for r in records]
        assert max(fs) == pytest.approx(2.0 / 3.0, abs=2e-3)
        assert int(np.argmax(fs)) == 0  # optimum sits at gain 0.5

    def test_tau_sweep_matched_loss(self):
        # loss at matched gain always violates; margin = -eta/(1+lambda+eta)
        cfg = make_config(mode="sweep", channel="loss:0.5", cutoff=30,
                          radial=40, angular=32, **{"lambda": 1.0, "eta": 0.5},
                          sweep={"param": "tau", "start": 0.3, "stop": 0.9,
                                 "steps": 3})
        records = sweep(cfg)
        assert all(r.verdict == "violated" for r in records)

    def test_lambda_sweep_identity_margins(self):
        # identity margin = threshold - 1 = -1/(2+lambda)
        cfg = make_config(mode="sweep", channel="identity", cutoff=30,
                          radial=40, angular=32, **{"eta": 1.0},
                          sweep={"param": "lambda", "start": 0.5, "stop": 2.0,
                                 "steps": 4})
        records = sweep(cfg)
        for rec in records:
            lam = rec.config["lambda"]
            assert rec.results["margin"] == pytest.approx(-1.0 / (2.0 + lam),
                                                          abs=2e-3)

    def test_eta_sweep_monotone_threshold(self):
        cfg = make_config(mode="sweep", channel="identity", cutoff=30,
                          radial=40, angular=32, **{"lambda": 1.0},
                          sweep={"param": "eta", "start": 0.5, "stop": 2.0,
                                 "steps": 4})
        thresholds = [r.results["threshold"] for r in sweep(cfg)]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_k_sweep_descending_and_deduped(self):
        cfg = make_config(mode="sweep", channel="identity", d=4,
                          sweep={"param": "k", "start": 3, "stop": 1, "steps": 5})
        records = sweep(cfg)
        ks = [r.config["k"] for r in records]
        assert ks == [3, 2, 1]

    def test_k_sweep_out_of_range(self):
        cfg = make_config(mode="sweep", channel="identity", d=3,
                          sweep={"param": "k", "start": 1, "stop": 5, "steps": 5})
        with pytest.raises(ConfigError, match="outside"):
            sweep(cfg)

    def test_sweep_channel_kind_mismatch(self):
        cfg = make_config(mode="sweep", channel="identity",
                          sweep={"param": "p", "start": 0, "stop": 1, "steps": 3})
        with pytest.raises(ConfigError, match="needs a qudit_depolarizing"):
            sweep(cfg)

    def test_csv_shape_and_quoting(self):
        cfg = make_config(mode="sweep", channel="depolarizing:0.5",
                          sweep={"param": "p", "start": 0, "stop": 1, "steps": 3})
        text = sweep_csv(sweep(cfg), "p")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(SWEEP_COLUMNS)
        assert len(rows) == 4
        # numeric param column is monotone
        vals = [float(r[2]) for r in rows[1:]]
        assert vals == sorted(vals)

    def test_thread_env_no_longer_changes_sweep_output(self, monkeypatch, capsys):
        argv = ["sweep", "--channel", "depolarizing:0.5", "--d", "3", "--k", "1",
                "--param", "p", "--start", "0", "--stop", "1", "--steps", "5",
                "--format", "csv"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("EBENCH_THREADS", "4")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class TestMainExitCodes:
    def test_ok(self, capsys):
        code = main(["dv", "--d", "3", "--k", "1", "--channel", "depolarizing:0.6"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "satisfied"

    def test_verdict_does_not_change_exit(self, capsys):
        code = main(["dv", "--d", "3", "--k", "1", "--channel", "identity"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "violated"

    def test_config_error_exit_2(self, capsys):
        code = main(["cv", "--lambda", "-1"])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "dv", "verbosity": 3}')
        assert main(["dv", "--config", str(path)]) == 2

    def test_non_cp_kraus_rejected_exit_2(self, tmp_path, capsys):
        mats = {"k0": (np.eye(3) * 1.2).astype(complex)}
        path = tmp_path / "bad.npz"
        np.savez(path, **mats)
        code = main(["dv", "--d", "3", "--k", "1", "--channel", f"kraus:{path}"])
        assert code == 2
        assert "trace non-increasing" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # a channel that annihilates every input: P_s underflows
        mats = {"k0": (np.eye(31) * 1e-9).astype(complex)}
        path = tmp_path / "null.npz"
        np.savez(path, **mats)
        code = main(["convert", "--channel", f"kraus:{path}",
                     "--witness", "1.0 * I (bd^0 b^0)", "--cutoff", "30",
                     "--radial", "16", "--angular", "12"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_missing_kraus_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing.npz"
        assert main(["dv", "--d", "2", "--k", "1", "--channel", f"kraus:{path}"]) == 2
        assert f"config error: cannot load Kraus operators from {path}" in capsys.readouterr().err

    def test_kraus_directory_exit_2(self, tmp_path, capsys):
        assert main(["dv", "--d", "2", "--k", "1", "--channel", f"kraus:{tmp_path}"]) == 2
        assert f"config error: cannot load Kraus operators from {tmp_path}" in capsys.readouterr().err

    def test_kraus_npy_exit_2(self, tmp_path, capsys):
        path = tmp_path / "one.npy"
        np.save(path, np.eye(2, dtype=complex))
        assert main(["dv", "--d", "2", "--k", "1", "--channel", f"kraus:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kraus needs an .npz archive") and str(path) in err

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "report.json"
        assert main(["dv", "--d", "2", "--k", "1", "--channel", "z_mp",
                     "--output", str(path)]) == 2
        assert f"config error: cannot write output to {path}" in capsys.readouterr().err

    def test_convert_witness_dimension_mismatch_exit_2(self, capsys):
        assert main(["convert", "--d", "3", "--witness", "schmidt_witness(1,4)",
                     "--channel", "depolarizing:0.3"]) == 2
        err = capsys.readouterr().err
        assert "d = 4" in err and "d = 3" in err and "matmul" not in err

    def test_dv_zero_kraus_exit_3(self, tmp_path, capsys):
        path = tmp_path / "zero.npz"
        np.savez(path, k0=np.zeros((3, 3), dtype=complex))
        assert main(["dv", "--d", "3", "--k", "1", "--channel", f"kraus:{path}"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: channel annihilates")

    @pytest.mark.parametrize("mode", ["cv", "convert"])
    def test_kraus_fock_dimension_mismatch_exit_2(self, mode, tmp_path, capsys):
        path = tmp_path / "three.npz"
        np.savez(path, k0=np.eye(3, dtype=complex))
        argv = [mode, "--channel", f"kraus:{path}", "--cutoff", "20",
                "--radial", "8", "--angular", "8"]
        if mode == "convert":
            argv += ["--witness", "fidelity_witness(0.1,0.8,0.6)"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dimension 3" in err
        assert "dimension 21" in err and "gufunc" not in err

    def test_file_output(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["dv", "--d", "2", "--k", "1", "--channel", "z_mp",
                     "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "inconclusive"  # exact classical saturation

    def test_sweep_csv_via_main(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--param", "p", "--channel", "depolarizing:0.5",
                     "--d", "3", "--k", "1", "--start", "0", "--stop", "1",
                     "--steps", "5", "--format", "csv", "--output", str(out)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 6

    def test_single_run_csv_has_no_sweep_parameter(self, capsys):
        code = main(["dv", "--channel", "depolarizing:0.2", "--d", "3", "--k", "1",
                     "--format", "csv"])
        assert code == 0
        header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        rec = dict(zip(header, row))
        assert (rec["step"], rec["param"], rec["param_value"]) == ("0", "", "")
        assert float(rec["margin"]) == pytest.approx(-0.6, abs=1e-12)
        assert float(rec["bound"]) == pytest.approx(1.0)
        assert rec["verdict"] == "violated"

    def test_convert_csv_margin_is_value(self, capsys):
        code = main(["convert", "--channel", "depolarizing:0.2", "--d", "3",
                     "--witness", "schmidt_witness(1,3)", "--format", "csv"])
        out, err = capsys.readouterr()
        assert code == 0, err
        header, row = list(csv.reader(io.StringIO(out)))
        rec = dict(zip(header, row))
        assert (rec["param"], rec["param_value"], rec["bound"]) == ("", "", "")
        assert rec["margin"] == rec["value"]
        assert float(rec["value"]) == pytest.approx(-0.6, abs=1e-12)
        assert rec["verdict"] == "violated"

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ebench.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0


def mask_wall_time(out: str) -> str:
    return re.sub(r'("wall_time_s": )[^,\n}]+', r"\1<masked>", out)


class TestParserReuse:
    ARGV = ["dv", "--d", "3", "--k", "1", "--channel", "depolarizing:0.6"]

    def test_parser_built_once_across_calls(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for _ in range(20):
            assert main(self.ARGV) == 0
        assert len(built) == 1

    def test_rejected_flag_then_valid_call(self, capsys):
        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["dv", "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(self.ARGV) == 0
        assert mask_wall_time(capsys.readouterr().out) == mask_wall_time(first)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        from ebench.cli import selftest
        passed, failed = selftest(seed=1)
        out = capsys.readouterr().out
        assert failed == 0
        assert "selftest:" in out and out.count("PASS") == passed
