"""Command-line interface: config ingestion, benchmark runs, parameter sweeps,
and machine-readable reports.

Exit status is 0 whenever the requested computation completed, regardless of
the physics verdict; 2 for configuration/schema errors; 3 for numerical
failures (e.g. vanishing success probability).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channels import build_channel, parse_channel_spec
from .cv import (GaussianBenchParams, benchmark_threshold, fidelity_benchmark,
                 fidelity_witness, optimal_heterodyne_gain)
from .dv import (finite_dim_conversion, max_entangled_state, schmidt_benchmark,
                 schmidt_witness_pairs)
from .fock import FockSpace, two_mode_squeezed_ket
from .quadrature import QuadratureGrid
from .witness import (EvaluationError, TermsWitness, WitnessTerm, eb_value,
                      ensemble_from_state)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_PARAMS = ("lambda", "eta", "tau", "p", "k", "gain")


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit status 2)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepBlock:
    param: str
    start: float
    stop: float
    steps: int

    def values(self):
        if self.param == "k":
            vals = [int(round(v)) for v in np.linspace(self.start, self.stop,
                                                       self.steps)]
            out = []
            for v in vals:
                if v not in out:
                    out.append(v)
            return out
        return list(np.linspace(self.start, self.stop, self.steps))


@dataclass(frozen=True)
class RunConfig:
    mode: str
    channel: str = "identity"
    lam: float = 1.0
    eta: float = 1.0
    X: float = 0.1
    cutoff: int = 40
    radial: int = 64
    angular: int = 64
    alpha_max: float | None = None
    d: int = 3
    k: int = 1
    witness: str | None = None
    sweep: SweepBlock | None = None
    output_path: str = "-"
    output_format: str = "json"
    seed: int = 0

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode, "channel": self.channel, "lambda": self.lam,
            "eta": self.eta, "X": self.X, "cutoff": self.cutoff,
            "radial": self.radial, "angular": self.angular,
            "alpha_max": self.alpha_max, "d": self.d, "k": self.k,
            "witness": self.witness,
            "output": {"path": self.output_path, "format": self.output_format},
            "seed": self.seed,
        }
        if self.sweep is not None:
            out["sweep"] = {"param": self.sweep.param, "start": self.sweep.start,
                            "stop": self.sweep.stop, "steps": self.sweep.steps}
        return out


_KEYS = {"mode", "channel", "lambda", "eta", "X", "cutoff", "radial", "angular",
         "alpha_max", "d", "k", "witness", "sweep", "output", "seed"}
_SWEEP_KEYS = {"param", "start", "stop", "steps"}
_MODES = ("cv", "dv", "convert", "sweep", "selftest")


def _validate(raw: dict) -> RunConfig:
    errors = []
    unknown = set(raw) - _KEYS
    if unknown:
        errors.append(f"unknown keys: {sorted(unknown)}")
    mode = raw.get("mode")
    if mode not in _MODES:
        errors.append(f"mode must be one of {_MODES}, got {mode!r}")

    def grab(key, kind, default, check=None, msg=""):
        if key not in raw or raw[key] is None:
            return default
        try:
            val = kind(raw[key])
        except (TypeError, ValueError):
            errors.append(f"{key}: expected {kind.__name__}, got {raw[key]!r}")
            return default
        if check is not None and not check(val):
            errors.append(f"{key}: {msg} (got {val})")
        return val

    lam = grab("lambda", float, 1.0, lambda v: v >= 0, "must be >= 0")
    eta = grab("eta", float, 1.0, lambda v: v >= 0, "must be >= 0")
    x_reg = grab("X", float, 0.1, lambda v: v >= 0, "must be >= 0")
    cutoff = grab("cutoff", int, 40, lambda v: v >= 1, "must be >= 1")
    radial = grab("radial", int, 64, lambda v: v >= 2, "must be >= 2")
    angular = grab("angular", int, 64, lambda v: v >= 4, "must be >= 4")
    alpha_max = grab("alpha_max", float, None, lambda v: v > 0, "must be > 0")
    d = grab("d", int, 3, lambda v: v >= 2, "must be >= 2")
    k = grab("k", int, 1, lambda v: v >= 1, "must be >= 1")
    seed = grab("seed", int, int(os.environ.get("EBENCH_SEED", "0")))
    witness = raw.get("witness")
    if witness is not None and not isinstance(witness, str):
        errors.append("witness: expected string")

    channel = raw.get("channel", "identity")
    try:
        parse_channel_spec(str(channel))
    except ValueError as exc:
        errors.append(f"channel: {exc}")

    sweep = None
    if raw.get("sweep") is not None:
        s = raw["sweep"]
        if not isinstance(s, dict):
            errors.append("sweep: expected an object")
        else:
            unknown_s = set(s) - _SWEEP_KEYS
            if unknown_s:
                errors.append(f"sweep: unknown keys {sorted(unknown_s)}")
            param = s.get("param")
            if param not in SWEEP_PARAMS:
                errors.append(f"sweep.param must be one of {SWEEP_PARAMS}, got {param!r}")
            try:
                sweep = SweepBlock(param=str(param), start=float(s.get("start", 0)),
                                   stop=float(s.get("stop", 1)),
                                   steps=int(s.get("steps", 11)))
                if sweep.steps < 1:
                    errors.append("sweep.steps must be >= 1")
            except (TypeError, ValueError):
                errors.append("sweep: start/stop/steps must be numeric")

    out_path, out_format = "-", "json"
    if raw.get("output") is not None:
        o = raw["output"]
        if not isinstance(o, dict) or set(o) - {"path", "format"}:
            errors.append("output: expected {path, format}")
        else:
            out_path = str(o.get("path", "-"))
            out_format = str(o.get("format", "json"))
            if out_format not in ("json", "csv"):
                errors.append(f"output.format must be json or csv, got {out_format!r}")

    if mode == "dv" and not errors and k > d - 1:
        errors.append(f"k must be <= d-1 = {d - 1}, got {k}")
    if mode == "sweep" and sweep is None:
        errors.append("sweep mode needs a sweep block")
    if errors:
        raise ConfigError("; ".join(errors))
    return RunConfig(mode=mode, channel=str(channel), lam=lam, eta=eta, X=x_reg,
                     cutoff=cutoff, radial=radial, angular=angular,
                     alpha_max=alpha_max, d=d, k=k, witness=witness, sweep=sweep,
                     output_path=out_path, output_format=out_format, seed=seed)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document; unknown keys are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return _validate(raw)


# ---------------------------------------------------------------------------
# witness mini-language
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>[^*]+)\*\s*(?P<aspec>I|A\[[^\]]+\])\s*"
    r"\(\s*bd\^(?P<m>\d+)\s+b\^(?P<n>\d+)\s*\)\s*$")

_BUILTIN_RE = re.compile(r"^\s*(?P<name>\w+)\((?P<args>[^)]*)\)\s*$")


def parse_witness(text: str, config: RunConfig, space_a: FockSpace | None = None,
                  space_b: FockSpace | None = None):
    """Parse a named built-in or a normal-ordered terms expression.

    Built-ins: fidelity_witness(X,u,v) and schmidt_witness(k,d).  Terms look
    like '1.0 * I (bd^1 b^2) + -1.0 * A[ops.npy] (bd^0 b^0)' with bd^m b^n the
    normal-ordered mode-B monomial (b^dag)^m b^n.
    """
    m = _BUILTIN_RE.match(text)
    if m and m.group("name") in ("fidelity_witness", "schmidt_witness"):
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        if m.group("name") == "schmidt_witness":
            if len(args) != 2:
                raise ConfigError("schmidt_witness takes (k, d)")
            return schmidt_witness_pairs(int(args[0]), int(args[1]))
        if len(args) != 3:
            raise ConfigError("fidelity_witness takes (X, u, v)")
        x_reg, u, v = (float(a) for a in args)
        if space_a is None or space_b is None:
            raise ConfigError("fidelity_witness needs a CV context")
        return fidelity_witness(x_reg, u * u, v * v, space_a, space_b)
    if space_a is None:
        raise ConfigError("terms witnesses need a CV context")
    terms = []
    for i, chunk in enumerate(re.split(r"\s*\+\s*(?=[^()]*(?:\(|$))", text)):
        tm = _TERM_RE.match(chunk)
        if tm is None:
            raise ConfigError(f"cannot parse witness term {i}: {chunk!r}")
        try:
            coeff = complex(tm.group("coeff").strip().replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"bad coefficient in term {i}: {exc}") from exc
        aspec = tm.group("aspec")
        if aspec == "I":
            a_mat = np.eye(space_a.dim, dtype=complex)
        else:
            path = aspec[2:-1]
            try:
                a_mat = np.load(path)
            except OSError as exc:
                raise ConfigError(f"cannot load A operator from {path}: {exc}") from exc
        terms.append(WitnessTerm(a_mat, int(tm.group("n")), int(tm.group("m")), coeff))
    return TermsWitness(terms)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class ReportRecord:
    config: dict
    results: dict
    provenance: dict
    verdict: str
    notes: list

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "results": self.results,
                           "provenance": self.provenance, "verdict": self.verdict,
                           "notes": self.notes}, indent=2, sort_keys=True)


def _verdict(margin: float, err: float) -> str:
    if abs(margin) <= err:
        return "inconclusive"
    return "violated" if margin < 0 else "satisfied"


def _grid_for(config: RunConfig, lam: float) -> QuadratureGrid:
    if lam == 0:
        if config.alpha_max is None:
            raise ConfigError("lambda = 0 (flat ensemble) needs alpha_max")
        return QuadratureGrid.flat_disk(config.alpha_max, config.radial,
                                        config.angular)
    return QuadratureGrid.gauss_laguerre(lam, config.radial, config.angular,
                                         alpha_max=config.alpha_max)


def _run_cv(config: RunConfig) -> tuple[dict, str, list]:
    space = FockSpace(config.cutoff, "A")
    grid = _grid_for(config, config.lam)
    gain = optimal_heterodyne_gain(config.lam, config.eta)
    channel = build_channel(parse_channel_spec(config.channel), fock_space=space,
                            default_gain=gain, radial=config.radial,
                            angular=config.angular)
    rep = fidelity_benchmark(channel, config.lam, config.eta, grid, space)
    results = {"F_avg": rep.F_avg, "P_s": rep.P_s, "threshold": rep.threshold,
               "margin": rep.margin, "error_estimate": rep.quadrature_error,
               "lambda": rep.lam, "eta": rep.eta, "grid": rep.grid}
    return results, _verdict(rep.margin, rep.quadrature_error), list(rep.notes)


def _run_dv(config: RunConfig) -> tuple[dict, str, list]:
    channel = build_channel(parse_channel_spec(config.channel), qudit_dim=config.d)
    rep = schmidt_benchmark(channel, config.k, config.d)
    results = {"value": rep.value, "g": rep.g, "margin": rep.margin,
               "P_s": rep.P_s, "error_estimate": rep.error_estimate,
               "d": rep.d, "k": rep.k}
    return results, _verdict(rep.margin, rep.error_estimate), list(rep.notes)


def _run_convert(config: RunConfig) -> tuple[dict, str, list]:
    """Generic witness -> EB-condition evaluation (value >= 0 for EB maps)."""
    if config.witness is None:
        raise ConfigError("convert mode needs a witness")
    if config.witness.startswith("schmidt_witness"):
        w = parse_witness(config.witness, config)
        if w.b_dim != config.d:
            raise ConfigError(f"the witness acts on d = {w.b_dim}, but the run has d = {config.d}")
        channel = build_channel(parse_channel_spec(config.channel),
                                qudit_dim=config.d)
        psi = max_entangled_state(config.d)
        _, evaluator = finite_dim_conversion(w, psi)
        val = evaluator(channel)
    else:
        space_a = FockSpace(config.cutoff, "A")
        space_b = FockSpace(config.cutoff, "B")
        w = parse_witness(config.witness, config, space_a, space_b)
        # the reference squeezing follows the witness regulator when there is
        # one; polynomial witnesses use the X = 0 chain xi^2 = 1/(1 + lambda)
        x_reg = w.meta["X"] if hasattr(w, "meta") and "X" in getattr(w, "meta", {}) else 0.0
        params = GaussianBenchParams.from_lambda_eta(config.lam, config.eta,
                                                     X=x_reg)
        psi = two_mode_squeezed_ket(params.xi, space_a, space_b)
        grid = _grid_for(config, 1.0 - params.xi ** 2)
        gain = optimal_heterodyne_gain(config.lam, config.eta)
        channel = build_channel(parse_channel_spec(config.channel),
                                fock_space=space_a, default_gain=gain,
                                radial=config.radial, angular=config.angular)
        ens = ensemble_from_state(psi, grid)
        val = eb_value(w, ens, channel)
    results = {"value": val.value, "P_s": val.P_s,
               "error_estimate": val.error_estimate,
               "imag_residual": val.imag_residual,
               "members": int(len(val.decomposition))}
    return results, _verdict(val.value, val.error_estimate), []


def run(config: RunConfig) -> ReportRecord:
    """Execute one benchmark and wrap the outcome in a ReportRecord."""
    t0 = time.perf_counter()
    if config.mode == "cv":
        results, verdict, notes = _run_cv(config)
    elif config.mode == "dv":
        results, verdict, notes = _run_dv(config)
    elif config.mode == "convert":
        results, verdict, notes = _run_convert(config)
    else:
        raise ConfigError(f"run() handles cv/dv/convert, not {config.mode!r}")
    prov = {"version": __version__, "seed": config.seed,
            "grid": {"radial": config.radial, "angular": config.angular,
                     "alpha_max": config.alpha_max, "cutoff": config.cutoff},
            "wall_time_s": round(time.perf_counter() - t0, 6)}
    return ReportRecord(config=config.to_dict(), results=results,
                        provenance=prov, verdict=verdict, notes=notes)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_SWEEP_CHANNEL = {"tau": "pure_loss", "p": "qudit_depolarizing",
                  "gain": "heterodyne_mp"}


def _step_config(config: RunConfig, param: str, value) -> RunConfig:
    base = replace(config, sweep=None)
    if param == "lambda":
        return replace(base, mode="cv", lam=float(value))
    if param == "eta":
        return replace(base, mode="cv", eta=float(value))
    if param == "k":
        k = int(value)
        if not 1 <= k <= config.d - 1:
            raise ConfigError(f"sweep reaches k={k}, outside [1, {config.d - 1}]")
        return replace(base, mode="dv", k=k)
    kind = _SWEEP_CHANNEL[param]
    spec = parse_channel_spec(config.channel)
    if spec.kind != kind:
        raise ConfigError(f"sweep over {param!r} needs a {kind} channel, "
                          f"got {spec.kind!r}")
    mode = "dv" if param == "p" else "cv"
    arg = {"tau": "loss", "p": "depolarizing", "gain": "heterodyne"}[param]
    return replace(base, mode=mode, channel=f"{arg}:{float(value)}")


def sweep(config: RunConfig) -> list[ReportRecord]:
    """One benchmark run per sweep step, in parameter order."""
    if config.sweep is None:
        raise ConfigError("sweep needs a sweep block")
    configs = [_step_config(config, config.sweep.param, v) for v in config.sweep.values()]
    return [run(c) for c in configs]


SWEEP_COLUMNS = ("step", "param", "param_value", "margin", "value", "bound",
                 "P_s", "error_estimate", "verdict")


def sweep_csv(records: list[ReportRecord], param: str | None) -> str:
    """Fixed-column CSV (RFC-4180 quoting) for a sweep, or one run if param is None."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for i, rec in enumerate(records):
        res = rec.results
        value = res.get("F_avg", res.get("value"))
        bound = res.get("threshold", res.get("g"))
        pv = rec.config.get("lambda") if param == "lambda" else None
        if pv is None:
            pv = {"eta": rec.config.get("eta"), "k": rec.config.get("k")}.get(param)
        if pv is None and param is not None:
            pv = float(rec.config["channel"].split(":")[1])
        # a convert report's value is its margin
        writer.writerow([i, param, pv, res.get("margin", value), value, bound,
                         res["P_s"], res["error_estimate"], rec.verdict])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def selftest(seed: int = 0) -> tuple[int, int]:
    """Fast oracle/invariant sweep across the library; prints one line each."""
    from . import (antinormal_reorder, choi_state, coherent_ket, filter_scale,
                   identity_channel, pure_loss, qudit_depolarizing,
                   schmidt_witness_matrix, z_measure_prepare)
    from .dv import g_value
    from .witness import antinormal_ordered_matrix, normal_ordered_matrix
    rng = np.random.default_rng(seed or 0xEB)
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:                    # noqa: BLE001 - report, don't crash
            ok, detail = False, f"exception: {exc}"
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")

    sp = FockSpace(40, "A")

    def c_overlap():
        a, b = 0.7 + 0.3j, -0.2 + 1.1j
        got = abs(coherent_ket(a, sp).overlap(coherent_ket(b, sp))) ** 2
        want = math.exp(-abs(a - b) ** 2)
        return abs(got - want) < 1e-10, f"|<a|b>|^2 err {abs(got - want):.1e}"
    check("coherent overlap formula", c_overlap)

    def c_reorder():
        spc = FockSpace(24, "B")
        worst = 0.0
        for n in range(4):
            for m in range(4):
                lhs = normal_ordered_matrix(n, m, spc)
                rhs = sum(c * antinormal_ordered_matrix(nn, mm, spc)
                          for c, nn, mm in antinormal_reorder(n, m))
                worst = max(worst, float(np.max(np.abs((lhs - rhs)[:16, :16]))))
        return worst < 1e-9, f"max gap {worst:.1e}"
    check("anti-normal reordering (n+m<=6)", c_reorder)

    def c_cv_identity():
        grid = QuadratureGrid.gauss_laguerre(1.0, 64, 64)
        rep = fidelity_benchmark(identity_channel(sp.dim), 1.0, 1.0, grid, sp)
        err = abs(rep.margin + 1.0 / 3.0)
        return err < 2e-3, f"margin err {err:.1e}"
    check("cv identity margin -1/3", c_cv_identity)

    def c_cv_loss():
        grid = QuadratureGrid.gauss_laguerre(1.0, 64, 64)
        rep = fidelity_benchmark(pure_loss(0.64, sp), 1.0, 0.64, grid, sp)
        err = abs(rep.margin - (benchmark_threshold(1.0, 0.64) - 1.0))
        return err < 2e-3, f"margin err {err:.1e}"
    check("cv matched loss margin", c_cv_loss)

    def c_dv():
        r1 = schmidt_benchmark(identity_channel(3), 1, 3)
        r2 = schmidt_benchmark(z_measure_prepare(3), 1, 3)
        ok = abs(r1.value - 2) < 1e-12 and abs(r2.margin) < 1e-12
        return ok, f"identity value {r1.value:.3f}, classical margin {r2.margin:.1e}"
    check("dv identity/classical margins", c_dv)

    def c_choi():
        ch = qudit_depolarizing(3, 0.4)
        cs = choi_state(ch, max_entangled_state(3))
        w = schmidt_witness_matrix(1, 3)
        direct = float(np.sum(w.T * cs.J.matrix).real) / cs.P_s
        rep = schmidt_benchmark(ch, 1, 3)
        gap = abs(direct - rep.margin)
        return gap < 1e-10, f"oracle gap {gap:.1e}"
    check("dv Choi oracle equality", c_choi)

    def c_scale():
        ch = qudit_depolarizing(3, 0.3)
        m1 = schmidt_benchmark(ch, 1, 3).margin
        m2 = schmidt_benchmark(filter_scale(0.3, ch), 1, 3).margin
        return abs(m1 - m2) < 1e-10, f"margin shift {abs(m1 - m2):.1e}"
    check("trace-decreasing invariance", c_scale)

    def c_gvals():
        ok = (abs(g_value(1, 2) - 1) < 1e-15 and abs(g_value(2, 3) - 1.5) < 1e-15
              and abs(g_value(4, 4) - 2) < 1e-15)
        return ok, "g(1,2)=1, g(2,3)=1.5, g(d,d)=2"
    check("g-value anchors", c_gvals)

    def c_witness_pos():
        w = schmidt_witness_matrix(1, 3)
        worst = 0.0
        for _ in range(50):
            va = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            va, vb = va / np.linalg.norm(va), vb / np.linalg.norm(vb)
            prod = np.kron(va, vb)
            worst = min(worst, float(np.real(prod.conj() @ w @ prod)))
        return worst > -1e-10, f"min product expectation {worst:.1e}"
    check("witness positivity on product states", c_witness_pos)

    passed = sum(checks)
    failed = len(checks) - passed
    print(f"selftest: {passed} passed, {failed} failed")
    return passed, failed


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--channel", help="channel spec, e.g. loss:0.64")
    p.add_argument("--output", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("json", "csv"), help="output format")
    p.add_argument("--seed", type=int, help="seed echoed into provenance")


def _add_cv_flags(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=float,
                   help="inverse width of the coherent-amplitude distribution")
    p.add_argument("--eta", type=float, help="target energy gain")
    p.add_argument("--X", type=float, help="witness regulator (convert mode)")
    p.add_argument("--cutoff", type=int, help="Fock cutoff")
    p.add_argument("--radial", type=int, help="radial quadrature nodes")
    p.add_argument("--angular", type=int, help="angular quadrature nodes")
    p.add_argument("--alpha-max", dest="alpha_max", type=float,
                   help="cut radius (required for lambda = 0)")


def _add_dv_flags(p: argparse.ArgumentParser):
    p.add_argument("--d", type=int, help="qudit dimension")
    p.add_argument("--k", type=int, help="Schmidt class (certifies rank >= k+1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebench",
        description="entanglement-breaking benchmarks from entanglement witnesses")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, helptext in (("cv", "coherent-state fidelity benchmark"),
                           ("dv", "qudit Schmidt-number benchmark"),
                           ("convert", "evaluate a witness-derived EB condition"),
                           ("sweep", "parameter sweep with CSV output")):
        p = sub.add_parser(mode, help=helptext)
        _add_common(p)
        _add_cv_flags(p)
        _add_dv_flags(p)
        if mode in ("convert",):
            p.add_argument("--witness", help="built-in name or terms expression")
        if mode == "sweep":
            p.add_argument("--param", choices=SWEEP_PARAMS, help="sweep parameter")
            p.add_argument("--start", type=float, help="first value")
            p.add_argument("--stop", type=float, help="last value")
            p.add_argument("--steps", type=int, help="number of steps")
    p = sub.add_parser("selftest", help="run the oracle/invariant suite")
    p.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def _merge_config(args: argparse.Namespace) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        raw = json.loads(text) if text.strip() else {}
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    raw["mode"] = args.mode
    flag_map = {"channel": "channel", "lam": "lambda", "eta": "eta", "X": "X",
                "cutoff": "cutoff", "radial": "radial", "angular": "angular",
                "alpha_max": "alpha_max", "d": "d", "k": "k", "seed": "seed",
                "witness": "witness"}
    for attr, key in flag_map.items():
        val = getattr(args, attr, None)
        if val is not None:
            raw[key] = val
    if getattr(args, "output", None) is not None or getattr(args, "format", None) is not None:
        out = dict(raw.get("output") or {})
        if getattr(args, "output", None) is not None:
            out["path"] = args.output
        if getattr(args, "format", None) is not None:
            out["format"] = args.format
        raw["output"] = out
    if args.mode == "sweep":
        blk = dict(raw.get("sweep") or {})
        for key in ("param", "start", "stop", "steps"):
            val = getattr(args, key, None)
            if val is not None:
                blk[key] = val
        raw["sweep"] = blk
    try:
        return _validate(raw)
    except ConfigError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(text: str, path: str):
    if path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {path}: {exc}") from exc


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.mode == "selftest":
        _, failed = selftest(args.seed)
        return EXIT_OK if failed == 0 else 1
    try:
        config = _merge_config(args)
        if config.mode == "sweep":
            records = sweep(config)
            if config.output_format == "csv":
                _emit(sweep_csv(records, config.sweep.param), config.output_path)
            else:
                _emit(json.dumps([json.loads(r.to_json()) for r in records],
                                 indent=2, sort_keys=True), config.output_path)
        else:
            record = run(config)
            if config.output_format == "csv":
                _emit(sweep_csv([record], None), config.output_path)
            else:
                _emit(record.to_json(), config.output_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
