"""The three benchmark workloads as cycles of checked operations.

A workload is a fixed cycle of operation templates.  Cycle ``i`` of a run
draws its continuous parameters (lambda, eta, tau, gain, q, p, channel seeds)
from ``numpy.random.default_rng([seed, i])``, so the same seed gives the same
inputs and every cycle has the same mix of operation kinds and sizes.  Each
operation is checked against a closed form:

* CV fidelity, loss and identity: F = lam / (lam + (sqrt(eta) - sqrt(tau))^2);
* CV fidelity, heterodyne at gain g: F = lam / (lam (1 + g^2) + (g - sqrt(eta))^2);
* the fidelity witness at regulator X on the two-mode squeezed reference:
  value = 1/(1+X) - (1 - xi^2) / (X + u^2 (1 - xi^2) + (v - f xi u)^2) for a
  channel mapping |a> to |f a>, and the convolved form for heterodyne;
* DV Schmidt value: 2 (1 - p) for depolarizing, 1 for z/x measure-and-prepare,
  a margin >= -1e-9 at class k for channels of Kraus rank <= k;
* filters q * E leave every value unchanged.

The CV threshold (1 + lam)/(1 + lam + eta) is the Namiki-Koashi-Imoto bound,
which is the Hammerer et al. bound at eta = 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CV_TOL = 2e-3          # criteria 01/02
CV_ROUTE_TOL = 1e-3    # criterion 03
DV_ORACLE_TOL = 1e-10  # criterion 03, finite-dimensional route
DV_TOL = 1e-9
EXIT_CONFIG, EXIT_NUMERICAL = 2, 3
SWEEP_COLUMNS = ["step", "param", "param_value", "margin", "value", "bound",
                 "P_s", "error_estimate", "verdict"]

ZERO_KRAUS_DEFECT = ("dv with an all-zero kraus: channel exits 2; the README "
                     "promises 3 for a vanishing success probability")


class CheckFailed(Exception):
    """An operation's output is outside its criterion."""


@dataclass
class Outcome:
    budget_miss: bool | None = None   # None: the op has no error_estimate to check


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    cutoff: int | None = None
    grid: int | None = None
    known_defect: str | None = None


@dataclass(frozen=True)
class Skipped:
    case: str
    bytes: int
    reason: str


def _require(ok: bool, msg: str):
    if not ok:
        raise CheckFailed(msg)


def _close(got: float, want: float, tol: float, what: str):
    _require(math.isfinite(got) and abs(got - want) <= tol,
             f"{what}: got {got!r}, want {want!r} (tol {tol})")
    return abs(got - want)


def cli_call(eb, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    """An op that runs ``ebench.cli.main(argv)`` with stdout/stderr captured."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = eb.cli.main(argv)
            except SystemExit as exc:       # argparse rejects a flag
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue(), err.getvalue()
    return call


def _ok_json(res):
    rc, out, err = res
    _require(rc == 0, f"exit {rc}, want 0: {err.strip()[:200]}")
    return json.loads(out)


def _r(x: float, digits: int) -> float:
    return float(f"{x:.{digits}f}")


# ---------------------------------------------------------------------------
# continuous-variable closed forms
# ---------------------------------------------------------------------------

def cv_threshold(lam, eta):
    return (1.0 + lam) / (1.0 + lam + eta)


def optimal_gain(lam, eta):
    return math.sqrt(eta) / (1.0 + lam)


def cv_fidelity(kind, lam, eta, par):
    """Average fidelity of a loss (par = tau) or heterodyne (par = gain) map."""
    if kind == "loss":
        return lam / (lam + (math.sqrt(eta) - math.sqrt(par)) ** 2)
    g = par
    return lam / (lam * (1.0 + g * g) + (g - math.sqrt(eta)) ** 2)


def witness_value(kind, par, X, u2, v2, xi):
    """Fidelity-witness expectation on (E (x) I)(psi_xi), per unit success."""
    u, v, s = math.sqrt(u2), math.sqrt(v2), 1.0 - xi * xi
    if kind == "loss":
        integral = s / (X + u2 * s + (v - math.sqrt(par) * xi * u) ** 2)
    else:
        g2 = par * par
        integral = s / (1.0 + g2) / (X + u2 * s + (par * xi * u - v) ** 2 / (1.0 + g2))
    return 1.0 / (1.0 + X) - integral


def tmsv_tail(xi, cutoff):
    """Mass xi^(2(cutoff+1)) that truncation removes from the two-mode squeezed state.

    The witness closed forms hold for the untruncated state, so checks on it
    allow twice this mass on top of CV_TOL: at cutoff 20 and xi^2 = 0.746 the
    computed value moves by 2.09e-3, equal to the tail mass, and by 6e-6 at
    cutoff 40.
    """
    return xi ** (2 * (cutoff + 1))


@dataclass(frozen=True)
class CVChannel:
    """A CV channel spec with its closed-form kind ("loss" or "het") and parameter.

    ``par`` is tau for loss, the gain for heterodyne, or None for the
    heterodyne gain that the benchmark context makes optimal.
    """
    spec: str
    kind: str
    par: float | None
    q: float = 1.0

    def parameter(self, lam, eta):
        return optimal_gain(lam, eta) if self.par is None else self.par


def cv_channel(name: str, rng, max_gain: float = 1.0) -> CVChannel:
    tau, g = _r(rng.uniform(0.2, 1.0), 4), _r(rng.uniform(0.2, max_gain), 4)
    q = _r(rng.uniform(0.1, 1.0), 4)
    if name == "identity":
        return CVChannel("identity", "loss", 1.0)
    if name == "loss":
        return CVChannel(f"loss:{tau}", "loss", tau)
    if name == "heterodyne":
        return CVChannel("heterodyne", "het", None)
    if name == "heterodyne:g":
        return CVChannel(f"heterodyne:{g}", "het", g)
    if name == "scale:loss":
        return CVChannel(f"scale:{q}:loss:{tau}", "loss", tau, q)
    if name == "scale:heterodyne:g":
        return CVChannel(f"scale:{q}:heterodyne:{g}", "het", g, q)
    raise ValueError(name)


def _check_cv_record(rec, ch: CVChannel, lam, eta) -> Outcome:
    res = rec["results"]
    f_ref = cv_fidelity(ch.kind, lam, eta, ch.parameter(lam, eta))
    thr = cv_threshold(lam, eta)
    err = _close(res["F_avg"], f_ref, CV_TOL, f"F_avg [{ch.spec}]")
    _close(res["threshold"], thr, 1e-12, "threshold")
    _close(res["margin"], thr - f_ref, CV_TOL, "margin")
    _close(res["P_s"], ch.q, CV_TOL, "P_s")
    _require(rec["verdict"] in ("violated", "satisfied", "inconclusive"), "verdict")
    return Outcome(budget_miss=err > res["error_estimate"])


def _grid_flags(cutoff, grid):
    return ["--cutoff", str(cutoff), "--radial", str(grid), "--angular", str(grid)]


def cv_run_op(eb, ch: CVChannel, lam, eta, cutoff, grid) -> Op:
    argv = ["cv", "--channel", ch.spec, "--lambda", repr(lam), "--eta", repr(eta),
            *_grid_flags(cutoff, grid)]
    return Op(f"cv {ch.spec} c{cutoff} g{grid}", cli_call(eb, argv),
              lambda res: _check_cv_record(_ok_json(res), ch, lam, eta),
              cutoff=cutoff, grid=grid)


def cv_sweep_op(eb, param, rng, lam, eta, cutoff, grid) -> Op:
    """A three-step CV sweep; every step is checked on its own closed form."""
    if param == "gain":
        base, lo, hi = "heterodyne:0.5", rng.uniform(0.1, 0.4), rng.uniform(0.5, 1.0)
    elif param == "tau":
        base, lo, hi = "loss:0.5", rng.uniform(0.2, 0.5), rng.uniform(0.6, 1.0)
    elif param == "lambda":
        base, lo, hi = f"loss:{_r(rng.uniform(0.2, 1.0), 4)}", rng.uniform(0.5, 1.0), rng.uniform(1.2, 2.0)
    else:  # eta, heterodyne at the optimal gain of each step
        base, lo, hi = "heterodyne", rng.uniform(0.3, 0.6), rng.uniform(0.7, 1.0)
    lo, hi = _r(lo, 3), _r(hi, 3)
    argv = ["sweep", "--param", param, "--channel", base, "--start", repr(lo),
            "--stop", repr(hi), "--steps", "3", "--lambda", repr(lam),
            "--eta", repr(eta), *_grid_flags(cutoff, grid)]

    def check(res):
        records = _ok_json(res)
        _require(len(records) == 3, f"{len(records)} sweep steps, want 3")
        misses = []
        for rec in records:
            cfg = rec["config"]
            spec = cfg["channel"]
            if spec.startswith("heterodyne"):
                gain = spec.partition(":")[2]
                ch = CVChannel(spec, "het", float(gain) if gain else None)
            else:
                ch = CVChannel(spec, "loss", float(spec.partition(":")[2]))
            misses.append(_check_cv_record(rec, ch, cfg["lambda"], cfg["eta"]).budget_miss)
        return Outcome(budget_miss=any(misses))
    return Op(f"sweep {param} c{cutoff} g{grid}", cli_call(eb, argv), check,
              cutoff=cutoff, grid=grid)


def cv_convert_op(eb, ch: CVChannel, lam, eta, X, cutoff, grid) -> Op:
    """convert with fidelity_witness(X, u, v) at the (u, v) that (lam, eta, X) fix."""
    p = eb.GaussianBenchParams.from_lambda_eta(lam, eta, X=X)
    u, v = math.sqrt(p.u2), math.sqrt(p.v2)
    argv = ["convert", "--channel", ch.spec, "--witness",
            f"fidelity_witness({X!r},{u!r},{v!r})", "--lambda", repr(lam),
            "--eta", repr(eta), *_grid_flags(cutoff, grid)]

    def check(res):
        r = _ok_json(res)["results"]
        ref = witness_value(ch.kind, ch.parameter(lam, eta), X, u * u, v * v, p.xi)
        tol = CV_TOL + 2.0 * tmsv_tail(p.xi, cutoff)
        err = _close(r["value"], ref, tol, f"witness value [{ch.spec}]")
        _close(r["P_s"], ch.q, CV_TOL, "P_s")
        return Outcome(budget_miss=err > r["error_estimate"])
    return Op(f"convert fidelity {ch.spec} c{cutoff} g{grid}", cli_call(eb, argv),
              check, cutoff=cutoff, grid=grid)


# channel x cutoff -> grid: every channel runs at every cutoff; loss and
# identity also at 128^2, heterodyne never (see SKIPPED).  Two heterodyne runs
# per cycle use 64^2, whose 268 MB transfer temporaries set peak_rss_mb.
CV_RUNS = (
    ("identity", 20, 32), ("identity", 40, 64), ("identity", 60, 128),
    ("loss", 20, 64), ("loss", 40, 128), ("loss", 60, 32),
    ("heterodyne", 20, 32), ("heterodyne", 40, 64), ("heterodyne", 60, 32),
    ("heterodyne:g", 20, 32), ("heterodyne:g", 40, 32), ("heterodyne:g", 60, 64),
    ("scale:loss", 20, 32), ("scale:loss", 40, 64), ("scale:loss", 60, 64),
    ("scale:heterodyne:g", 20, 32), ("scale:heterodyne:g", 40, 32),
    ("scale:heterodyne:g", 60, 32),
)
CV_SWEEPS = (("gain", 20, 32), ("tau", 40, 32), ("lambda", 20, 32), ("eta", 40, 32))
CV_CONVERTS = (("loss", 40, 32), ("heterodyne", 20, 32))


def cv_fidelity_cycle(eb, rng, ctx) -> list[Op]:
    def lam_eta():
        return _r(rng.uniform(0.5, 2.0), 3), _r(rng.uniform(0.3, 1.0), 3)
    ops = []
    for name, cutoff, grid in CV_RUNS:
        lam, eta = lam_eta()
        ops.append(cv_run_op(eb, cv_channel(name, rng), lam, eta, cutoff, grid))
    for param, cutoff, grid in CV_SWEEPS:
        lam, eta = lam_eta()
        ops.append(cv_sweep_op(eb, param, rng, lam, eta, cutoff, grid))
    for name, cutoff, grid in CV_CONVERTS:
        lam, eta = lam_eta()
        X = _r(rng.uniform(0.0, 0.1), 3)
        ops.append(cv_convert_op(eb, cv_channel(name, rng), lam, eta, X, cutoff, grid))
    return ops


# ---------------------------------------------------------------------------
# Choi-state oracle
# ---------------------------------------------------------------------------

def _build(eb, ch: CVChannel, space):
    return eb.build_channel(eb.parse_channel_spec(ch.spec), fock_space=space)


def oracle_fidelity_op(eb, kind, rng, cutoff, grid) -> Op:
    """consistency_check of the fidelity witness; both routes against the closed form."""
    lam, eta = _r(rng.uniform(0.5, 2.0), 3), _r(rng.uniform(0.3, 1.0), 3)
    X = _r(rng.uniform(0.01, 0.1), 3)
    sa, sb = eb.FockSpace(cutoff, "A"), eb.FockSpace(cutoff, "B")
    ch = cv_channel(kind, rng, max_gain=0.8)

    def call():
        p = eb.GaussianBenchParams.from_lambda_eta(lam, eta, X=X)
        w = eb.fidelity_witness(p.X, p.u2, p.v2, sa, sb)
        psi = eb.two_mode_squeezed_ket(p.xi, sa, sb)
        quad = eb.QuadratureGrid.gauss_laguerre(1.0 - p.xi ** 2, grid, grid)
        return p, eb.consistency_check(w, psi, _build(eb, ch, sa), quad)

    def check(res):
        p, rep = res
        _require(rep.gap <= CV_ROUTE_TOL, f"route gap {rep.gap:.3e} [{ch.spec}]")
        ref = witness_value(ch.kind, ch.par, X, p.u2, p.v2, p.xi)
        _close(rep.choi_value, ref, CV_TOL + 2.0 * tmsv_tail(p.xi, cutoff),
               f"Choi value [{ch.spec}]")
        return Outcome()
    return Op(f"oracle fidelity {ch.spec} c{cutoff} g{grid}", call, check,
              cutoff=cutoff, grid=grid)


def oracle_terms_op(eb, kind, rng, cutoff, grid) -> Op:
    """consistency_check of W = I (x) b^dag b - (a (x) b + a^dag (x) b^dag)/2.

    On the truncated two-mode squeezed state and a channel with E^dag(a) = f a
    (f = sqrt(tau) for loss, the gain for heterodyne) the value is
    [sum n p_n - f sum (n+1) xi p_n] / sum p_n with p_n = (1 - xi^2) xi^(2n).
    Loss and identity are exact on the truncated space.  Heterodyne is not: its
    re-prepared kets |g b> lose their Fock tail, which moves the value by 5e-5
    at cutoff 12 and gain 0.5 but by 1.7e-2 at gain 0.8, so gains stay <= 0.5.
    """
    lam = _r(rng.uniform(0.5, 2.0), 3)
    xi = math.sqrt(1.0 / (1.0 + lam))
    sa, sb = eb.FockSpace(cutoff, "A"), eb.FockSpace(cutoff, "B")
    ch = cv_channel(kind, rng, max_gain=0.5)
    f = math.sqrt(ch.par) if ch.kind == "loss" else ch.par

    def call():
        a, ad = eb.mode_operators(sa)
        w = eb.TermsWitness([eb.WitnessTerm(np.eye(sa.dim), 1, 1, 1.0),
                             eb.WitnessTerm(a.matrix, 1, 0, -0.5),
                             eb.WitnessTerm(ad.matrix, 0, 1, -0.5)])
        psi = eb.two_mode_squeezed_ket(xi, sa, sb)
        quad = eb.QuadratureGrid.gauss_laguerre(1.0 - xi * xi, grid, grid)
        return eb.consistency_check(w, psi, _build(eb, ch, sa), quad)

    def check(rep):
        _require(rep.gap <= CV_ROUTE_TOL, f"route gap {rep.gap:.3e} [{ch.spec}]")
        n = np.arange(cutoff + 1)
        pn = (1.0 - xi * xi) * xi ** (2 * n)
        ref = (np.sum(n * pn) - f * np.sum((n[1:]) * xi * pn[:-1])) / np.sum(pn)
        _close(rep.choi_value, float(ref), CV_ROUTE_TOL, f"Choi value [{ch.spec}]")
        return Outcome()
    return Op(f"oracle terms {ch.spec} c{cutoff} g{grid}", call, check,
              cutoff=cutoff, grid=grid)


CHOI_FIDELITY = tuple((k, c, 64) for c in (20, 30, 40)
                      for k in ("identity", "loss", "heterodyne:g")) + \
    (("identity", 20, 32), ("loss", 20, 32), ("heterodyne:g", 20, 32))
CHOI_TERMS = tuple((k, c, 32) for c in (12, 20)
                   for k in ("identity", "loss", "heterodyne:g")) + \
    (("identity", 12, 64), ("loss", 12, 64))


def choi_oracle_cycle(eb, rng, ctx) -> list[Op]:
    return ([oracle_fidelity_op(eb, k, rng, c, g) for k, c, g in CHOI_FIDELITY]
            + [oracle_terms_op(eb, k, rng, c, g) for k, c, g in CHOI_TERMS])


# ---------------------------------------------------------------------------
# finite-dimensional Schmidt-number benchmark
# ---------------------------------------------------------------------------

def g_value(k, d):
    return ((d - k) * math.cos(2.0 * math.pi / d) + (d + k)) / d


@dataclass
class DVChannel:
    spec: str
    value: float | None      # exact Schmidt value, None for rank_k
    q: float = 1.0


DV_KINDS = ("depolarizing", "z_mp", "x_mp", "rank_k", "identity", "scale")


def dv_channel(kind: str, rng, k: int) -> DVChannel:
    if kind == "depolarizing":
        p = _r(rng.uniform(0.0, 1.0), 4)
        return DVChannel(f"depolarizing:{p}", 2.0 * (1.0 - p))
    if kind in ("z_mp", "x_mp"):
        return DVChannel(kind, 1.0)
    if kind == "rank_k":
        return DVChannel(f"rank_k:{int(rng.integers(1, k + 1))}:{int(rng.integers(0, 10**6))}", None)
    if kind == "identity":
        return DVChannel("identity", 2.0)
    q = _r(rng.uniform(0.1, 1.0), 4)
    inner = dv_channel(("depolarizing", "z_mp", "x_mp", "rank_k")[int(rng.integers(4))], rng, k)
    return DVChannel(f"scale:{q}:{inner.spec}", inner.value, q)


def _check_margin(margin, ch: DVChannel, g, what):
    """Exact margin g - value, or margin >= -1e-9 for Kraus rank <= k."""
    if ch.value is None:
        _require(margin >= -DV_TOL, f"{what}: rank-k margin {margin!r} < 0 [{ch.spec}]")
        return None
    return _close(margin, g - ch.value, DV_TOL, f"{what} [{ch.spec}]")


def dv_run_op(eb, ch: DVChannel, d, k) -> Op:
    argv = ["dv", "--channel", ch.spec, "--d", str(d), "--k", str(k)]

    def check(res):
        r = _ok_json(res)["results"]
        g = g_value(k, d)
        _close(r["g"], g, 1e-12, "g")
        _close(r["P_s"], ch.q, DV_TOL, "P_s")
        err = _check_margin(r["margin"], ch, g, "dv margin")
        return Outcome(budget_miss=None if err is None else err > r["error_estimate"])
    return Op(f"dv {ch.spec} d{d} k{k}", cli_call(eb, argv), check)


def dv_convert_op(eb, ch: DVChannel, d, k) -> Op:
    argv = ["convert", "--channel", ch.spec, "--d", str(d),
            "--witness", f"schmidt_witness({k},{d})"]

    def check(res):
        r = _ok_json(res)["results"]
        _close(r["P_s"], ch.q, DV_TOL, "P_s")
        err = _check_margin(r["value"], ch, g_value(k, d), "convert value")
        return Outcome(budget_miss=None if err is None else err > r["error_estimate"])
    return Op(f"convert schmidt {ch.spec} d{d} k{k}", cli_call(eb, argv), check)


def dv_sweep_op(eb, param, rng, d) -> Op:
    """sweep --format csv over p (depolarizing) or k; columns and rows checked."""
    if param == "p":
        lo, hi = _r(rng.uniform(0.0, 0.3), 3), _r(rng.uniform(0.6, 1.0), 3)
        argv = ["sweep", "--param", "p", "--channel", "depolarizing:0.5", "--d", str(d),
                "--start", repr(lo), "--stop", repr(hi), "--steps", "5", "--format", "csv"]
    else:
        p = _r(rng.uniform(0.0, 1.0), 4)
        argv = ["sweep", "--param", "k", "--channel", f"depolarizing:{p}", "--d", str(d),
                "--start", "1", "--stop", str(d - 1), "--steps", str(d - 1),
                "--format", "csv"]

    def check(res):
        rc, out, err = res
        _require(rc == 0, f"exit {rc}: {err.strip()[:200]}")
        rows = list(csv.reader(io.StringIO(out)))
        _require(rows and rows[0] == SWEEP_COLUMNS, f"CSV header {rows[:1]}")
        want = 5 if param == "p" else d - 1
        _require(len(rows) == want + 1, f"{len(rows) - 1} CSV rows, want {want}")
        misses = []
        for i, row in enumerate(rows[1:]):
            rec = dict(zip(SWEEP_COLUMNS, row))
            _require(int(rec["step"]) == i and rec["param"] == param, f"row {i} {row}")
            pv = float(rec["param_value"])
            if param == "p":
                k, value = 1, 2.0 * (1.0 - pv)
            else:
                k, value = int(pv), 2.0 * (1.0 - p)
                _require(k == i + 1, f"row {i} k={k}")
            g = g_value(k, d)
            _close(float(rec["bound"]), g, 1e-12, "bound")
            e = _close(float(rec["value"]), value, DV_TOL, "sweep value")
            _close(float(rec["margin"]), g - value, DV_TOL, "sweep margin")
            misses.append(e > float(rec["error_estimate"]))
        return Outcome(budget_miss=any(misses))
    return Op(f"sweep {param} d{d}", cli_call(eb, argv), check)


def dv_oracle_op(eb, ch: DVChannel, d, k) -> Op:
    def call():
        chan = eb.build_channel(eb.parse_channel_spec(ch.spec), qudit_dim=d)
        return eb.consistency_check(eb.schmidt_witness_pairs(k, d),
                                    eb.max_entangled_state(d), chan)

    def check(rep):
        _require(rep.gap <= DV_ORACLE_TOL, f"oracle gap {rep.gap:.3e} [{ch.spec}]")
        _check_margin(rep.ensemble_value, ch, g_value(k, d), "oracle value")
        return Outcome()
    return Op(f"oracle schmidt {ch.spec} d{d} k{k}", call, check)


def _expect_exit(code):
    def check(res):
        rc, _, err = res
        _require(rc == code, f"exit {rc}, want {code}: {err.strip()[:200]}")
        return Outcome()
    return check


def dv_error_ops(eb, rng, ctx) -> list[Op]:
    d = int(rng.integers(2, 9))
    zero = str(ctx.zero_kraus(d))
    return [
        Op("error bad-json config", cli_call(eb, ["dv", "--config", str(ctx.bad_json)]),
           _expect_exit(EXIT_CONFIG)),
        Op("error unknown-key config", cli_call(eb, ["dv", "--config", str(ctx.unknown_key)]),
           _expect_exit(EXIT_CONFIG)),
        Op("error k > d-1", cli_call(eb, ["dv", "--d", str(d), "--k", str(d)]),
           _expect_exit(EXIT_CONFIG)),
        Op(f"error dv zero kraus d{d}",
           cli_call(eb, ["dv", "--channel", f"kraus:{zero}", "--d", str(d)]),
           _expect_exit(EXIT_NUMERICAL), known_defect=ZERO_KRAUS_DEFECT),
        Op(f"error convert zero kraus d{d}",
           cli_call(eb, ["convert", "--channel", f"kraus:{zero}", "--d", str(d),
                         "--witness", f"schmidt_witness(1,{d})"]),
           _expect_exit(EXIT_NUMERICAL)),
    ]


DV_PAIRS = tuple((d, k) for d in range(2, 9) for k in range(1, d))
DV_SWEEPS = (("p", 3), ("p", 6), ("k", 7))


def dv_schmidt_cycle(eb, rng, ctx) -> list[Op]:
    ops = []
    for i, (d, k) in enumerate(DV_PAIRS):
        ops.append(dv_run_op(eb, dv_channel(DV_KINDS[i % 6], rng, k), d, k))
        ops.append(dv_convert_op(eb, dv_channel(DV_KINDS[(i + 3) % 6], rng, k), d, k))
    ops += [dv_sweep_op(eb, param, rng, d) for param, d in DV_SWEEPS]
    ops += [dv_oracle_op(eb, dv_channel(DV_KINDS[i % 6], rng, k), d, k)
            for i, (d, k) in enumerate(DV_PAIRS) if d <= 4]
    return ops + dv_error_ops(eb, rng, ctx)


# ---------------------------------------------------------------------------
# inputs written to disk and cases too large to run
# ---------------------------------------------------------------------------

class FileInputs:
    """Config and Kraus files the error-path ops read, under one directory."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.dir = directory
        self.bad_json = directory / "bad.json"
        self.bad_json.write_text('{"mode": "dv", "d": 3,', encoding="utf-8")
        self.unknown_key = directory / "unknown.json"
        self.unknown_key.write_text('{"mode": "dv", "d": 3, "bogus": 1}', encoding="utf-8")
        self._zero = {}

    def zero_kraus(self, d: int) -> Path:
        if d not in self._zero:
            path = self.dir / f"zero{d}.npz"
            np.savez(path, k0=np.zeros((d, d), dtype=complex))
            self._zero[d] = path
        return self._zero[d]


def _cv_oracle_bytes(cutoff, closure_nodes=64 * 64):
    big_d = (cutoff + 1) ** 2
    return big_d * big_d * 16, closure_nodes * big_d * 16


SKIPPED = {
    "cv-fidelity": [Skipped(
        "cv heterodyne c20..c60 g128", 128 ** 4 * 16,
        "Channel.transfer on a 128^2 heterodyne grid holds several N x K complex "
        "temporaries; with K = 16384 nodes and up to N = 16384 inputs each is up to "
        "4.29e9 B")],
    "choi-oracle": [Skipped(
        "oracle fidelity c80", sum(_cv_oracle_bytes(80)),
        "J at cutoff 80 is 6561^2 complex = %.3g B and each K x D^2 product "
        "4096 x 6561 complex = %.3g B" % _cv_oracle_bytes(80))],
    "dv-schmidt": [],
}

WORKLOADS = {
    "cv-fidelity": cv_fidelity_cycle,
    "choi-oracle": choi_oracle_cycle,
    "dv-schmidt": dv_schmidt_cycle,
}
