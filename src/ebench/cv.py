"""Continuous-variable fidelity benchmark on Gaussian-distributed coherent states.

The input ensemble draws coherent states |alpha> with density
(lam/pi) e^{-lam |alpha|^2}; the figure of merit is the average fidelity of the
channel output to the target |sqrt(eta) alpha>.  No entanglement-breaking map
can push the success-normalized average fidelity above

    threshold(lam, eta) = (1 + lam) / (1 + lam + eta),

so margin = threshold - F_avg < 0 certifies genuinely quantum transmission.
The threshold is exactly the best achievable value within the heterodyne
measure-and-prepare family, reached at gain sqrt(eta)/(1 + lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, MeasurePrepareChannel
from .fock import FockSpace, Operator, coherent_kets
from .quadrature import QuadratureGrid
from .witness import CoherentIntegralWitness, EvaluationError, KetEnsemble

CV_ERROR_FLOOR = 1e-5

THRESHOLD_NOTE = ("fidelity threshold (1+lambda)/(1+lambda+eta) equals u^2 of the "
                  "underlying witness; the witness constraint u^2 + v^2 = 1 fixes "
                  "1/u^2 = (1+lambda+eta)/(1+lambda)")


@dataclass(frozen=True)
class GaussianBenchParams:
    """Consistent parameter set (lam, eta, xi, u2, v2, X) for the benchmark.

    The squeezing xi of the equivalent two-mode reference state and the
    witness weights (u2, v2) are tied to (lam, eta) by

        xi^2 = 1 / (1 + lam),   u2 = (1 + lam) / (1 + lam + eta),   v2 = 1 - u2,

    equivalently lam = (1 - xi^2)/xi^2 and eta = v2 / (xi^2 u2).
    """
    lam: float
    eta: float
    xi: float
    u2: float
    v2: float
    X: float = 0.0

    @classmethod
    def from_lambda_eta(cls, lam: float, eta: float, X: float = 0.0) -> "GaussianBenchParams":
        """Solve (xi, u2, v2) so the witness at regulator X induces (lam, eta).

        At X = 0 this reduces to xi^2 = 1/(1+lam), u2 = (1+lam)/(1+lam+eta).
        """
        if lam <= 0 or eta < 0 or X < 0:
            raise ValueError("need lam > 0, eta >= 0, X >= 0")
        denom = 1.0 + lam - X * eta
        if denom <= 1.0 + X:
            raise ValueError(f"regulator X={X} too large for lam={lam}, eta={eta}")
        xi = math.sqrt((1.0 + X) / denom)
        u2 = 1.0 / (1.0 + eta * xi * xi)
        return cls(lam=lam, eta=eta, xi=xi, u2=u2, v2=1.0 - u2, X=X)

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie in (0, 1), got {self.xi}")
        if self.u2 <= 0:
            raise ValueError("u2 must be positive")
        xi2 = self.xi ** 2
        checks = {
            "lam = (X/u2 + 1 - xi^2)/xi^2":
                abs(self.lam - (self.X / self.u2 + 1.0 - xi2) / xi2),
            "u2 + v2 = 1": abs(self.u2 + self.v2 - 1.0),
            "eta = v2/(xi^2 u2)": abs(self.eta - self.v2 / (xi2 * self.u2)),
        }
        bad = {k: v for k, v in checks.items() if v > 1e-12 * max(1.0, self.lam, self.eta)}
        if bad:
            raise ValueError(f"inconsistent parameters: {bad}")


def extrapolate_to_zero(xs, ys) -> float:
    """Neville polynomial extrapolation of samples (x_i, y_i) to x = 0.

    Used for the regulator limit X -> 0 of witness values, which converge
    linearly in X with small higher-order corrections.
    """
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    n = len(xs)
    if n < 2 or len(ys) != n:
        raise ValueError("need matching xs/ys with at least two samples")
    for lvl in range(1, n):
        for i in range(n - lvl):
            ys[i] = (xs[i + lvl] * ys[i] - xs[i] * ys[i + 1]) / (xs[i + lvl] - xs[i])
    return ys[0]


def benchmark_threshold(lam: float, eta: float) -> float:
    """(1 + lam)/(1 + lam + eta); the lam = 0 limit gives 1/(1 + eta)."""
    if lam < 0 or eta < 0:
        raise ValueError("lam and eta must be non-negative")
    return (1.0 + lam) / (1.0 + lam + eta)


def optimal_heterodyne_gain(lam: float, eta: float) -> float:
    """Gain maximizing the heterodyne average fidelity: sqrt(eta)/(1 + lam)."""
    if lam < 0 or eta < 0:
        raise ValueError("lam and eta must be non-negative")
    return math.sqrt(eta) / (1.0 + lam)


def gaussian_coherent_ensemble(lam: float, grid: QuadratureGrid,
                               space: FockSpace) -> KetEnsemble:
    """Coherent states at the grid nodes, Gaussian-weighted with width 1/lam.

    For lam = 0 the grid must be a flat disk (explicit limit mode): the density
    is uniform on |alpha| <= alpha_max.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam == 0:
        if grid.lam != 0.0:
            raise ValueError("lam = 0 is supported only with a flat-disk grid "
                             "(explicit limit mode with a cut radius)")
        weights = grid.weights / grid.alpha_max ** 2
        density = np.full(grid.size, 1.0 / grid.alpha_max ** 2)
    else:
        density = lam * np.exp(-lam * np.abs(grid.nodes) ** 2)
        if grid.lam == 0.0:
            weights = density * grid.weights
        else:
            if abs(grid.lam - lam) > 1e-12 * max(1.0, lam):
                raise ValueError(f"grid weight scale {grid.lam} does not match lam={lam}")
            weights = lam * grid.weights
    drop = density < 1e-14
    # summed in node order: np.sum's pairwise order would move the last bits
    dropped = 0.0
    for w in weights[drop].tolist():
        dropped += w
    if drop.all():
        raise EvaluationError("all ensemble weights vanished")
    labels = grid.nodes[~drop]
    amps, defects = coherent_kets(labels, space)
    norms = np.array([np.linalg.norm(a) for a in amps])
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize zero vector")
    return KetEnsemble(weights[~drop], amps / norms[:, None], labels, defects, space,
                       dropped_mass=dropped,
                       meta={"grid": grid.metadata(), "lam": lam,
                             "source": "gaussian_coherent"})


@dataclass(frozen=True)
class FidelityBenchReport:
    """Outcome of the coherent-state fidelity benchmark.

    F_avg is normalized by the success probability, so margin =
    threshold - F_avg is invariant under trace-decreasing filters q * E; for
    trace-preserving channels it coincides with P_s * threshold - (raw F).
    Violation (margin < 0) certifies the channel is not entanglement breaking.
    """
    F_avg: float
    P_s: float
    threshold: float
    margin: float
    quadrature_error: float
    lam: float
    eta: float
    grid: dict = field(default_factory=dict)
    notes: tuple = (THRESHOLD_NOTE,)

    @property
    def violated(self) -> bool:
        return self.margin < -self.quadrature_error


def fidelity_benchmark(channel: Channel, lam: float, eta: float,
                       grid: QuadratureGrid, space: FockSpace) -> FidelityBenchReport:
    """Average fidelity of channel outputs to |sqrt(eta) alpha> over the ensemble.

    F_avg = (1/P_s) (lam/pi) int e^{-lam|a|^2} <sqrt(eta) a|E(|a><a|)|sqrt(eta) a> d^2a,
    P_s   =         (lam/pi) int e^{-lam|a|^2} tr E(|a><a|) d^2a.

    A channel covariant under the grid's phase rotations gives every node of a
    ring the same trace and fidelity, so each ring is evaluated once (grid.rings()).
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    ens_grid = grid.rings() if channel.covariant_under(grid.angular_count) else grid
    ens = gaussian_coherent_ensemble(lam, ens_grid, space)
    # exact truncated targets, never renormalized: truncation then strictly
    # underestimates fidelity, so numerical error cannot fabricate violations
    root_eta = math.sqrt(eta)
    targets, target_defects = coherent_kets([root_eta * a for a in ens.labels], space)
    target_defect = float(np.sum(ens.weights * target_defects))
    traces, fids = channel.transfer(ens.kets(), targets)
    ps = float(np.sum(ens.weights * traces))
    if ps < 1e-12:
        raise EvaluationError(f"channel annihilates the ensemble (P_s = {ps:.3e})")
    f_avg = float(np.sum(ens.weights * fids)) / ps
    thr = benchmark_threshold(lam, eta)
    member_defect = float(np.sum(ens.weights * ens.norm_defects))
    err = (ens.weight_defect + ens.dropped_mass + target_defect + member_defect
           + CV_ERROR_FLOOR)
    if isinstance(channel, MeasurePrepareChannel):
        err += channel.povm_closure_defect()
    return FidelityBenchReport(F_avg=f_avg, P_s=ps, threshold=thr,
                               margin=thr - f_avg, quadrature_error=err,
                               lam=lam, eta=eta, grid=grid.metadata())


# ---------------------------------------------------------------------------
# the underlying witness
# ---------------------------------------------------------------------------

def fidelity_witness(X: float, u2: float, v2: float, space_a: FockSpace,
                     space_b: FockSpace) -> CoherentIntegralWitness:
    """Witness I/(1+X) - (1/pi) int e^{-X|a|^2} |va><va| (x) |ua*><ua*| d^2a.

    Stored in closure-normalized form (substituting beta = u alpha):
    const = 1/(1+X), kernel(beta) = e^{-(X/u^2)|beta|^2}/u^2, A-side family
    |(v/u) beta>.  Its expectation is >= 0 on every separable two-mode state.
    """
    if X < 0:
        raise ValueError("X must be >= 0")
    if u2 <= 0 or abs(u2 + v2 - 1.0) > 1e-9:
        raise ValueError("need u2 > 0 and u2 + v2 = 1")
    u = math.sqrt(u2)
    ratio = math.sqrt(v2) / u

    def kernel(beta: complex) -> float:
        return math.exp(-(X / u2) * abs(beta) ** 2) / u2

    def a_kets(betas) -> np.ndarray:
        return coherent_kets([ratio * b for b in betas], space_a)[0]

    return CoherentIntegralWitness(const=1.0 / (1.0 + X), kernel=kernel,
                                   a_kets=a_kets, a_space=space_a, b_space=space_b,
                                   closure_lam=(1.0 + X) / u2,
                                   meta={"X": X, "u2": u2, "v2": v2})


def witness14_matrix(X: float, u2: float, v2: float, space_a: FockSpace,
                     space_b: FockSpace, grid: QuadratureGrid | None = None) -> Operator:
    """Assembled two-mode witness matrix, Hermitian by construction.

    Quadrature runs in the original integration variable with Gaussian scale
    1 + X (the projector pair contributes e^{-(u^2+v^2)|a|^2} = e^{-|a|^2}).
    For X = 0 an explicit grid (finite cut radius) must be supplied.
    """
    if u2 <= 0 or abs(u2 + v2 - 1.0) > 1e-9:
        raise ValueError("need u2 > 0 and u2 + v2 = 1")
    if grid is None:
        if X <= 0:
            raise ValueError("X = 0 needs an explicit grid with a finite cut radius")
        grid = QuadratureGrid.gauss_laguerre(1.0 + X, 64, 64)
    u, v = math.sqrt(u2), math.sqrt(v2)
    a_rows, _ = coherent_kets([v * a for a in grid.nodes], space_a)
    b_rows, _ = coherent_kets([u * np.conj(a) for a in grid.nodes], space_b)
    kern = grid.bare_weights * np.exp(-X * np.abs(grid.nodes) ** 2)
    rows = (a_rows[:, :, None] * b_rows[:, None, :]).reshape(grid.size, -1)
    rows = rows * np.sqrt(kern)[:, None]
    integral = rows.T @ rows.conj()
    d = space_a.dim * space_b.dim
    w = np.eye(d, dtype=complex) / (1.0 + X) - integral
    defect = float(np.max(np.abs(w - w.conj().T)))
    if defect > 1e-9:
        raise EvaluationError(f"assembled witness not Hermitian (defect {defect:.3e})")
    return Operator(w, (space_a, space_b))
