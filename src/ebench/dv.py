"""Finite-dimensional benchmark: generalized Pauli operators, mutually unbiased
bases, and the Schmidt-number test for qudit channels.

Probing a d-dimensional channel with the 2d states of two mutually unbiased
bases (the computational basis and its Fourier conjugate) and measuring the
generalized Pauli operators bounds the averaged phase-coherence sum for every
channel whose Kraus operators all have rank <= k:

    value <= g_{k,d} = [(d - k) cos(2 pi / d) + (d + k)] / d.

A violation certifies that every Kraus representation contains an operator of
rank k+1 or higher; k = 1 is the entanglement-breaking class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import _MEMO_SIZE, Channel, _fourier_basis
from .fock import DensityOperator, Space, StateVector, max_entangled_ket
from .witness import EvaluationError, QuditPairsWitness, pairs_conversion

DV_ERROR_FLOOR = 1e-12

WEIGHTING_NOTE = ("success probability averages the 2d basis inputs with uniform "
                  "weights 1/(2d); the phase-coherence sum carries the factor 1/2 "
                  "pinned by the Choi-state oracle")


@dataclass(frozen=True)
class QuditSystem:
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.d


@dataclass(frozen=True)
class GeneralizedPauli:
    """Clock and shift operators Z = diag(e^{i w j}), X|j> = |j+1 mod d>."""
    d: int
    Z: np.ndarray
    X: np.ndarray

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.d


def gen_pauli(d: int) -> GeneralizedPauli:
    """Generalized Pauli pair with construction-time invariant checks."""
    return _gen_pauli(d)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _gen_pauli(d: int) -> GeneralizedPauli:
    sys = QuditSystem(d)
    z = np.diag(np.exp(1j * sys.omega * np.arange(d)))
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    for name, mat in (("Z^d", np.linalg.matrix_power(z, d)),
                      ("X^d", np.linalg.matrix_power(x, d))):
        if np.max(np.abs(mat - np.eye(d))) > 1e-12 * d:
            raise AssertionError(f"{name} != identity beyond tolerance")
    comm = x @ z - np.exp(-1j * sys.omega) * (z @ x)
    if np.max(np.abs(comm)) > 1e-12 * d:
        raise AssertionError("XZ != e^{-i omega} ZX beyond tolerance")
    z.setflags(write=False)
    x.setflags(write=False)
    return GeneralizedPauli(d=d, Z=z, X=x)


def mub_bases(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two mutually unbiased bases used by the benchmark.

    Returns (computational, fourier) with basis states as columns; column l of
    the second array is |l_bar> = Z^l (d^{-1/2} sum_j |j>), an eigenvector of X
    with eigenvalue e^{-i omega l}.
    """
    return _mub_bases(d)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _mub_bases(d: int) -> tuple[np.ndarray, np.ndarray]:
    QuditSystem(d)
    fourier = _fourier_basis(d)
    comp = np.eye(d, dtype=complex)
    comp.setflags(write=False)
    fourier.setflags(write=False)
    return comp, fourier


def g_value(k: int, d: int) -> float:
    """g_{k,d} = [(d - k) cos(2 pi/d) + (d + k)] / d, the class-k bound."""
    QuditSystem(d)
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    w = 2.0 * math.pi / d
    return ((d - k) * math.cos(w) + (d + k)) / d


def schmidt_witness_matrix(k: int, d: int) -> np.ndarray:
    """Two-qudit witness g_{k,d} I - (Z(x)Z^dag + Z^dag(x)Z + X(x)X + X^dag(x)X^dag)/2.

    Nonnegative on every state of Schmidt number <= k; a negative expectation
    certifies Schmidt number k+1 or higher.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in [1, {d - 1}], got {k}")
    p = gen_pauli(d)
    zd, xd = p.Z.conj().T, p.X.conj().T
    w = g_value(k, d) * np.eye(d * d, dtype=complex)
    w -= 0.5 * (np.kron(p.Z, zd) + np.kron(zd, p.Z)
                + np.kron(p.X, p.X) + np.kron(xd, xd))
    return w


def schmidt_witness_pairs(k: int, d: int) -> QuditPairsWitness:
    """The same witness in Hermitian-pairs form for the spectral conversion.

    Z (x) Z^dag + Z^dag (x) Z = 2 (C (x) C + S (x) S) with C, S the Hermitian
    parts of Z (diagonal in the computational basis), and the X block likewise
    in the Fourier basis, so every B-side factor is Hermitian as required.
    """
    return _schmidt_witness_pairs(k, d)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _schmidt_witness_pairs(k: int, d: int) -> QuditPairsWitness:
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in [1, {d - 1}], got {k}")
    p = gen_pauli(d)
    cz, sz = 0.5 * (p.Z + p.Z.conj().T), -0.5j * (p.Z - p.Z.conj().T)
    cx, sx = 0.5 * (p.X + p.X.conj().T), -0.5j * (p.X - p.X.conj().T)
    eye = np.eye(d, dtype=complex)
    w = QuditPairsWitness([
        (g_value(k, d) * eye, eye),
        (-cz, cz), (-sz, sz),
        (-cx, cx), (sx, sx),
    ])
    for mat in (m for pair in w.pairs for m in pair):
        mat.setflags(write=False)
    return w


def max_entangled_state(d: int, labels=("A", "B")) -> StateVector:
    """|Phi_d> on two tagged qudit spaces."""
    return max_entangled_ket(Space(labels[0], d), Space(labels[1], d))


@dataclass(frozen=True)
class SchmidtBenchReport:
    """Outcome of the Schmidt-number benchmark for channel class k.

    `value` is the success-normalized phase-coherence sum; margin = g - value
    equals the witness expectation on the normalized Choi state and is
    invariant under trace-decreasing filters.  margin < 0 certifies that some
    Kraus operator has rank >= k + 1.
    """
    value: float
    g: float
    margin: float
    k: int
    d: int
    P_s: float
    error_estimate: float
    notes: tuple = (WEIGHTING_NOTE,)

    @property
    def violated(self) -> bool:
        return self.margin < -self.error_estimate


def schmidt_benchmark(channel: Channel, k: int, d: int) -> SchmidtBenchReport:
    """Run the MUB-input benchmark against the class-k bound g_{k,d}.

    value = (1/P_s) (1/2d) sum_j tr[ (Z e^{-iwj} + Z^dag e^{iwj}) E(|j><j|)
                                   + (X e^{-iwj} + X^dag e^{iwj}) E(|-j_bar><-j_bar|) ],
    P_s   = (1/2d) sum_j ( tr E(|j><j|) + tr E(|-j_bar><-j_bar|) ).
    """
    if channel.dim != d:
        raise ValueError(f"channel dim {channel.dim} != d = {d}")
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in [1, {d - 1}], got {k}")
    p = gen_pauli(d)
    comp, fourier = mub_bases(d)
    total = 0.0 + 0.0j
    ps = 0.0
    w = p.omega
    for j in range(d):
        ph = np.exp(-1j * w * j)
        out_z = channel.apply_ket(comp[:, j])
        ps += float(np.trace(out_z).real)
        # tr(Z B) = sum(Z^T * B); tr(Z^dag B) = sum(Z* . B) elementwise
        total += ph * np.sum(p.Z.T * out_z) + np.conj(ph) * np.sum(p.Z.conj() * out_z)
        out_x = channel.apply_ket(fourier[:, (-j) % d])
        ps += float(np.trace(out_x).real)
        total += ph * np.sum(p.X.T * out_x) + np.conj(ph) * np.sum(p.X.conj() * out_x)
    ps /= 2.0 * d
    if ps < 1e-12:
        raise EvaluationError(f"channel annihilates the benchmark inputs (P_s = {ps:.3e})")
    raw = total / (2.0 * d)
    value = float(raw.real) / ps
    imag = abs(float(raw.imag)) / ps
    g = g_value(k, d)
    return SchmidtBenchReport(value=value, g=g, margin=g - value, k=k, d=d,
                              P_s=ps, error_estimate=imag + DV_ERROR_FLOOR)


def finite_dim_conversion(w: QuditPairsWitness, psi):
    """Witness -> (ensemble, EB evaluator) via spectral decomposition on B.

    The ensemble members are the relative states of the B-side eigenvectors of
    each Hermitian factor with respect to psi; the evaluator computes the
    success-normalized EB value for any channel on the A side.
    """
    if not isinstance(w, QuditPairsWitness):
        raise TypeError("finite-dimensional conversion needs a qudit-pairs witness")
    if not isinstance(psi, (StateVector, DensityOperator)):
        raise TypeError("psi must be a StateVector or DensityOperator")
    return pairs_conversion(w, psi)
