"""Truncated-Fock-space linear algebra: tagged spaces, states, mode operators,
tensor products, partial traces and expectation values.

All states and operators live on explicitly tagged Hilbert spaces so that
multi-mode objects can be composed and reduced by label.  Matrices are dense
complex numpy arrays; a two-mode object at cutoff 40 is 1681-dimensional,
well inside the dense regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

HERMITICITY_TOL = 1e-12
NORM_WARN_TOL = 1e-8


@dataclass(frozen=True)
class Space:
    """A tagged finite-dimensional Hilbert space."""

    label: str
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"space {self.label!r} needs dim >= 2, got {self.dim}")


@dataclass(frozen=True)
class FockSpace:
    """A single bosonic mode truncated at photon number `cutoff`.

    The basis is |0>, ..., |cutoff| so the dimension is cutoff + 1.
    """

    cutoff: int
    label: str = "mode"

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def suggest_cutoff(alpha_sq_max: float) -> int:
    """Cutoff rule for coherent-state content up to |alpha|^2 = alpha_sq_max.

    Returns max(20, ceil(m + 6*sqrt(m))), which keeps the Poisson photon-number
    tail of any coherent state with |alpha|^2 <= m below ~1e-6 (six-sigma),
    under the quadrature error of the default grids.
    """
    if alpha_sq_max < 0:
        raise ValueError("alpha_sq_max must be >= 0")
    m = float(alpha_sq_max)
    return max(20, int(math.ceil(m + 6.0 * math.sqrt(m))))


def _as_spaces(spaces) -> tuple:
    if isinstance(spaces, (Space, FockSpace)):
        return (spaces,)
    return tuple(spaces)


def _total_dim(spaces: tuple) -> int:
    d = 1
    for s in spaces:
        d *= s.dim
    return d


def _check_disjoint(a: tuple, b: tuple):
    clash = {s.label for s in a} & {s.label for s in b}
    if clash:
        raise ValueError(f"clashing space tags: {sorted(clash)}")


class StateVector:
    """A pure state on one or more tagged spaces.

    `norm_defect` records probability mass lost to truncation when the state
    was constructed from an infinite-dimensional analytic form; it is 0 for
    states that are exact on the truncated space.
    """

    def __init__(self, amplitudes: np.ndarray, spaces, norm_defect: float = 0.0):
        spaces = _as_spaces(spaces)
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.size != _total_dim(spaces):
            raise ValueError(
                f"amplitude length {amplitudes.size} does not match spaces "
                f"{[s.label for s in spaces]} of total dim {_total_dim(spaces)}"
            )
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("non-finite amplitudes")
        self.amplitudes = amplitudes
        self.spaces = spaces
        self.norm_defect = float(norm_defect)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def truncation_warning(self) -> bool:
        return self.norm_defect > NORM_WARN_TOL

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize zero vector")
        return StateVector(self.amplitudes / n, self.spaces, self.norm_defect)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()),
                               self.spaces)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in overlap")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        tags = ",".join(s.label for s in self.spaces)
        return f"StateVector(spaces=[{tags}], dim={self.dim}, norm={self.norm:.6g})"


class DensityOperator:
    """A (possibly unnormalized) Hermitian operator on tagged spaces.

    Physical states are positive with trace <= 1; trace-decreasing channel
    outputs are represented by trace < 1.
    """

    def __init__(self, matrix: np.ndarray, spaces, check: bool = True):
        spaces = _as_spaces(spaces)
        matrix = np.asarray(matrix, dtype=complex)
        d = _total_dim(spaces)
        if matrix.shape != (d, d):
            raise ValueError(f"matrix shape {matrix.shape} does not match total dim {d}")
        if check:
            h = float(np.max(np.abs(matrix - matrix.conj().T)))
            if h > max(HERMITICITY_TOL, 1e-12 * max(1.0, float(np.max(np.abs(matrix))))):
                raise ValueError(f"matrix is not Hermitian (defect {h:.3e})")
        self.matrix = matrix
        self.spaces = spaces

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def normalized(self) -> "DensityOperator":
        t = self.trace
        if t <= 0:
            raise ValueError("cannot normalize operator with non-positive trace")
        return DensityOperator(self.matrix / t, self.spaces, check=False)

    def __repr__(self):
        tags = ",".join(s.label for s in self.spaces)
        return f"DensityOperator(spaces=[{tags}], dim={self.dim}, trace={self.trace:.6g})"


class Operator:
    """A general (not necessarily Hermitian) operator on tagged spaces."""

    def __init__(self, matrix: np.ndarray, spaces):
        spaces = _as_spaces(spaces)
        matrix = np.asarray(matrix, dtype=complex)
        d = _total_dim(spaces)
        if matrix.shape != (d, d):
            raise ValueError(f"matrix shape {matrix.shape} does not match total dim {d}")
        self.matrix = matrix
        self.spaces = spaces

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "Operator":
        return type(self)(self.matrix.conj().T, self.spaces)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            return Operator(self.matrix @ other.matrix, self.spaces)
        return NotImplemented

    def __repr__(self):
        tags = ",".join(s.label for s in self.spaces)
        return f"{type(self).__name__}(spaces=[{tags}], dim={self.dim})"


class ModeOperator(Operator):
    """Single-mode operator with a named role (annihilation, creation, ...)."""

    def __init__(self, matrix, space, kind: str = "general"):
        super().__init__(matrix, space)
        self.kind = kind


def basis_ket(space, n: int) -> StateVector:
    """|n> on the given space."""
    if not 0 <= n < space.dim:
        raise ValueError(f"basis index {n} out of range for dim {space.dim}")
    amp = np.zeros(space.dim, dtype=complex)
    amp[n] = 1.0
    return StateVector(amp, space)


def coherent_kets(alphas, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Truncated coherent states |alpha_k>, one per row, with their tail masses.

    Returns (amps, norm_defects) of shapes (K, dim) and (K,).  Row k holds the
    amplitudes e^{-|a|^2/2} a^n / sqrt(n!) of the infinite-dimensional state,
    so its norm is slightly below 1; norm_defects[k] is the omitted Poisson
    tail (via the regularized incomplete gamma function).  The per-alpha
    scalars come from Python's math on complex(a) and only the (K, dim) steps
    are broadcast, so every row has the bits of a one-alpha call.
    """
    # SciPy loads on the first CV call, so DV-only processes never import it
    from scipy.special import gammainc, gammaln
    alphas = [complex(a) for a in alphas]
    if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in alphas):
        raise ValueError("alpha must be finite")
    n = np.arange(space.dim)
    mags = [abs(a) for a in alphas]
    asq = np.array([m ** 2 for m in mags])
    # log-magnitude form avoids overflow of alpha**n for large |alpha|; alpha = 0
    # takes log 1 here and gets the vacuum row below
    log_abs = np.array([math.log(m) if m else 0.0 for m in mags])
    theta = np.array([math.atan2(a.imag, a.real) for a in alphas])
    logmag = (-0.5 * asq)[:, None] + n * log_abs[:, None] - 0.5 * gammaln(n + 1.0)
    phase = np.exp(1j * n * theta[:, None])
    amps = np.exp(logmag) * phase
    # Poisson tail beyond the cutoff: P[X > cutoff], X ~ Poisson(|alpha|^2)
    defects = gammainc(space.cutoff + 1.0, asq)
    zero = np.array([not m for m in mags], dtype=bool)
    amps[zero] = 0.0
    amps[zero, 0] = 1.0
    defects[zero] = 0.0
    return amps, defects


def coherent_ket(alpha: complex, space: FockSpace) -> StateVector:
    """Truncated coherent state |alpha>: one row of `coherent_kets`.

    The vector norm is slightly below 1; the omitted Poisson tail is reported
    in `norm_defect`.
    """
    amps, defects = coherent_kets([alpha], space)
    return StateVector(amps[0], space, norm_defect=defects[0])


def two_mode_squeezed_ket(xi: float, space_a: FockSpace, space_b: FockSpace) -> StateVector:
    """Two-mode squeezed vacuum sqrt(1-xi^2) * sum_n xi^n |n>|n>, 0 < xi < 1."""
    xi = float(xi)
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    _check_disjoint((space_a,), (space_b,))
    if space_a.dim != space_b.dim:
        raise ValueError("two-mode squeezed state needs equal cutoffs on both modes")
    d = space_a.dim
    amp = np.zeros((d, d), dtype=complex)
    coeff = math.sqrt(1.0 - xi * xi) * xi ** np.arange(d)
    amp[np.arange(d), np.arange(d)] = coeff
    # geometric tail: sum_{n > cutoff} (1 - xi^2) xi^{2n} = xi^{2(cutoff+1)}
    defect = xi ** (2 * d)
    return StateVector(amp.reshape(-1), (space_a, space_b), norm_defect=defect)


def max_entangled_ket(space_a, space_b) -> StateVector:
    """|Phi_d> = d^{-1/2} sum_j |j>|j> on two equal-dimension spaces."""
    if space_a.dim != space_b.dim:
        raise ValueError("maximally entangled state needs equal dimensions")
    _check_disjoint((space_a,), (space_b,))
    d = space_a.dim
    amp = np.zeros((d, d), dtype=complex)
    amp[np.arange(d), np.arange(d)] = 1.0 / math.sqrt(d)
    return StateVector(amp.reshape(-1), (space_a, space_b))


def mode_operators(space: FockSpace) -> tuple[ModeOperator, ModeOperator]:
    """Annihilation and creation operators with a|n> = sqrt(n) |n-1>.

    On the truncated space [a, a^dagger] equals the identity on the span of
    |0>, ..., |cutoff-1>; the topmost diagonal entry is -cutoff, the usual
    truncation artifact.
    """
    d = space.dim
    a = np.zeros((d, d), dtype=complex)
    n = np.arange(1, d)
    a[n - 1, n] = np.sqrt(n)
    return (ModeOperator(a, space, kind="annihilation"),
            ModeOperator(a.conj().T, space, kind="creation"))


def number_operator(space: FockSpace) -> ModeOperator:
    return ModeOperator(np.diag(np.arange(space.dim, dtype=float)), space, kind="general")


def tensor(x, y):
    """Kronecker composite of two states or two operators with disjoint tags."""
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        _check_disjoint(x.spaces, y.spaces)
        return StateVector(np.kron(x.amplitudes, y.amplitudes),
                           x.spaces + y.spaces,
                           norm_defect=x.norm_defect + y.norm_defect)
    if isinstance(x, DensityOperator) and isinstance(y, DensityOperator):
        _check_disjoint(x.spaces, y.spaces)
        return DensityOperator(np.kron(x.matrix, y.matrix), x.spaces + y.spaces,
                               check=False)
    if isinstance(x, Operator) and isinstance(y, Operator):
        _check_disjoint(x.spaces, y.spaces)
        return Operator(np.kron(x.matrix, y.matrix), x.spaces + y.spaces)
    raise TypeError(f"cannot tensor {type(x).__name__} with {type(y).__name__}")


def _space_index(spaces: tuple, label: str) -> int:
    for i, s in enumerate(spaces):
        if s.label == label:
            return i
    raise ValueError(f"unknown space tag {label!r}; have {[s.label for s in spaces]}")


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every space except the one(s) named in `keep`.

    `keep` is a space label or a sequence of labels; the result keeps the
    retained spaces in their original order.  The total trace is preserved.
    """
    labels = (keep,) if isinstance(keep, str) else tuple(keep)
    keep_idx = sorted(_space_index(rho.spaces, lab) for lab in labels)
    if len(keep_idx) != len(set(keep_idx)):
        raise ValueError("duplicate labels in keep")
    dims = [s.dim for s in rho.spaces]
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # contract each traced space's bra index with its ket index
    for i in reversed(range(n)):
        if i in keep_idx:
            continue
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    kept = tuple(rho.spaces[i] for i in keep_idx)
    d = _total_dim(kept)
    return DensityOperator(t.reshape(d, d), kept, check=False)


def expectation(op, rho: DensityOperator) -> complex:
    """tr(op . rho) as a complex number.

    For Hermitian op and physical rho the imaginary part is a numerical-error
    diagnostic and should be below ~1e-10.
    """
    mat = op.matrix if isinstance(op, Operator) else np.asarray(op)
    if mat.shape != rho.matrix.shape:
        raise ValueError(f"dimension mismatch: op {mat.shape} vs rho {rho.matrix.shape}")
    # tr(AB) = sum(A^T * B) elementwise, avoids forming the product
    return complex(np.sum(mat.T * rho.matrix))


def random_ket(space, rng: np.random.Generator, envelope: float = 1.0) -> StateVector:
    """Random normalized state; amplitudes ~ complex normal * envelope^n."""
    d = space.dim
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if envelope != 1.0:
        amp = amp * envelope ** np.arange(d)
    amp /= np.linalg.norm(amp)
    return StateVector(amp, space)
