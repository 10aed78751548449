"""Completely positive maps, a channel zoo for benchmark tests, and
Choi-Jamiolkowski states.

Channels come in three forms: an explicit Kraus list, a continuous
measure-and-prepare map discretized on a quadrature grid, and a Choi-matrix
form.  All forms carry a global `scale` in (0, 1] so that trace-decreasing
filters q*E can be represented without touching the underlying map; apply()
then returns an unnormalized output with trace <= tr(rho).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, FockSpace, StateVector, coherent_kets
from .quadrature import QuadratureGrid

TP_TOL = 1e-9

# LRU bound on each memoised per-dimension constant (arrays read-only): every
# class k of every d <= 8 fits, and a sweep over d keeps the latest entries.
_MEMO_SIZE = 32

# Element budget of one row block of an (N, width) temporary: 2^19 complex
# values, 8 MB.  BLAS gives each row the bits of the unblocked call as long as
# blocks start at multiples of 8 and none has a single row (a 1-row product
# takes the gemv path); tests/test_row_blocks.py checks it.
_BLOCK_ELEMS = 1 << 19


def _row_blocks(n: int, width: int):
    """(start, stop) ranges over range(n) in order, each a multiple of 8 rows
    except the last, which absorbs a tail shorter than 8; n rows that fit the
    budget form one block."""
    rows = max(8, (_BLOCK_ELEMS // width) // 8 * 8)
    start = 0
    while start < n:
        stop = start + rows if n - start - rows >= 8 else n
        yield start, stop
        start = stop


def _flat_factors(left: np.ndarray, right: np.ndarray):
    """Broadcast the two leading axes of left and right against each other and
    merge them into one factor axis; a side of extent 1 stays a view."""
    lead = np.broadcast_shapes(left.shape[:2], right.shape[:2])
    return tuple(np.broadcast_to(f, lead + f.shape[2:]).reshape((-1,) + f.shape[2:])
                 for f in (left, right))


def _kraus_factors(stack: np.ndarray, mats: np.ndarray, weights: np.ndarray):
    # F = K_m (sqrt(w_e) Psi_e): L = K_m, and R = sqrt(w_e) Psi_e^T is shared by every m
    right = np.sqrt(weights)[:, None, None] * mats.transpose(0, 2, 1)
    return _flat_factors(stack[:, None], right[None])


class Channel:
    """Base class: a CP map on a `dim`-dimensional input, scaled by `scale`."""

    dim: int
    scale: float

    def _apply_vectors(self, vecs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """E(sum_r c_r |v_r><v_r|) without the global scale; rows of vecs are kets."""
        raise NotImplementedError

    def apply(self, rho):
        """Channel output scale * E(rho), unnormalized.

        Accepts a DensityOperator (returned as DensityOperator on the same
        spaces) or a raw Hermitian matrix (returned as ndarray).  The input is
        eigendecomposed, which both validates physicality and lets low-rank
        inputs be processed cheaply.
        """
        if isinstance(rho, DensityOperator):
            mat, spaces = rho.matrix, rho.spaces
        else:
            mat, spaces = np.asarray(rho, dtype=complex), None
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: channel dim {self.dim}, "
                             f"input shape {mat.shape}")
        evals, evecs = np.linalg.eigh(mat)
        scale_ref = max(1.0, float(np.abs(evals).max()))
        if evals[0] < -1e-8 * scale_ref:
            raise ValueError(f"input is not physical (eigenvalue {evals[0]:.3e})")
        keep = evals > 1e-15 * scale_ref
        out = self._apply_vectors(evecs[:, keep].T, evals[keep]) * self.scale
        if spaces is None:
            return out
        return DensityOperator(out, spaces, check=False)

    def apply_ket(self, ket) -> np.ndarray:
        """scale * E(|v><v|) as a raw matrix, no physicality checks."""
        v = ket.amplitudes if isinstance(ket, StateVector) else np.asarray(ket, dtype=complex)
        return self._apply_vectors(v[None, :], np.ones(1)) * self.scale

    def transfer(self, input_kets: np.ndarray, target_kets: np.ndarray):
        """Batched (traces, fidelities): tr E(|v_i><v_i|) and <t_i|E(|v_i><v_i|)|t_i>.

        Generic implementation loops over apply_ket; subclasses override with
        vectorized versions.  Rows of both arrays are kets.
        """
        n = input_kets.shape[0]
        traces = np.empty(n)
        fids = np.empty(n)
        for i in range(n):
            out = self.apply_ket(input_kets[i])
            traces[i] = np.trace(out).real
            t = target_kets[i]
            fids[i] = np.real(t.conj() @ out @ t)
        return traces, fids

    def choi_factors(self, mats: np.ndarray, weights: np.ndarray):
        """(left, right) with F_r = left[r] @ right[r].T and (E (x) I)(sum_e w_e
        |Psi_e><Psi_e|) = sum_r vec(F_r) vec(F_r)^dag without the global scale;
        mats (E, d_A, d_B) holds the Psi_e as matrices."""
        raise TypeError(f"unsupported channel type {type(self).__name__}")

    def scaled(self, q: float) -> "Channel":
        raise NotImplementedError

    def covariant_under(self, order: int) -> bool:
        """True if E commutes with the phase rotation e^{2 pi i n / order}."""
        return False

    @property
    def trace_preserving(self) -> bool:
        raise NotImplementedError


class KrausChannel(Channel):
    """scale * sum_m K_m rho K_m^dagger."""

    def __init__(self, kraus, scale: float = 1.0, name: str = "kraus"):
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        d = kraus[0].shape[0]
        for k in kraus:
            if k.shape != (d, d):
                raise ValueError("all Kraus operators must be square with equal dims")
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {scale}")
        self.kraus = kraus
        self.stack = np.stack(kraus)          # (n_kraus, d, d)
        self.dim = d
        self.scale = float(scale)
        self.name = name

    def _apply_vectors(self, vecs, coeffs):
        # rows: sqrt(c_r) K_m v_r for all (m, r)
        w = (self.stack @ vecs.T)             # (n_kraus, d, R)
        w = np.moveaxis(w, 2, 1).reshape(-1, self.dim)   # (n_kraus*R, d)
        w *= np.sqrt(coeffs)[None, :].repeat(self.stack.shape[0], axis=0).reshape(-1, 1)
        return w.T @ w.conj()

    def transfer(self, input_kets, target_kets):
        n = input_kets.shape[0]
        traces = np.zeros(n)
        fids = np.zeros(n)
        tc = target_kets.conj()
        for k in self.kraus:
            w = input_kets @ k.T              # rows: (K v_i)^T
            traces += np.sum(np.abs(w) ** 2, axis=1)
            amp = np.sum(tc * w, axis=1)
            fids += np.abs(amp) ** 2
        return traces * self.scale, fids * self.scale

    def choi_factors(self, mats, weights):
        return _kraus_factors(self.stack, mats, weights)

    def covariant_under(self, order):
        # K with all nonzeros on one diagonal j - i = c has K U = e^{ict} U K
        # for every phase rotation U = e^{itn}
        return all(len(set((j - i).tolist())) <= 1 for i, j in map(np.nonzero, self.kraus))

    def completeness(self) -> np.ndarray:
        """scale * sum K^dag K as a matrix."""
        return self.scale * sum(k.conj().T @ k for k in self.kraus)

    @property
    def trace_preserving(self) -> bool:
        return kraus_completeness(self).defect <= TP_TOL

    def scaled(self, q):
        return KrausChannel(self.kraus, scale=self.scale * q, name=self.name)


class MeasurePrepareChannel(Channel):
    """Continuous measure-and-prepare map on a quadrature grid.

    scale * sum_k w_k <b_k|rho|b_k> |p_k><p_k|, where w_k are bare d^2(beta)/pi
    weights, b_k the (exact truncated, hence sub-normalized) measurement
    coherent kets whose weighted projectors resolve the identity, and p_k the
    normalized re-prepared states.  This realizes maps of the form
    E(rho) = int (d^2 beta / pi) <beta|rho|beta> |f(beta)><f(beta)| and is
    entanglement breaking by construction.
    """

    def __init__(self, measure_kets, prep_kets, weights, scale: float = 1.0,
                 name: str = "measure_prepare", grid_meta: dict | None = None):
        self.measure = np.asarray(measure_kets, dtype=complex)
        self.prep = np.asarray(prep_kets, dtype=complex)
        self.weights = np.asarray(weights, dtype=float)
        if self.measure.shape != self.prep.shape or self.measure.shape[0] != self.weights.size:
            raise ValueError("measure/prep kets and weights must align")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        norms = np.linalg.norm(self.prep, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("re-prepared states must be normalized")
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {scale}")
        self.dim = self.measure.shape[1]
        self.scale = float(scale)
        self.name = name
        self.grid_meta = grid_meta or {}

    def _apply_vectors(self, vecs, coeffs):
        m = self.measure.conj() @ vecs.T       # (K, R): <b_k|v_r>
        probs = (np.abs(m) ** 2) @ coeffs      # (K,)
        c = self.weights * probs
        return (self.prep.T * c) @ self.prep.conj()

    def transfer(self, input_kets, target_kets):
        n = input_kets.shape[0]
        traces, fids = np.empty(n), np.empty(n)
        mc = self.measure.conj().T
        for a, b in _row_blocks(n, self.weights.size):
            m = input_kets[a:b] @ mc                   # (rows, K): <b_k|v_i>
            probs = np.abs(m) ** 2
            traces[a:b] = probs @ self.weights * self.scale
            g = target_kets[a:b].conj() @ self.prep.T  # (rows, K): <t_i|p_k>
            fids[a:b] = ((probs * np.abs(g) ** 2) @ self.weights) * self.scale
        return traces, fids

    def choi_factors(self, mats, weights):
        # F_{k,e} = sqrt(w_k) |p_k> (sqrt(w_e) <b_k|Psi_e>_A)^T, rank one (s = 1)
        left = (np.sqrt(self.weights)[:, None] * self.prep)[:, None, :, None]
        right = np.sqrt(weights)[:, None, None] * (self.measure.conj() @ mats)
        return _flat_factors(left, right.transpose(1, 0, 2)[..., None])

    def povm_closure_defect(self) -> float:
        """Spectral-norm distance of sum_k w_k |b_k><b_k| from the identity."""
        m = (self.measure.T * self.weights) @ self.measure.conj()
        return float(np.max(np.abs(np.linalg.eigvalsh(m - np.eye(self.dim)))))

    @property
    def trace_preserving(self) -> bool:
        return self.scale == 1.0 and self.povm_closure_defect() <= 1e-6

    def covariant_under(self, order):
        # heterodyne_mp keeps or drops whole rings of its grid, so the node set
        # is invariant under rotation by 2 pi / angular
        angular = self.grid_meta.get("angular")
        return angular is not None and angular % order == 0

    def scaled(self, q):
        ch = MeasurePrepareChannel(self.measure, self.prep, self.weights,
                                   scale=self.scale * q, name=self.name,
                                   grid_meta=self.grid_meta)
        return ch


class ChoiFormChannel(Channel):
    """Map stored as its Choi state J = (E (x) I)(Phi_d) plus the input dim."""

    def __init__(self, choi_matrix, input_dim: int, scale: float = 1.0,
                 name: str = "choi_form"):
        j = np.asarray(choi_matrix, dtype=complex)
        self.input_dim = int(input_dim)
        if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % self.input_dim:
            raise ValueError("Choi matrix shape incompatible with input dim")
        self.out_dim = j.shape[0] // self.input_dim
        self.choi = j
        self.dim = self.input_dim
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {scale}")
        self.scale = float(scale)
        self.name = name

    def _apply_vectors(self, vecs, coeffs):
        rho = (vecs.T * coeffs) @ vecs.conj()
        jt = self.choi.reshape(self.out_dim, self.input_dim,
                               self.out_dim, self.input_dim)
        return self.input_dim * np.einsum("ki,akbi->ab", rho, jt)

    def choi_factors(self, mats, weights):
        # Kraus operators sqrt(d lambda_i) V_i from the eigenpairs (lambda_i, vec V_i)
        evals, evecs = np.linalg.eigh(self.choi)
        keep = evals > 1e-15 * max(1.0, float(evals.max()))
        kraus = (evecs[:, keep] * np.sqrt(self.input_dim * evals[keep])).T
        return _kraus_factors(kraus.reshape(-1, self.out_dim, self.input_dim), mats, weights)

    @property
    def trace_preserving(self) -> bool:
        jt = self.choi.reshape(self.out_dim, self.input_dim,
                               self.out_dim, self.input_dim)
        red = np.trace(jt, axis1=0, axis2=2) * self.input_dim * self.scale
        return float(np.max(np.abs(red - np.eye(self.input_dim)))) <= 1e-6

    def scaled(self, q):
        return ChoiFormChannel(self.choi, self.input_dim,
                               scale=self.scale * q, name=self.name)


# ---------------------------------------------------------------------------
# channel zoo
# ---------------------------------------------------------------------------

def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim)], name="identity")


def pure_loss(tau: float, space: FockSpace) -> KrausChannel:
    """Bosonic pure-loss channel with transmissivity tau on a truncated mode.

    Standard damping Kraus set K_m = sum_n sqrt(C(n,m) tau^{n-m} (1-tau)^m)
    |n-m><n|; exact on the truncated space, maps |alpha> to |sqrt(tau) alpha>.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    d = space.dim
    ops = []
    for m in range(d):
        k = np.zeros((d, d), dtype=complex)
        for n in range(m, d):
            k[n - m, n] = math.sqrt(math.comb(n, m) * tau ** (n - m) * (1.0 - tau) ** m)
        if np.any(k != 0):
            ops.append(k)
    return KrausChannel(ops, name=f"pure_loss({tau})")


def heterodyne_mp(gain: float, space: FockSpace,
                  grid: QuadratureGrid | None = None,
                  radial: int = 64, angular: int = 64) -> MeasurePrepareChannel:
    """Heterodyne measure-and-prepare: E(rho) = int d^2b/pi <b|rho|b> |g b><g b|.

    The default grid is Gauss-Laguerre at weight scale 1 + gain^2, matching the
    Gaussian content of the measurement and re-preparation kets, so the
    discretization is quadrature-exact for inputs supported well below the
    cutoff.
    """
    if gain < 0:
        raise ValueError(f"gain must be >= 0, got {gain}")
    if grid is None:
        grid = QuadratureGrid.gauss_laguerre(1.0 + gain * gain, radial, angular)
    measure, _ = coherent_kets(grid.nodes, space)
    prep, _ = coherent_kets([gain * b for b in grid.nodes], space)
    norms = np.array([np.linalg.norm(p) for p in prep])
    # far-tail nodes whose re-prepared ket is wiped out by truncation carry
    # only exponentially small measurement probability; drop them outright
    keep = norms > 1e-12
    prep = prep[keep] / norms[keep, None]
    meta = dict(grid.metadata(), dropped_nodes=int(np.sum(~keep)))
    return MeasurePrepareChannel(measure[keep], prep, grid.bare_weights[keep],
                                 name=f"heterodyne_mp({gain})", grid_meta=meta)


def _fourier_basis(d: int) -> np.ndarray:
    """Columns l: |l_bar> = d^{-1/2} sum_j e^{2 pi i l j / d} |j>."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)


def qudit_depolarizing(d: int, p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + p I/d via the Weyl-operator Kraus set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError("d must be >= 2")
    ops = [math.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
    if p > 0:
        root = math.sqrt(p) / d
        ops += [root * w for w in _weyl_operators(d)]
    return KrausChannel(ops, name=f"depolarizing(d={d},p={p})")


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _weyl_operators(d: int) -> tuple[np.ndarray, ...]:
    """X^a Z^b for a, b in 0..d-1, in that order."""
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    x = np.roll(np.eye(d), 1, axis=0)
    ops = []
    for a in range(d):
        xa = np.linalg.matrix_power(x, a)
        for b in range(d):
            ops.append(xa @ np.linalg.matrix_power(z, b))
            ops[-1].setflags(write=False)
    return tuple(ops)


def z_measure_prepare(d: int) -> KrausChannel:
    """Measure in the computational basis, re-prepare the outcome state."""
    eye = np.eye(d, dtype=complex)
    return KrausChannel([np.outer(eye[j], eye[j]) for j in range(d)],
                        name=f"z_measure_prepare(d={d})")


def x_measure_prepare(d: int) -> KrausChannel:
    """Measure in the Fourier-conjugate basis, re-prepare the outcome state."""
    f = _fourier_basis(d)
    return KrausChannel([np.outer(f[:, j], f[:, j].conj()) for j in range(d)],
                        name=f"x_measure_prepare(d={d})")


def rank_k_random(d: int, k: int, seed: int, n_kraus: int | None = None) -> KrausChannel:
    """Random trace-preserving channel whose Kraus operators all have rank <= k.

    Construction: a Haar-ish random isometry gives a random Kraus set; each
    operator is truncated to its top-k singular components (which can only
    decrease sum K^dag K), and the positive residual I - sum K^dag K is
    absorbed by a rank-1 measure-and-prepare tail, so the channel is exactly
    trace preserving while every Kraus rank stays <= k.
    """
    if d < 2 or not 1 <= k <= d:
        raise ValueError(f"need d >= 2 and 1 <= k <= d, got d={d}, k={k}")
    n = n_kraus or d
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * d, d)) + 1j * rng.standard_normal((n * d, d))
    q, _ = np.linalg.qr(g)
    ops = []
    for i in range(n):
        block = q[i * d:(i + 1) * d, :]
        u, s, vh = np.linalg.svd(block)
        s[k:] = 0.0
        ops.append((u * s) @ vh)
    residual = np.eye(d) - sum(op.conj().T @ op for op in ops)
    evals, evecs = np.linalg.eigh(residual)
    for val, vec in zip(evals, evecs.T):
        if val > 1e-14:
            tail = np.zeros((d, d), dtype=complex)
            tail[0, :] = math.sqrt(val) * vec.conj()
            ops.append(tail)
    return KrausChannel(ops, name=f"rank_k_random(d={d},k={k},seed={seed})")


def kraus_explicit(matrices, allow_unnormalized: bool = False) -> KrausChannel:
    """Channel from user-supplied Kraus operators.

    Rejects sets with sum K^dag K exceeding the identity (not a valid quantum
    operation) unless `allow_unnormalized` is set.
    """
    ch = KrausChannel(list(matrices), name="kraus_explicit")
    if not allow_unnormalized:
        top = float(np.linalg.eigvalsh(ch.completeness())[-1])
        if top > 1.0 + TP_TOL:
            raise ValueError(
                f"Kraus set is not trace non-increasing (max eig of sum K^dag K "
                f"= {top:.6g}); pass allow_unnormalized=True to override")
    return ch


def filter_scale(q: float, inner: Channel) -> Channel:
    """Trace-decreasing filter q * E for q in (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return inner.scaled(q)


# ---------------------------------------------------------------------------
# diagnostics and Choi states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompletenessReport:
    trace_preserving: bool
    defect: float


def kraus_completeness(channel: Channel) -> CompletenessReport:
    """Spectral-norm defect of scale * sum K^dag K from the identity."""
    if not isinstance(channel, KrausChannel):
        raise TypeError("kraus_completeness needs a Kraus-form channel")
    m = channel.completeness() - np.eye(channel.dim)
    defect = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return CompletenessReport(trace_preserving=defect <= TP_TOL, defect=defect)


@dataclass(frozen=True, eq=False)
class ChoiState:
    """J = (E (x) I)(psi) = scale * sum_r vec(F_r) vec(F_r)^dag in factored form,
    F_r = left[r] @ right[r].T with left (R, d_A, s) and right (R, d_B, s),
    together with its success probability P_s = tr J."""

    left: np.ndarray
    right: np.ndarray
    scale: float
    spaces: tuple
    P_s: float
    source: str

    @functools.cached_property
    def J(self) -> DensityOperator:
        """The dense (d_A d_B)^2 matrix, built on first read."""
        u = (self.left @ self.right.transpose(0, 2, 1)).reshape(self.left.shape[0], -1)
        return DensityOperator((u.T @ u.conj()) * self.scale, self.spaces, check=False)

    def normalized(self) -> DensityOperator:
        return self.J.normalized()


def choi_state(channel: Channel, psi) -> ChoiState:
    """Local action (E (x) I)(psi) for a reference state on spaces (A, B).

    psi may be a StateVector or a DensityOperator; the channel acts on the
    first tagged space, whose dimension must match the channel input.
    """
    if isinstance(psi, StateVector):
        spaces = psi.spaces
        vecs = psi.amplitudes[None, :]
        weights = np.ones(1)
    elif isinstance(psi, DensityOperator):
        spaces = psi.spaces
        evals, evecs = np.linalg.eigh(psi.matrix)
        if evals[0] < -1e-8:
            raise ValueError("reference state is not physical")
        keep = evals > 1e-15 * max(1.0, evals.max())
        vecs, weights = evecs[:, keep].T, evals[keep]
    else:
        raise TypeError("psi must be a StateVector or DensityOperator")
    if len(spaces) != 2:
        raise ValueError("reference state must live on exactly two tagged spaces")
    da, db = spaces[0].dim, spaces[1].dim
    if channel.dim != da:
        raise ValueError(f"channel input dim {channel.dim} != reference A dim {da}")
    left, right = channel.choi_factors(vecs.reshape(-1, da, db), weights)
    # tr J = scale * sum_r sum((L_r^dag L_r) o (R_r^dag R_r))
    gram = (left.conj().transpose(0, 2, 1) @ left) * (right.conj().transpose(0, 2, 1) @ right)
    ps = channel.scale * float(np.sum(gram).real)
    return ChoiState(left=left, right=right, scale=channel.scale, spaces=spaces, P_s=ps,
                     source=getattr(channel, "name", "channel"))


def channel_choi_matrix(channel: Channel, labels=("A", "B")) -> ChoiState:
    """Canonical Choi state from the maximally entangled reference Phi_d."""
    from .fock import Space, max_entangled_ket  # local import: helper lives there
    d = channel.dim
    a, b = Space(labels[0], d), Space(labels[1], d)
    return choi_state(channel, max_entangled_ket(a, b))


# ---------------------------------------------------------------------------
# channel specs (CLI-facing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    params: tuple

    def as_dict(self) -> dict:
        return dict(self.params)

    def describe(self) -> str:
        inner = self.as_dict()
        parts = [f"{k}={v.describe() if isinstance(v, ChannelSpec) else v}"
                 for k, v in inner.items()]
        return f"{self.kind}({', '.join(parts)})"


_SPEC_KINDS = {"identity", "pure_loss", "heterodyne_mp", "qudit_depolarizing",
               "z_measure_prepare", "x_measure_prepare", "rank_k_random",
               "kraus_explicit", "filter_scale"}

_ALIASES = {"loss": "pure_loss", "heterodyne": "heterodyne_mp",
            "depolarizing": "qudit_depolarizing", "z_mp": "z_measure_prepare",
            "x_mp": "x_measure_prepare", "rank_k": "rank_k_random",
            "kraus": "kraus_explicit", "scale": "filter_scale",
            "id": "identity"}


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse CLI channel strings like 'loss:0.64' or 'scale:0.3:loss:0.64'."""
    head, _, rest = text.strip().partition(":")
    kind = _ALIASES.get(head, head)
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown channel kind {head!r}")
    if kind == "identity":
        if rest:
            raise ValueError("identity takes no parameter")
        return ChannelSpec("identity", ())
    if kind == "pure_loss":
        return ChannelSpec(kind, (("tau", float(rest)),))
    if kind == "heterodyne_mp":
        gain = None if rest in ("", "opt", "optimal") else float(rest)
        return ChannelSpec(kind, (("gain", gain),))
    if kind == "qudit_depolarizing":
        return ChannelSpec(kind, (("p", float(rest)),))
    if kind in ("z_measure_prepare", "x_measure_prepare"):
        if rest:
            raise ValueError(f"{head} takes no parameter")
        return ChannelSpec(kind, ())
    if kind == "rank_k_random":
        fields = rest.split(":") if rest else []
        if len(fields) not in (1, 2):
            raise ValueError("rank_k needs K or K:SEED")
        k = int(fields[0])
        seed = int(fields[1]) if len(fields) == 2 else 0
        return ChannelSpec(kind, (("k", k), ("seed", seed)))
    if kind == "kraus_explicit":
        if not rest:
            raise ValueError("kraus needs a path to an .npz of operators")
        return ChannelSpec(kind, (("path", rest),))
    # filter_scale: scale:Q:<inner spec>
    q_text, _, inner_text = rest.partition(":")
    if not inner_text:
        raise ValueError("scale needs Q and an inner channel, e.g. scale:0.3:loss:0.64")
    return ChannelSpec(kind, (("q", float(q_text)),
                              ("inner", parse_channel_spec(inner_text))))


def _load_kraus_npz(path: str) -> list[np.ndarray]:
    """The arrays of an .npz archive in name order; file problems raise ValueError."""
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load Kraus operators from {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"kraus needs an .npz archive of operators; {path} holds one array")
    with data:
        return [data[name] for name in sorted(data.files)]


def build_channel(spec: ChannelSpec, *, fock_space: FockSpace | None = None,
                  qudit_dim: int | None = None,
                  grid: QuadratureGrid | None = None,
                  default_gain: float | None = None,
                  radial: int = 64, angular: int = 64) -> Channel:
    """Materialize a ChannelSpec in a CV (fock_space) or DV (qudit_dim) context.

    `radial`/`angular` size the internal grid of continuous channels when no
    explicit grid is given, so channel and benchmark share one error model.
    """
    p = spec.as_dict()
    kind = spec.kind
    if kind == "identity":
        if fock_space is not None:
            return identity_channel(fock_space.dim)
        if qudit_dim is not None:
            return identity_channel(qudit_dim)
        raise ValueError("identity needs a CV space or a qudit dimension")
    if kind == "pure_loss":
        if fock_space is None:
            raise ValueError("pure_loss is a CV channel; no Fock space in context")
        return pure_loss(p["tau"], fock_space)
    if kind == "heterodyne_mp":
        if fock_space is None:
            raise ValueError("heterodyne_mp is a CV channel; no Fock space in context")
        gain = p["gain"] if p["gain"] is not None else default_gain
        if gain is None:
            raise ValueError("heterodyne_mp needs a gain (or a benchmark context "
                             "that determines the optimal gain)")
        return heterodyne_mp(gain, fock_space, grid=grid, radial=radial,
                             angular=angular)
    if qudit_dim is None and kind in ("qudit_depolarizing", "z_measure_prepare",
                                      "x_measure_prepare", "rank_k_random"):
        raise ValueError(f"{kind} is a qudit channel; no dimension in context")
    if kind == "qudit_depolarizing":
        return qudit_depolarizing(qudit_dim, p["p"])
    if kind == "z_measure_prepare":
        return z_measure_prepare(qudit_dim)
    if kind == "x_measure_prepare":
        return x_measure_prepare(qudit_dim)
    if kind == "rank_k_random":
        return rank_k_random(qudit_dim, p["k"], p["seed"])
    if kind == "kraus_explicit":
        ch = kraus_explicit(_load_kraus_npz(p["path"]))
        want = fock_space.dim if fock_space is not None else qudit_dim
        if want is not None and ch.dim != want:
            run = (f"the Fock space at cutoff {fock_space.cutoff} has dimension {want}"
                   if fock_space is not None else f"the run has d = {want}")
            raise ValueError(f"the Kraus operators in {p['path']} act on dimension "
                             f"{ch.dim}, but {run}")
        return ch
    if kind == "filter_scale":
        inner = build_channel(p["inner"], fock_space=fock_space,
                              qudit_dim=qudit_dim, grid=grid,
                              default_gain=default_gain, radial=radial,
                              angular=angular)
        return filter_scale(p["q"], inner)
    raise ValueError(f"unknown channel kind {kind!r}")
