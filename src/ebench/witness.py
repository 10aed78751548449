"""Witness-to-EB-condition engine.

Given an entanglement witness and an entangled reference state, the reference
induces an ensemble of single-system input states; expectation values of the
witness on the channel's Choi state then become weighted sums of expectation
values over channel outputs.  A map that is entanglement breaking must keep
the resulting value >= 0, so a negative value certifies the channel is not EB.

Three witness forms are supported:

* ``TermsWitness``        -- sum_t coeff_t A_t (x) (b^dag)^m b^n, normal ordered
                             in the mode-B operators;
* ``CoherentIntegralWitness`` -- const * I - int kernel(a) |f(a)><f(a)| (x)
                             |a*><a*| d^2a/pi, already expanded in coherent
                             states on B;
* ``QuditPairsWitness``   -- sum_l w_A^(l) (x) h_B^(l) with Hermitian h_B.

The first two are evaluated through the anti-normal symbol machinery; the
qudit-pairs form goes through the spectral decomposition of each h_B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import Channel, ChoiState, _row_blocks
from .fock import (DensityOperator, FockSpace, StateVector, coherent_kets,
                   mode_operators)
from .quadrature import QuadratureGrid

DROP_DENSITY = 1e-14


class EvaluationError(RuntimeError):
    """Raised when a numerical evaluation cannot produce a meaningful value."""


# ---------------------------------------------------------------------------
# operator reordering
# ---------------------------------------------------------------------------

def antinormal_reorder(n: int, m: int) -> list[tuple[int, int, int]]:
    """Anti-normal expansion of the normal-ordered monomial (b^dag)^m b^n.

    Returns [(coeff, n', m'), ...] such that

        (b^dag)^m b^n = sum_k coeff_k * b^{n'_k} (b^dag)^{m'_k},

    with coeff_k = (-1)^k k! C(m,k) C(n,k), n' = n-k, m' = m-k.  Coefficients
    are exact integers.
    """
    if n < 0 or m < 0:
        raise ValueError("powers must be non-negative")
    out = []
    for k in range(min(n, m) + 1):
        coeff = (-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k)
        out.append((coeff, n - k, m - k))
    return out


def normal_ordered_matrix(n: int, m: int, space: FockSpace) -> np.ndarray:
    """Matrix of (b^dag)^m b^n on the truncated space."""
    a, ad = mode_operators(space)
    return np.linalg.matrix_power(ad.matrix, m) @ np.linalg.matrix_power(a.matrix, n)


def antinormal_ordered_matrix(n: int, m: int, space: FockSpace) -> np.ndarray:
    """Matrix of b^n (b^dag)^m on the truncated space."""
    a, ad = mode_operators(space)
    return np.linalg.matrix_power(a.matrix, n) @ np.linalg.matrix_power(ad.matrix, m)


# ---------------------------------------------------------------------------
# witness forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessTerm:
    """coeff * A (x) (b^dag)^m b^n with A acting on the first system."""
    a_matrix: np.ndarray
    n: int
    m: int
    coeff: complex


class TermsWitness:
    """Witness given as normal-ordered polynomial terms on mode B."""

    def __init__(self, terms: Sequence[WitnessTerm]):
        if not terms:
            raise ValueError("witness needs at least one term")
        da = np.asarray(terms[0].a_matrix).shape[0]
        for t in terms:
            mat = np.asarray(t.a_matrix)
            if mat.shape != (da, da):
                raise ValueError("all A-side matrices must share one dimension")
            if t.n < 0 or t.m < 0:
                raise ValueError("mode powers must be non-negative")
        self.terms = tuple(terms)
        self.a_dim = da

    def symbol(self) -> Callable[[complex], np.ndarray]:
        """alpha -> W(a, a^dag, alpha*, alpha) as an A-operator.

        Each term is reordered anti-normally and the mode operators replaced
        by b -> alpha*, b^dag -> alpha.
        """
        expansions = [(np.asarray(t.a_matrix, dtype=complex), t.coeff,
                       antinormal_reorder(t.n, t.m)) for t in self.terms]

        def sym(alpha: complex) -> np.ndarray:
            ac = np.conj(alpha)
            out = np.zeros((self.a_dim, self.a_dim), dtype=complex)
            for mat, coeff, terms in expansions:
                scalar = sum(c * ac ** nn * alpha ** mm for c, nn, mm in terms)
                out += (coeff * scalar) * mat
            return out
        return sym

    def operator_pairs(self, b_space: FockSpace) -> list[tuple[np.ndarray, np.ndarray]]:
        """[(coeff_t A_t, (b^dag)^m b^n)] after checking that their Kronecker sum
        W is Hermitian, one A row of W at a time (no (d_A d_B)^2 array)."""
        pairs = [(t.coeff * np.asarray(t.a_matrix, dtype=complex),
                  normal_ordered_matrix(t.n, t.m, b_space)) for t in self.terms]
        defect = top = 0.0
        for i in range(self.a_dim):
            row = sum(np.multiply.outer(a[i], n) for a, n in pairs)
            adj = sum(np.multiply.outer(a[:, i].conj(), n.conj().T) for a, n in pairs)
            defect = max(defect, float(np.max(np.abs(row - adj))))
            top = max(top, float(np.max(np.abs(row))))
        if defect > 1e-10 * max(1.0, top):
            raise ValueError(f"assembled witness is not Hermitian (defect {defect:.3e})")
        return pairs


class CoherentIntegralWitness:
    """Witness const * I - int kernel(a) |f(a)><f(a)|_A (x) |a*><a*|_B d^2a/pi.

    `a_kets(alphas)` must return, one row per alpha, the exact truncated
    amplitudes of the A-side state family (including its own Gaussian
    factor), and `kernel` the scalar weight; `closure_lam` is the total
    Gaussian decay rate of kernel * |f|^2 * |closure ket|^2, used to build
    quadrature grids.
    """

    def __init__(self, const: float, kernel: Callable, a_kets: Callable,
                 a_space: FockSpace, b_space: FockSpace, closure_lam: float,
                 meta: dict | None = None):
        self.const = float(const)
        self.kernel = kernel
        self.a_kets = a_kets
        self.a_space = a_space
        self.b_space = b_space
        self.closure_lam = float(closure_lam)
        self.meta = meta or {}
        self.a_dim = a_space.dim

    def symbol(self) -> Callable[[complex], np.ndarray]:
        eye = np.eye(self.a_dim, dtype=complex)

        def sym(alpha: complex) -> np.ndarray:
            f = self.a_kets([alpha])[0]
            return self.const * eye - self.kernel(alpha) * np.outer(f, f.conj())
        return sym

    def target_kets(self, alphas: np.ndarray) -> np.ndarray:
        return self.a_kets(alphas)

    def closure_grid(self, radial: int = 64, angular: int = 64) -> QuadratureGrid:
        return QuadratureGrid.gauss_laguerre(self.closure_lam, radial, angular)


class QuditPairsWitness:
    """Witness sum_l w_A^(l) (x) h_B^(l) with every h_B Hermitian."""

    def __init__(self, pairs: Sequence[tuple[np.ndarray, np.ndarray]]):
        if not pairs:
            raise ValueError("witness needs at least one pair")
        checked = []
        da = np.asarray(pairs[0][0]).shape[0]
        db = np.asarray(pairs[0][1]).shape[0]
        for w_a, h_b in pairs:
            w_a = np.asarray(w_a, dtype=complex)
            h_b = np.asarray(h_b, dtype=complex)
            if w_a.shape != (da, da) or h_b.shape != (db, db):
                raise ValueError("pair matrices must share dimensions across pairs")
            if np.max(np.abs(h_b - h_b.conj().T)) > 1e-10:
                raise ValueError("every B-side operator must be Hermitian")
            checked.append((w_a, h_b))
        self.pairs = tuple(checked)
        self.a_dim, self.b_dim = da, db
        w = self.assemble()
        if np.max(np.abs(w - w.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
            raise ValueError("assembled witness is not Hermitian")

    def assemble(self) -> np.ndarray:
        return sum(np.kron(w_a, h_b) for w_a, h_b in self.pairs)


WitnessSpec = TermsWitness | CoherentIntegralWitness | QuditPairsWitness


def witness_symbol(w) -> Callable[[complex], np.ndarray]:
    """Operator-valued symbol alpha -> W(a, a^dag, alpha*, alpha)."""
    if isinstance(w, (TermsWitness, CoherentIntegralWitness)):
        return w.symbol()
    raise TypeError("symbol evaluation applies to the mode-B witness forms; "
                    "qudit-pairs witnesses go through finite-dimensional conversion")


# ---------------------------------------------------------------------------
# input ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleMember:
    weight: float
    state: StateVector | DensityOperator
    label: object

    def density(self) -> DensityOperator:
        return self.state.density() if isinstance(self.state, StateVector) else self.state


class InputEnsemble:
    """Weighted single-system input states {(p, phi, label)} with sum p ~ 1."""

    def __init__(self, members: Sequence[EnsembleMember], dropped_mass: float = 0.0,
                 meta: dict | None = None):
        if not members:
            raise ValueError("ensemble has no members")
        self.members = list(members)
        self.dropped_mass = float(dropped_mass)
        self.meta = meta or {}
        for m in self.members:
            if m.weight <= 0:
                raise ValueError("member weights must be positive")

    def __len__(self):
        return len(self.members)

    @property
    def weights(self) -> np.ndarray:
        return np.array([m.weight for m in self.members])

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def weight_defect(self) -> float:
        return abs(self.total_weight - 1.0)

    @property
    def labels(self) -> list:
        return [m.label for m in self.members]

    def kets(self) -> np.ndarray | None:
        """(N, d) array of member kets if every member is pure, else None."""
        if all(isinstance(m.state, StateVector) for m in self.members):
            return np.stack([m.state.amplitudes for m in self.members])
        return None


class KetEnsemble(InputEnsemble):
    """Pure-state ensemble held as arrays on one space.

    Rows of `kets` (N, d) are the normalized member states, with `weights`,
    `labels` and `norm_defects` of shape (N,).  EnsembleMember objects are
    built only when `members` is read.
    """

    def __init__(self, weights: np.ndarray, kets: np.ndarray, labels: np.ndarray,
                 norm_defects: np.ndarray, space, dropped_mass: float = 0.0,
                 meta: dict | None = None):
        if weights.size == 0:
            raise ValueError("ensemble has no members")
        if np.any(weights <= 0):
            raise ValueError("member weights must be positive")
        self._weights = weights
        self._kets = kets
        self._labels = labels
        self.norm_defects = norm_defects
        self.space = space
        self.dropped_mass = float(dropped_mass)
        self.meta = meta or {}

    def __len__(self):
        return self._weights.size

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def kets(self) -> np.ndarray:
        return self._kets

    @functools.cached_property
    def members(self) -> list[EnsembleMember]:
        return [EnsembleMember(weight=w, state=StateVector(ket, self.space, defect),
                               label=label)
                for w, ket, label, defect in zip(self._weights.tolist(), self._kets,
                                                 self._labels.tolist(),
                                                 self.norm_defects.tolist())]


def _relative_states(psi, b_kets: np.ndarray):
    """Sandwich <k|psi|k>_B for each row of b_kets (conjugation included).

    Returns (densities p_k, list of normalized relative states on A).  psi may
    be pure or mixed on tagged spaces (A, B); rows of b_kets are the bra
    amplitudes already conjugated, i.e. <bra| v = row . v.
    """
    if isinstance(psi, StateVector):
        spaces = psi.spaces
        mats = [psi.amplitudes.reshape(spaces[0].dim, spaces[1].dim)]
        evals = np.ones(1)
    else:
        spaces = psi.spaces
        e, v = np.linalg.eigh(psi.matrix)
        if e[0] < -1e-8:
            raise ValueError("reference state is not physical")
        keep = e > 1e-15 * max(1.0, float(e.max()))
        evals = e[keep]
        da, db = spaces[0].dim, spaces[1].dim
        mats = [v[:, i].reshape(da, db) for i in np.nonzero(keep)[0]]
    a_space = spaces[0]
    # sqrt(w_r) Psi_r . row_k per eigenvector, so |v|^2 sums carry the weights
    vs = [math.sqrt(w) * (b_kets @ m.T) for w, m in zip(evals, mats)]  # (K, da)
    probs = sum(np.sum(np.abs(v) ** 2, axis=1) for v in vs)
    pure = len(mats) == 1
    states = []
    for k in range(b_kets.shape[0]):
        p = probs[k]
        if p <= 0:
            states.append(None)
            continue
        if pure:
            states.append(StateVector(vs[0][k] / math.sqrt(p), a_space))
        else:
            mat = sum(np.outer(v[k], v[k].conj()) for v in vs) / p
            states.append(DensityOperator(mat, a_space, check=False))
    return probs, states


def ensemble_from_state(psi, grid: QuadratureGrid) -> InputEnsemble:
    """Coherent-state resolved ensemble induced by a two-mode reference state.

    At each grid node alpha the mode-B sandwich <alpha*|psi|alpha*> defines a
    density p_alpha and a normalized relative state on A; quadrature weights
    turn the density into member weights with sum ~ 1.  Nodes with density
    below 1e-14 are dropped and accounted in `dropped_mass`.
    """
    if len(psi.spaces) != 2:
        raise ValueError("reference state must live on two tagged spaces")
    b_space = psi.spaces[1]
    # <alpha*| rows: conj of |alpha*> amplitudes = amplitudes of |alpha>
    rows, _ = coherent_kets(grid.nodes, b_space)
    probs, states = _relative_states(psi, rows)
    members, dropped = [], 0.0
    for k in range(grid.size):
        w = grid.bare_weights[k] * probs[k]
        if probs[k] < DROP_DENSITY or states[k] is None:
            dropped += w
            continue
        members.append(EnsembleMember(weight=w, state=states[k],
                                      label=complex(grid.nodes[k])))
    if not members:
        raise EvaluationError("every ensemble member was dropped; "
                              "check the grid scale against the reference state")
    return InputEnsemble(members, dropped_mass=dropped,
                         meta={"grid": grid.metadata(), "source": "relative_states"})


# ---------------------------------------------------------------------------
# EB values
# ---------------------------------------------------------------------------

@dataclass
class EBValue:
    """Left-hand side of the ensemble EB inequality (>= 0 for EB maps)."""
    value: float
    P_s: float
    decomposition: np.ndarray
    error_estimate: float
    imag_residual: float


def _ensemble_error(ens: InputEnsemble, imag_residual: float) -> float:
    return ens.weight_defect + ens.dropped_mass + imag_residual + 1e-12


def eb_value(w, ens: InputEnsemble, channel: Channel) -> EBValue:
    """(1/P_s) sum_k p_k tr[ W(a, a^dag, a_k*, a_k) E(phi_k) ].

    P_s = sum_k p_k tr[E(phi_k)] is the ensemble success probability; both the
    witness sum and P_s scale identically under trace-decreasing filters, so
    the value is invariant under q * E.
    """
    kets = ens.kets()
    if isinstance(w, CoherentIntegralWitness) and kets is not None:
        alphas = np.array(ens.labels, dtype=complex)
        targets = w.target_kets(alphas)
        traces, fids = channel.transfer(kets, targets)
        kern = np.array([w.kernel(a) for a in alphas])
        weights = ens.weights
        contrib = weights * (w.const * traces - kern * fids)
        ps = float(np.sum(weights * traces))
        imag = 0.0
    else:
        sym = witness_symbol(w)
        contrib = np.zeros(len(ens), dtype=complex)
        ps = 0.0
        for i, member in enumerate(ens.members):
            out = channel.apply(member.density()).matrix
            ps += member.weight * float(np.trace(out).real)
            contrib[i] = member.weight * np.sum(sym(member.label).T * out)
        imag = abs(float(np.sum(contrib).imag))
        contrib = contrib.real
    if ps < 1e-12:
        raise EvaluationError(f"channel annihilates the ensemble (P_s = {ps:.3e})")
    total = float(np.sum(contrib))
    return EBValue(value=total / ps, P_s=ps, decomposition=contrib,
                   error_estimate=_ensemble_error(ens, imag / ps),
                   imag_residual=imag / ps)


@dataclass(frozen=True)
class NonlinearCondition:
    """Separable condition F(<O_1>, ..., <O_N>) >= 0 with per-operator witnesses.

    The engine evaluates the replaced expectation values and applies the
    combiner; whether F >= 0 is a valid separable condition is the caller's
    responsibility.
    """
    symbols: tuple
    combiner: Callable


def nonlinear_eb_value(cond: NonlinearCondition, ens: InputEnsemble,
                       channel: Channel) -> float:
    """Combiner applied to the EB replacements of each expectation value."""
    syms = [witness_symbol(w) for w in cond.symbols]
    sums = np.zeros(len(syms), dtype=complex)
    ps = 0.0
    for member in ens.members:
        out = channel.apply(member.density()).matrix
        ps += member.weight * float(np.trace(out).real)
        for i, sym in enumerate(syms):
            sums[i] += member.weight * np.sum(sym(member.label).T * out)
    if ps < 1e-12:
        raise EvaluationError(f"channel annihilates the ensemble (P_s = {ps:.3e})")
    values = (sums / ps).real
    result = cond.combiner(*values)
    if not np.isfinite(result):
        raise EvaluationError(f"combiner returned a non-finite value: {result}")
    return float(result)


# ---------------------------------------------------------------------------
# qudit-pairs conversion (finite-dimensional analogue of the coherent closure)
# ---------------------------------------------------------------------------

def pairs_conversion(w: QuditPairsWitness, psi):
    """Spectral-decomposition conversion of a qudit-pairs witness.

    Each B-side operator h^(l) = sum_j h_j |j><j| induces ensemble members
    p_{j,l} = tr[(I (x) |j><j|) psi], phi_{j,l} = <j|psi|j>_B / p_{j,l}.
    Returns (ensemble, evaluator) where evaluator(channel) computes

        (1/P_s) sum_{j,l} p_{j,l} h_j tr[w^(l) E(phi_{j,l})]

    with P_s the uniformly weighted (1/L per decomposition) success
    probability, which is 1 for trace-preserving channels.
    """
    n_pairs = len(w.pairs)
    members, coeffs, a_ops, dropped = [], [], [], 0.0
    for l, (w_a, h_b) in enumerate(w.pairs):
        evals, evecs = np.linalg.eigh(h_b)
        rows = evecs.conj().T                 # <j| rows
        probs, states = _relative_states(psi, rows)
        for j in range(len(evals)):
            if probs[j] < 1e-12 or states[j] is None:
                dropped += probs[j] / n_pairs
                continue
            members.append(EnsembleMember(weight=probs[j] / n_pairs,
                                          state=states[j], label=(j, l)))
            coeffs.append(probs[j] * evals[j])
            a_ops.append(w_a)
    ens = InputEnsemble(members, dropped_mass=dropped,
                        meta={"source": "pairs_conversion", "pairs": n_pairs})
    coeffs_arr = np.array(coeffs)

    def evaluator(channel: Channel) -> EBValue:
        ps = 0.0
        contrib = np.zeros(len(members), dtype=complex)
        for i, member in enumerate(ens.members):
            out = channel.apply(member.density()).matrix
            ps += member.weight * float(np.trace(out).real)
            contrib[i] = coeffs_arr[i] * np.sum(a_ops[i].T * out)
        if ps < 1e-12:
            raise EvaluationError(f"channel annihilates the ensemble (P_s = {ps:.3e})")
        imag = abs(float(np.sum(contrib).imag)) / ps
        total = float(np.sum(contrib).real)
        return EBValue(value=total / ps, P_s=ps, decomposition=contrib.real,
                       error_estimate=_ensemble_error(ens, imag),
                       imag_residual=imag)
    return ens, evaluator


# ---------------------------------------------------------------------------
# Choi-side oracle
# ---------------------------------------------------------------------------

def _factored_trace(cs: ChoiState, pairs) -> complex:
    """tr[(sum_t A_t (x) N_t) J] = scale sum_{t,r} tr((L_r^dag A_t L_r)(R_r^T N_t^T conj R_r))."""
    lh, rt = cs.left.conj().transpose(0, 2, 1), cs.right.transpose(0, 2, 1)
    total = 0j
    for a, n in pairs:
        if a.shape[0] != cs.left.shape[1] or n.shape[0] != cs.right.shape[1]:
            raise ValueError("witness and Choi dimensions do not match")
        total += np.sum((lh @ a @ cs.left) * (rt @ n.T @ cs.right.conj()).transpose(0, 2, 1))
    return cs.scale * complex(total)


def choi_witness_expectation(w, cs: ChoiState, radial: int = 64,
                             angular: int = 64) -> float:
    """tr[W J] / P_s evaluated directly on the factors of the Choi state.

    For the coherent-integral form the integral is taken by quadrature over
    the projector family; the polynomial forms are summed exactly.
    """
    if isinstance(w, QuditPairsWitness):
        val = _factored_trace(cs, w.pairs)
    elif isinstance(w, TermsWitness):
        val = _factored_trace(cs, w.operator_pairs(cs.spaces[1]))
    elif isinstance(w, CoherentIntegralWitness):
        grid = w.closure_grid(radial, angular)
        a_rows = w.target_kets(grid.nodes).conj()
        b_rows = coherent_kets(grid.nodes.conj(), w.b_space)[0].conj()
        (n_r, d_a, s), d_b = cs.left.shape, cs.right.shape[1]
        if (a_rows.shape[1], b_rows.shape[1]) != (d_a, d_b):
            raise ValueError("witness and Choi dimensions do not match")
        lmat = cs.left.transpose(1, 0, 2).reshape(d_a, n_r * s)
        rmat = cs.right.transpose(1, 0, 2).reshape(d_b, n_r * s)
        kern = np.array([w.kernel(a) for a in grid.nodes])
        sand = np.empty(grid.size)
        for lo, hi in _row_blocks(grid.size, n_r * s):
            # <a_k (x) b_k|vec F_r> = sum_s (a_k^dag L_r)_s (b_k^dag R_r)_s, per block of nodes
            x = (a_rows[lo:hi] @ lmat).reshape(hi - lo, n_r, s)
            y = (b_rows[lo:hi] @ rmat).reshape(hi - lo, n_r, s)
            amp = np.einsum("krs,krs->kr", x, y).view(float)
            sand[lo:hi] = np.einsum("kr,kr->k", amp, amp)         # sum_r |amp_kr|^2
        val = w.const * cs.P_s - cs.scale * complex(np.sum(grid.bare_weights * kern * sand))
    else:
        raise TypeError(f"unsupported witness type {type(w).__name__}")
    if cs.P_s < 1e-12:
        raise EvaluationError("Choi state has vanishing success probability")
    out = val / cs.P_s
    if abs(out.imag) > 1e-8 * max(1.0, abs(out.real)):
        raise EvaluationError(f"witness expectation has a large imaginary part "
                              f"({out.imag:.3e}); check Hermiticity")
    return float(out.real)


@dataclass(frozen=True)
class ConsistencyReport:
    ensemble_value: float
    choi_value: float
    gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance


def consistency_check(w, psi, channel: Channel, grid: QuadratureGrid | None = None,
                      tolerance: float | None = None) -> ConsistencyReport:
    """Dual-route oracle: ensemble evaluation against tr[W J]/P_s.

    The two sides compute the same number through independent reductions
    (channel outputs on ensemble members vs the witness on the Choi state);
    agreement within quadrature error validates both pipelines.
    """
    from .channels import choi_state
    if isinstance(w, QuditPairsWitness):
        ens, evaluator = pairs_conversion(w, psi)
        ev = evaluator(channel).value
        tol = 1e-10 if tolerance is None else tolerance
    else:
        if grid is None:
            raise ValueError("mode-B witness forms need a quadrature grid")
        ens = ensemble_from_state(psi, grid)
        ev = eb_value(w, ens, channel).value
        tol = 1e-4 if tolerance is None else tolerance
    cv = choi_witness_expectation(w, choi_state(channel, psi))
    return ConsistencyReport(ensemble_value=ev, choi_value=cv,
                             gap=abs(ev - cv), tolerance=tol)
