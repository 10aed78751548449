"""Batched coherent kets and the array-backed ensemble, bit for bit against the
one-node-at-a-time loops they replace (written out here as references)."""

import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from ebench.channels import heterodyne_mp
from ebench.cv import fidelity_witness, gaussian_coherent_ensemble, witness14_matrix
from ebench.fock import (DensityOperator, FockSpace, StateVector, coherent_ket,
                         coherent_kets, tensor, two_mode_squeezed_ket)
from ebench.quadrature import QuadratureGrid
from ebench.witness import (DROP_DENSITY, EnsembleMember, _relative_states,
                            ensemble_from_state)


def loop_coherent_ket(alpha, space):
    """One-alpha coherent ket: the reference every batched row must match."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    n = np.arange(space.dim)
    asq = abs(alpha) ** 2
    if alpha == 0:
        amp = np.zeros(space.dim, dtype=complex)
        amp[0] = 1.0
        return StateVector(amp, space, norm_defect=0.0)
    logmag = -0.5 * asq + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    phase = np.exp(1j * n * math.atan2(alpha.imag, alpha.real))
    amp = np.exp(logmag) * phase
    return StateVector(amp, space, norm_defect=float(gammainc(space.cutoff + 1.0, asq)))


def bits(x):
    """The raw 64-bit words of a float or complex array (signed zeros included)."""
    return np.ascontiguousarray(np.asarray(x)).view(np.uint64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def assert_same_members(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.weight) is type(w.weight) and bits(g.weight) == bits(w.weight)
        assert type(g.label) is type(w.label) and g.label == w.label
        assert type(g.state) is type(w.state)
        if isinstance(w.state, StateVector):
            assert_same_bits(g.state.amplitudes, w.state.amplitudes)
            assert bits(g.state.norm_defect) == bits(w.state.norm_defect)
        else:
            assert_same_bits(g.state.matrix, w.state.matrix)


SPECIAL = [0, 0j, complex(0.0, -0.0), 1e-300, 5e-324, -3 + 0j, complex(-3.0, -0.0),
           -2j, complex(-0.0, 2.0), math.sqrt(700.0), complex(0.0, -math.sqrt(700.0)),
           0.7 - 1.1j]


class TestCoherentKets:
    @pytest.mark.parametrize("cutoff", [12, 20, 40, 60])
    def test_rows_match_one_alpha_loop(self, cutoff):
        space = FockSpace(cutoff, "A")
        grid = QuadratureGrid.gauss_laguerre(0.4, 16, 12)
        for alphas in [list(s * grid.nodes) for s in (0.3, 1.0, 2.2)] + [SPECIAL]:
            amps, defects = coherent_kets(alphas, space)
            want = [loop_coherent_ket(a, space) for a in alphas]
            assert_same_bits(amps, np.stack([k.amplitudes for k in want]))
            assert_same_bits(defects, np.array([k.norm_defect for k in want]))

    def test_one_alpha_wrapper(self):
        space = FockSpace(30, "A")
        for a in SPECIAL:
            got, want = coherent_ket(a, space), loop_coherent_ket(a, space)
            assert_same_bits(got.amplitudes, want.amplitudes)
            assert bits(got.norm_defect) == bits(want.norm_defect)

    def test_empty_batch(self):
        amps, defects = coherent_kets([], FockSpace(8, "A"))
        assert amps.shape == (0, 9) and defects.shape == (0,)

    @pytest.mark.parametrize("bad", [float("nan"), complex(np.inf, 0), complex(0, -np.inf)])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            coherent_kets([0.5, bad, 1j], FockSpace(10, "A"))
        with pytest.raises(ValueError, match="finite"):
            coherent_ket(bad, FockSpace(10, "A"))

    def test_fidelity_witness_family(self):
        sa, sb = FockSpace(20, "A"), FockSpace(20, "B")
        w = fidelity_witness(0.1, 0.6, 0.4, sa, sb)
        grid = w.closure_grid(12, 8)
        ratio = math.sqrt(0.4) / math.sqrt(0.6)
        want = np.stack([loop_coherent_ket(ratio * b, sa).amplitudes for b in grid.nodes])
        assert_same_bits(w.target_kets(grid.nodes), want)
        beta = complex(grid.nodes[5])
        f = loop_coherent_ket(ratio * beta, sa).amplitudes
        sym = np.eye(sa.dim) * w.const - w.kernel(beta) * np.outer(f, f.conj())
        assert_same_bits(w.symbol()(beta), sym)


class TestHeterodyneArrays:
    # the second grid reaches |gain * b|^2 > 100 at cutoff 6, where the
    # re-prepared kets vanish and their nodes are dropped
    @pytest.mark.parametrize("gain,cutoff,grid_lam", [(0.6, 20, 1.36), (3.0, 6, 0.5)])
    def test_measure_and_prep_match_loop(self, gain, cutoff, grid_lam):
        space = FockSpace(cutoff, "A")
        grid = QuadratureGrid.gauss_laguerre(grid_lam, 24, 16)
        measure = np.stack([loop_coherent_ket(b, space).amplitudes for b in grid.nodes])
        prep_raw = [loop_coherent_ket(gain * b, space) for b in grid.nodes]
        norms = np.array([p.norm for p in prep_raw])
        keep = norms > 1e-12
        prep = np.stack([p.amplitudes for p in prep_raw])[keep] / norms[keep, None]
        ch = heterodyne_mp(gain, space, grid=grid)
        assert_same_bits(ch.measure, measure[keep])
        assert_same_bits(ch.prep, prep)
        assert_same_bits(ch.weights, grid.bare_weights[keep])
        assert ch.grid_meta["dropped_nodes"] == int(np.sum(~keep))
        if cutoff == 6:
            assert ch.grid_meta["dropped_nodes"] > 0


def loop_gaussian_ensemble(lam, grid, space):
    """(members, dropped mass) as the per-node loop built them."""
    if lam == 0:
        weights = grid.weights / grid.alpha_max ** 2
        density = np.full(grid.size, 1.0 / grid.alpha_max ** 2)
    else:
        density = lam * np.exp(-lam * np.abs(grid.nodes) ** 2)
        weights = density * grid.weights if grid.lam == 0.0 else lam * grid.weights
    members, dropped = [], 0.0
    for k in range(grid.size):
        w = float(weights[k])
        if density[k] < 1e-14:
            dropped += w
            continue
        ket = loop_coherent_ket(grid.nodes[k], space)
        members.append(EnsembleMember(weight=w, state=ket.normalized(),
                                      label=complex(grid.nodes[k])))
    return members, dropped


class TestGaussianEnsembleArrays:
    CASES = [(1.0, QuadratureGrid.gauss_laguerre(1.0, 32, 16), 30),
             (0.7, QuadratureGrid.gauss_laguerre(0.7, 48, 12), 20),
             (0.5, QuadratureGrid.flat_disk(3.0, 16, 8), 25),
             (0.0, QuadratureGrid.flat_disk(2.0, 16, 8), 25)]

    @pytest.mark.parametrize("lam,grid,cutoff", CASES)
    def test_arrays_match_loop(self, lam, grid, cutoff):
        space = FockSpace(cutoff, "A")
        members, dropped = loop_gaussian_ensemble(lam, grid, space)
        ens = gaussian_coherent_ensemble(lam, grid, space)
        assert len(ens) == len(members)
        assert bits(ens.dropped_mass) == bits(dropped)
        assert_same_bits(ens.kets(), np.stack([m.state.amplitudes for m in members]))
        assert_same_bits(ens.weights, np.array([m.weight for m in members]))
        assert_same_bits(ens.labels, np.array([m.label for m in members]))
        assert_same_bits(ens.norm_defects, np.array([m.state.norm_defect for m in members]))
        assert bits(ens.weight_defect) == bits(
            abs(float(np.array([m.weight for m in members]).sum()) - 1.0))

    def test_some_nodes_dropped(self):
        lam, grid, cutoff = self.CASES[1]
        ens = gaussian_coherent_ensemble(lam, grid, FockSpace(cutoff, "A"))
        assert len(ens) < grid.size and ens.dropped_mass > 0

    def test_members_built_lazily_and_match_loop(self):
        lam, grid, cutoff = self.CASES[0]
        space = FockSpace(cutoff, "A")
        ens = gaussian_coherent_ensemble(lam, grid, space)
        assert "members" not in vars(ens)
        assert_same_members(ens.members, loop_gaussian_ensemble(lam, grid, space)[0])
        assert ens.members is ens.members


def loop_ensemble_members(psi, grid):
    b_space = psi.spaces[1]
    rows = np.stack([loop_coherent_ket(a, b_space).amplitudes for a in grid.nodes])
    probs, states = _relative_states(psi, rows)
    members, dropped = [], 0.0
    for k in range(grid.size):
        w = grid.bare_weights[k] * probs[k]
        if probs[k] < DROP_DENSITY or states[k] is None:
            dropped += w
            continue
        members.append(EnsembleMember(weight=w, state=states[k],
                                      label=complex(grid.nodes[k])))
    return members, dropped


class TestEnsembleFromStateRows:
    SA, SB = FockSpace(16, "A"), FockSpace(16, "B")

    @pytest.mark.parametrize("mixed", [False, True])
    def test_members_match_loop(self, mixed):
        psi = two_mode_squeezed_ket(0.6, self.SA, self.SB)
        if mixed:
            other = tensor(coherent_ket(0.4, self.SA), coherent_ket(-0.3j, self.SB))
            psi = DensityOperator(0.7 * psi.density().matrix + 0.3 * other.density().matrix,
                                  (self.SA, self.SB))
        grid = QuadratureGrid.gauss_laguerre(0.64, 24, 12)
        members, dropped = loop_ensemble_members(psi, grid)
        ens = ensemble_from_state(psi, grid)
        assert_same_members(ens.members, members)
        assert bits(ens.dropped_mass) == bits(float(dropped))


def test_witness14_matrix_matches_loop():
    sa, sb = FockSpace(10, "A"), FockSpace(10, "B")
    X, u2, v2 = 0.2, 0.7, 0.3
    grid = QuadratureGrid.gauss_laguerre(1.0 + X, 20, 16)
    u, v = math.sqrt(u2), math.sqrt(v2)
    a_rows = np.stack([loop_coherent_ket(v * a, sa).amplitudes for a in grid.nodes])
    b_rows = np.stack([loop_coherent_ket(u * np.conj(a), sb).amplitudes for a in grid.nodes])
    kern = grid.bare_weights * np.exp(-X * np.abs(grid.nodes) ** 2)
    rows = (a_rows[:, :, None] * b_rows[:, None, :]).reshape(grid.size, -1)
    rows = rows * np.sqrt(kern)[:, None]
    want = np.eye(sa.dim * sb.dim, dtype=complex) / (1.0 + X) - rows.T @ rows.conj()
    assert_same_bits(witness14_matrix(X, u2, v2, sa, sb, grid).matrix, want)
