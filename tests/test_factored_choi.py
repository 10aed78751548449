"""The factored Choi state against the dense constructions it replaced.

``dense_choi`` and ``dense_expectation`` below are the dense (d_A d_B)^2
formulas: the Choi matrix built per channel kind, and tr[W J] / P_s with the
witness assembled as a matrix.  The factored ``choi_state`` and
``choi_witness_expectation`` must agree with them to 1e-12 for every channel
kind, filtered (``scale:``) channels, pure and mixed references and all three
witness forms.  Separate tests bound the memory of a cutoff-80
``consistency_check`` and check that a non-Hermitian terms witness is still
rejected on the way through it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ebench.channels import (Channel, ChoiFormChannel, KrausChannel, MeasurePrepareChannel,
                             build_channel, choi_state, parse_channel_spec)
from ebench.cv import GaussianBenchParams, fidelity_witness
from ebench.dv import schmidt_witness_pairs
from ebench.fock import (DensityOperator, FockSpace, StateVector, coherent_kets,
                         max_entangled_ket, mode_operators, two_mode_squeezed_ket)
from ebench.quadrature import QuadratureGrid
from ebench.witness import (QuditPairsWitness, TermsWitness, WitnessTerm,
                            choi_witness_expectation, consistency_check,
                            normal_ordered_matrix)

TOL = 1e-12
RADIAL = ANGULAR = 24


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------

def reference_eigenpairs(psi):
    if isinstance(psi, StateVector):
        return psi.amplitudes[None, :], np.ones(1)
    evals, evecs = np.linalg.eigh(psi.matrix)
    keep = evals > 1e-15 * max(1.0, evals.max())
    return evecs[:, keep].T, evals[keep]


def dense_choi(channel, psi):
    """(J, tr J) built as a dense matrix, one branch per channel kind."""
    vecs, weights = reference_eigenpairs(psi)
    da, db = psi.spaces[0].dim, psi.spaces[1].dim
    if isinstance(channel, ChoiFormChannel):
        rho = (vecs.T * weights) @ vecs.conj()
        rt = rho.reshape(da, db, da, db)
        jt = channel.choi.reshape(channel.out_dim, channel.input_dim,
                                  channel.out_dim, channel.input_dim)
        # (E (x) I)(rho): E(|m><n|)[a, c] = d * jt[a, m, c, n]
        out = channel.input_dim * np.einsum("mbne,amcn->abce", rt, jt) * channel.scale
        j = out.reshape(da * db, da * db)
        return j, float(np.trace(j).real)
    rows = []
    for vec, w in zip(vecs, weights):
        mat = vec.reshape(da, db)
        if isinstance(channel, KrausChannel):
            rows += [math.sqrt(w) * (k @ mat).reshape(-1) for k in channel.kraus]
        else:
            assert isinstance(channel, MeasurePrepareChannel)
            m = channel.measure.conj() @ mat        # (K, db): <b_k|psi>_A
            amp = np.sqrt(w * channel.weights)
            rows += list((channel.prep[:, :, None] * m[:, None, :]).reshape(m.shape[0], -1)
                         * amp[:, None])
    u = np.array(rows)
    j = (u.T @ u.conj()) * channel.scale
    return j, float(np.trace(j).real)


def assemble_terms(w, b_space):
    return sum(t.coeff * np.kron(np.asarray(t.a_matrix, dtype=complex),
                                 normal_ordered_matrix(t.n, t.m, b_space)) for t in w.terms)


def dense_expectation(w, j, spaces):
    """tr[W J] / tr J with W assembled, or the coherent integral over dense product kets."""
    if isinstance(w, QuditPairsWitness):
        val = np.sum(w.assemble().T * j)
    elif isinstance(w, TermsWitness):
        val = np.sum(assemble_terms(w, spaces[1]).T * j)
    else:
        grid = w.closure_grid(RADIAL, ANGULAR)
        a_rows = w.target_kets(grid.nodes)
        b_rows, _ = coherent_kets(grid.nodes.conj(), w.b_space)
        u = (a_rows[:, :, None] * b_rows[:, None, :]).reshape(grid.size, -1)
        sand = np.sum((u.conj() @ j) * u, axis=1).real
        kern = np.array([w.kernel(a) for a in grid.nodes])
        val = w.const * np.trace(j) - np.sum(grid.bare_weights * kern * sand)
    return float((val / np.trace(j)).real)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def spaces_for(dim):
    return FockSpace(dim - 1, "A"), FockSpace(dim - 1, "B")


def mixed_reference(psi, rng, rank=3):
    """psi mixed with rank - 1 random kets on the same two spaces."""
    dim = psi.amplitudes.size
    kets = [psi.amplitudes] + [v / np.linalg.norm(v) for v in
                               rng.standard_normal((rank - 1, dim))
                               + 1j * rng.standard_normal((rank - 1, dim))]
    probs = np.array([0.6] + [0.4 / (rank - 1)] * (rank - 1))
    rho = sum(p * np.outer(k, k.conj()) for p, k in zip(probs, kets))
    return DensityOperator(rho, psi.spaces)


def witnesses(sa, sb, rng):
    """One witness of each form on spaces (sa, sb)."""
    a, ad = mode_operators(sa)
    herm = rng.standard_normal((sa.dim, sa.dim)) + 1j * rng.standard_normal((sa.dim, sa.dim))
    herm = herm + herm.conj().T
    c = 0.3 - 0.2j
    terms = TermsWitness([WitnessTerm(np.eye(sa.dim), 1, 1, 1.0),
                          WitnessTerm(a.matrix, 1, 0, -0.5),
                          WitnessTerm(ad.matrix, 0, 1, -0.5),
                          WitnessTerm(herm, 2, 1, c),
                          WitnessTerm(herm, 1, 2, np.conj(c))])
    h_b = rng.standard_normal((sb.dim, sb.dim)) + 1j * rng.standard_normal((sb.dim, sb.dim))
    pairs = QuditPairsWitness([(herm, h_b + h_b.conj().T), (np.eye(sa.dim), np.eye(sb.dim))])
    p = GaussianBenchParams.from_lambda_eta(1.0, 0.7, X=0.05)
    return [fidelity_witness(p.X, p.u2, p.v2, sa, sb), terms, pairs]


CV_SPECS = ["identity", "loss:0.7", "heterodyne:0.5", "scale:0.4:loss:0.6",
            "scale:0.3:heterodyne:0.8"]
DV_SPECS = ["depolarizing:0.35", "x_mp", "z_mp", "rank_k:2:7", "identity",
            "scale:0.55:depolarizing:0.8"]


def check_against_dense(channel, psi, rng, sa, sb):
    cs = choi_state(channel, psi)
    j, ps = dense_choi(channel, psi)
    assert cs.J.matrix.shape == j.shape
    assert np.max(np.abs(cs.J.matrix - j)) <= TOL
    assert abs(cs.P_s - ps) <= TOL
    for w in witnesses(sa, sb, rng) + ([schmidt_witness_pairs(1, sa.dim)] if sa.dim <= 5 else []):
        got = choi_witness_expectation(w, cs, radial=RADIAL, angular=ANGULAR)
        assert abs(got - dense_expectation(w, j, psi.spaces)) <= TOL, type(w).__name__


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("cutoff", [12, 20])
@pytest.mark.parametrize("spec", CV_SPECS)
def test_cv_channels_match_dense(spec, cutoff, mixed, rng):
    sa, sb = FockSpace(cutoff, "A"), FockSpace(cutoff, "B")
    channel = build_channel(parse_channel_spec(spec), fock_space=sa, radial=16, angular=16)
    psi = two_mode_squeezed_ket(0.6, sa, sb)
    check_against_dense(channel, mixed_reference(psi, rng) if mixed else psi, rng, sa, sb)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("spec", DV_SPECS)
def test_dv_channels_match_dense(spec, d, mixed, rng):
    sa, sb = spaces_for(d)
    channel = build_channel(parse_channel_spec(spec), qudit_dim=d)
    psi = max_entangled_ket(sa, sb)
    check_against_dense(channel, mixed_reference(psi, rng) if mixed else psi, rng, sa, sb)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("base", ["rank_k:2:3", "scale:0.5:depolarizing:0.4"])
def test_choi_form_channel_matches_dense(base, mixed, rng):
    d = 4
    sa, sb = spaces_for(d)
    inner = build_channel(parse_channel_spec(base), qudit_dim=d)
    phi = max_entangled_ket(sa, sb)
    channel = ChoiFormChannel(choi_state(inner, phi).J.matrix / inner.scale, d,
                              scale=inner.scale)
    psi = mixed_reference(phi, rng) if mixed else phi
    check_against_dense(channel, psi, rng, sa, sb)


def test_pure_kraus_factors_share_the_reference():
    # one right factor per Kraus operator would copy the reference once per K_m
    sa, sb = FockSpace(12, "A"), FockSpace(12, "B")
    channel = build_channel(parse_channel_spec("loss:0.7"), fock_space=sa)
    cs = choi_state(channel, two_mode_squeezed_ket(0.6, sa, sb))
    assert cs.left.shape[0] == cs.right.shape[0] == len(channel.kraus)
    assert cs.right.strides[0] == 0 and np.shares_memory(cs.left, channel.stack)


def test_unsupported_channel_type_raises():
    class Bare(Channel):
        dim, scale = 3, 1.0
    sa, sb = spaces_for(3)
    with pytest.raises(TypeError, match="unsupported channel type Bare"):
        choi_state(Bare(), max_entangled_ket(sa, sb))


# ---------------------------------------------------------------------------
# memory and the Hermiticity guard through consistency_check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["loss:0.7", "heterodyne:0.5"])
def test_cutoff_80_consistency_check_stays_below_64_mb(spec):
    # the dense J alone would take 6561^2 complex values, 689 MB
    sa, sb = FockSpace(80, "A"), FockSpace(80, "B")
    p = GaussianBenchParams.from_lambda_eta(1.0, 0.7, X=0.05)
    w = fidelity_witness(p.X, p.u2, p.v2, sa, sb)
    psi = two_mode_squeezed_ket(p.xi, sa, sb)
    grid = QuadratureGrid.gauss_laguerre(1.0 - p.xi ** 2, 64, 64)
    channel = build_channel(parse_channel_spec(spec), fock_space=sa)
    tracemalloc.start()
    try:
        rep = consistency_check(w, psi, channel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.gap < 1e-12
    assert peak < 64 * 2**20


def test_non_hermitian_terms_witness_raises_through_consistency_check():
    sa, sb = FockSpace(8, "A"), FockSpace(8, "B")
    a, _ = mode_operators(sa)
    # a (x) b without its adjoint partner a^dag (x) b^dag
    w = TermsWitness([WitnessTerm(np.eye(sa.dim), 1, 1, 1.0), WitnessTerm(a.matrix, 1, 0, 0.5)])
    psi = two_mode_squeezed_ket(0.5, sa, sb)
    grid = QuadratureGrid.gauss_laguerre(0.75, 16, 16)
    channel = build_channel(parse_channel_spec("loss:0.7"), fock_space=sa)
    with pytest.raises(ValueError, match="assembled witness is not Hermitian") as err:
        consistency_check(w, psi, channel, grid)
    dense = assemble_terms(w, sb)
    defect = float(np.max(np.abs(dense - dense.conj().T)))
    assert str(err.value).endswith(f"(defect {defect:.3e})")


def test_hermitian_terms_witness_within_rounding_passes():
    # a relative asymmetry below 1e-10 of the largest entry is rounding, not an error
    sa, sb = FockSpace(6, "A"), FockSpace(6, "B")
    a, ad = mode_operators(sa)
    w = TermsWitness([WitnessTerm(a.matrix, 1, 0, 1.0),
                      WitnessTerm(ad.matrix, 0, 1, 1.0 + 1e-12)])
    pairs = w.operator_pairs(sb)
    assert len(pairs) == 2
