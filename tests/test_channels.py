"""Channel zoo, Kraus completeness, and Choi-state construction."""

import math

import numpy as np
import pytest

from ebench.channels import (ChoiFormChannel, _weyl_operators, build_channel, choi_state,
                             filter_scale, heterodyne_mp, identity_channel,
                             kraus_completeness, kraus_explicit,
                             parse_channel_spec, pure_loss, qudit_depolarizing,
                             rank_k_random, x_measure_prepare,
                             z_measure_prepare)
from ebench.fock import (DensityOperator, FockSpace, Space, coherent_ket,
                         max_entangled_ket, two_mode_squeezed_ket)

SP = FockSpace(40, "A")


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = m @ m.conj().T
    return m / np.trace(m).real


class TestApply:
    def test_identity_exact(self, rng):
        rho = DensityOperator(random_density(rng, 5), Space("q", 5))
        out = identity_channel(5).apply(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_pure_loss_coherent_covariance(self):
        # loss(tau) maps |a> to |sqrt(tau) a>
        out = pure_loss(0.64, SP).apply(coherent_ket(1.0, SP).density())
        target = coherent_ket(0.8, SP)
        fid = np.real(target.amplitudes.conj() @ out.matrix @ target.amplitudes)
        assert abs(1.0 - fid) < 1e-8
        assert abs(out.trace - 1.0) < 1e-12

    def test_filter_scale_is_exact_scaling(self, rng):
        rho = DensityOperator(random_density(rng, 4), Space("q", 4))
        base = qudit_depolarizing(4, 0.3)
        a = filter_scale(0.3, base).apply(rho).matrix
        b = 0.3 * base.apply(rho).matrix
        assert np.max(np.abs(a - b)) < 1e-15

    def test_apply_linear(self, rng):
        ch = qudit_depolarizing(3, 0.4)
        r1, r2 = random_density(rng, 3), random_density(rng, 3)
        combo = DensityOperator(0.25 * r1 + 0.75 * r2, Space("q", 3))
        lhs = ch.apply(combo).matrix
        rhs = 0.25 * ch.apply(DensityOperator(r1, Space("q", 3))).matrix \
            + 0.75 * ch.apply(DensityOperator(r2, Space("q", 3))).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            qudit_depolarizing(3, 0.1).apply(
                DensityOperator(random_density(rng, 4), Space("q", 4)))

    def test_non_physical_input_rejected(self):
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="not physical"):
            identity_channel(2).apply(DensityOperator(bad, Space("q", 2)))

    def test_output_trace_bounded(self, rng):
        ch = filter_scale(0.7, qudit_depolarizing(3, 0.2))
        rho = DensityOperator(random_density(rng, 3), Space("q", 3))
        assert ch.apply(rho).trace <= rho.trace + 1e-9


class TestZoo:
    def test_depolarizing_p0_is_identity(self, rng):
        ch = qudit_depolarizing(3, 0.0)
        rho = random_density(rng, 3)
        out = ch.apply(DensityOperator(rho, Space("q", 3)))
        assert np.max(np.abs(out.matrix - rho)) < 1e-12

    def test_depolarizing_action(self, rng):
        ch = qudit_depolarizing(3, 0.35)
        rho = random_density(rng, 3)
        out = ch.apply(DensityOperator(rho, Space("q", 3)))
        want = 0.65 * rho + 0.35 * np.eye(3) / 3
        assert np.max(np.abs(out.matrix - want)) < 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_depolarizing_kraus_equal_weyl_formula(self, d):
        p = 0.37
        z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        x = np.roll(np.eye(d), 1, axis=0)
        want = [math.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
        for a in range(d):
            xa = np.linalg.matrix_power(x, a)
            for b in range(d):
                want.append(math.sqrt(p) / d * (xa @ np.linalg.matrix_power(z, b)))
        for _ in range(2):                   # built, then from the memo
            got = qudit_depolarizing(d, p).kraus
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_weyl_operators_raise_on_write(self):
        for op in _weyl_operators(3):
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 1.0

    def test_z_measure_prepare_dephases(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = z_measure_prepare(2).apply(DensityOperator(plus, Space("q", 2)))
        assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12

    def test_x_measure_prepare_dephases_in_fourier(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        out = x_measure_prepare(3).apply(DensityOperator(rho, Space("q", 3)))
        # |0><0| is unbiased to the Fourier basis: output is maximally mixed
        assert np.max(np.abs(out.matrix - np.eye(3) / 3)) < 1e-12

    def test_rank_k_random_ranks(self):
        ch = rank_k_random(3, 1, seed=7)
        for k in ch.kraus:
            s = np.linalg.svd(k, compute_uv=False)
            assert s.size < 2 or s[1] < 1e-10
        rep = kraus_completeness(ch)
        assert rep.trace_preserving and rep.defect < 1e-10

    @pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_rank_k_random_general(self, d, k):
        ch = rank_k_random(d, k, seed=11)
        for mat in ch.kraus:
            s = np.linalg.svd(mat, compute_uv=False)
            assert np.all(s[k:] < 1e-10)
        assert kraus_completeness(ch).defect < 1e-10

    def test_kraus_explicit_validation(self):
        over = [np.eye(2) * 1.2]
        with pytest.raises(ValueError, match="trace non-increasing"):
            kraus_explicit(over)
        ch = kraus_explicit(over, allow_unnormalized=True)
        assert ch.dim == 2

    def test_pure_loss_completeness(self):
        rep = kraus_completeness(pure_loss(0.5, SP))
        assert rep.trace_preserving and rep.defect < 1e-8

    def test_filter_scale_completeness_defect(self):
        rep = kraus_completeness(filter_scale(0.3, identity_channel(4)))
        assert not rep.trace_preserving
        assert abs(rep.defect - 0.7) < 1e-12

    def test_filter_scale_range(self):
        with pytest.raises(ValueError):
            filter_scale(0.0, identity_channel(2))
        with pytest.raises(ValueError):
            filter_scale(1.5, identity_channel(2))

    def test_completeness_requires_kraus_form(self):
        het = heterodyne_mp(1.0, FockSpace(10, "A"), radial=16, angular=16)
        with pytest.raises(TypeError):
            kraus_completeness(het)


class TestHeterodyne:
    def test_trace_preservation(self, rng):
        sp = FockSpace(25, "A")
        het = heterodyne_mp(0.8, sp)
        rho = random_density(rng, sp.dim)
        out = het.apply(DensityOperator(rho, sp))
        assert abs(out.trace - 1.0) < 1e-8
        assert het.povm_closure_defect() < 1e-8

    def test_gain_zero_prepares_vacuum(self):
        sp = FockSpace(15, "A")
        het = heterodyne_mp(0.0, sp, radial=32, angular=32)
        out = het.apply(coherent_ket(0.9, sp).density())
        assert abs(out.matrix[0, 0].real - 1.0) < 1e-8

    def test_choi_state_is_ppt(self):
        # measure-and-prepare maps are EB: the Choi state must stay PPT
        sp_a, sp_b = FockSpace(25, "A"), FockSpace(25, "B")
        het = heterodyne_mp(1.0, sp_a, radial=48, angular=48)
        psi = two_mode_squeezed_ket(1.0 / np.sqrt(2.0), sp_a, sp_b)
        cs = choi_state(het, psi)
        d = sp_a.dim
        jt = cs.J.matrix.reshape(d, d, d, d)
        pt = np.transpose(jt, (0, 3, 2, 1)).reshape(d * d, d * d)
        min_eig = float(np.linalg.eigvalsh(pt)[0])
        assert min_eig >= -1e-6

    def test_identity_choi_is_npt(self):
        sp_a, sp_b = FockSpace(12, "A"), FockSpace(12, "B")
        psi = two_mode_squeezed_ket(0.6, sp_a, sp_b)
        cs = choi_state(identity_channel(sp_a.dim), psi)
        d = sp_a.dim
        jt = cs.J.matrix.reshape(d, d, d, d)
        pt = np.transpose(jt, (0, 3, 2, 1)).reshape(d * d, d * d)
        assert float(np.linalg.eigvalsh(pt)[0]) < -1e-6


class TestChoiState:
    def test_identity_choi_is_reference(self):
        phi = max_entangled_ket(Space("A", 3), Space("B", 3))
        cs = choi_state(identity_channel(3), phi)
        assert abs(cs.P_s - 1.0) < 1e-12
        assert np.max(np.abs(cs.J.matrix - phi.density().matrix)) < 1e-12

    def test_full_depolarizing_choi(self):
        phi = max_entangled_ket(Space("A", 2), Space("B", 2))
        cs = choi_state(qudit_depolarizing(2, 1.0), phi)
        assert np.max(np.abs(cs.J.matrix - np.eye(4) / 4)) < 1e-12

    def test_scaled_choi_ps(self):
        phi = max_entangled_ket(Space("A", 2), Space("B", 2))
        cs = choi_state(filter_scale(0.5, identity_channel(2)), phi)
        assert abs(cs.P_s - 0.5) < 1e-12
        assert abs(cs.P_s - cs.J.trace) < 1e-9

    def test_mixed_reference(self, rng):
        a, b = Space("A", 3), Space("B", 3)
        rho = DensityOperator(random_density(rng, 9), (a, b))
        ch = qudit_depolarizing(3, 0.3)
        cs = choi_state(ch, rho)
        # oracle: tensor-contraction application of the map on the A factor
        rt = rho.matrix.reshape(3, 3, 3, 3)
        want = np.zeros_like(rt)
        for k in ch.kraus:
            want += np.einsum("am,mbnc,dn->abdc", k, rt, k.conj())
        want = (want * ch.scale).reshape(9, 9)
        assert np.max(np.abs(cs.J.matrix - want)) < 1e-10

    def test_cp_spot_checks(self, rng):
        from ebench.channels import channel_choi_matrix
        channels = [identity_channel(3), qudit_depolarizing(3, 0.6),
                    z_measure_prepare(3), x_measure_prepare(3),
                    rank_k_random(3, 2, seed=5),
                    filter_scale(0.4, qudit_depolarizing(3, 0.2))]
        for ch in channels:
            cs = channel_choi_matrix(ch)
            assert cs.J.min_eigenvalue() >= -1e-9

    def test_dimension_mismatch(self):
        phi = max_entangled_ket(Space("A", 3), Space("B", 3))
        with pytest.raises(ValueError, match="dim"):
            choi_state(identity_channel(4), phi)


class TestChoiFormChannel:
    def test_roundtrip_matches_kraus(self, rng):
        base = qudit_depolarizing(3, 0.45)
        phi = max_entangled_ket(Space("A", 3), Space("B", 3))
        j = choi_state(base, phi).J.matrix
        ch = ChoiFormChannel(j, input_dim=3)
        rho = DensityOperator(random_density(rng, 3), Space("q", 3))
        assert np.max(np.abs(ch.apply(rho).matrix - base.apply(rho).matrix)) < 1e-10
        assert ch.trace_preserving

    def test_choi_of_choi_form(self, rng):
        base = rank_k_random(3, 2, seed=3)
        phi = max_entangled_ket(Space("A", 3), Space("B", 3))
        j = choi_state(base, phi).J.matrix
        ch = ChoiFormChannel(j, input_dim=3)
        cs2 = choi_state(ch, phi)
        assert np.max(np.abs(cs2.J.matrix - j)) < 1e-10

    def test_generic_transfer_fallback(self):
        # ChoiFormChannel has no specialized transfer; the apply_ket loop must
        # agree with the Kraus fast path
        sp = FockSpace(12, "A")
        base = pure_loss(0.7, sp)
        phi = max_entangled_ket(Space("A", sp.dim), Space("B", sp.dim))
        ch = ChoiFormChannel(choi_state(base, phi).J.matrix, input_dim=sp.dim)
        kets = np.stack([coherent_ket(a, sp).amplitudes for a in (0.3, 0.8j, -0.5)])
        targets = np.stack([coherent_ket(a * np.sqrt(0.7), sp).amplitudes
                            for a in (0.3, 0.8j, -0.5)])
        t1, f1 = base.transfer(kets, targets)
        t2, f2 = ch.transfer(kets, targets)
        assert np.max(np.abs(t1 - t2)) < 1e-10
        assert np.max(np.abs(f1 - f2)) < 1e-10


class TestSpecs:
    def test_parse_and_build(self):
        spec = parse_channel_spec("loss:0.64")
        assert spec.kind == "pure_loss"
        ch = build_channel(spec, fock_space=FockSpace(10, "A"))
        assert ch.dim == 11

        spec = parse_channel_spec("scale:0.3:depolarizing:0.5")
        ch = build_channel(spec, qudit_dim=3)
        assert abs(ch.scale - 0.3) < 1e-15

        spec = parse_channel_spec("rank_k:2:9")
        ch = build_channel(spec, qudit_dim=4)
        assert kraus_completeness(ch).trace_preserving

    def test_parse_errors(self):
        for bad in ("bogus:1", "identity:3", "scale:0.5", "rank_k:1:2:3"):
            with pytest.raises(ValueError):
                parse_channel_spec(bad)

    def test_build_context_errors(self):
        with pytest.raises(ValueError, match="CV channel"):
            build_channel(parse_channel_spec("loss:0.5"), qudit_dim=3)
        with pytest.raises(ValueError, match="qudit channel"):
            build_channel(parse_channel_spec("depolarizing:0.5"),
                          fock_space=FockSpace(10, "A"))
        with pytest.raises(ValueError, match="gain"):
            build_channel(parse_channel_spec("heterodyne"),
                          fock_space=FockSpace(10, "A"))

    def test_describe_round(self):
        spec = parse_channel_spec("scale:0.5:loss:0.3")
        assert "pure_loss" in spec.describe()
