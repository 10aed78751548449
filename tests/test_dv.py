"""Qudit benchmark: generalized Paulis, MUBs, Schmidt witness, and the
k-partial class soundness."""

import math

import numpy as np
import pytest

from ebench.channels import (_MEMO_SIZE, choi_state, filter_scale, identity_channel,
                             kraus_explicit, qudit_depolarizing, rank_k_random,
                             x_measure_prepare, z_measure_prepare)
from ebench.dv import (_gen_pauli, finite_dim_conversion, g_value, gen_pauli,
                       max_entangled_state, mub_bases, schmidt_benchmark,
                       schmidt_witness_matrix, schmidt_witness_pairs)
from ebench.witness import choi_witness_expectation


class TestGenPauli:
    def test_qubit_case(self):
        p = gen_pauli(2)
        assert np.allclose(p.Z, np.diag([1.0, -1.0]))
        assert np.allclose(p.X, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_qutrit_clock(self):
        p = gen_pauli(3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(np.diag(p.Z), [1.0, w, w ** 2])

    @pytest.mark.parametrize("d", range(2, 17))
    def test_commutation_relation(self, d):
        p = gen_pauli(d)
        lhs = p.X @ p.Z
        rhs = np.exp(-2j * np.pi / d) * (p.Z @ p.X)
        assert np.max(np.abs(lhs - rhs)) < 1e-14 * d

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            gen_pauli(1)


class TestMemoisedConstants:
    def test_arrays_raise_on_write(self):
        p = gen_pauli(3)
        pairs = schmidt_witness_pairs(1, 3).pairs
        for a in (p.Z, p.X, *mub_bases(3), *(m for pair in pairs for m in pair)):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    def test_repeat_calls_share_one_result(self):
        assert gen_pauli(4) is gen_pauli(4)
        assert mub_bases(4) is mub_bases(4)
        assert schmidt_witness_pairs(2, 4) is schmidt_witness_pairs(2, 4)

    def test_cache_is_bounded(self):
        for d in range(2, 2 + 2 * _MEMO_SIZE):
            gen_pauli(d)
        assert _gen_pauli.cache_info().currsize == _MEMO_SIZE


class TestMub:
    def test_qubit_fourier_is_plus_minus(self):
        _, f = mub_bases(2)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(f[:, 0], [s, s])
        assert np.allclose(f[:, 1], [s, -s])

    def test_fourier_states_are_shift_eigenvectors(self):
        d = 5
        p = gen_pauli(d)
        _, f = mub_bases(d)
        for ell in range(d):
            got = p.X @ f[:, ell]
            want = np.exp(-2j * np.pi * ell / d) * f[:, ell]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_unbiasedness(self):
        comp, f = mub_bases(7)
        overlaps = np.abs(comp.conj().T @ f) ** 2
        assert np.max(np.abs(overlaps - 1.0 / 7.0)) < 1e-13

    @pytest.mark.parametrize("d", range(2, 9))
    def test_fourier_basis_is_the_x_measure_prepare_basis(self, d):
        # one formula, the same bits as the expression it replaced
        _, f = mub_bases(d)
        j = np.arange(d)
        assert np.array_equal(f, np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d))
        kraus = x_measure_prepare(d).kraus
        assert all(np.array_equal(k, np.outer(f[:, l], f[:, l].conj()))
                   for l, k in enumerate(kraus))


class TestGValue:
    def test_anchors(self):
        assert g_value(2, 2) == pytest.approx(2.0)
        assert g_value(1, 2) == pytest.approx(1.0)
        assert g_value(2, 3) == pytest.approx(1.5)

    def test_monotone_in_k(self):
        for d in range(2, 8):
            vals = [g_value(k, d) for k in range(1, d + 1)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            g_value(0, 3)
        with pytest.raises(ValueError):
            g_value(4, 3)


class TestSchmidtWitnessMatrix:
    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
    def test_max_entangled_expectation(self, d, k):
        # oracle: <Phi|A (x) B|Phi> = tr(A B^T)/d for each term
        w = schmidt_witness_matrix(k, d)
        phi = max_entangled_state(d)
        got = np.real(phi.amplitudes.conj() @ w @ phi.amplitudes)
        assert abs(got - (g_value(k, d) - 2.0)) < 1e-12

    def test_product_state_positivity(self, rng):
        w = schmidt_witness_matrix(1, 2)
        worst = np.inf
        for _ in range(500):
            va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vec = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
            worst = min(worst, float(np.real(vec.conj() @ w @ vec)))
        assert worst >= -1e-10

    def test_zero_zero_expectation(self):
        for d, k in ((2, 1), (3, 1)):
            w = schmidt_witness_matrix(k, d)
            vec = np.zeros(d * d, dtype=complex)
            vec[0] = 1.0
            got = np.real(vec.conj() @ w @ vec)
            assert abs(got - (g_value(k, d) - 1.0)) < 1e-12

    def test_pairs_assemble_to_same_matrix(self):
        for d, k in ((2, 1), (3, 2), (4, 1)):
            direct = schmidt_witness_matrix(k, d)
            via_pairs = schmidt_witness_pairs(k, d).assemble()
            assert np.max(np.abs(direct - via_pairs)) < 1e-12


class TestSchmidtBenchmark:
    def test_identity_values(self):
        for k, want_margin in ((1, -1.0), (2, -0.5)):
            rep = schmidt_benchmark(identity_channel(3), k, 3)
            assert abs(rep.value - 2.0) < 1e-12
            assert abs(rep.margin - want_margin) < 1e-12
            assert rep.violated

    @pytest.mark.parametrize("d", [2, 3])
    def test_classical_saturation(self, d):
        for ch in (z_measure_prepare(d), x_measure_prepare(d)):
            rep = schmidt_benchmark(ch, 1, d)
            assert abs(rep.margin) < 1e-12

    def test_depolarizing_line(self, rng):
        # value = 2(1-p); brute-force matrix oracle on a few p
        p_obj = gen_pauli(3)
        comp, fourier = mub_bases(3)
        for p in (0.0, 0.25, 0.5, 0.8):
            ch = qudit_depolarizing(3, p)
            rep = schmidt_benchmark(ch, 1, 3)
            assert abs(rep.value - 2.0 * (1.0 - p)) < 1e-12
            # oracle: explicit sum of traces
            w = 2.0 * np.pi / 3.0
            total = 0.0
            for j in range(3):
                out_z = ch.apply_ket(comp[:, j])
                out_x = ch.apply_ket(fourier[:, (-j) % 3])
                total += 2 * np.real(np.exp(-1j * w * j) * np.trace(p_obj.Z @ out_z))
                total += 2 * np.real(np.exp(-1j * w * j) * np.trace(p_obj.X @ out_x))
            assert abs(rep.value - total / 6.0) < 1e-12

    def test_margin_monotone_in_k(self):
        ch = rank_k_random(4, 2, seed=21)
        margins = [schmidt_benchmark(ch, k, 4).margin for k in (1, 2, 3)]
        assert margins[0] < margins[1] < margins[2]

    def test_value_independent_of_k(self):
        ch = qudit_depolarizing(4, 0.3)
        vals = {round(schmidt_benchmark(ch, k, 4).value, 12) for k in (1, 2, 3)}
        assert len(vals) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            schmidt_benchmark(identity_channel(3), 1, 4)
        with pytest.raises(ValueError):
            schmidt_benchmark(identity_channel(3), 3, 3)

    def test_trace_decreasing_invariance(self):
        base = qudit_depolarizing(3, 0.2)
        m0 = schmidt_benchmark(base, 1, 3).margin
        for q in (0.1, 0.3, 1.0):
            rep = schmidt_benchmark(filter_scale(q, base), 1, 3)
            assert abs(rep.margin - m0) < 1e-10
            assert abs(rep.P_s - q) < 1e-10


class TestSoundnessAndOracles:
    def test_rank_k_soundness_sample(self, rng):
        # class-k channels must never violate the class-k bound
        for d, k in ((3, 1), (3, 2), (4, 2)):
            for trial in range(20):
                ch = rank_k_random(d, k, seed=int(rng.integers(1 << 30)))
                rep = schmidt_benchmark(ch, k, d)
                assert rep.margin >= -1e-9

    def test_rank_one_is_eb_class(self, rng):
        # k = 1 channels are EB; all their margins at every class are >= 0
        ch = rank_k_random(3, 1, seed=int(rng.integers(1 << 30)))
        for k in (1, 2):
            assert schmidt_benchmark(ch, k, 3).margin >= -1e-9

    def _zoo(self, d, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        return [identity_channel(d), qudit_depolarizing(d, 0.3),
                qudit_depolarizing(d, 1.0), z_measure_prepare(d),
                x_measure_prepare(d), rank_k_random(d, max(1, d - 2), seed=seed),
                filter_scale(0.35, qudit_depolarizing(d, 0.15)),
                kraus_explicit([q])]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_choi_oracle_equivalence(self, d):
        phi = max_entangled_state(d)
        for ch in self._zoo(d, seed=41 + d):
            cs = choi_state(ch, phi)
            for k in range(1, d):
                rep = schmidt_benchmark(ch, k, d)
                direct = choi_witness_expectation(schmidt_witness_pairs(k, d), cs)
                assert abs(rep.margin - direct) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ppt_cross_check(self, d):
        # every channel violated at k = 1 must have an NPT Choi state
        phi = max_entangled_state(d)
        for ch in self._zoo(d, seed=77 + d):
            rep = schmidt_benchmark(ch, 1, d)
            if rep.margin < -rep.error_estimate:
                jt = choi_state(ch, phi).J.matrix.reshape(d, d, d, d)
                pt = np.transpose(jt, (0, 3, 2, 1)).reshape(d * d, d * d)
                assert float(np.linalg.eigvalsh(pt)[0]) < -1e-8


class TestFiniteDimConversion:
    def test_equivalence_with_benchmark(self):
        for d in (2, 3):
            w = schmidt_witness_pairs(1, d)
            ens, evaluator = finite_dim_conversion(w, max_entangled_state(d))
            for p in (0.0, 0.3, 0.7):
                ch = qudit_depolarizing(d, p)
                assert abs(evaluator(ch).value
                           - schmidt_benchmark(ch, 1, d).margin) < 1e-12

    def test_ensemble_members_are_mub_states(self):
        w = schmidt_witness_pairs(1, 3)
        ens, _ = finite_dim_conversion(w, max_entangled_state(3))
        # 5 pairs x 3 eigenvectors, all with density 1/d
        assert len(ens) == 15
        assert abs(ens.total_weight - 1.0) < 1e-12
        for member in ens.members:
            assert member.weight == pytest.approx(1.0 / 15.0)

    def test_type_validation(self):
        with pytest.raises(TypeError):
            finite_dim_conversion("not a witness", max_entangled_state(2))
