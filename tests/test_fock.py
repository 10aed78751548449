"""Truncated-Fock linear algebra against closed-form oracles."""

import math

import numpy as np
import pytest

from ebench.dv import mub_bases
from ebench.fock import (DensityOperator, FockSpace, Space, StateVector,
                         basis_ket, coherent_ket, expectation,
                         max_entangled_ket, mode_operators, number_operator,
                         partial_trace, suggest_cutoff, tensor,
                         two_mode_squeezed_ket)


SP40 = FockSpace(40, "m")


def poisson_tail(mean, cutoff):
    """Brute-force oracle: sum of the Poisson pmf beyond the cutoff."""
    total = 0.0
    for n in range(cutoff + 1, cutoff + 400):
        total += math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
    return total


class TestCoherent:
    def test_vacuum_exact(self):
        k = coherent_ket(0.0, SP40)
        assert k.amplitudes[0] == 1.0
        assert np.all(k.amplitudes[1:] == 0)
        assert k.norm_defect == 0.0

    def test_overlap_closed_form(self):
        # |<a|b>|^2 = e^{-|a-b|^2}; at a=1, b=i this is e^{-2}
        a, b = coherent_ket(1.0, SP40), coherent_ket(1j, SP40)
        got = abs(a.overlap(b)) ** 2
        assert abs(got - 0.1353352832366127) < 1e-10

    def test_overlap_formula_random(self, rng):
        for _ in range(25):
            x = complex(*rng.uniform(-3, 3, 2) * np.array([1, 1]) / math.sqrt(2))
            y = complex(*rng.uniform(-3, 3, 2) / math.sqrt(2))
            want = np.exp(-0.5 * abs(x) ** 2 - 0.5 * abs(y) ** 2 + np.conj(x) * y)
            got = coherent_ket(x, SP40).overlap(coherent_ket(y, SP40))
            assert abs(got - want) < 1e-8

    def test_norm_defect_matches_poisson_tail(self):
        # |alpha|^2 = 4 at cutoff 40
        k = coherent_ket(2.0, SP40)
        tail = poisson_tail(4.0, 40)
        assert k.norm_defect < 1e-12
        assert abs(k.norm_defect - tail) < 1e-15 + 1e-6 * tail
        assert abs((1.0 - k.norm ** 2) - tail) < 1e-14

    def test_truncation_warning_flag(self):
        small = FockSpace(4, "s")
        assert coherent_ket(2.0, small).truncation_warning
        assert not coherent_ket(0.1, SP40).truncation_warning

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            coherent_ket(float("nan"), SP40)
        with pytest.raises(ValueError):
            coherent_ket(complex(np.inf, 0), SP40)


class TestTwoModeSqueezed:
    A, B = FockSpace(40, "A"), FockSpace(40, "B")

    def test_zero_squeezing_limit(self):
        psi = two_mode_squeezed_ket(1e-300, self.A, self.B)
        amp = psi.amplitudes.reshape(41, 41)
        assert amp[0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(amp)) == pytest.approx(1.0)

    def test_mean_photon_number(self):
        # per-mode <n> = xi^2/(1 - xi^2), geometric-series oracle
        xi = 1.0 / math.sqrt(2.0)
        psi = two_mode_squeezed_ket(xi, self.A, self.B)
        rho_a = partial_trace(psi.density(), "A")
        n_op = number_operator(self.A)
        got = expectation(n_op, rho_a).real
        direct = sum((1 - xi * xi) * xi ** (2 * n) * n for n in range(200))
        assert abs(got - 1.0) < 1e-8
        assert abs(got - direct) < 1e-8

    def test_norm_defect_geometric_tail(self):
        a, b = FockSpace(30, "A"), FockSpace(30, "B")
        psi = two_mode_squeezed_ket(0.5, a, b)
        assert psi.norm_defect == pytest.approx(0.5 ** 62)
        assert psi.norm_defect < 1e-18

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.3, 1.2])
    def test_rejects_bad_xi(self, xi):
        with pytest.raises(ValueError):
            two_mode_squeezed_ket(xi, self.A, self.B)


class TestModeOperators:
    def test_ladder_entry(self):
        a, ad = mode_operators(SP40)
        assert ad.matrix[1, 0] == pytest.approx(1.0)
        assert a.kind == "annihilation" and ad.kind == "creation"

    def test_commutator_on_subspace(self):
        a, ad = mode_operators(SP40)
        comm = a.matrix @ ad.matrix - ad.matrix @ a.matrix
        d = SP40.dim
        gap = np.max(np.abs(comm[: d - 1, : d - 1] - np.eye(d)[: d - 1, : d - 1]))
        assert gap < 1e-13  # sqrt(n)*sqrt(n) carries one ulp of rounding

    def test_coherent_eigenvalue(self, rng):
        a, _ = mode_operators(SP40)
        for _ in range(5):
            alpha = complex(*rng.uniform(-2, 2, 2)) / math.sqrt(2)
            k = coherent_ket(alpha, SP40)
            resid = np.linalg.norm(a.matrix @ k.amplitudes - alpha * k.amplitudes)
            assert resid < 1e-8


class TestTensorAndTrace:
    def test_two_mode_vacuum(self):
        a, b = FockSpace(5, "A"), FockSpace(5, "B")
        v = tensor(basis_ket(a, 0), basis_ket(b, 0))
        assert v.amplitudes[0] == 1.0 and np.sum(np.abs(v.amplitudes)) == 1.0

    def test_trace_multiplicative(self, rng):
        a, b = Space("A", 4), Space("B", 4)
        for _ in range(10):
            ma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mb = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            ma, mb = ma + ma.conj().T, mb + mb.conj().T
            prod = tensor(DensityOperator(ma, a, check=False),
                          DensityOperator(mb, b, check=False))
            # oracle: direct kron trace
            assert abs(np.trace(np.kron(ma, mb)) - np.trace(prod.matrix)) < 1e-12
            assert abs(prod.trace - np.trace(ma).real * np.trace(mb).real) < 1e-12

    def test_clashing_tags(self):
        a1, a2 = FockSpace(3, "A"), FockSpace(4, "A")
        with pytest.raises(ValueError, match="clashing"):
            tensor(basis_ket(a1, 0), basis_ket(a2, 0))

    def test_partial_trace_thermal(self):
        a, b = FockSpace(30, "A"), FockSpace(30, "B")
        psi = two_mode_squeezed_ket(0.5, a, b)
        red = partial_trace(psi.density(), "A")
        want = 0.75 * 0.25 ** np.arange(31)
        assert np.max(np.abs(np.diag(red.matrix).real - want)) < 1e-12
        off = red.matrix - np.diag(np.diag(red.matrix))
        assert np.max(np.abs(off)) < 1e-14

    def test_partial_trace_product(self, rng):
        a, b = Space("A", 3), Space("B", 4)
        ra = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ra = ra @ ra.conj().T
        rb = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rb = rb @ rb.conj().T
        prod = tensor(DensityOperator(ra, a, check=False),
                      DensityOperator(rb, b, check=False))
        red = partial_trace(prod, "A")
        assert np.max(np.abs(red.matrix - ra * np.trace(rb))) < 1e-10

    def test_partial_trace_max_entangled(self):
        phi = max_entangled_ket(Space("A", 3), Space("B", 3))
        red = partial_trace(phi.density(), "B")
        assert np.max(np.abs(red.matrix - np.eye(3) / 3)) < 1e-14

    def test_partial_trace_linear_and_trace_preserving(self, rng):
        a, b = Space("A", 3), Space("B", 3)
        for _ in range(10):
            m1 = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            m1 = m1 + m1.conj().T
            m2 = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            m2 = m2 + m2.conj().T
            r1 = DensityOperator(m1, (a, b), check=False)
            r2 = DensityOperator(m2, (a, b), check=False)
            combo = DensityOperator(0.3 * m1 + 0.7 * m2, (a, b), check=False)
            lin = partial_trace(combo, "B").matrix \
                - 0.3 * partial_trace(r1, "B").matrix \
                - 0.7 * partial_trace(r2, "B").matrix
            assert np.max(np.abs(lin)) < 1e-12
            assert abs(partial_trace(r1, "A").trace - r1.trace) < 1e-12

    def test_unknown_tag(self):
        a, b = Space("A", 2), Space("B", 2)
        rho = tensor(DensityOperator(np.eye(2) / 2, a),
                     DensityOperator(np.eye(2) / 2, b))
        with pytest.raises(ValueError, match="unknown space tag"):
            partial_trace(rho, "C")


class TestExpectation:
    def test_identity(self):
        rho = coherent_ket(0.7, SP40).density()
        assert expectation(np.eye(41), rho).real == pytest.approx(1.0, abs=1e-10)

    def test_coherent_photon_number(self):
        rho = coherent_ket(1.5, SP40).density()
        val = expectation(number_operator(SP40), rho)
        assert abs(val.real - 2.25) < 1e-8
        assert abs(val.imag) < 1e-10

    def test_qudit_phase(self):
        z = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        rho = DensityOperator(np.diag([0.0, 1.0, 0.0]).astype(complex), Space("q", 3))
        val = expectation(z, rho)
        assert abs(val - np.exp(2j * np.pi / 3)) < 1e-14

    def test_dimension_mismatch(self):
        rho = coherent_ket(0.5, SP40).density()
        with pytest.raises(ValueError, match="mismatch"):
            expectation(np.eye(5), rho)


def test_suggest_cutoff_rule():
    assert suggest_cutoff(0.0) == 20
    assert suggest_cutoff(4.0) == 20
    assert suggest_cutoff(16.0) == 40
    # six-sigma rule: the Poisson tail stays below ~1e-6
    for m in (4.0, 9.0, 16.0, 25.0):
        assert poisson_tail(m, suggest_cutoff(m)) < 1e-6


def test_state_vector_validation():
    with pytest.raises(ValueError, match="amplitude length"):
        StateVector(np.ones(3), SP40)
    with pytest.raises(ValueError, match="cutoff"):
        FockSpace(0, "bad")


def test_state_vector_accepts_strided_column():
    column = mub_bases(3)[1][:, 1]
    assert not column.flags.c_contiguous
    assert np.array_equal(StateVector(column, Space("A", 3)).amplitudes, column)
    bad = np.array(mub_bases(3)[1])
    bad[2, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(bad[:, 1], Space("A", 3))
