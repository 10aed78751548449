"""Ring reduction of the coherent-state fidelity benchmark.

A channel that commutes with the grid's phase rotations is evaluated on one
node per ring (`QuadratureGrid.rings`).  The reference here is the full-grid
evaluation written out: the ensemble on every node, `transfer`, then the
weighted sums.  Covariant channels must match it to 1e-12; every other
channel takes the full path and must match it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebench.channels import (Channel, ChoiFormChannel, KrausChannel,
                             MeasurePrepareChannel, channel_choi_matrix,
                             filter_scale, heterodyne_mp, identity_channel,
                             kraus_explicit, pure_loss, qudit_depolarizing,
                             rank_k_random, x_measure_prepare, z_measure_prepare)
from ebench.cv import (fidelity_benchmark, gaussian_coherent_ensemble,
                       optimal_heterodyne_gain)
from ebench.fock import FockSpace, coherent_kets
from ebench.quadrature import QuadratureGrid

TOL = 1e-12


def full_grid(channel, lam, eta, grid, space):
    """(F_avg, P_s) over every grid node, as fidelity_benchmark had it before rings."""
    ens = gaussian_coherent_ensemble(lam, grid, space)
    root_eta = math.sqrt(eta)
    targets, _ = coherent_kets([root_eta * a for a in ens.labels], space)
    traces, fids = channel.transfer(ens.kets(), targets)
    ps = float(np.sum(ens.weights * traces))
    return float(np.sum(ens.weights * fids)) / ps, ps


def grids(lam):
    return {
        "gauss_laguerre": QuadratureGrid.gauss_laguerre(lam, 16, 16),
        "flat_disk": QuadratureGrid.flat_disk(4.0, 16, 12),
        "alpha_max": QuadratureGrid.gauss_laguerre(lam, 24, 8, alpha_max=2.5),
    }


def cv_channels(space, lam, eta):
    gain = optimal_heterodyne_gain(lam, eta)
    return {
        "identity": identity_channel(space.dim),
        "loss": pure_loss(0.6, space),
        "heterodyne_opt": heterodyne_mp(gain, space, radial=24, angular=48),
        "heterodyne_g": heterodyne_mp(0.7, space, radial=24, angular=48),
        "scale_loss": filter_scale(0.3, pure_loss(0.8, space)),
        "scale_heterodyne": filter_scale(0.4, heterodyne_mp(0.5, space, radial=24,
                                                            angular=48)),
    }


def random_kraus(dim, seed):
    """A Kraus set from a random isometry: no operator sits on one diagonal."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * dim, dim)) + 1j * rng.standard_normal((2 * dim, dim))
    q, _ = np.linalg.qr(g)
    return kraus_explicit([q[:dim], q[dim:]])


class TestRingsLayout:
    @pytest.mark.parametrize("kind", ["gauss_laguerre", "flat_disk", "alpha_max"])
    def test_one_node_per_ring_with_summed_weights(self, kind):
        grid = grids(0.8)[kind]
        rings = grid.rings()
        a = grid.angular_count
        assert rings.size * a == grid.size and rings.angular_count == 1
        assert np.array_equal(rings.nodes, grid.nodes[::a])
        assert np.all(rings.nodes.imag == 0.0) and np.all(rings.nodes.real > 0.0)
        for got, per_node in ((rings.weights, grid.weights),
                              (rings.bare_weights, grid.bare_weights)):
            assert np.allclose(got, a * per_node[::a], rtol=1e-14, atol=0.0)
            assert got.sum() == pytest.approx(per_node.sum(), rel=1e-14)
        assert (rings.lam, rings.alpha_max) == (grid.lam, grid.alpha_max)
        assert rings.rings().nodes.size == rings.size

    def test_rings_do_not_change_integrals_of_radial_functions(self):
        grid = QuadratureGrid.gauss_laguerre(1.3, 20, 16)

        def f(z):
            return np.exp(-0.4 * np.abs(z) ** 2) * (1.0 + np.abs(z) ** 2)
        assert grid.rings().integrate(f) == pytest.approx(grid.integrate(f), rel=1e-14)

    def test_one_node_per_ring_is_returned_as_is(self):
        nodes = np.array([0.5 + 0.2j, -1.0j, 0.3])
        grid = QuadratureGrid(lam=1.0, nodes=nodes, weights=np.ones(3),
                              bare_weights=np.ones(3), radial_count=3,
                              angular_count=1, alpha_max=2.0)
        assert grid.rings() is grid

    def test_rejects_nodes_off_the_rings(self):
        grid = QuadratureGrid.gauss_laguerre(1.0, 4, 8)
        nodes = grid.nodes.copy()
        nodes[9] *= np.exp(0.01j)
        bad = QuadratureGrid(lam=1.0, nodes=nodes, weights=grid.weights,
                             bare_weights=grid.bare_weights, radial_count=4,
                             angular_count=8, alpha_max=grid.alpha_max)
        with pytest.raises(ValueError, match="not rings of 8"):
            bad.rings()

    def test_rejects_unequal_radii_on_a_ring(self):
        grid = QuadratureGrid.gauss_laguerre(1.0, 4, 8)
        nodes = grid.nodes.copy()
        nodes[3] *= 1.001
        bad = QuadratureGrid(lam=1.0, nodes=nodes, weights=grid.weights,
                             bare_weights=grid.bare_weights, radial_count=4,
                             angular_count=8, alpha_max=grid.alpha_max)
        with pytest.raises(ValueError, match="not rings"):
            bad.rings()

    def test_rejects_a_node_count_off_the_ring_size(self):
        grid = QuadratureGrid.gauss_laguerre(1.0, 4, 8)
        bad = QuadratureGrid(lam=1.0, nodes=grid.nodes[:-1], weights=grid.weights[:-1],
                             bare_weights=grid.bare_weights[:-1], radial_count=4,
                             angular_count=8, alpha_max=grid.alpha_max)
        with pytest.raises(ValueError, match="not rings of 8"):
            bad.rings()


class TestCovariantUnder:
    SP = FockSpace(10, "A")

    @pytest.mark.parametrize("channel", [
        identity_channel(11), pure_loss(0.5, FockSpace(10)), pure_loss(0.0, FockSpace(10)),
        z_measure_prepare(4), identity_channel(3),
    ], ids=["cv_identity", "loss", "loss_zero", "z_mp", "dv_identity"])
    def test_diagonal_kraus_sets_are_covariant(self, channel):
        assert channel.covariant_under(16) and channel.covariant_under(7)
        assert channel.scaled(0.3).covariant_under(16)

    @pytest.mark.parametrize("channel", [
        qudit_depolarizing(4, 0.3), x_measure_prepare(4), rank_k_random(4, 2, 7),
        random_kraus(11, 3),
    ], ids=["depolarizing", "x_mp", "rank_k", "random_kraus"])
    def test_other_kraus_sets_are_not(self, channel):
        assert not channel.covariant_under(16)
        assert not channel.scaled(0.3).covariant_under(16)

    def test_kraus_file_on_one_diagonal_each(self):
        d = 6
        shift = np.diag(np.full(d - 2, 0.5), k=-2)           # |n+2><n|, j - i = -2
        damp = np.diag(np.linspace(0.1, 0.8, d))
        up = np.diag(np.full(d - 1, 0.3), k=1)
        assert KrausChannel([shift, damp, up]).covariant_under(8)
        mixed = damp.copy()
        mixed[0, 3] = 0.1                                    # off the main diagonal
        assert not KrausChannel([shift, mixed]).covariant_under(8)

    def test_heterodyne_when_the_order_divides_its_angular_count(self):
        ch = heterodyne_mp(0.6, self.SP, radial=8, angular=32)
        assert ch.covariant_under(32) and ch.covariant_under(16) and ch.covariant_under(4)
        assert not ch.covariant_under(12) and not ch.covariant_under(64)
        assert ch.scaled(0.5).covariant_under(16)
        assert not ch.scaled(0.5).covariant_under(12)

    def test_measure_prepare_without_a_grid_record_is_not(self):
        ch = heterodyne_mp(0.6, self.SP, radial=8, angular=8)
        bare = MeasurePrepareChannel(ch.measure, ch.prep, ch.weights)
        assert not bare.covariant_under(8) and not bare.covariant_under(1)

    def test_base_class_and_choi_form_are_not(self):
        choi = channel_choi_matrix(identity_channel(3)).J.matrix
        assert not ChoiFormChannel(choi, 3).covariant_under(4)
        assert not Channel.covariant_under(identity_channel(3), 4)


class TestReducedMatchesFullGrid:
    LAM, ETA = 0.8, 0.7

    @pytest.mark.parametrize("kind", ["gauss_laguerre", "flat_disk", "alpha_max"])
    @pytest.mark.parametrize("cutoff", [12, 20])
    def test_covariant_channels(self, kind, cutoff):
        space = FockSpace(cutoff, "A")
        grid = grids(self.LAM)[kind]
        for name, ch in cv_channels(space, self.LAM, self.ETA).items():
            assert ch.covariant_under(grid.angular_count), name
            rep = fidelity_benchmark(ch, self.LAM, self.ETA, grid, space)
            f_ref, ps_ref = full_grid(ch, self.LAM, self.ETA, grid, space)
            assert abs(rep.F_avg - f_ref) <= TOL, name
            assert abs(rep.P_s - ps_ref) <= TOL, name
            assert rep.grid == grid.metadata()
            # the full path with the same channel: the budget agrees too
            ch.covariant_under = lambda order: False
            full = fidelity_benchmark(ch, self.LAM, self.ETA, grid, space)
            assert abs(rep.quadrature_error - full.quadrature_error) <= TOL, name

    def test_flat_ensemble_lambda_zero(self):
        space = FockSpace(16, "A")
        grid = QuadratureGrid.flat_disk(2.0, 12, 16)
        ch = pure_loss(0.7, space)
        rep = fidelity_benchmark(ch, 0.0, 0.7, grid, space)
        f_ref, ps_ref = full_grid(ch, 0.0, 0.7, grid, space)
        assert abs(rep.F_avg - f_ref) <= TOL and abs(rep.P_s - ps_ref) <= TOL

    @pytest.mark.parametrize("channel", [
        random_kraus(13, 5), qudit_depolarizing(13, 0.4), x_measure_prepare(13),
        filter_scale(0.5, random_kraus(13, 6)),
        heterodyne_mp(0.5, FockSpace(12), radial=16, angular=12),
        filter_scale(0.6, heterodyne_mp(0.5, FockSpace(12), radial=16, angular=24)),
    ], ids=["random_kraus", "depolarizing", "x_mp", "scale_random_kraus",
            "heterodyne_a12", "scale_heterodyne_a24"])
    def test_other_channels_take_the_full_path_bit_for_bit(self, channel):
        space = FockSpace(12, "A")
        grid = QuadratureGrid.gauss_laguerre(self.LAM, 12, 16)
        assert not channel.covariant_under(grid.angular_count)
        rep = fidelity_benchmark(channel, self.LAM, self.ETA, grid, space)
        assert (rep.F_avg, rep.P_s) == full_grid(channel, self.LAM, self.ETA, grid, space)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(lam=st.floats(0.3, 2.5), eta=st.floats(0.1, 1.0), tau=st.floats(0.05, 1.0),
       gain=st.floats(0.1, 1.0), q=st.floats(0.05, 1.0), cutoff=st.integers(8, 20),
       radial=st.integers(8, 16), angular=st.sampled_from([8, 12, 16]),
       kind=st.sampled_from(["loss", "heterodyne", "scale_loss", "scale_heterodyne"]))
def test_reduced_equals_full_property(lam, eta, tau, gain, q, cutoff, radial, angular,
                                      kind):
    space = FockSpace(cutoff, "A")
    grid = QuadratureGrid.gauss_laguerre(lam, radial, angular)
    if kind.endswith("loss"):
        ch = pure_loss(tau, space)
    else:
        ch = heterodyne_mp(gain, space, radial=radial, angular=2 * angular)
    if kind.startswith("scale"):
        ch = filter_scale(q, ch)
    rep = fidelity_benchmark(ch, lam, eta, grid, space)
    f_ref, ps_ref = full_grid(ch, lam, eta, grid, space)
    assert abs(rep.F_avg - f_ref) <= TOL and abs(rep.P_s - ps_ref) <= TOL
