"""Row-block evaluation of measure-and-prepare transfers and the Choi oracle's
coherent-integral sandwich on the factored Choi state: the blocks cover every
row once, every row gets the bits of the unblocked formulas (written out here
as references), and the temporaries stay bounded."""

import tracemalloc

import numpy as np
import pytest

from ebench import channels
from ebench.channels import ChoiState, MeasurePrepareChannel, _row_blocks, heterodyne_mp
from ebench.cv import fidelity_witness
from ebench.fock import FockSpace, coherent_kets
from ebench.quadrature import QuadratureGrid
from ebench.witness import choi_witness_expectation

# every residue mod 8 past two and three blocks of 8, a 1-row tail (25), and
# sizes that fit one block of 8 or 16 rows
SIZES = [0, 1, 5, 7, 8, 12, 16] + list(range(17, 34)) + [41, 57]


def bits(x):
    return np.ascontiguousarray(np.asarray(x)).view(np.uint64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def random_kets(rng, n, d):
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


def unblocked_transfer(ch, input_kets, target_kets):
    m = input_kets @ ch.measure.conj().T
    probs = np.abs(m) ** 2
    traces = probs @ ch.weights * ch.scale
    g = target_kets.conj() @ ch.prep.T
    fids = ((probs * np.abs(g) ** 2) @ ch.weights) * ch.scale
    return traces, fids


def unblocked_sandwich(w, cs, grid):
    """sum_r |<a_k (x) b_k|vec F_r>|^2 for every node k at once, without the scale."""
    a_conj = w.target_kets(grid.nodes).conj()
    b_conj = coherent_kets(grid.nodes.conj(), w.b_space)[0].conj()
    n_r, d_a, s = cs.left.shape
    x = a_conj @ cs.left.transpose(1, 0, 2).reshape(d_a, n_r * s)     # (a_k^dag L_r)_s
    y = b_conj @ cs.right.transpose(1, 0, 2).reshape(-1, n_r * s)    # (b_k^dag R_r)_s
    amp = np.einsum("krs,krs->kr", x.reshape(grid.size, n_r, s), y.reshape(grid.size, n_r, s))
    return np.einsum("kr,kr->k", amp.view(float), amp.view(float))    # sum_r |amp_kr|^2


class TestHelper:
    @pytest.mark.parametrize("budget", [8, 64, 100, 1 << 19])
    @pytest.mark.parametrize("width", [1, 3, 8, 441, 4096])
    def test_blocks_cover_rows_in_order(self, monkeypatch, budget, width):
        monkeypatch.setattr(channels, "_BLOCK_ELEMS", budget)
        rows = max(8, (budget // width) // 8 * 8)
        for n in list(range(0, 70)) + [rows, rows + 1, rows + 7, rows + 8, 5 * rows + 3]:
            blocks = list(_row_blocks(n, width))
            flat = [i for a, b in blocks for i in range(a, b)]
            assert flat == list(range(n))
            assert all(b > a for a, b in blocks)
            assert all((b - a) % 8 == 0 for a, b in blocks[:-1])
            if n >= 8:
                assert all(b - a >= 8 for a, b in blocks)
            if n <= rows:
                assert blocks == ([(0, n)] if n else [])

    def test_default_budget_takes_128_rows_of_a_64_squared_grid(self):
        assert [b - a for a, b in _row_blocks(300, 4096)] == [128, 128, 44]


class TestTransferBits:
    @pytest.mark.parametrize("rows", [8, 16])
    def test_every_row_matches_the_unblocked_formula(self, monkeypatch, rng, rows):
        d, k = 21, 512
        weights = rng.uniform(0.1, 1.0, k)
        ch = MeasurePrepareChannel(random_kets(rng, k, d) * 0.9, random_kets(rng, k, d),
                                   weights, scale=0.7)
        monkeypatch.setattr(channels, "_BLOCK_ELEMS", rows * k)
        for n in SIZES:
            v, t = random_kets(rng, n, d), random_kets(rng, n, d)
            got, want = ch.transfer(v, t), unblocked_transfer(ch, v, t)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    def test_heterodyne_channel_in_many_blocks(self, monkeypatch, rng):
        space = FockSpace(12)
        ch = heterodyne_mp(0.8, space, radial=16, angular=16).scaled(0.6)
        monkeypatch.setattr(channels, "_BLOCK_ELEMS", 8 * ch.weights.size)
        alphas = rng.standard_normal(99) + 1j * rng.standard_normal(99)
        v, _ = coherent_kets(alphas, space)
        t, _ = coherent_kets(0.8 * alphas, space)
        got, want = ch.transfer(v, t), unblocked_transfer(ch, v, t)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


class TestOracleSandwichBits:
    # (R, s) factor shapes of the width-16 rows: rank-one factors as a
    # measure-and-prepare channel gives, and square ones as a Kraus channel gives
    SHAPES = [(16, 1), (4, 4)]

    def setup_witness(self, rng, shape, scale=1.0, p_s=None):
        space_a, space_b = FockSpace(3, "A"), FockSpace(3, "B")
        w = fidelity_witness(0.1, 0.6, 0.4, space_a, space_b)
        n_r, s = shape
        left, right = (rng.standard_normal((n_r, 4, s)) + 1j * rng.standard_normal((n_r, 4, s))
                       for _ in range(2))
        gram = (left.conj().transpose(0, 2, 1) @ left) * (right.conj().transpose(0, 2, 1) @ right)
        p_s = scale * float(np.sum(gram).real) if p_s is None else p_s
        cs = ChoiState(left=left, right=right, scale=scale, spaces=(space_a, space_b),
                       P_s=p_s, source="test")
        return w, cs

    @pytest.mark.parametrize("rows", [8, 16])
    def test_every_row_matches_the_unblocked_formula(self, monkeypatch, rng, rows):
        # const 0, kernel 1, scale 1, P_s 1 and a one-hot weight make the oracle
        # return exactly minus the sandwich of the weighted row
        monkeypatch.setattr(channels, "_BLOCK_ELEMS", rows * 16)
        for shape in self.SHAPES:
            w, cs = self.setup_witness(rng, shape, p_s=1.0)
            w.const, w.kernel = 0.0, (lambda a: 1.0)
            for n in SIZES[1:]:
                nodes = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                want = unblocked_sandwich(w, cs, self.grid(nodes, np.ones(n)))
                for i in range(n):
                    grid = self.grid(nodes, np.eye(n)[i])
                    w.closure_grid = lambda radial, angular: grid
                    assert_same_bits(-choi_witness_expectation(w, cs), want[i])

    def test_full_expectation_matches_on_a_64_squared_grid(self, monkeypatch, rng):
        monkeypatch.setattr(channels, "_BLOCK_ELEMS", 24 * 16)
        for shape in self.SHAPES:
            w, cs = self.setup_witness(rng, shape, scale=0.7)
            grid = w.closure_grid(64, 64)
            kern = np.array([w.kernel(a) for a in grid.nodes])
            sand = unblocked_sandwich(w, cs, grid)
            val = w.const * cs.P_s - cs.scale * complex(np.sum(grid.bare_weights * kern * sand))
            assert_same_bits(choi_witness_expectation(w, cs), float((val / cs.P_s).real))

    def test_dimension_mismatch_still_raises(self, rng):
        w, _ = self.setup_witness(rng, (4, 4))
        spaces = (FockSpace(2, "A"), FockSpace(2, "B"))
        factor = np.eye(3)[None]
        cs = ChoiState(left=factor, right=factor, scale=1.0, spaces=spaces, P_s=3.0,
                       source="test")
        with pytest.raises(ValueError, match="witness and Choi dimensions do not match"):
            choi_witness_expectation(w, cs, radial=4, angular=4)

    @staticmethod
    def grid(nodes, bare):
        n = nodes.size
        return QuadratureGrid(lam=1.0, nodes=nodes, weights=np.ones(n), bare_weights=bare,
                              radial_count=n, angular_count=1, alpha_max=2.0)


def test_heterodyne_transfer_temporaries_are_bounded(rng):
    space = FockSpace(20)
    ch = heterodyne_mp(0.8, space)                     # 64 x 64 grid
    assert ch.weights.size > 4000
    v, t = random_kets(rng, 1792, space.dim), random_kets(rng, 1792, space.dim)
    tracemalloc.start()
    try:
        ch.transfer(v, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
