"""Polar quadrature grids for integrals over the complex plane.

The working measure is d^2(alpha)/pi.  For Gaussian-weighted integrands the
radial direction uses Gauss-Laguerre nodes in t = lam*|alpha|^2 and the
angular direction a uniform grid, which is spectrally accurate for the
near-isotropic Gaussian-times-polynomial integrands that appear in
coherent-state expansions.  The same grids drive both the benchmark integrals
and the continuous measure-and-prepare channels, so there is a single
quadrature error model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for integrals sum_k w_k f(alpha_k).

    `weights` include the Gaussian factor e^{-lam |alpha|^2}; they approximate
    integrals of the form

        int f(alpha) e^{-lam |alpha|^2} d^2(alpha) / pi  ~=  sum_k weights_k f(alpha_k)

    for slowly varying f.  `bare_weights` have the Gaussian divided back out
    and approximate int f d^2(alpha)/pi for integrands that decay at least as
    fast as the grid Gaussian.  For the flat-disk grid (lam == 0) the two
    coincide and the domain is |alpha| <= alpha_max.
    """

    lam: float
    nodes: np.ndarray
    weights: np.ndarray
    bare_weights: np.ndarray
    radial_count: int
    angular_count: int
    alpha_max: float

    @classmethod
    def gauss_laguerre(cls, lam: float, radial: int = 64, angular: int = 64,
                       alpha_max: float | None = None) -> "QuadratureGrid":
        """Gauss-Laguerre (radial, in t = lam r^2) x uniform (angular) grid."""
        if lam <= 0:
            raise ValueError("lam must be > 0 for the Gauss-Laguerre grid; "
                             "use flat_disk for the lam = 0 limit")
        if radial < 2 or angular < 4:
            raise ValueError("need radial >= 2 and angular >= 4 nodes")
        from scipy.special import roots_laguerre  # CV-only; kept off `import ebench`
        t, v = roots_laguerre(radial)
        r = np.sqrt(t / lam)
        if alpha_max is not None:
            keep = r <= alpha_max
            t, v, r = t[keep], v[keep], r[keep]
            if t.size == 0:
                raise ValueError("alpha_max excludes every radial node")
        theta = 2.0 * np.pi * np.arange(angular) / angular
        nodes = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
        w = (v / (lam * angular))[:, None].repeat(angular, axis=1).reshape(-1)
        # e^{+t} computed in log space; Laguerre weights underflow gracefully
        bare = (np.exp(np.log(v) + t) / (lam * angular))[:, None] \
            .repeat(angular, axis=1).reshape(-1)
        amax = float(r.max()) if alpha_max is None else float(alpha_max)
        return cls(lam=float(lam), nodes=nodes, weights=w, bare_weights=bare,
                   radial_count=int(radial), angular_count=int(angular),
                   alpha_max=amax)

    @classmethod
    def flat_disk(cls, alpha_max: float, radial: int = 64, angular: int = 64) -> "QuadratureGrid":
        """Gauss-Legendre (radial, in t = r^2) x uniform grid on |alpha| <= alpha_max."""
        if alpha_max <= 0:
            raise ValueError("alpha_max must be > 0")
        from scipy.special import roots_legendre  # CV-only; kept off `import ebench`
        x, u = roots_legendre(radial)
        # map [-1, 1] -> t in [0, alpha_max^2]
        tmax = alpha_max ** 2
        t = 0.5 * tmax * (x + 1.0)
        v = 0.5 * tmax * u
        r = np.sqrt(t)
        theta = 2.0 * np.pi * np.arange(angular) / angular
        nodes = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
        w = (v / angular)[:, None].repeat(angular, axis=1).reshape(-1)
        return cls(lam=0.0, nodes=nodes, weights=w, bare_weights=w.copy(),
                   radial_count=int(radial), angular_count=int(angular),
                   alpha_max=float(alpha_max))

    @property
    def size(self) -> int:
        return self.nodes.size

    def gaussian_mass(self) -> float:
        """lam/pi * int e^{-lam |a|^2} d^2a evaluated on the grid (should be 1)."""
        if self.lam == 0.0:
            return float(np.sum(self.weights) / self.alpha_max ** 2)
        return float(self.lam * np.sum(self.weights))

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """sum_k weights_k f(nodes_k) with f vectorized over nodes."""
        return complex(np.sum(self.weights * f(self.nodes)))

    def rings(self) -> "QuadratureGrid":
        """One node per ring, at angle 0, carrying the ring's summed weights.

        Exact for integrands invariant under rotation by 2 pi / angular_count.
        Raises ValueError unless the nodes form rings of angular_count nodes of
        equal radius at angles 2 pi j / angular_count (any layout if that is 1).
        """
        a = self.angular_count
        if a == 1:
            return self
        r = np.abs(self.nodes[::a])
        ring = r[:, None] * np.exp(2j * np.pi * np.arange(a) / a)
        atol = 1e-12 * max(1.0, r.max(initial=0.0))
        if self.size != r.size * a or not np.allclose(self.nodes.reshape(-1, a), ring,
                                                      rtol=0.0, atol=atol):
            raise ValueError(f"grid nodes are not rings of {a} at angles 2 pi j / {a}")
        return replace(self, nodes=r.astype(complex),
                       weights=self.weights.reshape(-1, a).sum(axis=1),
                       bare_weights=self.bare_weights.reshape(-1, a).sum(axis=1),
                       angular_count=1)

    def refined(self, factor: int = 2) -> "QuadratureGrid":
        """Same construction with `factor` times as many nodes per direction."""
        if self.lam == 0.0:
            return QuadratureGrid.flat_disk(self.alpha_max,
                                            self.radial_count * factor,
                                            self.angular_count * factor)
        return QuadratureGrid.gauss_laguerre(self.lam,
                                             self.radial_count * factor,
                                             self.angular_count * factor)

    def metadata(self) -> dict:
        return {"lam": self.lam, "radial": self.radial_count,
                "angular": self.angular_count, "alpha_max": self.alpha_max,
                "kind": "flat_disk" if self.lam == 0.0 else "gauss_laguerre"}
