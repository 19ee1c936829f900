"""Swendsen--Wang cluster updates for the anisotropic Ising engine.

The era's (1987) answer to critical slowing down: activate each
*satisfied* bond with probability ``1 - exp(-2|K_a|)``, find the
connected clusters, and flip every cluster with probability 1/2.  The
algorithm is exact (Fortuin--Kasteleyn identity) for any sign and any
anisotropy of the couplings -- which matters here because the TFIM
mapping produces strongly anisotropic lattices (``K_tau`` grows like
``-ln(dtau Gamma)/2``), where single-spin flips crawl but clusters
percolate along the time axis freely.

Implementation notes: bonds are enumerated per axis with ``np.roll``
(periodic); cluster labeling uses
:func:`scipy.sparse.csgraph.connected_components` on the activated-bond
graph, so a full cluster decomposition of a 64x64x16 lattice is a few
milliseconds.  Extent-1 (inert) axes carry zero coupling and activate
nothing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.qmc.classical_ising import AnisotropicIsing

__all__ = ["SwendsenWangIsing"]


class SwendsenWangIsing(AnisotropicIsing):
    """Anisotropic Ising sampler with Swendsen--Wang cluster sweeps.

    Inherits the whole observable surface (bond sums, magnetization,
    ``ESTIMATORS``) from :class:`AnisotropicIsing`; ``sweep`` performs one full
    cluster decomposition + flip.  ``mix_local`` interleaves a local
    Metropolis sweep after every cluster sweep, the standard recipe when
    both short- and long-wavelength modes matter.
    """

    def __init__(self, *args, mix_local: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.mix_local = bool(mix_local)
        self._site_index = np.arange(self.n_sites).reshape(self.shape)
        # Per-axis activation probability of a satisfied bond.
        self._p_activate = 1.0 - np.exp(-2.0 * np.abs(self.couplings))
        # The +1-neighbor index table per active axis is pure geometry:
        # build it once instead of re-rolling every sweep.
        self._rolled_index = [
            np.roll(self._site_index, -1, axis=a)
            if (self.couplings[a] != 0.0 and self.shape[a] > 1)
            else None
            for a in range(self.ndim)
        ]
        # Reusable all-ones edge weights for the activated-bond graph.
        self._edge_ones = np.ones(self.ndim * self.n_sites, dtype=np.int8)
        self.last_n_clusters = self.n_sites

    def _activated_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index arrays of all activated bonds this sweep."""
        rows, cols = [], []
        for a in range(self.ndim):
            if self._rolled_index[a] is None:
                continue
            k = self.couplings[a]
            neighbor = np.roll(self.spins, -1, axis=a)
            satisfied = (k * self.spins * neighbor) > 0
            u = self.stream.uniform(size=self.shape)
            active = satisfied & (u < self._p_activate[a])
            rows.append(self._site_index[active])
            cols.append(self._rolled_index[a][active])
        if not rows:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        return np.concatenate(rows), np.concatenate(cols)

    def cluster_sweep(self) -> int:
        """One Swendsen--Wang update; returns the number of clusters."""
        rows, cols = self._activated_edges()
        n = self.n_sites
        graph = sp.coo_matrix(
            (self._edge_ones[: rows.size], (rows, cols)), shape=(n, n)
        )
        n_clusters, labels = connected_components(graph, directed=False)
        flip = self.stream.uniform(size=n_clusters) < 0.5
        signs = np.where(flip[labels], -1, 1).astype(np.int8).reshape(self.shape)
        self.spins = self.spins * signs
        self.last_n_clusters = int(n_clusters)
        # Every spin was 'attempted' and flipped with probability 1/2.
        self.n_attempted += n
        self.n_accepted += int(flip[labels].sum())
        return n_clusters

    def sweep(self, uniforms: np.ndarray | None = None) -> None:
        """Cluster sweep (optionally followed by one local sweep).

        ``uniforms`` is accepted for signature compatibility with the
        local sampler but only drives the *local* half; cluster bonds
        always draw from the sampler's own stream.
        """
        self.cluster_sweep()
        if self.mix_local:
            super().sweep(uniforms=uniforms)

    def mean_cluster_size(self) -> float:
        """Sites per cluster of the most recent decomposition."""
        return self.n_sites / max(self.last_n_clusters, 1)
