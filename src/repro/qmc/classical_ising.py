"""Vectorized checkerboard Metropolis for anisotropic classical Ising models.

This is the workhorse classical engine: the Suzuki--Trotter mapping
turns a d-dimensional transverse-field Ising model into a
(d+1)-dimensional *anisotropic* classical Ising model, so one sampler
serves the 1-D TFIM (2-D classical), the 2-D TFIM (3-D classical) and
-- run isotropically -- the plain 2-D Ising model validated against
Onsager.

Conventions: spins ``s = +-1`` on a periodic hypercubic lattice of even
extents; the *reduced* Hamiltonian is

    beta H = - sum_a K_a sum_<ij>_a s_i s_j

with one dimensionless coupling ``K_a`` per axis.  The two-color
checkerboard (color = parity of the coordinate sum) makes all
same-color sites non-interacting, so a whole color is updated in one
vectorized Metropolis step -- and, crucially for the parallel driver,
simultaneous acceptance within a color is *exactly* equivalent to any
sequential order, which is what makes domain-decomposed runs
bit-identical to serial ones given the same per-site random numbers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.util.rng import RankStream, SeedSequenceFactory

__all__ = ["AnisotropicIsing", "FLOPS_PER_SPIN_UPDATE"]

#: Modeled floating-point work per spin-update attempt (2d neighbor
#: loads, d multiply-adds, one exp-table lookup, one compare).
FLOPS_PER_SPIN_UPDATE = 14.0


class AnisotropicIsing:
    """Checkerboard Metropolis sampler on a periodic hypercubic lattice."""

    #: Series name -> estimator method.  ``magnetization`` is the mean
    #: spin; the ``bond_sums`` row holds ``sum_<ij>_a s_i s_j`` per axis.
    ESTIMATORS = {
        "magnetization": "magnetization",
        "abs_magnetization": "abs_magnetization",
        "bond_sums": "bond_sums",
    }

    def __init__(
        self,
        shape: Sequence[int],
        couplings: Sequence[float],
        seed: int | None = 0,
        stream: RankStream | None = None,
        hot_start: bool = False,
        kernel: str = "auto",
    ):
        shape = tuple(int(n) for n in shape)
        if len(shape) < 1:
            raise ValueError("need at least one axis")
        if len(couplings) != len(shape):
            raise ValueError("need one coupling per axis")
        for n, k in zip(shape, couplings):
            if n == 1:
                # Inert embedding axis (used to lift a 2-D problem into the
                # 3-D block driver); it must not carry interactions.
                if k != 0.0:
                    raise ValueError(
                        "extent-1 axes must have zero coupling (a periodic "
                        "size-1 axis would self-interact)"
                    )
            elif n < 2 or n % 2:
                raise ValueError(
                    f"periodic checkerboard lattices need even extents >= 2 "
                    f"(or inert extent-1 axes), got {shape}"
                )
        self.shape = shape
        self.ndim = len(shape)
        self.couplings = np.asarray(couplings, dtype=float)
        self.stream = stream if stream is not None else SeedSequenceFactory(
            seed if seed is not None else 0
        ).rank_stream(0)
        if hot_start:
            self.spins = (
                2 * self.stream.integers(0, 2, size=shape).astype(np.int8) - 1
            )
        else:
            self.spins = np.ones(shape, dtype=np.int8)
        # color[i] = parity of coordinate sum
        grids = np.indices(shape).sum(axis=0)
        self._color_masks = [(grids % 2) == c for c in (0, 1)]
        # Kernel backend for the color updates ("auto": registry best;
        # every backend yields the bit-identical trajectory).
        self.kernel = kernels.resolve_kernel(kernel)
        self._ops = kernels.get_ops(self.kernel)
        self.n_attempted = 0
        self.n_accepted = 0

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.shape))

    # ------------------------------------------------------------------
    def local_field(self) -> np.ndarray:
        """``sum_a K_a (s_{i+e_a} + s_{i-e_a})`` for every site (vectorized)."""
        field = np.zeros(self.shape)
        for a in range(self.ndim):
            field += self.couplings[a] * (
                np.roll(self.spins, 1, axis=a) + np.roll(self.spins, -1, axis=a)
            )
        return field

    def sweep(self, uniforms: np.ndarray | None = None) -> None:
        """One full lattice sweep: both checkerboard colors.

        ``uniforms`` (same shape as the lattice) lets a caller supply
        the per-site random numbers -- the hook the parallel driver
        uses to achieve bit-identical serial/parallel trajectories.
        """
        if uniforms is None:
            uniforms = self.stream.uniform(size=self.shape)
        elif uniforms.shape != self.shape:
            raise ValueError(f"uniforms shape {uniforms.shape} != lattice {self.shape}")
        # Metropolis ratio exp(-2 s_i field_i); accept where u < ratio.
        log_u = np.log(np.maximum(uniforms, 1e-300))
        op = self._ops["ising_color"]
        for mask in self._color_masks:
            self.spins, n_acc = op(self.spins, self.couplings, mask, log_u)
            self.n_attempted += int(mask.sum())
            self.n_accepted += n_acc

    def resolve_sweep(self, mode: str = "auto"):
        """``(kernel, sweep)``: the kernel is the constructor's
        ``kernel=``; a ``mode`` other than ``"auto"`` must name it."""
        if mode != "auto" and kernels.resolve_kernel(mode) != self.kernel:
            raise ValueError(
                f"this sampler sweeps with the {self.kernel!r} kernel its "
                f"constructor resolved, not {mode!r}: pass kernel={mode!r} there"
            )
        return self.kernel, self.sweep

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_attempted if self.n_attempted else 0.0

    # ------------------------------------------------------------------
    def bond_sum(self, axis: int) -> float:
        """``sum_<ij> s_i s_j`` along one axis (all periodic bonds)."""
        return float(np.sum(self.spins * np.roll(self.spins, -1, axis=axis)))

    def bond_sums(self) -> np.ndarray:
        return np.array([self.bond_sum(a) for a in range(self.ndim)])

    def reduced_energy(self) -> float:
        """``beta H = -sum_a K_a bond_sum(a)`` of the current configuration."""
        return float(-np.dot(self.couplings, self.bond_sums()))

    def magnetization(self) -> float:
        return float(self.spins.mean())

    def abs_magnetization(self) -> float:
        return abs(self.magnetization())
