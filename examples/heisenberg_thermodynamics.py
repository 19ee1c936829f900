#!/usr/bin/env python3
"""Thermodynamics of the spin-1/2 Heisenberg chain by world-line QMC.

Sweeps temperature, measuring energy per site and uniform
susceptibility, and compares each point against exact diagonalization.
Also demonstrates the Trotter dtau -> 0 extrapolation at one
temperature.  This is the workload class the original paper's
application section is built around.

Run:  python examples/heisenberg_thermodynamics.py
"""

from repro.models.ed import ExactDiagonalization
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.parallel import run_chain
from repro.qmc.trotter import trotter_extrapolate
from repro.qmc.worldline import WorldlineChainQmc
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import susceptibility
from repro.util.tables import Table

L = 8
MODEL = XXZChainModel(n_sites=L, jz=1.0, jxy=1.0, periodic=True)


def qmc_point(beta: float, n_slices: int, seed: int):
    sampler = WorldlineChainQmc(MODEL, beta, n_slices, seed=seed)
    meas = run_chain(sampler, ("energy", "magnetization"), 4000, n_thermalize=400)
    e = BinningAnalysis.from_series(meas["energy"])
    chi = susceptibility(meas["magnetization"], beta, L)
    return e.mean / L, e.error / L, chi


def main() -> None:
    ed = ExactDiagonalization(MODEL.build_sparse(), L)

    table = Table(
        f"Heisenberg chain L={L}: QMC vs exact diagonalization",
        ["T/J", "e_QMC", "err", "e_exact", "chi_QMC", "chi_exact"],
    )
    for k, temperature in enumerate((2.0, 1.0, 0.667, 0.5)):
        beta = 1.0 / temperature
        n_slices = max(8, int(8 * beta) * 2)
        e, de, chi = qmc_point(beta, n_slices, seed=10 + k)
        exact = ed.thermal(beta)
        table.add_row(
            [temperature, e, de, exact.energy / L, chi, exact.susceptibility]
        )
    print(table.render())

    print("\nTrotter extrapolation at T = J (beta = 1):")
    beta = 1.0

    def run_at(m):
        q = WorldlineChainQmc(MODEL, beta, 2 * m, seed=100 + m)
        return run_chain(q, ("energy",), 3000, n_thermalize=300)["energy"]

    e0, points = trotter_extrapolate(run_at, beta, [2, 4, 8])
    for p in points:
        print(f"  dtau = {p.dtau:.3f}:  E = {p.value:.4f} +- {p.error:.4f}")
    exact_e = ed.thermal(beta).energy
    print(f"  extrapolated dtau->0:  E = {e0:.4f}   (exact {exact_e:.4f})")

    print("\nSpin-spin correlations at beta = 1 (QMC):")
    q = WorldlineChainQmc(MODEL, 1.0, 16, seed=77)
    meas = run_chain(q, ("szsz",), 3000, n_thermalize=300)
    c = meas["szsz"].mean(axis=0)
    for r, val in enumerate(c):
        bar = "#" * int(40 * abs(val) / 0.25)
        sign = "+" if val >= 0 else "-"
        print(f"  C({r}) = {val:+.4f} {sign}{bar}")
    print("  (antiferromagnetic sign alternation expected)")


if __name__ == "__main__":
    main()
