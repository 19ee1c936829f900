#!/usr/bin/env python3
"""Wang-Landau + multicanonical sampling of the 2-D Ising model.

Estimates the density of states g(E) of an 8x8 Ising model with the
Wang-Landau recursion, then runs a fixed-weight multicanonical
production pass whose single trajectory random-walks across the whole
energy range -- from the ground state to complete disorder -- and
reweights to canonical averages at *any* temperature.  Compare with the
canonical sampler, which at low temperature is confined to a narrow
energy band.

Run:  python examples/multicanonical_ising.py
"""

import numpy as np

from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.multicanonical import MulticanonicalSampler, WangLandauSampler
from repro.qmc.chains import run_chain
from repro.util.tables import Series, Table, render_series

L = 8
N = L * L


def main() -> None:
    print("Wang-Landau recursion (8x8 Ising)...")
    wl = WangLandauSampler(
        (L, L), (1.0, 1.0),
        e_min=-2.0 * N - 2.0, e_max=2.0 * N + 2.0, n_bins=2 * N + 1,
        seed=1, log_f_final=1e-5,
    )
    result = wl.run(sweeps_per_check=30)
    print(f"  converged after {result.iterations} f-halvings "
          f"(final ln f = {result.final_log_f:.2e})")

    log_g = result.log_g_normalized(N * np.log(2.0))
    entropy = Series("ln g(E)")
    for e, lg, ok in zip(result.bin_centers, log_g, result.visited):
        if ok:
            entropy.add(e, lg)
    print(render_series("microcanonical entropy ln g(E), 8x8 Ising",
                        [entropy], x_label="E"))

    print("\nmulticanonical production run...")
    muca = MulticanonicalSampler((L, L), (1.0, 1.0), result, seed=2)
    energies = muca.run(n_sweeps=6000, n_thermalize=300)
    print(f"  energy range visited: [{energies.min():.0f}, {energies.max():.0f}]"
          f" of [-{2 * N}, {2 * N}] -- one flat random walk")

    table = Table(
        "canonical <E>/N by multicanonical reweighting vs direct sampling",
        ["T", "muca reweighted", "direct canonical"],
    )
    for temp in (1.5, 2.27, 3.5):
        beta = 1.0 / temp
        direct = AnisotropicIsing((L, L), (beta, beta), seed=5, hot_start=True)
        bonds = run_chain(direct, ("bond_sums",), 2000, n_thermalize=400)["bond_sums"]
        e_direct = float(np.mean(-(bonds[:, 0] + bonds[:, 1])))
        table.add_row([temp, muca.reweighted_energy(beta) / N, e_direct / N])
    print(table.render())
    print("\nOne multicanonical run covers every temperature at once; the")
    print("direct sampler needs a separate equilibrated run per temperature.")


if __name__ == "__main__":
    main()
