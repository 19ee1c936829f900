"""Figure 3 -- energy versus temperature, QMC against the exact curve.

TFIM chain at fixed Gamma: QMC energies across a temperature sweep,
compared point-by-point with the exact free-fermion solution.  Shape
criteria: every point agrees within its window; the curve is monotone
in T and approaches the exact ground-state energy as T -> 0.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.tfim_exact import (
    tfim_finite_temperature_energy,
    tfim_ground_state_energy,
)
from repro.qmc.chains import run_chain
from repro.qmc.tfim import TfimQmc
from repro.stats.binning import BinningAnalysis
from repro.util.tables import Table

L, GAMMA = 16, 0.8
TEMPS = [4.0, 2.0, 1.0, 0.5, 0.25]


def build_table(smoke: bool = False) -> Table:
    scale = 20 if smoke else 1
    table = Table(
        f"Figure 3 (as data): E/N vs T, TFIM chain L={L}, Gamma={GAMMA}",
        ["T", "QMC", "err", "exact", "|dev|/sigma"],
    )
    for k, temp in enumerate(TEMPS):
        beta = 1.0 / temp
        n_slices = max(8, 2 * int(np.ceil(8 * beta)))  # keep dtau <= 1/16
        if n_slices % 2:
            n_slices += 1
        q = TfimQmc((L,), j=1.0, gamma=GAMMA, beta=beta, n_slices=n_slices,
                    seed=50 + k)
        meas = run_chain(q, ("energy",), 2500 // scale, n_thermalize=300 // scale)
        ba = BinningAnalysis.from_series(meas["energy"] / L)
        exact = tfim_finite_temperature_energy(L, beta, 1.0, GAMMA) / L
        sigma_eff = float(np.hypot(ba.error, 0.01 * abs(exact)))
        table.add_row([temp, ba.mean, ba.error, exact, abs(ba.mean - exact) / sigma_eff])
    return table


def test_fig3_energy_vs_temperature(benchmark, record, smoke):
    table = run_once(benchmark, lambda: build_table(smoke))

    if not smoke:
        devs = table.column("|dev|/sigma")
        assert all(d < 4.5 for d in devs), f"points off the exact curve: {devs}"

        qmc = table.column("QMC")
        assert all(a > b for a, b in zip(qmc, qmc[1:])), "E must fall as T falls"

        e_gs = tfim_ground_state_energy(L, 1.0, GAMMA) / L
        assert abs(qmc[-1] - e_gs) < 0.05 * abs(e_gs), "T->0 limit"

    record("fig3_energy_vs_T", table.render())
