#!/usr/bin/env python3
"""Quantum critical crossover of the 1-D transverse-field Ising model.

Sweeps the transverse field Gamma through the quantum critical point
Gamma = J at low temperature, tracking the order parameter <|m|>, its
Binder cumulant, and <sigma^x>.  The magnetization collapse around
Gamma/J = 1 is the qualitative signature the QMC must reproduce; the
transverse magnetization is checked against the exact free-fermion
solution along the way.

Run:  python examples/tfim_quantum_critical.py
"""

import numpy as np

from repro.models.tfim_exact import tfim_transverse_magnetization
from repro.qmc.chains import run_chain
from repro.qmc.tfim import TfimQmc
from repro.stats.finite_size import binder_cumulant
from repro.util.tables import Series, Table, render_series

L = 24
BETA = 8.0  # low temperature: quantum fluctuations dominate
N_SLICES = 64


def main() -> None:
    gammas = [0.2, 0.5, 0.8, 1.0, 1.2, 1.6, 2.4]
    table = Table(
        f"1-D TFIM, L={L}, beta={BETA}: crossing the quantum critical point",
        ["Gamma/J", "<|m|>", "U4", "<sx> QMC", "<sx> exact"],
    )
    mag = Series("<|m|>")
    for k, gamma in enumerate(gammas):
        q = TfimQmc((L,), j=1.0, gamma=gamma, beta=BETA, n_slices=N_SLICES,
                    seed=20 + k)
        meas = run_chain(q, ("abs_magnetization", "m_squared", "sigma_x"),
                         2500, n_thermalize=400)
        m_abs = float(np.mean(meas["abs_magnetization"]))
        # U4 of the slice-resolved magnetization, <m^4> = <(m^2)^2>.
        u4 = binder_cumulant(np.sqrt(meas["m_squared"]))
        sx = float(np.mean(meas["sigma_x"]))
        sx_exact = tfim_transverse_magnetization(L, BETA, 1.0, gamma)
        table.add_row([gamma, m_abs, u4, sx, sx_exact])
        mag.add(gamma, m_abs)
    print(table.render())
    print()
    print(render_series("order parameter vs transverse field", [mag],
                        x_label="Gamma/J"))
    print("\nExpected shape: <|m|> ~ 1 deep in the ordered phase "
          "(Gamma << J), collapsing near Gamma = J, ~ 0 beyond; "
          "<sigma^x> grows monotonically and tracks the exact curve.")


if __name__ == "__main__":
    main()
