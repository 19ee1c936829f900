#!/usr/bin/env python3
"""The 2-D Heisenberg antiferromagnet by world-line QMC.

The physics target that drove early parallel QMC (parent compounds of
high-T_c superconductors are 2-D spin-1/2 Heisenberg antiferromagnets):
cooling the 4x4 model, the energy approaches the exact (in-repo
Lanczos) ground state while the staggered structure factor S(pi,pi)
grows -- antiferromagnetic order building up.

Run:  python examples/heisenberg_2d_afm.py   (~2-3 minutes)
"""

import numpy as np

from repro.models.ed import lanczos_ground_state
from repro.models.hamiltonians import XXZSquareModel
from repro.qmc.parallel import run_chain
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import susceptibility
from repro.util.tables import Series, Table, render_series

MODEL = XXZSquareModel(lx=4, ly=4)
N = 16


def main() -> None:
    e0 = float(lanczos_ground_state(MODEL.build_sparse())[0])
    print(f"exact 4x4 ground state (Lanczos): E0 = {e0:.4f}  "
          f"({e0 / N:.4f} per site)\n")

    table = Table(
        "4x4 Heisenberg antiferromagnet: cooling run",
        ["T/J", "E/N", "err", "S(pi,pi)", "chi"],
    )
    s_series = Series("S(pi,pi)")
    for k, (beta, m, sweeps) in enumerate(
        [(0.5, 6, 2000), (1.0, 12, 1500), (2.0, 20, 1200), (4.0, 40, 1000)]
    ):
        q = WorldlineSquareQmc(MODEL, beta, 4 * m, seed=40 + k)
        meas = run_chain(q, ("energy", "magnetization", "m_stag_sq"), sweeps,
                         n_thermalize=sweeps // 5)
        ba = BinningAnalysis.from_series(meas["energy"])
        s_afm = float(N * np.mean(meas["m_stag_sq"]))
        chi = susceptibility(meas["magnetization"], beta, N)
        table.add_row([1 / beta, ba.mean / N, ba.error / N, s_afm, chi])
        s_series.add(1 / beta, s_afm)
    print(table.render())
    print()
    print(render_series("antiferromagnetic order vs temperature",
                        [s_series], x_label="T/J"))
    print("\nExpected: E/N falls toward E0/N = %.4f; S(pi,pi) grows as T" % (e0 / N))
    print("falls (AFM correlations); uniform chi stays finite (no net moment).")


if __name__ == "__main__":
    main()
