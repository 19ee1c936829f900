"""Figure 11 (extension) -- the 2-D Heisenberg antiferromagnet.

The flagship physics target of early parallel world-line QMC: energy
and staggered structure factor of the 4x4 Heisenberg model versus
temperature, with the ground-state energy computed *in-repo* by sparse
Lanczos (E0 = -11.2285, the well-known 4x4 value) as the T -> 0 anchor.

Shape criteria: E(beta) decreases monotonically toward E0 and lands
within the documented systematic window (thermal + Trotter + winding
restriction + slow local-update mixing at low T: 8%); the staggered
structure factor S(pi,pi) *grows* as T falls -- the antiferromagnetic
correlation buildup that motivated these simulations.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ed import lanczos_ground_state
from repro.models.hamiltonians import XXZSquareModel
from repro.qmc.parallel import run_chain
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.stats.binning import BinningAnalysis
from repro.util.tables import Table

MODEL = XXZSquareModel(lx=4, ly=4)
N = 16
POINTS = [  # (beta, M, sweeps)
    (0.5, 6, 2500),
    (1.0, 12, 2000),
    (2.0, 20, 1500),
    (4.0, 40, 1500),
]


def build(smoke: bool = False) -> tuple[Table, float]:
    scale = 20 if smoke else 1
    e0 = float(lanczos_ground_state(MODEL.build_sparse())[0])
    table = Table(
        "Figure 11 (as data): 4x4 Heisenberg AFM vs temperature",
        ["beta", "E QMC", "err", "S(pi,pi)", "E0 (Lanczos)"],
    )
    for k, (beta, m, sweeps) in enumerate(POINTS):
        sweeps = max(sweeps // scale, 20)
        q = WorldlineSquareQmc(MODEL, beta, 4 * m, seed=90 + k)
        meas = run_chain(q, ("energy", "m_stag_sq"), sweeps,
                         n_thermalize=sweeps // 5)
        ba = BinningAnalysis.from_series(meas["energy"])
        s_afm = float(N * np.mean(meas["m_stag_sq"]))  # S(pi, pi)
        table.add_row([beta, ba.mean, ba.error, s_afm, e0])
    return table, e0


def test_fig11_heisenberg_2d(benchmark, record, smoke):
    table, e0 = run_once(benchmark, lambda: build(smoke))

    if not smoke:
        energies = table.column("E QMC")
        s_afm = table.column("S(pi,pi)")

        # Energy falls monotonically with beta toward the ground state.
        assert all(a > b for a, b in zip(energies, energies[1:]))
        assert energies[-1] > e0 - 0.05  # variational-like bound (up to noise)
        assert abs(energies[-1] - e0) < 0.08 * abs(e0), (
            f"E(beta=4) = {energies[-1]:.3f} vs E0 = {e0:.3f}"
        )
        # Antiferromagnetic order builds up as T falls.
        assert all(a < b for a, b in zip(s_afm, s_afm[1:]))
        assert s_afm[-1] > 2 * s_afm[0]

    record("fig11_heisenberg2d", table.render())
