"""Figure 6 -- Trotter-error extrapolation E(dtau) -> E(0).

World-line energies of the open Heisenberg 4-chain at several Trotter
numbers, the dtau^2 fit, and the comparison of the intercept with true
exact diagonalization.  Shape criteria: E(dtau) bends *away* from the
exact value quadratically (deviations scale ~4x when dtau doubles,
within noise) and the extrapolated intercept agrees with ED.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ed import ExactDiagonalization
from repro.models.hamiltonians import XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.qmc.parallel import run_chain
from repro.qmc.trotter import trotter_extrapolate
from repro.qmc.worldline import WorldlineChainQmc
from repro.util.tables import Table

MODEL = XXZChainModel(n_sites=4, periodic=False)
BETA = 1.0
TROTTER_NUMBERS = [2, 3, 4, 8]


def build(smoke: bool = False) -> tuple[Table, float, float]:
    scale = 20 if smoke else 1
    ed = ExactDiagonalization(MODEL.build_sparse(), 4)
    exact = ed.thermal(BETA).energy

    def run_at(m):
        q = WorldlineChainQmc(MODEL, BETA, 2 * m, seed=200 + m)
        return run_chain(q, ("energy",), 6000 // scale,
                         n_thermalize=500 // scale)["energy"]

    v0, points = trotter_extrapolate(run_at, BETA, TROTTER_NUMBERS)

    table = Table(
        "Figure 6 (as data): Trotter extrapolation, Heisenberg L=4 open, beta=1",
        ["M", "dtau", "E QMC", "err", "E Trotter-exact", "E true ED"],
    )
    for m, p in zip(TROTTER_NUMBERS, points):
        table.add_row(
            [m, p.dtau, p.value, p.error,
             trotter_reference_energy(MODEL, BETA, m), exact]
        )
    return table, v0, exact


def test_fig6_trotter_extrapolation(benchmark, record, smoke):
    table, v0, exact = run_once(benchmark, lambda: build(smoke))

    if not smoke:
        # Each Monte Carlo point sits on its own finite-dtau exact value.
        for m, e_qmc, err, e_ref in zip(
            table.column("M"), table.column("E QMC"), table.column("err"),
            table.column("E Trotter-exact"),
        ):
            assert abs(e_qmc - e_ref) < 4.5 * err, f"M={m} off its Trotter target"

        # The exact Trotter curve itself converges quadratically to ED.
        refs = np.array(table.column("E Trotter-exact"), dtype=float)
        dtaus = np.array(table.column("dtau"), dtype=float)
        devs = np.abs(refs - exact)
        ratio = (devs[0] / devs[-1]) / (dtaus[0] ** 2 / dtaus[-1] ** 2)
        assert 0.5 < ratio < 2.0, "dtau^2 scaling of the systematic error"

        # Extrapolated intercept agrees with true ED.
        errs = [e for e in table.column("err")]
        assert abs(v0 - exact) < 5 * max(errs) + 0.01

    record(
        "fig6_trotter",
        table.render()
        + f"\n\nextrapolated E(dtau->0) = {v0:.4f}   true ED = {exact:.4f}",
    )
