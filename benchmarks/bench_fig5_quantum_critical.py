"""Figure 5 -- quantum critical crossover of the 1-D TFIM.

Order parameter <|m|> versus transverse field at low temperature: ~1
deep in the ordered phase, collapsing around Gamma = J, ~0 beyond.
<sigma^x> is simultaneously validated against the free-fermion curve.
Shape criteria: monotone collapse, ordered/disordered contrast > 5x,
crossover bracketing Gamma = J, sigma_x within 5% of exact everywhere.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.tfim_exact import tfim_transverse_magnetization
from repro.qmc.chains import run_chain
from repro.qmc.tfim import TfimQmc
from repro.util.tables import Table

L, BETA, M = 16, 6.0, 48
GAMMAS = [0.3, 0.7, 1.0, 1.3, 2.0]


def build_table(smoke: bool = False) -> Table:
    scale = 20 if smoke else 1
    table = Table(
        f"Figure 5 (as data): TFIM L={L}, beta={BETA}: order parameter vs Gamma",
        ["Gamma/J", "<|m|>", "<sx> QMC", "<sx> exact"],
    )
    for k, gamma in enumerate(GAMMAS):
        q = TfimQmc((L,), j=1.0, gamma=gamma, beta=BETA, n_slices=M, seed=70 + k)
        meas = run_chain(q, ("abs_magnetization", "sigma_x"), 2500 // scale,
                         n_thermalize=400 // scale)
        table.add_row(
            [
                gamma,
                float(np.mean(meas["abs_magnetization"])),
                float(np.mean(meas["sigma_x"])),
                tfim_transverse_magnetization(L, BETA, 1.0, gamma),
            ]
        )
    return table


def test_fig5_quantum_critical(benchmark, record, smoke):
    table = run_once(benchmark, lambda: build_table(smoke))

    if not smoke:
        m = table.column("<|m|>")
        assert all(a >= b - 0.03 for a, b in zip(m, m[1:])), "collapse monotone"
        assert m[0] > 0.9, "deep ordered phase magnetized"
        assert m[-1] < m[0] / 5, "disordered phase collapsed"
        # Crossover brackets Gamma = J: big drop between 0.7 and 1.3.
        assert m[1] - m[3] > 0.3

        sx_qmc = table.column("<sx> QMC")
        sx_exact = table.column("<sx> exact")
        for q, e in zip(sx_qmc, sx_exact):
            assert abs(q - e) < 0.05 * max(e, 0.1), f"sigma_x {q} vs exact {e}"

    record("fig5_quantum_critical", table.render())
