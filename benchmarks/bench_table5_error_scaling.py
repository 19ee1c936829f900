"""Table 5 (extension) -- statistical error scaling and effective statistics.

The statistics table every serious MC paper carries: the error of the
energy estimate falls like 1/sqrt(n_sweeps), and the binning analysis
quantifies how many sweeps one autocorrelation time eats.  Shape
criteria: quadrupling the sweeps roughly halves the binned error
(within the chi^2 noise of error-of-error estimation); tau_int is
consistent across run lengths.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.qmc.chains import run_chain
from repro.qmc.tfim import TfimQmc
from repro.stats.binning import BinningAnalysis
from repro.util.tables import Table

SWEEP_GRID = [1000, 4000, 16000]


def build(smoke: bool = False) -> Table:
    scale = 20 if smoke else 1
    table = Table(
        "Table 5: error scaling, TFIM chain L=16 (Gamma=1, beta=2)",
        ["sweeps", "E mean", "binned err", "err*sqrt(sweeps)", "tau_int"],
    )
    for k, sweeps in enumerate(SWEEP_GRID):
        sweeps //= scale
        q = TfimQmc((16,), j=1.0, gamma=1.0, beta=2.0, n_slices=32, seed=300 + k)
        meas = run_chain(q, ("energy",), sweeps, n_thermalize=400 // scale)
        ba = BinningAnalysis.from_series(meas["energy"])
        table.add_row(
            [sweeps, ba.mean, ba.error, ba.error * np.sqrt(sweeps), ba.tau_int]
        )
    return table


def test_table5_error_scaling(benchmark, record, smoke):
    table = run_once(benchmark, lambda: build(smoke))

    if not smoke:
        errs = table.column("binned err")
        # Errors fall with sweeps...
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # ...like 1/sqrt(M): the normalized column is flat within a factor 2.
        normalized = table.column("err*sqrt(sweeps)")
        assert max(normalized) < 2.5 * min(normalized)

        # All runs see the same underlying physics.
        means = table.column("E mean")
        assert max(means) - min(means) < 6 * max(errs)

    record("table5_error_scaling", table.render())
