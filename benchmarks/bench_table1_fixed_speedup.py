"""Table 1 -- fixed-size speedup and efficiency versus node count.

The headline table of the paper genre: one Heisenberg-chain world-line
workload, strip-decomposed, on the CM-5 machine model from 1 to 1024
nodes.  Small node counts are *executed* on the simulated fabric (data
really moves); the full sweep comes from the cross-validated analytic
model.  Shape criteria: monotone speedup, near-linear at small P,
efficiency decaying monotonically, >= 25% at P = 256.
"""

from benchmarks.conftest import run_once
from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE
from repro.util.tables import Table
from repro.vmp import CM5, run_spmd
from repro.vmp.performance import PerformanceModel, WorkloadShape

LX, LT = 1024, 64
WORKLOAD = WorkloadShape(
    lx=LX, ly=1, lt=LT,
    flops_per_site=FLOPS_PER_CORNER_MOVE,
    sweeps=500, bytes_per_site=1, strategy="strip",
    measurement_interval=10,  # reductions every 10 sweeps, as era codes did
)


def build_table() -> Table:
    pm = PerformanceModel(CM5, WORKLOAD)
    table = Table(
        f"Table 1: fixed-size speedup, {LX}-site Heisenberg chain x {LT} "
        "slices, CM-5 model (strip decomposition)",
        ["P", "T[s]", "speedup", "efficiency"],
    )
    p = 1
    while p <= 1024:
        table.add_row([p, pm.time(p), pm.speedup(p), pm.efficiency(p)])
        p *= 2
    return table


def executed_anchor() -> dict[int, float]:
    """Executed small-P makespans of the strip driver.

    The main table's half-sweep-batched model charges 4 messages per
    rank per sweep; the driver's halo schedule sends 1 at P = 2 (one
    refresh of its ten-column ghosts) and 4 at P = 4 (pieces of 8 cap
    the ghosts at 6 columns, refreshed twice), so the anchor holds the
    model to a structural factor, not to its message count.  At this
    toy size the run is still latency-bound; a ``halo_schedule`` of
    more, smaller messages is the model's granularity ablation (e.g.
    six refreshes: one before every stage).
    """
    cfg = WorldlineStripConfig(
        n_sites=32, jz=1.0, jxy=1.0, beta=2.0, n_slices=16,
        n_sweeps=60, n_thermalize=10, measure_every=10,
    )
    out = {}
    for p in (1, 2, 4):
        res = run_spmd(worldline_strip_program, p, machine=CM5, seed=7, args=(cfg,))
        out[p] = res.elapsed_model_time
    return out


def test_table1_fixed_speedup(benchmark, record):
    table = run_once(benchmark, build_table)
    anchors = executed_anchor()

    speedups = table.column("speedup")
    effs = table.column("efficiency")
    ps = table.column("P")

    # Shape criteria (reconstructed evaluation, see EXPERIMENTS.md).
    # Fixed-size speedup may saturate at extreme P on a latency-bound
    # machine (the honest era story), but must be monotone through 128.
    upto128 = [s for p, s in zip(ps, speedups) if p <= 128]
    assert all(a < b for a, b in zip(upto128, upto128[1:])), "speedup monotone"
    assert speedups[ps.index(16)] > 14, "near-linear at small P"
    assert all(a >= b for a, b in zip(effs, effs[1:])), "efficiency monotone"
    assert effs[ps.index(256)] > 0.25

    # Executed anchor: compare against the same model at the anchor's
    # size (default schedule: 4 halo messages per rank and sweep).
    # Agreement within a structural factor validates the large-P rows
    # above.
    import dataclasses

    small_pm = PerformanceModel(
        CM5, dataclasses.replace(WORKLOAD, lx=32, lt=16, sweeps=60)
    )
    anchor_tab = Table(
        "executed anchor: 32-site chain x 16 slices, 60 sweeps",
        ["P", "T_exec[s]", "T_model[s]", "ratio"],
    )
    for p in (1, 2, 4):
        t_model = small_pm.time(p)
        ratio = anchors[p] / t_model
        anchor_tab.add_row([p, anchors[p], t_model, ratio])
        assert 0.3 < ratio < 3.0, (
            f"executed/model mismatch at P={p}: {anchors[p]:.4g} vs {t_model:.4g}"
        )

    record("table1_fixed_speedup", table.render() + "\n\n" + anchor_tab.render())
