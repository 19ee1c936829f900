"""Figure 12 (extension) -- Binder-cumulant crossing locates T_c.

The era-standard finite-size-scaling analysis: U4(T, L) curves for two
lattice sizes, sampled with Swendsen--Wang clusters (so the
near-critical points decorrelate), cross at the critical temperature.
Shape criteria: each curve decreases monotonically in T; the larger
lattice's curve is steeper; the crossing lands within 2% of Onsager's
exact T_c = 2.2692.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ising_exact import onsager_critical_temperature
from repro.qmc.cluster import SwendsenWangIsing
from repro.qmc.parallel import run_chain
from repro.stats.finite_size import BinderCurve, binder_cumulant, crossing_temperature
from repro.util.tables import Table

TC = onsager_critical_temperature()
TEMPS = np.array([2.10, 2.18, 2.24, 2.30, 2.38, 2.50])
SIZES = (8, 16)
N_SWEEPS = 4000


def measure_curve(size: int, seed: int, scale: int = 1) -> BinderCurve:
    u4 = []
    for k, temp in enumerate(TEMPS):
        beta = 1.0 / temp
        s = SwendsenWangIsing((size, size), (beta, beta), seed=seed + k)
        obs = run_chain(s, ("magnetization",), N_SWEEPS // scale,
                        n_thermalize=300 // scale)
        u4.append(binder_cumulant(obs["magnetization"]))
    return BinderCurve(size, TEMPS, np.array(u4))


def build(smoke: bool = False) -> tuple[Table, float]:
    scale = 20 if smoke else 1
    curves = [measure_curve(size, seed=100 * size, scale=scale) for size in SIZES]
    table = Table(
        "Figure 12 (as data): Binder cumulant U4(T, L), 2-D Ising (SW clusters)",
        ["T", "T/Tc"] + [f"L={s}" for s in SIZES],
    )
    for i, t in enumerate(TEMPS):
        table.add_row([t, t / TC] + [float(c.u4[i]) for c in curves])
    t_cross = crossing_temperature(curves[0], curves[1])
    return table, t_cross


def test_fig12_binder_crossing(benchmark, record, smoke):
    table, t_cross = run_once(benchmark, lambda: build(smoke))

    if not smoke:
        for size in SIZES:
            u4 = table.column(f"L={size}")
            # Monotone decreasing through the critical region (small
            # noise slack).
            assert all(a >= b - 0.03 for a, b in zip(u4, u4[1:])), f"L={size}"
        # Larger lattice = steeper curve (bigger drop over the window).
        drop8 = table.column("L=8")[0] - table.column("L=8")[-1]
        drop16 = table.column("L=16")[0] - table.column("L=16")[-1]
        assert drop16 > drop8

        assert abs(t_cross - TC) < 0.02 * TC, (
            f"crossing {t_cross:.3f} vs Tc {TC:.3f}"
        )

    record(
        "fig12_binder_crossing",
        table.render()
        + f"\n\nBinder crossing: T = {t_cross:.4f}   (Onsager T_c = {TC:.4f})",
    )
