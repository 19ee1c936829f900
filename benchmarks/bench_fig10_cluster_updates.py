"""Figure 10 (extension) -- cluster versus local updates.

The Swendsen--Wang ablation: near the 2-D Ising critical point the
cluster algorithm collapses the order-parameter autocorrelation time
that local Metropolis suffers (critical slowing down); the same
machinery accelerates the TFIM's classical mapping, whose time-axis
coupling K_tau strengthens as dtau shrinks and glues local dynamics.

Shape criteria: tau_m(SW) < tau_m(local)/5 near criticality; SW
magnetization agrees with Onsager below T_c; for the TFIM mapping at
small dtau, the cluster sampler's energy matches ED while decorrelating
at least as fast as the local sampler.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ising_exact import onsager_spontaneous_magnetization
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.cluster import SwendsenWangIsing
from repro.qmc.chains import run_chain
from repro.stats.autocorr import integrated_autocorr_time
from repro.util.tables import Table

L = 16
N_SWEEPS = 5000


def critical_comparison(scale: int = 1) -> Table:
    table = Table(
        f"Figure 10a (as data): tau_m near criticality, {L}x{L} Ising",
        ["T", "tau_m local", "tau_m SW", "ratio"],
    )
    for temp, seed in ((2.6, 1), (2.3, 2)):
        beta = 1.0 / temp
        local = AnisotropicIsing((L, L), (beta, beta), seed=seed, hot_start=True)
        obs_l = run_chain(local, ("magnetization",), N_SWEEPS // scale,
                          n_thermalize=600 // scale)
        tau_l = integrated_autocorr_time(obs_l["magnetization"])
        sw = SwendsenWangIsing((L, L), (beta, beta), seed=seed + 10, hot_start=True)
        obs_c = run_chain(sw, ("magnetization",), N_SWEEPS // scale,
                          n_thermalize=200 // scale)
        tau_c = integrated_autocorr_time(obs_c["magnetization"])
        table.add_row([temp, tau_l, tau_c, tau_l / tau_c])
    return table


def ordered_phase_accuracy(scale: int = 1) -> tuple[float, float]:
    beta = 0.6
    sw = SwendsenWangIsing((L, L), (beta, beta), seed=21)
    obs = run_chain(sw, ("abs_magnetization",), 2000 // scale,
                    n_thermalize=200 // scale)
    return float(np.mean(obs["abs_magnetization"])), onsager_spontaneous_magnetization(beta)


def test_fig10_cluster_updates(benchmark, record, smoke):
    scale = 20 if smoke else 1
    table = run_once(benchmark, lambda: critical_comparison(scale))

    m_sw, m_exact = ordered_phase_accuracy(scale)
    if not smoke:
        ratios = table.column("ratio")
        assert ratios[-1] > 5, f"SW speedup near Tc only {ratios[-1]:.1f}x"
        assert all(r > 1 for r in ratios)

        assert abs(m_sw - m_exact) < 0.02

    record(
        "fig10_cluster_updates",
        table.render()
        + f"\n\nFigure 10b: ordered-phase |m| -- SW {m_sw:.4f} vs Onsager "
        f"{m_exact:.4f}",
    )
