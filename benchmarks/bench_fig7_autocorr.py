"""Figure 7 -- autocorrelation times: critical slowing down and tempering.

Two panels of the sampling-efficiency story:

(a) local Metropolis on the 2-D Ising model: the integrated
    autocorrelation time of the *signed magnetization* (the
    order-parameter tunneling time) grows sharply as T falls toward
    T_c, while the energy decorrelates comparatively quickly, and
(b) at a fixed near-critical temperature, parallel tempering collapses
    the magnetization tunneling time: hot replicas flip freely and the
    flipped configurations migrate down the temperature ladder.

Shape criteria: tau_m(T ~ Tc) > 4x tau_m(T >> Tc); tau_m >> tau_E near
Tc; tempering reduces the near-critical tau_m by at least 2x.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.models.ising_exact import onsager_critical_temperature
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.parallel import run_chain
from repro.qmc.tempering import TemperingConfig, tempering_program
from repro.stats.autocorr import integrated_autocorr_time
from repro.util.tables import Table
from repro.vmp import IDEAL, run_spmd

L = 16
TC = onsager_critical_temperature()
N_SWEEPS = 8000
T_NEAR = 2.3


def local_taus(temperature: float, seed: int, scale: int = 1) -> tuple[float, float]:
    beta = 1.0 / temperature
    s = AnisotropicIsing((L, L), (beta, beta), seed=seed, hot_start=True)
    obs = run_chain(s, ("magnetization", "bond_sums"), N_SWEEPS // scale,
                    n_thermalize=1000 // scale)
    energy = -(obs["bond_sums"][:, 0] + obs["bond_sums"][:, 1])
    return (
        integrated_autocorr_time(obs["magnetization"]),
        integrated_autocorr_time(energy),
    )


def tempered_tau_m(target_temperature: float, scale: int = 1) -> float:
    temps = np.array([target_temperature, 2.6, 3.0, 3.6])
    cfg = TemperingConfig(
        shape=(L, L),
        couplings_j=(1.0, 1.0),
        betas=tuple(1.0 / t for t in temps),
        n_sweeps=N_SWEEPS // scale,
        n_thermalize=1000 // scale,
        exchange_every=2,
    )
    res = run_spmd(tempering_program, 4, machine=IDEAL, seed=9, args=(cfg,))
    return integrated_autocorr_time(res.values[0]["magnetization"])


def build(smoke: bool = False) -> tuple[Table, float, float]:
    scale = 20 if smoke else 1
    panel_a = Table(
        f"Figure 7a (as data): tau_int, local Metropolis, {L}x{L} Ising",
        ["T", "T/Tc", "tau_m", "tau_E"],
    )
    taus_m = {}
    for k, temp in enumerate((4.0, 3.0, 2.6, T_NEAR)):
        tau_m, tau_e = local_taus(temp, seed=80 + k, scale=scale)
        taus_m[temp] = tau_m
        panel_a.add_row([temp, temp / TC, tau_m, tau_e])
    tau_pt = tempered_tau_m(T_NEAR, scale=scale)
    return panel_a, taus_m[T_NEAR], tau_pt


def test_fig7_autocorrelation(benchmark, record, smoke):
    panel_a, tau_local, tau_pt = run_once(benchmark, lambda: build(smoke))

    if not smoke:
        taus_m = panel_a.column("tau_m")
        taus_e = panel_a.column("tau_E")
        # Critical slowing down of the order parameter.
        assert taus_m[-1] > 4 * taus_m[0]
        # Near Tc the magnetization tunneling time dwarfs the energy time.
        assert taus_m[-1] > 3 * taus_e[-1]

        # Tempering collapses the tunneling time.
        assert tau_pt < 0.5 * tau_local, (
            f"tempering tau_m {tau_pt:.1f} vs local {tau_local:.1f}"
        )

    record(
        "fig7_autocorr",
        panel_a.render()
        + f"\n\nFigure 7b: tau_m at T={T_NEAR} -- local {tau_local:.1f} "
        f"vs parallel tempering {tau_pt:.1f}",
    )
