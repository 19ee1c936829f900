#!/usr/bin/env python3
"""A gallery of world-line configurations.

Draws the space-time configurations the world-line method actually
samples, across temperature: at high temperature (T >> J) quantum
exchange barely matters and the world lines run nearly straight --
the configuration is almost classical; cooling far below J, exchange
kinks proliferate (beta grows the imaginary-time extent and with it the
number of spin-exchange events that build the quantum correlations).
Also demonstrates the message-timeline trace of a parallel run.

Run:  python examples/worldline_gallery.py
"""

from repro.models.hamiltonians import XXZChainModel
from repro.qmc.worldline import WorldlineChainQmc
from visualize import kink_positions, render_worldlines  # examples/visualize.py


def show(beta: float, n_slices: int, sweeps: int) -> None:
    model = XXZChainModel(n_sites=16, periodic=True)
    q = WorldlineChainQmc(model, beta, n_slices, seed=8)
    for _ in range(sweeps):
        q.sweep()
    print(f"--- beta = {beta} (T = {1/beta:.2f} J), {n_slices} slices, "
          f"acceptance {q.acceptance_rate:.2f} ---")
    print(render_worldlines(q.spins))
    density = len(kink_positions(q.spins)) / q.spins.size
    print(f"kink density: {density:.3f} per site-slice\n")


def parallel_trace_demo() -> None:
    from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
    from repro.vmp import PARAGON, run_spmd

    cfg = WorldlineStripConfig(
        n_sites=16, jz=1.0, jxy=1.0, beta=1.0, n_slices=8,
        n_sweeps=2, n_thermalize=0,
    )
    res = run_spmd(worldline_strip_program, 4, machine=PARAGON, seed=1,
                   args=(cfg,), trace=True)
    print("--- message timeline of 2 parallel sweeps on 4 Paragon nodes ---")
    print(res.render_timeline(width=64))
    print(f"({res.total_messages} messages, {res.total_bytes} bytes total)\n")


def main() -> None:
    show(beta=0.25, n_slices=8, sweeps=300)
    show(beta=4.0, n_slices=32, sweeps=600)
    parallel_trace_demo()
    print("Nearly classical straight lines at T >> J; kinks (spin-exchange")
    print("events) proliferate at low temperature, where quantum fluctuations")
    print("build the correlated ground-state structure.")


if __name__ == "__main__":
    main()
