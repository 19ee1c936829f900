"""Layer probes of a traced run: each layer timed through its public calls.

Runs in the second child of ``run.py --trace 1`` (``child.py`` with
``mode: probes``).  The probes sit on the lattices of ``xxz_serial`` and
``tfim_block_thread2`` and, like those workloads, on one CPU; every
section is bracketed by host probes and reports host-normalised
seconds.  The ``*_unpinned_*`` and ``campaign.*`` probes then run with
every CPU.  A metric is ``(value, unit, clock)``.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tempfile
import time

from benchmarks.e2e.child import (
    ROOT,
    Tracer,
    campaign_accounts,
    campaign_metrics,
    campaign_spec,
    direct_spmd_run,
    host_speed_probe,
    median,
    metric_docs,
    pin_to_one_cpu,
    sim_config,
    timed_batches,
)
from benchmarks.e2e.workloads import HOST_PROBE_NOMINAL_S, PROBE_LATTICES, WORKLOADS

def _noop_program(comm):
    return comm.rank


def _exchange_program(comm, n_iter: int, nbytes: int) -> float:
    import numpy as np

    buf = np.zeros(nbytes, dtype=np.int8)
    peer = 1 - comm.rank
    t0 = time.perf_counter()
    for _ in range(n_iter):
        comm.sendrecv(buf, dest=peer, source=peer)
    return (time.perf_counter() - t0) / n_iter


def _allreduce_program(comm, n_iter: int) -> float:
    import numpy as np

    value = np.arange(3, dtype=float)
    t0 = time.perf_counter()
    for _ in range(n_iter):
        comm.allreduce(value)
    return (time.perf_counter() - t0) / n_iter


def probe_kernels(lat: dict, seed: int, kernel: str, m: dict) -> None:
    import numpy as np

    from repro import kernels
    from repro.models.hamiltonians import XXZChainModel
    from repro.qmc.classical_ising import AnisotropicIsing
    from repro.qmc.worldline import WorldlineChainQmc

    ops = kernels.get_ops(kernel)
    rng = np.random.default_rng(seed)
    xxz = lat["xxz"]
    sampler = WorldlineChainQmc(
        XXZChainModel(n_sites=xxz["n_sites"]), xxz["beta"], xxz["n_slices"], seed=seed
    )
    for _ in range(20):
        sampler.sweep("auto")
    # One independence class of corner flips: the stride-4 grid (a, b) = (0, 1).
    gi, gt = np.meshgrid(
        np.arange(0, sampler.L, 4, dtype=np.intp),
        np.arange(1, sampler.n_slices, 4, dtype=np.intp),
        indexing="ij",
    )
    i, t = gi.ravel(), gt.ravel()
    weights = sampler.table.weights
    # Uniforms are drawn ahead of the timed calls, as the ops receive them.
    us = itertools.cycle([rng.uniform(size=i.size) for _ in range(16)])
    corner_s = timed_batches(
        lambda: ops["wl1d_corner"](sampler.spins, weights, i, t, next(us)), 5, 100
    )
    logw = np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)
    # Straight columns of one parity; a column flip leaves them straight.
    cols = np.arange(0, sampler.L, 2, dtype=np.intp)
    cols = cols[sampler.spins[cols].min(axis=1) == sampler.spins[cols].max(axis=1)]
    log_us = itertools.cycle(
        [np.log(rng.uniform(size=cols.size)) for _ in range(16)]
    )
    column_s = timed_batches(
        lambda: ops["wl1d_column"](sampler.spins, logw, cols, next(log_us)), 5, 100
    )
    tfim = lat["tfim"]
    dtau = tfim["beta"] / tfim["n_slices"]
    ising = AnisotropicIsing(
        (tfim["spatial_shape"][0], tfim["n_slices"]),
        [dtau, -0.5 * math.log(math.tanh(dtau * tfim["gamma"]))],
        seed=seed, hot_start=True,
    )
    mask = (np.indices(ising.shape).sum(axis=0) % 2) == 0
    log_us2 = itertools.cycle(
        [np.log(rng.uniform(size=ising.shape)) for _ in range(16)]
    )
    state = {"spins": ising.spins}

    def color():
        state["spins"], _ = ops["ising_color"](
            state["spins"], ising.couplings, mask, next(log_us2)
        )

    color_s = timed_batches(color, 5, 100)
    m["kernels.wl1d_corner_us"] = (1e6 * corner_s, "us", "wall")
    m["kernels.wl1d_column_us"] = (1e6 * column_s, "us", "wall")
    m["kernels.ising_color_us"] = (1e6 * color_s, "us", "wall")
    m["kernels.wl1d_corner_ns_per_move"] = (1e9 * corner_s / i.size, "ns", "wall")
    m["kernels.ising_color_ns_per_site"] = (
        1e9 * color_s / int(mask.sum()), "ns", "wall"
    )
    # Computed from array sizes, not measured: per move the numpy op
    # gathers 4 plaquettes x 4 int8 spins before and after the flip,
    # 8 float64 weights, one float64 uniform, two intp indices, and
    # writes 4 spins.  Cache misses are not in this number.
    m["kernels.wl1d_corner_computed_bytes_per_move"] = (
        2 * 16 + 8 * 8 + 8 + 2 * 8 + 4, "bytes", "count"
    )


def probe_samplers(lat: dict, seed: int, n_xxz: int, n_tfim: int, m: dict) -> None:
    import numpy as np

    from repro.models.hamiltonians import XXZChainModel
    from repro.qmc.tfim import TfimQmc
    from repro.qmc.worldline import WorldlineChainQmc
    from repro.stats.autocorr import integrated_autocorr_time

    xxz = lat["xxz"]
    model = XXZChainModel(n_sites=xxz["n_sites"])
    construct_s = timed_batches(
        lambda: WorldlineChainQmc(model, xxz["beta"], xxz["n_slices"], seed=seed), 5, 1
    )
    sampler = WorldlineChainQmc(model, xxz["beta"], xxz["n_slices"], seed=seed)
    for _ in range(n_xxz // 8):
        sampler.sweep("auto")
    sweep_s = measure_s = 0.0
    energies = []
    for _ in range(n_xxz):
        t0 = time.perf_counter()
        sampler.sweep("auto")
        t1 = time.perf_counter()
        energies.append(sampler.energy_estimate())
        sampler.magnetization()
        sampler.staggered_magnetization_sq()
        sampler.szsz_correlation()
        t2 = time.perf_counter()
        sweep_s += t1 - t0
        measure_s += t2 - t1
    m["sampler.construct_ms"] = (1e3 * construct_s, "ms", "wall")
    m["sampler.xxz_sweep_ms"] = (1e3 * sweep_s / n_xxz, "ms", "wall")
    m["sampler.xxz_measure_ms"] = (1e3 * measure_s / n_xxz, "ms", "wall")
    m["sampler.xxz_acceptance"] = (sampler.acceptance_rate, "ratio", "count")
    m["sampler.xxz_tau_int"] = (
        integrated_autocorr_time(np.array(energies)), "sweeps", "count"
    )

    tfim = lat["tfim"]
    tq = TfimQmc(
        tuple(tfim["spatial_shape"]), j=1.0, gamma=tfim["gamma"], beta=tfim["beta"],
        n_slices=tfim["n_slices"], seed=seed,
    )
    for _ in range(n_tfim // 8):
        tq.sweep()
    sweep_s = 0.0
    energies = []
    for _ in range(n_tfim):
        t0 = time.perf_counter()
        tq.sweep()
        sweep_s += time.perf_counter() - t0
        energies.append(tq.energy_estimate())
    m["sampler.tfim_sweep_ms"] = (1e3 * sweep_s / n_tfim, "ms", "wall")
    m["sampler.tfim_acceptance"] = (tq.classical.acceptance_rate, "ratio", "count")
    m["sampler.tfim_tau_int"] = (
        integrated_autocorr_time(np.array(energies)), "sweeps", "count"
    )


def probe_comm_launch(m: dict) -> None:
    from repro.vmp.scheduler import run_spmd

    for backend in ("thread", "mp"):
        def launch(backend=backend):
            run_spmd(_noop_program, 2, backend=backend)

        m[f"comm.{backend}_launch_s"] = (timed_batches(launch, 3, 1), "s", "wall")


def spmd_ms_per_sweep(wl: dict, params: dict, seed: int, kernel: str, m: dict,
                      n_sweeps: int, n_ranks: int, backend: str, overlap=False,
                      machine="Ideal"):
    """Wall ms per sweep of one ``run_spmd`` of a driver, launch taken off."""
    n_sweeps = max(8, n_sweeps)
    cfg = sim_config(
        wl, params, seed, n_sweeps=n_sweeps, n_thermalize=0,
        layout=dict(wl["layout"], n_ranks=n_ranks, backend=backend),
    )
    t0 = time.perf_counter()
    res = direct_spmd_run(cfg, kernel, overlap=overlap, machine=machine)
    wall = time.perf_counter() - t0
    launch = m[f"comm.{backend}_launch_s"][0]
    return 1e3 * (wall - launch) / n_sweeps, res, n_sweeps


def exchange_us(backend: str, n_iter: int, nbytes: int) -> float:
    from repro.vmp.scheduler import run_spmd

    res = run_spmd(_exchange_program, 2, args=(n_iter, nbytes), backend=backend)
    return 1e6 * max(res.values)


def probe_drivers(lat: dict, seed: int, kernel: str, scale: float, m: dict) -> int:
    """ms per sweep of both drivers; returns the strip halo message size."""
    strip, block = WORKLOADS["xxz_strip_mp2"], WORKLOADS["tfim_block_thread2"]
    xxz, tfim = lat["xxz"], lat["tfim"]

    def ms(wl, params, n_sweeps, *args, **kwargs):
        return spmd_ms_per_sweep(
            wl, params, seed, kernel, m, int(n_sweeps * scale), *args, **kwargs)

    m["driver.strip_p1_ms_per_sweep"] = (
        ms(strip, xxz, 400, 1, "thread")[0], "ms", "wall")
    # The modeled comm fraction needs a machine with a network (Paragon);
    # the machine model does not enter the wall clock.
    per_sweep, res, n = ms(strip, xxz, 200, 2, "thread", machine="Paragon")
    m["driver.strip_p2_thread_ms_per_sweep"] = (per_sweep, "ms", "wall")
    m["driver.strip_halo_bytes_per_sweep"] = (res.total_bytes / n, "bytes", "count")
    m["driver.strip_halo_msgs_per_sweep"] = (res.total_messages / n, "count", "count")
    m["driver.strip_p2_comm_fraction_modeled"] = (
        res.comm_fraction(), "ratio", "modeled")
    msg_bytes = res.total_bytes // max(1, res.total_messages)
    m["driver.strip_p2_mp_ms_per_sweep"] = (
        ms(strip, xxz, 200, 2, "mp")[0], "ms", "wall")
    m["driver.strip_p2_mp_overlap_ms_per_sweep"] = (
        ms(strip, xxz, 200, 2, "mp", overlap=True)[0], "ms", "wall")
    m["driver.block_p1_ms_per_sweep"] = (
        ms(block, tfim, 1000, 1, "thread")[0], "ms", "wall")
    per_sweep, res, n = ms(block, tfim, 400, 2, "thread")
    m["driver.block_p2_thread_ms_per_sweep"] = (per_sweep, "ms", "wall")
    m["driver.block_halo_bytes_per_sweep"] = (res.total_bytes / n, "bytes", "count")
    m["driver.block_halo_msgs_per_sweep"] = (res.total_messages / n, "count", "count")
    m["comm.strip_mp2_overhead_ms_per_sweep"] = (
        m["driver.strip_p2_mp_ms_per_sweep"][0]
        - m["driver.strip_p1_ms_per_sweep"][0], "ms", "wall")
    m["comm.block_thread2_overhead_ms_per_sweep"] = (
        m["driver.block_p2_thread_ms_per_sweep"][0]
        - m["driver.block_p1_ms_per_sweep"][0], "ms", "wall")
    return msg_bytes


def probe_comm(msg_bytes: int, scale: float, m: dict) -> None:
    from repro.vmp.scheduler import run_spmd

    n_iter = max(20, int(1000 * scale))
    for backend in ("thread", "mp"):
        m[f"comm.{backend}_exchange_us"] = (
            exchange_us(backend, n_iter, msg_bytes), "us", "wall")
        res = run_spmd(_allreduce_program, 2, args=(n_iter,), backend=backend)
        m[f"comm.{backend}_allreduce_us"] = (1e6 * max(res.values), "us", "wall")


def probe_unpinned(lat: dict, seed: int, kernel: str, scale: float, msg_bytes: int,
                   m: dict) -> None:
    """The same comm paths with the ranks free to use every CPU.

    The workloads run their ranks on one CPU; these numbers record what
    that choice hides -- the host's cross-CPU wake-up cost.
    """
    strip, block = WORKLOADS["xxz_strip_mp2"], WORKLOADS["tfim_block_thread2"]
    n_iter = max(20, int(1000 * scale))
    for backend in ("thread", "mp"):
        m[f"comm.{backend}_exchange_unpinned_us"] = (
            exchange_us(backend, n_iter, msg_bytes), "us", "wall")
    m["driver.strip_p2_mp_unpinned_ms_per_sweep"] = (
        spmd_ms_per_sweep(strip, lat["xxz"], seed, kernel, m, int(150 * scale), 2,
                          "mp")[0], "ms", "wall")
    m["driver.block_p2_thread_unpinned_ms_per_sweep"] = (
        spmd_ms_per_sweep(block, lat["tfim"], seed, kernel, m, int(200 * scale), 2,
                          "thread")[0], "ms", "wall")


def probe_campaign(lat: dict, seed: int, tmp: str, with_campaign: bool,
                   n_alternations: int, m: dict) -> None:
    from repro import run_campaign

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    full = WORKLOADS["campaign_xxz_seeds"]["sizes"]["full"]
    xxz, jobs = full["params"], full["jobs"]

    def concurrently(argv_of) -> float:
        """Wall seconds of ``jobs`` processes started together, as the pool does."""
        with tempfile.TemporaryDirectory(dir=tmp, prefix="probe-cli-") as run_dir:
            t0 = time.perf_counter()
            procs = [
                subprocess.Popen(argv_of(f"{run_dir}/{k}"), env=env,
                                 stdout=subprocess.DEVNULL)
                for k in range(jobs)
            ]
            codes = [proc.wait() for proc in procs]
            wall = time.perf_counter() - t0
        if any(codes):
            raise RuntimeError(f"probe process exited with {codes}")
        return wall

    def import_argv(_stem):
        return [sys.executable, "-c", "import repro"]

    def cli_argv(stem):
        # One sweep, with the artifacts a campaign cell writes.
        return [sys.executable, "-m", "repro", "run-xxz",
                "--sites", str(xxz["n_sites"]), "--beta", str(xxz["beta"]),
                "--slices", str(xxz["n_slices"]), "--sweeps", "1",
                "--thermalize", "0", "--output", f"{stem}-result",
                "--metrics-out", f"{stem}-metrics.jsonl", "--quiet"]

    # Alternate the two, so that a slow minute of the host hits both.
    imports, clis = [], []
    for _ in range(n_alternations):
        imports.append(concurrently(import_argv))
        clis.append(concurrently(cli_argv))
    # The CLI's cost beyond the import is small against the host's drift:
    # take it from the alternated pairs.
    extra = median(c - i for c, i in zip(clis, imports))
    m["campaign.spawn_import_s"] = (median(imports), "s", "wall")
    m["campaign.cli_min_run_s"] = (median(imports) + extra, "s", "wall")
    if not with_campaign:
        return
    size = dict(
        WORKLOADS["campaign_xxz_seeds"]["sizes"]["full"], cells=lat["campaign_cells"]
    )
    cspec = campaign_spec(size, seed)
    with tempfile.TemporaryDirectory(dir=tmp, prefix="probe-campaign-") as out_dir:
        fresh = run_campaign(cspec, out_dir=out_dir)
        resumed = run_campaign(cspec, out_dir=out_dir, resume=True)
    m.update(campaign_metrics(campaign_accounts(fresh, resumed)))


def run_probes(spec: dict, tr: Tracer) -> dict:
    from repro import kernels

    t0 = time.perf_counter()
    kernel = kernels.resolve_sweep_mode("auto")
    kernels.get_ops(kernel)
    m: dict = {"kernels.resolve_s": (time.perf_counter() - t0, "s", "wall")}
    lat = PROBE_LATTICES["smoke" if spec["size"] == "smoke" else "full"]
    scale = 0.1 if spec["size"] == "smoke" else 1.0
    seed = spec["seed"]
    every_cpu = pin_to_one_cpu()  # as the one-CPU workloads run
    last_probe = host_speed_probe()

    def section(name: str, fn):
        """Run one probe section and host-normalise the seconds it measured."""
        nonlocal last_probe
        known = set(m)
        with tr.span(name):
            result = fn()
        before, last_probe = last_probe, host_speed_probe()
        index = 0.5 * (before + last_probe) / HOST_PROBE_NOMINAL_S
        for key in set(m) - known:
            value, unit, clock = m[key]
            if clock == "wall" and unit != "ratio":
                m[key] = (value / index, unit, clock)
        return result

    section("probe.kernels", lambda: probe_kernels(lat, seed, kernel, m))
    section("probe.sampler", lambda: probe_samplers(
        lat, seed, int(400 * scale), int(1500 * scale), m))
    section("probe.comm_launch", lambda: probe_comm_launch(m))
    msg_bytes = section(
        "probe.driver", lambda: probe_drivers(lat, seed, kernel, scale, m))
    section("probe.comm", lambda: probe_comm(msg_bytes, scale, m))
    # Ratios across sections, from the normalised seconds.
    kernel_ms = 1e-3 * (
        8 * m["kernels.wl1d_corner_us"][0] + 2 * m["kernels.wl1d_column_us"][0])
    m["sampler.xxz_kernel_share"] = (
        kernel_ms / m["sampler.xxz_sweep_ms"][0], "ratio", "wall")
    m["driver.strip_p1_vs_serial_ratio"] = (
        m["sampler.xxz_sweep_ms"][0] / m["driver.strip_p1_ms_per_sweep"][0],
        "ratio", "wall")
    os.sched_setaffinity(0, every_cpu)
    section("probe.unpinned",
            lambda: probe_unpinned(lat, seed, kernel, scale, msg_bytes, m))
    section("probe.campaign", lambda: probe_campaign(
        lat, seed, spec["tmp"], spec.get("with_campaign", True),
        1 if spec["size"] == "smoke" else 3, m))
    return {"metrics": metric_docs(m)}


