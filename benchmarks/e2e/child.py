"""One rep, or the layer probes, in a fresh interpreter.

The parent (``run.py``) launches ``python child.py '<json spec>'`` and
reads one JSON object from the last line of stdout.  Everything that
touches ``repro`` happens here, through its public entry points only,
so a rep pays what a user pays: spawn, ``import repro``, config build,
kernel resolution, one warm-up sweep (``setup_s``), then the operation
once (``wall_s``), then the untimed checks.

Spec keys: ``mode`` (``rep`` | ``probes``), ``workload``, ``size``
(``full`` | ``gate`` | ``smoke``), ``seed``, ``trace`` (bool),
``t_spawn`` (the parent's ``time.monotonic()`` just before the spawn;
CLOCK_MONOTONIC is system-wide on Linux), ``tmp`` (scratch directory
inside the checkout), and the test hook ``reference_shift``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e.workloads import (  # noqa: E402
    N_SIGMA,
    PINNED_REFERENCES,
    PINNED_VARIANCES,
    WORKLOADS,
    lattice_key,
)


class Tracer:
    """In-memory spans around the benchmark's own calls into a layer.

    A span is ``{id, name, parent, workload, start, end}`` on the
    system-wide monotonic clock, so spans of different children line up
    in one trace.  Disabled tracers record nothing.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()


def pin_to_one_cpu() -> set[int]:
    """Pin this process (and what it spawns) to one CPU; returns the old mask."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> dict:
    """``ru_maxrss`` of this process and of its largest reaped child (MB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self": me, "children": kids, "peak": max(me, kids)}


def host_speed_probe() -> float:
    """Seconds of a fixed pure-NumPy loop: the rep's host-speed index.

    Taken right before and right after the timed operation.  The
    shared host this benchmark runs on drifts by +-30% for minutes at a
    time; dividing a rep's timings by its own index (relative to
    ``HOST_PROBE_NOMINAL_S``) takes that drift out of the run-to-run
    spread.  Small-array NumPy calls, like the sweeps themselves.
    """
    import numpy as np

    a = np.linspace(0.1, 0.9, 4096)
    t0 = time.perf_counter()
    for _ in range(20000):
        b = np.log(a)
        np.where(b < -1, a, b)
    return time.perf_counter() - t0


def timed_batches(fn, n_batches: int, n_per_batch: int) -> float:
    """Median over batches of the mean seconds of one ``fn()`` call."""
    per_call = []
    for _ in range(n_batches):
        t0 = time.perf_counter()
        for _ in range(n_per_batch):
            fn()
        per_call.append((time.perf_counter() - t0) / n_per_batch)
    return median(per_call)


# ----------------------------------------------------------------------
# configurations and references
# ----------------------------------------------------------------------


def sim_config(wl: dict, params: dict, seed: int, layout="workload", **override):
    """The workload's ``XXZRunConfig`` / ``TfimRunConfig`` at ``seed``."""
    from repro import ParallelLayout, TfimRunConfig, XXZRunConfig

    kwargs = {**params, "seed": seed, **override}
    lay = wl["layout"] if layout == "workload" else layout
    if lay:
        kwargs["layout"] = ParallelLayout(**lay)
    if wl["kind"] == "tfim":
        kwargs["spatial_shape"] = tuple(kwargs["spatial_shape"])
        return TfimRunConfig(**kwargs)
    return XXZRunConfig(**kwargs)


def n_sites_of(params: dict) -> int:
    if "spatial_shape" in params:
        return math.prod(params["spatial_shape"])
    return params["n_sites"]


def reference_for(kind: str, params: dict) -> dict:
    """Reference ``energy_per_site`` of a lattice: value, error, source."""
    n = n_sites_of(params)
    if kind == "tfim":
        from repro.models.tfim_exact import tfim_finite_temperature_energy

        value = tfim_finite_temperature_energy(
            n, params["beta"], gamma=params["gamma"]
        ) / n
        # The free-fermion value has no Trotter error; the sampler does.
        return {"value": value, "error": 0.0, "rel_tol": 0.01,
                "source": "tfim_finite_temperature_energy (free fermions)"}
    if n <= 12:
        from repro.models.hamiltonians import XXZChainModel
        from repro.models.trotter_ref import trotter_reference_energy

        value = trotter_reference_energy(
            XXZChainModel(n_sites=n, periodic=True),
            params["beta"],
            params["n_slices"] // 2,
        ) / n
        return {"value": value, "error": 0.0,
                "source": "trotter_reference_energy (exact at the same dtau)"}
    key = lattice_key(kind, params)
    pinned = PINNED_REFERENCES[key]
    return {"value": pinned["value"], "error": pinned["error"],
            "source": f"pinned {key}"}


def energy_check(name: str, value: float, sigma: float, ref: dict) -> dict:
    tol = N_SIGMA * math.hypot(sigma, ref["error"])
    if ref.get("rel_tol"):
        tol = math.hypot(tol, ref["rel_tol"] * abs(ref["value"]))
    diff = value - ref["value"]
    return {
        "name": name,
        "ok": bool(abs(diff) <= tol),
        "detail": f"{value:.6f} vs {ref['value']:.6f} ({ref['source']}): "
        f"diff {diff:+.2e}, window {tol:.2e}",
    }


def check_sigma(series, kind: str, params: dict) -> float:
    """Error bar of a physics check: never below what the lattice allows.

    The largest rung of the series' own binning ladder
    (``RunResult.estimate().error`` is the top rung, 8-15 blocks, and
    scatters by a third), floored by the pinned asymptotic variance of
    the lattice: a chain whose slow mode happens to sit still reports
    too small an error bar, and 4.5 of those is not 4.5 sigma.
    """
    from repro.stats.binning import binning_levels

    sigma = max(err for _, err in binning_levels(series))
    pinned = PINNED_VARIANCES.get(lattice_key(kind, params))
    if pinned is not None:
        sigma = max(sigma, math.sqrt(pinned["value"] / len(series)))
    return sigma


def variance_per_sweep(series, block: int, factor: float) -> float:
    """The chain's variance per measured sweep, from a low rung of the ladder.

    ``block * var(block means)`` at the largest rung of the binning
    ladder not above ``block``, times ``factor``, the pinned ratio of
    the plateau to that rung on the seed implementation.  The plateau
    itself has 8-15 blocks per rep and scatters by 50% from seed to
    seed; the low rung has hundreds of blocks per run and scatters by
    6-8%, which is what bounds the repeatability of ``time_to_target_s``.
    """
    from repro.stats.binning import binning_levels

    usable = [(b, e) for b, e in binning_levels(series) if b <= block]
    b, err = usable[-1]
    return factor * err * err * (len(series) // b) * b


def series_sha(series) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(series).tobytes()).hexdigest()[:16]


def provenance() -> dict:
    import numpy

    from repro import kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": kernels.backend_version("numba"),
        "kernel": kernels.resolve_kernel("auto"),
    }


# ----------------------------------------------------------------------
# direct layer calls (the decomposition of a traced rep, and the probes)
# ----------------------------------------------------------------------


def direct_sampler_run(cfg):
    """``WorldlineChainQmc.run`` with the arguments ``Simulation`` passes."""
    from repro.models.hamiltonians import XXZChainModel
    from repro.qmc.worldline import WorldlineChainQmc

    model = XXZChainModel(
        n_sites=cfg.n_sites, jz=cfg.jz, jxy=cfg.jxy, periodic=cfg.periodic
    )
    sampler = WorldlineChainQmc(model, cfg.beta, cfg.n_slices, seed=cfg.seed)
    return sampler.run(cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every, mode="auto")


def strip_args(cfg, kernel: str, overlap: bool = False):
    from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program

    wl_cfg = WorldlineStripConfig(
        n_sites=cfg.n_sites, jz=cfg.jz, jxy=cfg.jxy, beta=cfg.beta,
        n_slices=cfg.n_slices, n_sweeps=cfg.n_sweeps,
        n_thermalize=cfg.n_thermalize, measure_every=cfg.measure_every,
        overlap=overlap, mode=kernel,
    )
    return worldline_strip_program, (wl_cfg, None, None)


def block_args(cfg, kernel: str):
    from repro.qmc.parallel import IsingBlockConfig, ising_block_program

    dtau = cfg.beta / cfg.n_slices
    block_cfg = IsingBlockConfig(
        lx=cfg.spatial_shape[0], ly=1, lt=cfg.n_slices,
        kx=dtau * cfg.j, ky=0.0, kt=-0.5 * math.log(math.tanh(dtau * cfg.gamma)),
        n_sweeps=cfg.n_sweeps, n_thermalize=cfg.n_thermalize,
        measure_every=cfg.measure_every, sweep_seed=cfg.seed, mode=kernel,
    )
    return ising_block_program, (block_cfg, None, None)


def direct_spmd_run(cfg, kernel: str, overlap: bool = False, machine: str = "Ideal"):
    """``run_spmd`` of the workload's rank program, as ``Simulation`` calls it."""
    from repro.vmp.machines import MACHINES
    from repro.vmp.scheduler import run_spmd

    if cfg.layout.strategy == "strip":
        program, args = strip_args(cfg, kernel, overlap)
    else:
        program, args = block_args(cfg, kernel)
    return run_spmd(
        program,
        cfg.layout.n_ranks,
        machine=MACHINES[machine],
        seed=cfg.seed,
        args=args,
        backend=cfg.layout.backend,
    )


def direct_call(cfg, kernel: str):
    """The layer call under ``Simulation.run()``: its name and a thunk."""
    if cfg.layout.strategy == "serial":
        return "sampler.WorldlineChainQmc.run", lambda: direct_sampler_run(cfg)
    return "driver.run_spmd", lambda: direct_spmd_run(cfg, kernel)


# ----------------------------------------------------------------------
# one rep
# ----------------------------------------------------------------------


def run_sim_rep(spec: dict, wl: dict, size: dict, tr: Tracer) -> dict:
    with tr.span("setup"):
        with tr.span("campaign.import_repro"):
            import numpy as np

            from repro import Simulation, kernels
        with tr.span("runner.build_config"):
            cfg = sim_config(wl, size["params"], spec["seed"])
        with tr.span("kernels.resolve"):
            kernel = kernels.resolve_sweep_mode(cfg.layout.kernel)
            if kernel != "scalar":
                kernels.get_ops(kernel)
        with tr.span("runner.warmup_sweep"):
            warm = sim_config(
                wl, size["params"], spec["seed"], n_sweeps=1, n_thermalize=0
            )
            Simulation(warm).run()
    setup_s = time.monotonic() - spec["t_spawn"]

    probe0 = host_speed_probe()
    cpu0 = cpu_seconds()
    with tr.span("runner.Simulation.run"):
        t0 = time.perf_counter()
        result = Simulation(cfg).run()
        wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    rss = peak_rss_mb()
    probe1 = host_speed_probe()

    n_sites = n_sites_of(size["params"])
    series = result.series["energy"] / n_sites
    checks = []
    chain = series
    if size.get("long_sweeps"):
        # The same chain on one thread-backend rank, continued.  The
        # trajectory is bit-identical across rank counts; the energy is
        # an allreduce of per-rank partial sums, so across P it agrees
        # to summation order (1e-14), which no other chain would.  That
        # identity is what entitles the reference check and the variance
        # estimate to use the cheaper, longer trajectory.
        single = dict(wl["layout"], n_ranks=1, backend="thread")
        long_cfg = sim_config(
            wl, size["params"], spec["seed"], layout=single,
            n_sweeps=max(size["long_sweeps"], cfg.n_sweeps),
        )
        chain = Simulation(long_cfg).run().series["energy"] / n_sites
        same = np.allclose(chain[: series.size], series, rtol=0, atol=1e-12)
        checks.append({
            "name": "same_chain_as_thread_p1",
            "ok": bool(same),
            "detail": f"first {series.size} of {chain.size} measurements",
        })
    ref = reference_for(wl["kind"], size["params"])
    ref["value"] += spec.get("reference_shift", 0.0)
    checks.append(energy_check(
        "energy_vs_reference", float(chain.mean()),
        check_sigma(chain, wl["kind"], size["params"]), ref,
    ))
    estimate = result.estimate("energy_per_site")
    v = variance_per_sweep(chain, wl["variance_block"], wl["variance_block_factor"])
    rt = result.runtime
    out = {
        "host_probe_s": [probe0, probe1],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "n_sweeps_executed": rt["n_sweeps"],
        "n_measured": int(series.size),
        "energy": estimate.value,
        "stderr": estimate.error,
        "sigma2": v / series.size,
        "variance_per_sweep": v,
        "tau_int": estimate.tau_int,
        "acceptance": rt["n_accepted"] / rt["n_attempted"],
        "rss_mb": rss,
        "series_sha": series_sha(series),
        "checks": checks,
    }
    if spec.get("trace"):
        out["layers"] = decompose(
            cfg, kernel, series, result, tr, Path(spec["tmp"])
        )
    return out


#: Sweeps and alternations of the small-config comparison in ``decompose``.
SMALL_SWEEPS = 64
N_ALTERNATIONS = 6


def decompose(cfg, kernel: str, series, result, tr: Tracer, tmp: Path) -> dict:
    """What a traced rep measures after its timed operation.

    ``Simulation.run()`` minus the direct layer call is a difference of
    two nearly equal times, and the host drifts by more than the runner
    costs between two multi-second calls.  So both are taken on a
    64-sweep copy of the config, in alternation; the same alternation
    with the span recorder on and off gives the tracing overhead.
    """
    import dataclasses

    from repro import Simulation, save_result
    from repro.stats.autocorr import integrated_autocorr_time
    from repro.stats.binning import BinningAnalysis

    small = dataclasses.replace(cfg, n_sweeps=SMALL_SWEEPS, n_thermalize=0)
    direct_name, direct = direct_call(small, kernel)
    recorder_off = Tracer(tr.workload, False)

    def timed(tracer: Tracer, name: str, fn) -> float:
        t0 = time.perf_counter()
        with tracer.span(name):
            fn()
        return time.perf_counter() - t0

    traced, untraced, direct_s = [], [], []
    with tr.span("decomposition"):
        for _ in range(N_ALTERNATIONS):
            run = Simulation(small).run
            traced.append(timed(tr, "runner.Simulation.run", run))
            untraced.append(timed(recorder_off, "runner.Simulation.run", run))
            direct_s.append(timed(tr, direct_name, direct))
        with tr.span("stats.estimate"):
            t0 = time.perf_counter()
            BinningAnalysis.from_series(series)
            integrated_autocorr_time(series)
            stats_ms = 1e3 * (time.perf_counter() - t0)
        with tr.span("runner.save_result"):
            saved = timed_save(save_result, result, tmp)
    return {
        "runner_self_s": median(u - d for u, d in zip(untraced, direct_s)),
        "trace_overhead_ratio": median(t / u for t, u in zip(traced, untraced)) - 1.0,
        "direct_s_per_sweep": median(direct_s) / SMALL_SWEEPS,
        "stats_estimate_ms": stats_ms,
        **saved,
    }


def timed_save(save_result, result, tmp: Path) -> dict:
    stem = tmp / f"result-{os.getpid()}"
    t0 = time.perf_counter()
    save_result(result, stem)
    ms = 1e3 * (time.perf_counter() - t0)
    files = [stem.with_suffix(".json"), stem.with_suffix(".npz")]
    size = sum(f.stat().st_size for f in files if f.exists())
    for f in files:
        f.unlink(missing_ok=True)
    return {"save_result_ms": ms, "result_bytes": size}


def campaign_spec(size: dict, seed: int):
    from repro import CampaignSpec

    return CampaignSpec(
        kind="xxz",
        name="e2e",
        base=dict(size["params"]),
        sweep={"seed": [seed + k for k in range(size["cells"])]},
        jobs=size["jobs"],
    )


def campaign_accounts(fresh, resumed) -> dict:
    """Per-layer numbers a ``CampaignResult`` pair already holds."""
    runs = fresh.outcomes
    run_wall = sum(o.wall_seconds for o in runs)
    jobs = fresh.spec.jobs
    in_run = [
        o.n_sweeps / o.sweeps_per_second for o in runs if o.sweeps_per_second > 0
    ]
    return {
        "cells": len(runs),
        "jobs": jobs,
        "fixed_s_per_run": (run_wall - sum(in_run)) / len(runs),
        "sched_overhead_s": fresh.wall_seconds - run_wall / jobs,
        "pool_efficiency": run_wall / (jobs * fresh.wall_seconds),
        "cache_hit_ms_per_run": 1e3 * resumed.wall_seconds / len(runs),
        "retries": fresh.counters["retried"],
    }


def run_campaign_rep(spec: dict, wl: dict, size: dict, tr: Tracer) -> dict:
    import tempfile

    with tr.span("setup"):
        with tr.span("campaign.import_repro"):
            import numpy as np

            from repro import kernels, load_result, run_campaign
            from repro.run.campaign import expand_grid
            from repro.stats.autocorr import integrated_autocorr_time
        with tr.span("campaign.build_spec"):
            cspec = campaign_spec(size, spec["seed"])
            runs = expand_grid(cspec)
        with tr.span("kernels.resolve"):
            kernel = kernels.resolve_sweep_mode("auto")
            kernels.get_ops(kernel)
    setup_s = time.monotonic() - spec["t_spawn"]

    with tempfile.TemporaryDirectory(dir=spec["tmp"], prefix="campaign-") as out_dir:
        probe0 = host_speed_probe()
        cpu0 = cpu_seconds()
        with tr.span("campaign.run_campaign"):
            t0 = time.perf_counter()
            fresh = run_campaign(cspec, out_dir=out_dir)
            wall_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        rss = peak_rss_mb()
        probe1 = host_speed_probe()
        with tr.span("campaign.run_campaign_resumed"):
            resumed = run_campaign(cspec, out_dir=out_dir, resume=True)
        results = [
            load_result(Path(out_dir) / "runs" / run.run_id / "result")
            for run in runs
            if (Path(out_dir) / "runs" / run.run_id / "result.json").exists()
        ]

    n_cells, n_sites = len(runs), size["params"]["n_sites"]
    checks = [
        {
            "name": "fresh_all_completed",
            "ok": fresh.counters["completed"] == n_cells
            and fresh.counters["failed"] == 0,
            "detail": str(fresh.counters),
        },
        {
            "name": "resume_all_cached",
            "ok": resumed.counters["cached"] == n_cells
            and resumed.counters["completed"] == 0,
            "detail": str(resumed.counters),
        },
    ]
    out = {
        "host_probe_s": [probe0, probe1],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "n_sweeps_executed": sum(o.n_sweeps for o in fresh.outcomes),
        "rss_mb": rss,
        "cells": n_cells,
        "cells_failed": n_cells - fresh.counters["completed"],
        "campaign": campaign_accounts(fresh, resumed),
        "checks": checks,
    }
    if len(results) == n_cells:
        cells = [r.series["energy"] / n_sites for r in results]
        pooled = float(np.mean([c.mean() for c in cells]))
        sigma = math.sqrt(
            sum(check_sigma(c, "xxz", size["params"]) ** 2 for c in cells)
        ) / n_cells
        ref = reference_for("xxz", size["params"])
        ref["value"] += spec.get("reference_shift", 0.0)
        checks.append(energy_check("pooled_energy_vs_reference", pooled, sigma, ref))
        n_measured = int(sum(c.size for c in cells))
        v = PINNED_VARIANCES[lattice_key("xxz", size["params"])]["value"]
        rt = [r.runtime for r in results]
        out.update({
            "n_measured": n_measured,
            "energy": pooled,
            "stderr": sigma,
            "sigma2": v / n_measured,
            "variance_per_sweep": v,
            "tau_int": float(np.mean([integrated_autocorr_time(c) for c in cells])),
            "acceptance": sum(r["n_accepted"] for r in rt)
            / sum(r["n_attempted"] for r in rt),
            "series_sha": series_sha(np.concatenate(cells)),
        })
        if spec.get("trace"):
            cell_cfg = sim_config(wl, size["params"], spec["seed"])
            out["layers"] = decompose(
                cell_cfg, kernel, cells[0], results[0], tr, Path(spec["tmp"])
            )
            out["layers"]["campaign_metrics"] = metric_docs(
                campaign_metrics(out["campaign"])
            )
    return out


def campaign_metrics(acc: dict) -> dict:
    return {
        "campaign.fixed_s_per_run": (acc["fixed_s_per_run"], "s", "wall"),
        "campaign.sched_overhead_s": (acc["sched_overhead_s"], "s", "wall"),
        "campaign.pool_efficiency": (acc["pool_efficiency"], "ratio", "wall"),
        "campaign.cache_hit_ms_per_run": (acc["cache_hit_ms_per_run"], "ms", "wall"),
        "campaign.retries": (acc["retries"], "count", "count"),
    }


def metric_docs(m: dict) -> dict:
    return {
        k: {"value": v, "unit": unit, "clock": clock}
        for k, (v, unit, clock) in m.items()
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    wl = WORKLOADS[spec["workload"]]
    tr = Tracer(spec["workload"], bool(spec.get("trace")))
    if spec["mode"] == "probes":
        from benchmarks.e2e.probes import run_probes

        out = run_probes(spec, tr)
    else:
        if wl["cpus"] == 1:
            pin_to_one_cpu()
        size = wl["sizes"][spec["size"]]
        with tr.span("rep"):
            rep = run_campaign_rep if wl["kind"] == "campaign" else run_sim_rep
            out = rep(spec, wl, size, tr)
    out["provenance"] = provenance()
    out["pid"] = os.getpid()
    out["spans"] = tr.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
