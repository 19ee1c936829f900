"""The high-level Simulation facade.

One entry point per model ties together samplers, parallel drivers,
virtual machine and error analysis::

    from repro import Simulation, XXZRunConfig, ParallelLayout

    cfg = XXZRunConfig(n_sites=16, beta=1.0, n_slices=16,
                       layout=ParallelLayout("strip", 4, "Paragon"))
    result = Simulation(cfg).run()
    print(result.summary())

Every estimate carries a binning-analysis error bar and integrated
autocorrelation time; parallel runs also report the virtual machine's
modeled makespan and communication fraction.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.qmc.tfim import (
    TfimQmc,
    tfim_energy_from_bond_sums,
    tfim_sigma_x_from_time_bonds,
)
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.run.config import TfimRunConfig, XXZ2DRunConfig, XXZRunConfig
from repro.run.results import ObservableEstimate, RunResult
from repro.stats.autocorr import integrated_autocorr_time
from repro.stats.binning import BinningAnalysis
from repro.vmp.machines import MACHINES
from repro.vmp.scheduler import run_spmd

__all__ = ["Simulation"]


def _checkpoint_config(cfg):
    """The run's CheckpointConfig, or None when checkpointing is off."""
    from repro.run.checkpoint import CheckpointConfig

    if cfg.checkpoint_every <= 0 and not cfg.resume:
        return None
    return CheckpointConfig(
        directory=cfg.checkpoint_dir,
        every=cfg.checkpoint_every,
        resume=cfg.resume,
    )


def _obs_registry(cfg):
    """The run's MetricsRegistry, or None when telemetry is off."""
    if cfg.metrics_out is None and cfg.trace_out is None:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry(interval=cfg.obs_interval)


def _health_rules(cfg):
    """The run's HealthRules, or None when ``--health`` is off.

    ``--health-rules FILE`` overrides the defaults; ``--obs-interval``,
    when set, overrides the check cadence so health checks and metric
    snapshots land on the same sweeps.
    """
    if not cfg.health:
        return None
    import dataclasses

    from repro.obs.health import HealthRules, load_health_rules

    rules = (
        load_health_rules(cfg.health_rules)
        if cfg.health_rules is not None
        else HealthRules()
    )
    if cfg.obs_interval > 0 and rules.interval != cfg.obs_interval:
        rules = dataclasses.replace(rules, interval=cfg.obs_interval)
    return rules


def _posthoc_health(rules, series, n_attempted, n_accepted, measure_every, rank=0):
    """Run the health monitor over already-measured serial series.

    The serial chain samplers have no in-loop hook; feeding their
    measured series through the same monitor after the fact gives the
    identical estimators and NaN sentinels, plus a single end-of-run
    acceptance-band check over the whole run.  Returns the monitor.
    """
    from repro.obs.health import HealthMonitor

    monitor = HealthMonitor(rules, rank=rank)
    n_meas = max((len(v) for v in series.values()), default=0)
    for i in range(n_meas):
        sweep = i * measure_every
        for name, values in series.items():
            if i < len(values):
                monitor.observe(name, float(values[i]), sweep)
    last_sweep = max((n_meas - 1) * measure_every, 0)
    monitor.check(0, attempted=0, accepted=0)  # open the window
    monitor.check(last_sweep, attempted=int(n_attempted), accepted=int(n_accepted))
    return monitor


def _collect_health(rules, result, monitors=None, spmd=None):
    """Merge per-rank health output into one run-level view.

    ``monitors`` are in-process HealthMonitor objects (serial paths);
    ``spmd`` contributes the rank programs' returned events/summaries.
    Stores the aggregate verdict in ``result.runtime['health']`` and
    returns ``{"events": [...], "summary": {...}, "rank_summaries":
    [...]}`` for the sinks, or None when health is off.
    """
    if rules is None:
        return None
    from repro.obs.events import events_summary, sort_events

    events: list[dict] = []
    rank_summaries: list[dict] = []
    for monitor in monitors or ():
        events.extend(monitor.event_docs())
        rank_summaries.append(monitor.summary())
    if spmd is not None:
        events.extend(spmd.health_events())
        for value in spmd.values:
            if isinstance(value, dict) and value.get("health_summary"):
                rank_summaries.append(value["health_summary"])
    events = sort_events(events)
    summary = events_summary(events)
    summary["rules"] = rules.to_doc()
    result.runtime["health"] = summary
    return {"events": events, "summary": summary, "rank_summaries": rank_summaries}


def _report_summary(report) -> dict:
    """Compact JSON view of a RunReport for runtime/CLI output."""
    if report is None:
        return {}
    return {
        "n_ranks": report.n_ranks,
        "n_completed": len(report.completed),
        "n_failed": len(report.failures),
        "n_aborted": len(report.aborted),
    }


def _emit_observability(kind, cfg, params, registry, spmd=None, runtime=None,
                        health=None):
    """Write the requested metrics/events JSONL / Chrome trace / manifest.

    Returns ``{key: path}`` of everything written (also merged into
    ``runtime`` so the CLI summary can point at the files).  ``health``
    is the :func:`_collect_health` bundle (or None).  Under an MPI
    launch every rank computes the same result; only world rank 0
    writes files, so mpiexec runs do not race on the output paths.
    """
    from repro.obs import build_manifest, write_manifest, write_metrics_jsonl
    from repro.vmp.mpi_backend import world_rank_hint

    if world_rank_hint() != 0:
        return {}
    outputs: dict[str, str] = {}
    if cfg.metrics_out is not None and registry is not None:
        outputs["metrics_out"] = str(write_metrics_jsonl(cfg.metrics_out, registry))
    if cfg.trace_out is not None and spmd is not None and spmd.spans is not None:
        outputs["trace_out"] = str(
            spmd.write_chrome_trace(cfg.trace_out, metadata={"kind": kind, **params})
        )
    if cfg.events_out is not None and health is not None:
        from repro.obs.events import write_events_jsonl

        outputs["events_out"] = str(
            write_events_jsonl(cfg.events_out, health["events"])
        )
    anchor = cfg.metrics_out or cfg.trace_out or cfg.events_out
    if anchor is not None:
        extra = {"outputs": dict(outputs), "runtime": dict(runtime or {})}
        if health is not None:
            extra["health"] = {
                "summary": health["summary"],
                "rank_summaries": health["rank_summaries"],
            }
        manifest = build_manifest(
            kind,
            params,
            seed=cfg.seed,
            registry=registry,
            report=spmd.report if spmd is not None else None,
            extra=extra,
        )
        outputs["manifest"] = str(
            write_manifest(Path(anchor).parent / "manifest.json", manifest)
        )
    if runtime is not None:
        runtime.update(outputs)
    return outputs


def _record_spmd(result: RunResult, spmd, layout) -> None:
    """Fold a decomposed SPMD run's modeled costs into ``result``.

    Shared by the strip (incl. two-level) and block layouts: modeled
    makespan and comm fraction, the Metropolis counters summed over
    ranks, the halo traffic totals, the phase report, and the overlap
    fact -- ``requested`` is the layout knob, ``active`` whether the
    pipeline really ran on every rank (thin subdomains fall back to
    lockstep with a warning an mp/mpi child's stderr may swallow).
    """
    result.model_time = spmd.elapsed_model_time
    result.comm_fraction = spmd.comm_fraction()
    result.runtime.update(
        n_attempted=sum(v["n_attempted"] for v in spmd.values),
        n_accepted=sum(v["n_accepted"] for v in spmd.values),
        halo_bytes=spmd.total_bytes,
        halo_messages=spmd.total_messages,
        report=_report_summary(spmd.report),
        overlap={
            "requested": layout.overlap,
            "active": all(v["overlap_active"] for v in spmd.values),
        },
    )


def _resolve_layout_kernel(layout) -> str:
    """Resolve ``layout.kernel`` to a concrete sweep mode up front.

    Returns ``"scalar"`` or a concrete registered backend name
    (``auto`` picks the best available one).  Resolving *before* any
    rank programs spawn means a run requesting an uninstalled backend
    (e.g. ``--kernel numba`` without numba) fails fast with a structured
    :class:`repro.kernels.KernelUnavailableError` instead of dying
    mid-flight inside a worker.
    """
    return kernels.resolve_sweep_mode(layout.kernel)


def _estimate(name: str, series: np.ndarray) -> ObservableEstimate:
    """Binning-analysis point estimate of a time series."""
    series = np.asarray(series, dtype=float)
    if series.size >= 16:
        ba = BinningAnalysis.from_series(series)
        tau = integrated_autocorr_time(series) if series.size >= 32 else ba.tau_int
        return ObservableEstimate(name, ba.mean, ba.error, tau)
    err = float(series.std(ddof=1) / np.sqrt(series.size)) if series.size > 1 else 0.0
    return ObservableEstimate(name, float(series.mean()), err)


class Simulation:
    """Configured simulation ready to run; see the module docstring."""

    def __init__(self, config: XXZRunConfig | XXZ2DRunConfig | TfimRunConfig):
        self.config = config
        if isinstance(config, XXZRunConfig):
            self.kind = "xxz"
        elif isinstance(config, XXZ2DRunConfig):
            self.kind = "xxz2d"
        elif isinstance(config, TfimRunConfig):
            self.kind = "tfim"
        else:
            raise TypeError(f"unsupported config type {type(config).__name__}")

    def run(self) -> RunResult:
        if self.kind == "xxz":
            return self._run_xxz()
        if self.kind == "xxz2d":
            return self._run_xxz2d()
        return self._run_tfim()

    @staticmethod
    def _finish_runtime(result, registry, n_sweeps_run, t0_wall) -> None:
        """Record the always-on throughput numbers and metric summaries."""
        wall = time.perf_counter() - t0_wall
        result.runtime.update(
            wall_seconds=wall,
            n_sweeps=n_sweeps_run,
            sweeps_per_second=n_sweeps_run / wall if wall > 0 else 0.0,
        )
        if registry is not None:
            result.rank_summaries = {
                str(r): v for r, v in registry.summary().items()
            }

    # ------------------------------------------------------------------
    def _run_xxz2d(self) -> RunResult:
        cfg: XXZ2DRunConfig = self.config
        layout = cfg.layout
        n_sites = cfg.lx * cfg.ly
        kernel = _resolve_layout_kernel(layout)
        # "auto" keeps the sampler's geometry gate (scalar fallback on
        # off-grid lattices); explicit backends are passed through.
        mode = "auto" if layout.kernel == "auto" else kernel
        params = {
            "lx": cfg.lx,
            "ly": cfg.ly,
            "beta": cfg.beta,
            "jz": cfg.jz,
            "jxy": cfg.jxy,
            "n_slices": cfg.n_slices,
            "strategy": layout.strategy,
            "n_ranks": layout.n_ranks,
            "kernel": kernel,
        }
        result = RunResult(kind="xxz2d", parameters=params)
        result.runtime.update(kernel=kernel)
        registry = _obs_registry(cfg)
        rules = _health_rules(cfg)
        monitors = []
        t0_wall = time.perf_counter()
        model = XXZSquareModel(lx=cfg.lx, ly=cfg.ly, jz=cfg.jz, jxy=cfg.jxy)
        n_chains = layout.n_ranks if layout.strategy == "replica" else 1
        energy_all, mag_all, mstag_all = [], [], []
        n_att = n_acc = 0
        for chain_idx in range(n_chains):
            monitor = None
            if rules is not None:
                from repro.obs.health import HealthMonitor

                monitor = HealthMonitor(rules, rank=chain_idx)
                monitors.append(monitor)
            sampler = WorldlineSquareQmc(
                model, cfg.beta, cfg.n_slices, seed=cfg.seed + chain_idx,
                metrics=registry.scope(chain_idx) if registry is not None else None,
                health=monitor,
            )
            meas = sampler.run(
                cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every, mode=mode
            )
            energy_all.append(meas.energy)
            mag_all.append(meas.magnetization)
            mstag_all.append(meas.m_stag_sq)
            n_att += sampler.n_attempted
            n_acc += sampler.n_accepted
        energy = np.concatenate(energy_all)
        mag = np.concatenate(mag_all)
        mstag = np.concatenate(mstag_all)
        result.runtime.update(n_attempted=n_att, n_accepted=n_acc)
        n_sweeps_run = n_chains * (cfg.n_sweeps + cfg.n_thermalize)
        self._finish_runtime(result, registry, n_sweeps_run, t0_wall)
        health = _collect_health(rules, result, monitors=monitors)
        _emit_observability(
            "xxz2d", cfg, params, registry, runtime=result.runtime, health=health
        )

        result.estimates["energy"] = _estimate("energy", energy)
        result.estimates["energy_per_site"] = _estimate(
            "energy_per_site", energy / n_sites
        )
        chi = cfg.beta * (np.mean(mag**2) - np.mean(mag) ** 2) / n_sites
        result.estimates["susceptibility"] = ObservableEstimate(
            "susceptibility", float(chi),
            _susceptibility_error(mag, cfg.beta, n_sites),
        )
        result.estimates["staggered_structure_factor"] = _estimate(
            "staggered_structure_factor", n_sites * mstag
        )
        result.add_series("energy", energy)
        result.add_series("magnetization", mag)
        return result

    # ------------------------------------------------------------------
    def _run_xxz(self) -> RunResult:
        cfg: XXZRunConfig = self.config
        layout = cfg.layout
        kernel = _resolve_layout_kernel(layout)
        mode = "auto" if layout.kernel == "auto" else kernel
        params = {
            "n_sites": cfg.n_sites,
            "beta": cfg.beta,
            "jz": cfg.jz,
            "jxy": cfg.jxy,
            "n_slices": cfg.n_slices,
            "periodic": cfg.periodic,
            "strategy": layout.strategy,
            "n_ranks": layout.n_ranks,
            "machine": layout.machine,
            "backend": layout.backend,
            "kernel": kernel,
            "replicas": layout.replicas,
        }
        result = RunResult(kind="xxz", parameters=params)
        result.runtime.update(kernel=kernel)
        registry = _obs_registry(cfg)
        rules = _health_rules(cfg)
        monitors = []
        t0_wall = time.perf_counter()
        spmd = None

        if layout.strategy in ("serial", "replica"):
            n_chains = layout.n_ranks if layout.strategy == "replica" else 1
            model = XXZChainModel(
                n_sites=cfg.n_sites, jz=cfg.jz, jxy=cfg.jxy, periodic=cfg.periodic
            )
            all_energy, all_mag = [], []
            n_att = n_acc = 0
            for chain_idx in range(n_chains):
                sampler = WorldlineChainQmc(
                    model, cfg.beta, cfg.n_slices, seed=cfg.seed + chain_idx
                )
                meas = sampler.run(
                    cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every, mode=mode
                )
                all_energy.append(meas.energy)
                all_mag.append(meas.magnetization)
                n_att += sampler.n_attempted
                n_acc += sampler.n_accepted
                if rules is not None:
                    monitors.append(
                        _posthoc_health(
                            rules,
                            {"energy": meas.energy, "magnetization": meas.magnetization},
                            sampler.n_attempted,
                            sampler.n_accepted,
                            cfg.measure_every,
                            rank=chain_idx,
                        )
                    )
            energy = np.concatenate(all_energy)
            mag = np.concatenate(all_mag)
            n_sweeps_run = n_chains * (cfg.n_sweeps + cfg.n_thermalize)
            result.runtime.update(n_attempted=n_att, n_accepted=n_acc)
        else:  # strip
            wl_cfg = WorldlineStripConfig(
                n_sites=cfg.n_sites,
                jz=cfg.jz,
                jxy=cfg.jxy,
                beta=cfg.beta,
                n_slices=cfg.n_slices,
                n_sweeps=cfg.n_sweeps,
                n_thermalize=cfg.n_thermalize,
                measure_every=cfg.measure_every,
                sweep_seed=cfg.seed,
                overlap=layout.overlap,
                mode=kernel,
            )
            if layout.replicas > 1:
                from repro.qmc.two_level import TwoLevelConfig, two_level_program

                tl_cfg = TwoLevelConfig(
                    replicas=layout.replicas,
                    domain_ranks=layout.n_ranks,
                    base=wl_cfg,
                )
                program, prog_args = two_level_program, (
                    tl_cfg, _checkpoint_config(cfg), rules,
                )
                n_ranks = tl_cfg.n_ranks
            else:
                program, prog_args = worldline_strip_program, (
                    wl_cfg, _checkpoint_config(cfg), rules,
                )
                n_ranks = layout.n_ranks
            spmd = run_spmd(
                program,
                n_ranks,
                machine=MACHINES[layout.machine],
                seed=cfg.seed,
                args=prog_args,
                metrics=registry,
                spans=cfg.trace_out is not None,
                trace=cfg.trace_out is not None,
                backend=layout.backend,
            )
            out0 = spmd.values[0]
            if layout.replicas > 1 and out0["ensemble_energy"] is not None:
                # Pooled ensemble-mean series; the per-replica series
                # stay available in the rank values.
                energy = out0["ensemble_energy"]
                mag = out0["ensemble_magnetization"]
            else:
                energy = out0["energy"]
                mag = out0["magnetization"]
            _record_spmd(result, spmd, layout)
            n_sweeps_run = cfg.n_sweeps + cfg.n_thermalize
            if layout.replicas > 1:
                result.runtime.update(
                    replicas=layout.replicas,
                    domain_ranks=layout.n_ranks,
                    comm_fraction_by_level=spmd.comm_fraction_by_level(),
                    ensemble_degraded=bool(out0["ensemble_degraded"]),
                )

        self._finish_runtime(result, registry, n_sweeps_run, t0_wall)
        health = _collect_health(rules, result, monitors=monitors, spmd=spmd)
        _emit_observability(
            "xxz", cfg, params, registry, spmd=spmd, runtime=result.runtime,
            health=health,
        )

        result.estimates["energy"] = _estimate("energy", energy)
        result.estimates["energy_per_site"] = _estimate(
            "energy_per_site", energy / cfg.n_sites
        )
        chi = cfg.beta * (np.mean(mag**2) - np.mean(mag) ** 2) / cfg.n_sites
        chi_err = _susceptibility_error(mag, cfg.beta, cfg.n_sites)
        result.estimates["susceptibility"] = ObservableEstimate(
            "susceptibility", float(chi), chi_err
        )
        result.add_series("energy", energy)
        result.add_series("magnetization", mag)
        return result

    # ------------------------------------------------------------------
    def _run_tfim(self) -> RunResult:
        cfg: TfimRunConfig = self.config
        layout = cfg.layout
        n_sites = int(np.prod(cfg.spatial_shape))
        kernel = _resolve_layout_kernel(layout)
        # The serial classical sampler's batched color update *is* its
        # reference implementation, so "scalar" maps to numpy there;
        # the block driver keeps a true per-site scalar path.
        serial_kernel = "numpy" if kernel == "scalar" else kernel
        params = {
            "spatial_shape": list(cfg.spatial_shape),
            "beta": cfg.beta,
            "j": cfg.j,
            "gamma": cfg.gamma,
            "n_slices": cfg.n_slices,
            "strategy": layout.strategy,
            "n_ranks": layout.n_ranks,
            "machine": layout.machine,
            "backend": layout.backend,
            "kernel": kernel,
        }
        result = RunResult(kind="tfim", parameters=params)
        result.runtime.update(kernel=kernel)
        registry = _obs_registry(cfg)
        rules = _health_rules(cfg)
        monitors = []
        t0_wall = time.perf_counter()
        spmd = None

        if layout.strategy in ("serial", "replica"):
            n_chains = layout.n_ranks if layout.strategy == "replica" else 1
            e_all, sx_all, m_all = [], [], []
            n_att = n_acc = 0
            for chain_idx in range(n_chains):
                sampler = TfimQmc(
                    cfg.spatial_shape,
                    j=cfg.j,
                    gamma=cfg.gamma,
                    beta=cfg.beta,
                    n_slices=cfg.n_slices,
                    seed=cfg.seed + chain_idx,
                    kernel=serial_kernel,
                )
                meas = sampler.run(cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every)
                e_all.append(meas.energy)
                sx_all.append(meas.sigma_x)
                m_all.append(meas.abs_magnetization)
                inner = sampler.classical
                n_att += inner.n_attempted
                n_acc += inner.n_accepted
                if rules is not None:
                    monitors.append(
                        _posthoc_health(
                            rules,
                            {
                                "energy": meas.energy,
                                "sigma_x": meas.sigma_x,
                                "abs_magnetization": meas.abs_magnetization,
                            },
                            inner.n_attempted,
                            inner.n_accepted,
                            cfg.measure_every,
                            rank=chain_idx,
                        )
                    )
            energy = np.concatenate(e_all)
            sigma_x = np.concatenate(sx_all)
            abs_mag = np.concatenate(m_all)
            n_sweeps_run = n_chains * (cfg.n_sweeps + cfg.n_thermalize)
            result.runtime.update(n_attempted=n_att, n_accepted=n_acc)
        else:  # block layout over the virtual machine
            dtau = cfg.beta / cfg.n_slices
            k_space = dtau * cfg.j
            k_tau = -0.5 * math.log(math.tanh(dtau * cfg.gamma))
            if len(cfg.spatial_shape) == 1:
                lx, ly, ky = cfg.spatial_shape[0], 1, 0.0
            else:
                lx, ly = cfg.spatial_shape
                ky = k_space
            block_cfg = IsingBlockConfig(
                lx=lx,
                ly=ly,
                lt=cfg.n_slices,
                kx=k_space,
                ky=ky,
                kt=k_tau,
                n_sweeps=cfg.n_sweeps,
                n_thermalize=cfg.n_thermalize,
                measure_every=cfg.measure_every,
                sweep_seed=cfg.seed,
                overlap=layout.overlap,
                mode=kernel,
            )
            spmd = run_spmd(
                ising_block_program,
                layout.n_ranks,
                machine=MACHINES[layout.machine],
                seed=cfg.seed,
                args=(block_cfg, _checkpoint_config(cfg), rules),
                metrics=registry,
                spans=cfg.trace_out is not None,
                trace=cfg.trace_out is not None,
                backend=layout.backend,
            )
            out = spmd.values[0]
            bonds = out["bond_sums"]  # (n_meas, 3): x, y, t
            space_sum = bonds[:, 0] + (bonds[:, 1] if ky != 0.0 else 0.0)
            time_sum = bonds[:, 2]
            n_time_bonds = n_sites * cfg.n_slices
            energy = np.array(
                [
                    tfim_energy_from_bond_sums(
                        float(s), float(t), n_sites, cfg.n_slices, cfg.j,
                        cfg.gamma, dtau
                    )
                    for s, t in zip(space_sum, time_sum)
                ]
            )
            sigma_x = np.array(
                [
                    tfim_sigma_x_from_time_bonds(
                        float(t), n_time_bonds, cfg.gamma, dtau
                    )
                    for t in time_sum
                ]
            )
            abs_mag = np.abs(out["magnetization"])
            _record_spmd(result, spmd, layout)
            n_sweeps_run = cfg.n_sweeps + cfg.n_thermalize

        self._finish_runtime(result, registry, n_sweeps_run, t0_wall)
        health = _collect_health(rules, result, monitors=monitors, spmd=spmd)
        _emit_observability(
            "tfim", cfg, params, registry, spmd=spmd, runtime=result.runtime,
            health=health,
        )

        result.estimates["energy"] = _estimate("energy", energy)
        result.estimates["energy_per_site"] = _estimate(
            "energy_per_site", energy / n_sites
        )
        result.estimates["sigma_x"] = _estimate("sigma_x", sigma_x)
        result.estimates["abs_magnetization"] = _estimate("abs_magnetization", abs_mag)
        result.add_series("energy", energy)
        result.add_series("sigma_x", sigma_x)
        result.add_series("abs_magnetization", abs_mag)
        return result


def _susceptibility_error(mag: np.ndarray, beta: float, n_sites: int) -> float:
    """Jackknife error of the fluctuation susceptibility."""
    from repro.stats.jackknife import jackknife

    if mag.size < 40:
        return 0.0
    _, err = jackknife(
        lambda m: beta * (np.mean(m**2) - np.mean(m) ** 2) / n_sites,
        mag,
        n_blocks=20,
    )
    return err
