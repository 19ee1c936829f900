"""The high-level Simulation facade.

One entry point ties together samplers, parallel drivers, virtual
machine and error analysis::

    from repro import Simulation, XXZRunConfig, ParallelLayout

    cfg = XXZRunConfig(n_sites=16, beta=1.0, n_slices=16,
                       layout=ParallelLayout("strip", 4, "Paragon"))
    result = Simulation(cfg).run()
    print(result.summary())

Every estimate carries a binning-analysis error bar and integrated
autocorrelation time; parallel runs also report the virtual machine's
modeled makespan and communication fraction.

:meth:`Simulation.run` is one skeleton for every run kind: resolve the
kernel -> ``params`` -> sample (independent chains in-process, or the
kind's rank program under ``run_spmd``) -> runtime -> health ->
artifacts -> estimates.  A kind (``_XXZ`` / ``_XXZ2D`` / ``_Tfim``
below, keyed by its config's ``kind``) supplies only the hooks the
skeleton calls:

``params(cfg, kernel)``
    The result's ``parameters``.  Their keys are frozen: the manifest
    ``config_hash`` is taken over them, and campaign caches compare it.
``chain(cfg, i, stream, kernel, registry, rules)``
    Run chain ``i`` of a serial / replica layout on ``stream``; returns
    what a rank program returns -- the chain's series plus
    ``n_attempted`` / ``n_accepted`` (and its health output), see
    :func:`_chain_value`.
``decomposed(cfg, kernel, checkpoint, rules)``
    ``(program, args, n_ranks)`` of the kind's domain-decomposed driver;
    only kinds whose config names a ``decomposed`` strategy have it.
``series(cfg, values)``
    The run's named series from the chains' / ranks' values.
``estimates(cfg, series)``
    The observable estimates; ``stored`` names the series the result
    keeps.
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
from repro.run.config import RunConfig
from repro.run.results import ObservableEstimate, RunResult
from repro.stats.autocorr import integrated_autocorr_time
from repro.stats.binning import BinningAnalysis
from repro.util.rng import spawn_streams
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
    acceptance-band check over the whole run.  Returns the monitor
    (None when health is off).
    """
    if rules is None:
        return None
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


def _chain_value(series, n_attempted, n_accepted, monitor) -> dict:
    """A serial chain's outcome in the shape a rank program returns."""
    value = {**series, "n_attempted": n_attempted, "n_accepted": n_accepted}
    if monitor is not None:
        value["health_events"] = monitor.event_docs()
        value["health_summary"] = monitor.summary()
    return value


def _collect_health(rules, result, values):
    """Merge per-rank health output into one run-level view.

    ``values`` are the chains' / rank programs' returned dicts, each
    carrying its monitor's ``health_events`` / ``health_summary``.
    Stores the aggregate verdict in ``result.runtime['health']`` and
    returns ``{"events": [...], "summary": {...}, "rank_summaries":
    [...]}`` for the sinks, or None when health is off.
    """
    if rules is None:
        return None
    from repro.obs.events import events_summary, sort_events

    events: list[dict] = []
    rank_summaries: list[dict] = []
    for value in values:
        if isinstance(value, dict):
            events.extend(value.get("health_events") or ())
            if value.get("health_summary"):
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


def _emit_observability(kind, cfg, params, registry, spmd, runtime, health):
    """Write the requested metrics/events JSONL / Chrome trace / manifest.

    Merges ``{key: path}`` of everything written into ``runtime`` so the
    CLI summary can point at the files.  ``spmd`` is the decomposed
    run's result (None for chains), ``health`` the
    :func:`_collect_health` bundle (or None).  Under an MPI launch
    every rank computes the same result; only world rank 0 writes
    files, so mpiexec runs do not race on the output paths.
    """
    from repro.obs import build_manifest, write_manifest, write_metrics_jsonl
    from repro.vmp.mpi_backend import world_rank_hint

    if world_rank_hint() != 0:
        return
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
        extra = {"outputs": dict(outputs), "runtime": dict(runtime)}
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
    runtime.update(outputs)


def _record_spmd(result: RunResult, spmd, layout) -> None:
    """Fold a decomposed SPMD run's modeled costs into ``result``.

    Shared by the strip (incl. two-level) and block layouts: modeled
    makespan and comm fraction, the halo traffic totals, the phase
    report, and the overlap fact -- ``requested`` is the layout knob,
    ``active`` whether the pipeline really ran on every rank (thin
    subdomains fall back to lockstep with a warning an mp/mpi child's
    stderr may swallow).  A two-level run adds its ensemble facts.
    """
    result.model_time = spmd.elapsed_model_time
    result.comm_fraction = spmd.comm_fraction()
    result.runtime.update(
        halo_bytes=spmd.total_bytes,
        halo_messages=spmd.total_messages,
        report=_report_summary(spmd.report),
        overlap={
            "requested": layout.overlap,
            "active": all(v["overlap_active"] for v in spmd.values),
        },
    )
    if layout.replicas > 1:
        result.runtime.update(
            replicas=layout.replicas,
            domain_ranks=layout.n_ranks,
            comm_fraction_by_level=spmd.comm_fraction_by_level(),
            ensemble_degraded=bool(spmd.values[0]["ensemble_degraded"]),
        )


def _estimate(name: str, series: np.ndarray) -> ObservableEstimate:
    """Binning-analysis point estimate of a time series."""
    series = np.asarray(series, dtype=float)
    if series.size >= 16:
        ba = BinningAnalysis.from_series(series)
        tau = integrated_autocorr_time(series) if series.size >= 32 else ba.tau_int
        return ObservableEstimate(name, ba.mean, ba.error, tau)
    err = float(series.std(ddof=1) / np.sqrt(series.size)) if series.size > 1 else 0.0
    return ObservableEstimate(name, float(series.mean()), err)


def _pooled(values, names) -> dict[str, np.ndarray]:
    """The chains' series ``names``, concatenated in chain order."""
    return {name: np.concatenate([v[name] for v in values]) for name in names}


def _xxz_estimates(series, beta: float, n_sites: int) -> dict:
    """Energy, energy per site and fluctuation susceptibility of an XXZ run."""
    energy, mag = series["energy"], series["magnetization"]
    chi = beta * (np.mean(mag**2) - np.mean(mag) ** 2) / n_sites
    return {
        "energy": _estimate("energy", energy),
        "energy_per_site": _estimate("energy_per_site", energy / n_sites),
        "susceptibility": ObservableEstimate(
            "susceptibility", float(chi), _susceptibility_error(mag, beta, n_sites)
        ),
    }


class _XXZ:
    """World-line XXZ chain: serial / replica chains, strip (two-level) driver."""

    stored = ("energy", "magnetization")

    @staticmethod
    def params(cfg, kernel):
        layout = cfg.layout
        return {
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

    @staticmethod
    def chain(cfg, i, stream, kernel, registry, rules):
        model = XXZChainModel(
            n_sites=cfg.n_sites, jz=cfg.jz, jxy=cfg.jxy, periodic=cfg.periodic
        )
        sampler = WorldlineChainQmc(model, cfg.beta, cfg.n_slices, stream=stream)
        # "auto" keeps the sampler's geometry gate (scalar fallback on
        # off-grid lattices); explicit backends are passed through.
        mode = "auto" if cfg.layout.kernel == "auto" else kernel
        meas = sampler.run(cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every, mode=mode)
        series = {"energy": meas.energy, "magnetization": meas.magnetization}
        monitor = _posthoc_health(
            rules, series, sampler.n_attempted, sampler.n_accepted,
            cfg.measure_every, rank=i,
        )
        return _chain_value(series, sampler.n_attempted, sampler.n_accepted, monitor)

    @staticmethod
    def decomposed(cfg, kernel, checkpoint, rules):
        layout = cfg.layout
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
        if layout.replicas == 1:
            return worldline_strip_program, (wl_cfg, checkpoint, rules), layout.n_ranks
        from repro.qmc.two_level import TwoLevelConfig, two_level_program

        tl_cfg = TwoLevelConfig(
            replicas=layout.replicas, domain_ranks=layout.n_ranks, base=wl_cfg
        )
        return two_level_program, (tl_cfg, checkpoint, rules), tl_cfg.n_ranks

    @staticmethod
    def series(cfg, values):
        if cfg.layout.strategy != "strip":
            return _pooled(values, _XXZ.stored)
        out0 = values[0]
        # A two-level run reports the pooled ensemble-mean series; the
        # per-replica series stay available in the rank values.
        pooled = cfg.layout.replicas > 1 and out0["ensemble_energy"] is not None
        prefix = "ensemble_" if pooled else ""
        return {name: out0[prefix + name] for name in _XXZ.stored}

    @staticmethod
    def estimates(cfg, series):
        return _xxz_estimates(series, cfg.beta, cfg.n_sites)


class _XXZ2D:
    """World-line XXZ on the square lattice: serial / replica chains only."""

    stored = ("energy", "magnetization")

    @staticmethod
    def params(cfg, kernel):
        return {
            "lx": cfg.lx,
            "ly": cfg.ly,
            "beta": cfg.beta,
            "jz": cfg.jz,
            "jxy": cfg.jxy,
            "n_slices": cfg.n_slices,
            "strategy": cfg.layout.strategy,
            "n_ranks": cfg.layout.n_ranks,
            "kernel": kernel,
        }

    @staticmethod
    def chain(cfg, i, stream, kernel, registry, rules):
        # This sampler has in-loop metrics and health hooks, so its
        # monitor observes as it runs rather than after the fact.
        monitor = None
        if rules is not None:
            from repro.obs.health import HealthMonitor

            monitor = HealthMonitor(rules, rank=i)
        model = XXZSquareModel(lx=cfg.lx, ly=cfg.ly, jz=cfg.jz, jxy=cfg.jxy)
        sampler = WorldlineSquareQmc(
            model, cfg.beta, cfg.n_slices, stream=stream,
            metrics=registry.scope(i) if registry is not None else None,
            health=monitor,
        )
        mode = "auto" if cfg.layout.kernel == "auto" else kernel
        meas = sampler.run(cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every, mode=mode)
        series = {
            "energy": meas.energy,
            "magnetization": meas.magnetization,
            "m_stag_sq": meas.m_stag_sq,
        }
        return _chain_value(series, sampler.n_attempted, sampler.n_accepted, monitor)

    @staticmethod
    def series(cfg, values):
        return _pooled(values, _XXZ2D.stored + ("m_stag_sq",))

    @staticmethod
    def estimates(cfg, series):
        n_sites = cfg.lx * cfg.ly
        estimates = _xxz_estimates(series, cfg.beta, n_sites)
        estimates["staggered_structure_factor"] = _estimate(
            "staggered_structure_factor", n_sites * series["m_stag_sq"]
        )
        return estimates


class _Tfim:
    """TFIM via the classical mapping: serial / replica chains, block driver."""

    stored = ("energy", "sigma_x", "abs_magnetization")

    @staticmethod
    def params(cfg, kernel):
        layout = cfg.layout
        return {
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

    @staticmethod
    def chain(cfg, i, stream, kernel, registry, rules):
        sampler = TfimQmc(
            cfg.spatial_shape,
            j=cfg.j,
            gamma=cfg.gamma,
            beta=cfg.beta,
            n_slices=cfg.n_slices,
            stream=stream,
            # The serial classical sampler's batched color update *is*
            # its reference implementation, so "scalar" maps to numpy
            # here; the block driver keeps a true per-site scalar path.
            kernel="numpy" if kernel == "scalar" else kernel,
        )
        meas = sampler.run(cfg.n_sweeps, cfg.n_thermalize, cfg.measure_every)
        series = {
            "energy": meas.energy,
            "sigma_x": meas.sigma_x,
            "abs_magnetization": meas.abs_magnetization,
        }
        inner = sampler.classical
        monitor = _posthoc_health(
            rules, series, inner.n_attempted, inner.n_accepted,
            cfg.measure_every, rank=i,
        )
        return _chain_value(series, inner.n_attempted, inner.n_accepted, monitor)

    @staticmethod
    def _couplings(cfg):
        """(dtau, K_space, K_tau) of the classical mapping."""
        dtau = cfg.beta / cfg.n_slices
        return dtau, dtau * cfg.j, -0.5 * math.log(math.tanh(dtau * cfg.gamma))

    @staticmethod
    def decomposed(cfg, kernel, checkpoint, rules):
        _dtau, k_space, k_tau = _Tfim._couplings(cfg)
        if len(cfg.spatial_shape) == 1:
            lx, ly, ky = cfg.spatial_shape[0], 1, 0.0
        else:
            (lx, ly), ky = cfg.spatial_shape, k_space
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
            overlap=cfg.layout.overlap,
            mode=kernel,
        )
        return ising_block_program, (block_cfg, checkpoint, rules), cfg.layout.n_ranks

    @staticmethod
    def series(cfg, values):
        if cfg.layout.strategy != "block":
            return _pooled(values, _Tfim.stored)
        out = values[0]
        dtau = _Tfim._couplings(cfg)[0]
        n_sites = int(np.prod(cfg.spatial_shape))
        bonds = out["bond_sums"]  # (n_meas, 3): x, y, t
        space_sum = bonds[:, 0] + (bonds[:, 1] if len(cfg.spatial_shape) == 2 else 0.0)
        time_sum = bonds[:, 2]
        return {
            "energy": np.array([
                tfim_energy_from_bond_sums(
                    float(s), float(t), n_sites, cfg.n_slices, cfg.j, cfg.gamma, dtau
                )
                for s, t in zip(space_sum, time_sum)
            ]),
            "sigma_x": np.array([
                tfim_sigma_x_from_time_bonds(
                    float(t), n_sites * cfg.n_slices, cfg.gamma, dtau
                )
                for t in time_sum
            ]),
            "abs_magnetization": np.abs(out["magnetization"]),
        }

    @staticmethod
    def estimates(cfg, series):
        n_sites = int(np.prod(cfg.spatial_shape))
        return {
            "energy": _estimate("energy", series["energy"]),
            "energy_per_site": _estimate(
                "energy_per_site", series["energy"] / n_sites
            ),
            "sigma_x": _estimate("sigma_x", series["sigma_x"]),
            "abs_magnetization": _estimate(
                "abs_magnetization", series["abs_magnetization"]
            ),
        }


_KINDS = {"xxz": _XXZ, "xxz2d": _XXZ2D, "tfim": _Tfim}


class Simulation:
    """Configured simulation ready to run; see the module docstring."""

    def __init__(self, config: RunConfig):
        if not isinstance(config, RunConfig):
            raise TypeError(f"unsupported config type {type(config).__name__}")
        self.config = config
        self.kind = config.kind

    def run(self) -> RunResult:
        cfg, kind = self.config, _KINDS[self.kind]
        layout = cfg.layout
        # Resolved to "scalar" or a concrete registered backend *before*
        # any rank program spawns, so a run requesting an uninstalled
        # backend (``--kernel numba`` without numba) fails fast with a
        # KernelUnavailableError instead of dying inside a worker.
        kernel = kernels.resolve_sweep_mode(layout.kernel)
        params = kind.params(cfg, kernel)
        result = RunResult(kind=self.kind, parameters=params)
        result.runtime.update(kernel=kernel)
        registry = _obs_registry(cfg)
        rules = _health_rules(cfg)
        t0_wall = time.perf_counter()
        spmd = None
        n_chains = layout.n_ranks if layout.strategy == "replica" else 1
        if layout.strategy == cfg.decomposed:
            program, args, n_ranks = kind.decomposed(
                cfg, kernel, _checkpoint_config(cfg), rules
            )
            spmd = run_spmd(
                program,
                n_ranks,
                machine=MACHINES[layout.machine],
                seed=cfg.seed,
                args=args,
                metrics=registry,
                spans=cfg.trace_out is not None,
                trace=cfg.trace_out is not None,
                backend=layout.backend,
            )
            values = spmd.values
        else:
            # Chain i draws from the i-th child stream of the root seed
            # (chain 0 is the serial run at that seed).  Offsetting the
            # seed by the chain index instead would make replica runs at
            # neighbouring seeds share all but one chain.
            values = [
                kind.chain(cfg, i, stream, kernel, registry, rules)
                for i, stream in enumerate(spawn_streams(cfg.seed, n_chains))
            ]
        result.runtime.update(
            n_attempted=sum(v["n_attempted"] for v in values),
            n_accepted=sum(v["n_accepted"] for v in values),
        )
        if spmd is not None:
            _record_spmd(result, spmd, layout)

        # The always-on throughput numbers and metric summaries.
        wall = time.perf_counter() - t0_wall
        n_sweeps_run = n_chains * (cfg.n_sweeps + cfg.n_thermalize)
        result.runtime.update(
            wall_seconds=wall,
            n_sweeps=n_sweeps_run,
            sweeps_per_second=n_sweeps_run / wall if wall > 0 else 0.0,
        )
        if registry is not None:
            result.rank_summaries = {
                str(r): v for r, v in registry.summary().items()
            }
        health = _collect_health(rules, result, values)
        _emit_observability(
            self.kind, cfg, params, registry, spmd, result.runtime, health
        )

        series = kind.series(cfg, values)
        result.estimates.update(kind.estimates(cfg, series))
        for name in kind.stored:
            result.add_series(name, series[name])
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
