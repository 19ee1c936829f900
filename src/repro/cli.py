"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run-xxz``
    World-line QMC of the XXZ chain via the Simulation facade.
``run-tfim``
    Transverse-field Ising QMC (chain or square lattice).
``machines``
    List the calibrated machine models.
``scaling``
    Print a performance-model scaling table for a chosen machine,
    strategy and lattice.
``run-campaign``
    Expand a sweep spec (TOML) into a grid of runs and schedule them
    over a bounded pool of backend processes, with a config-hash result
    cache (``--resume`` skips completed runs), per-run timeouts, and
    retry-with-backoff on rank failures.
``report``
    Aggregate finished runs' manifests + metrics/events JSONL into a
    text or HTML dashboard (per-rank tables, convergence verdicts,
    health timeline); campaign directories add a campaign summary.

Every ``run-*`` command accepts ``--output PATH`` to persist the result
as JSON (+NPZ series) via :mod:`repro.run.results`, and ``--health`` to
stream convergence/health diagnostics during the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.kernels import KernelUnavailableError
from repro.run.config import (
    ParallelLayout,
    TfimRunConfig,
    XXZ2DRunConfig,
    XXZRunConfig,
)
from repro.util.tables import Table
from repro.vmp.machines import MACHINES

__all__ = ["main", "build_parser"]


def _add_layout_args(p: argparse.ArgumentParser, strategies: list[str]) -> None:
    p.add_argument("--strategy", choices=strategies, default="serial",
                   help="parallelization strategy")
    p.add_argument("--ranks", type=int, default=1, help="virtual processors")
    p.add_argument("--machine", choices=sorted(MACHINES), default="Ideal",
                   help="machine cost model")
    p.add_argument("--backend", choices=["thread", "mp", "mpi"],
                   default="thread",
                   help="execution backend for strip/block layouts; 'mpi' "
                        "expects the command to run under "
                        "'mpiexec -n RANKS python -m repro ...'")
    p.add_argument("--overlap", action="store_true",
                   help="overlap halo exchanges with interior updates in "
                        "the strip/block sweep drivers (bit-identical "
                        "trajectories, shorter modeled makespan)")
    p.add_argument("--kernel", default="auto",
                   help="sweep kernel backend: 'auto' (best available), a "
                        "registered backend (numpy/numba), or 'scalar' "
                        "for the per-move reference path; every backend "
                        "yields the bit-identical trajectory (default: auto)")
    p.add_argument("--replicas", type=int, default=1, metavar="R",
                   help="two-level ensemble x domain run: R independent "
                        "strip replicas of --ranks domain processors each "
                        "(R * RANKS total; strip strategy only)")


def _add_mc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, required=True, help="inverse temperature")
    p.add_argument("--slices", type=int, default=16, help="Trotter slices")
    p.add_argument("--sweeps", type=int, default=2000, help="measured sweeps")
    p.add_argument("--thermalize", type=int, default=200, help="warm-up sweeps")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--output", type=str, default=None,
                   help="save result to PATH.json/.npz")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="save per-rank checkpoints every N sweeps "
                        "(strip/block layouts)")
    p.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                   help="directory for per-rank checkpoint bundles")
    p.add_argument("--resume", action="store_true",
                   help="resume bit-identically from --checkpoint-dir")
    p.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                   help="write per-rank metrics as JSONL (plus a manifest.json "
                        "next to it)")
    p.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                   help="write a Chrome trace_event JSON of the run's phase "
                        "spans (strip/block layouts; open in Perfetto)")
    p.add_argument("--obs-interval", type=int, default=0, metavar="N",
                   help="snapshot metrics every N sweeps into --metrics-out "
                        "(0: summaries only); with --health also sets the "
                        "health-check cadence")
    p.add_argument("--health", action="store_true",
                   help="enable the streaming run-health engine (online "
                        "convergence estimators + alert rules; trajectories "
                        "stay bit-identical to a run without it)")
    p.add_argument("--health-rules", type=str, default=None, metavar="PATH",
                   help="JSON file overriding the default health rules "
                        "(implies nothing without --health)")
    p.add_argument("--events-out", type=str, default=None, metavar="PATH",
                   help="write health events as JSONL (requires --health)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the human-readable summary on stdout "
                        "(file sinks are still written)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel world-line quantum Monte Carlo on a simulated MPP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_xxz = sub.add_parser("run-xxz", help="world-line QMC of the XXZ chain")
    p_xxz.add_argument("--sites", type=int, required=True)
    p_xxz.add_argument("--jz", type=float, default=1.0)
    p_xxz.add_argument("--jxy", type=float, default=1.0)
    p_xxz.add_argument("--open-chain", action="store_true",
                       help="open boundaries (default periodic)")
    _add_mc_args(p_xxz)
    _add_layout_args(p_xxz, ["serial", "replica", "strip"])

    p_xxz2d = sub.add_parser(
        "run-xxz2d", help="world-line QMC of the 2-D XXZ (Heisenberg) model"
    )
    p_xxz2d.add_argument("--lx", type=int, required=True)
    p_xxz2d.add_argument("--ly", type=int, required=True)
    p_xxz2d.add_argument("--jz", type=float, default=1.0)
    p_xxz2d.add_argument("--jxy", type=float, default=1.0)
    _add_mc_args(p_xxz2d)
    _add_layout_args(p_xxz2d, ["serial", "replica"])

    p_tfim = sub.add_parser("run-tfim", help="transverse-field Ising QMC")
    p_tfim.add_argument("--shape", type=str, required=True,
                        help="spatial shape, e.g. '32' or '8x8'")
    p_tfim.add_argument("--j", type=float, default=1.0)
    p_tfim.add_argument("--gamma", type=float, default=1.0)
    _add_mc_args(p_tfim)
    _add_layout_args(p_tfim, ["serial", "replica", "block"])

    sub.add_parser("machines", help="list calibrated machine models")

    p_sc = sub.add_parser("scaling", help="performance-model scaling table")
    p_sc.add_argument("--machine", choices=sorted(MACHINES), default="CM-5")
    p_sc.add_argument("--strategy", choices=["strip", "block", "replica"],
                      default="block")
    p_sc.add_argument("--lx", type=int, default=128)
    p_sc.add_argument("--ly", type=int, default=128)
    p_sc.add_argument("--slices", type=int, default=32)
    p_sc.add_argument("--max-p", type=int, default=1024)

    p_camp = sub.add_parser(
        "run-campaign",
        help="schedule a sweep-spec grid of runs with a result cache",
    )
    p_camp.add_argument("--spec", type=str, required=True, metavar="PATH",
                        help="campaign spec file (.toml, which needs "
                             "Python >= 3.11, or .json with the same "
                             "structure)")
    p_camp.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker-pool width (overrides the spec's jobs)")
    p_camp.add_argument("--output-dir", type=str, default=None, metavar="DIR",
                        help="campaign output root (overrides the spec's "
                             "output_dir; default: <name>_campaign)")
    p_camp.add_argument("--resume", action="store_true",
                        help="serve completed runs from the config-hash "
                             "result cache and restart interrupted "
                             "checkpointed runs from their bundles")
    p_camp.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-run wall-clock timeout in seconds "
                             "(0: none; overrides the spec)")
    p_camp.add_argument("--retries", type=int, default=None, metavar="N",
                        help="max retries per run on transient failures "
                             "(overrides the spec)")
    p_camp.add_argument("--policy", choices=["fail-fast", "keep-going"],
                        default=None,
                        help="whether a failed run cancels the not-yet-"
                             "started remainder (overrides the spec)")
    p_camp.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines and the final "
                             "summary table (campaign.json is still written)")

    p_rep = sub.add_parser(
        "report",
        help="render a run-health dashboard from finished runs' artifacts",
    )
    p_rep.add_argument("paths", nargs="+", metavar="PATH",
                       help="run manifest.json files and/or directories to "
                            "search recursively for them")
    p_rep.add_argument("--format", choices=["text", "html", "json"],
                       default="text", help="output format (default: text)")
    p_rep.add_argument("--out", type=str, default=None, metavar="FILE",
                       help="write the dashboard to FILE instead of stdout")
    return parser


def _run(cfg, args) -> int:
    """Run ``cfg``, then print/save the result (rank 0 only under MPI).

    Under ``mpiexec`` every rank runs the whole command and computes an
    identical result (the mpi backend allgathers rank values), so only
    world rank 0 talks to the terminal and the filesystem.  The samplers
    are imported here, not at module level: ``machines``, ``scaling``
    and ``report`` never touch them.
    """
    from repro.run.reporting import StatusReporter
    from repro.run.results import save_result
    from repro.run.simulation import Simulation
    from repro.vmp.mpi_backend import world_rank_hint

    result = Simulation(cfg).run()
    if world_rank_hint() != 0:
        return 0
    reporter = StatusReporter(quiet=getattr(args, "quiet", False))
    reporter.info(result.summary())
    if args.output:
        save_result(result, args.output)
        reporter.info(f"saved to {args.output}.json")
    reporter.flush()
    return 0


def _cmd_run_xxz(args) -> int:
    layout = ParallelLayout(args.strategy, args.ranks, args.machine,
                            args.backend, overlap=args.overlap,
                            kernel=args.kernel, replicas=args.replicas)
    cfg = XXZRunConfig(
        n_sites=args.sites,
        beta=args.beta,
        jz=args.jz,
        jxy=args.jxy,
        n_slices=args.slices,
        periodic=not args.open_chain,
        n_sweeps=args.sweeps,
        n_thermalize=args.thermalize,
        seed=args.seed,
        layout=layout,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        obs_interval=args.obs_interval,
        health=args.health,
        health_rules=args.health_rules,
        events_out=args.events_out,
    )
    return _run(cfg, args)


def _cmd_run_xxz2d(args) -> int:
    layout = ParallelLayout(args.strategy, args.ranks, args.machine,
                            args.backend, overlap=args.overlap,
                            kernel=args.kernel, replicas=args.replicas)
    cfg = XXZ2DRunConfig(
        lx=args.lx,
        ly=args.ly,
        beta=args.beta,
        jz=args.jz,
        jxy=args.jxy,
        n_slices=args.slices,
        n_sweeps=args.sweeps,
        n_thermalize=args.thermalize,
        seed=args.seed,
        layout=layout,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        obs_interval=args.obs_interval,
        health=args.health,
        health_rules=args.health_rules,
        events_out=args.events_out,
    )
    return _run(cfg, args)


def _cmd_run_tfim(args) -> int:
    shape = tuple(int(x) for x in args.shape.lower().split("x"))
    layout = ParallelLayout(args.strategy, args.ranks, args.machine,
                            args.backend, overlap=args.overlap,
                            kernel=args.kernel, replicas=args.replicas)
    cfg = TfimRunConfig(
        spatial_shape=shape,
        beta=args.beta,
        j=args.j,
        gamma=args.gamma,
        n_slices=args.slices,
        n_sweeps=args.sweeps,
        n_thermalize=args.thermalize,
        seed=args.seed,
        layout=layout,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        obs_interval=args.obs_interval,
        health=args.health,
        health_rules=args.health_rules,
        events_out=args.events_out,
    )
    return _run(cfg, args)


def _cmd_machines(_args) -> int:
    table = Table(
        "calibrated machine models",
        ["name", "MFLOP/s/node", "latency [us]", "MB/s", "topology", "max nodes"],
    )
    for m in MACHINES.values():
        bandwidth = (1.0 / m.byte_time / 1e6) if m.byte_time else float("inf")
        table.add_row(
            [m.name, m.flops / 1e6, m.latency * 1e6, bandwidth,
             m.topology_name, m.max_nodes]
        )
    print(table.render())
    return 0


def _cmd_scaling(args) -> int:
    from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
    from repro.vmp.performance import PerformanceModel, WorkloadShape

    machine = MACHINES[args.machine]
    w = WorkloadShape(
        lx=args.lx,
        ly=args.ly,
        lt=args.slices,
        flops_per_site=2 * FLOPS_PER_SPIN_UPDATE,
        sweeps=1000,
        bytes_per_site=1,
        strategy=args.strategy,
        measurement_interval=10,
    )
    pm = PerformanceModel(machine, w)
    table = Table(
        f"{machine.name}, {args.strategy} decomposition, "
        f"{args.lx}x{args.ly}x{args.slices}",
        ["P", "T[s]", "speedup", "efficiency", "comm frac"],
    )
    p = 1
    while p <= min(args.max_p, machine.max_nodes):
        try:
            table.add_row(
                [p, pm.time(p), pm.speedup(p), pm.efficiency(p), pm.comm_fraction(p)]
            )
        except ValueError as exc:
            print(f"(stopping at P={p}: {exc})")
            break
        p *= 2
    print(table.render())
    return 0


def _cmd_run_campaign(args) -> int:
    from repro.run.campaign import load_campaign_spec, run_campaign
    from repro.run.reporting import StatusReporter

    reporter = StatusReporter(quiet=args.quiet)
    spec = load_campaign_spec(args.spec)
    progress = None if args.quiet else (lambda msg: print(msg, flush=True))
    result = run_campaign(
        spec,
        out_dir=args.output_dir,
        jobs=args.jobs,
        resume=args.resume,
        timeout=args.timeout,
        retries=args.retries,
        policy=args.policy,
        progress=progress,
    )
    reporter.info(result.summary_table())
    reporter.info(f"campaign manifest: {result.out_dir / 'campaign.json'}")
    reporter.flush()
    return 0 if result.ok else 1


def _cmd_report(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.report import (
        build_report,
        discover_campaigns,
        discover_runs,
        load_campaign,
        load_run,
        render_html,
        render_text,
    )

    manifests = discover_runs(args.paths)
    campaigns = [load_campaign(c) for c in discover_campaigns(args.paths)]
    report = build_report([load_run(m) for m in manifests], campaigns)
    if args.format == "html":
        rendered = render_html(report)
    elif args.format == "json":
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        rendered = render_text(report)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(rendered)
    return 0


_COMMANDS = {
    "run-xxz": _cmd_run_xxz,
    "run-xxz2d": _cmd_run_xxz2d,
    "run-tfim": _cmd_run_tfim,
    "run-campaign": _cmd_run_campaign,
    "machines": _cmd_machines,
    "scaling": _cmd_scaling,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, KernelUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # An interrupted campaign has already persisted every completed
        # run's status document; re-invoking with --resume serves those
        # from the cache.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
