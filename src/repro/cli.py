"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run-xxz`` / ``run-xxz2d`` / ``run-tfim``
    One per run kind (:data:`repro.run.config.RUN_KINDS`): world-line
    QMC of the XXZ chain, of the 2-D XXZ model, and transverse-field
    Ising QMC (chain or square lattice), via the Simulation facade.
    Their options are the kind's field table.
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
import dataclasses
import functools
import sys
from typing import Sequence

from repro.kernels import KernelUnavailableError
from repro.run.config import RUN_KINDS, ParallelLayout, RunConfig
from repro.run.reporting import StatusReporter
from repro.vmp.machines import MACHINES

__all__ = ["main", "main_batch", "build_parser", "config_from_args"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel world-line quantum Monte Carlo on a simulated MPP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, cls in RUN_KINDS.items():
        p_run = sub.add_parser(f"run-{kind}", help=cls.summary)
        for row in cls.run_fields():
            if row.type is bool:
                p_run.add_argument(row.flag, action="store_true", help=row.help)
            else:
                p_run.add_argument(
                    row.flag, type=row.type, default=row.default,
                    required=row.required, choices=row.choices,
                    metavar=row.metavar, help=row.help,
                )

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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run config a parsed ``run-<kind>`` command line describes.

    Walks the kind's field table: each row's option lands in the config
    field (or :class:`ParallelLayout` field) the row names.
    """
    cls = RUN_KINDS[args.command.removeprefix("run-")]
    layout_names = {f.name for f in dataclasses.fields(ParallelLayout)}
    layout, fields = {}, {}
    for row in cls.run_fields():
        if row.name is None:
            continue
        value = getattr(args, row.dest)
        if row.type is bool:
            value = value != row.default
        (layout if row.name in layout_names else fields)[row.name] = value
    return cls(layout=ParallelLayout(**layout), **fields)


def _cmd_run(args) -> int:
    """Run the config; print/save the result (rank 0 only under MPI)."""
    return _cmd_run_batch([args])


def _cmd_run_batch(batch) -> int:
    """Run the configs of parsed ``run-<kind>`` command lines as one
    :func:`~repro.run.simulation.run_batch`; print/save each result as
    its command line asks (rank 0 only under MPI).

    Under ``mpiexec`` every rank runs the whole command and computes an
    identical result (the mpi backend allgathers rank values), so only
    world rank 0 talks to the terminal and the filesystem.  The samplers
    are imported here, not at module level: ``machines``, ``scaling``
    and ``report`` never touch them.
    """
    from repro.run.results import save_result
    from repro.run.simulation import run_batch
    from repro.vmp.world import world_rank_hint

    results = run_batch([config_from_args(args) for args in batch])
    if world_rank_hint() != 0:
        return 0
    for args, result in zip(batch, results):
        reporter = StatusReporter(quiet=args.quiet)
        reporter.info(result.summary())
        if args.output:
            save_result(result, args.output)
            reporter.info(f"saved to {args.output}.json")
        reporter.flush()
    return 0


def _cmd_machines(_args) -> int:
    from repro.util.tables import Table

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
    from repro.util.tables import Table
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
    **{f"run-{kind}": _cmd_run for kind in RUN_KINDS},
    "run-campaign": _cmd_run_campaign,
    "machines": _cmd_machines,
    "scaling": _cmd_scaling,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads: built once per process, and once per
    campaign cell server for all of its cells."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    return _exit_code(_COMMANDS[args.command], args)


def main_batch(argvs: Sequence[Sequence[str]]) -> int:
    """Exit code of ``run-<kind>`` command lines run as one batch.

    Each command line is parsed as :func:`main` parses it; their configs
    run as one :func:`~repro.run.simulation.run_batch` (they may differ
    only in seed and output paths) and each run's outputs are written as
    its own command line would write them.  A campaign cell that serves
    several cells runs this.
    """
    return _exit_code(_cmd_run_batch, [_parser().parse_args(argv) for argv in argvs])


def _exit_code(command, args) -> int:
    """``command(args)``, with the CLI's errors turned into exit codes."""
    try:
        return command(args)
    except (ValueError, KernelUnavailableError) as exc:
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
