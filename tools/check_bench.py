#!/usr/bin/env python3
"""Performance-regression gate over the smoke benchmark trajectory.

CI's smoke-benchmark job runs ``pytest benchmarks/ --smoke``, which
persists ``benchmarks/output/smoke/BENCH_perf_smoke.json`` (same schema
as the committed full-tier ``BENCH_perf.json``).  This script diffs the
fresh record against the committed baseline
``benchmarks/BENCH_smoke_baseline.json`` and fails (exit 1) on a
regression beyond the tolerance.

Only *ratio* metrics are gated -- absolute wall-clock throughput is a
property of the runner, but the ratios travel:

* per-case vectorized/scalar site-update speedup (``records``);
* strip-driver vectorized/scalar speedup on the thread backend at each
  P the two documents share (``parallel_records``);
* serial chain sampler over strip driver at thread P=1, vectorized
  sweeps/s on the lattice the two record sets share
  (``serial_vs_strip_p1``).  Both run the same strip ops over cached
  tables, so this is an absolute floor on the fresh record, not a
  baseline diff: it fails when the two paths drift apart again;
* telemetry overhead of the ``metrics`` and ``health`` variants
  (``observability_overhead``; lower is better, compared with an
  absolute slack since their baselines sit near zero).  Smoke-tier
  overhead records are indicative only (50 ms runs cannot resolve a
  3% CPU ratio) and skipped; the committed full-tier
  ``BENCH_perf.json`` is gated against its absolute overhead bar
  instead;
* the modeled comm fraction of every overlapped A/B run
  (``overlap_records`` with ``overlap: true``; lower is better --
  these gate that the halo-overlap pipeline keeps hiding wire time);
* the per-layout comm fraction of the two-level ensemble x domain
  campaign (``two_level_records``; lower is better, same ceiling as
  the overlap fractions), plus a structural check that the
  full-machine (64 x 16) record is present;
* the per-backend kernel-registry speedup over batched numpy
  (``kernel_records``, backends other than numpy only).  On top of the
  relative baseline diff, ``--require-kernel NAME=MIN`` (repeatable)
  enforces an absolute floor on a fresh kernel speedup, and
  ``--kernel-only`` skips the baseline diff entirely for CI jobs that
  run just the kernel benchmark.

A speedup metric regresses when it drops more than ``--tolerance``
(default 0.20, i.e. 20%) below the baseline; the overhead metric
regresses when it exceeds baseline + slack.  Waiver knob for known
noisy runners or intentional trade-offs: pass ``--waive "reason"`` (or
set ``CHECK_BENCH_WAIVE=reason``); the comparison still prints, but
the exit status is forced to 0 and the reason is echoed for the CI
log.  Refresh the baseline itself with ``--update-baseline`` after an
intentional perf change, and commit the new file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FRESH_DEFAULT = REPO_ROOT / "benchmarks" / "output" / "smoke" / "BENCH_perf_smoke.json"
BASELINE_DEFAULT = REPO_ROOT / "benchmarks" / "BENCH_smoke_baseline.json"
FULL_TIER_DEFAULT = REPO_ROOT / "BENCH_perf.json"

#: Absolute slack (in overhead fraction) granted to the telemetry
#: overhead metric on top of the relative tolerance: its baseline is a
#: few percent at most, so a purely relative bound would gate on noise.
OVERHEAD_SLACK = 0.05

#: Floors on the campaign-scheduler record (``campaign_records``).
#: ``cache_speedup`` is the fresh/resumed wall ratio of the identical
#: campaign: a cached rerun executes nothing, so even on a slow runner
#: it must be several times faster than actually sweeping.  The
#: aggregate-throughput floor is deliberately conservative (the bench
#: grid sweeps tiny 8-site chains; anything slower than this means the
#: scheduler itself is pathological, not the sampler).
CAMPAIGN_CACHE_SPEEDUP_FLOOR = 2.0
CAMPAIGN_MIN_SWEEPS_PER_S = 5.0

#: Floor on (serial chain vectorized sweeps/s) / (strip thread P=1
#: vectorized sweeps/s).  The serial sampler is the P=1, no-ghost case of
#: the strip ops and its record excludes launch and measurement, so it
#: should sit at or above 1; 0.8 leaves room for runner noise.
SERIAL_VS_STRIP_P1_FLOOR = 0.8

#: Absolute slack granted to the overlapped comm-fraction metrics: the
#: fractions are modeled (deterministic for a given geometry), but the
#: smoke tier runs fewer sweeps, so amortized collective costs shift a
#: little between runs of different lengths.
COMM_FRACTION_SLACK = 0.05


def _speedups(doc: dict) -> dict[str, float]:
    """All gated higher-is-better ratio metrics of one record document."""
    out: dict[str, float] = {}
    by_case: dict[str, dict[str, float]] = {}
    for rec in doc.get("records", []):
        by_case.setdefault(rec["case"], {})[rec["mode"]] = rec["site_updates_per_s"]
    for case, modes in sorted(by_case.items()):
        if "scalar" in modes and "vectorized" in modes:
            out[f"vectorized-speedup[{case}]"] = modes["vectorized"] / modes["scalar"]
    strip: dict[int, dict[str, float]] = {}
    for rec in doc.get("parallel_records", []):
        if rec.get("backend") == "thread":
            strip.setdefault(rec["p"], {})[rec["mode"]] = rec["site_updates_per_s"]
    for p, modes in sorted(strip.items()):
        if "scalar" in modes and "vectorized" in modes:
            out[f"strip-speedup[P={p}]"] = modes["vectorized"] / modes["scalar"]
    for name, ratio in sorted(_kernel_speedups(doc).items()):
        out[name] = ratio
    return out


def _kernel_speedups(doc: dict) -> dict[str, float]:
    """Per-backend warm speedup over batched numpy (``kernel_records``).

    The numpy record itself is excluded (its ratio is 1.0 by
    construction); records only exist for backends installed on the
    runner, so a numpy-only baseline never gates a numba-enabled fresh
    run and vice versa -- hard floors come from ``--require-kernel``.
    """
    out: dict[str, float] = {}
    for rec in doc.get("kernel_records", []):
        if rec.get("backend") != "numpy" and "speedup_vs_numpy" in rec:
            out[f"kernel-speedup[{rec['backend']}]"] = float(
                rec["speedup_vs_numpy"]
            )
    return out


def serial_vs_strip_p1(doc: dict) -> float | None:
    """Serial over strip-P=1 vectorized sweeps/s on their shared lattice.

    ``records`` labels the chain case ``chain L=.. T=..`` and
    ``parallel_records`` the same lattice ``strip chain L=.. T=..``;
    None when the document lacks either side.
    """
    strip = {
        rec["case"]: rec["sweeps_per_s"]
        for rec in doc.get("parallel_records", [])
        if (rec.get("backend"), rec.get("p"), rec.get("mode"))
        == ("thread", 1, "vectorized")
    }
    for rec in doc.get("records", []):
        shared = strip.get(f"strip {rec['case']}")
        if rec["mode"] == "vectorized" and shared:
            return rec["sweeps_per_s"] / shared
    return None


def check_serial_vs_strip(doc: dict) -> list[str]:
    """Gate ``serial_vs_strip_p1`` of one document against its floor."""
    ratio = serial_vs_strip_p1(doc)
    if ratio is None:
        print("  (no shared chain / strip P=1 records; serial_vs_strip_p1 "
              "gate skipped)")
        return []
    ok = ratio >= SERIAL_VS_STRIP_P1_FLOOR
    print(f"  {'serial_vs_strip_p1':45s} required "
          f"{SERIAL_VS_STRIP_P1_FLOOR:8.2f}  fresh {ratio:8.2f}  "
          f"{'ok' if ok else 'BELOW FLOOR'}")
    if ok:
        return []
    return [f"serial_vs_strip_p1: {ratio:.2f} is below the floor "
            f"{SERIAL_VS_STRIP_P1_FLOOR:.2f} (the serial chain sweep is "
            f"slower than the strip driver at P=1 on the same lattice)"]


def _require_kernels(fresh: dict, requirements: list[str]) -> list[str]:
    """Enforce ``NAME=MIN`` lower bounds on the fresh kernel speedups.

    Unlike the baseline diff (relative, tolerance-padded), these are
    absolute floors: the CI numba job passes ``--require-kernel
    numba=3.0`` so the JIT backend can never quietly decay to numpy
    speed even if a slow baseline were committed.
    """
    failures: list[str] = []
    speedups = _kernel_speedups(fresh)
    for spec in requirements:
        name, _, minimum = spec.partition("=")
        try:
            floor = float(minimum)
        except ValueError:
            failures.append(f"--require-kernel {spec!r}: expected NAME=MIN")
            continue
        key = f"kernel-speedup[{name}]"
        if key not in speedups:
            failures.append(
                f"{key}: no fresh kernel record for backend {name!r} "
                f"(is it installed on this runner?)"
            )
            continue
        got = speedups[key]
        status = "ok" if got >= floor else "BELOW FLOOR"
        print(f"  {key:45s} required {floor:8.2f}  fresh {got:8.2f}  "
              f"{status}")
        if got < floor:
            failures.append(
                f"{key}: {got:.2f}x is below the required floor {floor:.2f}x"
            )
    return failures


def _overlap_fractions(doc: dict) -> dict[str, float]:
    """Modeled comm fraction of each overlapped A/B run (lower is better)."""
    out: dict[str, float] = {}
    for rec in doc.get("overlap_records", []):
        if rec.get("overlap") and rec.get("comm_fraction_modeled") is not None:
            name = f"overlap-comm-fraction[{rec['case']}, P={rec['p']}]"
            out[name] = float(rec["comm_fraction_modeled"])
    return out


#: The two-level campaign's full-machine layout, replicas x strip ranks.
FULL_MACHINE_LAYOUT = "64x16"


def _two_level_fractions(doc: dict) -> dict[str, float]:
    """Per-layout comm fraction of the two-level records (lower is better).

    Each layout gates once, under its own name; the full-machine one
    keeps the tag it had when it was extrapolated rather than run, so
    the committed baselines still name it.  The fractions are
    deterministic on the machine model, with the same sweep-count
    sensitivity as the overlap fractions.
    """
    out: dict[str, float] = {}
    for rec in doc.get("two_level_records", []):
        if rec.get("comm_fraction_modeled") is None:
            continue
        tag = rec["layout"] + (" modeled" if rec["layout"] == FULL_MACHINE_LAYOUT else "")
        out[f"two-level-comm-fraction[{tag}]"] = float(
            rec["comm_fraction_modeled"]
        )
    return out


def _full_machine_missing(doc: dict) -> bool:
    """Whether a document's two-level campaign lacks its full-machine record."""
    return bool(doc.get("two_level_records")) and not any(
        rec["layout"] == FULL_MACHINE_LAYOUT for rec in doc["two_level_records"])


def check_campaign_records(doc: dict, required: bool = False) -> list[str]:
    """Gate the campaign-scheduler records of one document.

    Structural checks: the fresh leg completed the whole grid with no
    failures, and the cached rerun reports at least one cache hit (in
    fact the full grid -- a rerun of an untouched campaign must never
    recompute).  Perf floors: the fresh/resumed wall ratio
    (``cache_speedup``) and the aggregate sweeps/s, both conservative
    absolute bounds rather than baseline diffs because campaign wall
    time is dominated by runner-specific process startup.

    With ``required=False`` a document without ``campaign_records`` is
    skipped (the kernel-only and perf-kernel-only invocations never run
    the campaign benchmark); ``required=True`` makes absence a failure.
    """
    records = doc.get("campaign_records")
    if not records:
        if required:
            return ["campaign_records: missing (run 'pytest "
                    "benchmarks/bench_campaign.py --smoke' first)"]
        print("  (no campaign_records in the fresh document; campaign "
              "gate skipped)")
        return []
    failures: list[str] = []
    for rec in records:
        tag = f"tier={rec.get('tier', '?')}"
        fresh, resumed = rec.get("fresh", {}), rec.get("resumed", {})
        n_runs = rec.get("n_runs", 0)
        checks = [
            (f"campaign-fresh-completed[{tag}]",
             fresh.get("completed"), "==", n_runs),
            (f"campaign-fresh-failed[{tag}]",
             fresh.get("failed"), "==", 0),
            (f"campaign-cache-hits[{tag}]",
             resumed.get("cache_hits"), ">=", 1),
            (f"campaign-resumed-completed[{tag}]",
             resumed.get("completed"), "==", 0),
            (f"campaign-cache-speedup[{tag}]",
             rec.get("cache_speedup"), ">=", CAMPAIGN_CACHE_SPEEDUP_FLOOR),
            (f"campaign-agg-sweeps-per-s[{tag}]",
             fresh.get("sweeps_per_second"), ">=", CAMPAIGN_MIN_SWEEPS_PER_S),
        ]
        for name, got, op, want in checks:
            ok = got is not None and (
                got == want if op == "==" else got >= want
            )
            status = "ok" if ok else "FAILED"
            shown = "missing" if got is None else f"{got:8.2f}"
            print(f"  {name:45s} required {op} {want:<8} got {shown}  "
                  f"{status}")
            if not ok:
                failures.append(
                    f"{name}: got {got!r}, required {op} {want}"
                )
    return failures


#: Telemetry variants gated against the baseline (lower is better).
#: ``metrics+trace`` is diagnostics-grade and deliberately ungated.
GATED_OVERHEAD_VARIANTS = ("metrics", "health")


def _overheads(doc: dict) -> dict[str, float]:
    """Gated per-variant telemetry overheads of one record document.

    Smoke-tier sections (runs of ~50 ms) cannot resolve percent-level
    CPU ratios, so they return empty: the overhead gate runs on the
    committed full-tier ``BENCH_perf.json`` instead (see
    :func:`check_committed_overheads`).
    """
    section = doc.get("observability_overhead") or {}
    if section.get("tier") == "smoke":
        return {}
    out: dict[str, float] = {}
    for rec in section.get("records", []):
        if rec.get("variant") in GATED_OVERHEAD_VARIANTS:
            out[rec["variant"]] = float(rec["overhead_vs_disabled"])
    return out


def check_committed_overheads(path: Path) -> list[str]:
    """Gate the committed full-tier overhead record against its bar.

    The full-tier benchmark measures the telemetry overheads with
    best-of-reps CPU ratios and persists them with the acceptance bar;
    this re-asserts, deterministically, that the committed record shows
    every gated variant under that bar -- so a regression cannot be
    committed by simply re-running the benchmark on a noisy host and
    pasting in whatever it printed.
    """
    failures: list[str] = []
    if not path.exists():
        return [f"committed overhead record missing: {path}"]
    doc = json.loads(path.read_text())
    section = doc.get("observability_overhead") or {}
    bar = float(section.get("overhead_bar", 0.03))
    overheads = _overheads(doc)
    for variant in GATED_OVERHEAD_VARIANTS:
        if variant not in overheads:
            failures.append(
                f"telemetry-overhead[{variant}]: missing from {path.name}"
            )
            continue
        got = overheads[variant]
        status = "ok" if got < bar else "OVER BAR"
        print(f"  {f'telemetry-overhead[{variant}]':45s} "
              f"bar {bar:8.3f}  committed {got:8.3f}  {status}")
        if got >= bar:
            failures.append(
                f"telemetry-overhead[{variant}]: committed {got:.3f} "
                f"is over the {bar:.0%} bar in {path.name}"
            )
    return failures


def compare(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    """Return one failure message per regressed metric (empty: pass)."""
    failures: list[str] = []
    fresh_speed, base_speed = _speedups(fresh), _speedups(baseline)
    for name in sorted(base_speed):
        if name not in fresh_speed:
            failures.append(f"{name}: missing from the fresh record")
            continue
        got, want = fresh_speed[name], base_speed[name]
        floor = want * (1.0 - tolerance)
        status = "ok" if got >= floor else "REGRESSED"
        print(f"  {name:45s} baseline {want:8.2f}  fresh {got:8.2f}  "
              f"floor {floor:8.2f}  {status}")
        if got < floor:
            failures.append(
                f"{name}: {got:.2f} is {1 - got / want:.0%} below the "
                f"baseline {want:.2f} (tolerance {tolerance:.0%})"
            )
    fresh_frac = {**_overlap_fractions(fresh), **_two_level_fractions(fresh)}
    base_frac = {**_overlap_fractions(baseline),
                 **_two_level_fractions(baseline)}
    if baseline.get("two_level_records") and (
            _full_machine_missing(fresh) or not fresh.get("two_level_records")):
        failures.append(
            "two_level_records: the full-machine record is missing from the "
            "fresh document"
        )
    for name in sorted(base_frac):
        if name not in fresh_frac:
            failures.append(f"{name}: missing from the fresh record")
            continue
        got, want = fresh_frac[name], base_frac[name]
        ceil = want + COMM_FRACTION_SLACK + tolerance * abs(want)
        status = "ok" if got <= ceil else "REGRESSED"
        print(f"  {name:45s} baseline {want:8.3f}  fresh {got:8.3f}  "
              f"ceiling {ceil:8.3f}  {status}")
        if got > ceil:
            failures.append(
                f"{name}: {got:.3f} exceeds baseline {want:.3f} + slack "
                f"(ceiling {ceil:.3f})"
            )
    fresh_ovh, base_ovh = _overheads(fresh), _overheads(baseline)
    if not base_ovh:
        print("  (no gated observability_overhead in the baseline; the "
              "committed full-tier record carries the overhead gate)")
    for variant in sorted(base_ovh):
        name = f"telemetry-overhead[{variant}]"
        if variant not in fresh_ovh:
            failures.append(f"{name}: missing from the fresh record")
            continue
        got_ovh, want_ovh = fresh_ovh[variant], base_ovh[variant]
        ceil = want_ovh + OVERHEAD_SLACK + tolerance * abs(want_ovh)
        status = "ok" if got_ovh <= ceil else "REGRESSED"
        print(f"  {name:45s} baseline {want_ovh:8.3f}  "
              f"fresh {got_ovh:8.3f}  ceiling {ceil:8.3f}  {status}")
        if got_ovh > ceil:
            failures.append(
                f"{name}: {got_ovh:.3f} exceeds baseline "
                f"{want_ovh:.3f} + slack (ceiling {ceil:.3f})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, default=FRESH_DEFAULT,
                        help="fresh smoke record (from pytest benchmarks --smoke)")
    parser.add_argument("--baseline", type=Path, default=BASELINE_DEFAULT,
                        help="committed baseline record")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop of speedup metrics "
                             "(default 0.20)")
    parser.add_argument("--require-kernel", metavar="NAME=MIN", action="append",
                        default=[],
                        help="absolute lower bound on a fresh kernel-speedup "
                             "ratio, e.g. numba=3.0 (repeatable; checked in "
                             "addition to the baseline diff)")
    parser.add_argument("--kernel-only", action="store_true",
                        help="skip the baseline diff and check only the "
                             "--require-kernel floors (for CI jobs that run "
                             "just the kernel benchmark)")
    parser.add_argument("--full-tier", action="store_true",
                        help="gate a full-tier document's internal "
                             "invariants (telemetry-overhead bars, campaign "
                             "floors, structural records) without diffing "
                             "against the smoke baseline; for the nightly "
                             "full-benchmark workflow, pass --fresh "
                             "BENCH_perf.json")
    parser.add_argument("--waive", metavar="REASON", default=None,
                        help="report but do not fail (also: CHECK_BENCH_WAIVE "
                             "env var)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy the fresh record over the baseline instead "
                             "of comparing (commit the result)")
    args = parser.parse_args(argv)

    if not args.fresh.exists():
        print(f"error: no fresh record at {args.fresh}; run "
              f"'pytest benchmarks/bench_perf_kernels.py "
              f"benchmarks/bench_obs_overhead.py --smoke' first",
              file=sys.stderr)
        return 2
    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.fresh, args.baseline)
        print(f"baseline updated from {args.fresh}")
        return 0
    if not args.kernel_only and not args.baseline.exists():
        print(f"error: no baseline at {args.baseline}; generate one with "
              f"--update-baseline and commit it", file=sys.stderr)
        return 2

    fresh = json.loads(args.fresh.read_text())
    failures: list[str] = []
    if args.kernel_only:
        print(f"checking kernel floors in {args.fresh.name} "
              f"(baseline diff skipped):")
    elif args.full_tier:
        print(f"checking full-tier document {args.fresh.name} "
              f"(baseline diff skipped):")
        failures += check_committed_overheads(args.fresh)
        failures += check_campaign_records(fresh, required=True)
        failures += check_serial_vs_strip(fresh)
        if _full_machine_missing(fresh):
            failures.append(
                "two_level_records: the full-machine record is missing from "
                "the fresh document"
            )
    else:
        baseline = json.loads(args.baseline.read_text())
        print(f"comparing {args.fresh.name} against {args.baseline.name} "
              f"(tolerance {args.tolerance:.0%}):")
        failures += compare(fresh, baseline, args.tolerance)
        failures += check_serial_vs_strip(fresh)
        print(f"checking campaign-scheduler records in {args.fresh.name}:")
        failures += check_campaign_records(fresh)
        print(f"checking committed telemetry overheads in "
              f"{FULL_TIER_DEFAULT.name}:")
        failures += check_committed_overheads(FULL_TIER_DEFAULT)
    failures += _require_kernels(fresh, args.require_kernel)

    waiver = args.waive or os.environ.get("CHECK_BENCH_WAIVE")
    if failures:
        print(f"\n{len(failures)} perf regression(s):")
        for f in failures:
            print(f"  - {f}")
        if waiver:
            print(f"\nWAIVED ({waiver}); exiting 0 despite regressions")
            return 0
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
