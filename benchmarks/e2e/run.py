"""The repo benchmark: time to a target error bar on four workloads.

Driver form (one workload, one JSON object on the last line)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Full form (all workloads, reps scheduled round-robin)::

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed S] [--reps R]
        [--trace] [--smoke] [--out FILE]
    python -m benchmarks.e2e.run compare A.json B.json

This process schedules, aggregates and prints; it imports neither numpy
nor ``repro``.  Every measurement happens in a fresh child interpreter
(``child.py``) with its own process group and a wall-clock cap.  See
README.md in this directory for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.workloads import (  # noqa: E402
    CHILD_CAP_S,
    HOST_PROBE_NOMINAL_S,
    KNOWN_DEFECTS,
    TARGET_STDERR,
    WORKLOADS,
    rep_seed,
)

OUTPUT = HERE / "output"
SCHEMA = "repro.e2e/1"
LAYERS = ("kernels", "sampler", "driver", "comm", "stats", "runner", "campaign")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def run_child(argv: list[str], cap_s: float) -> dict:
    """Run ``argv`` in its own process group; kill the group at ``cap_s``.

    Returns ``returncode`` (None when killed at the cap), ``stdout``,
    the tail of ``stderr``, ``timed_out`` and ``elapsed_s``.  The group
    is killed on every path out, so no rank or campaign cell outlives
    its rep.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        try:
            out, err = proc.communicate(timeout=cap_s)
        except subprocess.TimeoutExpired:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    return {
        "returncode": None if timed_out else proc.returncode,
        "stdout": out,
        "stderr_tail": err[-2000:],
        "timed_out": timed_out,
        "elapsed_s": time.monotonic() - t0,
    }


def run_rep(workload: str, size: str, seed: int, tmp: Path, mode: str = "rep",
            trace: bool = False, cap_s: float = CHILD_CAP_S, **extra) -> dict:
    """One child; returns its report plus ``failed`` / ``failure``."""
    spec = {
        "mode": mode, "workload": workload, "size": size, "seed": seed,
        "trace": trace, "tmp": str(tmp), "t_spawn": time.monotonic(), **extra,
    }
    res = run_child([sys.executable, str(HERE / "child.py"), json.dumps(spec)], cap_s)
    rep = {"seed": seed, "size": size, "elapsed_s": res["elapsed_s"]}
    lines = res["stdout"].strip().splitlines()
    if res["timed_out"]:
        rep["failure"] = f"killed at the {cap_s:.0f} s cap"
    elif res["returncode"] != 0 or not lines:
        rep["failure"] = f"exit {res['returncode']}: {res['stderr_tail'][-400:]}"
    else:
        rep.update(json.loads(lines[-1]))
        missed = [
            c["name"] for c in rep.get("checks", ())
            if not c["ok"] and not c.get("warn_only")
        ]
        if missed:
            rep["failure"] = "check failed: " + ", ".join(missed)
    rep["failed"] = "failure" in rep
    return rep


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def measure(names: list[str], seed: int, size: str, tmp: Path,
            seconds: float, reps: int | None) -> dict[str, list[dict]]:
    """Closed loop, one rep in flight, workloads taken round-robin.

    A workload stops when ``reps`` reps are done or, without ``reps``,
    when another rep as long as its longest would overrun ``seconds``.
    """
    done: dict[str, list[dict]] = {n: [] for n in names}
    spent = {n: 0.0 for n in names}
    longest = {n: 0.0 for n in names}
    active = list(names)
    r = 0
    while active:
        for name in list(active):
            rep = run_rep(name, size, rep_seed(seed, r), tmp)
            done[name].append(rep)
            spent[name] += rep["elapsed_s"]
            longest[name] = max(longest[name], rep["elapsed_s"])
            if reps is not None:
                finished = len(done[name]) >= reps
            else:
                finished = spent[name] + longest[name] > seconds
            if finished:
                active.remove(name)
        r += 1
    return done


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host_index(rep: dict, first_only: bool = False) -> float:
    """Host-speed index of a child: > 1 when the host ran slow around it.

    The mean of the child's host probes (only the one before the timed
    operation for ``setup_s``) over the nominal probe time.  Every
    timing is divided by the index of the rep it was taken in.
    """
    probes = rep["host_probe_s"][:1] if first_only else rep["host_probe_s"]
    return statistics.fmean(probes) / HOST_PROBE_NOMINAL_S


def units_of(name: str, rep: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one rep: cells for the campaign."""
    cells = rep.get("cells", 1) if WORKLOADS[name]["kind"] == "campaign" else 1
    if rep["failed"]:
        return cells, cells
    return cells, rep.get("cells_failed", 0)


def summarize(name: str, reps: list[dict], gate: dict | None, affinity: int) -> dict:
    """End-to-end metrics, failure account and run-level checks of a workload."""
    wl = WORKLOADS[name]
    good = [r for r in reps if not r["failed"]]
    attempted = failed = 0
    for rep in reps:
        a, f = units_of(name, rep)
        attempted, failed = attempted + a, failed + f
    checks = []
    if gate is not None:
        attempted += 1
        failed += gate["failed"]
        checks.append({"name": "exact_gate", "ok": not gate["failed"],
                       "detail": gate.get("failure")
                       or "; ".join(c["detail"] for c in gate["checks"])})
    if len(good) >= 2:
        shas = {r["series_sha"] for r in good}
        distinct = len(shas) == len({r["seed"] for r in good})
        warn_only = bool(wl.get("seed_distinct_warn_only"))
        attempted += 1
        failed += 0 if distinct or warn_only else 1
        checks.append({"name": "seed_distinct", "ok": distinct, "warn_only": warn_only,
                       "detail": f"{len(shas)} distinct series from {len(good)} seeds"})
    out = {
        "why": wl["why"],
        "cpus": wl["cpus"],
        "busy_processes": wl["busy_processes"],
        "oversubscribed": wl["cpus"] > affinity,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "checks": checks,
        "failures": [r["failure"] for r in reps if r["failed"]],
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "metrics": {},
    }
    if not good:
        return out
    before = [host_index(r, first_only=True) for r in good]
    during = [host_index(r) for r in good]
    walls = [r["wall_s"] / h for r, h in zip(good, during)]
    samples = {
        "setup_s": (
            [r["setup_s"] / h for r, h in zip(good, before)], "s", "wall", "lower"),
        "wall_s": (walls, "s", "wall", "lower"),
        "sweeps_per_s": (
            [r["n_sweeps_executed"] / w for r, w in zip(good, walls)], "1/s", "wall",
            "higher"),
        "peak_rss_mb": ([r["rss_mb"]["peak"] for r in good], "MB", "count", "lower"),
    }
    out["host_speed_index"] = statistics.median(during)
    out["wall_raw_s"] = statistics.median(r["wall_s"] for r in good)
    # T * sigma^2 / target^2 with sigma^2 averaged over the reps' seeds;
    # its quartiles are those of wall_s under the same factor.
    factor = statistics.fmean(r["sigma2"] for r in good) / TARGET_STDERR**2
    samples["time_to_target_s"] = ([w * factor for w in walls], "s", "wall", "lower")
    for metric, (values, unit, clock, better) in samples.items():
        q1, med, q3 = quartiles(values)
        out["metrics"][metric] = {
            "value": med, "unit": unit, "clock": clock, "better": better,
            "q1": q1, "q3": q3, "n": len(values), "samples": values,
        }
    return out


# ----------------------------------------------------------------------
# traced run: per-layer metrics, budget table, trace file
# ----------------------------------------------------------------------


def trace_workload(name: str, seed: int, size: str, tmp: Path) -> dict:
    """One traced rep of ``name`` plus the layer probes, each in a child."""
    wl = WORKLOADS[name]
    traced = run_rep(name, size, rep_seed(seed, 0), tmp, trace=True)
    probes = run_rep(
        name, size, seed, tmp, mode="probes", trace=True,
        with_campaign=wl["kind"] != "campaign",
    )
    out = {"reps": [traced, probes], "metrics": {}, "budget": None}
    if traced["failed"] or probes["failed"]:
        return out
    # The two children ran at different moments of a drifting host: the
    # probes normalise their own seconds, the rep's are normalised here.
    index = host_index(traced)
    layers = traced["layers"]
    m = dict(probes["metrics"])
    for key, doc in layers.get("campaign_metrics", {}).items():
        wall_time = doc["clock"] == "wall" and doc["unit"] != "ratio"
        m[key] = dict(doc, value=doc["value"] / index) if wall_time else doc

    def put(key, value, unit, clock):
        m[key] = {"value": value, "unit": unit, "clock": clock}

    put("stats.estimate_ms", layers["stats_estimate_ms"] / index, "ms", "wall")
    put("stats.energy_stderr", traced["stderr"], "energy", "count")
    put("runner.self_s", layers["runner_self_s"] / index, "s", "wall")
    put("runner.cpu_s", traced["cpu_s"], "s", "cpu")
    put("runner.save_result_ms", layers["save_result_ms"] / index, "ms", "wall")
    put("runner.result_bytes", layers["result_bytes"], "bytes", "count")
    put("trace.overhead_ratio", layers["trace_overhead_ratio"], "ratio", "wall")
    wall = traced["wall_s"] / index
    budget = budget_rows(name, traced, {k: v["value"] for k, v in m.items()},
                         layers["direct_s_per_sweep"] / index)
    accounted = sum(seconds for _, seconds, _ in budget)
    put("budget.residual_ratio", 1.0 - accounted / wall, "ratio", "wall")
    out.update(metrics=m, budget=budget, wall_s=wall)
    return out


def budget_rows(name: str, rep: dict, m: dict, direct_s_per_sweep: float
                ) -> list[tuple[str, float, str]]:
    """Split the traced rep's ``wall_s`` across the layers, in wall seconds.

    Each row is (layer, seconds, note): per-layer metrics ``m`` (all
    host-normalised) times the rep's counts.  Rows obtained by
    subtraction say so.  Modeled-clock metrics never enter.
    ``direct_s_per_sweep`` is the direct layer call on the small config.
    """
    n_tot, n_meas = rep["n_sweeps_executed"], rep["n_measured"]
    rows = dict.fromkeys(LAYERS, (0.0, ""))
    rows["stats"] = (2e-3 * m["stats.estimate_ms"], "estimate_ms x 2 observables")
    rows["runner"] = (
        m["runner.self_s"],
        "Simulation.run - direct call, alternated on a 64-sweep config")
    if name == "xxz_serial":
        kern = 1e-6 * n_tot * (
            8 * m["kernels.wl1d_corner_us"] + 2 * m["kernels.wl1d_column_us"])
        rows["kernels"] = (kern, "sweeps x (8 corner + 2 column)")
        rows["sampler"] = (
            1e-3 * (n_tot * m["sampler.xxz_sweep_ms"]
                    + n_meas * m["sampler.xxz_measure_ms"]
                    + m["sampler.construct_ms"]) - kern,
            "sweeps x sweep_ms + measurements x measure_ms - kernels")
    elif name == "xxz_strip_mp2":
        rows["driver"] = (
            1e-3 * n_tot * m["driver.strip_p1_ms_per_sweep"],
            "sweeps x strip_p1 (both ranks' compute on one CPU; kernels inside)")
        rows["comm"] = (
            1e-3 * n_tot * m["comm.strip_mp2_overhead_ms_per_sweep"]
            + m["comm.mp_launch_s"],
            "sweeps x overhead (by subtraction: p2_mp - p1) + launch")
    elif name == "tfim_block_thread2":
        rows["driver"] = (
            1e-3 * n_tot * m["driver.block_p1_ms_per_sweep"],
            "sweeps x block_p1 (kernels inside)")
        rows["comm"] = (
            1e-3 * n_tot * m["comm.block_thread2_overhead_ms_per_sweep"]
            + m["comm.thread_launch_s"],
            "sweeps x overhead (by subtraction: p2_thread - p1) + launch")
    else:
        acc = rep["campaign"]
        per_job = acc["cells"] / acc["jobs"]
        rows["campaign"] = (
            m["campaign.sched_overhead_s"] + per_job * m["campaign.spawn_import_s"],
            "sched overhead (by subtraction) + cells/jobs x spawn_import")
        rows["runner"] = (
            per_job * (m["campaign.cli_min_run_s"] - m["campaign.spawn_import_s"]),
            "cells/jobs x (cli_min_run - spawn_import)")
        rows["sampler"] = (
            per_job * direct_s_per_sweep * n_tot / acc["cells"],
            "cells/jobs x sweeps per cell x direct sampler s/sweep")
        rows["stats"] = (0.0, "inside cli_min_run")
    return [(layer, *rows[layer]) for layer in LAYERS]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span of one child: duration minus child spans."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def write_trace(path: Path, reps: list[dict]) -> None:
    """All children's spans as one Chrome trace-event file."""
    spans = [s for r in reps for s in r.get("spans", ())]
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for rep in reps:
        own = rep.get("spans", ())
        self_s = self_times(own)
        for s in own:
            events.append({
                "name": s["name"], "ph": "X", "pid": rep.get("pid", 0), "tid": 0,
                "ts": 1e6 * (s["start"] - origin),
                "dur": 1e6 * (s["end"] - s["start"]),
                "args": {"id": s["id"], "parent": s["parent"],
                         "workload": s["workload"],
                         "self_us": 1e6 * self_s[s["id"]]},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def host_provenance(reps: list[dict]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # an exported checkout has no .git
    child = next((r["provenance"] for r in reps if "provenance" in r), {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **child,
    }


def print_summary(name: str, summary: dict) -> None:
    flag = "  [oversubscribed]" if summary["oversubscribed"] else ""
    print(f"== {name}{flag}: {summary['attempted']} attempted, "
          f"{summary['failed']} failed (fail_ratio {summary['fail_ratio']:.3f})")
    for metric, v in summary["metrics"].items():
        print(f"  {metric:<18} {v['value']:>12.4f} {v['unit']:<4} "
              f"[q1 {v['q1']:.4f}, q3 {v['q3']:.4f}, n={v['n']}, clock {v['clock']}]")
    for check in summary["checks"]:
        state = "ok" if check["ok"] else ("WARN" if check.get("warn_only") else "FAIL")
        print(f"  check {check['name']}: {state} ({check['detail']})")
    for failure in summary["failures"]:
        print(f"  failure: {failure}")


def print_trace(name: str, traced: dict) -> None:
    print(f"== {name}: per-layer metrics (traced run)")
    for rep in traced["reps"]:
        if rep["failed"]:
            print(f"  failure: {rep['failure']}")
    for key in sorted(traced["metrics"]):
        v = traced["metrics"][key]
        print(f"  {key:<46} {v['value']:>14.6g} {v['unit']:<6} [{v['clock']}]")
    if traced["budget"] is None:
        return
    wall = traced["wall_s"]
    print(f"  budget of wall_s = {wall:.3f} s (wall clock; modeled numbers excluded)")
    for layer, seconds, note in traced["budget"]:
        print(f"    {layer:<9} {seconds:>8.3f} s  {seconds / wall:>6.1%}  {note}")
    residual = traced["metrics"]["budget.residual_ratio"]["value"]
    print(f"    residual  {residual * wall:>8.3f} s  {residual:>6.1%}")


def driver_line(declared: list[dict], metrics: dict, attempted: int, failed: int
                ) -> dict:
    """The contract's last line: correct, attempted, failed, metrics."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": metrics[d["name"]]["value"], "unit": d["unit"]}
            for d in declared
        },
    }


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.run", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--reps", type=int, default=None,
                        help="fixed rep count per workload instead of --seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    size = "smoke" if args.smoke else "full"
    reps = args.reps if args.reps is not None else (2 if args.smoke else None)
    affinity = len(os.sched_getaffinity(0))
    OUTPUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUTPUT, prefix="tmp-"))
    doc = {"schema": SCHEMA, "seed": args.seed, "size": size,
           "traced": bool(args.trace), "known_defects": KNOWN_DEFECTS,
           "workloads": {}}
    lines: dict[str, dict] = {}
    all_reps: list[dict] = []
    try:
        if args.trace:
            for name in names:
                traced = trace_workload(name, args.seed, size, tmp)
                all_reps += traced["reps"]
                print_trace(name, traced)
                doc["workloads"][name] = {
                    "per_layer": traced["metrics"], "budget": traced["budget"],
                    "failures": [r["failure"] for r in traced["reps"] if r["failed"]],
                }
                if traced["metrics"]:
                    lines[name] = driver_line(
                        spec["per_layer"], traced["metrics"], len(traced["reps"]),
                        sum(r["failed"] for r in traced["reps"]))
            write_trace(OUTPUT / "trace.json", all_reps)
            print(f"trace written to {(OUTPUT / 'trace.json').relative_to(ROOT)}")
        else:
            done = measure(names, args.seed, size, tmp, args.seconds, reps)
            for name in names:
                gate = None
                if "gate" in WORKLOADS[name]["sizes"] and not args.smoke:
                    gate = run_rep(name, "gate", rep_seed(args.seed, 0) + 999, tmp)
                summary = summarize(name, done[name], gate, affinity)
                all_reps += done[name]
                print_summary(name, summary)
                doc["workloads"][name] = summary
                if summary["metrics"]:
                    lines[name] = driver_line(
                        spec["end_to_end"], summary["metrics"], summary["attempted"],
                        summary["failed"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc["provenance"] = host_provenance(all_reps)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1))
    if len(lines) < len(names):
        missing = sorted(set(names) - set(lines))
        print(f"no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.workload is not None:
        print(json.dumps(lines[args.workload]))
        return 0
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
