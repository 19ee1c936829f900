"""Smoke test of the repo benchmark (``pytest benchmarks/ --smoke``).

Runs the ``--smoke`` sizes end to end and checks the contract between
``BENCHMARK.json`` and what the benchmark emits; the physics at these
sizes is exact-reference lattices only, so a failure here is a rotted
benchmark, not a noisy host.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import run as e2e
from benchmarks.e2e.compare import compare
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_declares_what_the_benchmark_has():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    layers = {m["name"].split(".")[0] for m in SPEC["per_layer"]}
    assert set(e2e.LAYERS) <= layers


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    assert e2e.main(["--smoke", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_smoke_emits_every_end_to_end_metric_with_its_unit(smoke_doc):
    for workload in SPEC["workloads"]:
        summary = smoke_doc["workloads"][workload["name"]]
        assert summary["failed"] == 0, summary["failures"]
        for metric in SPEC["end_to_end"]:
            got = summary["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0
            assert got["clock"] in ("wall", "cpu", "modeled", "count")
    prov = smoke_doc["provenance"]
    assert {"git_sha", "python", "numpy", "numba", "kernel", "nproc", "affinity"} <= set(
        prov)


def test_compare_of_a_run_with_itself_passes(smoke_doc):
    rows, ok = compare(smoke_doc, smoke_doc, SPEC)
    assert ok
    assert {r["verdict"] for r in rows} <= {"within", "unresolved"}
    assert len(rows) == len(SPEC["workloads"]) * (len(SPEC["end_to_end"]) + 1)


def test_smoke_trace_emits_every_per_layer_metric_and_a_trace(capsys):
    assert e2e.main(["--smoke", "--workload", "tfim_block_thread2", "--trace", "1"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    events = json.loads((e2e.OUTPUT / "trace.json").read_text())["traceEvents"]
    assert {"rep", "runner.Simulation.run", "probe.kernels"} <= {
        e["name"] for e in events}


def test_wrong_reference_becomes_a_failure(smoke_doc, tmp_path):
    right = smoke_doc["workloads"]["xxz_serial"]["reps"][0]
    wrong = e2e.run_rep(
        "xxz_serial", "smoke", right["seed"], tmp_path, reference_shift=0.5)
    assert not right["failed"], right.get("failure")
    assert wrong["failed"] and "energy_vs_reference" in wrong["failure"]
    summary = e2e.summarize("xxz_serial", [right, wrong], None, affinity=2)
    assert summary["fail_ratio"] == 0.5


def test_hung_child_is_killed_at_its_cap_and_counted(tmp_path):
    t0 = time.monotonic()
    res = e2e.run_child([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert res["timed_out"] and res["returncode"] is None
    assert time.monotonic() - t0 < 10
    rep = e2e.run_rep("xxz_serial", "smoke", 3, tmp_path, cap_s=0.05)
    assert rep["failed"] and "cap" in rep["failure"]
    summary = e2e.summarize("xxz_serial", [rep], None, affinity=2)
    assert summary["failed"] == summary["attempted"] == 1
