"""A seed sweep runs as batches: one cell process per batch of seeds.

The grouping rule (:func:`repro.run.campaign.plan_batches`) is a pure
function of the grid and ``jobs``.  End to end, a batched cell must be
indistinguishable from its recorded ``argv`` run solo -- ``result.npz``
byte-equal, estimates and counts equal -- and must say it was batched
(``runtime["batch"]``, the ``batch`` id in ``campaign.json``).  A batch
that fails retries its cells solo, and a campaign killed mid-batch
resumes with the finished cells as cache hits.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.run.campaign import CampaignSpec, expand_grid, plan_batches, run_campaign

fault = pytest.mark.tier1_fault


def _spec(**overrides):
    kw = dict(
        kind="xxz",
        name="batches",
        base={"n_sites": 8, "n_slices": 8, "n_sweeps": 40, "n_thermalize": 4},
        sweep={"beta": [0.5, 1.0, 1.5], "seed": [0, 1, 2, 3]},
        jobs=2,
        timeout=120.0,
        retries=1,
        backoff=0.01,
    )
    kw.update(overrides)
    if "beta" not in kw["sweep"]:
        kw["base"] = {"beta": 1.0, **kw["base"]}
    return CampaignSpec(**kw)


def _indices(batches):
    return [[run.index for run in batch] for batch in batches]


class TestPlan:
    def test_eight_seeds_at_two_jobs_are_two_batches_of_four(self):
        runs = expand_grid(_spec(sweep={"seed": list(range(8))}))
        assert _indices(plan_batches(runs, 2)) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_groups_are_the_params_but_the_seed_cut_in_grid_order(self):
        # 12 batchable cells at 2 jobs: batches of up to 6, one per beta.
        runs = expand_grid(_spec())
        assert _indices(plan_batches(runs, 2)) == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11],
        ]
        # Seed outermost: each beta's cells are every other one; at 4
        # jobs a batch holds 2, and batches follow their first cells.
        runs = expand_grid(_spec(sweep={"seed": [0, 1, 2], "beta": [0.5, 1.0]}))
        assert _indices(plan_batches(runs, 4)) == [[0, 2], [1, 3], [4], [5]]

    def test_a_pure_function_of_grid_and_jobs(self):
        runs = expand_grid(_spec())
        assert _indices(plan_batches(runs, 3)) == _indices(plan_batches(runs, 3))
        assert _indices(plan_batches(runs, 1)) == _indices(plan_batches(runs, 2))
        assert _indices(plan_batches(runs, 12)) == [[i] for i in range(12)]

    @pytest.mark.parametrize("kind, base", [
        ("xxz", {"strategy": "strip", "ranks": 2}),
        ("xxz", {"strategy": "strip", "ranks": 2, "replicas": 2}),
        ("xxz", {"strategy": "strip", "ranks": 2, "checkpoint_every": 4}),
        ("tfim", {"shape": "8x8", "strategy": "block", "ranks": 2}),
    ])
    def test_other_layouts_and_kinds_run_alone(self, kind, base):
        """Decomposed and checkpointing cells run a cell each."""
        base = {"n_slices": 8, "n_sweeps": 10, "beta": 1.0, **base}
        if kind == "xxz":
            base["n_sites"] = 8
        runs = expand_grid(_spec(kind=kind, base=base, sweep={"seed": [0, 1, 2, 3]}))
        assert _indices(plan_batches(runs, 1)) == [[0], [1], [2], [3]]

    def test_square_lattice_seeds_batch_too(self):
        base = {"lx": 4, "ly": 4, "n_slices": 8, "n_sweeps": 10, "beta": 1.0}
        runs = expand_grid(_spec(kind="xxz2d", base=base, sweep={"seed": [0, 1, 2]}))
        assert _indices(plan_batches(runs, 1)) == [[0, 1, 2]]

    @pytest.mark.parametrize("kind, base", [
        ("tfim", {"shape": "8"}),
        ("tfim", {"shape": "8", "strategy": "replica", "ranks": 2}),
        ("xxz", {"n_sites": 8, "strategy": "replica", "ranks": 2}),
    ])
    def test_every_chain_layout_and_kind_batches(self, kind, base):
        base = {"n_slices": 8, "n_sweeps": 10, "beta": 1.0, **base}
        runs = expand_grid(_spec(kind=kind, base=base, sweep={"seed": [0, 1, 2]}))
        assert _indices(plan_batches(runs, 1)) == [[0, 1, 2]]

    def test_the_e2e_campaign_keeps_its_batches(self):
        """The repo benchmark's campaign_xxz_seeds grid: eight serial
        cells at two jobs, two batches of four, as before every chain
        layout batched."""
        from benchmarks.e2e.child import campaign_spec
        from benchmarks.e2e.workloads import WORKLOADS

        spec = campaign_spec(WORKLOADS["campaign_xxz_seeds"]["sizes"]["full"], 0)
        runs = expand_grid(spec)
        assert _indices(plan_batches(runs, spec.jobs)) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def _run_dir(out, run):
    return out / "runs" / run.run_id


@fault
class TestBatchedCampaign:
    def test_each_cell_is_its_recorded_argv_run_solo(self, tmp_path):
        spec = _spec()
        out = tmp_path / "c"
        result = run_campaign(spec, out_dir=out)
        assert result.ok and result.counters["completed"] == 12
        doc = json.loads((out / "campaign.json").read_text())
        batches = [run["batch"] for run in doc["runs"]]
        assert batches == [f"b{k:04d}" for k in range(3) for _ in range(4)]
        for run in expand_grid(spec):
            run_dir = _run_dir(out, run)
            status = json.loads((run_dir / "campaign_run.json").read_text())
            assert status["attempts"] == 1
            batched = json.loads((run_dir / "result.json").read_text())
            position = {"size": 4, "position": run.index % 4}
            assert batched["runtime"].pop("batch") == position
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["runtime"]["batch"] == position
            npz = (run_dir / "result.npz").read_bytes()
            assert main(status["argv"][3:]) == 0  # the cell, solo, by hand
            assert (run_dir / "result.npz").read_bytes() == npz
            solo = json.loads((run_dir / "result.json").read_text())
            assert "batch" not in solo["runtime"]
            assert solo["estimates"] == batched["estimates"]
            assert solo["parameters"] == batched["parameters"]
            for key in ("n_attempted", "n_accepted", "n_sweeps", "kernel"):
                assert solo["runtime"][key] == batched["runtime"][key], key
            a, b = batched["rank_summaries"]["0"], solo["rank_summaries"]["0"]
            assert a.keys() == b.keys()
            for key in ("sweep.count", "sweep.attempted", "sweep.accepted",
                        "sweep.acceptance", "comm.messages_sent"):
                assert a[key] == b[key], key

    def test_a_failed_batch_retries_its_cells_solo(self, tmp_path, monkeypatch):
        import repro.run.simulation as simulation

        real = simulation.run_batch

        def failing(configs):  # the forked cells inherit the patch
            if len(configs) > 1 and any(c.seed == 2 for c in configs):
                raise RuntimeError("injected batch failure")
            return real(configs)

        spec = _spec(sweep={"seed": [0, 1, 2, 3]})
        monkeypatch.setattr(simulation, "run_batch", failing)
        result = run_campaign(spec, out_dir=tmp_path / "c")
        monkeypatch.undo()
        assert result.ok and result.counters["completed"] == 4
        assert result.counters["retried"] == 2
        assert [(o.attempts, o.batch) for o in result.outcomes] == [
            (1, "b0000"), (1, "b0000"), (2, None), (2, None),
        ]
        reference = run_campaign(spec, out_dir=tmp_path / "ref", jobs=4)
        assert all(o.batch is None for o in reference.outcomes)
        for run in expand_grid(spec):
            a, b = _run_dir(tmp_path / "c", run), _run_dir(tmp_path / "ref", run)
            assert (a / "result.npz").read_bytes() == (b / "result.npz").read_bytes()
            ea = json.loads((a / "result.json").read_text())["estimates"]
            assert ea == json.loads((b / "result.json").read_text())["estimates"]

    def test_a_campaign_killed_mid_batch_resumes_from_its_cache(self, tmp_path):
        # Two batches of two ~1 s cells, one at a time: interrupt the
        # scheduler once the first batch has completed.
        base = {"n_sites": 8, "n_slices": 8, "n_sweeps": 6000, "n_thermalize": 0}
        spec = _spec(base=base, sweep={"beta": [0.5, 1.0], "seed": [0, 1]}, jobs=1)
        out = tmp_path / "c"
        runs = expand_grid(spec)

        def completed():
            found = set()
            for run in runs:
                path = _run_dir(out, run) / "campaign_run.json"
                try:
                    if json.loads(path.read_text())["status"] == "completed":
                        found.add(run.index)
                except (OSError, ValueError):
                    pass
            return found

        def interrupt_after_the_first_batch():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and len(completed()) < 2:
                time.sleep(0.02)
            os.kill(os.getpid(), signal.SIGINT)

        killer = threading.Thread(target=interrupt_after_the_first_batch)
        killer.start()
        try:
            interrupted = run_campaign(spec, out_dir=out)
        except KeyboardInterrupt:  # Python 3.10: asyncio.run re-raises it
            pass
        else:
            assert interrupted.interrupted
        killer.join()
        assert completed() == {0, 1}
        resumed = run_campaign(spec, out_dir=out, resume=True)
        assert resumed.ok
        assert resumed.counters["cached"] == 2 and resumed.counters["completed"] == 2
        assert [o.status for o in resumed.outcomes] == [
            "cached", "cached", "completed", "completed",
        ]
        assert resumed.outcomes[2].batch == resumed.outcomes[3].batch is not None


@fault
@pytest.mark.parametrize("kind, base", [
    ("tfim", {"shape": "8", "n_slices": 8}),
    ("xxz", {"n_sites": 8, "n_slices": 8, "strategy": "replica", "ranks": 2}),
])
def test_tfim_and_replica_seed_sweeps_batch_and_equal_their_solo_runs(
        tmp_path, kind, base):
    spec = _spec(kind=kind, base={"beta": 1.0, "n_sweeps": 20, "n_thermalize": 2,
                                  **base},
                 sweep={"seed": [0, 1, 2]}, jobs=1)
    out = tmp_path / "c"
    result = run_campaign(spec, out_dir=out)
    assert result.ok and result.counters["completed"] == 3
    doc = json.loads((out / "campaign.json").read_text())
    assert [run["batch"] for run in doc["runs"]] == ["b0000"] * 3
    for run in expand_grid(spec):
        run_dir = _run_dir(out, run)
        status = json.loads((run_dir / "campaign_run.json").read_text())
        batched = json.loads((run_dir / "result.json").read_text())
        assert batched["runtime"]["batch"] == {"size": 3, "position": run.index}
        npz = (run_dir / "result.npz").read_bytes()
        assert main(status["argv"][3:]) == 0  # the cell, solo, by hand
        assert (run_dir / "result.npz").read_bytes() == npz
        solo = json.loads((run_dir / "result.json").read_text())
        assert solo["estimates"] == batched["estimates"]
