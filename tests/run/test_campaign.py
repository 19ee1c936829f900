"""Campaign scheduler: specs, cache keys, resume, retry, pool width.

Pure tests cover spec parsing/validation (including the spec error a
``.toml`` file raises where ``tomllib`` is absent), grid expansion, and
cache-key purity.  The ``tier1_fault``-marked tests drive the real scheduler with
backend OS processes: fresh-then-resume cache hits, stale-checkpoint
rejection after a spec edit, retry-then-succeed after a genuinely
fault-injected :class:`~repro.vmp.faults.RankFailure`, and bit-identity
of the result set across worker-pool widths (the acceptance criterion:
an interrupted+resumed campaign equals an uninterrupted ``--jobs 1``
one, which reduces to scheduling order never entering the physics).
"""

import asyncio
import io
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.run.campaign import (
    CAMPAIGN_VERSION,
    CampaignRun,
    CampaignSpec,
    CellServer,
    RunAttempt,
    _is_transient,
    build_run_argv,
    expand_grid,
    load_campaign_spec,
    parse_spec_dict,
    run_cache_key,
    run_campaign,
)
from repro.vmp.faults import (
    CrashFault,
    FaultPlan,
    InjectedRankCrash,
    RankFailure,
)
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd

fault = pytest.mark.tier1_fault

SPEC_TOML = textwrap.dedent("""\
    # An ordinary small sweep spec.
    [campaign]
    kind = "xxz"
    name = "demo"
    jobs = 3
    timeout = 120.0
    retries = 1
    backoff = 0.25
    policy = "fail-fast"

    [base]
    n_sites = 8
    n_slices = 4
    n_sweeps = 10
    n_thermalize = 2
    jz = 1.0

    [sweep]
    beta = [0.5, 1.0]
    seed = [0, 1]
""")


def _spec(**overrides):
    kw = dict(
        kind="xxz",
        name="t",
        base={"n_sites": 6, "n_slices": 4, "n_sweeps": 10, "n_thermalize": 2},
        sweep={"beta": [0.5, 1.0]},
        jobs=2,
        timeout=120.0,
        retries=1,
        backoff=0.01,
    )
    kw.update(overrides)
    return CampaignSpec(**kw)


# ======================================================================
# spec parsing + validation
# ======================================================================


class TestSpecParsing:
    def test_toml_spec_loads(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "demo.toml"
        path.write_text(SPEC_TOML)
        spec = load_campaign_spec(path)
        assert spec.kind == "xxz" and spec.name == "demo"
        assert spec.jobs == 3 and spec.retries == 1
        assert spec.policy == "fail-fast"
        assert spec.base["n_sites"] == 8 and spec.base["jz"] == 1.0
        assert spec.sweep == {"beta": [0.5, 1.0], "seed": [0, 1]}
        assert spec.n_runs == 4

    def test_toml_spec_without_tomllib_is_a_spec_error(self, tmp_path, monkeypatch):
        # Python 3.10 has no tomllib: the loader must say so as a spec
        # error (CLI exit 2) and point at the .json route.
        monkeypatch.setitem(sys.modules, "tomllib", None)  # import -> ImportError
        path = tmp_path / "demo.toml"
        path.write_text(SPEC_TOML)
        with pytest.raises(ValueError, match=r"demo\.toml.*TOML specs need "
                                             r"Python >= 3\.11.*\.json"):
            load_campaign_spec(path)

    def test_json_spec_loads(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({
            "campaign": {"kind": "tfim"},
            "base": {"shape": "4x4", "n_slices": 4},
            "sweep": {"beta": [0.5, 1.0]},
        }))
        spec = load_campaign_spec(path)
        assert spec.kind == "tfim" and spec.name == "demo"
        assert spec.n_runs == 2

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_campaign_spec(tmp_path / "nope.toml")

    @pytest.mark.parametrize("doc, match", [
        ({}, r"no \[campaign\] table"),
        ({"campaign": {}}, "needs a 'kind'"),
        ({"campaign": {"kind": "bogus"}}, "unknown campaign kind"),
        ({"campaign": {"kind": "xxz", "cores": 4}}, "unknown"),
        ({"campaign": {"kind": "xxz"}, "extra": {}}, "unknown spec table"),
    ])
    def test_bad_documents_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            parse_spec_dict(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="not a xxz run parameter"):
            _spec(base={"n_sites": 6, "voltage": 3.0})

    def test_base_sweep_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            _spec(base={"n_sites": 6, "beta": 1.0}, sweep={"beta": [0.5]})

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _spec(sweep={"beta": []})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="n_sites"):
            _spec(base={"n_slices": 4}, sweep={"beta": [0.5]})

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _spec(policy="shrug")


# ======================================================================
# grid expansion + cache keys
# ======================================================================


class TestGridAndCacheKeys:
    def test_declaration_order_and_run_ids(self):
        spec = _spec(sweep={"beta": [0.5, 1.0], "seed": [0, 1]})
        runs = expand_grid(spec)
        assert [r.run_id for r in runs] == [
            "r0000-beta0.5-seed0", "r0001-beta0.5-seed1",
            "r0002-beta1.0-seed0", "r0003-beta1.0-seed1",
        ]
        assert runs[2].swept == {"beta": 1.0, "seed": 0}
        assert runs[2].params["n_sites"] == 6

    def test_cache_key_is_pure_and_distinct(self):
        spec = _spec()
        first = [r.cache_key for r in expand_grid(spec)]
        again = [r.cache_key for r in expand_grid(spec)]
        assert first == again
        assert len(set(first)) == len(first)
        # Scheduling knobs never enter the key...
        tweaked = _spec(jobs=7, timeout=1.0, retries=0)
        assert [r.cache_key for r in expand_grid(tweaked)] == first
        # ...but any physics parameter does.
        edited = _spec(base={**spec.base, "n_sweeps": 11})
        assert all(
            a != b
            for a, b in zip(first, (r.cache_key for r in expand_grid(edited)))
        )

    @fault
    def test_cache_key_stable_across_process_restart(self, tmp_path):
        """The resume contract: a fresh interpreter recomputes the keys."""
        spec = _spec(sweep={"beta": [0.5, 1.0], "seed": [0, 1]})
        mine = {r.run_id: r.cache_key for r in expand_grid(spec)}
        script = textwrap.dedent("""\
            import json, sys
            from repro.run.campaign import CampaignSpec, expand_grid
            spec = CampaignSpec(**json.loads(sys.argv[1]))
            print(json.dumps(
                {r.run_id: r.cache_key for r in expand_grid(spec)}))
        """)
        spec_json = json.dumps({
            "kind": spec.kind, "name": spec.name,
            "base": dict(spec.base),
            "sweep": {k: list(v) for k, v in spec.sweep.items()},
        })
        # A bare env, so the parent's PYTHONHASHSEED cannot leak in; only
        # its bytecode policy passes through (no __pycache__ in src).
        env = {"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        out = subprocess.run(
            [sys.executable, "-c", script, spec_json],
            capture_output=True, text=True, check=True, env=env,
        )
        assert json.loads(out.stdout) == mine

    def test_run_cache_key_matches_manifest_hashing(self):
        from repro.obs.manifest import config_hash

        params = {"n_sites": 6, "beta": 0.5}
        assert run_cache_key("xxz", params) == config_hash(
            {"kind": "xxz", "params": params}
        )

    def test_build_run_argv_flag_mapping(self, tmp_path):
        spec = _spec(base={
            "n_sites": 8, "n_slices": 4, "n_sweeps": 10, "n_thermalize": 2,
            "strategy": "strip", "ranks": 2, "overlap": True,
            "periodic": False, "checkpoint_every": 5,
        })
        (run,) = expand_grid(_spec(base=spec.base, sweep={"beta": [0.5]}))
        argv = build_run_argv(run, tmp_path, resume=True)
        assert argv[:4] == [sys.executable, "-m", "repro", "run-xxz"]
        text = " ".join(argv)
        assert "--sites 8" in text and "--beta 0.5" in text
        assert "--strategy strip --ranks 2" in text
        assert "--overlap" in text and "--open-chain" in text
        assert "--checkpoint-every 5" in text and "--resume" in text
        assert f"--output {tmp_path / 'result'}" in text
        assert "--quiet" in text

    def test_transient_classification(self):
        # Config errors are permanent; crashes and timeouts retry.
        assert not _is_transient(RunAttempt(returncode=2, wall_seconds=0.1))
        assert _is_transient(RunAttempt(returncode=1, wall_seconds=0.1))
        assert _is_transient(RunAttempt(returncode=-9, wall_seconds=0.1))
        assert _is_transient(
            RunAttempt(returncode=2, wall_seconds=0.1, transient=True)
        )


#: kind -> ([base], swept beta, cache key, argv after the interpreter),
#: recorded at 36e83cd before the field tables replaced the flag dicts.
PINNED_SPECS = {
    "xxz": (
        {"n_sites": 8, "n_slices": 8, "n_sweeps": 10, "n_thermalize": 2,
         "jz": 0.5, "jxy": 1.0, "strategy": "strip", "ranks": 2,
         "machine": "Paragon", "backend": "thread", "kernel": "numpy",
         "replicas": 2, "overlap": True, "periodic": True,
         "checkpoint_every": 5, "seed": 4},
        0.5,
        "d73f784fe64715f125584d0328733736e9979b243596422236e4eb20b6d6de94",
        ["-m", "repro", "run-xxz", "--sites", "8", "--slices", "8",
         "--sweeps", "10", "--thermalize", "2", "--jz", "0.5", "--jxy", "1.0",
         "--strategy", "strip", "--ranks", "2", "--machine", "Paragon",
         "--backend", "thread", "--kernel", "numpy", "--replicas", "2",
         "--overlap", "--seed", "4", "--beta", "0.5",
         "--output", "/runs/x/result", "--metrics-out", "/runs/x/metrics.jsonl",
         "--checkpoint-every", "5", "--checkpoint-dir", "/runs/x/checkpoints",
         "--resume", "--quiet"],
    ),
    "xxz2d": (
        {"lx": 4, "ly": 4, "jz": 1.0, "jxy": 0.5, "n_slices": 8,
         "n_sweeps": 10, "n_thermalize": 2, "strategy": "replica", "ranks": 2,
         "seed": 1, "overlap": False},
        0.5,
        "0cf546f229ea16f2013f7ab0ca9b73696da21dd0f16520000f4dc592f564ffea",
        ["-m", "repro", "run-xxz2d", "--lx", "4", "--ly", "4", "--jz", "1.0",
         "--jxy", "0.5", "--slices", "8", "--sweeps", "10", "--thermalize", "2",
         "--strategy", "replica", "--ranks", "2", "--seed", "1", "--beta", "0.5",
         "--output", "/runs/x/result", "--metrics-out", "/runs/x/metrics.jsonl",
         "--quiet"],
    ),
    "tfim": (
        {"shape": "4x4", "j": 1.0, "gamma": 2.0, "n_slices": 8, "n_sweeps": 10,
         "n_thermalize": 2, "strategy": "block", "ranks": 4, "machine": "CM-5",
         "backend": "mp", "kernel": "scalar", "seed": 2},
        1.0,
        "6b6763541ebcd143789c5a1339337f93849adaf864304705f4e6a34f126ce0d2",
        ["-m", "repro", "run-tfim", "--shape", "4x4", "--j", "1.0",
         "--gamma", "2.0", "--slices", "8", "--sweeps", "10", "--thermalize", "2",
         "--strategy", "block", "--ranks", "4", "--machine", "CM-5",
         "--backend", "mp", "--kernel", "scalar", "--seed", "2", "--beta", "1.0",
         "--output", "/runs/x/result", "--metrics-out", "/runs/x/metrics.jsonl",
         "--quiet"],
    ),
}

#: kind -> the spec fields a campaign may set (17 / 17 / 16).
PINNED_SPEC_FIELDS = {
    "xxz": {"backend", "beta", "checkpoint_every", "jxy", "jz", "kernel",
            "machine", "n_sites", "n_slices", "n_sweeps", "n_thermalize",
            "overlap", "periodic", "ranks", "replicas", "seed", "strategy"},
    "xxz2d": {"backend", "beta", "checkpoint_every", "jxy", "jz", "kernel",
              "lx", "ly", "machine", "n_slices", "n_sweeps", "n_thermalize",
              "overlap", "ranks", "replicas", "seed", "strategy"},
    "tfim": {"backend", "beta", "checkpoint_every", "gamma", "j", "kernel",
             "machine", "n_slices", "n_sweeps", "n_thermalize", "overlap",
             "ranks", "replicas", "seed", "shape", "strategy"},
}


class TestPinnedFlagMapping:
    """Cache keys and cell command lines of one spec per kind, as
    literals: campaign directories written before a refactor of the
    field <-> flag mapping must still cache-hit after it."""

    @pytest.mark.parametrize("kind", sorted(PINNED_SPECS))
    def test_cache_key_and_argv_unchanged(self, kind):
        base, beta, key, argv = PINNED_SPECS[kind]
        (run,) = expand_grid(
            CampaignSpec(kind=kind, name="pin", base=base, sweep={"beta": [beta]})
        )
        assert run.run_id == f"r0000-beta{beta}"
        assert run.cache_key == key == run_cache_key(kind, {**base, "beta": beta})
        assert build_run_argv(run, Path("/runs/x"), resume=True) == [
            sys.executable, *argv
        ]

    @pytest.mark.parametrize("kind", sorted(PINNED_SPEC_FIELDS))
    def test_spec_fields_unchanged(self, kind):
        assert CampaignSpec.allowed_fields(kind) == PINNED_SPEC_FIELDS[kind]


#: Valid parameter sets that between them set every spec field of
#: each kind (non-default wherever the kind's layouts allow one).
_ROUND_TRIP_SPECS = {
    "xxz": [
        {"n_sites": 8, "jz": 0.5, "jxy": 0.25, "periodic": True, "beta": 0.75,
         "n_slices": 8, "n_sweeps": 12, "n_thermalize": 3, "seed": 9,
         "checkpoint_every": 4, "strategy": "strip", "ranks": 2,
         "machine": "Paragon", "backend": "mp", "overlap": True,
         "kernel": "scalar", "replicas": 2},
        {"n_sites": 6, "beta": 1.0, "periodic": False, "strategy": "replica",
         "ranks": 3, "overlap": False},
    ],
    "xxz2d": [
        {"lx": 4, "ly": 8, "jz": 0.5, "jxy": 0.25, "beta": 0.75, "n_slices": 8,
         "n_sweeps": 12, "n_thermalize": 3, "seed": 9, "checkpoint_every": 0,
         "strategy": "replica", "ranks": 3, "machine": "Delta",
         "backend": "thread", "overlap": False, "kernel": "scalar",
         "replicas": 1},
    ],
    "tfim": [
        {"shape": "4x6", "j": 0.5, "gamma": 2.0, "beta": 0.75, "n_slices": 8,
         "n_sweeps": 12, "n_thermalize": 3, "seed": 9, "checkpoint_every": 4,
         "strategy": "block", "ranks": 2, "machine": "CM-5", "backend": "mp",
         "overlap": True, "kernel": "scalar", "replicas": 1},
        {"shape": 16, "beta": 1.0},
    ],
}
#: Spec fields whose config field has another name or a parsed value.
_CONFIG_FIELD = {"ranks": "n_ranks", "shape": "spatial_shape"}
_CONFIG_VALUE = {"4x6": (4, 6), 16: (16,)}
#: Flags the campaign sets itself, from the run's own directory...
_CAMPAIGN_SET_FLAGS = {
    "--output", "--metrics-out", "--checkpoint-dir", "--resume", "--quiet",
}
#: ...and run flags it offers no spec field for.
_NOT_OFFERED_FLAGS = {
    "--trace-out", "--obs-interval", "--health", "--health-rules",
    "--events-out",
}


class TestOneFieldTable:
    """Spec field -> argv -> parsed args -> config, through the one
    table the CLI and the campaign both read."""

    @pytest.mark.parametrize("kind", sorted(_ROUND_TRIP_SPECS))
    def test_every_spec_field_reaches_its_config_field(self, kind, tmp_path):
        import dataclasses

        from repro.cli import build_parser, config_from_args
        from repro.run.config import ParallelLayout

        layout_fields = {f.name for f in dataclasses.fields(ParallelLayout)}
        covered = set()
        for params in _ROUND_TRIP_SPECS[kind]:
            run = CampaignRun("r0", 0, kind, params, {}, run_cache_key(kind, params))
            argv = build_run_argv(run, tmp_path)
            cfg = config_from_args(build_parser().parse_args(argv[3:]))
            assert cfg.kind == kind
            for field, value in params.items():
                name = _CONFIG_FIELD.get(field, field)
                holder = cfg.layout if name in layout_fields else cfg
                if field == "shape":
                    value = _CONFIG_VALUE[value]
                assert getattr(holder, name) == value, field
            covered |= set(params)
        assert covered == CampaignSpec.allowed_fields(kind)

    @pytest.mark.parametrize("kind", sorted(_ROUND_TRIP_SPECS))
    def test_every_run_flag_is_a_spec_field_or_campaign_owned(self, kind, tmp_path):
        from repro.cli import build_parser

        # A flag-emitting value for every spec field (whether they make
        # a valid run together is the run's business, not the argv's).
        emitting = {"periodic": False, "overlap": True, "checkpoint_every": 5}
        fields = CampaignSpec.allowed_fields(kind)
        params = {field: emitting.get(field, 1) for field in fields}
        run = CampaignRun("r0", 0, kind, params, {}, "key")
        emitted = {
            arg for arg in build_run_argv(run, tmp_path, resume=True)
            if arg.startswith("--")
        }
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {
            s for a in sub.choices[f"run-{kind}"]._actions
            for s in a.option_strings
        } - {"-h", "--help"}
        assert flags - emitted == _NOT_OFFERED_FLAGS
        assert emitted - flags == set()
        assert _CAMPAIGN_SET_FLAGS <= emitted
        assert len(emitted - _CAMPAIGN_SET_FLAGS) == len(fields)


# ======================================================================
# the scheduler, end to end (backend OS processes)
# ======================================================================


@fault
class TestSchedulerEndToEnd:
    def test_fresh_campaign_then_resume_is_all_cache_hits(self, tmp_path):
        spec = _spec()
        out = tmp_path / "c"
        fresh = run_campaign(spec, out_dir=out)
        assert fresh.ok
        assert fresh.counters["completed"] == 2
        assert fresh.counters["cached"] == 0
        for o in fresh.outcomes:
            run_dir = out / "runs" / o.run.run_id
            assert (run_dir / "result.json").is_file()
            assert (run_dir / "manifest.json").is_file()
            assert (run_dir / "campaign_run.json").is_file()
        manifest = json.loads((out / "campaign.json").read_text())
        assert manifest["campaign_version"] == CAMPAIGN_VERSION
        assert manifest["counters"]["completed"] == 2

        resumed = run_campaign(spec, out_dir=out, resume=True)
        assert resumed.ok
        assert resumed.counters["cached"] == 2
        assert resumed.counters["completed"] == 0
        # The campaign counters flow through the metrics registry.
        manifest = json.loads((out / "campaign.json").read_text())
        assert manifest["metrics"]["0"]["campaign.runs_cached"] == 2

    def test_without_resume_everything_recomputes(self, tmp_path):
        spec = _spec(sweep={"beta": [0.5]})
        out = tmp_path / "c"
        assert run_campaign(spec, out_dir=out).counters["completed"] == 1
        again = run_campaign(spec, out_dir=out)  # resume=False
        assert again.counters == {
            "completed": 1, "cached": 0, "failed": 0, "skipped": 0,
            "retried": 0,
        }

    def test_spec_edit_invalidates_cache_and_checkpoints(self, tmp_path):
        """Stale rejection: resume after a spec edit must recompute."""
        base = {
            "n_sites": 8, "n_slices": 4, "n_sweeps": 10, "n_thermalize": 2,
            "strategy": "strip", "ranks": 2, "checkpoint_every": 4,
        }
        out = tmp_path / "c"
        first = run_campaign(_spec(base=base, sweep={"beta": [0.5]}),
                             out_dir=out)
        assert first.ok
        run_dir = out / "runs" / first.outcomes[0].run.run_id
        assert any((run_dir / "checkpoints").glob("rank*.npz"))
        stale_key = first.outcomes[0].run.cache_key

        edited = _spec(base={**base, "n_sweeps": 14}, sweep={"beta": [0.5]})
        second = run_campaign(edited, out_dir=out, resume=True)
        assert second.ok
        assert second.counters["cached"] == 0
        assert second.counters["completed"] == 1
        # The stale artifacts (checkpoints included) were purged, not
        # resumed from: the run executed from scratch under the new key.
        assert not second.outcomes[0].resumed_from_checkpoint
        status = json.loads((run_dir / "campaign_run.json").read_text())
        assert status["cache_key"] == second.outcomes[0].run.cache_key
        assert status["cache_key"] != stale_key

    def test_interrupted_run_resumes_from_checkpoints(self, tmp_path):
        """An unfinished run with bundles restarts from them on resume."""
        base = {
            "n_sites": 8, "n_slices": 4, "n_sweeps": 10, "n_thermalize": 2,
            "strategy": "strip", "ranks": 2, "checkpoint_every": 4,
        }
        spec = _spec(base=base, sweep={"beta": [0.5]})
        out = tmp_path / "c"
        assert run_campaign(spec, out_dir=out).ok
        run_dir = out / "runs" / expand_grid(spec)[0].run_id
        # Simulate a kill that landed after checkpointing but before
        # completion: the status doc and results are gone, bundles stay.
        (run_dir / "campaign_run.json").unlink()
        (run_dir / "result.json").unlink()
        resumed = run_campaign(spec, out_dir=out, resume=True)
        assert resumed.ok
        assert resumed.counters["completed"] == 1
        assert resumed.outcomes[0].resumed_from_checkpoint
        assert (run_dir / "result.json").is_file()

    def test_config_error_fails_permanently_without_retry(self, tmp_path):
        spec = _spec(
            base={"n_sites": 6, "n_slices": 4, "n_sweeps": 10,
                  "n_thermalize": 2, "kernel": "no-such-kernel"},
            sweep={"beta": [0.5]},
            retries=2,
        )
        result = run_campaign(spec, out_dir=tmp_path / "c")
        assert not result.ok
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1, "config errors must not be retried"
        assert result.counters["retried"] == 0
        assert "exit 2" in outcome.error

    def test_fail_fast_skips_pending_runs(self, tmp_path):
        spec = _spec(
            base={"n_sites": 6, "n_slices": 4, "n_sweeps": 10,
                  "n_thermalize": 2, "kernel": "no-such-kernel"},
            sweep={"beta": [0.5, 1.0, 1.5]},
            jobs=1,
            retries=0,
            policy="fail-fast",
        )
        result = run_campaign(spec, out_dir=tmp_path / "c")
        assert not result.ok
        assert result.counters["failed"] >= 1
        assert result.counters["skipped"] >= 1
        assert result.counters["failed"] + result.counters["skipped"] == 3

    def test_retry_then_succeed_after_injected_rank_failure(self, tmp_path):
        """A CrashFault-driven RankFailure is transient: retry succeeds."""
        spec = _spec(sweep={"beta": [0.7]}, retries=2, backoff=0.01)
        injected = []

        def ring(comm, n_rounds=6):
            total = 0.0
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for _ in range(n_rounds):
                total += comm.sendrecv(float(comm.rank), dest=right,
                                       source=left)
            return total

        async def flaky(run, argv, attempt):
            if attempt == 0:
                # A genuine fault-injected SPMD run: rank 1 of a 2-rank
                # ring dies at its third comm op.  Surface the failure
                # as the structured RankFailure a surviving driver
                # raises, which the scheduler must classify as
                # transient and retry.
                plan = FaultPlan((CrashFault(rank=1, at_step=3),))
                try:
                    run_spmd(ring, 2, IDEAL, fault_plan=plan,
                             recv_timeout=5.0)
                except InjectedRankCrash as exc:
                    report = exc.run_report
                    injected.append(report)
                    raise RankFailure(
                        failed_rank=report.failed_ranks()[0],
                        detected_by=report.aborted[0].rank,
                        via="dead-rank",
                        detail=repr(exc),
                    ) from exc
                raise AssertionError("fault plan did not fire")
            async with CellServer(spec.timeout, [argv]) as server:
                return await server.execute(run, argv, attempt)

        result = run_campaign(spec, out_dir=tmp_path / "c", executor=flaky)
        assert result.ok
        outcome = result.outcomes[0]
        assert outcome.status == "completed"
        assert outcome.attempts == 2
        assert result.counters["retried"] == 1
        assert injected and injected[0].failed_ranks() == [1]

    def test_pool_width_never_enters_the_results(self, tmp_path):
        """--jobs 1 and --jobs 4 produce bit-identical result sets."""
        spec = _spec(sweep={"beta": [0.5, 1.0], "seed": [0, 1]})
        serial = run_campaign(spec, out_dir=tmp_path / "serial", jobs=1)
        wide = run_campaign(spec, out_dir=tmp_path / "wide", jobs=4)
        assert serial.ok and wide.ok
        for run in expand_grid(spec):
            a = tmp_path / "serial" / "runs" / run.run_id
            b = tmp_path / "wide" / "runs" / run.run_id
            ra = json.loads((a / "result.json").read_text())
            rb = json.loads((b / "result.json").read_text())
            assert ra["estimates"] == rb["estimates"], run.run_id
            with np.load(a / "result.npz") as na, \
                    np.load(b / "result.npz") as nb:
                for key in nb.files:
                    np.testing.assert_array_equal(na[key], nb[key])


# ======================================================================
# the cell server: one fork of the scheduler, one forked process per cell
# ======================================================================


def _proc_stat(pid) -> tuple[str, int] | None:
    """``(state, ppid)`` of a process, or None once it is gone."""
    try:
        stat = (Path("/proc") / str(pid) / "stat").read_text()
    except OSError:
        return None
    # "pid (comm) state ppid ..."; comm may itself contain ") ".
    state, ppid = stat.rpartition(") ")[2].split()[:2]
    return state, int(ppid)


def _is_alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _descendants(root: int) -> dict[int, str]:
    """Live (non-zombie) descendant processes of ``root``: pid -> cmdline."""
    stats = {int(e.name): _proc_stat(e.name)
             for e in Path("/proc").iterdir() if e.name.isdigit()}
    stats = {pid: stat for pid, stat in stats.items() if stat is not None}
    found, frontier = {}, {root}
    while frontier:
        frontier = {
            pid for pid, (_state, ppid) in stats.items() if ppid in frontier
        } - set(found)
        for pid in frontier:
            try:
                cmdline = (Path("/proc") / str(pid) / "cmdline").read_bytes()
            except OSError:
                cmdline = b""
            found[pid] = cmdline.replace(b"\0", b" ").decode(errors="replace")
    return {pid: cmd for pid, cmd in found.items() if stats[pid][0] != "Z"}


def _children(parent: int) -> set[int]:
    """Live (non-zombie) direct children of ``parent``."""
    stats = {pid: _proc_stat(pid) for pid in _descendants(parent)}
    return {pid for pid, stat in stats.items() if stat and stat[1] == parent}


def _wait_gone(pids, seconds: float = 5.0) -> set[int]:
    """The members of ``pids`` still alive after at most ``seconds``."""
    deadline = time.monotonic() + seconds
    left = set(pids)
    while left and time.monotonic() < deadline:
        left = {pid for pid in left if _is_alive(pid)}
        if left:
            time.sleep(0.02)
    return left


#: A cell that outlives any timeout used below (hours of sweeps).
_ENDLESS = {"n_sites": 6, "n_slices": 4, "n_sweeps": 10**9, "n_thermalize": 2}


def _one_cell(server_timeout: float, base: dict, tmp_path, sample=None):
    """Execute one attempt of one cell on a private server."""
    (run,) = expand_grid(_spec(base=base, sweep={"beta": [0.5]}))
    argv = build_run_argv(run, tmp_path / "run")
    (tmp_path / "run").mkdir()

    async def go():
        async with CellServer(server_timeout, [argv]) as server:
            sampler = asyncio.create_task(sample()) if sample else None
            try:
                return await server.execute(run, argv, 0)
            finally:
                if sampler is not None:
                    sampler.cancel()

    return asyncio.run(go())


@fault
class TestCellServer:
    def test_timeout_is_transient(self, tmp_path):
        """A cell past its timeout is killed, group and all, and retried."""
        before = set(_descendants(os.getpid()))
        attempt = _one_cell(0.5, _ENDLESS, tmp_path)
        assert attempt.transient is True
        assert _is_transient(attempt)
        assert "timed out" in attempt.stderr_tail
        assert attempt.wall_seconds < 5.0
        assert set(_descendants(os.getpid())) <= before

    def test_stderr_tail_captured(self, tmp_path):
        """A cell's exit code and the end of its stderr reach the attempt."""
        attempt = _one_cell(
            30.0, {**_ENDLESS, "kernel": "no-such-kernel"}, tmp_path
        )
        assert attempt.returncode == 2
        assert attempt.transient is None and not _is_transient(attempt)
        assert "no-such-kernel" in attempt.stderr_tail

    def test_stderr_tail_survives_a_replaced_caller_stderr(self, tmp_path,
                                                          monkeypatch):
        """The cell writes through fd 2, not the caller's ``sys.stderr``
        object (which pytest's capture also replaces)."""
        caller_err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", caller_err)
        attempt = _one_cell(
            30.0, {**_ENDLESS, "kernel": "no-such-kernel"}, tmp_path
        )
        assert attempt.returncode == 2
        assert "no-such-kernel" in attempt.stderr_tail
        assert caller_err.getvalue() == ""

    def test_unflushed_caller_stdout_is_written_once(self, tmp_path):
        """Text buffered in the caller's ``sys.stdout`` is neither flushed
        by the server (onto the reply pipe) nor by a cell."""
        script = tmp_path / "buffered.py"
        script.write_text(textwrap.dedent(f"""\
            import sys
            from repro import CampaignSpec, run_campaign
            sys.stdout.write("buffered before the campaign\\n")  # a pipe: no flush
            spec = CampaignSpec(
                kind="xxz", name="buffered",
                base={{"n_sites": 6, "n_slices": 4, "n_sweeps": 10,
                       "n_thermalize": 2}},
                sweep={{"beta": [0.5, 1.0]}})
            result = run_campaign(spec, out_dir={str(tmp_path / "c")!r})
            print("counters", result.counters["completed"], result.ok)
        """))
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        out = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=120, env={**env, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("buffered before the campaign") == 1, out.stdout
        assert out.stdout.count("counters 2 True") == 1, out.stdout

    def test_a_pipe_the_caller_opened_is_not_held_open(self, tmp_path):
        """Server and cells close every descriptor of the caller's but
        fd 2: a pipe's reader sees EOF while a cell is in flight."""
        (run,) = expand_grid(_spec(base=_ENDLESS, sweep={"beta": [0.5]}))
        argv = build_run_argv(run, tmp_path)
        r, w = os.pipe()

        async def go():
            async with CellServer(0, [argv]) as server:
                task = asyncio.create_task(server.execute(run, argv, 0))
                while not (server._cells
                           and next(iter(server._cells.values())).pid.done()):
                    await asyncio.sleep(0.02)
                os.close(w)
                readable, _, _ = select.select([r], [], [], 10.0)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                return readable and os.read(r, 1)

        try:
            assert asyncio.run(go()) == b""
        finally:
            os.close(r)

    def test_no_interpreter_is_started_and_provenance_is_the_callers(
            self, tmp_path, monkeypatch):
        """The server is a fork, not a new interpreter; the cells' manifests
        carry this process's git revision and environment."""
        from repro.obs.manifest import environment_info, git_revision

        def no_interpreters(*_args, **_kwargs):
            raise AssertionError("a campaign must not start an interpreter")

        monkeypatch.setattr(asyncio, "create_subprocess_exec", no_interpreters)
        spec = _spec()
        result = run_campaign(spec, out_dir=tmp_path / "c")
        assert result.ok and result.counters["completed"] == 2
        for run in expand_grid(spec):
            manifest = json.loads(
                (tmp_path / "c" / "runs" / run.run_id / "manifest.json").read_text()
            )
            assert manifest["git_revision"] == git_revision()
            assert manifest["environment"] == environment_info()

    def test_timed_out_mp_cell_leaves_no_rank_processes(self, tmp_path):
        """killpg of the cell's session takes its mp rank processes too."""
        before = set(_descendants(os.getpid()))
        most = []

        async def sample():
            while True:
                most.append(len(set(_descendants(os.getpid())) - before))
                await asyncio.sleep(0.05)

        attempt = _one_cell(
            2.0,
            {**_ENDLESS, "n_sites": 8, "strategy": "strip", "ranks": 2,
             "backend": "mp"},
            tmp_path, sample,
        )
        assert "timed out" in attempt.stderr_tail
        # server + cell + 2 ranks were alive together, so the kill had
        # a rank tree to take down.
        assert max(most) >= 4, most
        assert set(_descendants(os.getpid())) <= before

    def test_a_twice_cancelled_attempt_cannot_outlive_the_server(self, tmp_path):
        """A second cancel interrupts the wait for the kill, nothing else."""
        before = set(_descendants(os.getpid()))
        (run,) = expand_grid(_spec(base=_ENDLESS, sweep={"beta": [0.5]}))
        argv = build_run_argv(run, tmp_path)

        async def go():
            async with CellServer(0, [argv]) as server:
                task = asyncio.create_task(server.execute(run, argv, 0))
                await asyncio.sleep(1.0)  # server up, cell sweeping
                (cell,) = server._cells.values()
                task.cancel()
                await asyncio.sleep(0)  # ... now waiting for the reaped cell
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # The reply reader may still resolve the cell's futures:
                # the second cancel must not have cancelled them under it.
                assert not cell.pid.cancelled() and not cell.exited.cancelled()

        asyncio.run(go())
        assert set(_descendants(os.getpid())) <= before

    def test_cell_matches_the_recorded_argv_run_by_hand(self, tmp_path):
        """``campaign_run.json``'s argv reproduces the cell's result files."""
        spec = _spec(sweep={"beta": [0.5]})
        assert run_campaign(spec, out_dir=tmp_path / "c").ok
        run_dir = tmp_path / "c" / "runs" / expand_grid(spec)[0].run_id
        status = json.loads((run_dir / "campaign_run.json").read_text())
        assert status["argv"][:4] == [sys.executable, "-m", "repro", "run-xxz"]
        npz = (run_dir / "result.npz").read_bytes()
        doc = json.loads((run_dir / "result.json").read_text())
        src = str(Path(__file__).resolve().parents[2] / "src")
        subprocess.run(status["argv"], check=True,
                       env={**os.environ, "PYTHONPATH": src})
        assert (run_dir / "result.npz").read_bytes() == npz
        by_hand = json.loads((run_dir / "result.json").read_text())
        # result.json carries the run's own wall clock -- the runtime's and
        # rank 0's sweep counters'; nothing else may move.
        for d in (doc, by_hand):
            del d["runtime"]["wall_seconds"], d["runtime"]["sweeps_per_second"]
            rank0 = d["rank_summaries"]["0"]
            for name in [n for n in rank0 if n.startswith("sweep.kernel_seconds.")]:
                del rank0[name]
            del rank0["sweep.wall_seconds"]
        assert by_hand == doc

    def test_unguarded_script_can_run_a_campaign(self, tmp_path):
        """No ``if __name__ == "__main__"`` guard is needed around
        ``run_campaign`` (cells never re-import the caller's main module,
        which is what the stdlib forkserver would do)."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent(f"""\
            from repro import CampaignSpec, run_campaign
            spec = CampaignSpec(
                kind="xxz", name="unguarded",
                base={{"n_sites": 6, "n_slices": 4, "n_sweeps": 10,
                       "n_thermalize": 2}},
                sweep={{"beta": [0.5, 1.0]}})
            result = run_campaign(spec, out_dir={str(tmp_path / "c")!r})
            print("counters", result.counters["completed"], result.ok)
        """))
        src = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("counters 2 True") == 1, out.stdout


@fault
class TestServerLifecycle:
    """Whatever way ``run_campaign`` ends, nothing it started survives it."""

    @pytest.fixture(autouse=True)
    def _no_process_or_fd_survives(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        before = set(_descendants(os.getpid()))
        fds = len(os.listdir("/proc/self/fd"))
        yield
        assert set(_descendants(os.getpid())) <= before
        assert len(os.listdir("/proc/self/fd")) == fds
        assert list((tmp_path / "tmp").iterdir()) == []  # the stderr files

    def test_after_a_completed_campaign_and_a_cached_one(self, tmp_path):
        spec = _spec(base={**_spec().base, "beta": 0.5, "n_sweeps": 2,
                           "n_thermalize": 0},
                     sweep={"seed": list(range(50))})
        fresh = run_campaign(spec, out_dir=tmp_path / "c")
        assert fresh.ok and fresh.counters["completed"] == 50
        assert fresh.aggregate["server_start_seconds"] > 0
        manifest = json.loads((tmp_path / "c" / "campaign.json").read_text())
        assert manifest["aggregate"]["server_start_seconds"] > 0
        # An all-cache-hit resume needs no server and starts none.
        resumed = run_campaign(spec, out_dir=tmp_path / "c", resume=True)
        assert resumed.counters["cached"] == 50
        assert resumed.aggregate["server_start_seconds"] == 0.0

    def test_after_a_failed_cell(self, tmp_path):
        spec = _spec(base={**_spec().base, "kernel": "no-such-kernel"})
        assert run_campaign(spec, out_dir=tmp_path / "c").counters["failed"] == 2

    def test_after_a_timeout(self, tmp_path):
        spec = _spec(base=_ENDLESS, timeout=0.5, retries=1)
        result = run_campaign(spec, out_dir=tmp_path / "c")
        assert result.counters == {
            "completed": 0, "cached": 0, "failed": 2, "skipped": 0,
            "retried": 2,
        }
        assert "timed out" in result.outcomes[0].error

    def test_after_a_fail_fast_abort(self, tmp_path):
        spec = _spec(base={**_spec().base, "kernel": "no-such-kernel"},
                     sweep={"beta": [0.5, 1.0, 1.5]}, jobs=1,
                     policy="fail-fast")
        result = run_campaign(spec, out_dir=tmp_path / "c")
        assert result.counters["failed"] == 1
        assert result.counters["skipped"] == 2

    def test_after_a_keyboard_interrupt(self, tmp_path):
        spec = _spec(base=_ENDLESS)
        timer = threading.Timer(1.5, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            result = run_campaign(spec, out_dir=tmp_path / "c")
        except KeyboardInterrupt:  # Python 3.10: asyncio.run re-raises it
            pass
        else:
            assert result.interrupted and not result.ok
        finally:
            timer.cancel()

    def test_a_dead_server_is_a_transient_failure(self, tmp_path):
        """SIGKILL the server mid-campaign: its cells are killed, their
        attempts retried on a new server, and nothing hangs."""
        # ~1 s cells: long enough to be caught mid-flight.
        base = {**_spec().base, "beta": 0.5, "n_sweeps": 4000}
        spec = _spec(base=base, sweep={"seed": [0, 1]}, retries=2)
        me, orphans = os.getpid(), set()

        def kill_server_once_cells_run():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                # Server and cells are forks of this process, command line
                # and all: the server is the child of ours whose children
                # are the cells.
                for server in _children(me):
                    cells = _descendants(server)
                    if cells:
                        orphans.update(cells)
                        os.kill(server, signal.SIGKILL)
                        return
                time.sleep(0.02)

        killer = threading.Thread(target=kill_server_once_cells_run)
        killer.start()
        result = run_campaign(spec, out_dir=tmp_path / "c")
        killer.join(timeout=30)
        assert not killer.is_alive()
        assert orphans, "the server was never caught with a cell in flight"
        assert result.ok and result.counters["completed"] == 2
        assert result.counters["retried"] >= 1
        assert _wait_gone(orphans) == set()
