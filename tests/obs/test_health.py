"""The run-health engine: rules, monitor semantics, and determinism.

Four layers of guarantees, in increasing scope:

* :class:`HealthRules` is a validated, JSON-round-trippable document;
* :class:`HealthMonitor` emits transition events (enter-violation,
  recovered) deterministically from the values it is fed;
* the event JSONL sink round-trips with schema enforcement, and the
  Chrome trace grows ``ph: "i"`` instant markers for each event;
* a seeded run of 2 replicas in each of 2 strip ranks with an injected
  acceptance-rate fault reproduces a **golden** event stream bit for
  bit, while the health engine never perturbs the trajectory or a
  series (P = 1, 2, 4; thread and mp backends).
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.obs.events import (
    health_instant_events,
    read_events_jsonl,
    sort_events,
    validate_event,
    write_events_jsonl,
)
from repro.obs.health import (
    HealthEvent,
    HealthMonitor,
    HealthRules,
    load_health_rules,
)
from repro.obs.metrics import NOOP_HEALTH
from repro.qmc.parallel import (
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.vmp.machines import PARAGON
from repro.vmp.scheduler import run_spmd

GOLDEN_EVENTS = Path(__file__).parent / "data" / "golden_health_events.jsonl"

BACKENDS = ["thread", pytest.param("mp", marks=pytest.mark.tier1_fault)]


def _strip_cfg(n_sweeps=40):
    return WorldlineStripConfig(
        n_sites=16, jz=1.0, jxy=0.8, beta=0.9, n_slices=8,
        n_sweeps=n_sweeps, n_thermalize=5, sweep_seed=7,
    )


def _faulty_two_level():
    """2 replicas stacked in each of 2 strip ranks with an impossible
    acceptance band.

    Checkerboard world-line acceptance sits far below 90%, so the band
    ``(0.9, 1.0)`` is a deterministic injected fault: every windowed
    check trips the acceptance rule on every rank and replica.  The
    comm-fraction ceiling is lowered as well, so the stream keeps that
    rule's events: a rank sweeping both replicas spends 0.29 of its
    modeled time communicating (a replica on ranks of its own spent
    0.66, and 0.97, over the default 0.95 ceiling, before the halo
    schedule).
    """
    cfg = dataclasses.replace(_strip_cfg(n_sweeps=20), replicas=2)
    rules = HealthRules(interval=5, acceptance_band=(0.9, 1.0), rhat_max=1.05,
                        comm_fraction_max=0.2)
    return cfg, rules


def _run_faulty(backend="thread"):
    cfg, rules = _faulty_two_level()
    # Phase spans need the thread backend's in-process clock observers.
    return run_spmd(
        worldline_strip_program, 2, machine=PARAGON, seed=42,
        args=(cfg, None, rules), backend=backend,
        spans=(backend == "thread"),
    )


# ======================================================================
# rules document
# ======================================================================


class TestHealthRules:
    def test_defaults_round_trip(self):
        rules = HealthRules()
        assert HealthRules.from_doc(rules.to_doc()) == rules

    def test_json_file_round_trip(self, tmp_path):
        rules = HealthRules(interval=25, acceptance_band=(0.1, 0.6),
                            rhat_max=1.1, comm_fraction_max=0.5)
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules.to_doc()))
        assert load_health_rules(path) == rules

    def test_partial_document_fills_defaults(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"rhat_max": 1.5}')
        rules = load_health_rules(path)
        assert rules.rhat_max == 1.5
        assert rules.interval == HealthRules().interval

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            HealthRules.from_doc({"no_such_rule": 1})

    @pytest.mark.parametrize("kw", [
        {"interval": 0},
        {"acceptance_band": (0.9, 0.1)},
        {"acceptance_band": (-0.1, 0.5)},
        {"rhat_max": 0.5},
        {"comm_fraction_max": 2.0},
        {"acceptance_min_attempts": 0},
    ])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            HealthRules(**kw)


# ======================================================================
# monitor semantics
# ======================================================================


class TestHealthMonitor:
    def test_acceptance_transition_and_recovery(self):
        mon = HealthMonitor(HealthRules(acceptance_band=(0.2, 0.8)))
        mon.check(10, attempted=100, accepted=50)      # in band
        mon.check(20, attempted=200, accepted=55)      # window rate 5%
        mon.check(30, attempted=300, accepted=60)      # still bad: no repeat
        mon.check(40, attempted=400, accepted=110)     # window rate 50%
        events = [HealthEvent.from_doc(d) for d in mon.event_docs()]
        rules = [(e.rule, e.severity, e.sweep) for e in events]
        assert rules == [
            ("acceptance", "warning", 20),
            ("acceptance", "info", 40),  # recovery
        ]

    def test_stall_is_critical(self):
        mon = HealthMonitor(HealthRules())
        mon.check(10, attempted=100, accepted=10)
        mon.check(20, attempted=100, accepted=10)  # no moves attempted
        (event,) = mon.event_docs()
        assert event["rule"] == "stall" and event["severity"] == "critical"
        assert not mon.summary()["healthy"]

    def test_nan_fires_once_per_observable(self):
        mon = HealthMonitor(HealthRules(), rank=3)
        mon.observe("energy", 1.0, 1)
        mon.observe("energy", math.nan, 2)
        mon.observe("energy", math.inf, 3)
        mon.observe("magnetization", math.nan, 3)
        events = mon.event_docs()
        assert [(e["rule"], e["sweep"], e["rank"]) for e in events] == [
            ("nan:energy", 2, 3), ("nan:magnetization", 3, 3),
        ]
        assert all(e["severity"] == "critical" for e in events)
        # The poisoned values never reach the estimators.
        assert mon.summary()["observables"]["energy"]["count"] == 1

    def test_comm_fraction_rule(self):
        mon = HealthMonitor(HealthRules(comm_fraction_max=0.5))
        mon.check(10, attempted=10, accepted=5, model_seconds=1.0,
                  comm_seconds=0.8)
        (event,) = mon.event_docs()
        assert event["rule"] == "comm_fraction"
        assert event["severity"] == "warning"

    def test_rhat_transition(self):
        mon = HealthMonitor(HealthRules(rhat_max=1.2), replica=1)
        mon.observe_rhat("energy", 1.5, 10)
        mon.observe_rhat("energy", 1.4, 20)  # still bad: silent
        mon.observe_rhat("energy", 1.01, 30)
        events = mon.event_docs()
        assert [(e["rule"], e["severity"]) for e in events] == [
            ("rhat:energy", "warning"), ("rhat:energy", "info"),
        ]
        assert all(e["replica"] == 1 for e in events)
        assert mon.summary()["rhat"]["energy"] == 1.01

    def test_healthy_run_is_quiet(self):
        mon = HealthMonitor(HealthRules())
        for s in range(10, 100, 10):
            mon.observe("energy", -1.0 + 0.01 * s, s)
            mon.check(s, attempted=10 * s, accepted=5 * s)
        assert mon.event_docs() == []
        assert mon.summary()["healthy"]

    def test_noop_monitor_is_inert(self):
        assert not NOOP_HEALTH.enabled
        NOOP_HEALTH.observe("energy", math.nan, 1)
        NOOP_HEALTH.observe_rhat("energy", 9.0, 1)
        NOOP_HEALTH.check(1, attempted=0, accepted=0)
        assert NOOP_HEALTH.event_docs() == []


# ======================================================================
# event sink + trace instants
# ======================================================================


class TestEventSink:
    def test_jsonl_round_trip(self, tmp_path):
        mon = HealthMonitor(HealthRules(), rank=1)
        mon.observe("energy", math.nan, 4)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path, mon.event_docs())
        assert read_events_jsonl(path) == mon.event_docs()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"kind": "schema", "schema": "repro.health.events",
                          "version": 1}

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "schema", "schema": "repro.health.events", '
                        '"version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            read_events_jsonl(path)

    def test_validate_event_rejects_malformed(self):
        good = HealthEvent("stall", "critical", 3, 0, "x").to_doc()
        validate_event(good)
        for key in ("rule", "severity", "sweep", "rank", "message"):
            bad = dict(good)
            del bad[key]
            with pytest.raises(ValueError):
                validate_event(bad)
        with pytest.raises(ValueError):
            validate_event({**good, "severity": "fatal"})

    def test_sort_events_is_deterministic(self):
        docs = [
            HealthEvent("b", "info", 5, 1, "x").to_doc(),
            HealthEvent("a", "info", 5, 1, "x").to_doc(),
            HealthEvent("z", "info", 1, 0, "x").to_doc(),
        ]
        ordered = sort_events(docs)
        assert [(e["sweep"], e["rank"], e["rule"]) for e in ordered] == [
            (1, 0, "z"), (5, 1, "a"), (5, 1, "b"),
        ]

    def test_instant_events_schema(self):
        event = HealthEvent("acceptance", "warning", 10, 2, "low",
                            replica=1, t_model=0.5)
        (inst,) = health_instant_events([event.to_doc()])
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert inst["tid"] == 2 and inst["ts"] == 500000.0
        assert inst["cat"] == "health"
        assert inst["args"]["sweep"] == 10


# ======================================================================
# the golden fault run: deterministic end-to-end event stream
# ======================================================================


class TestGoldenFaultRun:
    def test_event_stream_matches_golden(self, tmp_path):
        """Injected acceptance fault reproduces the committed stream.

        Regenerate (after an intentional change) with::

            PYTHONPATH=src python -c "from tests.obs.test_health import \
regenerate_golden; regenerate_golden()"
        """
        result = _run_faulty()
        events = result.health_events()
        assert events, "fault injection produced no events"
        # Both replicas trip the acceptance rule on every rank.
        accept = [e for e in events if e["rule"] == "acceptance"]
        assert {(e["rank"], e.get("replica")) for e in accept} == {
            (0, 0), (0, 1), (1, 0), (1, 1)}
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path, events)
        assert path.read_text() == GOLDEN_EVENTS.read_text()

    @pytest.mark.parametrize("backend",
                             [pytest.param("mp", marks=pytest.mark.tier1_fault)])
    def test_event_stream_backend_invariant(self, backend):
        assert _run_faulty(backend).health_events() == \
            _run_faulty("thread").health_events()

    def test_events_visible_in_chrome_trace(self, tmp_path):
        result = _run_faulty()
        doc = json.loads(result.write_chrome_trace(
            tmp_path / "trace.json").read_text())
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == len(result.health_events())
        assert {e["cat"] for e in instants} == {"health"}
        assert {e["s"] for e in instants} == {"t"}


def regenerate_golden() -> None:
    write_events_jsonl(GOLDEN_EVENTS, _run_faulty().health_events())
    print(f"wrote {GOLDEN_EVENTS}")


# ======================================================================
# the identity guarantee: health never perturbs the physics
# ======================================================================


@pytest.mark.parametrize("backend", BACKENDS)
class TestHealthBitIdentity:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_strip_trajectory_unchanged(self, backend, n_ranks):
        cfg = _strip_cfg()
        ref = run_spmd(worldline_strip_program, n_ranks, machine=PARAGON,
                       seed=11, args=(cfg,), backend=backend)
        got = run_spmd(worldline_strip_program, n_ranks, machine=PARAGON,
                       seed=11, args=(cfg, None, HealthRules(interval=5)),
                       backend=backend)
        for rv, gv in zip(ref.values, got.values):
            assert np.array_equal(rv["energy"], gv["energy"])
            assert np.array_equal(rv["magnetization"], gv["magnetization"])
            assert "health_summary" in gv and "health_summary" not in rv
        # The modeled makespan is NOT asserted equal here: a health check
        # pulls the pending measurement reduction forward, which is real
        # modeled traffic.  The physics trajectory above is the identity
        # guarantee.
        assert got.elapsed_model_time >= ref.elapsed_model_time

    def test_two_level_trajectory_unchanged(self, backend):
        cfg = dataclasses.replace(_strip_cfg(n_sweeps=10), replicas=2)
        ref = run_spmd(worldline_strip_program, 2, machine=PARAGON,
                       seed=11, args=(cfg,), backend=backend)
        got = run_spmd(worldline_strip_program, 2, machine=PARAGON,
                       seed=11, args=(cfg, None, HealthRules(interval=3)),
                       backend=backend)
        for rv, gv in zip(ref.values, got.values):
            assert np.array_equal(rv["energy"], gv["energy"])
            assert len(gv["health_summary"]) == 2  # a monitor a replica
        # The R-hat is computed in the rank and sends nothing; a check
        # only pulls the pending reduction forward, which is real
        # modeled traffic.  The physics trajectory above is the identity
        # guarantee.
        assert got.elapsed_model_time >= ref.elapsed_model_time
        assert "rhat" in got.values[0]["health_summary"][0]


class TestBlockDriverHealth:
    def test_block_program_emits_and_preserves(self):
        from repro.qmc.parallel import IsingBlockConfig

        cfg = IsingBlockConfig(lx=8, ly=8, lt=4, kx=0.3, ky=0.3, kt=0.3,
                               n_sweeps=20, n_thermalize=2, sweep_seed=5)
        ref = run_spmd(ising_block_program, 2, machine=PARAGON, seed=9,
                       args=(cfg,))
        got = run_spmd(ising_block_program, 2, machine=PARAGON, seed=9,
                       args=(cfg, None, HealthRules(interval=5)))
        for rv, gv in zip(ref.values, got.values):
            assert np.array_equal(rv["magnetization"], gv["magnetization"])
            assert np.array_equal(rv["bond_sums"], gv["bond_sums"])
            assert np.array_equal(rv["block"], gv["block"])
            assert "health_summary" in gv
        # As above: each check reduces what is pending, so not ``==``.
        assert got.elapsed_model_time >= ref.elapsed_model_time
