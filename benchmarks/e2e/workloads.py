"""The four workloads: parameters, pinned references, and why each exists.

Standard library only -- the parent process (``run.py``) imports this
module and never imports numpy or ``repro``; the rep child
(``child.py``) turns these plain dicts into run configurations.

Every workload has three sizes: ``full`` (what ``BENCHMARK.json``
measures), ``gate`` (a lattice small enough for an exact reference,
run once per measurement through the *same* layout/backend/kernel) and
``smoke`` (seconds; used by ``test_e2e_smoke.py``).
"""

from __future__ import annotations

#: Target standard error of ``energy_per_site`` for ``time_to_target_s``.
TARGET_STDERR = 2e-3

#: Acceptance window of every physics check, in combined error bars.
N_SIGMA = 4.5

#: Wall-clock cap of one child interpreter; a child still running at
#: the cap is killed (whole process group) and counted as failed.
CHILD_CAP_S = 120.0

#: Seconds the host-speed probe (``child.host_speed_probe``) takes on the
#: builder's host in its usual state.  Every timing is divided by (the
#: rep's own probe / this), i.e. reported in seconds of a host running
#: at its usual speed.
HOST_PROBE_NOMINAL_S = 0.22

_XXZ_FULL = {"n_sites": 64, "beta": 1.0, "n_slices": 16}
_XXZ_EXACT = {"n_sites": 8, "beta": 0.5, "n_slices": 8}
_TFIM_FULL = {"spatial_shape": [64], "beta": 2.0, "gamma": 1.0, "n_slices": 64}
_TFIM_SMOKE = {"spatial_shape": [8], "beta": 1.0, "gamma": 1.0, "n_slices": 16}

WORKLOADS: dict[str, dict] = {
    "xxz_serial": {
        "why": "Serial XXZ chain: kernels and sampler do nearly all the work, no "
        "driver, comm or campaign. A kernel or sampler change must show "
        "here; a comm change must not.",
        "kind": "xxz",
        "layout": None,
        # CPUs a rep is given: 1 pins the rep child to one CPU.
        "cpus": 1,
        "busy_processes": 1,
        # Binning block of the variance estimate (2-3 tau_int, hundreds of
        # blocks per run) and the pinned ratio of the binning plateau to
        # that rung on the seed implementation (see PINNED_VARIANCES).
        "variance_block": 8,
        "variance_block_factor": 2.10,
        "sizes": {
            "full": {"params": {**_XXZ_FULL, "n_sweeps": 1280, "n_thermalize": 128}},
            "gate": {"params": {**_XXZ_EXACT, "n_sweeps": 1024, "n_thermalize": 128}},
            "smoke": {"params": {**_XXZ_EXACT, "n_sweeps": 256, "n_thermalize": 32}},
        },
    },
    "xxz_strip_mp2": {
        "why": "Same chain through the strip driver on two OS processes: halo "
        "latency and launch dominate, kernels are almost nothing. A "
        "halo-fabric or overlap gain must show here; a kernel gain must "
        "not.",
        "kind": "xxz",
        "layout": {"strategy": "strip", "n_ranks": 2, "backend": "mp"},
        # Both ranks share one CPU on purpose: unpinned, every halo
        # message is a cross-CPU wake-up whose latency on a 2-vCPU guest
        # doubles for seconds at a time (run-to-run spread 0.22-0.30).
        # Serialised, the workload measures the software cost of the
        # real-process comm path, not parallel speed-up.
        "cpus": 1,
        "busy_processes": 2,
        "variance_block": 8,
        "variance_block_factor": 2.10,
        # seed_distinct is warn-only here: see known_defects in baseline.json.
        "seed_distinct_warn_only": True,
        "sizes": {
            "full": {
                "params": {**_XXZ_FULL, "n_sweeps": 224, "n_thermalize": 16},
                "long_sweeps": 768,
            },
            "gate": {
                "params": {**_XXZ_EXACT, "n_sweeps": 256, "n_thermalize": 32},
                "long_sweeps": 256,
            },
            "smoke": {
                "params": {**_XXZ_EXACT, "n_sweeps": 128, "n_thermalize": 16},
                "long_sweeps": 256,
            },
        },
    },
    "tfim_block_thread2": {
        "why": "Critical TFIM through the block driver on cooperative threads: the "
        "same driver/comm layers used differently, at the largest tau_int. "
        "Shows an mp gain that costs threads, and any cluster update.",
        "kind": "tfim",
        "layout": {"strategy": "block", "n_ranks": 2, "backend": "thread"},
        "cpus": 1,
        "busy_processes": 1,
        "variance_block": 32,
        "variance_block_factor": 2.19,
        "sizes": {
            "full": {
                # 256 thermalization sweeps: the cold start relaxes slowly
                # at the critical point (64 left a 5 sigma bias).
                "params": {**_TFIM_FULL, "n_sweeps": 1024, "n_thermalize": 256},
                "long_sweeps": 4096,
            },
            "smoke": {
                "params": {**_TFIM_SMOKE, "n_sweeps": 128, "n_thermalize": 16},
                "long_sweeps": 512,
            },
        },
    },
    "campaign_xxz_seeds": {
        "why": "Eight short XXZ cells as OS processes, then a resumed leg of cache "
        "hits: spawn, import and artifact flush are half of each cell, so "
        "campaign and runner fixed costs dominate, not the sweep loop.",
        "kind": "campaign",
        "layout": None,
        "cpus": 2,
        "busy_processes": 2,
        # The cells are too short and too small to estimate their own
        # variance: on the 8-site ring the energy estimator is heavy-tailed
        # and a rep's estimate scatters by a third.  time_to_target_s uses
        # the pinned variance per measured sweep instead (PINNED_VARIANCES),
        # so on this workload it follows wall_s; a change in the sampler's
        # statistics shows on xxz_serial.
        "variance_block": None,
        "sizes": {
            "full": {
                "params": {**_XXZ_EXACT, "n_sweeps": 100, "n_thermalize": 28},
                "cells": 8,
                "jobs": 2,
            },
            "smoke": {
                "params": {**_XXZ_EXACT, "n_sweeps": 64, "n_thermalize": 16},
                "cells": 2,
                "jobs": 2,
            },
        },
    },
}

#: Lattices the layer probes of a traced run are taken on.
PROBE_LATTICES = {
    "full": {"xxz": _XXZ_FULL, "tfim": _TFIM_FULL, "campaign_cells": 2},
    "smoke": {"xxz": _XXZ_EXACT, "tfim": _TFIM_SMOKE, "campaign_cells": 2},
}

#: References no exact method reaches, keyed ``kind:n_sites:beta:n_slices``.
#: Produced once by the builder (see ``provenance``); chains small enough
#: for :func:`repro.models.trotter_ref.trotter_reference_energy` and the
#: TFIM (free fermions) are computed exactly by the child instead.
PINNED_REFERENCES = {
    "xxz:64:1.0:16": {
        "value": -0.205267,
        "error": 0.000299,
        "provenance": "mean and standard error over 40 independent strip-P=1 "
        "thread-backend chains (WorldlineStripConfig sweep_seed 1000..1039, "
        "numpy kernel), 8192 measured sweeps each after 256 thermalization "
        "sweeps = 327680 pooled sweeps, at commit 50c8270; tau_int 3.3",
    },
}


#: Asymptotic variance of ``energy_per_site`` per measured sweep (the
#: binning plateau), keyed like the references.  Three uses: the floor
#: of every check's error bar (a chain that happens to sit still
#: under-estimates its own), the ``variance_block_factor`` of a workload
#: (plateau / pinned rung), and the variance of the campaign's cells.
PINNED_VARIANCES = {
    "xxz:64:1.0:16": {
        "value": 0.031,
        "provenance": "the 40 reference chains of PINNED_REFERENCES: blocks of "
        "128 and 256 sweeps give 0.0305(9) and 0.0311(12); blocks of 8 give "
        "0.01477(10), hence variance_block_factor 2.10",
    },
    "tfim:64:2.0:64": {
        "value": 0.117,
        "provenance": "scatter of the means of 200 block-P=1 thread-backend "
        "chains (seeds 1000*s+7), 4096 measured sweeps each after 256 "
        "thermalization sweeps, at commit 50c8270; the ladder is still rising "
        "at blocks of 512 (0.102): the critical slow mode.  Blocks of 32 give "
        "0.0532(5), hence variance_block_factor 2.19",
    },
    "xxz:8:0.5:8": {
        "value": 0.148,
        "provenance": "binning plateau (blocks of 64 to 512 sweeps agree, "
        "+-0.007) over two serial WorldlineChainQmc chains, seeds 101 and 102, "
        "30000 measured sweeps each after 200 thermalization sweeps, numpy "
        "kernel, at commit 50c8270; their pooled mean -0.10020 is 1.4 sigma "
        "from the exact -0.10236",
    },
}

#: Defects of the code under test that this benchmark exposed and records
#: instead of working around; echoed into every result document.
KNOWN_DEFECTS = [
    {
        "id": "strip-seed-ignored",
        "where": "repro.run.simulation.Simulation._run_xxz",
        "what": "cfg.seed is never passed on as WorldlineStripConfig.sweep_seed "
        "(the TFIM block path does pass it), so XXZRunConfig(seed=0, 1, 2) on a "
        "strip layout returns the identical series",
        "effect": "seed_distinct is warn-only on xxz_strip_mp2; its "
        "time_to_target_s does not vary with the seed",
    },
]


def lattice_key(kind: str, params: dict) -> str:
    """Key of a lattice in PINNED_REFERENCES / PINNED_VARIANCES."""
    if kind == "tfim":
        n_sites = params["spatial_shape"][0]
    else:
        kind, n_sites = "xxz", params["n_sites"]
    return f"{kind}:{n_sites}:{params['beta']}:{params['n_slices']}"


def rep_seed(seed: int, rep: int) -> int:
    """Chain seed of rep ``rep`` of a measurement started with ``--seed``.

    Neighbouring ``--seed`` values share no chain (the campaign consumes
    ``cells`` consecutive seeds per rep, hence the stride of 16).
    """
    return 1000 * seed + 16 * rep
