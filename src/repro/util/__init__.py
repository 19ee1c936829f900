"""Low-level utilities shared by every other subpackage.

This subpackage is dependency-free (NumPy only) and provides:

* :mod:`repro.util.logspace` -- overflow-safe arithmetic on quantities
  stored as logarithms (densities of states, partition functions).
* :mod:`repro.util.rng` -- reproducible, collision-free random-number
  streams for SPMD rank programs and replica threads.
* :mod:`repro.util.timer` -- the per-rank clock of *modeled* time the
  virtual machine charges, and its compute / comm / wait categories.
* :mod:`repro.util.tables` -- plain-text table / data-series rendering
  used by the benchmark harness to print paper-style tables and figures.
* :mod:`repro.util.correlation` -- FFT fast paths for the circular
  correlation functions measured by the samplers.
"""

from repro.util.correlation import mean_circular_correlation
from repro.util.logspace import (
    log_add,
    log_diff,
    log_mean,
    log_sub,
    log_sum,
    logsumexp,
    normalize_log_weights,
)
from repro.util.rng import RankStream, SeedSequenceFactory, spawn_streams
from repro.util.tables import Series, Table, format_float, render_series
from repro.util.timer import ModelClock

__all__ = [
    "mean_circular_correlation",
    "log_add",
    "log_diff",
    "log_mean",
    "log_sub",
    "log_sum",
    "logsumexp",
    "normalize_log_weights",
    "RankStream",
    "SeedSequenceFactory",
    "spawn_streams",
    "Series",
    "Table",
    "format_float",
    "render_series",
    "ModelClock",
]
