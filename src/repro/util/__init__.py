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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "mean_circular_correlation": "repro.util.correlation",
    "log_add": "repro.util.logspace",
    "log_diff": "repro.util.logspace",
    "log_mean": "repro.util.logspace",
    "log_sub": "repro.util.logspace",
    "log_sum": "repro.util.logspace",
    "logsumexp": "repro.util.logspace",
    "normalize_log_weights": "repro.util.logspace",
    "RankStream": "repro.util.rng",
    "SeedSequenceFactory": "repro.util.rng",
    "spawn_streams": "repro.util.rng",
    "Series": "repro.util.tables",
    "Table": "repro.util.tables",
    "format_float": "repro.util.tables",
    "render_series": "repro.util.tables",
    "ModelClock": "repro.util.timer",
})
