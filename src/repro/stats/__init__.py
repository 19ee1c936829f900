"""Statistical error analysis and histogram reweighting.

Every Monte Carlo result in this repository is reported with an error
bar produced by the routines here:

* :mod:`repro.stats.binning` -- blocking/binning analysis for correlated
  time series (the workhorse error estimator).
* :mod:`repro.stats.jackknife` -- jackknife resampling for nonlinear
  derived quantities (specific heat, susceptibilities, ratios).
* :mod:`repro.stats.autocorr` -- autocorrelation function and integrated
  autocorrelation time.
* :mod:`repro.stats.finite_size` -- Binder cumulant, susceptibility and
  U4 crossings.
* :mod:`repro.stats.histogram` -- energy histograms on a shared grid.
* :mod:`repro.stats.wham` -- multiple-histogram reweighting
  (Ferrenberg--Swendsen / WHAM) combining runs at several temperatures
  into one density-of-states estimate, in log-space.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "autocorrelation_function": "repro.stats.autocorr",
    "integrated_autocorr_time": "repro.stats.autocorr",
    "BinderCurve": "repro.stats.finite_size",
    "binder_cumulant": "repro.stats.finite_size",
    "crossing_temperature": "repro.stats.finite_size",
    "susceptibility": "repro.stats.finite_size",
    "BinningAnalysis": "repro.stats.binning",
    "binned_error": "repro.stats.binning",
    "binning_levels": "repro.stats.binning",
    "EnergyHistogram": "repro.stats.histogram",
    "jackknife": "repro.stats.jackknife",
    "jackknife_blocks": "repro.stats.jackknife",
    "jackknife_ratio": "repro.stats.jackknife",
    "WhamResult": "repro.stats.wham",
    "multi_histogram_reweight": "repro.stats.wham",
})

# ``jackknife`` names a function and the module defining it.  Bound here
# first, the name keeps the function: a later import of the module finds
# it loaded and rebinds nothing.
from repro.stats.jackknife import jackknife  # noqa: E402
