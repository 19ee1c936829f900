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

from repro.stats.autocorr import autocorrelation_function, integrated_autocorr_time
from repro.stats.binning import BinningAnalysis, binned_error, binning_levels
from repro.stats.finite_size import (
    BinderCurve,
    binder_cumulant,
    crossing_temperature,
    susceptibility,
)
from repro.stats.histogram import EnergyHistogram
from repro.stats.jackknife import jackknife, jackknife_blocks, jackknife_ratio
from repro.stats.wham import WhamResult, multi_histogram_reweight

__all__ = [
    "autocorrelation_function",
    "integrated_autocorr_time",
    "BinderCurve",
    "binder_cumulant",
    "crossing_temperature",
    "susceptibility",
    "BinningAnalysis",
    "binned_error",
    "binning_levels",
    "EnergyHistogram",
    "jackknife",
    "jackknife_blocks",
    "jackknife_ratio",
    "WhamResult",
    "multi_histogram_reweight",
]
