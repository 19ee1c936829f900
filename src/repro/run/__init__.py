"""High-level orchestration: configs, the Simulation facade, result I/O."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "CampaignResult": "repro.run.campaign",
    "CampaignSpec": "repro.run.campaign",
    "expand_grid": "repro.run.campaign",
    "load_campaign_spec": "repro.run.campaign",
    "run_campaign": "repro.run.campaign",
    "ParallelLayout": "repro.run.config",
    "TfimRunConfig": "repro.run.config",
    "XXZ2DRunConfig": "repro.run.config",
    "XXZRunConfig": "repro.run.config",
    "ObservableEstimate": "repro.run.results",
    "RunResult": "repro.run.results",
    "load_result": "repro.run.results",
    "save_result": "repro.run.results",
    "Simulation": "repro.run.simulation",
})
