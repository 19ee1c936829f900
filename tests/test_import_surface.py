"""What a run imports, and the lazy package API that keeps it small.

Every process pays for its imports before its first sweep, so the
sampling commands must not load the exact references, the report
renderer or the campaign scheduler, and a serial run none of the
layouts it does not run (DESIGN.md, "Import surface").  A campaign's
cell server imports what its cells run before it forks them, so a cell
imports nothing of its own.  The first half runs real commands in fresh
interpreters and inspects ``sys.modules`` afterwards; the second half
pins the contract of the lazily exporting packages.
"""

import importlib
import importlib.util
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Nothing a sampling run touches lives in these.
FORBIDDEN = (
    "scipy.sparse", "scipy.linalg", "scipy.special", "asyncio",
    "repro.models.ed", "repro.obs.report", "repro.run.campaign",
)

#: Nor does a serial chain run: the other layouts and kinds, their
#: drivers, checkpoints and health checks; the message-passing machine
#: (its chain runs alone, with no fabric, launcher or transport); and
#: what only figures and info commands use.
SERIAL_FORBIDDEN = (
    "repro.qmc.parallel", "repro.qmc.tfim", "repro.qmc.worldline2d",
    "repro.lattice.decomposition", "repro.obs.health", "repro.run.checkpoint",
    "repro.vmp.process_backend", "repro.vmp.comm", "repro.vmp.scheduler",
    "repro.vmp.mpi_backend", "repro.vmp.collectives", "repro.vmp.trace",
    "repro.vmp.performance", "repro.stats.wham", "repro.stats.histogram",
    "repro.util.logspace", "repro.util.tables", "scipy",
)

LAZY_PACKAGES = ("repro", "repro.run", "repro.models", "repro.qmc", "repro.obs",
                 "repro.lattice", "repro.vmp", "repro.stats", "repro.util")

RUN = ["--beta", "1.0", "--slices", "8", "--sweeps", "20", "--thermalize", "4",
       "--quiet"]


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that sees only ``src``; its stdout.

    The child keeps the parent's ``PYTHONDONTWRITEBYTECODE``, so a test
    run leaves no ``__pycache__`` in ``src`` where the parent writes none.
    """
    env = {"PYTHONPATH": SRC}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _modules_after(cli_args, tmp_path) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``repro <cli_args>``."""
    argv = [*cli_args, "--output", str(tmp_path / "result"),
            "--metrics-out", str(tmp_path / "metrics.jsonl")]
    code = (
        "import json, sys\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    exit_code, modules = json.loads(_fresh_interpreter(code).splitlines()[-1])
    assert exit_code == 0
    assert (tmp_path / "result.json").is_file()
    return set(modules)


@pytest.mark.parametrize("cli_args", [
    ["run-xxz", "--sites", "8", *RUN],
    ["run-xxz", "--sites", "8", *RUN, "--strategy", "strip", "--ranks", "2",
     "--backend", "mp"],
    ["run-tfim", "--shape", "8", *RUN, "--strategy", "block", "--ranks", "2"],
], ids=["xxz-serial", "xxz-strip-mp", "tfim-block"])
def test_a_run_imports_only_the_run_path(cli_args, tmp_path):
    loaded = _modules_after(cli_args, tmp_path)
    assert "repro.run.simulation" in loaded
    leaked = sorted(
        m for m in loaded
        if any(m == bad or m.startswith(bad + ".") for bad in FORBIDDEN)
    )
    assert leaked == []
    if importlib.util.find_spec("numba") is None:
        # "auto" is the batched numpy backend: the per-move source (the
        # scalar / numba backends) loads only when asked for by name.
        assert not {"numba", "repro.kernels.loops"} & loaded
        # With no optional backend installed there is no version to
        # look up, so nothing pays for package metadata (~20 ms).
        assert "importlib.metadata" not in loaded


def test_a_serial_run_imports_no_other_layout(tmp_path):
    loaded = _modules_after(["run-xxz", "--sites", "8", *RUN], tmp_path)
    assert "repro.qmc.chains" in loaded
    assert sorted(set(SERIAL_FORBIDDEN) & loaded) == []


#: One campaign of one cell per flavour a campaign can hold:
#: ``(kind, base)`` of its spec.
CELL_FLAVOURS = {
    "xxz-serial": ("xxz", {"n_sites": 8}),
    "xxz-replica": ("xxz", {"n_sites": 8, "strategy": "replica", "ranks": 2}),
    "xxz-strip-thread": ("xxz", {"n_sites": 8, "strategy": "strip", "ranks": 2}),
    "xxz-strip-mp": ("xxz", {"n_sites": 8, "strategy": "strip", "ranks": 2,
                             "backend": "mp"}),
    "xxz-strip-checkpoint": ("xxz", {"n_sites": 8, "strategy": "strip",
                                     "ranks": 2, "checkpoint_every": 10}),
    "tfim-serial": ("tfim", {"shape": "8"}),
    "tfim-block": ("tfim", {"shape": "8", "strategy": "block", "ranks": 2}),
    "xxz2d": ("xxz2d", {"lx": 4, "ly": 4}),
}


@pytest.mark.parametrize("flavour", sorted(CELL_FLAVOURS))
def test_a_cell_imports_nothing_its_server_did_not(flavour, tmp_path):
    """The cell server preloads from its campaign's own command lines
    (``repro.run.cell_server._preload``, then forks); a cell of that
    campaign, run where the server stands, must import nothing new --
    not even the ``numpy.fft`` its estimates use."""
    kind, base = CELL_FLAVOURS[flavour]
    base = {"beta": 1.0, "n_slices": 8, "n_sweeps": 40, "n_thermalize": 4, **base}
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from repro.run.campaign import CampaignSpec, build_run_argv, expand_grid\n"
        "from repro.run.cell_server import _preload\n"
        f"spec = CampaignSpec(kind={kind!r}, base={base!r})\n"
        "(run,) = expand_grid(spec)\n"
        f"argv = build_run_argv(run, Path({str(tmp_path)!r}))\n"
        "_preload([argv])\n"
        "before = set(sys.modules)\n"
        "from repro.cli import main\n"
        "code = main(argv[3:])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    exit_code, imported = json.loads(_fresh_interpreter(code).splitlines()[-1])
    assert exit_code == 0
    assert (tmp_path / "result.json").is_file()
    assert imported == []


def test_info_commands_do_not_import_the_samplers():
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['machines']) == 0\n"
        "assert main(['scaling', '--max-p', '4']) == 0\n"
        "bad = [m for m in sys.modules if m.startswith(('repro.qmc.worldline',"
        " 'repro.run.simulation', 'repro.qmc.parallel'))]\n"
        "assert bad == [], bad\n"
    )
    _fresh_interpreter(code)


def test_kernels_are_the_bottom_layer():
    """The op bodies import nothing from the samplers above them."""
    code = (
        "import sys\n"
        "import repro.kernels.numpy_backend\n"
        "import repro.kernels.loops\n"
        "bad = [m for m in sys.modules if m.startswith('repro.qmc')]\n"
        "assert bad == [], bad\n"
    )
    _fresh_interpreter(code)


def test_the_launcher_imports_what_forked_ranks_use():
    """NumPy loads ``numpy.random`` on first attribute access; were that
    left to the first stream an mp rank creates, every rank of every run
    would import it after the fork, inside the run's wall time."""
    code = (
        "import sys\n"
        "import repro.util.rng\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    _fresh_interpreter(code)


def _defining_module(pkg, name, value):
    """Where ``name`` is defined: by ``__module__``, else by ``__all__``."""
    module = sys.modules.get(getattr(value, "__module__", None))
    if module is not None and hasattr(module, name):
        return module
    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{pkg.__name__}.{info.name}")
        if name in getattr(module, "__all__", ()):
            return module
    raise AssertionError(f"no module of {pkg.__name__} defines {name}")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_to_its_defining_object(package):
    pkg = importlib.import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    listed = dir(pkg)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert name in listed
        if name == "__version__":
            continue
        assert value is getattr(_defining_module(pkg, name, value), name)
        # A second lookup is served from the package namespace itself.
        assert vars(pkg)[name] is value


def test_unknown_attribute_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
    with pytest.raises(ImportError):
        from repro import nope  # noqa: F401


def test_star_import_submodule_import_and_pickling_still_work():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)
    assert namespace["Simulation"] is repro.Simulation

    from repro import kernels  # a subpackage, not an exported name

    assert kernels is sys.modules["repro.kernels"]

    cfg = repro.XXZRunConfig(n_sites=6, beta=0.5, n_slices=4, n_sweeps=8,
                             n_thermalize=2)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    result = repro.Simulation(cfg).run()
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone) is repro.RunResult
    assert clone.estimates == result.estimates
