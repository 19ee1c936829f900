"""One move set: the raster moves live in ``tests/``, nowhere else.

The world-line samplers sweep every geometry by running the registry's
strip ops over their tables, so a Metropolis rule has one batched and
one per-move statement in ``src/``.  The raster moves that once made a
second, per-sampler sweep are the move-by-move oracle of
``tests/qmc/raster_reference.py``; no module under ``src/`` or
``benchmarks/`` may define or call them again.  ``benchmarks/e2e/`` is
left out: it changes only together with its own baselines.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The moves, their helpers, and the samplers' per-move code readers.
MOVED = (
    "sweep_scalar",
    "attempt_corner_flip",
    "attempt_edge_flip",
    "attempt_column_flip",
    "attempt_window_flip",
    "segment_flip_class",
    "_weight_product",
    "column_log_ratio",
    "_flip_log_ratio",
    "_affected_by_corner",
    "_affected_for",
    "_metropolis",
    "_codes",
    "_segment_window",
)
PATTERN = re.compile(r"\b(?:" + "|".join(MOVED) + r")\b")


def _hits(paths):
    return [
        f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if PATTERN.search(line)
    ]


def test_no_raster_move_outside_tests():
    paths = [
        path
        for top in ("src", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        if "e2e" not in path.relative_to(ROOT / top).parts
    ]
    assert len(paths) > 50
    assert _hits(paths) == []


def test_the_oracle_still_defines_every_move():
    """The grep above is not vacuous: every name is found where it lives."""
    oracle = (ROOT / "tests" / "qmc" / "raster_reference.py").read_text()
    defined = set(re.findall(r"def (\w+)\(", oracle))
    assert set(MOVED) - {"attempt_edge_flip"} <= defined
