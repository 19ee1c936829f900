"""Source check: the second execution order stays deleted.

``overlap=True`` is a charge schedule of the one stage body per driver
(DESIGN.md, "Overlap pipeline").  The executed interior / boundary
split it replaced lived behind these names; the check is
``grep -rn '<names>' src/`` coming back empty.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GONE = re.compile(
    r"_stage_split|_subset_cache|_int_masks|_bnd_masks"
    r"|OverlapPartition|overlap_partition|_overlap_cache"
)


def test_no_interior_boundary_sub_tables_in_src():
    hits = [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if GONE.search(line)
    ]
    assert hits == []
