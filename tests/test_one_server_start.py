"""Source check: a campaign's cell server has one way to start.

It is a ``fork()`` of the scheduler (DESIGN.md, "Scheduler & retry
policy"), which resolves ``import repro`` exactly as the caller did.  A
second start path -- a new interpreter running the server (a subprocess
call, a ``-m`` entry point), with the ``PYTHONPATH`` plumbing that needs
-- is what these patterns catch in ``src/repro/run/``.
"""

import re
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "src" / "repro" / "run"

GONE = re.compile(
    r"create_subprocess_exec|create_subprocess_shell"
    r"|[\"']-m[\"'],\s*[\"']repro\.run\.cell_server[\"']"
    r"|__name__ == [\"']__main__[\"']"
    r"|PYTHONPATH"
)


def test_no_second_server_start_path_in_run():
    hits = [
        f"{path.relative_to(RUN)}:{n}: {line.strip()}"
        for path in sorted(RUN.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if GONE.search(line)
    ]
    assert hits == []
