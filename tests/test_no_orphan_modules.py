"""No orphan modules: code outside ``tests/`` names every module under ``src/repro``.

A module that only its own tests import is code no run, figure,
benchmark or example executes; it costs review and tier-1 time and
should go.  A module counts as reached when some ``.py`` file outside
``tests/`` (``src``, ``benchmarks``, ``examples``, ``tools``) other than
the module itself names it: by an ``import``, by ``from package import
module``, or by its dotted name in a string, the way the lazy package
maps and the run-module lists name them.  The check is static; it reads
source and imports nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules that are meant to be reached from outside the source tree.
ALLOWED = {
    # The ``python -m repro`` entry point: the interpreter names it.
    "repro.__main__",
    # The 4 x 4 momentum-block exact reference the 2-D tests compare
    # against; ROADMAP item 11 may replace it by exact sector traces.
    "repro.models.symmetry_ed",
}

DOTTED = re.compile(r"\brepro(?:\.\w+)+\b")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _named_by(path: Path) -> set[str]:
    """Every dotted repro name ``path`` imports or spells out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = _module_name(path) if path.is_relative_to(SRC) else ""
    if package and path.name != "__init__.py":
        package = package.rpartition(".")[0]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(DOTTED.findall(node.value))
    return names


def _sources():
    for top in ("src", "benchmarks", "examples", "tools"):
        yield from sorted((ROOT / top).rglob("*.py"))


def test_every_module_is_named_outside_tests():
    modules = {
        _module_name(path): path
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(modules) > 50
    assert ALLOWED <= set(modules), "an allowlisted module went: drop it"
    reached = set()
    for path in _sources():
        names = _named_by(path)
        reached.update(n for n in names if modules.get(n) != path)
    orphans = sorted(set(modules) - reached - ALLOWED)
    assert orphans == [], (
        f"modules no file outside tests/ imports or names: {orphans}"
    )

