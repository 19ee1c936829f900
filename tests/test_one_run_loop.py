"""One run loop: the samplers are move sets, not programs.

Every serial run goes through ``repro.qmc.parallel.run_chain`` ->
``chain_program`` -> ``_run_decomposed``.  The samplers' private run
loops and their result types are gone; nothing may bring them back.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QMC = ROOT / "src" / "repro" / "qmc"

DELETED_TYPES = re.compile(
    r"\b(WorldlineMeasurement|Worldline2DMeasurement|TfimMeasurement|IsingObservables)\b"
)


def _python_files():
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "e2e" not in path.relative_to(ROOT).parts:
                yield path


def test_the_result_types_are_gone():
    hits = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in _python_files()
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if DELETED_TYPES.search(line)
    ]
    assert hits == []


def test_the_samplers_have_no_run_loop():
    hits = [
        f"{name}:{n}"
        for name in ("worldline2d.py", "tfim.py", "classical_ising.py")
        for n, line in enumerate((QMC / name).read_text().splitlines(), 1)
        if re.search(r"\bdef run\(", line)
    ]
    assert hits == []


def test_the_chain_sampler_run_is_one_call():
    tree = ast.parse((QMC / "worldline.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "WorldlineChainQmc")
    run = next(node for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    assert not [node for node in ast.walk(run) if isinstance(node, loops)]
    calls = [node.func.id for node in ast.walk(run)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls == ["run_chain"]
