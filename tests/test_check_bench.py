"""The ``serial_vs_strip_p1`` gate of ``tools/check_bench.py``."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "check_bench", Path(__file__).resolve().parent.parent / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _doc(serial_rate, strip_rate):
    return {
        "records": [
            {"case": "chain L=64 T=64", "mode": "scalar", "sweeps_per_s": 20.0},
            {"case": "chain L=64 T=64", "mode": "vectorized", "sweeps_per_s": serial_rate},
            {"case": "square 8x8 T=32", "mode": "vectorized", "sweeps_per_s": 500.0},
        ],
        "parallel_records": [
            {"case": "strip chain L=64 T=64", "mode": "vectorized", "backend": "thread",
             "p": 2, "sweeps_per_s": 1.0},
            {"case": "strip chain L=64 T=64", "mode": "vectorized", "backend": "mp",
             "p": 1, "sweeps_per_s": 1.0},
            {"case": "strip chain L=64 T=64", "mode": "vectorized", "backend": "thread",
             "p": 1, "sweeps_per_s": strip_rate},
        ],
    }


def test_ratio_uses_the_shared_lattice_at_thread_p1():
    assert check_bench.serial_vs_strip_p1(_doc(3000.0, 2000.0)) == pytest.approx(1.5)
    assert check_bench.check_serial_vs_strip(_doc(3000.0, 2000.0)) == []


def test_drift_below_the_floor_fails():
    # The committed pre-fusion record: 364 vs 1965 sweeps/s.
    (failure,) = check_bench.check_serial_vs_strip(_doc(364.0, 1965.0))
    assert "serial_vs_strip_p1" in failure


def test_documents_without_both_sides_are_skipped():
    assert check_bench.serial_vs_strip_p1({"records": _doc(1.0, 1.0)["records"]}) is None
    assert check_bench.check_serial_vs_strip({}) == []
