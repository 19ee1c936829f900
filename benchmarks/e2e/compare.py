"""``compare A.json B.json``: B against the base A, per workload and metric.

One row per workload x end-to-end metric with both medians and
quartiles, the ratio B/A (its base is always A), and a verdict judged
against the bound ``BENCHMARK.json`` fixes for the metric:

``within``      B's median is no worse and no better than A's by more
                than the bound.
``better`` / ``worse``  it differs by more than the bound.
``unresolved``  either run's quartile spread exceeds the bound while the
                two interquartile ranges overlap, or the workload ran
                oversubscribed (more busy processes than usable cores).

Exit status is 1 on any ``worse`` row or any rise in ``fail_ratio``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float, oversubscribed: bool) -> str:
    """Judge metric summary ``b`` against base ``a`` (value, q1, q3)."""
    if oversubscribed:
        return "unresolved"
    change = b["value"] / a["value"] - 1.0
    worse_by = change if better == "lower" else -change
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether it passes."""
    rows = []
    ok = True
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            continue
        if b["fail_ratio"] > a["fail_ratio"]:
            ok = False
        flagged = bool(a.get("oversubscribed") or b.get("oversubscribed"))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in a["metrics"] or key not in b["metrics"]:
                continue
            ma, mb = a["metrics"][key], b["metrics"][key]
            v = verdict(ma, mb, metric["better"], metric["bound"], flagged)
            ok = ok and v != "worse"
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": ma, "b": mb, "ratio": mb["value"] / ma["value"],
                "bound": metric["bound"], "verdict": v,
            })
        rows.append({
            "workload": name, "metric": "fail_ratio", "unit": "ratio",
            "a": {"value": a["fail_ratio"]}, "b": {"value": b["fail_ratio"]},
            "ratio": None, "bound": 0.0,
            "verdict": "worse" if b["fail_ratio"] > a["fail_ratio"] else "within",
        })
    return rows, ok


def render(rows: list[dict], name_a: str, name_b: str) -> str:
    def cell(m: dict) -> str:
        if "q1" not in m:
            return f"{m['value']:.4g}"
        return f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"

    lines = [f"A (base) = {name_a}", f"B        = {name_b}",
             f"{'workload':<20} {'metric':<17} {'A median [q1, q3]':<30} "
             f"{'B median [q1, q3]':<30} {'B/A':>7} {'bound':>6}  verdict"]
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        lines.append(
            f"{r['workload']:<20} {r['metric']:<17} {cell(r['a']):<30} "
            f"{cell(r['b']):<30} {ratio:>7} {r['bound']:>6.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e.run compare A.json B.json",
              file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, ok = compare(doc_a, doc_b, spec)
    print(render(rows, *argv))
    return 0 if ok else 1
