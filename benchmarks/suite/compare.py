"""``python -m benchmarks.suite compare A.json B.json``.

One row per workload x end-to-end metric: both medians with their
quartiles, the change with its base, the bound, and a verdict.  ``worse``
means B's median is worse than A's by more than the metric's bound (and by
more than the runs' own spread); ``unresolved`` means the change is within
the bound but the spread is wider than the bound, so "unchanged" cannot be
claimed.  Exits non-zero on any ``worse``.  This is what later changes and
CI call.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional, Tuple

from .harness import load_contract

#: End-to-end metrics only some workloads report.  ``BENCHMARK.json`` can
#: hold only metrics every workload reports, so their bounds live here.
WORKLOAD_METRICS = {
    "cold_query_ms": ("lower", 0.25),
    "load_rows_per_s": ("higher", 0.25),
    "write_ack_p50_ms": ("lower", 0.25),
    "reopen_s": ("lower", 0.25),
    "store_bytes_per_row": ("lower", 0.01),
}


def bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for every end-to-end metric."""
    table = {entry["name"]: (entry["better"], entry["bound"])
             for entry in load_contract()["end_to_end"]}
    table.update(WORKLOAD_METRICS)
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(before: List[float], after: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, spread)``; change > 0 means B is worse."""
    low_a, mid_a, high_a = quartiles(before)
    low_b, mid_b, high_b = quartiles(after)
    change = (mid_b - mid_a) / mid_a if mid_a else 0.0
    if better == "higher":
        change = -change
    spread = max(high_a - low_a, high_b - low_b) / mid_a if mid_a else 0.0
    if change > bound and change > spread:
        return "worse", change, spread
    if change < -bound and -change > spread:
        return "better", change, spread
    if spread > bound:
        return "unresolved", change, spread
    return "unchanged", change, spread


def _values(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [run["end_to_end"]["metrics"][metric]["value"] for run in runs
            if metric in run.get("end_to_end", {}).get("metrics", {})]


def _failed_ratio(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(run["end_to_end"]["attempted"] for run in runs)
    failed = sum(run["end_to_end"]["failed"] for run in runs)
    return failed / attempted if attempted else 1.0


def _digest(runs: List[Dict[str, Any]]) -> Optional[str]:
    return runs[0]["end_to_end"]["notes"].get("digest")


def compare(before: Dict[str, Any], after: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    table = bounds()
    for workload, runs_a in before["workloads"].items():
        runs_b = after["workloads"].get(workload)
        if not runs_b:
            continue
        for metric, (better, bound) in table.items():
            a, b = _values(runs_a, metric), _values(runs_b, metric)
            if not a or not b:
                continue
            outcome, change, spread = verdict(a, b, better, bound)
            rows.append({"workload": workload, "metric": metric,
                         "before": quartiles(a), "after": quartiles(b),
                         "worse_by": change, "spread": spread,
                         "bound": bound, "verdict": outcome})
        ratio_a, ratio_b = _failed_ratio(runs_a), _failed_ratio(runs_b)
        same_inputs = (before.get("seed") == after.get("seed")
                       and before.get("smoke") == after.get("smoke"))
        answers_changed = same_inputs and _digest(runs_a) != _digest(runs_b)
        rows.append({
            "workload": workload, "metric": "failed_ratio",
            "before": (ratio_a,) * 3, "after": (ratio_b,) * 3,
            "worse_by": ratio_b - ratio_a, "spread": 0.0, "bound": 0.0,
            "verdict": ("worse" if ratio_b > ratio_a or answers_changed
                        else "unchanged"),
            "note": "answer digest changed" if answers_changed else ""})
    return rows


def main(before_path: str, after_path: str) -> int:
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    rows = compare(before, after)
    print(f"{'workload':<13} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        cells = []
        for low, mid, high in (row["before"], row["after"]):
            cells.append(f"{mid:>12.4f} [{low:.4f}, {high:.4f}]")
        print(f"{row['workload']:<13} {row['metric']:<20} {cells[0]:>34} "
              f"{cells[1]:>34} {row['worse_by']:>+9.1%} {row['bound']:>6.0%}  "
              f"{row['verdict']} {row.get('note', '')}".rstrip())
    print("worse_by is the change of B's median against A's median, signed "
          "so that positive is worse")
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse else 0
