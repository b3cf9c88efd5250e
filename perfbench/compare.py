"""Compare two benchmark result files, such as the parent and a change.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--top 12]

Each file holds the records that `perfbench/run.py` appends, one per run.
For every workload the printer shows each end-to-end metric's median and
quartiles over the untraced runs of both files, the change of the medians,
and whether that change is worse than the metric's bound in BENCHMARK.json.
It then lists the per-layer `count` and `self_s` deltas of the traced runs
(medians), largest first: which layer moved, and by how much.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(records: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == trace:
            for name, metric in record["metrics"].items():
                out.setdefault(name, []).append(metric["value"])
    return out


def bounds() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def compare_workload(workload: str, base: list[dict], change: list[dict], top: int) -> None:
    print(f"== {workload}")
    limits = bounds()
    a, b = metric_values(base, workload, 0), metric_values(change, workload, 0)
    for name in [n for n in a if n in b]:
        qa, qb = quartiles(a[name]), quartiles(b[name])
        delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        verdict = ""
        limit = limits.get(name)
        if limit is not None:
            worse = delta if limit["better"] == "lower" else -delta
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if worse > limit["bound"]:
                verdict = f"WORSE than bound {limit['bound']:.0%}"
            elif abs(delta) <= spread:
                verdict = f"within base spread {spread:.1%}"
        print(f"  {name:<12} base {qa[1]:10.4f} [{qa[0]:.4f}, {qa[2]:.4f}] n={len(a[name])}"
              f"  change {qb[1]:10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] n={len(b[name])}"
              f"  {delta:+.1%} {verdict}")
    la, lb = metric_values(base, workload, 1), metric_values(change, workload, 1)
    if not la or not lb:
        print("  (no traced runs in both files: no per-layer deltas)")
        return
    selections = (
        ("self_s", lambda name: name.endswith(".self_s")),
        ("count", lambda name: isinstance(la[name][0], int)),   # counts are whole numbers
    )
    for label, keep in selections:
        rows = []
        for name in filter(keep, la.keys() & lb.keys()):
            ma, mb = statistics.median(la[name]), statistics.median(lb[name])
            if ma != mb:
                rows.append((abs(mb - ma), name, ma, mb))
        rows.sort(reverse=True)
        print(f"  per-layer {label} deltas, largest first ({len(rows)} changed):")
        digits = 4 if label == "self_s" else 0
        for _, name, ma, mb in rows[:top]:
            rel = f"{(mb - ma) / ma:+.1%}" if ma else "new"
            print(f"    {name:<48} {ma:>14.{digits}f} -> {mb:<14.{digits}f} "
                  f"{mb - ma:+.{digits}f} ({rel})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--top", type=int, default=12, help="per-layer rows to show")
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in change})
    for workload in workloads:
        compare_workload(workload, base, change, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
