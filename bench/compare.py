"""Compare two result sets of the gridsde benchmark: a parent and a change.

Usage, from the root of a gridsde checkout:

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records written by ``run.py --results DIR``.  For
every workload and metric the table gives each side's median and quartiles,
the pair win rate (runs paired by seed, ties counting for neither side) and
a verdict:

* improved: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's own spread (the distance between its quartiles);
* regressed: for an end-to-end metric, the change's median is worse than
  the parent's by more than the metric's bound in BENCHMARK.json; for a
  per-layer metric, the mirror image of "improved";
* unresolved: the parent's spread is wider than the bound and not every run
  of the change beats every run of the parent, or a per-layer metric
  neither improved nor regressed, or an improvement came with more failed
  operations than at the parent;
* unchanged: an end-to-end metric within its bound, or a per-layer metric
  that reads the same in every run on both sides.

The exit code is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Run records grouped by (workload, trace), ordered by seed."""
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and "metrics" in record:
            groups[(record["workload"], record["trace"])].append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["seed"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs of runs with equal seeds; runs by order when no seed is shared."""
    by_seed = {r["seed"]: r for r in change}
    pairs = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return pairs or list(zip(parent, change))


def verdict(parent: list[float], change: list[float], pairs, better: str, bound: float | None,
            more_failures: bool = False) -> tuple[str, float]:
    """(verdict, pair win rate of the change); values are oriented by ``better``."""
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    wins = sum(1 for a, b in pairs if sign * b < sign * a)
    losses = sum(1 for a, b in pairs if sign * b > sign * a)
    rate = wins / len(pairs) if pairs else 0.0
    q1, p_med, q3 = quartiles(p)
    c_med = statistics.median(c)
    spread = q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and p_med - c_med > spread:
        return ("unresolved" if more_failures else "improved"), rate
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and c_med - p_med > spread:
            return "regressed", rate
        return ("unchanged" if len(set(p + c)) == 1 else "unresolved"), rate
    scale = abs(p_med) or 1.0
    if spread / scale > bound and not max(c) < min(p):
        return "unresolved", rate
    if (c_med - p_med) / scale > bound:
        return "regressed", rate
    return "unchanged", rate


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> tuple[list[list[str]], bool]:
    metas = {m["name"]: m for m in spec.get("end_to_end", [])}
    metas.update({m["name"]: dict(m, bound=None) for m in spec.get("per_layer", [])})
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows, regressed = [], False
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        pairs = pair_up(p_runs, c_runs)
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        shared = set(p_runs[0]["metrics"]) & set(c_runs[0]["metrics"])
        names = [n for n in metas if n in shared] + sorted(shared - set(metas))
        for name in names:
            meta = metas.get(name, {"better": "lower", "bound": None})
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            value_pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pairs]
            result, rate = verdict(pv, cv, value_pairs, meta["better"], meta["bound"], more_failures)
            regressed |= result == "regressed" and meta["bound"] is not None
            pq, cq = quartiles(pv), quartiles(cv)
            rows.append([
                key[0], name,
                f"{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] n={len(pv)}",
                f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(cv)}",
                f"{cq[1] / pq[1] - 1:+.1%}" if pq[1] else "",
                f"{rate:.2f} of {len(pairs)}",
                result,
            ])
        rows.append([key[0], "failed_ops",
                     str(sum(r["failed"] for r in p_runs)), str(sum(r["failed"] for r in c_runs)),
                     "", "", "more" if more_failures else "not more"])
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    ns = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text()) if BENCHMARK_JSON.is_file() else {}
    rows, regressed = compare(ns.parent, ns.change, spec)
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change",
              "change wins", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
