"""Per-configuration view of paired benchmark runs.

    python3 tools/bench_split.py --workload bdd-random --seeds 11101-11110 \
        --parent PARENT/benchmarks/out --change benchmarks/out

``benchmarks/run.py`` reports one time per workload, which can hide a
configuration that got slower behind one that got faster.  This script
reads the files a run already leaves in its ``benchmarks/out`` directory
for each seed, from two checkouts (the parent commit and the change):

* ``times-<workload>-seed<n>.json``: the untraced wall time of every item
  of every pass and the calibration time before it;
* ``counts-<workload>-seed<n>.json``: the per-item counters.

For each configuration (the bracketed part of an item's label) it sums the
item times of each pass, scales each pass by the benchmark's reference
calibration over that pass's mean calibration, and averages over the
passes.  The per-configuration times of one run therefore add up to about
that run's ``solve_s`` (the benchmark scales each item by a window of
calibrations instead).  Seed k of the parent pairs with seed k of the
change.

The ``claim`` block applies the rule for claiming a gain to the sums of
the configurations: the change must win at least nine tenths of the pairs,
and its median must be lower than the parent's by more than the parent's
interquartile range.  ``counters`` lists, for every item whose counters
differ between the two sides, the counters that moved: at the first seed,
and under ``items_moved_by_seed`` at every seed.  Each configuration also
gets, under ``counters``, the sums of SUMMED_COUNTERS over its items for
each side at the first seed, so a diagram that shrank or decisions that
were saved show per configuration, and ``models_per_s``: per side, the
models it counted over its scaled seconds at each seed (median and
quartiles over the seeds).  The result is one JSON object on standard
output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from run import REFERENCE_CAL_S  # noqa: E402

SUMMED_COUNTERS = ("solutions", "decisions", "obdd_nodes", "cache_hits",
                   "cache_misses")


def configuration(label: str) -> str:
    return label[label.index("[") + 1:-1]


def config_seconds(times: dict) -> dict[str, float]:
    """Scaled seconds per configuration, the mean over passes."""
    per_pass = []
    for seconds, cals in zip(times["untraced"], times["cal"]):
        scale = REFERENCE_CAL_S / statistics.mean(cals)
        sums: dict[str, float] = defaultdict(float)
        for label, s in zip(times["items"], seconds):
            sums[configuration(label)] += s * scale
        per_pass.append(sums)
    return {c: statistics.mean(p[c] for p in per_pass) for c in per_pass[0]}


def config_counters(items: dict) -> dict[str, dict[str, int]]:
    """Per configuration, the sums of SUMMED_COUNTERS over its items."""
    sums: dict[str, dict[str, int]] = {}
    for label, counts in items.items():
        row = sums.setdefault(configuration(label),
                              dict.fromkeys(SUMMED_COUNTERS, 0))
        for name in SUMMED_COUNTERS:
            row[name] += counts[name]
    return sums


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) \
        if len(values) > 1 else values * 3
    return {"median": round(median, 5), "q1": round(q1, 5),
            "q3": round(q3, 5)}


def claim(parent: list[float], change: list[float]) -> dict:
    """Pairs won, median gap and parent IQR of paired times (lower is
    better), and whether they meet the rule for claiming a gain."""
    wins = sum(b < a for a, b in zip(parent, change))
    gap = statistics.median(parent) - statistics.median(change)
    p = summary(parent)
    iqr = p["q3"] - p["q1"]
    return {"change_better_in": f"{wins}/{len(parent)}",
            "median_gap": round(gap, 5), "parent_iqr": round(iqr, 5),
            "met": 10 * wins >= 9 * len(parent) and gap > iqr}


def moved_counters(before: dict, after: dict) -> dict:
    """Per item, the counters that differ: name -> [before, after]."""
    moved = {}
    for label, counts in before.items():
        diff = {k: [v, after[label][k]] for k, v in counts.items()
                if after[label][k] != v}
        if diff:
            moved[label] = diff
    return moved


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)

    def load(side: Path, kind: str, seed: int) -> dict:
        path = side / f"{kind}-{args.workload}-seed{seed}.json"
        return json.loads(path.read_text())

    sides = (("parent", args.parent), ("change", args.change))
    runs = {side: [config_seconds(load(d, "times", s)) for s in seeds]
            for side, d in sides}
    items = {side: [load(d, "counts", s)["items"] for s in seeds]
             for side, d in sides}
    counted = {side: [config_counters(i) for i in its]
               for side, its in items.items()}
    configs = {}
    for c in runs["parent"][0]:
        p = [r[c] for r in runs["parent"]]
        ch = [r[c] for r in runs["change"]]
        wins = sum(b < a for a, b in zip(p, ch))
        configs[c] = {
            "parent": summary(p), "change": summary(ch),
            "change_over_parent": round(statistics.median(ch)
                                        / statistics.median(p), 4),
            "change_better_in": f"{wins}/{len(seeds)}",
            "counters": {side: counted[side][0][c] for side in counted},
            "models_per_s": {side: summary(
                [n[c]["solutions"] / r[c]
                 for n, r in zip(counted[side], runs[side])])
                for side in counted},
        }
    sums = {side: [sum(r.values()) for r in rs] for side, rs in runs.items()}
    totals = {side: summary(s) for side, s in sums.items()}

    moved = {seed: moved_counters(p, c) for seed, p, c in
             zip(seeds, items["parent"], items["change"])}
    first = items["parent"][0]
    print(json.dumps({
        "workload": args.workload,
        "seeds": args.seeds,
        "pairs": len(seeds),
        "unit": "s",
        "configurations": configs,
        "sum_of_configurations": totals,
        "claim": claim(sums["parent"], sums["change"]),
        "counters": {"seed": seeds[0],
                     "items_identical": len(first) - len(moved[seeds[0]]),
                     "items_moved": moved[seeds[0]],
                     "items_moved_by_seed": {str(s): m
                                             for s, m in moved.items()}},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
