"""Seeded benchmark for allsat.

    python3 benchmarks/run.py --workload hard-few --seed 1 \
        --seconds 30 --trace 0

Builds the workload's corpus from the seed (``corpus.py``), imports allsat
from this checkout's ``src/`` and runs the workload's fixed item list
through ``allsat.harness.run_instance`` in this process, one item at a time
(closed loop, one client), in whole passes until ``--seconds`` is spent.
Every count is checked against its reference, and every per-item counter
must repeat exactly across passes and across runs with the same seed.
Every reported time is scaled to a reference host speed, measured by a
calibration before each item (see REFERENCE_CAL_S).

Human-readable lines come first; the last line of standard output is one
JSON object.  Its metrics are the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0`` and the ``per_layer`` metrics with ``--trace 1``.  A
traced run alternates untraced and traced passes, so ``trace.overhead``
compares the two within one process.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 21
# The host's CPU speed drifts by up to 2x in phases that last from seconds
# to minutes, longer than a run, so raw wall times of the same code differ by
# that much between runs.  Before every item the benchmark therefore times
# CALIBRATION, a fixed piece of pure-Python work from its own code (a
# counting DPLL on a fixed formula), and scales the item's wall time by
# REFERENCE_CAL_S over the mean calibration time within CAL_WINDOW_S seconds
# of the item.  Every reported time is thus in seconds on a host that runs
# the calibration in REFERENCE_CAL_S: a change to allsat moves it, the host's
# phase does not.  The mean, not the median, of the calibrations is used
# because it follows the share of time the host takes away, as an item's
# wall time does.
CALIBRATION = (20, corpus.random_3cnf(random.Random("calibration"), 20, 50))
REFERENCE_CAL_S = 2e-3
CAL_WINDOW_S = 1.0
# per-item limit: a hang fails its item instead of stalling the run
ITEM_TIME_LIMIT = 20.0
# after this many seconds of passes, items still to run fail unrun, so the
# process ends well inside its 180 s allowance
HARD_STOP = 120.0

# RunStats fields that must repeat exactly for an item
COUNT_FIELDS = ("solutions", "decisions", "conflicts", "propagations",
                "learned_clauses", "blocking_clauses", "cache_hits",
                "cache_misses", "obdd_nodes", "dumps", "peak_mem")


@dataclass
class Outcome:
    seconds: float
    failed: bool
    wrong: bool                      # finished with a count != reference
    counts: dict[str, int] | None
    start: float                     # perf_counter when the item came up
    cal: float                       # calibration seconds before the item


def import_allsat():
    """Import allsat afresh from ``src/`` (dropping any earlier import)."""
    for name in [m for m in sys.modules
                 if m == "allsat" or m.startswith("allsat.")]:
        del sys.modules[name]
    allsat = importlib.import_module("allsat")
    importlib.import_module("allsat.harness")
    if Path(allsat.__file__).resolve().parent != SRC / "allsat":
        raise ImportError(f"allsat imported from {allsat.__file__}, "
                          f"not from {SRC}")
    return allsat


def calibrate() -> float:
    """Wall seconds of one run of the calibration work."""
    t0 = time.perf_counter()
    corpus.count_dpll(*CALIBRATION)
    return time.perf_counter() - t0


def set_up(instances: list[corpus.Instance]):
    """Import allsat and parse the corpus SETUP_REPS times, each after a
    calibration; setup_s is the median time, scaled by the mean
    calibration."""
    times, cals = [], []
    for _ in range(SETUP_REPS):
        cals.append(calibrate())
        t0 = time.perf_counter()
        allsat = import_allsat()
        for inst in instances:
            allsat.parse_dimacs(inst.dimacs)
        times.append(time.perf_counter() - t0)
    scale = REFERENCE_CAL_S / statistics.mean(cals)
    return allsat, statistics.median(times) * scale


def scaled(passes: list[list[Outcome]]) -> list[list[float]]:
    """Item wall times in reference seconds.  Each is scaled by the mean
    of the calibrations that started within CAL_WINDOW_S of it."""
    runs = [o for p in passes for o in p]
    starts = [o.start for o in runs]
    total = list(itertools.accumulate((o.cal for o in runs), initial=0.0))

    def scale(o: Outcome) -> float:
        lo = bisect.bisect_left(starts, o.start - CAL_WINDOW_S)
        hi = bisect.bisect_right(starts, o.start + CAL_WINDOW_S)
        return REFERENCE_CAL_S * (hi - lo) / (total[hi] - total[lo])

    return [[o.seconds * scale(o) for o in p] for p in passes]


def run_pass(allsat, items, workdir: Path, tracer, stop_at: float
             ) -> list[Outcome]:
    harness = allsat.harness
    outcomes = []
    for idx, item in enumerate(items):
        start = time.perf_counter()
        if start > stop_at:
            outcomes.append(Outcome(0.0, True, False, None, start,
                                    REFERENCE_CAL_S))
            continue
        cfg = harness.RunConfig(**item.config, time_limit=ITEM_TIME_LIMIT)
        # refresh dumps and manifests land next to this (never written) path
        path = workdir / f"{item.instance.name}.cnf"
        # a fresh formula per item: the kernel reorders clause literals in
        # place, so a reused formula would steer the next run's search
        formula = allsat.parse_dimacs(item.instance.dimacs)
        if tracer is not None:
            tracer.item = idx
        cal = calibrate()
        gc.collect()   # start every item from the same collector state
        t0 = time.perf_counter()
        try:
            st = harness.run_instance(path, cfg, formula=formula)
        except Exception:
            traceback.print_exc()
            st = None
        dt = time.perf_counter() - t0
        if st is None:
            outcomes.append(Outcome(dt, True, False, None, start, cal))
            continue
        done = st.exit_code == 0 and st.solved
        wrong = done and st.solutions != item.instance.reference
        if wrong:
            print(f"wrong count: {label(item)}: {st.solutions} != "
                  f"reference {item.instance.reference}", file=sys.stderr)
        elif not done:
            print(f"failed: {label(item)}: exit {st.exit_code} {st.error}",
                  file=sys.stderr)
        counts = {f: getattr(st, f) for f in COUNT_FIELDS}
        outcomes.append(Outcome(dt, not done or wrong, wrong, counts, start,
                                cal))
    return outcomes


def label(item: corpus.Item) -> str:
    cfg = ",".join(f"{k}={v}" for k, v in item.config.items())
    return f"{item.instance.name}[{cfg}]"


def nondeterministic(items, passes: list[list[Outcome]], key: str,
                     record: Path) -> list[str]:
    """Items whose counters differ between passes of this run, or from an
    earlier run of the same program on the same corpus."""
    labels = [label(it) for it in items]
    found = []
    per_item: dict[str, dict] = {}
    for lab, runs in zip(labels, zip(*passes)):
        seen = [o.counts for o in runs if o.counts is not None]
        if any(c != seen[0] for c in seen[1:]):
            found.append(f"{lab}: counters differ between passes")
        if seen:
            per_item[lab] = seen[0]
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier.get("key") == key:
            for lab, counts in per_item.items():
                if lab in earlier["items"] and earlier["items"][lab] != counts:
                    found.append(f"{lab}: counters differ from the run that "
                                 f"wrote {record.name}")
            return found
    record.write_text(json.dumps({"key": key, "items": per_item}, indent=1))
    return found


def run_key(items) -> str:
    """Digest of the program source and the corpus, so recorded counters
    are only compared against runs of the same code on the same input."""
    h = hashlib.sha256()
    for f in sorted((SRC / "allsat").glob("*.py")):
        h.update(f.read_bytes())
    for it in items:
        h.update(label(it).encode())
        h.update(it.instance.dimacs.encode())
    return h.hexdigest()


def end_to_end(workload, items, untraced, setup_s) -> dict[str, float]:
    # Times are in reference seconds (see REFERENCE_CAL_S).  solve_s is the
    # mean over passes; the percentiles are taken over every item run.
    times = scaled(untraced)
    samples = [t for p in times for t in p]
    attempted = len(samples)
    failed = sum(o.failed for p in untraced for o in p)
    solve_s = statistics.mean(sum(p) for p in times)
    wall_s = statistics.mean(sum(o.seconds for o in p) for p in untraced)
    speed = REFERENCE_CAL_S / statistics.mean(
        o.cal for p in untraced for o in p)
    models = sum(it.instance.reference for it in items)
    text = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPS} imports+parses"),
        ("solve_s", solve_s, "s", f"mean of {len(untraced)} passes"),
        ("solve_wall_s", wall_s, "s", "the same, unscaled"),
        ("host_speed", speed, "ratio", "reference / mean calibration"),
        ("item_p50_ms", 1e3 * statistics.median(samples), "ms", ""),
        ("item_p75_ms", 1e3 * statistics.quantiles(samples, n=4)[2], "ms",
         ""),
        ("items", len(items), "count", f"per pass; {attempted} samples"),
    ]
    if workload in ("many-models", "hard-few"):
        text.append(("models_per_s", models / solve_s, "1/s", ""))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    text += [("peak_rss_mb", rss_mb, "MB", ""),
             ("fail_frac", failed / attempted, "fraction",
              f"{failed}/{attempted}")]
    for name, value, unit, note in text:
        print(f"  {name:<14} {value:<14.6g} {unit:<9} {note}")
    metrics = {name: value for name, value, _, _ in text}
    metrics["ok_frac"] = 1.0 - metrics["fail_frac"]
    return metrics


def per_layer(traced, untraced, summaries, tracer, parse_s
              ) -> dict[str, float]:
    # self times of a traced pass are scaled by that pass's factor
    traced_s = [sum(p) for p in scaled(traced)]
    untraced_s = [sum(p) for p in scaled(untraced)]
    factors = [t / sum(o.seconds for o in p)
               for t, p in zip(traced_s, traced)]
    self_s = {k: statistics.mean(f * s[0][k]
                                 for f, s in zip(factors, summaries))
              for k in summaries[0][0]}
    calls = summaries[-1][1]
    totals = {f: sum(o.counts[f] for o in traced[-1] if o.counts)
              for f in COUNT_FIELDS}
    emits = tracer.items_with("blocking.emit")
    cube_models = sum(traced[-1][i].counts["solutions"] for i in emits
                      if traced[-1][i].counts)
    lookups = totals["cache_hits"] + totals["cache_misses"]
    return {
        "formula.parse_s": parse_s,
        "formula.compute_cuts_s": self_s["formula.compute_cuts"],
        "kernel.propagate_s": self_s["kernel.propagate"],
        "kernel.propagate_calls": calls["kernel.propagate"],
        "kernel.propagations": totals["propagations"],
        "kernel.decisions": totals["decisions"],
        "kernel.decide_s": self_s["kernel.decide"],
        "kernel.cancel_s": self_s["kernel.cancel"],
        "trail.cancel_s": self_s["trail.cancel"],
        "kernel.analyze_s": self_s["kernel.analyze"],
        "kernel.attach_s": self_s["kernel.attach"],
        "kernel.conflicts": totals["conflicts"],
        "kernel.learned_clauses": totals["learned_clauses"],
        "kernel.conflict_rate":
            totals["conflicts"] / max(totals["decisions"], 1),
        "kernel.accounted_peak_bytes":
            max((o.counts["peak_mem"] for o in traced[-1] if o.counts),
                default=0),
        "nonblocking.self_s": self_s["nonblocking.run"],
        "nonblocking.backtrack_s": self_s["nonblocking.backtrack"],
        "nonblocking.backtrack_calls": calls["nonblocking.backtrack"],
        "nonblocking.resolve_s": self_s["nonblocking.resolve"],
        "blocking.self_s": self_s["blocking.run"],
        "blocking.simplify_s": self_s["blocking.simplify"],
        "blocking.replay_s": self_s["blocking.replay"],
        "blocking.blocking_clauses": totals["blocking_clauses"],
        "blocking.restarts": calls["blocking.restart"],
        "blocking.models_per_cube":
            cube_models / max(calls["blocking.emit"], 1),
        "bddcache.key_s": self_s["bddcache.key"],
        "bddcache.key_calls": calls["bddcache.key"],
        "bddcache.cache_hits": totals["cache_hits"],
        "bddcache.cache_misses": totals["cache_misses"],
        "bddcache.hit_rate": totals["cache_hits"] / max(lookups, 1),
        "bddcache.enroll_s": self_s["bddcache.enroll"],
        "bddcache.add_path_s": self_s["bddcache.add_path"],
        "bddcache.self_s": self_s["bddcache.run"],
        "bddcache.dumps": totals["dumps"],
        "obdd.extend_s": self_s["obdd.extend"],
        "obdd.extend_calls": calls["obdd.extend"],
        "obdd.count_s": self_s["obdd.count"],
        "obdd.final_nodes": totals["obdd_nodes"],
        "obdd.dump_s": self_s["obdd.dump"],
        "harness.self_s": self_s["harness.run_instance"],
        "trace.overhead":
            statistics.mean(traced_s) / statistics.mean(untraced_s),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "allsat" / "__init__.py").is_file():
        print(f"allsat sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    items = corpus.build(args.workload, args.seed)
    instances = list({it.instance.name: it.instance for it in items}.values())
    allsat, setup_s = set_up(instances)
    tracer = None
    parse_s = 0.0
    if args.trace:
        tracer = spans.Tracer([n for n, _, _ in spans.boundaries(allsat)])
        for inst in instances:
            tracer.call("formula.parse", allsat.parse_dimacs, inst.dimacs)
        parse_s = tracer.summary()[0]["formula.parse"] * \
            REFERENCE_CAL_S / statistics.mean(calibrate() for _ in range(5))
    print(f"allsat benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} items={len(items)} "
          f"instances={len(instances)}")

    OUT.mkdir(exist_ok=True)
    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    summaries = []
    saved_dump_dir = os.environ.get("ALLSAT_DUMP_DIR")
    with tempfile.TemporaryDirectory(dir=OUT, prefix="dumps-") as tmp:
        os.environ["ALLSAT_DUMP_DIR"] = tmp
        try:
            start = time.perf_counter()
            rounds = 0
            while True:
                untraced.append(run_pass(allsat, items, Path(tmp), None,
                                         start + HARD_STOP))
                if tracer is not None:
                    tracer.clear()
                    tracer.install(spans.boundaries(allsat))
                    try:
                        traced.append(run_pass(allsat, items, Path(tmp),
                                               tracer, start + HARD_STOP))
                    finally:
                        tracer.uninstall()
                    summaries.append(tracer.summary())
                rounds += 1
                elapsed = time.perf_counter() - start
                if elapsed * (rounds + 1) / rounds > args.seconds:
                    break
        finally:
            if saved_dump_dir is None:
                del os.environ["ALLSAT_DUMP_DIR"]
            else:
                os.environ["ALLSAT_DUMP_DIR"] = saved_dump_dir

    everything = untraced + traced
    attempted = sum(len(p) for p in everything)
    failed = sum(o.failed for p in everything for o in p)
    wrong = any(o.wrong for p in everything for o in p)
    record = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    drift = nondeterministic(items, everything, run_key(items), record)
    for line in drift:
        print(f"nondeterministic: {line}", file=sys.stderr)

    (OUT / f"times-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"items": [label(it) for it in items],
                    "untraced": [[o.seconds for o in p] for p in untraced],
                    "traced": [[o.seconds for o in p] for p in traced],
                    "cal": [[o.cal for o in p] for p in untraced],
                    "traced_cal": [[o.cal for o in p] for p in traced]}))
    if tracer is None:
        computed = end_to_end(args.workload, items, untraced, setup_s)
        wanted = spec["end_to_end"]
    else:
        computed = per_layer(traced, untraced, summaries, tracer, parse_s)
        for name, value in computed.items():
            print(f"  {name:<28} {value:.6g}")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}",
                     [label(it) for it in items])
        wanted = spec["per_layer"]
    result = {
        "correct": not wrong and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
