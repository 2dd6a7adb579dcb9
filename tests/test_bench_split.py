"""``tools/bench_split.py`` splits paired benchmark runs by configuration."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_split  # noqa: E402


def write_run(out: Path, seed: int, seconds: list[list[float]],
              counts: dict) -> None:
    out.mkdir(exist_ok=True)
    items = ["a[mode=bdd,cache=cutset]", "b[mode=bdd,cache=cutset]",
             "a[mode=bdd-blocking,cache=cutset]"]
    cal = bench_split.REFERENCE_CAL_S
    (out / f"times-w-seed{seed}.json").write_text(json.dumps(
        {"items": items, "untraced": seconds,
         "cal": [[cal / 2] * len(p) for p in seconds]}))
    zero = dict.fromkeys(bench_split.SUMMED_COUNTERS, 0)
    (out / f"counts-w-seed{seed}.json").write_text(json.dumps(
        {"key": "k", "items": dict(zip(items, ({**zero, **c}
                                               for c in counts)))}))


def test_split_sums_per_configuration_and_lists_moved_counters(
        tmp_path, capsys):
    same = {"dumps": 0, "peak_mem": 10}
    for seed, change_s in ((1, 0.5), (2, 2.0)):
        write_run(tmp_path / "p", seed, [[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]],
                  [same, same, same])
        write_run(tmp_path / "c", seed, [[1.0, change_s, 0.5]],
                  [same, {"dumps": 0, "peak_mem": 12}, same])
    bench_split.main(["--workload", "w", "--seeds", "1-2",
                      "--parent", str(tmp_path / "p"),
                      "--change", str(tmp_path / "c")])
    got = json.loads(capsys.readouterr().out)
    bdd = got["configurations"]["mode=bdd,cache=cutset"]
    # a calibration at half the reference time doubles every time
    assert bdd["parent"]["median"] == 6.0
    assert bdd["change"]["median"] == 4.5
    assert bdd["change_better_in"] == "1/2"
    blocking = got["configurations"]["mode=bdd-blocking,cache=cutset"]
    assert blocking["change_better_in"] == "0/2"
    assert got["sum_of_configurations"]["parent"]["median"] == 7.0
    moved = {"b[mode=bdd,cache=cutset]": {"peak_mem": [10, 12]}}
    assert got["counters"] == {
        "seed": 1, "items_identical": 2, "items_moved": moved,
        "items_moved_by_seed": {"1": moved, "2": moved}}


def test_split_lists_moved_counters_at_every_seed(tmp_path, capsys):
    same = {"dumps": 0, "peak_mem": 10}
    for seed in (1, 2, 3):
        write_run(tmp_path / "p", seed, [[1.0, 2.0, 0.5]], [same] * 3)
        moved = {"dumps": 1, "peak_mem": 10} if seed == 3 else same
        write_run(tmp_path / "c", seed, [[1.0, 2.0, 0.5]],
                  [same, same, moved])
    bench_split.main(["--workload", "w", "--seeds", "1-3",
                      "--parent", str(tmp_path / "p"),
                      "--change", str(tmp_path / "c")])
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["items_moved"] == {}
    assert counters["items_moved_by_seed"] == {
        "1": {}, "2": {},
        "3": {"a[mode=bdd-blocking,cache=cutset]": {"dumps": [0, 1]}}}


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    # every pair won, the medians 1.0 apart, parent quartiles 0.25 apart
    won = bench_split.claim(parent, [p - 1.0 for p in parent])
    assert won == {"change_better_in": "10/10", "median_gap": 1.0,
                   "parent_iqr": 0.25, "met": True}
    # nine of ten pairs still meet it, eight do not
    nine = [p - 1.0 for p in parent[:9]] + [parent[9] + 1.0]
    assert bench_split.claim(parent, nine)["met"]
    eight = [p - 1.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    assert bench_split.claim(parent, eight)["change_better_in"] == "8/10"
    assert not bench_split.claim(parent, eight)["met"]
    # every pair won by less than the parent's own spread
    small = bench_split.claim(parent, [p - 0.1 for p in parent])
    assert small["change_better_in"] == "10/10" and not small["met"]


def test_split_sums_the_diagram_counters_per_configuration_at_the_first_seed(
        tmp_path, capsys):
    """Each configuration gets the sums of solutions, decisions,
    obdd_nodes, cache_hits and cache_misses over its items, per side, from
    the first seed only."""
    def counts(decisions, nodes, hits, misses):
        return {"dumps": 0, "peak_mem": 10, "solutions": 2 * hits,
                "decisions": decisions, "obdd_nodes": nodes,
                "cache_hits": hits, "cache_misses": misses}

    for seed, scale in ((1, 1), (2, 100)):
        write_run(tmp_path / "p", seed, [[1.0, 2.0, 0.5]],
                  [counts(9 * scale, 10 * scale, 1, 5), counts(8, 20, 2, 6),
                   counts(2, 7, 3, 0)])
        write_run(tmp_path / "c", seed, [[1.0, 2.0, 0.5]],
                  [counts(5 * scale, 4 * scale, 1, 4), counts(8, 8, 3, 6),
                   counts(2, 7, 3, 0)])
    bench_split.main(["--workload", "w", "--seeds", "1-2",
                      "--parent", str(tmp_path / "p"),
                      "--change", str(tmp_path / "c")])
    configs = json.loads(capsys.readouterr().out)["configurations"]
    assert configs["mode=bdd,cache=cutset"]["counters"] == {
        "parent": {"solutions": 6, "decisions": 17, "obdd_nodes": 30,
                   "cache_hits": 3, "cache_misses": 11},
        "change": {"solutions": 8, "decisions": 13, "obdd_nodes": 12,
                   "cache_hits": 4, "cache_misses": 10}}
    assert configs["mode=bdd-blocking,cache=cutset"]["counters"] == {
        "parent": {"solutions": 6, "decisions": 2, "obdd_nodes": 7,
                   "cache_hits": 3, "cache_misses": 0},
        "change": {"solutions": 6, "decisions": 2, "obdd_nodes": 7,
                   "cache_hits": 3, "cache_misses": 0}}


def test_split_reports_models_per_second_at_every_seed(tmp_path, capsys):
    """Each configuration's models over its scaled seconds, per seed, with
    the median and quartiles over the seeds for each side."""
    for seed, models in ((1, 30), (2, 60), (3, 90)):
        for side, change_s in (("p", 2.0), ("c", 1.0)):
            write_run(tmp_path / side, seed, [[1.0, change_s, 0.5]],
                      [{"solutions": models}, {"solutions": models},
                       {"solutions": 7}])
    bench_split.main(["--workload", "w", "--seeds", "1-3",
                      "--parent", str(tmp_path / "p"),
                      "--change", str(tmp_path / "c")])
    configs = json.loads(capsys.readouterr().out)["configurations"]
    # calibration at half the reference: the parent's bdd items take 6 s
    # and the change's 4 s for twice the seed's models
    bdd = configs["mode=bdd,cache=cutset"]["models_per_s"]
    assert bdd["parent"] == {"median": 20.0, "q1": 10.0, "q3": 30.0}
    assert bdd["change"] == {"median": 30.0, "q1": 15.0, "q3": 45.0}
    blocking = configs["mode=bdd-blocking,cache=cutset"]["models_per_s"]
    assert blocking["parent"]["median"] == blocking["change"]["median"] == 7.0
