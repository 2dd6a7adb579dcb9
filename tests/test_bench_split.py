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
    (out / f"counts-w-seed{seed}.json").write_text(json.dumps(
        {"key": "k", "items": dict(zip(items, counts))}))


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
    assert got["counters"] == {
        "seed": 1, "items_identical": 2,
        "items_moved": {"b[mode=bdd,cache=cutset]": {"peak_mem": [10, 12]}}}
