"""The run statistics against the engine counters and the benchmark.

``run_instance`` copies every ``SolverStats`` field into ``RunStats``, and
``benchmarks/run.py`` reads each name of its ``COUNT_FIELDS`` from a
``RunStats`` with ``getattr`` outside any ``try``, so a field dropped on
either side would crash a run instead of failing one item.  The benchmark
script is read as text, not imported.
"""

import ast
from dataclasses import fields
from pathlib import Path

from allsat.harness import RunStats
from allsat.kernel import SolverStats

RUN = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"
RUN_STATS = {f.name for f in fields(RunStats)}


def test_every_engine_counter_is_a_run_stat_and_a_csv_column():
    for f in fields(SolverStats):
        assert f.name in RUN_STATS, f.name
        assert f.name in RunStats.CSV_COLUMNS, f.name


def test_benchmark_count_fields_are_run_stats():
    tree = ast.parse(RUN.read_text())
    names = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets]
             == ["COUNT_FIELDS"]]
    assert len(names) == 1
    assert names[0] and set(names[0]) <= RUN_STATS, \
        set(names[0]) - RUN_STATS
