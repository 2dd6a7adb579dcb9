"""Search-counter goldens: every solver configuration of ``MODES`` on a
fixed set of seeded instances must repeat the committed counters exactly.

A change that is meant to keep the search as it is (a faster data layout,
say) must leave this table alone.  A change that alters the search on
purpose regenerates it and says so:

    PYTHONPATH=src python tests/test_search_counters.py
"""

import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from allsat import from_clause_lists
from allsat.harness import EXIT_OK, FLAGS, MODES, RunConfig, run_instance

from conftest import random_3cnf

TABLE = Path(__file__).with_name("search_counters.json")
FIELDS = ("solutions", "decisions", "conflicts", "propagations",
          "learned_clauses", "blocking_clauses", "cache_hits",
          "cache_misses", "obdd_nodes", "dumps", "peak_mem")


def window_chain(rng: random.Random, n: int, width: int):
    """Clauses of 2 and 3 literals over ``width`` consecutive variables,
    one or two per window position, under random polarities."""
    clauses = []
    for start in range(1, n - width + 2):
        for _ in range(1 + start % 2):
            vs = rng.sample(range(start, start + width), 2 + len(clauses) % 2)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return from_clause_lists(n, clauses)


def with_units(f, units):
    return from_clause_lists(f.num_vars, f.clauses + units)


INSTANCES = {
    "r10m25": lambda: random_3cnf(random.Random(1), 10, 25),
    "r12m40": lambda: random_3cnf(random.Random(2), 12, 40),
    "r12m51": lambda: random_3cnf(random.Random(3), 12, 51),
    "r14m42": lambda: random_3cnf(random.Random(4), 14, 42),
    "r13m30u": lambda: with_units(random_3cnf(random.Random(5), 13, 30),
                                  [[-4], [9]]),
    "r9m45": lambda: random_3cnf(random.Random(6), 9, 45),
    "w12": lambda: window_chain(random.Random(7), 12, 4),
    "w16": lambda: window_chain(random.Random(8), 16, 3),
}


def configurations(num_vars: int) -> list[RunConfig]:
    """Every flag combination of every engine mode, with refresh on and
    off in the diagram modes.  The limits never bind on a sound search;
    they turn one that loops into a failure instead of a hang."""
    values = {"refresh_threshold": (None, 2 * num_vars + 8),
              "simplify": (False, True), "continue_search": (False, True)}
    configs = []
    for name, mode in MODES.items():
        if mode.build is None:
            continue
        axes = [values.get(flag) or FLAGS[flag][1] for flag in mode.flags]
        for combo in itertools.product(*axes):
            configs.append(RunConfig(mode=name, output="quiet",
                                     time_limit=30.0, mem_limit=1 << 24,
                                     **dict(zip(mode.flags, combo))))
    return configs


def counters(name: str, directory: Path) -> dict[str, list[int]]:
    f = INSTANCES[name]()
    rows = {}
    for cfg in configurations(f.num_vars):
        stats = run_instance(directory / f"{name}.cnf", cfg, formula=f)
        assert stats.exit_code == EXIT_OK, (cfg.label(), stats.error)
        rows[cfg.label()] = [getattr(stats, field) for field in FIELDS]
    return rows


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_search_counters_match_the_table(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ALLSAT_DUMP_DIR", raising=False)
    table = json.loads(TABLE.read_text())
    assert table["fields"] == list(FIELDS)
    got = counters(name, tmp_path)
    want = table["instances"][name]
    assert sorted(got) == sorted(want)
    for label, row in want.items():
        assert dict(zip(FIELDS, got[label])) == dict(zip(FIELDS, row)), label


def test_table_covers_every_mode():
    table = json.loads(TABLE.read_text())
    assert sorted(table["instances"]) == sorted(INSTANCES)
    modes = {label.split("+")[0] for rows in table["instances"].values()
             for label in rows}
    assert modes == {m for m, mode in MODES.items() if mode.build}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        instances = {name: counters(name, Path(tmp))
                     for name in sorted(INSTANCES)}
    # one line per configuration, so a regenerated table diffs by row
    blocks = []
    for name, rows in instances.items():
        lines = ",\n".join(f"   {json.dumps(label)}: {json.dumps(row)}"
                           for label, row in rows.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
    TABLE.write_text(f'{{\n "fields": {json.dumps(list(FIELDS))},\n'
                     f' "instances": {{\n' + ",\n".join(blocks) + "\n }\n}\n")
    print(f"wrote {TABLE}", file=sys.stderr)
