"""Diagram goldens: both diagram engines, both cache modes, with and without
refresh, must build the same diagrams byte for byte.

``search_counters.json`` pins the counters of a run, not its node ids or
arcs.  This table pins the sha256 of every dumped part and of the dump of
the final diagram, so a change that is meant to keep the search and the
diagram as they are (a faster walk, say) must leave it alone.  A change
that alters the diagram on purpose regenerates it and says so:

    PYTHONPATH=src python tests/test_dump_golden.py
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from allsat import BddBlockingSolver, BddSolver, RefreshPolicy, dump

from conftest import random_3cnf
from test_search_counters import window_chain

TABLE = Path(__file__).with_name("dump_golden.json")

INSTANCES = {
    "r10m30": lambda: random_3cnf(random.Random(31), 10, 30),
    "r12m36": lambda: random_3cnf(random.Random(32), 12, 36),
    "r14m40": lambda: random_3cnf(random.Random(33), 14, 40),
    "w14": lambda: window_chain(random.Random(34), 14, 4),
}

ENGINES = {"bdd": BddSolver, "bdd-blocking": BddBlockingSolver}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str, directory: Path) -> dict[str, dict]:
    """Per configuration: the sha256 of each dumped part, in dump order,
    and of the final diagram's dump."""
    f = INSTANCES[name]()
    rows = {}
    for engine, build in ENGINES.items():
        for mode in ("cutset", "separator"):
            for theta in (None, f.num_vars + 12):
                label = f"{engine}+{mode}+theta{theta}"
                stem = label.replace("+", "_")
                policy = RefreshPolicy(theta, directory, stem)
                solver = build(f, cache=mode, policy=policy)
                solver.run_bdd()
                rows[label] = {
                    "parts": [sha(Path(part).read_text())
                              for part, _ in solver.dumps],
                    "final": sha(dump(solver.store)),
                }
    return rows


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_diagrams_match_the_table(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ALLSAT_DUMP_DIR", raising=False)
    want = json.loads(TABLE.read_text())[name]
    assert digests(name, tmp_path) == want


def test_table_exercises_refresh():
    """Every instance dumps under some refresh configuration, so the parts
    are pinned as well as the final diagrams."""
    table = json.loads(TABLE.read_text())
    assert sorted(table) == sorted(INSTANCES)
    for name, rows in table.items():
        assert any(row["parts"] for row in rows.values()), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(name, Path(tmp)) for name in sorted(INSTANCES)}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
