"""The benchmark's span tracer (``benchmarks/spans.py``) against the package.

The tracer replaces each layer boundary by name, where its caller looks it
up.  A renamed method breaks every traced run, and a callee that its
caller binds to a local name is never seen by the wrapper, so its span
silently reads zero.  These tests load the tracer read-only and run one
small instance per engine family under it.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import allsat
from allsat.harness import EXIT_OK, RunConfig

from conftest import random_3cnf

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("allsat_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(spans):
    for name, owner, attr in spans.boundaries(allsat):
        assert callable(getattr(owner, attr, None)), (name, attr)


# spans each engine must record on its instance
ENGINES = [
    (RunConfig(mode="nonblocking"),
     {"harness.run_instance", "nonblocking.run", "nonblocking.backtrack",
      "kernel.propagate", "kernel.decide"}),
    (RunConfig(mode="blocking"),
     {"blocking.run", "blocking.emit", "blocking.restart",
      "kernel.propagate", "kernel.decide", "kernel.cancel", "trail.cancel"}),
    (RunConfig(mode="bdd", refresh_threshold=20),
     {"bddcache.run", "nonblocking.run", "nonblocking.backtrack",
      "formula.compute_cuts", "bddcache.key", "bddcache.enroll",
      "obdd.extend", "obdd.count", "obdd.dump", "kernel.propagate"}),
    (RunConfig(mode="bdd-blocking"),
     {"bddcache.run", "blocking.run", "bddcache.add_path", "bddcache.key",
      "obdd.extend", "obdd.count", "kernel.propagate"}),
]


def test_traced_engines_record_their_spans(spans, tmp_path):
    targets = spans.boundaries(allsat)
    originals = [getattr(owner, attr) for _, owner, attr in targets]
    tracer = spans.Tracer([name for name, _, _ in targets])
    formula = random_3cnf(random.Random(1), 12, 24)
    tracer.install(targets)
    try:
        for item, (cfg, _) in enumerate(ENGINES):
            tracer.item = item
            stats = allsat.harness.run_instance(tmp_path / "t.cnf", cfg,
                                                formula=formula)
            assert stats.exit_code == EXIT_OK, cfg.mode
            if cfg.refresh_threshold is not None:
                assert stats.dumps, cfg.mode
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for _, owner, attr in targets] == originals
    for item, (cfg, names) in enumerate(ENGINES):
        missing = {n for n in names if item not in tracer.items_with(n)}
        assert not missing, (cfg.mode, missing)
