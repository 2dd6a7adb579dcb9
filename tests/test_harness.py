import csv
import importlib.util
import io
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from allsat import Budget, LimitExceeded, from_clause_lists, render_dimacs
from allsat.bddcache import CACHE_MODES
from allsat.cli import main, parse_config_string
from allsat.harness import (EXIT_INPUT, EXIT_LIMIT, EXIT_OK, FLAGS, MODES,
                            ConfigError, RunConfig, RunStats, run_instance,
                            run_suite, verify)
from allsat.nonblocking import STRATEGIES, UIP_SCHEMES

from conftest import TEST_TIME_LIMIT, literal_sets, random_3cnf, time_limit

EX41_TEXT = "p cnf 3 3\n1 -2 0\n2 -3 0\n3 -1 0\n"
EX31_TEXT = ("p cnf 6 5\n1 -3 0\n2 3 5 0\n-1 -3 4 0\n"
             "4 -5 6 0\n5 -6 0\n")


@pytest.fixture
def ex41_file(tmp_path):
    p = tmp_path / "ex41.cnf"
    p.write_text(EX41_TEXT)
    return p


@pytest.fixture
def ex31_file(tmp_path):
    p = tmp_path / "ex31.cnf"
    p.write_text(EX31_TEXT)
    return p


def test_run_instance_count(ex41_file):
    stats = run_instance(ex41_file, RunConfig(mode="blocking", output="count"))
    assert stats.solved and stats.solutions == 2
    assert stats.exit_code == EXIT_OK


def test_run_instance_all_modes_agree(ex31_file):
    for cfg in (RunConfig(mode="blocking"),
                RunConfig(mode="blocking", simplify=True),
                RunConfig(mode="blocking", simplify=True,
                          continue_search=True),
                RunConfig(mode="nonblocking", uip="sublevel", backtrack="cbj"),
                RunConfig(mode="bdd", cache="separator"),
                RunConfig(mode="bdd-blocking", cache="cutset"),
                RunConfig(mode="oracle")):
        stats = run_instance(ex31_file, cfg)
        assert stats.solutions == 22, cfg.label()


def test_simplified_blocking_reports_covered_assignments(ex31_file):
    """The cube count and the solution count differ under simplification;
    ``run`` and the statistics always report total assignments."""
    from allsat import BlockingSolver, parse_dimacs
    f = parse_dimacs(EX31_TEXT)
    cubes = []
    solver = BlockingSolver(f, simplify=True, sink=cubes.append)
    assert solver.run() == solver.stats.solutions == 22
    assert len(cubes) < 22
    report = verify(ex31_file, parse_config_string("--mode blocking --simplify"),
                    parse_config_string("--mode bdd --cache separator"))
    assert report.ok and report.count_a == 22


def test_zero_time_limit_is_immediate_partial(ex41_file):
    stats = run_instance(ex41_file,
                         RunConfig(mode="nonblocking", time_limit=0.0))
    assert not stats.solved
    assert stats.solutions == 0
    assert stats.exit_code == EXIT_LIMIT


def test_memory_limit_partial(ex31_file):
    stats = run_instance(ex31_file,
                         RunConfig(mode="blocking", mem_limit=64))
    assert stats.exit_code == EXIT_LIMIT


def test_unreadable_file_is_input_error(tmp_path):
    stats = run_instance(tmp_path / "missing.cnf", RunConfig())
    assert stats.exit_code == EXIT_INPUT


def test_invalid_flag_combinations():
    with pytest.raises(ConfigError):
        RunConfig(mode="blocking", uip="dlevel").validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="nonblocking", simplify=True).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="nonblocking", cache="cutset").validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="bdd-blocking", backtrack="bt").validate()
    RunConfig(mode="bdd", uip="sublevel", backtrack="bt",
              cache="separator").validate()


# a set value of each mode flag
FLAG_VALUES = {"uip": "sublevel", "backtrack": "cbj", "simplify": True,
               "continue_search": True, "cache": "separator",
               "refresh_threshold": 100}


@pytest.mark.parametrize("mode,name", [
    (mode, name) for mode, row in MODES.items() for name in FLAGS
    if name not in row.flags])
def test_foreign_flag_rejected_naming_flag_and_mode(mode, name):
    with pytest.raises(ConfigError) as info:
        RunConfig(mode=mode, **{name: FLAG_VALUES[name]}).validate()
    assert FLAGS[name][0] in str(info.value)
    assert mode in str(info.value)


@pytest.mark.parametrize("mode", MODES)
def test_owned_flags_accepted(mode):
    RunConfig(mode=mode, **{name: FLAG_VALUES[name]
                            for name in MODES[mode].flags}).validate()


@pytest.mark.parametrize("mode,output", [
    ("oracle", "cubes"), ("blocking", "obdd"), ("nonblocking", "obdd"),
    ("oracle", "obdd"), ("bdd", "cubes"), ("bdd-blocking", "cubes")])
def test_unsupported_output_is_input_error(ex41_file, mode, output, capsys):
    with pytest.raises(ConfigError):
        RunConfig(mode=mode, output=output).validate()
    code = main(["solve", str(ex41_file), "--mode", mode,
                 "--output", output])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert f"--output {output}" in captured.err and mode in captured.err


def test_labels_golden():
    """Labels of all 16 configurations and the oracle, plus defaults and
    refresh thresholds, as the CSV tables have always spelled them."""
    golden = {
        "nonblocking+sublevel+bt": RunConfig(uip="sublevel", backtrack="bt"),
        "nonblocking+sublevel+bj": RunConfig(uip="sublevel", backtrack="bj"),
        "nonblocking+sublevel+cbj": RunConfig(uip="sublevel",
                                              backtrack="cbj"),
        "nonblocking+sublevel+bjcbj": RunConfig(uip="sublevel",
                                                backtrack="bjcbj"),
        "nonblocking+dlevel+bt": RunConfig(uip="dlevel", backtrack="bt"),
        "nonblocking+dlevel+cbj": RunConfig(mode="nonblocking",
                                            backtrack="cbj"),
        "nonblocking+dlevel+bjcbj": RunConfig(backtrack="bjcbj"),
        "nonblocking+dlevel+bj": RunConfig(),
        "blocking": RunConfig(mode="blocking"),
        "blocking+simplify": RunConfig(mode="blocking", simplify=True),
        "blocking+continue": RunConfig(mode="blocking",
                                       continue_search=True),
        "blocking+simplify+continue": RunConfig(mode="blocking",
                                                simplify=True,
                                                continue_search=True),
        "bdd+dlevel+bj+cutset": RunConfig(mode="bdd"),
        "bdd+dlevel+bj+separator": RunConfig(mode="bdd", cache="separator"),
        "bdd-blocking+cutset": RunConfig(mode="bdd-blocking"),
        "bdd-blocking+separator": RunConfig(mode="bdd-blocking",
                                            cache="separator"),
        "oracle": RunConfig(mode="oracle"),
        "bdd+dlevel+bj+cutset+theta4": RunConfig(mode="bdd", uip="dlevel",
                                                 backtrack="bj",
                                                 cache="cutset",
                                                 refresh_threshold=4),
        "bdd+sublevel+cbj+separator+theta0": RunConfig(
            mode="bdd", uip="sublevel", backtrack="cbj", cache="separator",
            refresh_threshold=0),
        "bdd-blocking+cutset+theta10": RunConfig(mode="bdd-blocking",
                                                 refresh_threshold=10),
    }
    assert {label: cfg.label() for label, cfg in golden.items()} == \
        {label: label for label in golden}


def test_refresh_threshold_not_above_variables_is_input_error(ex41_file,
                                                              capsys):
    code = main(["solve", str(ex41_file), "--mode", "bdd",
                 "--refresh-threshold", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "refresh threshold 2" in captured.err
    report = verify(ex41_file, parse_config_string("--mode nonblocking"),
                    parse_config_string("--mode bdd-blocking "
                                        "--refresh-threshold 3"))
    assert not report.ok
    assert any("refresh threshold 3" in p for p in report.problems)


def test_verify_input_error_saves_no_counterexample(ex31_file, tmp_path,
                                                    capsys):
    """A configuration that rejects the instance is an input error, not a
    disagreement: verify lists it, minimizes nothing and exits 20."""
    code = main(["verify", str(ex31_file), "--a", "--mode nonblocking",
                 "--b", "--mode bdd --refresh-threshold 6"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "refresh threshold 6" in captured.err
    assert "MISMATCH" not in captured.out
    assert not list(tmp_path.glob("*.counterexample.*"))
    report = verify(ex31_file, parse_config_string("--mode nonblocking"),
                    parse_config_string("--mode bdd --refresh-threshold 6"),
                    save_dir=tmp_path / "saved")
    assert report.input_error and not report.ok
    assert report.counterexample is None
    assert not (tmp_path / "saved").exists()


@pytest.mark.parametrize("text, message", [("p cnf 2 1\n1 x 0\n", "bad token"),
                                           (None, "No such file")])
def test_verify_unreadable_instance_is_input_error(tmp_path, capsys, text,
                                                   message):
    """A malformed or missing instance ends verify with exit 20 and an
    error line instead of an exception, and saves nothing."""
    path = tmp_path / "bad.cnf"
    if text is not None:
        path.write_text(text)
    code = main(["verify", str(path), "--a", "--mode blocking",
                 "--b", "--mode nonblocking"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "error:" in captured.err and message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == ([path] if text else [])


def test_verify_applies_each_configurations_order(ex31_file, tmp_path,
                                                  capsys):
    """The --order of a configuration string applies in verify as in
    solve: a missing order file is an input error, a valid one runs."""
    missing = tmp_path / "missing.txt"
    code = main(["verify", str(ex31_file),
                 "--a", f"--mode bdd --order {missing}",
                 "--b", "--mode nonblocking"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "missing.txt" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [ex31_file]
    order = tmp_path / "order.txt"
    order.write_text("5\n3\n1\n4\n2\n6\n")
    code = main(["verify", str(ex31_file),
                 "--a", f"--mode bdd --order {order}",
                 "--b", f"--mode nonblocking --order {order}"])
    assert code == EXIT_OK
    assert "count=22" in capsys.readouterr().out


def test_run_instance_applies_the_order_to_a_given_formula(ex31_file,
                                                           tmp_path):
    from allsat import parse_dimacs
    cfg = RunConfig(order_file=str(tmp_path / "missing.txt"))
    stats = run_instance(ex31_file, cfg, formula=parse_dimacs(EX31_TEXT))
    assert stats.exit_code == EXIT_INPUT and "missing.txt" in stats.error


@pytest.mark.parametrize("text", ["p cnf 0 0\n", "p cnf 2 0\n"])
def test_formulas_without_clauses_match_the_oracle(tmp_path, capsys, text):
    """Every mode counts a clause-free formula, also one over no variables,
    like the oracle, and the diagram of each diagram mode loads back with
    the same count."""
    from allsat import count_models, load
    path = tmp_path / "free.cnf"
    path.write_text(text)
    assert main(["oracle", str(path)]) == EXIT_OK
    want = capsys.readouterr().out
    assert want.strip() == str(2 ** int(text.split()[2]))
    for mode, row in MODES.items():
        for cache in CACHE_MODES if "cache" in row.flags else (None,):
            flags = ["--mode", mode] + (["--cache", cache] if cache else [])
            assert main(["solve", str(path), *flags]) == EXIT_OK, flags
            assert capsys.readouterr().out == want, flags
            if row.diagram:
                assert main(["solve", str(path), *flags,
                             "--output", "obdd"]) == EXIT_OK, flags
                out = capsys.readouterr().out
                assert str(count_models(load(out))) == want.strip(), flags


def test_bench_records_refresh_threshold_error(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.cnf").write_text(EX41_TEXT)
    cfgs = tmp_path / "configs.txt"
    cfgs.write_text("--mode bdd --refresh-threshold 3\n--mode blocking\n")
    code = main(["bench", str(suite), "--configs", str(cfgs),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    with open(tmp_path / "out" / "results.csv") as fh:
        rows = {r["config"]: r for r in csv.DictReader(fh)}
    bdd = rows["bdd+dlevel+bj+cutset+theta3"]
    assert bdd["exit_code"] == "20"
    assert "refresh threshold 3" in bdd["error"]
    assert rows["blocking"]["exit_code"] == "0"


def test_trace_boundaries_resolve():
    """Every (owner, attribute) the benchmark's span tracer wraps exists, so
    a traced benchmark run can install its wrappers."""
    import allsat
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("allsat_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.boundaries(allsat)
    assert targets
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr, None)), (name, owner, attr)


def test_order_file_round_trip(ex31_file, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("5\n3\n1\n4\n2\n6\n")
    stats = run_instance(ex31_file, RunConfig(mode="bdd",
                                              order_file=str(order)))
    assert stats.solutions == 22


def test_obdd_output_under_an_order_names_the_original_variables(
        tmp_path, capsys):
    """With ``p cnf 2 1``, the clause ``1 0`` and the order file ``2``,
    ``1``, the diagram's position 2 is the original x1: the dump says so
    in an ``order 2 1`` line, and read through it, the loaded diagram's
    models are those with x1 true."""
    from allsat import load
    from allsat.obdd import iter_paths
    cnf, order = tmp_path / "p.cnf", tmp_path / "order.txt"
    cnf.write_text("p cnf 2 1\n1 0\n")
    order.write_text("2\n1\n")
    code = main(["solve", str(cnf), "--mode", "bdd", "--order", str(order),
                 "--output", "obdd"])
    text = capsys.readouterr().out
    assert code == EXIT_OK
    assert text.splitlines()[1] == "order 2 1"
    store = load(text)
    models = {frozenset((store.order[v], value) for v, value in path)
              for path in iter_paths(store)}
    assert models == {frozenset({(1, 1), (2, 0)}),
                      frozenset({(1, 1), (2, 1)})}


# sha256 of the dump of the criterion-5 chain in bdd mode, under either
# cache, before the diagram modes chose their own order
CRITERION5_DUMP = \
    "f6de28a2a3e65e669722683563af459a10b8ce6cff3dfb2600b7c32c706a6d80"


@pytest.mark.parametrize("cache", CACHE_MODES)
def test_narrow_input_keeps_its_order_and_its_dump(tmp_path, cache):
    """The criterion-5 chain is narrow: bdd keeps its order, so its dump
    has no order line and the same bytes as before orders were chosen."""
    import hashlib
    f = from_clause_lists(60, [[k, -(k + 1)] for k in range(1, 12)])
    out = io.StringIO()
    stats = run_instance(tmp_path / "c5.cnf",
                         RunConfig(mode="bdd", cache=cache, output="obdd"),
                         formula=f, out=out)
    assert stats.solutions == 13 << 48
    assert "order" not in out.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() \
        == CRITERION5_DUMP


def test_identity_order_file_runs_in_the_input_order(tmp_path):
    """An identity order file keeps a wide input's own order, as in the
    paper's given-order setting: the run's counters are those of the
    engine on the formula as given, while without the file the diagram
    mode chooses another order and searches differently."""
    from allsat import BddSolver
    f = random_3cnf(random.Random(1), 10, 30)
    direct = BddSolver(f)
    direct.run_bdd()
    order = tmp_path / "identity.txt"
    order.write_text("".join(f"{v}\n" for v in range(1, 11)))
    given = run_instance(tmp_path / "r.cnf",
                         RunConfig(mode="bdd", order_file=str(order)),
                         formula=f)
    chosen = run_instance(tmp_path / "r.cnf", RunConfig(mode="bdd"),
                          formula=f)
    fields = ("solutions", "decisions", "cache_hits", "cache_misses",
              "obdd_nodes")
    assert [getattr(given, k) for k in fields] == \
        [getattr(direct.stats, k) for k in fields]
    assert chosen.solutions == given.solutions
    assert [getattr(chosen, k) for k in fields] != \
        [getattr(given, k) for k in fields]


def test_choosing_the_order_counts_in_wall_time(tmp_path, monkeypatch):
    import allsat.harness as H
    real = H.choose_order

    def slow(f, budget):
        time.sleep(0.05)
        return real(f, budget)

    monkeypatch.setattr(H, "choose_order", slow)
    stats = run_instance(tmp_path / "r.cnf", RunConfig(mode="bdd"),
                         formula=random_3cnf(random.Random(1), 10, 30))
    assert stats.exit_code == EXIT_OK and stats.wall_time >= 0.05


def test_time_limit_stops_a_run_while_its_order_is_chosen(tmp_path,
                                                          monkeypatch):
    """A deadline that passes at any of the clock reads of FORCE, the
    first reads of a diagram run on a wide input, stops the run there:
    exit 10, a count of 0, and no engine built."""
    import allsat.formula
    import allsat.harness as H
    import allsat.kernel
    from conftest import StopClock
    f = random_3cnf(random.Random(4), 300, 2200)
    clock = StopClock()
    monkeypatch.setattr(allsat.kernel, "time", clock)
    allsat.formula.force_order(f, Budget(time_limit=60.0))
    reads = clock.calls
    assert reads >= 3
    real, stopped = allsat.formula.force_order, []

    def watched(*args):
        try:
            return real(*args)
        except LimitExceeded:
            stopped.append(True)
            raise

    def refuse(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(allsat.formula, "force_order", watched)
    monkeypatch.setattr(H, "BddSolver", refuse)
    for stop in (0, reads // 2, reads - 1):
        monkeypatch.setattr(allsat.kernel, "time", StopClock(stop))
        stats = run_instance(tmp_path / "r.cnf",
                             RunConfig(mode="bdd", time_limit=60.0),
                             formula=f)
        assert stats.exit_code == EXIT_LIMIT and stats.solutions == 0, stop
        assert stats.error == "time limit exceeded"
    assert len(stopped) == 3


def test_cube_output_in_original_names(ex31_file, tmp_path, capsys):
    order = tmp_path / "order.txt"
    order.write_text("5\n3\n1\n4\n2\n6\n")
    buf = io.StringIO()
    stats = run_instance(ex31_file,
                         RunConfig(mode="nonblocking", output="cubes",
                                   order_file=str(order)),
                         out=buf)
    lines = [l for l in buf.getvalue().splitlines() if l]
    assert len(lines) == 22
    masks = set()
    for line in lines:
        lits = [int(t) for t in line.split()]
        assert lits[-1] == 0
        lits = lits[:-1]
        assert sorted(abs(l) for l in lits) == [1, 2, 3, 4, 5, 6]
        masks.add(frozenset(lits))
    from allsat import enumerate_all, parse_dimacs
    want = literal_sets(enumerate_all(parse_dimacs(EX31_TEXT)))
    assert masks == want


@pytest.mark.parametrize("flags", ["--mode blocking",
                                   "--mode blocking --simplify",
                                   "--mode nonblocking --backtrack cbj"])
def test_cube_output_is_streamed(ex31_file, flags):
    """Each cube is on ``out`` before the engine emits the next one, so the
    run holds no list of its cubes, and the lines are the emitted cubes."""
    cfg = parse_config_string(flags)
    cfg.output = "cubes"
    buf = io.StringIO()
    seen = []

    def check(cube):
        assert buf.getvalue().count("\n") == len(seen)
        seen.append(cube)

    stats = run_instance(ex31_file, cfg, sink=check, out=buf)
    assert stats.exit_code == EXIT_OK and len(seen) > 1
    assert buf.getvalue().splitlines() == [
        " ".join(map(str, cube)) + " 0" for cube in seen]


def test_run_suite_outputs(tmp_path, ex41_file, ex31_file):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.cnf").write_text(EX41_TEXT)
    (suite / "b.cnf").write_text(EX31_TEXT)
    configs = [parse_config_string("--mode blocking"),
               parse_config_string("--mode bdd --cache cutset")]
    out = tmp_path / "out"
    results = run_suite(suite, configs, out)
    assert len(results) == 4
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["solutions"] for r in rows} == {"2", "22"}
    assert all(r["oracle"] == r["solutions"] for r in rows)
    with open(out / "cactus.csv") as fh:
        cactus = list(csv.DictReader(fh))
    assert [r["rank"] for r in cactus if r["config"] == "blocking"] == ["1", "2"]
    with open(out / "histogram.csv") as fh:
        hist = list(csv.DictReader(fh))
    blocking_rows = {(r["bucket_low"], r["bucket_high"]): int(r["instances"])
                     for r in hist if r["config"] == "blocking"}
    assert blocking_rows[("0", "10")] == 1
    assert blocking_rows[("10", "100")] == 1


def test_run_suite_empty_dir(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    out = tmp_path / "out"
    results = run_suite(empty, [RunConfig(mode="blocking")], out)
    assert results == []
    assert (out / "results.csv").exists()


def test_run_suite_records_failures(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "slow.cnf").write_text(EX31_TEXT)
    cfg = RunConfig(mode="nonblocking", time_limit=0.0)
    results = run_suite(suite, [cfg], tmp_path / "out")
    assert len(results) == 1
    assert results[0].exit_code == EXIT_LIMIT


def test_verify_agreeing_configs(ex41_file):
    report = verify(ex41_file, parse_config_string("--mode blocking"),
                    parse_config_string("--mode nonblocking"))
    assert report.ok
    assert report.count_a == report.count_b == 2
    assert report.oracle_count == 2


def test_verify_bdd_modes(ex31_file):
    report = verify(ex31_file,
                    parse_config_string("--mode bdd --cache cutset"),
                    parse_config_string("--mode bdd --cache separator"))
    assert report.ok and report.count_a == 22


def test_verify_detects_corruption(ex41_file, tmp_path, monkeypatch):
    """Negative control: a solver reporting one solution short must trip."""
    import allsat.harness as H
    real = H.BlockingSolver

    class Broken(real):
        def run(self):
            count = super().run()
            self.stats.solutions -= 1     # drop one found solution
            return count

    monkeypatch.setattr(H, "BlockingSolver", Broken)
    report = verify(ex41_file, parse_config_string("--mode blocking"),
                    parse_config_string("--mode nonblocking"),
                    save_dir=tmp_path)
    assert not report.ok
    assert report.counterexample and Path(report.counterexample).exists()


def test_minimized_counterexample_is_one_minimal(tmp_path, monkeypatch):
    """Negative control: a blocking engine that reports one model short
    whenever the formula has fewer than 2^(n-1) models.  verify fails and
    saves a counterexample with fewer clauses, which still fails, while
    dropping any one of its clauses makes the two configurations agree."""
    import allsat.harness as H
    from allsat import parse_dimacs
    real = H.BlockingSolver

    class Broken(real):
        def run(self):
            count = super().run()
            if count < 2 ** (self.kernel.n - 1):
                self.stats.solutions -= 1
            return count

    monkeypatch.setattr(H, "BlockingSolver", Broken)
    f = random_3cnf(random.Random(1), 8, 14)
    path = tmp_path / "p8.cnf"
    path.write_text(render_dimacs(f))
    configs = [parse_config_string(s) for s in
               ("--mode blocking", "--mode nonblocking")]
    report = verify(path, *configs, save_dir=tmp_path / "saved")
    assert not report.ok and report.counterexample
    counter = parse_dimacs(Path(report.counterexample).read_text())
    assert 0 < counter.num_clauses < f.num_clauses

    def agree(clauses) -> bool:
        return H._verify_formula(from_clause_lists(8, clauses), *configs,
                                 "check", str(tmp_path)).ok

    clauses = [list(c) for c in counter.clauses]
    assert not agree(clauses)
    for i in range(len(clauses)):
        assert agree(clauses[:i] + clauses[i + 1:]), i


def test_verify_leaves_no_dumps(tmp_path, monkeypatch):
    """Refresh runs of an agreeing and of a mismatching pair (whose
    minimization reruns both many times) leave no part or manifest in the
    working directory or next to the instance."""
    import allsat.harness as H
    monkeypatch.delenv("ALLSAT_DUMP_DIR", raising=False)
    cwd, instances, saved = (tmp_path / d for d in ("cwd", "in", "saved"))
    cwd.mkdir()
    instances.mkdir()
    monkeypatch.chdir(cwd)
    path = instances / "p8.cnf"
    path.write_text(render_dimacs(random_3cnf(random.Random(1), 8, 14)))
    refresh = parse_config_string("--mode bdd --refresh-threshold 10")
    assert verify(path, refresh, parse_config_string("--mode blocking")).ok

    class Broken(H.BlockingSolver):
        def run(self):
            count = super().run()
            self.stats.solutions -= 1     # drop one found solution
            return count

    monkeypatch.setattr(H, "BlockingSolver", Broken)
    report = verify(path, refresh, parse_config_string("--mode blocking"),
                    save_dir=saved)
    assert not report.ok and report.counterexample
    assert list(cwd.iterdir()) == [] and list(instances.iterdir()) == [path]


@pytest.mark.parametrize("engine,flags,problem", [
    ("NonBlockingSolver", "--mode nonblocking", "duplicate solutions"),
    ("BlockingSolver", "--mode blocking", "overlap")])
def test_verify_checks_cubes_by_kind(ex31_file, tmp_path, monkeypatch,
                                     engine, flags, problem):
    """Negative control for the per-mode cube checks: an engine that
    emits its first cube twice is caught by its mode's check."""
    import allsat.harness as H
    real = getattr(H, engine)

    class Repeating(real):
        def run(self):
            sink, first = self.sink, []

            def emit(cube):
                sink(cube)
                if not first:
                    first.append(cube)
                    sink(cube)
            self.sink = emit
            return super().run()

    monkeypatch.setattr(H, engine, Repeating)
    report = verify(ex31_file, parse_config_string(flags),
                    parse_config_string("--mode oracle"), save_dir=tmp_path)
    assert any(problem in p for p in report.problems), report.problems


def test_verify_checks_that_total_cubes_are_models(tmp_path, monkeypatch):
    """Negative control for the model check: a nonblocking engine whose
    sink receives 31 distinct non-models in place of its 31 models keeps
    the count and has no duplicates, and verify still fails; agreeing
    configurations still pass."""
    import allsat.harness as H
    from allsat.oracle import enumerate_all, mask_to_lits
    f = random_3cnf(random.Random(1), 8, 14)
    models = set(enumerate_all(f).masks)
    assert len(models) == 31
    non_models = [mask_to_lits(m, 8) for m in range(256) if m not in models]
    path = tmp_path / "p8.cnf"
    path.write_text(render_dimacs(f))
    configs = [parse_config_string(s) for s in
               ("--mode nonblocking", "--mode oracle", "--mode blocking")]
    assert verify(path, configs[0], configs[1]).ok
    real = H.NonBlockingSolver

    class Lying(real):
        def run(self):
            sink, wrong = self.sink, iter(non_models)
            self.sink = lambda cube: sink(next(wrong, cube))
            return super().run()

    monkeypatch.setattr(H, "NonBlockingSolver", Lying)
    report = verify(path, configs[0], configs[2], save_dir=tmp_path)
    assert not report.ok and report.count_a == report.count_b == 31
    assert report.problems == [
        "nonblocking+dlevel+bj: 31 cubes are not models"]


@pytest.mark.parametrize("fault,problem", [
    ("non-implicant", "1 cubes are not implicants"),
    ("dropped", "cubes cover 196 assignments, count 204")])
def test_verify_checks_partial_cubes_above_the_oracle_guard(
        tmp_path, monkeypatch, fault, problem):
    """Negative controls for the partial-cube checks on 30 variables, where
    no oracle runs: a blocking sink that gets, for its first cube, one of
    the same length that falsifies the first clause (same count, no
    overlap check), or that never gets its first cube.  Agreeing
    configurations still pass."""
    import allsat.harness as H
    f = random_3cnf(random.Random(2), 30, 120)
    path = tmp_path / "p30.cnf"
    path.write_text(render_dimacs(f))
    configs = [parse_config_string(s) for s in
               ("--mode blocking --simplify", "--mode nonblocking")]
    report = verify(path, *configs)
    assert report.ok and report.oracle_count is None
    assert report.count_a == report.count_b == 204
    falsify = [-l for l in f.clauses[0]]
    real = H.BlockingSolver

    class Faulty(real):
        def run(self):
            sink, first = self.sink, []

            def emit(cube):
                if first:
                    return sink(cube)
                first.append(cube)
                if fault == "non-implicant":
                    assert len(cube) >= len(falsify)
                    vs = {abs(l) for l in falsify}
                    wrong = falsify + [l for l in cube if abs(l) not in vs]
                    sink(tuple(sorted(wrong[:len(cube)], key=abs)))
            self.sink = emit
            return super().run()

    monkeypatch.setattr(H, "BlockingSolver", Faulty)
    report = verify(path, *configs, save_dir=tmp_path)
    assert not report.ok and report.count_a == report.count_b == 204
    assert report.problems == [f"blocking+simplify: {problem}"]


def test_verify_flags_a_repeated_partial_cube_above_the_oracle_guard(
        tmp_path, monkeypatch):
    """Negative control for a repeated partial cube on 30 variables, where
    no oracle runs: a blocking engine that emits its first cube twice and
    counts it twice, verified against itself, agrees on the count, emits
    only implicants and covers what it counts, and verify still fails."""
    import allsat.harness as H
    f = random_3cnf(random.Random(2), 30, 120)
    path = tmp_path / "p30.cnf"
    path.write_text(render_dimacs(f))
    config = parse_config_string("--mode blocking --simplify")
    assert verify(path, config, config).ok

    class Repeating(H.BlockingSolver):
        repeated = False

        def _emit(self, lits):
            super()._emit(lits)
            if not self.repeated:
                self.repeated = True
                super()._emit(lits)

    monkeypatch.setattr(H, "BlockingSolver", Repeating)
    report = verify(path, config, config, save_dir=tmp_path)
    assert report.count_a == report.count_b > 204
    assert report.problems == ["blocking+simplify: duplicate cubes"] * 2


# ----------------------------------------------------------------------
# CLI surface

def test_cli_solve_count(ex41_file, capsys):
    code = main(["solve", str(ex41_file), "--mode", "blocking",
                 "--output", "count"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip() == "2"


def test_cli_solve_obdd(ex41_file, capsys):
    code = main(["solve", str(ex41_file), "--mode", "bdd",
                 "--output", "obdd"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("obdd ")
    from allsat import count_models, load
    assert count_models(load(out)) == 2


def test_cli_solve_bad_combination(ex41_file, capsys):
    code = main(["solve", str(ex41_file), "--mode", "blocking",
                 "--cache", "cutset"])
    assert code == EXIT_INPUT


def test_a_file_run_stops_in_the_parse(tmp_path, monkeypatch):
    """A deadline that passes at the parser's first clock read, after
    1,024 lines of the file, stops the run there: exit 10 with no engine
    built, from run_instance and from the CLI."""
    import allsat.harness as H
    import allsat.kernel
    from conftest import StopClock
    path = tmp_path / "long.cnf"
    path.write_text(render_dimacs(random_3cnf(random.Random(5), 300, 1100)))
    real, stopped = H.parse_dimacs, []

    def watched(*args):
        try:
            return real(*args)
        except LimitExceeded:
            stopped.append(True)
            raise

    def refuse(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(H, "parse_dimacs", watched)
    monkeypatch.setattr(H, "NonBlockingSolver", refuse)
    monkeypatch.setattr(allsat.kernel, "time", StopClock(0))
    stats = run_instance(path, RunConfig(mode="nonblocking",
                                         time_limit=60.0))
    assert stats.exit_code == EXIT_LIMIT and stats.solutions == 0
    assert stats.error == "time limit exceeded"
    assert main(["solve", str(path), "--mode", "nonblocking",
                 "--time-limit", "60"]) == EXIT_LIMIT
    assert len(stopped) == 2


def test_cli_solve_time_limit_exit(ex31_file):
    code = main(["solve", str(ex31_file), "--mode", "nonblocking",
                 "--time-limit", "0"])
    assert code == EXIT_LIMIT


def test_cli_oracle_honours_the_time_limit(tmp_path):
    """The oracle evaluates all 2^24 assignments of a 24-variable file, far
    more than fit in the limit."""
    path = tmp_path / "c24.cnf"
    path.write_text("p cnf 24 3\n1 2 0\n-3 4 0\n5 -24 0\n")
    code = main(["solve", str(path), "--mode", "oracle",
                 "--time-limit", "0.1"])
    assert code == EXIT_LIMIT


@pytest.mark.parametrize("flags, message", [
    (["--time-limit", "-1"], "--time-limit -1.0"),
    (["--time-limit", "nan"], "--time-limit nan"),
    (["--mem-limit", "-5"], "--mem-limit -5")])
def test_invalid_limits_are_input_errors(ex31_file, tmp_path, capsys, flags,
                                         message):
    """A negative or NaN limit is rejected by solve and bench, recorded as
    an input error row by a suite run and listed by verify, never run as a
    limit."""
    code = main(["solve", str(ex31_file), "--mode", "nonblocking"] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert f"error: {message}" in captured.err and captured.out == ""
    cfg = parse_config_string("--mode blocking " + " ".join(flags))
    [row] = run_suite(ex31_file.parent, [cfg], tmp_path / "out")
    assert row.exit_code == EXIT_INPUT and message in row.error
    assert not row.solved and row.solutions == 0
    cfgs = tmp_path / "configs.txt"
    cfgs.write_text("--mode nonblocking\n--mode blocking " + " ".join(flags))
    code = main(["bench", str(ex31_file.parent), "--configs", str(cfgs),
                 "--out", str(tmp_path / "bench")])
    assert code == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    report = verify(ex31_file, parse_config_string("--mode nonblocking"),
                    cfg)
    assert report.input_error and any(message in p for p in report.problems)
    code = main(["verify", str(ex31_file), "--a", "--mode nonblocking",
                 "--b", " ".join(flags)])
    assert code == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err


def test_zero_limits_are_limits_not_input_errors():
    RunConfig(time_limit=0.0, mem_limit=0).validate()
    RunConfig(time_limit=math.inf).validate()


def test_cli_time_limit_stops_a_long_run_on_time(tmp_path):
    """The 60-variable chain of acceptance criterion 5 has 13 * 2^48
    models, far more than nonblocking enumerates in the limit: the run
    stops at the limit, a bounded time after it."""
    chain = [[k, -(k + 1)] for k in range(1, 12)]
    path = tmp_path / "f60.cnf"
    path.write_text(render_dimacs(from_clause_lists(60, chain)))
    limit = 0.5
    started = time.monotonic()
    with time_limit(limit + 10):
        code = main(["solve", str(path), "--mode", "nonblocking",
                     "--time-limit", str(limit)])
    elapsed = time.monotonic() - started
    assert code == EXIT_LIMIT
    assert limit <= elapsed < limit + 1.0


def test_budget_deadline():
    assert Budget().deadline == math.inf
    Budget().check_time()
    budget = Budget(time_limit=2.5)
    assert budget.deadline == budget.started + 2.5
    with pytest.raises(LimitExceeded):
        Budget(time_limit=0.0).check_time()


def test_cli_oracle(ex31_file, capsys):
    code = main(["oracle", str(ex31_file)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "22"


def test_cli_verify(ex41_file, capsys):
    code = main(["verify", str(ex41_file), "--a", "--mode blocking",
                 "--b", "--mode bdd --cache cutset"])
    assert code == EXIT_OK
    assert "agree" in capsys.readouterr().out


def test_cli_bench(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.cnf").write_text(EX41_TEXT)
    cfgs = tmp_path / "configs.txt"
    cfgs.write_text("# two configs\n--mode blocking\n--mode nonblocking\n")
    code = main(["bench", str(suite), "--configs", str(cfgs),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("target, jobs, message", [
    ("missing", "1", "is not a directory"),
    ("file", "1", "is not a directory"),
    ("suite", "0", "--jobs 0 is below 1")])
def test_cli_bench_input_errors(tmp_path, capsys, target, jobs, message):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.cnf").write_text(EX41_TEXT)
    paths = {"missing": tmp_path / "missing", "file": suite / "a.cnf",
             "suite": suite}
    cfgs = tmp_path / "configs.txt"
    cfgs.write_text("--mode blocking\n")
    code = main(["bench", str(paths[target]), "--configs", str(cfgs),
                 "--out", str(tmp_path / "out"), "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "error:" in captured.err and message in captured.err
    assert "runs" not in captured.out
    assert not (tmp_path / "out").exists()


def cli_env() -> dict:
    """Environment in which a child process imports the package under
    test, installed or not."""
    import allsat
    src = str(Path(allsat.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "allsat.cli", "--help"],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_closed_stdout_ends_the_run_with_exit_141(tmp_path):
    """A reader that stops early (``| head -1``) ends the run with one
    error line and exit 141, not a traceback.  The 2^14 cubes of the
    clause-free formula, about 700 KB, overfill the pipe."""
    cnf = tmp_path / "free.cnf"
    cnf.write_text("p cnf 14 0\n")
    with subprocess.Popen(
            [sys.executable, "-m", "allsat.cli", "solve", str(cnf),
             "--mode", "nonblocking", "--output", "cubes"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=cli_env()) as proc:
        assert proc.stdout.readline().endswith(" 0\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err
    assert err.count("c error:") == 1


def test_closed_stdout_and_stderr_end_the_run_with_exit_141(tmp_path):
    """With stderr on the same pipe (``2>&1 | head -1``) the error line
    cannot be written either; the run still ends with exit 141."""
    cnf = tmp_path / "free.cnf"
    cnf.write_text("p cnf 14 0\n")
    with subprocess.Popen(
            [sys.executable, "-m", "allsat.cli", "solve", str(cnf),
             "--mode", "nonblocking", "--output", "cubes"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=cli_env()) as proc:
        assert proc.stdout.readline().endswith(" 0\n")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141


def test_determinism(ex31_file):
    cfg = RunConfig(mode="nonblocking")
    a = run_instance(ex31_file, cfg)
    b = run_instance(ex31_file, cfg)
    for field in ("solutions", "decisions", "conflicts", "propagations",
                  "learned_clauses"):
        assert getattr(a, field) == getattr(b, field)


def test_reused_formula_runs_identically():
    """Solvers work on their own clause copies: a second run on the same
    CnfFormula repeats every counter, and the formula is left unchanged."""
    f = random_3cnf(random.Random(7), 12, 40)
    text = render_dimacs(f)
    configs = ([RunConfig(mode="nonblocking", uip=u, backtrack=b)
                for u in UIP_SCHEMES for b in STRATEGIES]
               + [RunConfig(mode="blocking", simplify=s, continue_search=c)
                  for s in (False, True) for c in (False, True)]
               + [RunConfig(mode=m, cache=c)
                  for m in ("bdd", "bdd-blocking") for c in CACHE_MODES])
    counters = [c for c in RunStats.CSV_COLUMNS
                if c not in ("instance", "wall_time")]
    for cfg in configs:
        a = run_instance("reused.cnf", cfg, formula=f)
        b = run_instance("reused.cnf", cfg, formula=f)
        assert ([getattr(a, c) for c in counters]
                == [getattr(b, c) for c in counters]), cfg.label()
    assert render_dimacs(f) == text


def test_time_limit_restores_the_outer_timer():
    """A nested limit arms the outer one again with what is left of it, as
    the per-test limit around this test is armed again."""
    with time_limit(50):
        with time_limit(1):
            pass
        left, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 49 < left <= 50
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_TIME_LIMIT
    with pytest.raises(TimeoutError, match="after 0.05 s"):
        with time_limit(0.05):
            with time_limit(1):
                time.sleep(0.1)
            time.sleep(1)
