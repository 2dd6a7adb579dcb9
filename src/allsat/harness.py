"""Benchmark harness: single runs under limits, suite runs with CSV and
cactus-plot output, and differential verification against the oracle.

Solution counts are plain Python integers end to end; diagrams routinely
reach counts that overflow 64 bits.  Every fact about a solver mode is one
row of ``MODES``, which the CLI, validation, labels, runs and ``verify``
all read.
"""

from __future__ import annotations

import csv
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .bddcache import (CACHE_MODES, BddBlockingSolver, BddSolver,
                       RefreshPolicy)
from .blocking import BlockingSolver
from .formula import (CnfFormula, InputError, apply_order, choose_order,
                      from_clause_lists, parse_dimacs, read_order_file,
                      read_text, render_dimacs)
from .kernel import UIP_SCHEMES, Budget, LimitExceeded, SolverStats
from .nonblocking import STRATEGIES, NonBlockingSolver
# count_models is unused here; the benchmark's tracer wraps it by this name
from .obdd import count_models, dump
from .oracle import (GUARD_VARS, OracleGuardError, check_cube_cover,
                     clause_masks, enumerate_all, lits_masks)

EXIT_OK = 0
EXIT_LIMIT = 10
EXIT_INPUT = 20

OUTPUTS = ("count", "cubes", "obdd", "quiet")

# mode-specific RunConfig field -> (CLI option, allowed values of a choice,
# the value an unset choice stands for, label part of a set value)
FLAGS = {
    "uip": ("--uip", UIP_SCHEMES, "dlevel", "{}"),
    "backtrack": ("--backtrack", STRATEGIES, "bj", "{}"),
    "simplify": ("--simplify", (), None, "simplify"),
    "continue_search": ("--continue", (), None, "continue"),
    "cache": ("--cache", CACHE_MODES, "cutset", "{}"),
    "refresh_threshold": ("--refresh-threshold", (), None, "theta{}"),
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Mode:
    flags: tuple[str, ...] = ()   # the FLAGS it owns, in label order
    # cubes it emits: "total" (distinct models, both checked by verify),
    # "partial" (disjoint, covering the models) or None (no --output cubes)
    cubes: str | None = None
    # runs via run_bdd, which builds an OBDD, writes the manifest of its
    # dumped parts and fills the engine's stats in; --output obdd
    diagram: bool = False
    # (formula, cfg, emit, budget, policy) -> engine; the oracle has none
    build: Callable | None = None


MODES = {
    "blocking": Mode(
        ("simplify", "continue_search"), cubes="partial",
        build=lambda f, cfg, emit, budget, policy: BlockingSolver(
            f, simplify=cfg.simplify, continue_search=cfg.continue_search,
            sink=emit, budget=budget)),
    "nonblocking": Mode(
        ("uip", "backtrack"), cubes="total",
        build=lambda f, cfg, emit, budget, policy: NonBlockingSolver(
            f, uip=cfg.setting("uip"), backtrack=cfg.setting("backtrack"),
            sink=emit, budget=budget)),
    "bdd": Mode(
        ("uip", "backtrack", "cache", "refresh_threshold"), diagram=True,
        build=lambda f, cfg, emit, budget, policy: BddSolver(
            f, uip=cfg.setting("uip"), backtrack=cfg.setting("backtrack"),
            cache=cfg.setting("cache"), policy=policy, budget=budget)),
    "bdd-blocking": Mode(
        ("cache", "refresh_threshold"), diagram=True,
        build=lambda f, cfg, emit, budget, policy: BddBlockingSolver(
            f, cache=cfg.setting("cache"), policy=policy, budget=budget)),
    "oracle": Mode(),
}


@dataclass
class RunConfig:
    mode: str = "nonblocking"
    uip: str | None = None
    backtrack: str | None = None
    simplify: bool = False
    continue_search: bool = False
    cache: str | None = None
    refresh_threshold: int | None = None
    order_file: str | None = None
    time_limit: float | None = None
    mem_limit: int | None = None
    output: str = "quiet"

    def validate(self) -> None:
        mode = MODES.get(self.mode)
        if mode is None:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.output not in OUTPUTS:
            raise ConfigError(f"unknown output {self.output!r}")
        for name, (option, choices, _, _) in FLAGS.items():
            value = getattr(self, name)
            if value is None or value is False:
                continue
            if choices and value not in choices:
                raise ConfigError(f"unknown {option} value {value!r}")
            if name not in mode.flags:
                raise ConfigError(
                    f"{option} does not apply to {self.mode} mode")
        if (self.output == "cubes" and mode.cubes is None
                or self.output == "obdd" and not mode.diagram):
            raise ConfigError(
                f"--output {self.output} does not apply to {self.mode} mode")
        # written so that NaN fails too
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ConfigError(f"--time-limit {self.time_limit} is not a "
                              f"number of seconds >= 0")
        if self.mem_limit is not None and self.mem_limit < 0:
            raise ConfigError(f"--mem-limit {self.mem_limit} is negative")

    def label(self) -> str:
        parts = [self.mode]
        for name in MODES[self.mode].flags if self.mode in MODES else ():
            value = self.setting(name)
            if value is not None and value is not False:
                parts.append(FLAGS[name][3].format(value))
        return "+".join(parts)

    def setting(self, name: str):
        """A mode flag's value, or the value it stands for when unset."""
        value = getattr(self, name)
        return FLAGS[name][2] if value is None else value


@dataclass
class RunStats(SolverStats):
    """The engine's counters of one run plus what the harness records."""

    instance: str = ""
    config: str = ""
    solved: bool = False
    wall_time: float = 0.0
    peak_mem: int = 0
    exit_code: int = EXIT_OK
    error: str = ""

    CSV_COLUMNS = ("instance", "config", "solved", "solutions", "wall_time",
                   "peak_mem", "decisions", "conflicts", "propagations",
                   "learned_clauses", "blocking_clauses", "cache_hits",
                   "cache_misses", "obdd_nodes", "dumps", "exit_code",
                   "error")

    def csv_row(self) -> list:
        return [getattr(self, c) for c in self.CSV_COLUMNS]


def load_instance(path: str | Path, cfg: RunConfig,
                  formula: CnfFormula | None = None,
                  budget: Budget | None = None) -> CnfFormula:
    """The instance at ``path`` (or ``formula``, when given) under the
    variable order of ``cfg``: its order file's, or for a diagram mode
    without one the order ``choose_order`` picks.  ``budget`` binds the
    parse and that choice."""
    if formula is None:
        formula = parse_dimacs(read_text(path), budget)
    if cfg.order_file:
        perm = read_order_file(read_text(cfg.order_file), formula.num_vars)
        formula = apply_order(formula, perm)
    elif MODES[cfg.mode].diagram:
        formula = choose_order(formula, budget)
    return formula


def run_instance(path: str | Path, cfg: RunConfig, sink=None,
                 formula: CnfFormula | None = None,
                 out=None) -> RunStats:
    """Run one solver configuration on one instance under its limits.

    ``formula`` (if given) stands for the file at ``path``; the order of
    ``cfg`` applies to either.  ``sink`` (if given) receives each emitted
    cube in original variable names.  ``out`` is the stream for --output
    rendering (defaults to nothing; the CLI passes stdout).  With --output
    cubes each cube is written to it as the engine emits it, so the writes
    count in ``wall_time`` and against the time limit.  So does loading
    the instance, the choice of its order included.
    """
    stats = RunStats(instance=str(path), config=cfg.label())
    policy = RefreshPolicy(threshold=cfg.refresh_threshold,
                           dump_dir=Path(path).parent, stem=Path(path).stem)
    budget = Budget(time_limit=cfg.time_limit, mem_limit=cfg.mem_limit)
    start = time.monotonic()
    solver = None
    try:
        cfg.validate()
        f = load_instance(path, cfg, formula, budget)
        policy.validate(f.num_vars)
    except (ConfigError, InputError, ValueError) as exc:
        stats.exit_code = EXIT_INPUT
        stats.error = str(exc)
        return stats
    except LimitExceeded as exc:     # while the instance was loaded
        stats.exit_code = EXIT_LIMIT
        stats.error = str(exc)
    else:
        mode = MODES[cfg.mode]
        sinks = [sink] if sink is not None else []
        if cfg.output == "cubes" and out is not None:
            sinks.append(lambda cube: out.write(
                " ".join(map(str, cube)) + " 0\n"))

        to_external = f.external.__getitem__

        def emit(cube):
            external = tuple(map(to_external, cube))
            for s in sinks:
                s(external)

        try:
            budget.check_time()
            if mode.build is None:
                stats.solutions = enumerate_all(f, budget).count
            else:
                solver = mode.build(f, cfg, emit if sinks else None, budget,
                                    policy)
                # the engine fills its stats in, also when a limit stops it
                (solver.run_bdd if mode.diagram else solver.run)()
            stats.solved = True
        except LimitExceeded as exc:
            stats.exit_code = EXIT_LIMIT
            stats.error = str(exc)
        except OracleGuardError as exc:
            stats.exit_code = EXIT_INPUT
            stats.error = str(exc)
            return stats

    stats.wall_time = time.monotonic() - start
    stats.peak_mem = budget.peak_mem
    if solver is not None:
        for name, value in vars(solver.stats).items():
            setattr(stats, name, value)

    if out is not None and stats.exit_code != EXIT_INPUT:
        if cfg.output == "count":
            out.write(f"{stats.solutions}\n")
        elif cfg.output == "obdd" and solver is not None:
            out.write(dump(solver.store))
    return stats


# ----------------------------------------------------------------------
# suite runner

HISTOGRAM_BUCKETS = [(0, 10)] + [(10 ** k, 10 ** (k + 1)) for k in range(1, 14)] \
    + [(10 ** 14, None)]


def _bucket_of(count: int) -> int:
    for idx, (_, hi) in enumerate(HISTOGRAM_BUCKETS):
        if hi is None or count <= hi:
            return idx


def run_suite(directory: str | Path, configs: list[RunConfig],
              out_dir: str | Path, jobs: int = 1) -> list[RunStats]:
    """Run every config on every ``*.cnf`` file in ``directory``.

    Writes ``results.csv`` (one row per run), ``cactus.csv`` (per config,
    solved runs ranked by time), and ``histogram.csv`` (instances bucketed
    by powers of ten of the solution count, unsolved runs included by the
    count they reached).  Complete runs on oracle-sized instances are
    compared against the exhaustive count, which ``results.csv`` lists.
    A ``directory`` that is not one, or ``jobs`` below 1, is a ConfigError.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"{directory} is not a directory")
    if jobs < 1:
        raise ConfigError(f"--jobs {jobs} is below 1")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    instances = sorted(directory.glob("*.cnf"))
    tasks = [(inst, cfg) for inst in instances for cfg in configs]
    results: list[RunStats] = []
    oracle_counts: dict[str, int | None] = {}

    if jobs > 1 and tasks:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]

    for inst in instances:
        try:
            oracle_counts[str(inst)] = enumerate_all(
                parse_dimacs(read_text(inst))).count
        except (InputError, OracleGuardError):
            oracle_counts[str(inst)] = None
    mismatches = []
    for r in results:
        want = oracle_counts.get(r.instance)
        if r.solved and want is not None and r.solutions != want:
            mismatches.append(r)
            r.error = f"count {r.solutions} != oracle {want}"

    with open(out_path / "results.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(RunStats.CSV_COLUMNS) + ["oracle"])
        for r in results:
            want = oracle_counts.get(r.instance)
            w.writerow(r.csv_row() + ["" if want is None else want])

    with open(out_path / "cactus.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["config", "rank", "wall_time"])
        for cfg in configs:
            label = cfg.label()
            times = sorted(r.wall_time for r in results
                           if r.config == label and r.solved)
            for rank, t in enumerate(times, start=1):
                w.writerow([label, rank, f"{t:.6f}"])

    with open(out_path / "histogram.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["config", "bucket_low", "bucket_high", "instances"])
        for cfg in configs:
            label = cfg.label()
            counts = [0] * len(HISTOGRAM_BUCKETS)
            for r in results:
                if r.config == label and r.exit_code != EXIT_INPUT:
                    counts[_bucket_of(r.solutions)] += 1
            for (lo, hi), c in zip(HISTOGRAM_BUCKETS, counts):
                w.writerow([label, lo, hi if hi is not None else "inf", c])

    if mismatches:
        raise RuntimeError(
            f"{len(mismatches)} runs disagree with the oracle; see results.csv")
    return results


def _run_task(task) -> RunStats:
    inst, cfg = task
    return run_instance(inst, cfg)


# ----------------------------------------------------------------------
# differential verification

@dataclass
class VerifyReport:
    instance: str
    count_a: int
    count_b: int
    oracle_count: int | None
    ok: bool
    problems: list[str] = field(default_factory=list)
    counterexample: str | None = None
    input_error: bool = False   # a run rejected its input; nothing compared


def _collect_run(path, cfg: RunConfig, formula: CnfFormula):
    cubes: list[tuple[int, ...]] = []
    stats = run_instance(path, cfg, sink=cubes.append, formula=formula)
    return stats, cubes


def verify(path: str | Path, cfg_a: RunConfig, cfg_b: RunConfig,
           save_dir: str | Path | None = None) -> VerifyReport:
    """Run two configurations plus the oracle and cross-check counts,
    duplicates, non-models and cube overlaps.  Above the oracle guard too,
    every emitted cube must imply the formula, no cube may repeat, and the
    cubes must cover as many assignments as the run counts.  On mismatch a
    minimized counterexample is saved next to the instance (or in
    ``save_dir``).  An input error of either run is reported as such: no
    formula could make it go away, so there is nothing to minimize or save.
    Refresh dumps go next to the path a run is given, and verify never
    reads them, so its runs are given paths in a temporary directory that
    it removes."""
    try:
        formula = parse_dimacs(read_text(path))
    except InputError as exc:
        return VerifyReport(str(path), 0, 0, None, False, [f"{path}: {exc}"],
                            input_error=True)
    with tempfile.TemporaryDirectory() as scratch:
        report = _verify_formula(formula, cfg_a, cfg_b, str(path), scratch)
        if report.ok or report.input_error:
            return report
        counter = _minimize(formula, cfg_a, cfg_b, scratch)
    directory = Path(save_dir) if save_dir else Path(path).parent
    directory.mkdir(parents=True, exist_ok=True)
    stem = Path(path).stem
    cnf_path = directory / f"{stem}.counterexample.cnf"
    with open(cnf_path, "w") as fh:
        fh.write(render_dimacs(counter))
    meta_path = directory / f"{stem}.counterexample.json"
    with open(meta_path, "w") as fh:
        json.dump({"instance": str(path),
                   "config_a": cfg_a.label(),
                   "config_b": cfg_b.label(),
                   "problems": report.problems}, fh, indent=2)
    report.counterexample = str(cnf_path)
    return report


def _verify_formula(formula: CnfFormula, cfg_a: RunConfig, cfg_b: RunConfig,
                    name: str, scratch: str) -> VerifyReport:
    run_path = Path(scratch) / Path(name).name
    stats_a, cubes_a = _collect_run(run_path, cfg_a, formula)
    stats_b, cubes_b = _collect_run(run_path, cfg_b, formula)
    problems = [f"{s.config}: {s.error}" for s in (stats_a, stats_b)
                if s.exit_code == EXIT_INPUT]
    if problems:
        return VerifyReport(name, stats_a.solutions, stats_b.solutions, None,
                            False, problems, input_error=True)
    small = formula.num_vars <= GUARD_VARS
    clauses = [(p, q) for p, q in clause_masks(formula) if not p & q]
    oracle_count = enumerate_all(formula).count if small else None
    if stats_a.solved and stats_b.solved and stats_a.solutions != stats_b.solutions:
        problems.append(f"count mismatch: {stats_a.config}={stats_a.solutions} "
                        f"{stats_b.config}={stats_b.solutions}")
    for stats, cubes, cfg in ((stats_a, cubes_a, cfg_a),
                              (stats_b, cubes_b, cfg_b)):
        if not stats.solved:
            continue
        if oracle_count is not None and stats.solutions != oracle_count:
            problems.append(f"{stats.config}: count {stats.solutions} != "
                            f"oracle {oracle_count}")
        kind = MODES[cfg.mode].cubes
        if kind is None:
            continue
        masks = [lits_masks(c) for c in cubes]
        if len(masks) != len(set(masks)):
            what = "solutions" if kind == "total" else "cubes"
            problems.append(f"{stats.config}: duplicate {what}")
        # a cube implies the formula when it holds a literal of every
        # clause but the tautologies: O(m) per cube
        if bad := sum(not all(p & pos or q & neg for p, q in clauses)
                      for pos, neg in masks):
            what = "models" if kind == "total" else "implicants"
            problems.append(f"{stats.config}: {bad} cubes are not {what}")
        covered = sum(1 << (formula.num_vars - len(c)) for c in cubes)
        if covered != stats.solutions:
            problems.append(f"{stats.config}: cubes cover {covered} "
                            f"assignments, count {stats.solutions}")
        if kind == "partial" and small:
            ok, msg = check_cube_cover(cubes, formula)
            if not ok:
                problems.append(f"{stats.config}: {msg}")
    return VerifyReport(name, stats_a.solutions, stats_b.solutions,
                        oracle_count, not problems, problems)


def _minimize(formula: CnfFormula, cfg_a: RunConfig, cfg_b: RunConfig,
              scratch: str) -> CnfFormula:
    """A subset of the clauses on which the two configurations still
    disagree, by delta debugging (Zeller & Hildebrandt, TSE 2002): remove
    chunks of half, a quarter, ... of the clauses while the discrepancy
    survives, then single clauses until none can go.  So dropping any one
    clause of the result makes the discrepancy vanish."""
    if formula.num_vars > 15:
        return formula

    def fails(clauses) -> bool:
        candidate = from_clause_lists(formula.num_vars, clauses)
        return not _verify_formula(candidate, cfg_a, cfg_b, "minimize",
                                   scratch).ok

    current = list(formula.clauses)
    chunk = (len(current) + 1) // 2
    while chunk:
        removed = False
        i = 0
        while i < len(current):
            trial = current[:i] + current[i + chunk:]
            if fails(trial):
                current, removed = trial, True
            else:
                i += chunk
        if chunk > 1:
            chunk //= 2
        elif not removed:
            break
    return from_clause_lists(formula.num_vars, current)
