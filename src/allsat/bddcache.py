"""Formula-BDD caching: enumeration that builds an OBDD of all solutions and
memoizes solved subinstances by an encoded key.

Keys pair a cut index i with an exact code of the prefix assignment
``values[1..i]``, a bitset:

* cutset mode    - bit p set for each clause p of cutset(i) the prefix
                   satisfies;
* separator mode - bit v set for each variable v of separator(i) assigned
                   true.

The code at cut i follows from the code at cut i-1 and the value of
variable i alone, by the step tables ``CutStructure.steps`` of the mode:
``S[i] = S[i-1] & keep[i] | add[i][value of i]`` with ``S[0] = 0``.  So
``make_formula``, the one key function of both engines, has no branch on
the mode and extends a caller-owned list of prefix codes instead of
rescanning a cut: a lookup costs one step per cut past the end of the
list.

Equal keys imply logically equivalent subinstances, so a key lookup that
hits lets the search graft the cached OBDD node onto the current prefix and
backtrack immediately instead of re-exploring.  Keys are computed from the
prefix variables only; assignments propagation made beyond the prefix are
consequences of it and cannot break key soundness.

Two engines host the cache, and neither has a search loop of its own.  The
non-blocking engine (fixed variable order) runs ``NonBlockingSolver.run``
unchanged - the DPLL-with-formula-caching of Huang & Darwiche, "Using DPLL
for Efficient OBDD Construction" (SAT 2004) - with one lookup in its
decision step: a hit grafts the cached node and closes the branch, a miss
decides.  Pending keys enroll into the solved cache the moment backtracking
abandons their spine, so the node fills in as exhaustively as the search
itself does.  On the blocking engine, restarts abandon spines without
exhausting them, so early enrollment is unsound; there the cache instead
canonicalizes nodes at creation time, merging equivalent prefixes so every
individually enumerated solution streams into shared subgraphs.  Node
sharing is switched off when refreshing is active, because a dump must not
contain paths for solutions the search has yet to report.

Both engines add nodes through ``obdd.extend_obdd``, the one walk from the
root that creates them: a graft on the non-blocking engine, each reported
model on the blocking engine, whose cache lookup supplies the node for a
missing interior arc when sharing is on.  Both pass ``trail.values``
itself, which the walk reads by variable.  That walk visits the variables
in order, so each model starts a fresh list of codes and the lookups extend
it as the walk goes.

The non-blocking host always decides the first unassigned variable.  So a
cancel to level L unassigns exactly the variables at levels above L, all of
which have index >= d, the variable decided at level L+1; every variable
below d keeps its value.  The engine's per-step state follows the trail on
that invariant through two hooks, so each step touches only what it looks
up or what the cancel changed.  The lookup (``_next_decision``) moves the
cursor to the first unassigned variable, extends the codes to its cut and,
on a hit, grafts along ``trail.values`` from ``path_ok`` on.  The cancel
(``_before_cancel``) pops and enrolls the pending keys of the canceled
decisions and lowers the rest of the state to d:

* ``cursor``    - every variable below it is assigned; the lookup resumes
                  there, and a cancel lowers it to d;
* ``codes``     - the prefix codes at cuts 0, 1, ..., as far as the last
                  lookup reached; a cancel truncates them to cuts below d,
                  the next lookup extends them from there, and a refresh
                  leaves them alone, since they depend on the trail only;
* ``path``      - the OBDD path of the last graft, one (node, direction)
                  entry per prefix variable; ``path_ok`` counts its leading
                  entries whose variables kept their values since: a cancel
                  lowers it to d - 1 and a refresh to 0, and a graft walks
                  only the entries past it;
* ``pending_keys`` - the key of each miss by its cut.  A miss decides the
                  variable after its cut, so the pending cuts are those of
                  the standing decisions made on misses, in the order of
                  their levels, and a cancel pops the last ones, those at
                  cuts >= d - 1.  Each popped key whose cut lies below
                  ``path_ok`` (its decision stood through the last graft)
                  enrolls the path's node at that cut; the others lie past
                  the part of the path known to follow the trail.

The refresh threshold θ bounds the arena at θ - n nodes (n variables).
The non-blocking engine checks at each cancel, after enrollment, since the
backtrack that closes a grafted branch is the first cancel after the
graft.  Once the arena is full it first compacts it (``obdd.compact``):
every node off the last graft's path is final, so those nodes are
hash-consed by (variable, lo, hi) and renumbered, and the root, the solved
cache and the path follow the new ids.  The cache keeps every key, and the
keys stay charged to the memory budget.  Only if the compacted arena still
holds at least three quarters of θ - n does the refresh go on, so each
compaction follows at least (θ - n) / 4 fresh nodes.  The blocking engine
checks after each restart and does not compact, because a restart can
reopen any node.  A refresh dumps the diagram to disk, releases the bytes
accounted for its nodes and keys, and restarts all caching state empty;
the underlying search state is untouched, so dumped path sets partition
the solution set.  Dumps are independent parts, so a threshold below what
the final diagram needs after compaction still makes a run dump over and
over (README, known limit).  When the search ends, or a limit stops it,
``run_bdd`` counts the final diagram, sets ``solutions`` (final plus the
dumped parts), ``obdd_nodes`` and ``dumps`` in the engine's stats, and
writes the parts' manifest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .formula import Clause, CnfFormula, compute_cuts
from .kernel import Budget, LimitExceeded
from .nonblocking import NonBlockingConfig, NonBlockingSolver
from .obdd import (TOP, ObddStore, compact, count_models, dump,
                   extend_obdd)
from .blocking import BlockingConfig, BlockingSolver
from .trail import UNASSIGNED

CACHE_MODES = ("cutset", "separator")

# reserved key meaning "every variable assigned": always maps to the true sink
TOP_KEY: tuple = (math.inf, 1)

_NODE_BYTES = 24
_KEY_BYTES = 48


@dataclass
class RefreshPolicy:
    """OBDD size threshold and where dumped parts go.

    ``threshold`` of None disables refreshing.  A finite threshold θ must
    exceed the variable count n so a single path always fits.  The arena
    is refreshed at θ - n nodes: the non-blocking engine compacts it first
    and dumps only if at least three quarters of θ - n nodes remain,
    keeping the cache keys charged until then; the blocking engine dumps.
    """

    threshold: int | None = None
    dump_dir: str | Path = "."
    stem: str = "allsat"

    def validate(self, num_vars: int) -> None:
        if self.threshold is not None and self.threshold <= num_vars:
            raise ValueError(
                f"refresh threshold {self.threshold} must exceed the "
                f"variable count {num_vars}")

    def resolve_dir(self) -> Path:
        override = os.environ.get("ALLSAT_DUMP_DIR")
        return Path(override) if override else Path(self.dump_dir)


def make_formula(steps: tuple[list[int], list], values: list[int],
                 codes: list[int], cut_index) -> tuple:
    """Cache key of the subinstance induced by the prefix
    ``values[1..cut_index]`` (``values`` indexed by variable), under the
    step tables ``steps`` of one mode (``CutStructure.steps``).

    ``codes`` is the caller's prefix list: ``codes[i]`` is the code at cut
    i for every i below its length, starting from ``[0]``.  It is extended
    up to ``cut_index`` by the step recurrence.  ``cut_index`` of
    ``math.inf`` yields the reserved all-assigned key.
    """
    if cut_index == math.inf:
        return TOP_KEY
    keep, add = steps
    code = codes[-1]
    for v in range(len(codes), cut_index + 1):
        code = code & keep[v] | add[v][values[v]]
        codes.append(code)
    return (cut_index, codes[cut_index])


def _refresh(solver, shrink=None) -> bool:
    """Refresh step of both engines, once the arena reaches the threshold
    less the variable count (so one path always fits).

    ``shrink``, when given, runs first: it merges isomorphic nodes of the
    arena in place, and the refresh goes on only if the arena still holds
    at least three quarters of that limit.  So every compaction follows at
    least a quarter of the limit in fresh nodes; the cache keys it keeps
    stay charged to the budget until a dump.  The refresh dumps the
    diagram, releases the bytes accounted for its nodes and cached keys, and
    restarts the store and the solved cache empty.  Returns whether it
    dumped; the engine then clears whatever other cache state it keeps."""
    policy = solver.policy
    store = solver.store
    theta = policy.threshold
    if theta is None:
        return False
    limit = theta - solver.formula.num_vars
    if store.size < limit:
        return False
    if shrink is not None:
        shrink()
        if 4 * store.size < 3 * limit:
            return False
    directory = policy.resolve_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{policy.stem}.part{len(solver.dumps)}.obdd"
    count = count_models(store)
    try:
        with open(path, "w") as fh:
            dump(store, out=fh)
    except OSError as exc:
        raise RuntimeError(f"dump failed for {path}: {exc}") from exc
    solver.dumps.append((str(path), count))
    budget = solver.kernel.budget
    # every node and every key but TOP_KEY was charged exactly once
    budget.release(_NODE_BYTES * store.size
                   + _KEY_BYTES * (len(solver.solved) - 1))
    store.reset()
    solver.solved = {TOP_KEY: TOP}
    return True


@dataclass
class BddResult:
    store: ObddStore
    dumps: list[tuple[str, int]]    # (part file, models in it)
    final: int                      # models in the final diagram
    total: int                      # final plus every dumped part

    @property
    def dump_files(self) -> list[str]:
        return [f for f, _ in self.dumps]


def _run_bdd(solver) -> BddResult:
    """``run_bdd`` of both engines: run the search, then count the final
    diagram, set ``solutions``, ``obdd_nodes`` and ``dumps`` in the stats,
    and write ``<stem>.obdd.manifest`` next to the dumped parts, if any.
    A limit that stops the search gets the same bookkeeping before it
    propagates, so the stats then hold a lower bound."""
    try:
        solver.run()
    except LimitExceeded:
        _tally(solver)
        raise
    return _tally(solver)


def _tally(solver) -> BddResult:
    store, dumps, stats = solver.store, solver.dumps, solver.stats
    final = count_models(store)
    stats.solutions = final + sum(c for _, c in dumps)
    stats.obdd_nodes = store.size
    stats.dumps = len(dumps)
    if dumps:
        policy = solver.policy
        manifest = policy.resolve_dir() / f"{policy.stem}.obdd.manifest"
        with open(manifest, "w") as fh:
            for part, count in dumps:
                fh.write(f"{part} {count}\n")
            fh.write(f"final {final}\n")
    return BddResult(store, dumps, final, stats.solutions)


def _init_cache(solver, cache_mode: str,
                policy: RefreshPolicy | None) -> None:
    """Cache state both engines keep: the key mode's step tables, the
    refresh policy, the diagram, the solved cache and the dumped parts."""
    if cache_mode not in CACHE_MODES:
        raise ValueError(f"unknown cache mode {cache_mode!r}")
    formula = solver.formula
    solver.steps = compute_cuts(formula).steps[cache_mode]
    solver.policy = policy or RefreshPolicy()
    solver.policy.validate(formula.num_vars)
    solver.store = ObddStore(formula.num_vars)
    solver.solved = {TOP_KEY: TOP}
    solver.dumps = []


class BddSolver(NonBlockingSolver):
    """Non-blocking engine with the encode / extend / enroll stages wired
    into its decision step and every cancel."""

    def __init__(self, formula: CnfFormula,
                 cfg: NonBlockingConfig | None = None,
                 cache_mode: str = "cutset",
                 policy: RefreshPolicy | None = None,
                 budget: Budget | None = None):
        super().__init__(formula, cfg, sink=None, budget=budget,
                         fixed_order=True)
        _init_cache(self, cache_mode, policy)
        # codes of the prefix at cuts 0, 1, ... for the values on the trail
        self.codes = [0]
        # cut index -> code, in increasing cut order
        self.pending_keys: dict[int, int] = {}
        self.path: list[tuple[int, int]] = []
        # leading path entries whose variables kept their values since the
        # path was grafted
        self.path_ok = 0
        # every variable below the cursor is assigned
        self.cursor = 1

    # ------------------------------------------------------------------

    def _next_decision(self) -> int | None:
        """Encode stage: look the prefix below the first unassigned variable
        up.  A hit (every variable assigned always hits) grafts the solved
        node below the prefix and closes the branch; a miss leaves the key
        pending and decides the variable false."""
        k = self.kernel
        values = k.trail.values
        n = self.formula.num_vars
        i = self.cursor
        while i <= n and values[i] != UNASSIGNED:
            i += 1
        self.cursor = i
        key = make_formula(self.steps, values, self.codes,
                           i - 1 if i <= n else math.inf)
        node = self.solved.get(key)
        if node is None:
            k.stats.cache_misses += 1
            self.pending_keys[i - 1] = key[1]
            return -i
        if i <= n:
            k.stats.cache_hits += 1
        store = self.store
        before = store.size
        self.path = extend_obdd(store, node, values, i - 1, self.path,
                                self.path_ok)
        self.path_ok = len(self.path)
        k.budget.charge(_NODE_BYTES * (store.size - before))
        return None

    def _before_cancel(self, level: int) -> None:
        """Enroll stage: the pending keys a cancel to ``level`` completes
        migrate to the solved cache just before their spine is canceled.
        Variables below the canceled decision keep their values, so the
        cursor, the prefix codes and the valid path prefix drop to it."""
        t = self.kernel.trail
        if level >= t.level:
            return
        # under the fixed order, the decision of the lowest canceled level
        # is the lowest variable the cancel unassigns
        d = abs(t.decision_of(level + 1))
        # the pending keys at cuts >= d - 1 are the canceled decisions'; a
        # cut below path_ok has its node on the path (module docstring)
        pending = self.pending_keys
        path, path_ok = self.path, self.path_ok
        while pending and next(reversed(pending)) >= d - 1:
            cut, code = pending.popitem()
            if cut < path_ok:
                self.solved[(cut, code)] = path[cut][0]
                self.kernel.budget.charge(_KEY_BYTES)
        # only a graft adds nodes, and the backtrack closing its branch is
        # the first cancel after it: compact, and refresh if that is not
        # enough, once its keys are enrolled
        if (self.policy.threshold is not None
                and _refresh(self, self._compact)):
            pending.clear()
            self.path = []
            path_ok = 0
        self.cursor = min(self.cursor, d)
        del self.codes[d:]
        self.path_ok = min(path_ok, d - 1)

    def _compact(self) -> list[int]:
        """Merge the isomorphic nodes off the last graft's path and renumber
        the arena; returns the map from old to new node id.

        A graft writes arcs only along the trail's prefix, and the nodes
        that prefix reaches all lie on the last graft's path, so every node
        off it is final and merging it is sound.  The root, the solved
        cache and the path follow the new ids, and the merged nodes' bytes
        are released; the cache keeps its keys, still charged."""
        store = self.store
        before = store.size
        new = compact(store, {u for u, _ in self.path})
        self.path = [(new[u], b) for u, b in self.path]
        self.solved = {key: new[u] for key, u in self.solved.items()}
        self.kernel.budget.release(_NODE_BYTES * (before - store.size))
        return new

    run_bdd = _run_bdd


class BddBlockingSolver(BlockingSolver):
    """Blocking engine that materializes every reported solution as an OBDD
    path, with creation-time node merging keyed by the formula cache."""

    def __init__(self, formula: CnfFormula, cache_mode: str = "cutset",
                 policy: RefreshPolicy | None = None,
                 budget: Budget | None = None,
                 blocking_cfg: BlockingConfig | None = None):
        cfg = blocking_cfg or BlockingConfig()
        if cfg.simplify:
            raise ValueError("simplification emits partial cubes; the OBDD "
                             "path builder needs total assignments")
        super().__init__(formula, cfg, sink=None, budget=budget)
        _init_cache(self, cache_mode, policy)
        # sharing across equivalent prefixes is only sound when no dump can
        # freeze a node before the search finishes filling it
        self.sharing = self.policy.threshold is None
        self.sink = self._absorb

    def _absorb(self, cube: tuple[int, ...]) -> None:
        self._add_path()

    def _add_path(self) -> None:
        """Add the path of the total model on the trail."""
        store = self.store
        before = store.size
        self.codes = [0]
        extend_obdd(store, TOP, self.kernel.trail.values,
                    self.formula.num_vars,
                    new_node=self._shared_node if self.sharing else None)
        self.kernel.budget.charge(_NODE_BYTES * (store.size - before))

    def _shared_node(self, var: int) -> int:
        """Node for the subinstance below the trail's prefix of variables
        before ``var``: the cached node of an equivalent prefix, or a fresh
        one that is cached for the next."""
        key = make_formula(self.steps, self.kernel.trail.values, self.codes,
                           var - 1)
        node = self.solved.get(key)
        if node is not None:
            self.kernel.stats.cache_hits += 1
            return node
        node = self.store.new_node(var)
        self.solved[key] = node
        self.kernel.budget.charge(_KEY_BYTES)
        return node

    def _block_and_restart(self, clause: Clause) -> Clause | None:
        pending = super()._block_and_restart(clause)
        _refresh(self)
        return pending

    run_bdd = _run_bdd

