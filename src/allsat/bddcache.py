"""Formula-BDD caching: enumeration that builds an OBDD of all solutions and
memoizes solved subinstances by an encoded key.

Cut i (0 <= i <= n) is the boundary between variables <= i and > i.  A
clause spans it when its smallest variable is <= i and its largest is > i;
cutset(i) is the spanning clauses and separator(i) their variables <= i.
Keys pair a cut index i with an exact code of the prefix assignment
``values[1..i]``, a bitset:

* cutset mode    - bit p set for each clause p of cutset(i) the prefix
                   satisfies;
* separator mode - bit v set for each variable v of separator(i) assigned
                   true.

The code at cut i follows from the code at cut i-1 and the value of
variable i alone, by the step tables ``compute_cuts`` builds for the mode:
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
non-blocking engine (index order, by its own cursor) runs the shared loop
``Engine.run`` unchanged - the DPLL-with-formula-caching of
Huang & Darwiche, "Using DPLL for Efficient OBDD Construction" (SAT 2004) -
with one lookup in its decision step: a hit grafts the cached node and
closes the branch, a miss decides.  Pending keys enroll into the solved
cache the moment backtracking abandons their spine, so the node fills in as
exhaustively as the search itself does.  On the blocking engine, restarts
abandon spines without exhausting them, so early enrollment is unsound;
there the cache instead canonicalizes nodes at creation time, merging
equivalent prefixes so every individually enumerated solution streams into
shared subgraphs.  Node sharing is switched off when refreshing is active,
because a dump must not contain paths for solutions the search has yet to
report.

Both engines add nodes through ``obdd.extend_obdd``, the one walk from the
root that creates them: a graft on the non-blocking engine, each reported
model on the blocking engine, in its close step, whose cache lookup
supplies the node for a missing interior arc when sharing is on.  Both
pass ``trail.values`` itself, which the walk reads by variable.  That walk
visits the variables in order, so each model starts a fresh list of codes
and the lookups extend it as the walk goes.

The non-blocking host always decides the first unassigned variable.  So a
cancel to level L unassigns exactly the variables at levels above L, all of
which have index >= d, the variable decided at level L+1; every variable
below d keeps its value.  The engine's per-step state follows the trail on
that invariant through two hooks, so each step touches only what it looks
up or what the cancel changed.  The lookup (``_next_decision``) moves the
cursor to the first unassigned variable, extends the codes to its cut and,
on a hit, grafts along ``trail.values`` from ``path_ok`` on.  With every
variable assigned there is no key to look up: it grafts the true sink.  So
every lookup is at a cut of at most n - 1, and the solved cache holds only
keys of the search.  The cancel (``_before_cancel``) pops and enrolls
the pending keys of the canceled decisions and lowers the rest of the
state to d:

* ``cursor``    - every variable below it is assigned; the lookup resumes
                  there, and a cancel lowers it to d;
* ``codes``     - the prefix codes at cuts 0, 1, ..., as far as the last
                  lookup reached; a cancel truncates them to cuts below d,
                  the next lookup extends them from there, and a refresh
                  leaves them alone, since they depend on the trail only;
* ``path``      - the node ids of the last graft's path, one per prefix
                  variable: entry j is the node of variable j + 1, and the
                  direction taken there is that variable's value, which the
                  trail holds.  ``path_ok`` counts its leading entries whose
                  variables kept their values since: a cancel lowers it to
                  d - 1 and a refresh to 0, and a graft walks only the
                  entries past it;
* ``pending_keys`` - the key of each miss by its cut.  A miss decides the
                  variable after its cut, so the pending cuts are those of
                  the standing decisions made on misses, in the order of
                  their levels, and a cancel pops the last ones, those at
                  cuts >= d - 1.  Each popped key whose cut lies below
                  ``path_ok`` (its decision stood through the last graft)
                  enrolls the path's node at that cut; the others lie past
                  the part of the path known to follow the trail.

Each step charges the memory budget once for the bytes it added: a graft
for its new nodes, a cancel for the keys it enrolled, and a model of the
blocking engine for its new nodes and the keys cached for them.  No charge
is negative and only a compaction or a refresh releases, so the peak is
the one a charge per node and per key would reach.

The refresh threshold θ bounds the arena at θ - n nodes (n variables).
The non-blocking engine checks in its cancel hook, after enrollment, since
the backtrack that closes a grafted branch is the first cancel after the
graft.  Once the arena is full the hook first compacts it
(``obdd.compact``): every node off the last graft's path is final, so those
nodes are hash-consed by (variable, lo, hi) and renumbered, and the root,
the solved cache and the path follow the new ids.  The cache keeps every
key, and the keys stay charged to the memory budget.  Only if the compacted
arena still holds at least three quarters of θ - n does the hook refresh,
so each compaction follows at least (θ - n) / 4 fresh nodes.  The blocking
engine checks after each restart and does not compact, because a restart
can reopen any node.  A refresh dumps the diagram to disk, releases the
bytes accounted for its nodes and keys, and restarts all caching state
empty; the underlying search state is untouched, so dumped path sets
partition the solution set.  Dumps are independent parts, so a threshold
below what the final diagram needs after compaction still makes a run dump
over and over (README, known limit).  When the search ends, or a limit
stops it, ``run_bdd`` counts the final diagram, sets ``solutions`` (final
plus the dumped parts), ``obdd_nodes`` and ``dumps`` in the engine's stats,
and writes the parts' manifest; it returns ``solutions``.  The final
diagram stays on ``solver.store`` and the dumped parts, (file, models)
pairs, on ``solver.dumps``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .formula import CnfFormula
from .kernel import Budget, LimitExceeded
from .nonblocking import NonBlockingSolver
from .obdd import TOP, ObddStore, compact, count_models, dump, extend_obdd
from .blocking import BlockingSolver
from .trail import UNASSIGNED

CACHE_MODES = ("cutset", "separator")

_NODE_BYTES = 24
_KEY_BYTES = 48


@dataclass
class RefreshPolicy:
    """OBDD size threshold and where dumped parts go.

    ``threshold`` of None disables refreshing.  A finite threshold θ must
    exceed the variable count n so a single path always fits.  The arena
    is refreshed at θ - n nodes: the non-blocking engine's cancel hook
    compacts it first and dumps only if at least three quarters of θ - n
    nodes remain, keeping the cache keys charged until then; the blocking
    engine dumps.
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


def compute_cuts(f: CnfFormula, mode: str, budget: Budget | None = None
                 ) -> tuple[list[int], list]:
    """The step tables ``(keep, add)`` of cache mode ``mode`` for ``f``,
    indexed by variable (module docstring: ``S[v] = S[v-1] & keep[v] |
    add[v][value of v]``).  A clause within a single variable spans no cut
    and stays out of both tables.

    * cutset - bit p is clause p.  ``keep[v]`` drops the clauses whose
      largest variable is v, and ``add[v][b]`` holds the clauses that
      literal (v = b) satisfies and whose largest variable is beyond v.
    * separator - bit v is variable v, whose reach is the largest variable
      sharing a clause with it.  ``keep[v]`` drops the variables whose
      reach is v, ``add[v][1]`` is bit v when v's reach is beyond v, and
      ``add[v][0]`` is empty.

    Cutset is one pass over the clauses; separator one pass for the
    reaches and one sweep over the variables.  A ``budget``, when given,
    has its time limit checked every 1,024 clauses of the pass and every
    1,024 variables of the sweep.  An unknown mode raises ValueError."""
    if mode not in CACHE_MODES:
        raise ValueError(f"unknown cache mode {mode!r}")
    n = f.num_vars
    keep = [-1] * (n + 1)
    if mode == "cutset":
        add = [[0, 0] for _ in range(n + 1)]
        for p, c in enumerate(f.clauses):
            if not p & 1023 and budget is not None:
                budget.check_time()
            hi = max(map(abs, c), default=0)
            bit = 1 << p
            spans = False
            for l in c:
                if l > 0:
                    if l < hi:
                        add[l][1] |= bit
                        spans = True
                elif -l < hi:
                    add[-l][0] |= bit
                    spans = True
            if spans:
                keep[hi] &= ~bit
        return keep, add
    reach = list(range(n + 1))
    for p, c in enumerate(f.clauses):
        if not p & 1023 and budget is not None:
            budget.check_time()
        hi = max(map(abs, c), default=0)
        for l in c:
            v = l if l > 0 else -l
            if reach[v] < hi:
                reach[v] = hi
    add = [(0, 0)] * (n + 1)
    for v in range(1, n + 1):
        if not v & 1023 and budget is not None:
            budget.check_time()
        if reach[v] > v:
            keep[reach[v]] &= ~(1 << v)
            add[v] = (0, 1 << v)
    return keep, add


def make_formula(steps: tuple[list[int], list], values: list[int],
                 codes: list[int], cut_index: int) -> tuple:
    """Cache key of the subinstance induced by the prefix
    ``values[1..cut_index]`` (``values`` indexed by variable), under the
    step tables ``steps`` of one mode (``compute_cuts``).

    ``codes`` is the caller's prefix list: ``codes[i]`` is the code at cut
    i for every i below its length, starting from ``[0]``.  It is extended
    up to ``cut_index`` by the step recurrence.
    """
    keep, add = steps
    code = codes[-1]
    for v in range(len(codes), cut_index + 1):
        code = code & keep[v] | add[v][values[v]]
        codes.append(code)
    return (cut_index, codes[cut_index])


def _refresh(solver) -> None:
    """Refresh step of both engines, which call it once the arena holds
    ``solver.limit`` nodes, the threshold less the variable count (so one
    path always fits), and the non-blocking engine only if compacting it
    left at least three quarters of that limit.

    Dumps the diagram, releases the bytes accounted for its nodes and
    cached keys, and restarts the store and the solved cache empty; the
    engine then clears whatever other cache state it keeps."""
    policy = solver.policy
    store = solver.store
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
    # every node and every key was charged exactly once
    solver.kernel.budget.release(_NODE_BYTES * store.size
                                 + _KEY_BYTES * len(solver.solved))
    store.reset()
    solver.solved = {}


def _run_bdd(solver) -> int:
    """``run_bdd`` of both engines: run the search, then count the final
    diagram, set ``solutions``, ``obdd_nodes`` and ``dumps`` in the stats,
    and write ``<stem>.obdd.manifest`` next to the dumped parts, if any.
    Returns ``solutions``.  A limit that stops the search gets the same
    bookkeeping before it propagates, so the stats then hold a lower
    bound."""
    try:
        solver.run()
    except LimitExceeded:
        _tally(solver)
        raise
    return _tally(solver)


def _tally(solver) -> int:
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
    return stats.solutions


def _init_cache(solver, cache: str, policy: RefreshPolicy | None) -> None:
    """Cache state both engines keep: the key mode's step tables, the
    refresh policy and the arena size that triggers it, the diagram, the
    solved cache and the dumped parts.  The tables are built under the
    engine's budget, so a time limit binds them too."""
    formula = solver.formula
    solver.steps = compute_cuts(formula, cache, solver.kernel.budget)
    solver.policy = policy or RefreshPolicy()
    solver.policy.validate(formula.num_vars)
    theta = solver.policy.threshold
    solver.limit = math.inf if theta is None else theta - formula.num_vars
    # the store names each position's original variable, for its dumps
    solver.store = ObddStore(formula.num_vars,
                             formula.external[:formula.num_vars + 1])
    solver.solved = {}
    solver.dumps = []


class BddSolver(NonBlockingSolver):
    """Non-blocking engine with the encode / extend / enroll stages wired
    into its decision step and every cancel.  ``uip`` and ``backtrack``
    are ``NonBlockingSolver``'s; models go to the diagram, not a sink."""

    def __init__(self, formula: CnfFormula, *, cache: str = "cutset",
                 policy: RefreshPolicy | None = None,
                 budget: Budget | None = None, uip: str = "dlevel",
                 backtrack: str = "bj"):
        super().__init__(formula, uip=uip, backtrack=backtrack, budget=budget)
        _init_cache(self, cache, policy)
        self.n = formula.num_vars
        # codes of the prefix at cuts 0, 1, ... for the values on the trail
        self.codes = [0]
        # cut index -> code, in increasing cut order
        self.pending_keys: dict[int, int] = {}
        # node ids of the last graft's path; entry j is variable j + 1's
        self.path: list[int] = []
        # leading path entries whose variables kept their values since the
        # path was grafted
        self.path_ok = 0
        # every variable below the cursor is assigned
        self.cursor = 1

    # ------------------------------------------------------------------

    def _next_decision(self) -> int | None:
        """Encode stage: look the prefix below the first unassigned variable
        up.  A hit grafts the solved node below the prefix and closes the
        branch; a miss leaves the key pending and decides the variable
        false.  With every variable assigned there is no key to look up:
        the graft is of the true sink."""
        k = self.kernel
        values = k.trail.values
        n = self.n
        i = self.cursor
        while i <= n and values[i] != UNASSIGNED:
            i += 1
        self.cursor = i
        if i <= n:
            key = make_formula(self.steps, values, self.codes, i - 1)
            node = self.solved.get(key)
            if node is None:
                k.stats.cache_misses += 1
                self.pending_keys[i - 1] = key[1]
                return -i
            k.stats.cache_hits += 1
        else:
            node = TOP
        arena = self.store.var
        before = len(arena)
        self.path = extend_obdd(self.store, node, values, i - 1, self.path,
                                self.path_ok)
        self.path_ok = len(self.path)
        grown = len(arena) - before
        if grown:
            k.budget.charge(_NODE_BYTES * grown)
        return None

    def _before_cancel(self, level: int) -> None:
        """Enroll stage: the pending keys a cancel to ``level`` completes
        migrate to the solved cache just before their spine is canceled.
        Variables below the canceled decision keep their values, so the
        cursor, the prefix codes and the valid path prefix drop to it."""
        t = self.kernel.trail
        if level >= t.level:
            return
        # decisions follow the cursor, so the decision of the lowest
        # canceled level is the lowest variable the cancel unassigns
        d = abs(t.decision_of(level + 1))
        # the pending keys at cuts >= d - 1 are the canceled decisions', the
        # last ones; a cut below path_ok has its node on the path (module
        # docstring).  The first key below d - 1 goes back where it was.
        pending, solved = self.pending_keys, self.solved
        path, path_ok = self.path, self.path_ok
        enrolled = 0
        while pending:
            cut, code = pending.popitem()
            if cut < d - 1:
                pending[cut] = code
                break
            if cut < path_ok:
                solved[(cut, code)] = path[cut]
                enrolled += 1
        if enrolled:
            self.kernel.budget.charge(_KEY_BYTES * enrolled)
        # only a graft adds nodes, and the backtrack closing its branch is
        # the first cancel after it: compact once its keys are enrolled, and
        # refresh if that left three quarters of the limit
        if len(self.store.var) - 2 >= self.limit:
            self._compact()
            if 4 * self.store.size >= 3 * self.limit:
                _refresh(self)
                pending.clear()
                self.path = []
                path_ok = 0
        if d < self.cursor:
            self.cursor = d
        del self.codes[d:]
        self.path_ok = path_ok if path_ok < d else d - 1

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
        new = compact(store, set(self.path))
        self.path = [new[u] for u in self.path]
        self.solved = {key: new[u] for key, u in self.solved.items()}
        self.kernel.budget.release(_NODE_BYTES * (before - store.size))
        return new

    run_bdd = _run_bdd


class BddBlockingSolver(BlockingSolver):
    """Blocking engine that materializes every reported solution as an OBDD
    path, with creation-time node merging keyed by the formula cache."""

    def __init__(self, formula: CnfFormula, *, cache: str = "cutset",
                 policy: RefreshPolicy | None = None,
                 budget: Budget | None = None):
        # the default configuration: each model is total, an OBDD path
        super().__init__(formula, budget=budget)
        _init_cache(self, cache, policy)
        # sharing across equivalent prefixes is only sound when no dump can
        # freeze a node before the search finishes filling it
        self.sharing = self.policy.threshold is None

    def _close(self) -> list[int] | None:
        """Add the model's path, then report, block and restart."""
        self._add_path()
        return super()._close()

    def _add_path(self) -> None:
        """Add the path of the total model on the trail, and charge its new
        nodes and the keys ``_shared_node`` cached for them at once."""
        arena, solved = self.store.var, self.solved
        nodes, keys = len(arena), len(solved)
        self.codes = [0]
        extend_obdd(self.store, TOP, self.kernel.trail.values,
                    self.formula.num_vars,
                    new_node=self._shared_node if self.sharing else None)
        self.kernel.budget.charge(_NODE_BYTES * (len(arena) - nodes)
                                  + _KEY_BYTES * (len(solved) - keys))

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
        node = self.solved[key] = self.store.new_node(var)
        return node

    def _block_and_restart(self, clause: list[int]) -> list[int] | None:
        pending = super()._block_and_restart(clause)
        if self.store.size >= self.limit:
            _refresh(self)
        return pending

    run_bdd = _run_bdd

