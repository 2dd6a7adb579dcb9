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
missing interior arc when sharing is on.  That walk visits the variables
in order, so each model starts a fresh list of codes and the lookups extend
it as the walk goes.

The non-blocking host always decides the first unassigned variable.  So a
cancel to level L unassigns exactly the variables at levels above L, all of
which have index >= d, the variable decided at level L+1; every variable
below d keeps its value.  The engine's per-step state follows the trail on
that invariant, so each step touches only what the cancel changed:

* ``cursor``    - every variable below it is assigned; the lookup for the
                  first unassigned variable resumes there, and a cancel
                  lowers it to d;
* ``codes``     - the prefix codes at cuts 0, 1, ..., as far as the last
                  lookup reached; a cancel truncates them to cuts below d,
                  the next lookup extends them from there, and a refresh
                  leaves them alone, since they depend on the trail only;
* ``path``      - the OBDD path of the last graft, one (node, direction)
                  entry per prefix variable; ``path_ok`` counts its leading
                  entries whose variables kept their values since, a cancel
                  lowers it to d - 1 and a refresh to 0.  A graft walks only
                  the entries past ``path_ok``, and enrollment starts its
                  walk there too;
* ``pending_keys`` - ordered by cut, so a cancel drops its last entries,
                  those at cuts >= d - 1.

When the node arena reaches the refresh threshold the diagram is dumped to
disk, the bytes accounted for its nodes and keys are released, and all
caching state restarts empty; the underlying search state is untouched, so
dumped path sets partition the solution set.  The non-blocking engine
checks at each cancel, after enrollment, since the backtrack that closes a
grafted branch is the first cancel after the graft; the blocking engine
checks after each restart.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .formula import Clause, CnfFormula, compute_cuts
from .kernel import Budget
from .nonblocking import NonBlockingConfig, NonBlockingSolver
from .obdd import TOP, ObddStore, count_models, dump, extend_obdd
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

    ``threshold`` of None disables refreshing.  A finite threshold must
    exceed the variable count so a single path always fits.
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


def _refresh(solver) -> bool:
    """Refresh step of both engines: once the arena reaches the threshold,
    dump the diagram, release the bytes accounted for its nodes and cached
    keys, and restart the store and the solved cache empty.  Returns whether
    it did; the engine then clears whatever other cache state it keeps."""
    policy = solver.policy
    store = solver.store
    theta = policy.threshold
    if theta is None or store.size < theta - solver.formula.num_vars:
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
    dumps: list[tuple[str, int]] = field(default_factory=list)
    final: int = 0      # models in the final diagram
    total: int = 0      # final plus every dumped part

    @property
    def dump_files(self) -> list[str]:
        return [f for f, _ in self.dumps]


def _result(solver) -> BddResult:
    """Counts of the final diagram and of every dumped part."""
    final = count_models(solver.store)
    return BddResult(solver.store, solver.dumps, final,
                     final + sum(c for _, c in solver.dumps))


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

    def _key_at(self, cut_index) -> tuple:
        return make_formula(self.steps, self.kernel.trail.values, self.codes,
                            cut_index)

    def _first_unassigned(self) -> int | None:
        values = self.kernel.trail.values
        n = self.formula.num_vars
        v = self.cursor
        while v <= n and values[v] != UNASSIGNED:
            v += 1
        self.cursor = v
        return v if v <= n else None

    def _next_decision(self) -> int | None:
        """Encode stage: look the prefix below the first unassigned variable
        up.  A hit (every variable assigned always hits) grafts the solved
        node and closes the branch; a miss leaves the key pending and
        decides the variable false."""
        k = self.kernel
        i = self._first_unassigned()
        cut_index = math.inf if i is None else i - 1
        key = self._key_at(cut_index)
        node = self.solved.get(key)
        if node is None:
            k.stats.cache_misses += 1
            self.pending_keys[cut_index] = key[1]
            return -i
        if i is None:
            k.stats.solutions += 1
        else:
            k.stats.cache_hits += 1
        self._graft(node, i)
        return None

    def _canceled_var(self, bl: int) -> int | None:
        """Lowest variable a cancel to level ``bl`` unassigns: the decision
        of level ``bl + 1`` (None when the cancel removes nothing)."""
        t = self.kernel.trail
        if bl >= t.level:
            return None
        return abs(t.decision_of(bl + 1))

    def _before_cancel(self, level: int) -> None:
        """Enroll stage: solved-subinstance keys migrate from the pending
        set to the cache just before their spine is canceled.  Variables
        below the canceled decision keep their values, so the cursor, the
        prefix codes and the valid path prefix drop to it."""
        d = self._canceled_var(level)
        if d is None:
            return
        self._enroll(level)
        # only a graft adds nodes, and the backtrack closing its branch is
        # the first cancel after it: refresh once its keys are enrolled
        if self.policy.threshold is not None and _refresh(self):
            self.pending_keys.clear()
            self.path = []
            self.path_ok = 0
        # pending cuts ascend, so the keys whose decision the cancel
        # removes (cuts >= d - 1) are the last ones
        pending = self.pending_keys
        while pending and next(reversed(pending)) >= d - 1:
            pending.popitem()
        self.cursor = min(self.cursor, d)
        del self.codes[d:]
        self.path_ok = min(self.path_ok, d - 1)

    def _enroll(self, bl: int) -> None:
        d = self._canceled_var(bl)
        if d is None:
            return
        t = self.kernel.trail
        store = self.store
        path = self.path
        # entries below both bounds agree with the trail and sit at levels
        # <= bl, so the walk would pass them without enrolling
        for idx in range(min(d - 1, self.path_ok), len(path)):
            nid, direction = path[idx]
            j = store.var[nid]
            if t.values[j] != direction:
                break
            if bl < t.var_level[j]:
                code = self.pending_keys.get(j - 1)
                if code is not None:
                    self.solved[(j - 1, code)] = nid
                    self.kernel.budget.charge(_KEY_BYTES)

    def _graft(self, node: int, i: int | None) -> None:
        """Extend the diagram from the root along the prefix below variable
        ``i`` (every variable when None) to the solved ``node``."""
        k = self.kernel
        upto = self.formula.num_vars if i is None else i - 1
        before = self.store.size
        self.path = extend_obdd(self.store, node, k.trail.values[1:upto + 1],
                                self.path, self.path_ok)
        self.path_ok = len(self.path)
        k.budget.charge(_NODE_BYTES * (self.store.size - before))

    # ------------------------------------------------------------------

    def run_bdd(self) -> BddResult:
        self.run()
        result = _result(self)
        self.kernel.stats.solutions = result.total
        return result


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
        extend_obdd(store, TOP, self.kernel.trail.values[1:],
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

    def run_bdd(self) -> BddResult:
        self.run()
        return _result(self)

