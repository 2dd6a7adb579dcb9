"""Enumeration by repeated solving with blocking clauses.

After every reported solution a blocking clause is added and the search
restarts from the root level.  The default clause negates the decision
literals only (the implied part is forced anyway); optional simplification
drops decisions that neither fed an implication nor are needed to satisfy a
clause, widening each reported cube.  Optional continuation replays the
pre-restart decisions to return the search to where it left off.

``all_literals`` switches to the textbook loop that blocks the full
assignment and only stops when the extended formula becomes unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import BLOCKING, Clause, CnfFormula
from .kernel import FALSIFIED, UNIT, Budget, ClauseStore, Kernel
from .trail import UNASSIGNED, Trail


@dataclass
class BlockingConfig:
    simplify: bool = False
    continue_search: bool = False
    all_literals: bool = False


class ProgressArray:
    """The ordered decision list from the last restart."""

    def __init__(self):
        self.saved: list[tuple[int, int]] = []

    def record(self, decisions: list[int]) -> None:
        self.saved = [(abs(l), 1 if l > 0 else 0) for l in decisions]


def simplify_assignment(trail: Trail, store: ClauseStore) -> list[int]:
    """Select the decision subset that keeps every clause satisfied.

    Step 1 keeps each decision whose negation appears in the antecedent of
    some implied variable.  Step 2 walks the remaining unsatisfied problem
    and blocking clauses and adds, per clause, the satisfying decision of
    lowest level.  Returns the selected decision literals in level order.
    """
    decisions_in_order = trail.decisions()
    decision_lits = set(decisions_in_order)
    implied = set(trail.lits) - decision_lits

    related: set[int] = set()
    for lit in trail.lits:
        reason = trail.reasons[abs(lit)]
        if reason is None:
            continue
        for q in reason.lits:
            if -q in decision_lits:
                related.add(-q)

    sat_set = related | implied
    for clause in store.problem + store.blocking:
        if any(l in sat_set for l in clause.lits):
            continue
        in_clause = set(clause.lits)
        for d in decisions_in_order:
            if d in in_clause:
                related.add(d)
                sat_set.add(d)
                break
        else:
            raise RuntimeError("satisfied trail leaves a clause uncovered")
    return [d for d in decisions_in_order if d in related]


def make_blocking_clause(trail: Trail, cfg: BlockingConfig,
                         store: ClauseStore | None = None) -> Clause:
    """Blocking clause for a total satisfying trail: negated decisions, the
    negated simplified decision subset, or negated everything."""
    if cfg.all_literals:
        lits = [-l for l in trail.lits]
    elif cfg.simplify:
        if store is None:
            raise ValueError("simplification needs the clause store")
        lits = [-l for l in simplify_assignment(trail, store)]
    else:
        lits = [-l for l in trail.decisions()]
    return Clause(lits, origin=BLOCKING)


def replay_decisions(kernel: Kernel, progress: ProgressArray) -> Clause | None:
    """Re-make the saved decisions in level order after a restart.

    Stops at the first conflict (returned for the caller's diagnose stage)
    or at the first saved decision whose variable is already assigned the
    opposite value; same-value variables are skipped.
    """
    trail = kernel.trail
    for var, val in progress.saved:
        if trail.values[var] != UNASSIGNED:
            if trail.values[var] == val:
                continue
            return None
        kernel.make_decision(var if val else -var)
        conflict = kernel.propagate()
        if conflict is not None:
            return conflict
    return None


class BlockingSolver:
    """One enumeration run over a formula (single-threaded)."""

    def __init__(self, formula: CnfFormula, cfg: BlockingConfig | None = None,
                 sink=None, budget: Budget | None = None,
                 decide_order: list[int] | None = None):
        self.formula = formula
        self.cfg = cfg or BlockingConfig()
        self.sink = sink
        self.kernel = Kernel(formula, budget=budget, decide_order=decide_order)
        self.progress = ProgressArray()
        self.count = 0            # cubes emitted; stats.solutions has models
        self.emitted_clauses: list[tuple[int, ...]] = []

    @property
    def stats(self):
        return self.kernel.stats

    def run(self) -> int:
        k = self.kernel
        if self.formula.has_empty_clause():
            return 0
        pending: Clause | None = None
        while True:
            if pending is None:
                pending = k.propagate()
            if pending is not None:
                conflict, pending = pending, None
                if k.trail.level <= 0:
                    break
                lmax = max(k.trail.var_level[abs(l)] for l in conflict.lits)
                if lmax == 0:
                    break
                if lmax < k.trail.level:
                    k.cancel_to(lmax)
                learned = k.analyze(conflict, scope="level")
                k.cancel_to(learned.assert_level)
                k.add_learned(learned.clause)
                status = k.attach_clause(learned.clause)
                if status == FALSIFIED:
                    pending = learned.clause
                    continue
                k.trail.assign(learned.clause.lits[0], learned.clause)
            elif k.trail.all_assigned():
                halt, pending = self._handle_solution()
                if halt:
                    break
            else:
                lit = k.decide()
                k.make_decision(lit)
        return self.count

    # ------------------------------------------------------------------

    def _emit(self, lits: list[int]) -> None:
        """Report the cube of ``lits``, in any order."""
        self.count += 1
        self.kernel.stats.solutions += 1 << (self.formula.num_vars - len(lits))
        if self.sink is not None:
            self.sink(tuple(sorted(lits, key=abs)))

    def _handle_solution(self) -> tuple[bool, Clause | None]:
        """Report the current total assignment, add its blocking clause, and
        restart.  Returns (halt, pending_conflict)."""
        k = self.kernel
        t = k.trail
        cfg = self.cfg

        if cfg.all_literals:
            self._emit(t.lits)
            clause = make_blocking_clause(t, cfg)
            return False, self._block_and_restart(clause)

        if cfg.simplify:
            selected = simplify_assignment(t, k.store)
            chosen = set(selected)
            self._emit([l for l in t.lits
                        if not t.decision[abs(l)] or l in chosen])
            if t.level <= 0 or not selected:
                return True, None
            clause = Clause([-l for l in selected], origin=BLOCKING)
        else:
            self._emit(t.lits)
            if t.level <= 0:
                return True, None
            clause = make_blocking_clause(t, cfg)
        return False, self._block_and_restart(clause)

    def _block_and_restart(self, clause: Clause) -> Clause | None:
        k = self.kernel
        if self.cfg.continue_search:
            self.progress.record(k.trail.decisions())
        self.emitted_clauses.append(tuple(sorted(clause.lits, key=abs)))
        k.cancel_to(0)
        k.add_blocking(clause)
        status = k.attach_clause(clause)
        if status == FALSIFIED:
            return clause
        if status == UNIT:
            k.trail.assign(clause.lits[0], clause)
        if self.cfg.continue_search:
            return replay_decisions(k, self.progress)
        return None

