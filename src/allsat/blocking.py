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

from .formula import Clause, CnfFormula
from .kernel import FALSIFIED, UNIT, Budget, ClauseStore, Kernel
from .trail import UNASSIGNED, Trail


@dataclass
class BlockingConfig:
    simplify: bool = False
    continue_search: bool = False
    all_literals: bool = False


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


def replay_decisions(kernel: Kernel, saved: list[int]) -> Clause | None:
    """Re-make the saved decision literals in level order after a restart.

    Stops at the first conflict (returned for the caller's diagnose stage)
    or at the first saved decision whose variable is already assigned the
    opposite value; same-value variables are skipped.
    """
    values = kernel.trail.values
    for lit in saved:
        value = values[lit]
        if value != UNASSIGNED:
            if value == 1:
                continue
            return None
        kernel.make_decision(lit)
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
        self.saved: list[int] = []   # decisions before the last restart
        self.count = 0            # cubes emitted; stats.solutions has models

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
        """Report the current total assignment (or its simplified cube),
        block it by negating every literal, the simplified decisions or
        every decision, and restart.  With nothing to negate (at level 0
        there are no decisions) the search halts instead.  Returns (halt,
        pending_conflict)."""
        t = self.kernel.trail
        cube = t.lits
        if self.cfg.all_literals:
            negate = t.lits
        elif self.cfg.simplify:
            negate = simplify_assignment(t, self.kernel.store)
            dropped = set(t.decisions()).difference(negate)
            cube = [l for l in t.lits if l not in dropped]
        else:
            negate = t.decisions()
        self._emit(cube)
        if not negate:
            return True, None
        return False, self._block_and_restart(Clause([-l for l in negate]))

    def _block_and_restart(self, clause: Clause) -> Clause | None:
        k = self.kernel
        if self.cfg.continue_search:
            self.saved = k.trail.decisions()
        k.cancel_to(0)
        k.add_blocking(clause)
        status = k.attach_clause(clause)
        if status == FALSIFIED:
            return clause
        if status == UNIT:
            k.trail.assign(clause.lits[0], clause)
        if self.cfg.continue_search:
            return replay_decisions(k, self.saved)
        return None

