"""Assignment trail with decision levels, sublevels, and antecedents.

The trail is a flat list of literals in assignment order.  ``values`` is
indexed by the signed literal (length 2n+1): ``values[lit]`` is 1 when
``lit`` is true and 0 when false, so ``values[v]`` is variable v's value
and ``values[-v]`` (read from the end of the list) its negation's.  Level,
sublevel, antecedent (reason) and level-0 taint live in per-variable
arrays; a variable's trail position is the index of its literal in ``lits``.
Assigning writes both halves of ``values`` and a cancel resets both, leaving
the per-variable arrays to be overwritten by the next assignment.
``level_start`` gives each level's first trail index, whose literal is the
level's decision.

The trail doubles as the implication graph: an assignment's antecedent
clause names the assignments that forced it, and assignments with no
antecedent (NULL) are decisions or flipped decisions inserted by
chronological backtracking.  A new sublevel opens at every flip, so conflict
analysis can treat earlier sublevels of the current level like lower levels.

Three calls change the levels.  ``decide(lit)`` opens a level and assigns
its decision.  ``flip(level)`` is the chronological backtrack of the
nonblocking engines in one call: it cancels ``level`` and every level above
it and assigns the negated decision one level down, in a new sublevel, with
no antecedent; the decision's trail slot is reused, so of the canceled
assignments only those above it are reset.  ``cancel_to(level)`` removes
every level above ``level`` (backjumps and restarts).
"""

from __future__ import annotations

UNASSIGNED = -1


class Trail:
    """Ordered assignment sequence plus a per-variable view of it."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.lits: list[int] = []         # assigned literals in trail order
        n1 = num_vars + 1
        # signed literal -> 0/1/UNASSIGNED; values[v] is variable v's value
        self.values = [UNASSIGNED] * (2 * num_vars + 1)
        self.var_level = [0] * n1
        self.var_sublevel = [0] * n1
        self.reasons: list[list[int] | None] = [None] * n1
        # a level-0 variable is tainted when its value depends on a flipped
        # decision; such facts are search choices, not consequences of the
        # formula, so conflict analysis must not silently drop them.  Only
        # level-0 taint is ever read, and level 0 is never canceled, so it
        # is computed at level 0 alone and never reset.
        self.tainted = [False] * n1
        self.level = 0
        self.level_start = [0]            # level -> first trail index
        self.cur_sublevel = [0]           # level -> active sublevel

    def __len__(self) -> int:
        return len(self.lits)

    def all_assigned(self) -> bool:
        return len(self.lits) == self.num_vars

    def decide(self, lit: int) -> None:
        """Open a new level whose decision is ``lit``."""
        var = lit if lit > 0 else -lit
        values = self.values
        if values[lit] != UNASSIGNED:
            raise RuntimeError(f"variable {var} already assigned")
        level = self.level = self.level + 1
        lits = self.lits
        self.level_start.append(len(lits))
        self.cur_sublevel.append(0)
        lits.append(lit)
        values[lit] = 1
        values[-lit] = 0
        self.var_level[var] = level
        self.var_sublevel[var] = 0
        self.reasons[var] = None

    def assign(self, lit: int, reason: list[int] | None = None) -> None:
        """Append an implied assignment at the current level and sublevel
        (``Kernel.propagate`` writes one itself above level 0)."""
        var = lit if lit > 0 else -lit
        values = self.values
        if values[lit] != UNASSIGNED:
            raise RuntimeError(f"variable {var} already assigned")
        level = self.level
        self.lits.append(lit)
        values[lit] = 1
        values[-lit] = 0
        self.var_level[var] = level
        self.var_sublevel[var] = self.cur_sublevel[level]
        self.reasons[var] = reason
        if level == 0:
            # a level-0 reason holds only level-0 variables
            tainted = self.tainted
            if reason is None:
                tainted[var] = True   # a search choice, like a flip
            else:
                tainted[var] = any(tainted[abs(q)]
                                   for q in reason if abs(q) != var)

    def decision_of(self, level: int) -> int:
        """The decision literal that opened ``level`` (level >= 1)."""
        if not 1 <= level <= self.level:
            raise RuntimeError(f"no decision at level {level}")
        return self.lits[self.level_start[level]]

    def decisions(self) -> list[int]:
        """The decision literals in level order."""
        lits = self.lits
        return [lits[i] for i in self.level_start[1:]]

    def cancel_to(self, level: int) -> None:
        """Remove every assignment above ``level`` and make it current."""
        if level >= self.level:
            return
        keep = self.level_start[level + 1]
        values = self.values
        for lit in self.lits[keep:]:
            values[lit] = UNASSIGNED
            values[-lit] = UNASSIGNED
        del self.lits[keep:]
        del self.level_start[level + 1:]
        del self.cur_sublevel[level + 1:]
        self.level = level

    def flip(self, level: int) -> int:
        """Cancel ``level`` (>= 1) and all above it, then assign the negated
        decision at ``level - 1`` in a new sublevel: no antecedent, not a
        decision, tainted at level 0.  Returns its (the last) trail index."""
        if not 1 <= level <= self.level:
            raise RuntimeError(f"no decision at level {level}")
        lits = self.lits
        keep = self.level_start[level]
        dec = lits[keep]
        var = dec if dec > 0 else -dec
        values = self.values
        if len(lits) > keep + 1:
            for lit in lits[keep + 1:]:
                values[lit] = UNASSIGNED
                values[-lit] = UNASSIGNED
            del lits[keep + 1:]
        del self.level_start[level:]
        cur_sublevel = self.cur_sublevel
        del cur_sublevel[level:]
        level -= 1
        self.level = level
        sub = cur_sublevel[level] = cur_sublevel[level] + 1
        # its slot and both halves of values turn over; its NULL reason stays
        lits[keep] = -dec
        values[-dec] = 1
        values[dec] = 0
        self.var_level[var] = level
        self.var_sublevel[var] = sub
        if level == 0:
            self.tainted[var] = True
        return keep
