"""Exhaustive ground truth for small instances.

Every assignment is encoded as an integer bitmask: bit ``v-1`` holds the
value of variable ``v``.  Deliberately naive - the point is independence
from the search engines it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .formula import CnfFormula, var_of

if TYPE_CHECKING:
    from .kernel import Budget

GUARD_VARS = 25


class OracleGuardError(Exception):
    """Instance too large for exhaustive enumeration."""


@dataclass
class ModelSet:
    """Sorted, duplicate-free list of total assignments as bitmasks."""

    num_vars: int
    masks: list[int]

    @property
    def count(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        lo, hi = 0, len(self.masks)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.masks[mid] < mask:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(self.masks) and self.masks[lo] == mask


def mask_to_lits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v if (mask >> (v - 1)) & 1 else -v for v in range(1, n + 1))


def lits_to_mask(lits) -> int:
    mask = 0
    for l in lits:
        if l > 0:
            mask |= 1 << (l - 1)
    return mask


def lits_masks(lits) -> tuple[int, int]:
    """(positive-literal bits, negative-literal bits) of a clause or cube."""
    pos = neg = 0
    for l in lits:
        if l > 0:
            pos |= 1 << (l - 1)
        else:
            neg |= 1 << (-l - 1)
    return pos, neg


def clause_masks(f: CnfFormula) -> list[tuple[int, int]]:
    """Per clause: (positive-literal bits, negative-literal bits)."""
    return [lits_masks(c) for c in f.clauses]


def _guard(f: CnfFormula) -> None:
    if f.num_vars > GUARD_VARS:
        raise OracleGuardError(
            f"{f.num_vars} variables exceeds the oracle guard ({GUARD_VARS})")


def enumerate_all(f: CnfFormula, budget: Budget | None = None) -> ModelSet:
    """All models of ``f`` by evaluating every one of the 2^n assignments.
    A ``budget``, when given, has its time limit checked every 4,096
    assignments."""
    _guard(f)
    n = f.num_vars
    cms = clause_masks(f)
    if any(pos == 0 and neg == 0 for pos, neg in cms):
        return ModelSet(n, [])
    full = (1 << n) - 1
    models = []
    for block in range(0, full + 1, 4096):
        if budget is not None:
            budget.check_time()
        for m in range(block, min(block + 4096, full + 1)):
            ok = True
            inv = m ^ full
            for pos, neg in cms:
                if not (m & pos) and not (inv & neg):
                    ok = False
                    break
            if ok:
                models.append(m)
    return ModelSet(n, models)


def satisfies(f: CnfFormula, mask: int) -> bool:
    full = (1 << f.num_vars) - 1
    inv = mask ^ full
    for pos, neg in clause_masks(f):
        if not (mask & pos) and not (inv & neg):
            return False
    return True


def entails(f: CnfFormula, clause_lits) -> bool:
    """True iff every model of ``f`` satisfies the clause."""
    _guard(f)
    pos = neg = 0
    for l in clause_lits:
        if l > 0:
            pos |= 1 << (l - 1)
        else:
            neg |= 1 << (-l - 1)
    full = (1 << f.num_vars) - 1
    for m in enumerate_all(f).masks:
        if not (m & pos) and not ((m ^ full) & neg):
            return False
    return True


def subinstance_models(f: CnfFormula, prefix: dict[int, int]) -> ModelSet:
    """Models extending ``prefix`` (var -> 0/1), projected to the remaining
    variables.

    The projection keeps the remaining variables' relative order, so masks
    are over ``n - len(prefix)`` bits.
    """
    _guard(f)
    n = f.num_vars
    rest = [v for v in range(1, n + 1) if v not in prefix]
    seen = set()
    for m in enumerate_all(f).masks:
        if any(((m >> (v - 1)) & 1) != val for v, val in prefix.items()):
            continue
        proj = 0
        for j, v in enumerate(rest):
            if (m >> (v - 1)) & 1:
                proj |= 1 << j
        seen.add(proj)
    return ModelSet(len(rest), sorted(seen))


def cube_expansion_count(cube, n: int) -> int:
    """Number of total assignments extending a cube (partial assignment)."""
    fixed = {var_of(l) for l in cube}
    return 1 << (n - len(fixed))


def expand_cube(cube, n: int) -> list[int]:
    """All total assignments extending a cube, as masks.  Use only when the
    number of free variables is small."""
    fixed = {}
    for l in cube:
        fixed[var_of(l)] = 1 if l > 0 else 0
    free = [v for v in range(1, n + 1) if v not in fixed]
    base = lits_to_mask(cube)
    out = []
    for bits in range(1 << len(free)):
        m = base
        for j, v in enumerate(free):
            if (bits >> j) & 1:
                m |= 1 << (v - 1)
        out.append(m)
    return out


def cubes_disjoint(a, b) -> bool:
    """Two cubes are expansion-disjoint iff some variable appears with
    opposite signs."""
    return any(-l in b for l in a)


def check_cube_cover(cubes, f: CnfFormula) -> tuple[bool, str]:
    """Verify cubes pairwise disjoint and exactly covering the model set."""
    _guard(f)
    n = f.num_vars
    sets = [set(c) for c in cubes]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not cubes_disjoint(sets[i], sets[j]):
                return False, f"cubes {i} and {j} overlap"
    total = sum(cube_expansion_count(c, n) for c in cubes)
    models = enumerate_all(f)
    if total != models.count:
        return False, (f"cube expansions cover {total} assignments, "
                       f"formula has {models.count} models")
    for i, c in enumerate(cubes):
        for m in expand_cube(c, n):
            if m not in models:
                return False, f"cube {i} contains a non-model"
    return True, "ok"
