"""CNF problem representation: literals, clauses, DIMACS I/O, variable
reordering, and linear cut structure (cutsets / separators).

Literals are signed integers in the DIMACS convention: ``v`` is the positive
literal of variable ``v`` (1-based), ``-v`` its negation.  Clauses keep their
literals in first-occurrence order after deduplication; tautological clauses
are dropped at parse time.
"""

from __future__ import annotations

import io
from dataclasses import dataclass


class DimacsError(Exception):
    """Malformed DIMACS input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def neg(lit: int) -> int:
    """Negate a literal."""
    return -lit


def var_of(lit: int) -> int:
    """Variable index underlying a literal."""
    return lit if lit > 0 else -lit


PROBLEM = "problem"
LEARNED = "learned"
BLOCKING = "blocking"


@dataclass(eq=False)
class Clause:
    """A disjunction of literals.

    ``origin`` records whether the clause came from the input problem, from
    conflict analysis, or from the blocking mechanism.  Identity (not value)
    equality keeps clauses usable as watcher-list entries and antecedents.
    """

    lits: list[int]
    cid: int = -1
    origin: str = PROBLEM

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clause({self.lits}, id={self.cid}, {self.origin})"

    def lit_set(self) -> frozenset[int]:
        return frozenset(self.lits)


@dataclass
class ParseStats:
    tautologies_dropped: int = 0
    duplicates_removed: int = 0


class CnfFormula:
    """An immutable CNF problem over variables ``1..num_vars``.

    ``order`` maps external (original) variable names to internal indices;
    results computed internally are reported back in external names through
    :meth:`to_external`.
    """

    def __init__(self, num_vars: int, clauses: list[Clause],
                 order: list[int] | None = None,
                 parse_stats: ParseStats | None = None):
        self.num_vars = num_vars
        self.clauses = clauses
        # order[ext] = internal index; index 0 unused.
        self.order = order if order is not None else list(range(num_vars + 1))
        self.parse_stats = parse_stats or ParseStats()
        self._inverse = [0] * (num_vars + 1)
        for ext, internal in enumerate(self.order):
            if ext == 0:
                continue
            self._inverse[internal] = ext

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def has_empty_clause(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    def to_external(self, lit: int) -> int:
        """Map an internal literal back to the original variable name."""
        v = var_of(lit)
        ext = self._inverse[v]
        return ext if lit > 0 else -ext

    def lit_sets(self) -> list[frozenset[int]]:
        return [c.lit_set() for c in self.clauses]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.lit_sets() == other.lit_sets())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CnfFormula(n={self.num_vars}, m={self.num_clauses})"


def parse_dimacs(text: str | bytes | io.TextIOBase) -> CnfFormula:
    """Parse DIMACS CNF: ``c`` comments, a ``p cnf n m`` header, clauses as
    0-terminated literal lists.

    Duplicate literals inside a clause are removed; tautological clauses
    (containing ``x`` and ``-x``) are dropped and counted.  A ``%`` line ends
    the clause section (common trailer in benchmark archives).
    """
    if isinstance(text, bytes):
        lines = text.decode("ascii", errors="replace").splitlines()
    elif isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = text.read().splitlines()

    num_vars = num_clauses = -1
    header_line = 0
    clauses: list[Clause] = []
    stats = ParseStats()
    current: list[int] = []
    current_set: set[int] = set()
    tautological = False

    def close_clause(line_no: int) -> None:
        nonlocal current, current_set, tautological
        if tautological:
            stats.tautologies_dropped += 1
        else:
            clauses.append(Clause(current, cid=len(clauses), origin=PROBLEM))
        current = []
        current_set = set()
        tautological = False

    last_line = 0
    for line_no, raw in enumerate(lines, start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars >= 0:
                raise DimacsError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", line_no)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", line_no) from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError("negative counts in header", line_no)
            header_line = line_no
            continue
        if num_vars < 0:
            raise DimacsError("clause before header", line_no)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}", line_no) from None
            if lit == 0:
                close_clause(line_no)
                continue
            v = var_of(lit)
            if v > num_vars:
                raise DimacsError(
                    f"literal {lit} out of range (n={num_vars})", line_no)
            if -lit in current_set:
                tautological = True
            if lit in current_set:
                stats.duplicates_removed += 1
                continue
            current_set.add(lit)
            current.append(lit)

    if num_vars < 0:
        raise DimacsError("missing header", last_line or 1)
    if current:
        raise DimacsError("clause missing 0 terminator", last_line)
    if len(clauses) + stats.tautologies_dropped != num_clauses:
        raise DimacsError(
            f"header promised {num_clauses} clauses, found "
            f"{len(clauses) + stats.tautologies_dropped}", header_line)
    return CnfFormula(num_vars, clauses, parse_stats=stats)


def render_dimacs(f: CnfFormula) -> str:
    """Render a formula back to DIMACS text (round-trips through parse)."""
    out = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for c in f.clauses:
        out.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(out) + "\n"


def from_clause_lists(num_vars: int, clause_lists: list[list[int]]) -> CnfFormula:
    """Build a formula from plain literal lists (test/bench convenience)."""
    clauses = [Clause(list(dict.fromkeys(lits)), cid=i, origin=PROBLEM)
               for i, lits in enumerate(clause_lists)]
    return CnfFormula(num_vars, clauses)


def apply_order(f: CnfFormula, perm: list[int]) -> CnfFormula:
    """Remap variables: variable ``v`` becomes ``perm[v]``.

    ``perm`` is indexed 1..n (entry 0 ignored) and must be a bijection on
    1..n.  The returned formula's ``order`` composes with the input's so
    external reporting stays in original names.
    """
    n = f.num_vars
    if len(perm) != n + 1:
        raise ValueError(f"permutation must have {n + 1} entries (index 0 unused)")
    seen = sorted(perm[1:])
    if seen != list(range(1, n + 1)):
        raise ValueError("permutation is not a bijection on 1..n")
    clauses = []
    for c in f.clauses:
        lits = [(perm[l] if l > 0 else -perm[-l]) for l in c.lits]
        clauses.append(Clause(lits, cid=c.cid, origin=c.origin))
    order = [0] * (n + 1)
    for ext in range(1, n + 1):
        order[ext] = perm[f.order[ext]]
    return CnfFormula(n, clauses, order=order, parse_stats=f.parse_stats)


def read_order_file(text: str, num_vars: int) -> list[int]:
    """Read a variable-order file: line ``k`` names the original variable to
    place at internal position ``k``.  Returns the permutation for
    :func:`apply_order` (original -> internal position)."""
    perm = [0] * (num_vars + 1)
    seen = set()
    pos = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        pos += 1
        try:
            orig = int(line)
        except ValueError:
            raise DimacsError(f"bad order entry {line!r}", line_no) from None
        if not 1 <= orig <= num_vars:
            raise DimacsError(f"order entry {orig} out of range", line_no)
        if orig in seen:
            raise DimacsError(f"variable {orig} listed twice", line_no)
        if pos > num_vars:
            raise DimacsError("more order entries than variables", line_no)
        seen.add(orig)
        perm[orig] = pos
    if pos != num_vars:
        raise DimacsError(
            f"order file lists {pos} variables, formula has {num_vars}", 1)
    return perm


@dataclass
class CutStructure:
    """Cut structure of a formula under its variable order, kept as clause
    spans and as the step tables of both cache keys.

    Cut i (0 <= i <= n) is the boundary between variables <= i and > i.  A
    clause spans it when its smallest variable is <= i and its largest is
    > i; ``cutset(i)`` lists the spanning clauses by position and
    ``separator(i)`` their variables <= i.  ``spans[p]`` is the (smallest,
    largest) variable of clause p, (0, 0) when it is empty; ``reach[v]`` is
    the largest variable sharing a clause with v (v itself if none is
    larger), so v is in separator(i) exactly when v <= i < reach[v].

    ``steps[mode]`` is a pair ``(keep, add)`` indexed by variable.  The key
    code of a prefix at cut i is the bitset S[i], where S[0] = 0 and
    S[v] = S[v-1] & keep[v] | add[v][value of v]:

    * cutset - bit p is clause p.  ``keep[v]`` drops the clauses whose
      largest variable is v, ``add[v][b]`` holds the clauses that literal
      (v = b) satisfies and whose largest variable is beyond v; S[i] is the
      clauses of cutset(i) that the prefix satisfies.
    * separator - bit v is variable v.  ``keep[v]`` drops the variables
      whose reach is v, ``add[v][1]`` is bit v when reach[v] > v and
      ``add[v][0]`` is empty; S[i] is the variables of separator(i) that
      the prefix sets true.
    """

    spans: list[tuple[int, int]]
    reach: list[int]
    steps: dict[str, tuple[list[int], list]]
    cutwidth: int
    pathwidth: int

    def cutset(self, i: int) -> list[int]:
        return [p for p, (lo, hi) in enumerate(self.spans) if lo <= i < hi]

    def separator(self, i: int) -> list[int]:
        return [v for v in range(1, i + 1) if i < self.reach[v]]


def compute_cuts(f: CnfFormula) -> CutStructure:
    """Clause spans, variable reaches and both modes' step tables of ``f``
    in one pass over the clauses; ``cutwidth`` and ``pathwidth`` (the
    largest cutset and separator) are running maxima of one sweep over the
    cuts, where a clause joins at its smallest variable and leaves at its
    largest and a variable joins at itself and leaves at its reach."""
    n = f.num_vars
    spans = []
    reach = list(range(n + 1))
    opens = [0] * (n + 1)          # spans starting at v
    closes = [0] * (n + 1)         # clause bits of spans ending at v
    cut_add = [[0, 0] for _ in range(n + 1)]
    for p, c in enumerate(f.clauses):
        vs = [var_of(l) for l in c.lits]
        lo, hi = (min(vs), max(vs)) if vs else (0, 0)
        spans.append((lo, hi))
        if lo == hi:
            continue
        bit = 1 << p
        opens[lo] += 1
        closes[hi] |= bit
        for l in c.lits:
            v = var_of(l)
            if v < hi:
                cut_add[v][l > 0] |= bit
                if reach[v] < hi:
                    reach[v] = hi
    leaves = [0] * (n + 1)         # variable bits whose reach is v
    sep_add = [(0, 0)] * (n + 1)
    cutwidth = pathwidth = width = seps = 0
    for v in range(1, n + 1):
        if reach[v] > v:
            leaves[reach[v]] |= 1 << v
            sep_add[v] = (0, 1 << v)
            seps += 1
        seps -= leaves[v].bit_count()
        width += opens[v] - closes[v].bit_count()
        cutwidth = max(cutwidth, width)
        pathwidth = max(pathwidth, seps)
    steps = {"cutset": ([~b for b in closes], cut_add),
             "separator": ([~b for b in leaves], sep_add)}
    return CutStructure(spans, reach, steps, cutwidth, pathwidth)
