"""CNF problem representation: literals, clauses, DIMACS I/O and variable
reordering.

Literals are signed integers in the DIMACS convention: ``v`` is the positive
literal of variable ``v`` (1-based), ``-v`` its negation.  A clause is the
tuple of its literals, in first-occurrence order after deduplication;
tautological clauses are dropped at parse time.  The engines copy the
clauses into lists of their own.

A clause spans cut i (the boundary between positions <= i and > i) when
its variables lie on both sides; the cut width is the most clauses that
span one cut.  The diagram engines' work grows as 2 to the cut width
(Huang & Darwiche, SAT 2004), so ``choose_order`` gives them a narrower
order (FORCE, Aloul, Markov & Sakallah, GLSVLSI 2003) when the input's own
is wide.
"""

from __future__ import annotations

import functools
import gc
import io
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

# rounds of FORCE that choose_order runs at most
FORCE_ROUNDS = 10


class InputError(Exception):
    """An input file that cannot be read or is malformed."""


class DimacsError(InputError):
    """Malformed DIMACS input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector paused while it runs.  It
    builds many containers and no cycles, so collections there find nothing
    to free; the caller's setting is restored however ``fn`` ends."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def var_of(lit: int) -> int:
    """Variable index underlying a literal."""
    return lit if lit > 0 else -lit


@dataclass
class ParseStats:
    tautologies_dropped: int = 0
    duplicates_removed: int = 0


class CnfFormula:
    """An immutable CNF problem over variables ``1..num_vars`` whose
    clauses are literal tuples.

    ``order`` maps external (original) variable names to internal indices;
    results computed internally are reported back in external names through
    :meth:`to_external`.
    """

    def __init__(self, num_vars: int, clauses: list[tuple[int, ...]],
                 order: list[int] | None = None,
                 parse_stats: ParseStats | None = None):
        self.num_vars = num_vars
        self.clauses = clauses
        # order[ext] = internal index; index 0 unused.
        self.order = order if order is not None else list(range(num_vars + 1))
        self.parse_stats = parse_stats or ParseStats()
        # signed internal literal -> external literal, indexed like
        # Trail.values (external[-v] is read from the end)
        self.external = [0] * (2 * num_vars + 1)
        for ext, internal in enumerate(self.order):
            if ext == 0:
                continue
            self.external[internal] = ext
            self.external[-internal] = -ext

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def has_empty_clause(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    def to_external(self, lit: int) -> int:
        """Map an internal literal back to the original variable name."""
        return self.external[lit]

    def lit_sets(self) -> list[frozenset[int]]:
        return [frozenset(c) for c in self.clauses]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.lit_sets() == other.lit_sets())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CnfFormula(n={self.num_vars}, m={self.num_clauses})"


@gc_paused
def parse_dimacs(text: str | bytes | io.TextIOBase,
                 budget=None) -> CnfFormula:
    """Parse DIMACS CNF: ``c`` comments, a ``p cnf n m`` header, clauses as
    0-terminated literal lists.

    Duplicate literals inside a clause are removed; tautological clauses
    (containing ``x`` and ``-x``) are dropped and counted.  A ``%`` line ends
    the clause section (common trailer in benchmark archives).  ``budget``,
    when given, has its deadline checked after every 1,024 lines.
    """
    if isinstance(text, bytes):
        lines = text.decode("ascii", errors="replace").splitlines()
    elif isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = text.read().splitlines()

    num_vars = num_clauses = -1
    header_line = 0
    clauses: list[tuple[int, ...]] = []
    stats = ParseStats()
    current: list[int] = []
    current_set: set[int] = set()
    tautological = False

    def close_clause(line_no: int) -> None:
        nonlocal current, current_set, tautological
        if tautological:
            stats.tautologies_dropped += 1
        else:
            clauses.append(tuple(current))
        current = []
        current_set = set()
        tautological = False

    last_line = 0
    # the lines in runs of 1,024, with a clock read between runs
    for start in range(0, len(lines), 1024):
        if start and budget is not None:
            budget.check_time()
        for line_no, raw in enumerate(lines[start:start + 1024], start + 1):
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
                    raise DimacsError(f"malformed header {line!r}",
                                      line_no) from None
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
        else:
            continue
        break   # a % line ended the clause section

    if num_vars < 0:
        raise DimacsError("missing header", last_line or 1)
    if current:
        raise DimacsError("clause missing 0 terminator", last_line)
    if len(clauses) + stats.tautologies_dropped != num_clauses:
        raise DimacsError(
            f"header promised {num_clauses} clauses, found "
            f"{len(clauses) + stats.tautologies_dropped}", header_line)
    return CnfFormula(num_vars, clauses, parse_stats=stats)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the input file at ``path``: the one place input
    files are read.  A file that cannot be read raises InputError, and
    one that is not UTF-8 text a DimacsError at the line of the bad byte."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(str(exc)) from None
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise DimacsError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text",
                          data.count(b"\n", 0, exc.start) + 1) from None


def render_dimacs(f: CnfFormula) -> str:
    """Render a formula back to DIMACS text (round-trips through parse)."""
    out = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for c in f.clauses:
        out.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(out) + "\n"


def from_clause_lists(num_vars: int, clause_lists: list[list[int]]) -> CnfFormula:
    """Build a formula from plain literal lists (test/bench convenience)."""
    clauses = [tuple(dict.fromkeys(lits)) for lits in clause_lists]
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
    clauses = [tuple(perm[l] if l > 0 else -perm[-l] for l in c)
               for c in f.clauses]
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


def keeps_order(f: CnfFormula) -> bool:
    """Whether ``f``'s own order is narrow: 2^w <= L, for its cut width w
    and its number of literals L.  Then the diagram search is no bigger
    than the input, and no reordering could pay for itself.

    One pass over the clauses, with no deadline check.  The count of
    clauses that span a cut only grows as clauses are added, so the pass
    stops at the first checkpoint (after 1,024, 2,048, 4,096, ... clauses)
    at which some cut already has more than log2 L."""
    clauses = f.clauses
    most = sum(map(len, clauses)).bit_length() - 1   # largest w kept
    if most < 0 or not all(clauses):   # no literal, or an empty clause
        return True
    # opened[i] - clauses whose first variable is i less those whose last
    # is i: its prefix sums count the clauses spanning each cut
    opened = [0] * (f.num_vars + 1)
    start, end = 0, 1024
    while start < len(clauses):
        for c in clauses[start:end]:
            vs = sorted(map(abs, c))
            opened[vs[0]] += 1
            opened[vs[-1]] -= 1
        if max(accumulate(opened)) > most:
            return False
        start, end = end, 2 * end
    return True


def force_order(f: CnfFormula, budget=None) -> list[int] | None:
    """The best order of at most FORCE_ROUNDS rounds of FORCE, as a
    permutation for :func:`apply_order`, or None when none is strictly
    better than ``f``'s own.  Orders are scored by (cut width, total span
    of the clauses), lowest first.

    A round places every clause at the mean position of its variables (its
    centre of gravity) and every variable at the mean centre of its
    clauses, ranks the variables by that (ties keep their order), and
    numbers them 1..n.  Each round is one pass over the clauses, which
    also scores the order it starts from; the rounds stop early at a fixed
    point.  The result depends on ``f`` alone.  ``budget``, when given, has
    its time limit checked every 1,024 clauses of each pass, and of the
    one before the rounds that counts each variable's clauses."""
    n = f.num_vars
    edges = [c for c in f.clauses if len(c) > 1]
    occurs = [0] * (2 * n + 1)        # clauses of each signed literal
    for p, c in enumerate(edges):
        if not p & 1023 and budget is not None:
            budget.check_time()
        for l in c:
            occurs[l] += 1
    ranked = list(range(1, n + 1))    # the variables by position
    own = pos = list(range(n + 1))    # the position of each variable
    best = best_pos = None
    for rnd in range(FORCE_ROUNDS + 1):
        at = pos + pos[:0:-1]         # the position of each signed literal
        opened = [0] * (n + 1)        # as in keeps_order
        gravity = [0.0] * (2 * n + 1)   # by signed literal
        span = 0
        for p, c in enumerate(edges):
            if not p & 1023 and budget is not None:
                budget.check_time()
            ps = [at[l] for l in c]
            lo, hi = min(ps), max(ps)
            opened[lo] += 1
            opened[hi] -= 1
            span += hi - lo
            centre = sum(ps) / len(ps)
            for l in c:
                gravity[l] += centre
        score = (max(accumulate(opened)), span)
        if best is None or score < best:
            best, best_pos = score, pos
        if rnd == FORCE_ROUNDS:
            break
        key = [(gravity[v] + gravity[-v]) / (occurs[v] + occurs[-v])
               if occurs[v] or occurs[-v] else pos[v] for v in range(n + 1)]
        moved = sorted(ranked, key=key.__getitem__)
        if moved == ranked:
            break
        ranked = moved
        pos = [0] * (n + 1)
        for rank, v in enumerate(ranked, 1):
            pos[v] = rank
    return None if best_pos is own else best_pos


@gc_paused
def choose_order(f: CnfFormula, budget=None) -> CnfFormula:
    """``f`` under the order the diagram engines run best with: its own
    when it is narrow (:func:`keeps_order`), else the best order of
    :func:`force_order` when that is strictly better.  ``budget``, when
    given, binds the rounds of FORCE."""
    if keeps_order(f):
        return f
    perm = force_order(f, budget)
    return f if perm is None else apply_order(f, perm)
