"""CNF problem representation: literals, clauses, DIMACS I/O and variable
reordering.

Literals are signed integers in the DIMACS convention: ``v`` is the positive
literal of variable ``v`` (1-based), ``-v`` its negation.  Clauses keep their
literals in first-occurrence order after deduplication; tautological clauses
are dropped at parse time.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path


class InputError(Exception):
    """An input file that cannot be read or is malformed."""


class DimacsError(InputError):
    """Malformed DIMACS input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def var_of(lit: int) -> int:
    """Variable index underlying a literal."""
    return lit if lit > 0 else -lit


@dataclass(eq=False)
class Clause:
    """A disjunction of literals.

    ``cid`` is a problem clause's position in the input (-1 for learned and
    blocking clauses); which kind a clause is shows in the clause store list
    that holds it.  Identity (not value) equality keeps clauses usable as
    watcher-list entries and antecedents.
    """

    lits: list[int]
    cid: int = -1

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clause({self.lits}, id={self.cid})"

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
            clauses.append(Clause(current, cid=len(clauses)))
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
        out.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(out) + "\n"


def from_clause_lists(num_vars: int, clause_lists: list[list[int]]) -> CnfFormula:
    """Build a formula from plain literal lists (test/bench convenience)."""
    clauses = [Clause(list(dict.fromkeys(lits)), cid=i)
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
        clauses.append(Clause(lits, cid=c.cid))
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
