"""OBDD node arena with path extension, model counting, compaction, and a
line-based dump format.

The arena only grows, except when ``compact`` merges isomorphic nodes and
renumbers the survivors, or ``reset`` empties it.

Nodes are dense integer ids: 0 is the false sink, 1 the true sink, branch
nodes start at 2.  Diagrams built by the enumerators never skip variable
indices along a path, so counting root-to-true paths counts models directly.
Arcs start at the false sink and are only ever upgraded: a branch the search
has exhausted without extending provably holds no solutions.

Every arc into a branch node goes to a higher variable (``load`` rejects a
dump that breaks this), so visiting the nodes by decreasing variable visits
every node after all of its children.  Counting and compaction are such
bottom-up sweeps over the flat ``var``/``lo``/``hi`` arrays.
"""

from __future__ import annotations

import io
from collections.abc import Callable


class ObddCorruption(Exception):
    """An OBDD arc would be overwritten with a different target."""


BOT = 0
TOP = 1


class ObddLoadError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ObddStore:
    """Arena of branch nodes for one diagram.  Its variables are positions
    in a variable order: ``order[pos]`` is the original variable at
    position ``pos`` (entry 0 unused), the identity unless given."""

    def __init__(self, num_vars: int, order: list[int] | None = None):
        self.num_vars = num_vars
        self.order = list(range(num_vars + 1)) if order is None else order
        # parallel arrays indexed by id; entries 0/1 are terminal padding
        self.var = [0, 0]
        self.lo = [0, 0]
        self.hi = [0, 0]
        self.root = BOT

    @property
    def size(self) -> int:
        """Live branch-node count."""
        return len(self.var) - 2

    def new_node(self, var: int) -> int:
        nid = len(self.var)
        self.var.append(var)
        self.lo.append(BOT)
        self.hi.append(BOT)
        return nid

    def reset(self) -> None:
        del self.var[2:]
        del self.lo[2:]
        del self.hi[2:]
        self.root = BOT

    def check_ordered(self) -> None:
        for nid in range(2, len(self.var)):
            for child in (self.lo[nid], self.hi[nid]):
                if child >= 2:
                    assert self.var[child] > self.var[nid], \
                        f"node {nid} violates variable ordering"


def extend_obdd(store: ObddStore, g: int, values: list[int], last: int,
                path: list[int] | None = None,
                keep: int = 0, new_node: Callable[[int], int] | None = None
                ) -> list[int]:
    """Add the path that ``values`` (indexed by variable, like
    ``Trail.values``) gives variables 1..``last`` from the root to the
    already-solved node ``g``.

    This is the one walk that creates nodes along a path.  A missing root
    is a fresh node; a missing interior arc to variable v gets the node
    ``new_node(v)`` returns (by default ``store.new_node(v)``, a fresh node
    with both arcs at the false sink).  The final arc is upgraded from the
    false sink to ``g``.  Returns the path as its node ids, root first: the
    entry at index j is the node of variable j + 1, and the direction taken
    there is ``values[j + 1]``, which the caller already holds.

    ``path`` may be the list an earlier call on this store returned.  When
    the variables of its first ``keep`` entries still have the values they
    had in that call, and the store was not reset since, those entries are
    kept and only the rest of the path is walked: arcs are never rewritten,
    so walking them again would reach the same nodes.  The list is updated
    in place and returned.
    """
    if path is None:
        path = []
    if new_node is None:
        new_node = store.new_node
    # the last step is always walked again, since it is the one that grafts
    keep = min(keep, last - 1, len(path) - 1)
    if keep > 0:
        u = path[keep]
        del path[keep:]
    else:
        keep = 0
        path.clear()
        if last == 0:
            if store.root not in (BOT, g):
                raise ObddCorruption("root already points elsewhere")
            store.root = g
            return path
        if store.root == BOT:
            store.root = store.new_node(1)
        u = store.root
        if u < 2 or store.var[u] != 1:
            raise ObddCorruption(
                "root is not a branch node over the first variable")
    var, lo, hi = store.var, store.lo, store.hi
    for d in range(keep + 1, last + 1):
        path.append(u)
        arcs = hi if values[d] else lo
        cur = arcs[u]
        if d == last:
            if cur == BOT:
                arcs[u] = g
            elif cur != g:
                raise ObddCorruption(
                    f"arc of node {u} already set to {cur}, expected {g}")
            break
        if cur == BOT:
            cur = arcs[u] = new_node(d + 1)
        elif cur < 2 or var[cur] != d + 1:
            raise ObddCorruption(
                f"interior arc of node {u} skips an index")
        u = cur
    return path


def count_models(store: ObddStore, root: int | None = None) -> int:
    """Number of root-to-true-sink paths: one bottom-up sweep that visits
    the branch nodes by decreasing variable."""
    if root is None:
        root = store.root
    var, lo, hi = store.var, store.lo, store.hi
    paths = [0] * len(var)
    paths[TOP] = 1
    for u in sorted(range(2, len(var)), key=var.__getitem__, reverse=True):
        paths[u] = paths[lo[u]] + paths[hi[u]]
    return paths[root]


def compact(store: ObddStore, pinned: set[int] | frozenset[int] = frozenset()
            ) -> list[int]:
    """Merge isomorphic nodes and renumber the survivors densely from 2,
    in their old order; return the map from old id to new id.

    One sweep by decreasing variable (children first) merges every node
    not in ``pinned`` into the node of smallest id with the same variable
    and the same children, after its children were merged.  Pinned nodes
    are never merged away, so a caller may still upgrade their arcs.
    Merging keeps every node's variable, so a diagram that never skips a
    variable still never does, and ``store.root`` is remapped.  With
    nothing pinned, a diagram whose nodes all reach the true sink becomes
    its quasi-reduced OBDD, which depends on its path set alone.
    """
    var, lo, hi = store.var, store.lo, store.hi
    size = len(var)
    levels: list[list[int]] = [[] for _ in range(store.num_vars + 1)]
    for u in range(2, size):
        levels[var[u]].append(u)
    rep = list(range(size))
    for level in reversed(levels):
        unique: dict[tuple[int, int], int] = {}
        for u in level:
            if u not in pinned:
                rep[u] = unique.setdefault((rep[lo[u]], rep[hi[u]]), u)
    keep = [u for u in range(2, size) if rep[u] == u]
    new = [BOT] * size
    new[TOP] = TOP
    for nid, u in enumerate(keep, 2):
        new[u] = nid
    new = [new[r] for r in rep]
    var[2:] = [var[u] for u in keep]
    lo[2:] = [new[lo[u]] for u in keep]
    hi[2:] = [new[hi[u]] for u in keep]
    store.root = new[store.root]
    return new


def iter_paths(store: ObddStore, root: int | None = None):
    """Yield each root-to-true path as a tuple of (var, value) pairs.  Only
    for small diagrams (testing)."""
    if root is None:
        root = store.root
    if root == BOT:
        return
    if root == TOP:
        yield ()
        return
    stack = [(root, ())]
    while stack:
        nid, prefix = stack.pop()
        for direction, arcs in enumerate((store.lo, store.hi)):
            child = arcs[nid]
            step = prefix + ((store.var[nid], direction),)
            if child == TOP:
                yield step
            elif child >= 2:
                stack.append((child, step))


def dump(store: ObddStore, root: int | None = None,
         out: io.TextIOBase | None = None) -> str:
    """Serialize: header ``obdd <branch nodes> <vars>``, then, unless the
    store's order is the identity, ``order <original variable at position
    1> ... <at position n>``, one ``<id> <var> <lo> <hi>`` line per branch
    node in id order, footer ``root <id>``."""
    if root is None:
        root = store.root
    lines = [f"obdd {store.size} {store.num_vars}"]
    if store.order != list(range(store.num_vars + 1)):
        lines.append("order " + " ".join(map(str, store.order[1:])))
    for nid in range(2, len(store.var)):
        lines.append(f"{nid} {store.var[nid]} {store.lo[nid]} {store.hi[nid]}")
    lines.append(f"root {root}")
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write(text)
    return text


def load(source: str | io.TextIOBase) -> ObddStore:
    """Parse a dump back into a store (ids and order preserved).

    Raises ``ObddLoadError`` unless every arc and the root name an existing
    id, every variable lies in ``1..num_vars``, every arc into a branch
    node goes to a higher variable (so the diagram is acyclic), and an
    ``order`` line, if any, comes right after the header and lists a
    permutation of ``1..num_vars``."""
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if not lines:
        raise ObddLoadError("empty input", 1)
    head = lines[0].split()
    if len(head) != 3 or head[0] != "obdd":
        raise ObddLoadError("malformed header", 1)
    try:
        count, num_vars = int(head[1]), int(head[2])
    except ValueError:
        raise ObddLoadError("malformed header", 1) from None
    store = ObddStore(num_vars)
    node_lines = [0, 0]       # line of each node, by id
    root_line = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "order":
            try:
                order = [0, *map(int, parts[1:])]
            except ValueError:
                order = []
            if line_no != 2 or sorted(order) != list(range(num_vars + 1)):
                raise ObddLoadError(f"an order line must follow the header "
                                    f"and list 1..{num_vars} once each",
                                    line_no)
            store.order = order
            continue
        if parts[0] == "root":
            if len(parts) != 2:
                raise ObddLoadError("malformed root line", line_no)
            try:
                store.root = int(parts[1])
            except ValueError:
                raise ObddLoadError("malformed root line", line_no) from None
            root_line = line_no
            continue
        if len(parts) != 4:
            raise ObddLoadError("expected '<id> <var> <lo> <hi>'", line_no)
        try:
            nid, var, lo, hi = (int(p) for p in parts)
        except ValueError:
            raise ObddLoadError("non-integer field", line_no) from None
        if nid != len(node_lines):
            raise ObddLoadError(
                f"node ids must be dense from 2, got {nid}", line_no)
        if not 1 <= var <= num_vars:
            raise ObddLoadError(
                f"variable {var} outside 1..{num_vars}", line_no)
        store.new_node(var)
        store.lo[nid] = lo
        store.hi[nid] = hi
        node_lines.append(line_no)
    if store.size != count:
        raise ObddLoadError(
            f"header promised {count} nodes, found {store.size}", 1)
    if not root_line:
        raise ObddLoadError("missing root line", len(lines))
    last = len(store.var) - 1
    if not 0 <= store.root <= last:
        raise ObddLoadError("root id out of range", root_line)
    for nid in range(2, last + 1):
        for child in (store.lo[nid], store.hi[nid]):
            if not (0 <= child <= last and (
                    child < 2 or store.var[child] > store.var[nid])):
                raise ObddLoadError(f"arc to {child} is neither a sink nor "
                                    f"a node of a later variable",
                                    node_lines[nid])
    return store
