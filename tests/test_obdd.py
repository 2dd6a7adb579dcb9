import io
import random

import pytest

from allsat import count_models, dump, enumerate_all, extend_obdd, load
from allsat.obdd import ObddCorruption
from allsat.obdd import (BOT, TOP, ObddLoadError, ObddStore, compact,
                         iter_paths)

from conftest import reference_count


def extend(store, g, bits, *args, **kwargs):
    """``extend_obdd`` along ``bits``, the values of variables 1, 2, ..."""
    return extend_obdd(store, g, [None, *bits], len(bits), *args, **kwargs)


def test_first_path_builds_chain():
    store = ObddStore(4)
    bits = [0, 1, 0, 1]
    path = extend(store, TOP, bits)
    assert store.size == 4
    assert [store.var[nid] for nid in path] == [1, 2, 3, 4]
    # each entry's arc in the direction of its variable's value leads on
    assert path[0] == store.root
    for nid, bit, child in zip(path, bits, path[1:] + [TOP]):
        assert (store.hi if bit else store.lo)[nid] == child
    assert count_models(store) == 1


def test_paths_share_prefixes():
    store = ObddStore(3)
    extend(store, TOP, [0, 0, 0])
    extend(store, TOP, [0, 0, 1])
    assert store.size == 3          # shared prefix of length 2
    assert count_models(store) == 2
    extend(store, TOP, [1, 1, 1])
    assert store.size == 5
    assert count_models(store) == 3


def test_join_to_cached_node():
    store = ObddStore(3)
    extend(store, TOP, [0, 0, 0])
    node_var3 = next(nid for nid in range(2, 2 + store.size)
                     if store.var[nid] == 3)
    # graft a second prefix onto the solved var-3 node
    extend(store, node_var3, [1, 1])
    assert count_models(store) == 2


def test_overwrite_guard():
    store = ObddStore(2)
    extend(store, TOP, [0, 0])
    with pytest.raises(ObddCorruption):
        extend(store, BOT + 0, [0, 0])   # same arc, different target
    # re-adding the same target is a no-op
    extend(store, TOP, [0, 0])
    assert count_models(store) == 1


def test_interior_arc_that_skips_an_index_is_corruption():
    store = ObddStore(3)
    extend(store, TOP, [0, 0, 0])
    # the root's hi arc jumps straight to the variable-3 node
    node_var3 = store.var.index(3)
    store.hi[store.root] = node_var3
    with pytest.raises(ObddCorruption, match="skips an index"):
        extend(store, TOP, [1, 0, 1])
    # an interior arc into a sink skips the rest of the path
    extend(store, TOP, [0, 1])
    with pytest.raises(ObddCorruption, match="skips an index"):
        extend(store, TOP, [0, 1, 1])


@pytest.mark.parametrize("root", ["sink", "second variable"])
def test_root_not_over_the_first_variable_is_corruption(root):
    store = ObddStore(2)
    if root == "sink":
        extend(store, TOP, [])
    else:
        store.root = store.new_node(2)
    with pytest.raises(ObddCorruption, match="first variable"):
        extend(store, TOP, [0, 1])


def test_empty_prefix_sets_root():
    store = ObddStore(2)
    path = extend(store, TOP, [])
    assert path == []
    assert store.root == TOP
    assert count_models(store) == 1


def test_count_terminals():
    store = ObddStore(0)
    assert count_models(store, BOT) == reference_count(store, BOT) == 0
    assert count_models(store, TOP) == reference_count(store, TOP) == 1
    # a sink root counts the same with branch nodes in the store
    store = ObddStore(2)
    extend(store, TOP, [1, 0])
    assert count_models(store, BOT) == reference_count(store, BOT) == 0
    assert count_models(store, TOP) == reference_count(store, TOP) == 1


def random_grafted(rng: random.Random, n: int, paths: int) -> ObddStore:
    """A diagram of ``paths`` random paths, each to the true sink or to a
    node of the next variable, as the formula-BDD engine grafts them."""
    store = ObddStore(n)
    for _ in range(paths):
        values = [rng.randint(0, 1) for _ in range(rng.randint(1, n))]
        later = [u for u in range(2, len(store.var))
                 if store.var[u] == len(values) + 1]
        g = rng.choice(later) if later and len(values) < n else TOP
        try:
            extend(store, g, values)
        except ObddCorruption:
            pass
    return store


def test_count_sweep_matches_reference_on_a_long_chain():
    """800 variables, numbered against the ids: the sweep needs no
    recursion and follows the variables, not the ids."""
    n = 800
    store = ObddStore(n)
    # node of variable v gets id 2 + n - v, so every arc goes to a lower id
    for v in range(n, 0, -1):
        nid = store.new_node(v)
        store.lo[nid] = TOP if v == n else nid - 1
        store.hi[nid] = store.lo[nid] if v % 3 else BOT
    store.root = len(store.var) - 1
    store.check_ordered()
    want = 2 ** (n - n // 3)
    assert count_models(store) == reference_count(store) == want
    # paths laid by extend_obdd, grafted onto the chain's nodes
    rng = random.Random(8)
    built = random_grafted(rng, n, 30)
    assert count_models(built) == reference_count(built)
    for u in rng.sample(range(len(built.var)), 40):
        assert count_models(built, u) == reference_count(built, u)


def test_compact_keeps_every_node_and_pins():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 8)
        store = random_grafted(rng, n, rng.randint(1, 40))
        ids = range(len(store.var))
        counts = [count_models(store, u) for u in ids]
        pinned = set(rng.sample(range(2, len(store.var)),
                                min(store.size, rng.randint(0, 4))))
        before = store.size
        new = compact(store, pinned)
        store.check_ordered()
        assert store.size <= before
        assert sorted(set(new)) == list(range(len(store.var)))
        assert [count_models(store, new[u]) for u in ids] == counts
        assert len({new[u] for u in pinned}) == len(pinned)
        # nothing is left to merge: a second pass renumbers nothing
        again = compact(store, {new[u] for u in pinned})
        assert again == list(range(len(store.var)))


def test_compact_merges_isomorphic_nodes_of_a_loaded_dump():
    # nodes 2 and 3 are the same node of variable 2, so nodes 4 and 5 of
    # variable 1 are the same node too
    store = load("obdd 4 2\n2 2 0 1\n3 2 0 1\n4 1 2 3\n5 1 3 2\nroot 4\n")
    new = compact(store)
    assert new == [0, 1, 2, 2, 3, 3]
    assert dump(store) == "obdd 2 2\n2 2 0 1\n3 1 2 2\nroot 3\n"
    store = load("obdd 4 2\n2 2 0 1\n3 2 0 1\n4 1 2 3\n5 1 3 2\nroot 4\n")
    # pinning node 3 keeps it and so keeps 4 and 5 apart
    assert compact(store, {3}) == [0, 1, 2, 3, 4, 5]
    assert store.size == 4


@pytest.mark.parametrize("text, want", [
    ("obdd 2 3\n2 1 3 1\n3 3 0 1\nroot 2\n", 2),      # lo skips var 2
    ("obdd 3 3\n2 3 0 1\n3 2 2 1\n4 1 3 2\nroot 4\n", 3),  # hi skips var 2
    ("obdd 2 4\n2 4 1 1\n3 1 2 0\nroot 3\n", 2),      # ids against vars
])
def test_count_loaded_diagrams_that_skip_variables(text, want):
    store = load(text)
    assert count_models(store) == reference_count(store) == want
    for u in range(len(store.var)):
        assert count_models(store, u) == reference_count(store, u)


def test_count_unconstrained_chain():
    store = ObddStore(20)
    for mask in (0, (1 << 20) - 1):
        values = [(mask >> d) & 1 for d in range(20)]
        extend(store, TOP, values)
    assert count_models(store) == 2   # two disjoint chains


def test_count_equals_model_count(ex41):
    from allsat import BddSolver
    solver = BddSolver(ex41)
    assert solver.run_bdd() == 2
    store = solver.store
    assert count_models(store) == enumerate_all(ex41).count
    for path in iter_paths(store):
        assert len(path) == 3       # no index skipping: paths are total


def test_dump_format_anchor():
    store = ObddStore(1)
    nid = store.new_node(1)
    store.hi[nid] = TOP
    store.root = nid
    assert dump(store) == "obdd 1 1\n2 1 0 1\nroot 2\n"


def test_dump_empty():
    store = ObddStore(4)
    assert dump(store) == "obdd 0 4\nroot 0\n"


def test_round_trip(ex31):
    from allsat import BddSolver
    solver = BddSolver(ex31)
    total = solver.run_bdd()
    store = solver.store
    text = dump(store)
    again = load(text)
    assert count_models(again) == total == 22
    assert dump(again) == text
    buf = io.StringIO()
    dump(store, out=buf)
    assert buf.getvalue() == text


@pytest.mark.parametrize("text", [
    "",
    "obdd x 1\nroot 0\n",
    "obdd 1 1\n3 1 0 1\nroot 3\n",     # non-dense id
    "obdd 1 1\n2 1 0 1\n",             # missing root
    "obdd 2 1\n2 1 0 1\nroot 2\n",     # node count mismatch
])
def test_load_errors(text):
    with pytest.raises(ObddLoadError):
        load(text)


@pytest.mark.parametrize("text", [
    "obdd 1 3\n2 1 2 1\nroot 2\n",    # arc back to its own node: a cycle
    "obdd 1 3\n2 1 0 1\nroot -1\n",   # negative root
    "obdd 1 3\n2 1 5 7\nroot 2\n",    # arcs past the last id
    "obdd 1 3\n2 9 0 1\nroot 2\n",    # variable outside 1..3
    "obdd 2 3\n2 2 3 1\n3 1 0 1\nroot 2\n",  # child below its parent
])
def test_load_rejects_corrupt_diagrams(text):
    with pytest.raises(ObddLoadError):
        load(text)


def test_ordering_invariant_after_runs(ex31):
    from allsat import BddSolver
    solver = BddSolver(ex31)
    solver.run_bdd()
    solver.store.check_ordered()


def test_resumed_walk_matches_walk_from_root():
    """Keeping a matching prefix of the previous path changes nothing: the
    nodes, arcs, returned path and corruption errors are those of a walk
    from the root."""
    rng = random.Random(5)
    fresh, resumed = ObddStore(6), ObddStore(6)
    path, prev = [], []
    for _ in range(400):
        values = prev[:rng.randint(0, len(prev))] + \
            [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
        values = values[:6]
        later = [nid for nid in range(2, 2 + fresh.size)
                 if fresh.var[nid] == len(values) + 1]
        g = rng.choice(later + [TOP]) if len(values) < 6 else TOP
        keep = 0
        while keep < min(len(prev), len(values)) and \
                prev[keep] == values[keep]:
            keep += 1
        outcomes = []
        for store, args in ((fresh, ()), (resumed, (path, keep))):
            try:
                outcomes.append(list(extend(store, g, values, *args)))
            except ObddCorruption:
                outcomes.append("corrupt")
        assert outcomes[0] == outcomes[1]
        assert (fresh.var, fresh.lo, fresh.hi, fresh.root) == \
            (resumed.var, resumed.lo, resumed.hi, resumed.root)
        if outcomes[0] == "corrupt":
            path, prev = [], []
        else:
            prev = values


def test_walk_reads_values_by_variable_up_to_last():
    """The walk reads ``values[1..last]`` of an array shaped like
    ``Trail.values`` and ignores every other entry."""
    rng = random.Random(9)
    n = 7
    for _ in range(50):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, n))]
        last = len(bits)
        # positive half, then the negative half read from the end
        values = [rng.choice((-1, 0, 1)) for _ in range(2 * n + 1)]
        values[1:last + 1] = bits
        a, b = ObddStore(n), ObddStore(n)
        assert extend_obdd(a, TOP, values, last) == extend(b, TOP, bits)
        assert (a.var, a.lo, a.hi, a.root) == (b.var, b.lo, b.hi, b.root)


def test_dump_bytes_match_the_per_line_format():
    """One header line, one ``<id> <var> <lo> <hi>`` line per branch node in
    id order, and the root line, on a random store of many nodes."""
    rng = random.Random(10)
    store = ObddStore(30)
    for _ in range(500):
        nid = store.new_node(rng.randint(1, 30))
        store.lo[nid] = rng.randrange(nid + 300)
        store.hi[nid] = rng.randrange(nid + 300)
    store.root = rng.randrange(len(store.var))
    lines = [f"obdd {store.size} {store.num_vars}"]
    for nid in range(2, len(store.var)):
        lines.append(f"{nid} {store.var[nid]} {store.lo[nid]} {store.hi[nid]}")
    want = "\n".join(lines + [f"root {store.root}"]) + "\n"
    assert dump(store) == want
    assert dump(store, root=3) == want.replace(f"root {store.root}\n",
                                               "root 3\n")
