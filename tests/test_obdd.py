import io
import random

import pytest

from allsat import count_models, dump, enumerate_all, extend_obdd, load
from allsat.obdd import ObddCorruption
from allsat.obdd import BOT, TOP, ObddLoadError, ObddStore, iter_paths


def test_first_path_builds_chain():
    store = ObddStore(4)
    path = extend_obdd(store, TOP, [0, 1, 0, 1])
    assert store.size == 4
    assert [store.var[nid] for nid, _ in path] == [1, 2, 3, 4]
    assert count_models(store) == 1


def test_paths_share_prefixes():
    store = ObddStore(3)
    extend_obdd(store, TOP, [0, 0, 0])
    extend_obdd(store, TOP, [0, 0, 1])
    assert store.size == 3          # shared prefix of length 2
    assert count_models(store) == 2
    extend_obdd(store, TOP, [1, 1, 1])
    assert store.size == 5
    assert count_models(store) == 3


def test_join_to_cached_node():
    store = ObddStore(3)
    extend_obdd(store, TOP, [0, 0, 0])
    node_var3 = next(nid for nid in range(2, 2 + store.size)
                     if store.var[nid] == 3)
    # graft a second prefix onto the solved var-3 node
    extend_obdd(store, node_var3, [1, 1])
    assert count_models(store) == 2


def test_overwrite_guard():
    store = ObddStore(2)
    extend_obdd(store, TOP, [0, 0])
    with pytest.raises(ObddCorruption):
        extend_obdd(store, BOT + 0, [0, 0])   # same arc, different target
    # re-adding the same target is a no-op
    extend_obdd(store, TOP, [0, 0])
    assert count_models(store) == 1


def test_empty_prefix_sets_root():
    store = ObddStore(2)
    path = extend_obdd(store, TOP, [])
    assert path == []
    assert store.root == TOP
    assert count_models(store) == 1


def test_count_terminals():
    store = ObddStore(0)
    assert count_models(store, BOT) == 0
    assert count_models(store, TOP) == 1


def test_count_unconstrained_chain():
    store = ObddStore(20)
    for mask in (0, (1 << 20) - 1):
        values = [(mask >> d) & 1 for d in range(20)]
        extend_obdd(store, TOP, values)
    assert count_models(store) == 2   # two disjoint chains


def test_count_equals_model_count(ex41):
    from allsat import BddSolver
    result = BddSolver(ex41).run_bdd()
    store = result.store
    assert result.total == 2
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
    result = BddSolver(ex31).run_bdd()
    store = result.store
    text = dump(store)
    again = load(text)
    assert count_models(again) == result.total == 22
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
    store = BddSolver(ex31).run_bdd().store
    store.check_ordered()


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
                outcomes.append(list(extend_obdd(store, g, values, *args)))
            except ObddCorruption:
                outcomes.append("corrupt")
        assert outcomes[0] == outcomes[1]
        assert (fresh.var, fresh.lo, fresh.hi, fresh.root) == \
            (resumed.var, resumed.lo, resumed.hi, resumed.root)
        if outcomes[0] == "corrupt":
            path, prev = [], []
        else:
            prev = values
