"""Property tests pinning batch update application to sequential.

Two layers, two models:

* :meth:`BPlusTree.apply_sorted_batch` against a plain dict — random
  sorted insert/delete/replace batches must leave exactly the model's
  contents, with structural invariants intact, across cold restarts.
* :meth:`PEBTree.update_batch` against one-at-a-time
  :meth:`PEBTree.update` on an identical twin tree — randomized mixed
  workloads (first-time inserts, moves, same-key in-place re-reports,
  duplicate re-reports of one user, update times crossing a time-
  partition rollover mid-batch) must produce identical final entries,
  an identical update memo, identical speed maxima, and a structurally
  valid tree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peb_tree import PEBTree
from repro.core.sequencing import assign_sequence_values
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.conftest import make_tree
from tests.test_fence_proof_property import assert_fence_matches_model

# ----------------------------------------------------------------------
# B+-tree layer
# ----------------------------------------------------------------------

batch_op = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=3),
)


def _apply_batches(tree, model, batches, flush_between, windows=()):
    """Apply each drawn batch, made valid against ``model``, and check
    the tree against the model after it: invariants, contents, point
    lookups, and the fences of ``scan_fenced`` over ``windows``."""
    for batch in batches:
        # Make the drawn ops valid: at most one op per entry identity,
        # inserts of absent entries, deletes/replaces of present ones.
        ops = []
        claimed = set()
        for kind, key, uid in batch:
            ck = (key, uid)
            if ck in claimed:
                continue
            present = ck in model
            if kind == "insert" and present:
                kind = "replace"
            if kind != "insert" and not present:
                kind = "insert"
            value = None if kind == "delete" else bytes([kind == "insert", uid]) * 8
            ops.append((kind, key, uid, value))
            claimed.add(ck)
        ops.sort(key=lambda op: (op[1], op[2]))

        tree.apply_sorted_batch(ops)
        for kind, key, uid, value in ops:
            if kind == "delete":
                del model[(key, uid)]
            else:
                model[(key, uid)] = value
        if flush_between:
            tree.pool.clear()  # cold restart between batches

        tree.check_invariants()
        assert [(k, u) for k, u, _ in tree.items()] == sorted(model)
        for (key, uid), value in model.items():
            assert tree.search(key, uid) == value
        for key_a, key_b, uid_a, uid_b in windows:
            lo = min((key_a, uid_a), (key_b, uid_b))
            hi = max((key_a, uid_a), (key_b, uid_b))
            assert_fence_matches_model(tree, model, lo, hi)


@settings(max_examples=30, deadline=None)
@given(
    seed_keys=st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=150),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=120,
    ),
    batches=st.lists(st.lists(batch_op, max_size=80), min_size=1, max_size=4),
    flush_between=st.booleans(),
)
def test_apply_sorted_batch_matches_dict_model(seed_keys, batches, flush_between):
    tree = make_tree(page_size=512, buffer_pages=12)
    model: dict[tuple[int, int], bytes] = {}
    for key, uid in sorted(seed_keys):
        value = bytes([key % 256, uid]) * 8
        tree.insert(key, uid, value)
        model[(key, uid)] = value
    _apply_batches(tree, model, batches, flush_between)


#: Keys of the height-3 draws: a seeded run of up to 600 keys and ops
#: a little past its end.
DEEP_KEYS = st.integers(min_value=0, max_value=700)
#: One tier-1 example per five of the loaded profile's: 20 by default,
#: 200 under ``--hypothesis-profile=deep``.
DEEP_EXAMPLES = max(20, settings.default.max_examples // 5)


@settings(max_examples=DEEP_EXAMPLES, deadline=None)
@given(
    seed_count=st.integers(min_value=150, max_value=600),
    batches=st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "delete", "replace"]),
                    DEEP_KEYS,
                    st.integers(min_value=0, max_value=3),
                ),
                max_size=60,
            ),
            DEEP_KEYS,
            st.integers(min_value=0, max_value=300),
        ),
        min_size=1,
        max_size=3,
    ),
    flush_between=st.booleans(),
    windows=st.lists(
        st.tuples(DEEP_KEYS, DEEP_KEYS, st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    ),
)
def test_apply_sorted_batch_matches_dict_model_at_height_3(
    seed_count, batches, flush_between, windows
):
    """The dict model on height-3 trees (leaf capacity 8), where a batch
    that drains a contiguous key range can leave an internal node with
    one child: each drawn batch is scattered ops plus deletes of the
    seeded keys in ``[lo, lo + span)`` (a key an earlier batch removed
    is inserted again, as any drawn op on an absent entry is)."""
    tree = make_tree(page_size=256, buffer_pages=12)
    model: dict[tuple[int, int], bytes] = {}
    for key in range(seed_count):
        value = bytes([key % 256, 0]) * 8
        tree.insert(key, 0, value)
        model[(key, 0)] = value
    assert tree.height == 3
    drawn = [
        [("delete", key, 0) for key in range(lo, min(lo + span, seed_count))]
        + scattered
        for scattered, lo, span in batches
    ]
    _apply_batches(tree, model, drawn, flush_between, windows)


def test_a_borrow_rechecks_the_drained_only_child_of_an_internal_node():
    """One batch drains every leaf under an internal node but one, and
    that one too; the node then borrows a child from its neighbour.  The
    drained leaf it kept had no sibling to be fixed with until then, and
    must be rebalanced, not left empty (``leaf 25 underfull: 0``)."""
    tree = make_tree(page_size=256, buffer_pages=12)
    for key in range(300):
        tree.insert(key, 0, b"v" * 16)
    assert tree.height == 3
    stats = tree.apply_sorted_batch([("delete", k, 0, None) for k in range(49, 225)])
    assert stats.borrows > 0
    tree.check_invariants()
    assert [key for key, _, _ in tree.items()] == [*range(49), *range(225, 300)]


def test_apply_sorted_batch_rejects_bad_input():
    tree = make_tree()
    tree.insert(5, 0, b"v" * 16)
    try:
        tree.apply_sorted_batch([("frob", 1, 0, b"x" * 16)])
        raise AssertionError("unknown kind accepted")
    except ValueError:
        pass
    try:
        tree.apply_sorted_batch(
            [("insert", 9, 0, b"x" * 16), ("insert", 7, 0, b"x" * 16)]
        )
        raise AssertionError("unsorted batch accepted")
    except ValueError:
        pass
    try:
        tree.apply_sorted_batch([("insert", 5, 0, b"x" * 16)])
        raise AssertionError("duplicate insert accepted")
    except KeyError:
        pass
    try:
        tree.apply_sorted_batch([("delete", 99, 0, None)])
        raise AssertionError("missing delete accepted")
    except KeyError:
        pass
    tree.check_invariants()
    assert tree.search(5, 0) == b"v" * 16


def test_apply_sorted_batch_mass_delete_then_mass_insert():
    """Cascading merges down to an empty root, then cascading splits."""
    tree = make_tree(page_size=512, buffer_pages=12)
    for key in range(400):
        tree.insert(key, 0, b"v" * 16)
    stats = tree.apply_sorted_batch([("delete", k, 0, None) for k in range(400)])
    tree.check_invariants()
    assert len(tree) == 0
    assert stats.deletes == 400
    stats = tree.apply_sorted_batch(
        [("insert", k, 0, b"w" * 16) for k in range(800)]
    )
    tree.check_invariants()
    assert len(tree) == 800
    assert stats.inserts == 800
    assert stats.leaves_visited < 800  # the whole point


# ----------------------------------------------------------------------
# PEB-tree layer
# ----------------------------------------------------------------------

N_USERS = 24
SPACE = 1000.0
PHASE = 60.0  # TimePartitioner(120, 2)


def _make_store(uids):
    store = PolicyStore()
    everywhere = Rect(0, SPACE, 0, SPACE)
    always = TimeInterval(0, 1440)
    for index, uid in enumerate(uids):
        store.add_policy(
            LocationPrivacyPolicy(owner=uid, role="f", locr=everywhere, tint=always),
            members=[uids[(index + 1) % len(uids)]],
        )
    report = assign_sequence_values(list(uids), store, SPACE * SPACE)
    store.set_sequence_values(report.sequence_values)
    return store


#: One immutable policy store shared by every drawn example — the trees
#: are rebuilt per example, the encoding is not worth re-running.
_STORE = _make_store(list(range(N_USERS)))


def _twin_trees():
    """Two observationally identical PEB-trees over the same store."""
    uids = list(range(N_USERS))
    store = _STORE
    trees = []
    for _ in range(2):
        pool = BufferPool(SimulatedDisk(page_size=512), capacity=64)
        tree = PEBTree(pool, Grid(SPACE, 10), TimePartitioner(120.0, 2), store)
        # Index the first half; the rest arrive via updates.
        for uid in uids[: N_USERS // 2]:
            tree.insert(
                MovingObject(
                    uid=uid,
                    x=(uid * 37.0) % SPACE,
                    y=(uid * 53.0) % SPACE,
                    vx=1.0,
                    vy=-0.5,
                    t_update=0.0,
                )
            )
        trees.append(tree)
    return trees


update_draw = st.tuples(
    st.integers(min_value=0, max_value=N_USERS - 1),
    st.sampled_from(["move", "inplace", "move", "move"]),
    st.floats(min_value=0.0, max_value=SPACE - 1.0),
    st.floats(min_value=0.0, max_value=SPACE - 1.0),
    st.floats(min_value=-3.0, max_value=3.0),
    # Offsets spanning more than one phase cross a partition rollover
    # inside a single batch.
    st.floats(min_value=0.0, max_value=1.9 * PHASE),
    st.integers(min_value=0, max_value=7),
)


@settings(max_examples=20, deadline=None)
@given(
    rounds=st.lists(
        st.lists(update_draw, min_size=1, max_size=30), min_size=1, max_size=3
    )
)
def test_update_batch_observationally_equals_sequential(rounds):
    sequential, batched = _twin_trees()
    now = 0.0
    states: dict[int, MovingObject] = {
        obj.uid: obj for obj in sequential.fetch_all()
    }
    for round_draws in rounds:
        batch: list[tuple[MovingObject, int]] = []
        for uid, kind, x, y, v, dt, pntp in round_draws:
            current = states.get(uid)
            if kind == "inplace" and current is not None:
                # Same state, same label partition: only pntp changes,
                # so the PEB-key is untouched and the replace fast path
                # must carry the batch op.
                obj = current
            else:
                obj = MovingObject(
                    uid=uid, x=x, y=y, vx=v, vy=-v, t_update=now + dt
                )
            batch.append((obj, pntp))
            states[uid] = obj
        for obj, pntp in batch:
            sequential.update(obj, pntp)
        result = batched.update_batch(batch)
        now += PHASE / 2

        sequential.btree.check_invariants()
        batched.btree.check_invariants()
        assert sequential.live.keys == batched.live.keys
        assert list(sequential.btree.items()) == list(batched.btree.items())
        assert sequential.live.max_speed_x == batched.live.max_speed_x
        assert sequential.live.max_speed_y == batched.live.max_speed_y
        assert batched.check_consistency() == []
        distinct = len({obj.uid for obj, _ in batch})
        assert result.ops == distinct
        assert result.in_place + result.moved + result.inserted == distinct


def test_update_batch_crossing_rollover_lands_in_both_partitions():
    """Updates straddling a label boundary key into different TIDs."""
    _, tree = _twin_trees()
    uid_a, uid_b = 0, 1
    batch = [
        MovingObject(uid=uid_a, x=10.0, y=10.0, vx=0.0, vy=0.0, t_update=10.0),
        MovingObject(uid=uid_b, x=10.0, y=10.0, vx=0.0, vy=0.0, t_update=70.0),
    ]
    tree.update_batch(batch)
    tid_a = tree.codec.decompose(tree.live.keys[uid_a])[0]
    tid_b = tree.codec.decompose(tree.live.keys[uid_b])[0]
    assert tid_a != tid_b
    assert tree.partitioner.partition(10.0) == tid_a
    assert tree.partitioner.partition(70.0) == tid_b


def test_update_batch_duplicate_uid_last_wins():
    sequential, batched = _twin_trees()
    older = MovingObject(uid=2, x=100.0, y=100.0, vx=0.0, vy=0.0, t_update=5.0)
    newer = MovingObject(uid=2, x=900.0, y=900.0, vx=1.0, vy=1.0, t_update=20.0)
    sequential.update(older)
    sequential.update(newer)
    result = batched.update_batch([older, newer])
    assert result.ops == 1
    assert list(sequential.btree.items()) == list(batched.btree.items())
    assert batched.fetch_all()[0] is not None
    moved = [obj for obj in batched.fetch_all() if obj.uid == 2]
    assert moved[0].x == 900.0


def test_update_batch_empty_is_a_noop():
    _, tree = _twin_trees()
    before = list(tree.btree.items())
    result = tree.update_batch([])
    assert result.ops == 0
    assert list(tree.btree.items()) == before
