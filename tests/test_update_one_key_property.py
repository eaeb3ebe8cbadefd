"""An update computes its user's PEB-key once, and touches what the
delete + insert it replaced touched.

:meth:`PEBTree.update` keys the new state once and hands that key to
the one insert path (``PEBTree._insert_at``) when the entry moves or the
user is new.  :class:`DeleteInsertTree` is the former update: it keys a
moved user to compare with the memo and then again inside
:meth:`PEBTree.insert`.  Over random histories — first inserts,
same-key re-reports, moves inside a partition and across a partition
rollover, on a pool small enough to evict — the shipped tree must call
``key_for`` once per update and leave everything the reference leaves:
entries, memo, speed maxima, ``IOStats``, resident page order and dirty
pages.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peb_tree import PEBTree
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.test_update_batch_property import _STORE, N_USERS, PHASE, SPACE


class DeleteInsertTree(PEBTree):
    """The former :meth:`PEBTree.update`: a moved entry is a delete and
    an :meth:`insert` that computes the key a second time."""

    def update(self, obj, pntp=0):
        old_key = self.live.keys.get(obj.uid)
        if old_key is None:
            self.insert(obj, pntp)
            return
        new_key = self.key_for(obj)
        if new_key == old_key:
            if not self.btree.replace(old_key, obj.uid, self.records.pack(obj, pntp)):
                raise RuntimeError(f"update memo out of sync for user {obj.uid}")
            self.live.max_speed_x = max(self.live.max_speed_x, abs(obj.vx))
            self.live.max_speed_y = max(self.live.max_speed_y, abs(obj.vy))
            return
        self.delete(obj.uid)
        self.insert(obj, pntp)


def counting(tree):
    """Count ``tree.key_for`` calls in ``tree.key_calls``."""
    key_for = tree.key_for
    tree.key_calls = 0

    def counted(obj):
        tree.key_calls += 1
        return key_for(obj)

    tree.key_for = counted
    return tree


def make(cls, capacity=6):
    pool = BufferPool(SimulatedDisk(page_size=256), capacity=capacity)
    return counting(cls(pool, Grid(SPACE, 10), TimePartitioner(120.0, 2), _STORE))


def observed(tree):
    pool = tree.btree.pool
    return (
        list(tree.btree.items()),
        dict(tree.live.keys),
        (tree.live.max_speed_x, tree.live.max_speed_y),
        pool.stats.snapshot(),
        pool.resident_pages,
        pool.dirty_pages,
    )


def state(uid, x, y, v=1.0, t=0.0):
    return MovingObject(uid=uid, x=x, y=y, vx=v, vy=-v, t_update=t)


def test_each_update_keys_its_state_once():
    tree = make(PEBTree)
    former = make(DeleteInsertTree)
    for probe in (tree, former):
        probe.update(state(1, 10.0, 10.0))  # first insert
        assert probe.key_calls == 1
        probe.update(state(1, 10.0, 10.0), pntp=3)  # same key: in place
        assert probe.key_calls == 2
        probe.update(state(1, 900.0, 900.0))  # moved
    assert tree.key_calls == 3
    assert former.key_calls == 4
    assert observed(tree) == observed(former)


step = st.tuples(
    st.integers(min_value=0, max_value=N_USERS - 1),
    st.sampled_from(["move", "same", "move", "rollover"]),
    st.floats(min_value=0.0, max_value=SPACE - 1.0),
    st.floats(min_value=0.0, max_value=SPACE - 1.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=7),
)


@settings(max_examples=60, deadline=None)
@given(
    history=st.lists(step, min_size=1, max_size=80),
    capacity=st.integers(min_value=3, max_value=12),
)
def test_update_touches_what_delete_plus_insert_touched(history, capacity):
    shipped = make(PEBTree, capacity)
    former = make(DeleteInsertTree, capacity)
    states: dict[int, MovingObject] = {}
    now = 0.0
    for index, (uid, kind, x, y, v, pntp) in enumerate(history):
        current = states.get(uid)
        if kind == "same" and current is not None:
            obj = current  # same cell, same partition: an in-place rewrite
        else:
            if kind == "rollover":
                now += PHASE
            obj = state(uid, x, y, v, now)
        states[uid] = obj
        shipped.update(obj, pntp)
        former.update(obj, pntp)
        assert shipped.key_calls == index + 1
        assert observed(shipped) == observed(former)
    shipped.btree.check_invariants()
