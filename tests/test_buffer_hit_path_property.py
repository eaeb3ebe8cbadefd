"""The buffer pool's one-probe hit path is its former ``get``, observably.

:meth:`repro.storage.buffer.BufferPool.get` serves a hit with one dict
probe, through the disk's counter bundle bound when the pool was
built.  :class:`FormerGetPool` keeps the ``get`` it replaced — a
membership test, then a second lookup, the counters reached through
``pool.stats`` (and a timed disk's ``stats`` property) on every call —
as the reference.

Random histories of ``get``/``put``/``mark_dirty``/``discard``/``free``/
``clear``/``resize``/``invalidate``/``flush``, page allocation, guarded
sweeps (committed or rolled back) and a policy swapped after ``clear``
(as the buffer-policy ablation does) run on both pools, each over
its own disk: a bare :class:`SimulatedDisk`, or a :class:`TimedDisk`
wrapping a :class:`FaultyDisk` that fails a drawn set of read and write
attempts.  Under all four replacement policies, after every step, both
must have returned the same page or raised the same error, and show the
same ``IOStats``, resident order (the frames' and the policy's), dirty
set, eviction victims and device time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simio.clock import SimClock
from repro.simio.disk import TimedDisk
from repro.simio.model import make_latency_model
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultyDisk, TransientFaultSchedule
from repro.storage.page import RawBytesSerializer
from repro.storage.replacement import make_policy

PAGES = 8
POLICIES = ("lru", "fifo", "clock", "lfu")


class FormerGetPool(BufferPool):
    """The pool with the ``get`` its one-probe hit path replaced."""

    def get(self, page_id, serializer=None):
        self.stats.logical_reads += 1
        if page_id in self._frames:
            self.policy.on_access(page_id)
            return self._frames[page_id]
        codec = serializer if serializer is not None else self.serializer
        if codec is None:
            raise RuntimeError("BufferPool has no serializer configured")
        image = self.disk.read(page_id)
        pair = self._exchanged.get(page_id)
        if pair is not None and pair[0] == image:
            obj = pair[1]
        else:
            obj = codec.parse(image)
            self._exchanged[page_id] = (image, obj)
        self._admit(page_id, obj)
        return obj


def build(pool_class, policy, capacity, timed, fail_reads, fail_writes):
    """A pool over eight allocated pages, the even ones written."""
    inner = FaultyDisk(page_size=64) if timed else SimulatedDisk(page_size=64)
    disk = TimedDisk(inner, SimClock(), make_latency_model("ssd")) if timed else inner
    for page in range(PAGES):
        disk.allocate()
        if page % 2 == 0:
            disk.write(page, b"disk%d" % page)
    disk.stats.reset()
    if timed:
        # Attempts count from the disk's first access: the set-up wrote
        # four pages, so only a drawn write index above 4 can fail.
        inner.schedule = TransientFaultSchedule(fail_reads, fail_writes)
    return pool_class(disk, capacity=capacity, serializer=RawBytesSerializer(), policy=policy)


PAGE = st.integers(0, PAGES + 2)
STEP = st.one_of(
    # Listed twice so that a history mostly reads, as the pool's users do.
    st.tuples(st.just("get"), PAGE),
    st.tuples(st.just("get"), PAGE),
    st.tuples(st.just("put"), PAGE, st.binary(max_size=3), st.booleans()),
    st.tuples(st.just("mark_dirty"), PAGE),
    st.tuples(st.just("discard"), PAGE),
    st.tuples(st.just("free"), PAGE),
    st.tuples(st.just("alloc"), st.binary(max_size=3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("resize"), st.integers(1, 5)),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("swap"), st.sampled_from(POLICIES)),
    st.tuples(
        st.just("guard"),
        st.lists(
            st.tuples(st.sampled_from(("get", "put", "alloc")), PAGE, st.binary(max_size=3)),
            max_size=6,
        ),
        st.booleans(),
    ),
)


def apply(pool, step):
    """Run one step; what it returned, or the name of what it raised."""
    try:
        return run(pool, step)
    except (KeyError, OSError, RuntimeError) as error:
        return type(error).__name__


def run(pool, step):
    kind = step[0]
    if kind == "get":
        return pool.get(step[1])
    if kind == "put":
        return pool.put(step[1], step[2], dirty=step[3])
    if kind == "alloc":
        page = pool.disk.allocate()
        pool.put(page, step[1])
        return page
    if kind in ("mark_dirty", "discard", "free"):
        return getattr(pool, kind)(step[1])
    if kind == "resize":
        return pool.resize(step[1])
    if kind == "swap":
        pool.clear()
        pool.policy = make_policy(step[1])
        return None
    if kind != "guard":
        return getattr(pool, kind)()
    pool.flush()
    pool.begin_sweep_guard()
    seen = []
    try:
        for op, page, value in step[1]:
            if op == "get":
                seen.append(pool.get(page))
            elif op == "put":
                pool.put(page, value)
            else:
                seen.append(run(pool, ("alloc", value)))
    except (KeyError, OSError):
        pool.rollback_sweep_guard()
        return ("rolled back on error", seen)
    if step[2]:
        pool.commit_sweep_guard()
    else:
        pool.rollback_sweep_guard()
    return seen


def observed(pool):
    disk = pool.disk
    latency = disk.latency.snapshot() if isinstance(disk, TimedDisk) else None
    return (
        pool.stats.snapshot(),
        pool.resident_pages,
        # The policy's own order (an OrderedDict compares in order):
        # recency, the clock's ring and bits, use counts and arrivals.
        vars(pool.policy),
        pool.dirty_pages,
        pool.guard_active,
        latency,
    )


@settings(max_examples=250, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(1, 5),
    timed=st.booleans(),
    fail_reads=st.sets(st.integers(1, 12), max_size=3),
    fail_writes=st.sets(st.integers(1, 16), max_size=3),
    steps=st.lists(STEP, min_size=1, max_size=40),
)
def test_one_probe_hit_path_is_the_former_get(
    policy, capacity, timed, fail_reads, fail_writes, steps
):
    shipped = build(BufferPool, policy, capacity, timed, fail_reads, fail_writes)
    former = build(FormerGetPool, policy, capacity, timed, fail_reads, fail_writes)
    for step in steps:
        before = shipped.resident_pages
        assert before == former.resident_pages
        assert apply(shipped, step) == apply(former, step), step
        assert observed(shipped) == observed(former), step
        # Victims: the pages the step pushed out, in the order they sat.
        victims = [page for page in before if page not in shipped]
        assert victims == [page for page in before if page not in former]


def test_a_hit_costs_one_probe_and_counts_on_the_disks_bundle():
    disk = TimedDisk(FaultyDisk(page_size=64), SimClock(), make_latency_model("ssd"))
    page = disk.allocate()
    pool = BufferPool(disk, capacity=2, serializer=RawBytesSerializer())
    pool.put(page, b"")  # a falsy node is still a resident one
    assert pool.get(page) == b""
    assert pool.stats is disk.stats is disk.inner.stats
    assert (disk.stats.logical_reads, disk.stats.physical_reads) == (1, 0)


def test_a_policy_swapped_after_clear_sees_every_hit():
    disk = SimulatedDisk(page_size=64)
    pages = [disk.allocate() for _ in range(3)]
    pool = BufferPool(disk, capacity=2, serializer=RawBytesSerializer(), policy="fifo")
    pool.put(pages[0], b"a")
    pool.clear()
    pool.policy = make_policy("lru")
    pool.put(pages[0], b"a", dirty=False)
    pool.put(pages[1], b"b", dirty=False)
    assert pool.get(pages[0]) == b"a"  # a hit: page 1 is now the LRU page
    pool.put(pages[2], b"c", dirty=False)
    assert pool.resident_pages == [pages[0], pages[2]]
