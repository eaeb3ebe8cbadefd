"""Layer ledger: wall-clock spans recorded from outside the program.

Each row of :data:`TARGETS` names one public function of one layer
(layer = module name).  :class:`LayerTracer` resolves the dotted name,
swaps a timing wrapper in for the duration of one traced pass, and puts
the original back afterwards — nothing under ``src/`` is edited, and a
target that no longer resolves is reported (``unresolved``) instead of
raising, so a PR that deletes or renames a function never has to touch
this file.

Spans aggregate in memory into one call trie per thread (a node per
distinct wrapped-call stack), so a layer's *self* time is its node's
total minus its children's totals, and the collapsed-stack file written
at the end of the pass is a walk of the same trie.  The main thread is
timed on the wall clock.  Pool threads (``IOScheduler``'s
``ThreadPoolExecutor``) are timed on their own CPU clock: under the GIL
their wall spans would count the time they spend waiting for each other,
and the ledger would sum to more than the run.  What the main thread
spends inside ``IOScheduler.run_timed`` while the pool works is
``simio.sched_wait_s``; the part of it the pool threads do not account
for (thread start-up, hand-offs) is the scheduler's own cost and stays
in ``simio.self_s``, so the layers still sum to the traced wall.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time

#: ``(layer, dotted target, calls-metric alias or None)``.  The alias
#: names the ``<layer>.<alias>.calls`` metric; rows without one only
#: contribute self time and collapsed-stack frames.
TARGETS: list[tuple[str, str, str | None]] = [
    ("service", "repro.service.worker.SimulatedService.run", None),
    ("service", "repro.service.queue.RequestQueue.next_batch", None),
    ("service", "repro.service.stats.build_stats", None),
    ("engine.executor", "repro.engine.executor.QueryEngine.execute_batch", None),
    ("engine.executor", "repro.engine.executor.QueryEngine.run_range_plan", None),
    ("engine.plan", "repro.engine.plan.QueryPlanner.plan_range", "plan_range"),
    ("engine.plan", "repro.engine.plan.QueryPlanner.plan_knn_probe", "plan_knn_probe"),
    ("engine.plan", "repro.engine.plan.QueryPlanner.friends", None),
    ("engine.plan", "repro.engine.plan.QueryPlanner.contexts", None),
    ("engine.plan", "repro.engine.plan.QueryPlanner.band", None),
    ("spatial", "repro.spatial.grid.Grid.z_span", "z_span"),
    ("spatial", "repro.spatial.grid.Grid.decompose", None),
    ("spatial", "repro.spatial.decompose.subtract_interval", None),
    ("policy.store", "repro.policy.store.PolicyStore.visibility_map", "visibility_map"),
    ("policy.store", "repro.policy.store.PolicyStore.evaluate", "evaluate"),
    ("policy.store", "repro.policy.store.PolicyStore.friend_list", "friend_list"),
    ("engine.scanner", "repro.engine.scanner.BandScanner.scan", "scan"),
    ("engine.scanner", "repro.engine.scanner.BandScanner.prefetch", "prefetch"),
    ("engine.verify", "repro.engine.verify.CandidateVerifier.admit_rows", "admit_rows"),
    ("engine.verify", "repro.engine.verify.CandidateVerifier.admit", None),
    ("motion.rows", "repro.motion.rows.BandRows.object_at", "object_at"),
    ("motion.rows", "repro.motion.rows.BandRows.concat", None),
    ("core.pknn", "repro.core.pknn.pknn", None),
    ("core.pknn", "repro.core.pknn._MatrixSearch.run", "searches"),
    ("core.pknn", "repro.core.pknn._MatrixSearch.scan_cell", "scan_cell"),
    ("core.pknn", "repro.core.pknn._MatrixSearch.vertical_scan", None),
    ("core.prq", "repro.core.prq.prq", None),
    ("core.prq", "repro.core.prq.prq_from_plan", None),
    ("core.peb_tree", "repro.core.peb_tree.PEBTree.scan_band_rows", "scan_band_rows"),
    ("core.peb_tree", "repro.core.peb_tree.PEBTree.scan_band", "scan_band"),
    ("core.peb_tree", "repro.core.peb_tree.PEBTree.update_batch", "update_batch"),
    ("core.peb_tree", "repro.core.peb_tree.PEBTree.update", "update"),
    ("core.peb_tree", "repro.core.peb_tree.plan_update_batch", None),
    ("engine.updater", "repro.engine.updater.UpdatePipeline.extend", None),
    ("engine.updater", "repro.engine.updater.UpdatePipeline.flush", "flush"),
    ("shard", "repro.shard.engine.ShardScatterScanner.scan", "scatter"),
    ("shard", "repro.shard.engine.ShardScatterScanner.prefetch", None),
    ("shard", "repro.shard.tree.ShardedPEBTree.update_batch", None),
    ("shard", "repro.shard.router.ShardRouter.split_band", "split_band"),
    ("shard", "repro.shard.router.ShardRouter.split_sorted_run", None),
    ("simio", "repro.simio.scheduler.IOScheduler.run_timed", "sched"),
    ("simio", "repro.simio.disk.TimedDisk.read", "disk.read"),
    ("simio", "repro.simio.disk.TimedDisk.write", "disk.write"),
    ("btree", "repro.btree.tree.BPlusTree.scan_chunks", "scan_chunks"),
    ("btree", "repro.btree.tree.BPlusTree.apply_sorted_batch", "apply_sorted_batch"),
    ("btree", "repro.btree.tree.BPlusTree.insert", "insert"),
    ("btree", "repro.btree.tree.BPlusTree.delete", "delete"),
    ("btree", "repro.btree.tree.BPlusTree.replace", "replace"),
    ("btree.serialization", "repro.btree.serialization.BTreeNodeSerializer.parse", "parse"),
    ("btree.serialization", "repro.btree.serialization.BTreeNodeSerializer.pack", "pack"),
    ("storage.buffer", "repro.storage.buffer.BufferPool.get", "get"),
    ("storage.buffer", "repro.storage.buffer.BufferPool.put", None),
    ("storage.buffer", "repro.storage.buffer.BufferPool.mark_dirty", None),
]

#: The span whose main-thread self time is the wait on the pool.
SCHED_TARGET = "repro.simio.scheduler.IOScheduler.run_timed"

#: ``dotted target -> fn(return value) -> {counter: increment}``: counts
#: that only exist on a call's return value.
HARVEST = {
    "repro.engine.plan.QueryPlanner.plan_range": lambda plan: {
        "bands_planned": len(plan.bands)
    },
    "repro.engine.plan.QueryPlanner.plan_knn_probe": lambda bands: {
        "bands_planned": len(bands)
    },
    "repro.engine.executor.QueryEngine.execute_batch": lambda report: {
        "candidates_examined": report.stats.candidates_examined,
        "entries_prefetched": report.stats.entries_prefetched,
        "dead_entries": report.stats.dead_entries,
        "memo_evictions": report.stats.memo_evictions,
    },
    "repro.core.prq.prq": lambda result: {
        "candidates_examined": result.candidates_examined
    },
    "repro.core.pknn.pknn": lambda result: {
        "candidates_examined": result.candidates_examined
    },
}


class _Node:
    """One distinct stack of wrapped calls: total time and call count."""

    __slots__ = ("total", "calls", "children")

    def __init__(self):
        self.total = 0
        self.calls = 0
        self.children: dict[str, _Node] = {}

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node()
        return node

    def merge(self, other: "_Node") -> None:
        self.total += other.total
        self.calls += other.calls
        for name, theirs in other.children.items():
            self.child(name).merge(theirs)


class _ThreadState:
    """A thread's call trie, its current position in it, and its clock."""

    __slots__ = ("root", "top", "clock", "counters")

    def __init__(self, main: bool):
        self.root = _Node()
        self.top = self.root
        self.clock = time.perf_counter_ns if main else time.thread_time_ns
        self.counters: dict[str, int] = {}


def _resolve(dotted: str):
    """``(owner, attribute, raw attribute, span label)`` or None.

    The raw attribute is a plain function, or a ``classmethod`` /
    ``staticmethod`` around one.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        raw = getattr(owner, "__dict__", {}).get(parts[-1])
        if not inspect.isfunction(getattr(raw, "__func__", raw)):
            return None
        return owner, parts[-1], raw, ".".join(parts[cut:])
    return None


class LayerTracer:
    """Installs the wrappers for one traced pass and reads the ledger."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = threading.main_thread()
        self._undo: list[tuple[object, str, object]] = []
        #: dotted target -> span label (``layer:Class.method``).
        self._span: dict[str, str] = {}
        self.unresolved: list[str] = []

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, dotted, _ in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.unresolved.append(dotted)
                print(f"perf/trace: target {dotted} does not resolve; "
                      "its metrics read 0", file=sys.stderr)
                continue
            owner, name, raw, label = found
            span = self._span[dotted] = f"{layer}:{label}"
            wrapper = self._wrap(getattr(raw, "__func__", raw), span, HARVEST.get(dotted))
            if not inspect.isfunction(raw):
                wrapper = type(raw)(wrapper)
            self._rebind(owner, name, raw, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _rebind(self, owner, name: str, fn, wrapper) -> None:
        self._undo.append((owner, name, fn))
        setattr(owner, name, wrapper)
        if not inspect.ismodule(owner):
            return
        # ``from module import fn`` bound the function in the importer.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "").startswith(
                ("repro", "perf")
            ):
                continue
            for alias, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, alias, fn))
                    setattr(module, alias, wrapper)

    def _state(self) -> _ThreadState:
        state = _ThreadState(threading.current_thread() is self._main)
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def _wrap(self, fn, span: str, harvest):
        local = self._local
        new_state = self._state

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is being resumed, under
            # whichever span is resuming it.
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                calls = 1
                try:
                    while True:
                        try:
                            state = local.state
                        except AttributeError:
                            state = new_state()
                        parent = state.top
                        node = state.top = parent.child(span)
                        start = state.clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            node.total += state.clock() - start
                            node.calls += calls
                            calls = 0
                            state.top = parent
                        yield item
                finally:
                    inner.close()

        else:
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                parent = state.top
                node = state.top = parent.child(span)
                start = state.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    node.total += state.clock() - start
                    node.calls += 1
                    state.top = parent
                if harvest is not None:
                    counters = state.counters
                    for key, value in harvest(result).items():
                        counters[key] = counters.get(key, 0) + value
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------------
    # Reading the ledger
    # ------------------------------------------------------------------

    def _tries(self) -> tuple[_Node, _Node]:
        """``(main-thread trie, all pool threads' tries merged)``."""
        main, pool = _Node(), _Node()
        for state in self._states:
            into = main if state.clock is time.perf_counter_ns else pool
            into.merge(state.root)
        return main, pool

    def ledger(self) -> dict:
        """Self seconds per layer, call counts, harvested counters.

        ``covered_s`` is the main thread's traced time (the roots'
        totals); the caller divides it by the pass's wall time.
        """
        main, pool = self._tries()
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        sched_span = self._span.get(SCHED_TARGET)
        sched_wait = 0

        def walk(node: _Node, is_main: bool) -> None:
            nonlocal sched_wait
            for span, child in node.children.items():
                own = child.total - sum(g.total for g in child.children.values())
                layer = span.split(":", 1)[0]
                self_ns[layer] = self_ns.get(layer, 0) + own
                calls[span] = calls.get(span, 0) + child.calls
                if is_main and span == sched_span:
                    sched_wait += own
                walk(child, is_main)

        walk(main, True)
        walk(pool, False)
        pool_ns = sum(child.total for child in pool.children.values())
        # The pool's work happened during the main thread's wait, which
        # simio's self time already holds: leave only the remainder there.
        self_ns["simio"] = max(0, self_ns.get("simio", 0) - min(pool_ns, sched_wait))

        counters: dict[str, int] = {}
        for state in self._states:
            for key, value in state.counters.items():
                counters[key] = counters.get(key, 0) + value
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "calls": {
                f"{layer}.{alias}": calls.get(self._span.get(dotted), 0)
                for layer, dotted, alias in TARGETS
                if alias is not None
            },
            "counters": counters,
            "sched_wait_s": sched_wait / 1e9,
            "covered_s": sum(c.total for c in main.children.values()) / 1e9,
        }

    def collapsed(self) -> list[str]:
        """Collapsed stacks (``frame;frame;frame self_microseconds``)."""
        main, pool = self._tries()
        lines: list[str] = []

        def walk(node: _Node, prefix: str) -> None:
            for span, child in sorted(node.children.items()):
                stack = f"{prefix};{span}"
                own = child.total - sum(g.total for g in child.children.values())
                if own > 0:
                    lines.append(f"{stack} {own // 1000}")
                walk(child, stack)

        walk(main, "main")
        walk(pool, "pool")
        return lines
