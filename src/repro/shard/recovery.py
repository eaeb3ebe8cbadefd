"""Checkpoint-based recovery for quarantined shards.

Retry handles *transient* faults; quarantine handles faults that
outlast the retry budget.  This module closes the loop for the third
class — faults that outlast the quarantine too, because the shard's
on-disk state is actually damaged (a corrupted page keeps failing its
checksum however often it is re-read).  The recovery primitive is the
checkpoint the repository already has: each shard tree is checkpointed
to its own directory (:func:`repro.core.checkpoint.save_peb_tree`) with
the memo entries of the users whose keys route to it, the updates,
inserts and deletes applied after the checkpoint are kept in order in a
per-shard replay log, and
:meth:`ShardCheckpointer.recover` rebuilds a shard *in place* — page
images rewritten through the live wrapper stack and the shard's users
in the deployment's one memo replaced by the checkpoint's
(:func:`repro.core.checkpoint.restore_peb_tree_state`), the log
replayed through the shard tree's own verbs, the breaker reset.

The replay log is cleared only at the next :meth:`checkpoint`, never
by :meth:`recover`: replay is idempotent *from the checkpoint* (it
restores first, then re-applies), so a second recovery after a second
fault replays the same tail correctly.  States a flush deferred while
the shard was quarantined are *not* in the log — they never applied —
and re-arrive through the update buffer they were restored to.
"""

from __future__ import annotations

import os
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from repro.core.checkpoint import restore_peb_tree_state, save_peb_tree

if TYPE_CHECKING:
    from repro.core.peb_tree import UpdateItem
    from repro.shard.tree import ShardedPEBTree


class ShardCheckpointer:
    """Per-shard checkpoints plus replay logs for one deployment.

    Constructing one attaches it to the deployment
    (``sharded.checkpointer = self``), which turns on replay logging:
    every shard-local ``update_batch`` run that applies, and every
    ``insert`` and ``delete``, is appended to its shard's log.

    Args:
        sharded: the deployment to protect.
        directory: root folder; shard ``i`` checkpoints into
            ``<directory>/shard<i>``.

    Call :meth:`checkpoint` after bulk load and periodically after —
    each checkpoint truncates the logs, bounding both replay time and
    log memory.
    """

    def __init__(self, sharded: "ShardedPEBTree", directory: str):
        self.tree = sharded
        self.directory = directory
        self._logs: dict[int, list] = {
            shard: [] for shard in range(len(sharded.trees))
        }
        sharded.checkpointer = self

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.directory, f"shard{shard}")

    def checkpoint(self, shard: int | None = None) -> None:
        """Checkpoint one shard (or all) and truncate its replay log."""
        shards = range(len(self.tree.trees)) if shard is None else (shard,)
        for s in shards:
            tree = self.tree.trees[s]
            save_peb_tree(tree, self.shard_dir(s), self.shard_live_keys(s))
            self._logs[s].clear()

    def shard_live_keys(self, shard: int) -> dict[int, int]:
        """The deployment's memo entries whose keys route to ``shard``."""
        shard_of_key = self.tree.router.shard_of_key
        return {
            uid: key
            for uid, key in self.tree.live.keys.items()
            if shard_of_key(key) == shard
        }

    def log_applied(self, shard: int, items: "Iterable[UpdateItem]") -> None:
        """Record updates a flush applied to ``shard`` (facade callback)."""
        self._logs[shard].extend(("update_batch", item) for item in items)

    def log(self, shard: int, verb: str, *args) -> None:
        """Record one ``insert``/``delete`` the facade applied to ``shard``."""
        self._logs[shard].append((verb, args))

    def log_length(self, shard: int) -> int:
        return len(self._logs[shard])

    def recover(self, shard: int) -> int:
        """Rebuild one shard from its checkpoint; returns replayed ops.

        Restores the checkpointed page images and metadata in place —
        the shard's users leave the deployment's memo and the
        checkpoint's come back; the deployment's speed maxima are never
        lowered, since other shards' users rely on them — then replays
        the shard's post-checkpoint log in order through the shard
        tree's own verbs (a run of updates as one batch), which write
        the deployment's memo, and closes the shard's breaker.  The shard's disk must be healthy enough to
        serve the restore writes and the replay — faults here propagate
        (heal or clear the injected schedule first).
        """
        tree = self.tree.trees[shard]
        replay = list(self._logs[shard])
        own = self.shard_live_keys(shard)
        restore_peb_tree_state(self.shard_dir(shard), tree, own)
        for verb, run in groupby(replay, key=itemgetter(0)):
            if verb == "update_batch":
                tree.update_batch([item for _, item in run])
            else:
                for _, args in run:
                    getattr(tree, verb)(*args)
        if replay:
            tree.btree.pool.flush()
        if self.tree.supervisor is not None:
            self.tree.supervisor.reset(shard)
        return len(replay)


__all__ = ["ShardCheckpointer"]
