"""Two reference range plans: policy-first, and the window's whole span.

Test equipment, not modes of the planner.  The shipped
``QueryPlanner.plan_range`` tests each owner of the issuer's policy row
against its live cell first, resolves the policies of only the owners
whose cell can reach the window, and plans one point band per owner a
policy then admits.

* :class:`PolicyFirstPlanner` plans the same bands in the other order:
  the issuer's visibility map over the window first
  (:meth:`PolicyFirstPlanner.range_friends`, every owner of the row
  resolved), its owners sorted by ``(sv, uid)``, and only then each
  owner's live key decomposed and its cell decoded against the window
  enlarged for its partition.  Its plan's ``friends`` and ``visible``
  are the whole map's; its bands must equal the shipped plan's, band
  for band and in the same order.
* :class:`WindowSpanPlanner` plans what the seed pipeline scanned: per
  live partition the window is enlarged and reduced to its single
  covering Z-span, and every friend ``range_friends`` keeps gets one
  band ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]`` there,
  partition-major, friends ascending by SV.

Each installs through a subclass of the planner and an engine that
carries it (:class:`PolicyFirstEngine`, :class:`WindowSpanEngine`);
:func:`policy_first` and :func:`window_span` run the public adapters
(``prq``, ``pcount``, ``pdensity_grid``) on those engines.  Answers must
equal the shipped plan's, and the shipped plan may examine only fewer
candidates than the window-span plan (exactly as many as the
policy-first plan).
"""

import contextlib
import importlib
from operator import itemgetter
from unittest import mock

from repro.engine import QueryEngine
from repro.engine.plan import BandRequest, PlannedBand, QueryPlan, QueryPlanner


class PolicyFirstPlanner(QueryPlanner):
    """A planner whose range plan resolves the issuer's whole policy row
    before it tests any friend's live cell."""

    def range_friends(self, q_uid, window, t_query):
        """The issuer's visibility map at ``t_query`` over ``window``, and
        the friends who can qualify: its owners, ``(sv, uid)`` ascending."""
        store = self.tree.store
        visible = store.visibility_map(q_uid, t_query, window)
        sequence_value = store.sequence_value
        return visible, sorted([(sequence_value(owner), owner) for owner in visible])

    def plan_range(self, q_uid, window, t_query):
        visible, friends = self.range_friends(q_uid, window, t_query)
        contexts = self.contexts(t_query)
        bands = []
        if friends:
            tree = self.tree
            grid = tree.grid
            boxes = {
                context.tid: grid.cell_box(context.enlarged(window))
                for context in contexts
            }
            for _, friend_uid in friends:
                key = tree.live_key(friend_uid)
                if key is None:
                    continue
                tid, sv_q, zv = tree.codec.decompose(key)
                box = boxes.get(tid)
                if box is None:
                    continue
                ix, iy = grid.curve.decode(zv, grid.bits)
                if box[0] <= ix <= box[1] and box[2] <= iy <= box[3]:
                    band = BandRequest(tid, sv_q, sv_q, zv, zv)
                    bands.append(PlannedBand(friend_uid, band))
            bands.sort(key=itemgetter(1))
        return QueryPlan(
            q_uid=q_uid,
            t_query=t_query,
            friends=friends,
            contexts=contexts,
            bands=bands,
            window=window,
            visible=visible,
        )


class PolicyFirstEngine(QueryEngine):
    def __init__(self, tree):
        super().__init__(tree)
        self.planner = PolicyFirstPlanner(tree)


class WindowSpanPlanner(PolicyFirstPlanner):
    """A planner whose range plan bands every kept friend over the
    enlarged window's Z-span in every live partition."""

    def plan_range(self, q_uid, window, t_query):
        visible, friends = self.range_friends(q_uid, window, t_query)
        contexts = self.contexts(t_query)
        bands = []
        if friends:
            quantize_sv = self.tree.codec.quantize_sv
            quantized = [(quantize_sv(sv), uid) for sv, uid in friends]
            for context in contexts:
                span = self.tree.grid.z_span(context.enlarged(window))
                if span is None:
                    continue
                z_lo, z_hi = span
                bands += [
                    PlannedBand(friend_uid, BandRequest(context.tid, sv_q, sv_q, z_lo, z_hi))
                    for sv_q, friend_uid in quantized
                ]
        return QueryPlan(
            q_uid=q_uid,
            t_query=t_query,
            friends=friends,
            contexts=contexts,
            bands=bands,
            window=window,
            visible=visible,
        )


class WindowSpanEngine(QueryEngine):
    def __init__(self, tree):
        super().__init__(tree)
        self.planner = WindowSpanPlanner(tree)


@contextlib.contextmanager
def _on(engine_type):
    """The public range adapters, run on ``engine_type``."""
    # By module: ``repro.core`` re-exports functions named like them.
    module = importlib.import_module
    with mock.patch.object(
        module("repro.core.prq"), "QueryEngine", engine_type
    ), mock.patch.object(module("repro.core.aggregate"), "QueryEngine", engine_type):
        yield


def policy_first():
    """The public range adapters, run on the policy-first planner."""
    return _on(PolicyFirstEngine)


def window_span():
    """The public range adapters, run on the window-span planner."""
    return _on(WindowSpanEngine)
