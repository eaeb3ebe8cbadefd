"""The window-span range plan: every kept friend, the window's whole span.

Test equipment, not a mode of the planner.  The shipped
``QueryPlanner.plan_range`` plans one point band per friend at its live
key, and only when that key's cell lies inside the window enlarged for
its partition (Figure 2 applied per friend).  The reference plans what
the seed pipeline scanned: per live partition the window is enlarged
and reduced to its single covering Z-span, and every friend
``range_friends`` keeps gets one band ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕
ZV_hi]`` there, partition-major, friends ascending by SV.

It installs through a subclass (:class:`WindowSpanPlanner`) and an
engine that carries it (:class:`WindowSpanEngine`);
:func:`window_span` runs the public adapters (``prq``, ``pcount``,
``pdensity_grid``) on that engine.  Answers must equal the shipped
plan's, and the shipped plan may examine only fewer candidates.
"""

import contextlib
import importlib
from unittest import mock

from repro.engine import QueryEngine
from repro.engine.plan import BandRequest, PlannedBand, QueryPlan, QueryPlanner


class WindowSpanPlanner(QueryPlanner):
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
def window_span():
    """The public range adapters, run on the window-span planner."""
    # By module: ``repro.core`` re-exports functions named like them.
    module = importlib.import_module
    with mock.patch.object(
        module("repro.core.prq"), "QueryEngine", WindowSpanEngine
    ), mock.patch.object(module("repro.core.aggregate"), "QueryEngine", WindowSpanEngine):
        yield
