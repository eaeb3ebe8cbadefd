"""Two reference range plans: policy-first, and the window's whole span.

Test equipment, not modes of the planner.  The shipped
``QueryPlanner.plan_range`` tests each owner of the issuer's policy row
against its live cell first, resolves the policies of only the owners
whose cell can reach the window, and plans the live key of each owner a
policy then admits: ``(live key, uid)`` pairs in key order.

* :class:`PolicyFirstPlanner` plans the same keys in the other order:
  the issuer's visibility map over the window first
  (:meth:`PolicyFirstPlanner.range_friends`, every owner of the row
  resolved), its owners sorted by ``(sv, uid)``, and only then each
  owner's live key decomposed, its cell decoded against the window
  enlarged for its partition, and the key composed again from the
  fields.  Its plan's ``visible`` is the whole map's; its pairs must
  equal the shipped plan's, pair for pair and in the same order.
* :class:`WindowSpanPlanner` plans what the seed pipeline scanned: per
  live partition the window is enlarged and reduced to its single
  covering Z-span, and every friend ``range_friends`` keeps gets one
  band ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]`` there,
  partition-major, friends ascending by SV.  A band is not a key, so
  its plan (:class:`BandPlan`) holds no keys and its engine carries
  the seed's band loop (:meth:`WindowSpanEngine.run_range_plan`): each
  band scanned on demand, a located friend's bands skipped.

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
from dataclasses import dataclass, field
from unittest import mock

from repro.engine import CandidateVerifier, QueryEngine, RangeExecution
from repro.engine.plan import BandRequest, PartitionContext, QueryPlan, QueryPlanner


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
        bands = []
        tree = self.tree
        grid, codec = tree.grid, tree.codec
        boxes = {
            context.tid: grid.cell_box(context.enlarged(window))
            for context in self.contexts(t_query)
        }
        for _, friend_uid in friends:
            key = tree.live_key(friend_uid)
            if key is None:
                continue
            tid, sv_q, zv = codec.decompose(key)
            box = boxes.get(tid)
            if box is None:
                continue
            ix, iy = grid.curve.decode(zv, grid.bits)
            if box[0] <= ix <= box[1] and box[2] <= iy <= box[3]:
                bands.append((codec.compose_quantized(tid, sv_q, zv), friend_uid))
        return QueryPlan(
            q_uid=q_uid,
            t_query=t_query,
            bands=sorted(bands),
            window=window,
            visible=visible,
        )


@dataclass
class BandPlan(QueryPlan):
    """A range plan of bands scanned on demand, as the seed's was.

    ``spans`` are ``(band, friend uid)`` pairs in scan order; ``bands``,
    the keys a batch fetches up front, stays empty.  ``friends`` are the
    ``(sv, uid)`` pairs the spans came from and ``contexts`` the live
    partitions, so a test can count one span per friend per context.
    """

    spans: list[tuple[BandRequest, int]] = field(default_factory=list)
    friends: list[tuple[float, int]] = field(default_factory=list)
    contexts: list[PartitionContext] = field(default_factory=list)


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
        spans = []
        if friends:
            quantize_sv = self.tree.codec.quantize_sv
            quantized = [(quantize_sv(sv), uid) for sv, uid in friends]
            for context in contexts:
                span = self.tree.grid.z_span(context.enlarged(window))
                if span is None:
                    continue
                z_lo, z_hi = span
                spans += [
                    (BandRequest(context.tid, sv_q, sv_q, z_lo, z_hi), friend_uid)
                    for sv_q, friend_uid in quantized
                ]
        return BandPlan(
            q_uid=q_uid,
            t_query=t_query,
            bands=[],
            window=window,
            visible=visible,
            spans=spans,
            friends=friends,
            contexts=contexts,
        )


class WindowSpanEngine(QueryEngine):
    def __init__(self, tree):
        super().__init__(tree)
        self.planner = WindowSpanPlanner(tree)

    def run_range_plan(self, plan, on_match=None, scanner=None):
        """The seed's band loop for a :class:`BandPlan`; any other plan
        (a served kNN plan) replays as shipped."""
        if not isinstance(plan, BandPlan):
            return super().run_range_plan(plan, on_match, scanner)
        if scanner is None:
            scanner = self.new_scanner()
        verifier = CandidateVerifier(
            self.tree.store, plan.q_uid, plan.t_query, plan.visible
        )
        for band, friend_uid in plan.spans:
            if friend_uid in verifier.located:
                continue
            rows = scanner.scan(band)
            if rows.records and verifier.admit_rows(rows, plan.window, on_match):
                return RangeExecution(verifier.candidates_examined, True)
        return RangeExecution(verifier.candidates_examined, False)


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
