"""Candidate verification: locate, evaluate, deduplicate (engine layer 4).

Every query type ends the same way: a scanned entry is *located* by
evaluating its linear motion function at query time, its owner's policy
toward the issuer is evaluated at that located position (Definition 2),
and — per the paper's skip rule — each user is examined at most once,
"a user has only one location".  The verifier centralizes those three
steps so the adapters in :mod:`repro.core` cannot drift apart, and so
``candidates_examined`` (the intermediate-result size the PEB-tree is
designed to keep small, Figure 15(a)) is counted identically everywhere.

Range queries pass their window via ``within`` so containment is tested
*before* the policy evaluation — candidates the Figure 2 enlargement
dragged in from outside the real window are rejected without paying a
policy lookup.  The PkNN search has no window (it ranks by distance)
and omits ``within``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.plan import VisibilityMap
    from repro.motion.objects import MovingObject
    from repro.motion.rows import BandRows
    from repro.policy.store import PolicyStore
    from repro.spatial.geometry import Rect


class CandidateVerifier:
    """Per-query verification state: the ``located`` set and counters.

    Attributes:
        located: uids whose entry has been seen — never examined again,
            in later bands, partitions, or enlargement rounds.
        candidates_examined: entries located and policy-checked.

    ``visible`` is the issuer's visibility map at ``t_query`` when the
    caller already holds it (the planner and the PkNN search do); it is
    computed on the first :meth:`admit_rows` otherwise.  Either way
    every row is checked against it in full.  A range plan's map holds
    only the regions that meet its window, which is sound only because
    :meth:`admit_rows` tests ``within`` before the map.
    """

    def __init__(
        self,
        store: "PolicyStore",
        q_uid: int,
        t_query: float,
        visible: "VisibilityMap | None" = None,
    ):
        self.store = store
        self.q_uid = q_uid
        self.t_query = t_query
        self.located: set[int] = set()
        self.candidates_examined = 0
        # Owner -> visible-region bounds for (q_uid, t_query), shared by
        # every admit_rows call this query makes.
        self._visible = visible

    def seen(self, uid: int) -> bool:
        """True when the user was already located (skip-rule predicate)."""
        return uid in self.located

    def admit(
        self, obj: "MovingObject", within: "Rect | None" = None
    ) -> tuple[float, float, bool] | None:
        """Locate and verify one scanned entry.

        The per-entry Definition 2 check.  Every engine path verifies
        a band at a time through :meth:`admit_rows`; this is what the
        tests pin that pass to, entry for entry.

        Returns None when the user was already located (the entry is
        skipped without counting); otherwise marks the user located,
        counts the candidate, and returns ``(x, y, qualifies)`` where
        ``(x, y)`` is the position at query time and ``qualifies`` is
        containment in ``within`` (when given) plus the Definition 2
        policy condition for the issuer — in that order, so an
        out-of-window candidate never costs a policy evaluation.
        """
        if obj.uid in self.located:
            return None
        self.located.add(obj.uid)
        self.candidates_examined += 1
        x, y = obj.position_at(self.t_query)
        if within is not None and not within.contains(x, y):
            return x, y, False
        return x, y, self.store.evaluate(obj.uid, self.q_uid, x, y, self.t_query)

    def admit_rows(
        self,
        rows: "BandRows",
        within: "Rect | None" = None,
        on_qualify: "Callable[[MovingObject, float, float], bool] | None" = None,
    ) -> bool:
        """Batched :meth:`admit` over one band's decoded columns.

        One pass over ``rows.records`` replaces a per-object call
        chain: identical located-set updates, candidate counting,
        window test, and policy evaluation, in scan order, without
        constructing a ``MovingObject`` per row (the location is
        extrapolated straight from the decoded record fields, with the
        same arithmetic as ``position_at``).  ``on_qualify(obj, x, y)``
        runs inline for each qualifying row — the object materializes
        here, lazily, so only qualifying rows ever pay for one — and
        may return True to stop the scan immediately; rows after the
        stop are neither located nor counted, exactly as breaking out
        of the per-entry loop leaves them.  Returns True when stopped
        early.
        """
        located = self.located
        t_query = self.t_query
        visible = self._visible
        if visible is None:
            # The time condition is constant across the query, so the
            # policy directory collapses to one small dict for the whole
            # verification pass (see PolicyStore.visibility_map).
            visible = self._visible = self.store.visibility_map(
                self.q_uid, t_query
            )
        bounds_of = visible.get
        windowed = within is not None
        if windowed:
            w_xlo = within.x_lo
            w_xhi = within.x_hi
            w_ylo = within.y_lo
            w_yhi = within.y_hi
        examined = 0
        try:
            for i, (uid, x0, y0, vx, vy, t0, _pntp) in enumerate(rows.records):
                if uid in located:
                    continue
                located.add(uid)
                examined += 1
                dt = t_query - t0
                x = x0 + vx * dt
                y = y0 + vy * dt
                if windowed and not (
                    w_xlo <= x <= w_xhi and w_ylo <= y <= w_yhi
                ):
                    continue
                bounds = bounds_of(uid)
                if bounds is None:
                    continue
                for x_lo, x_hi, y_lo, y_hi in bounds:
                    if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                        break
                else:
                    continue
                if on_qualify is not None and on_qualify(
                    rows.object_at(i), x, y
                ):
                    return True
            return False
        finally:
            self.candidates_examined += examined


__all__ = ["CandidateVerifier"]
