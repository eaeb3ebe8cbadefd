"""JSON-compatible (de)serialization of policy directories.

The server's policy directory is long-lived state; checkpointing an
index without it would be half a checkpoint.  A store serializes to a
plain dict (JSON-ready):

    {"format": "repro-policy-store", "version": 1,
     "store": "single" | "multi",
     "time_domain": 1440.0,
     "policies": [[owner, viewer, role,
                   x_lo, x_hi, y_lo, y_hi,        # locr
                   [start, end, start, end, ...]  # tint pieces, flattened
                  ], ...],
     "sequence_values": {"uid": sv, ...}}

Records are flat arrays rather than objects: a paper-scale directory
holds millions of policies, and per-record key decoding dominates the
restore profile otherwise.

Policies are stored *resolved* (semantic locations were translated on
entry), so the semantic-location registry is not part of the payload.
Role membership is rebuilt with the edges, by the store's one install
step.  A ``TimeSet`` of one piece deserializes as a plain
``TimeInterval`` — the two are behaviourally identical for evaluation,
duration, and overlap.
"""

from __future__ import annotations

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect

FORMAT = "repro-policy-store"
VERSION = 1


def store_to_dict(store: PolicyStore) -> dict:
    """Serialize a policy directory (single- or multi-policy)."""
    multi = isinstance(store, MultiPolicyStore)
    records = []
    for owner in sorted(store.all_users()):
        for viewer in sorted(store.viewers_of(owner)):
            for policy in store.policies_for(owner, viewer):
                records.append(
                    [
                        owner,
                        viewer,
                        policy.role,
                        policy.locr.x_lo,
                        policy.locr.x_hi,
                        policy.locr.y_lo,
                        policy.locr.y_hi,
                        _tint_to_flat(policy.tint),
                    ]
                )
    return {
        "format": FORMAT,
        "version": VERSION,
        "store": "multi" if multi else "single",
        "time_domain": store.time_domain,
        "policies": records,
        # JSON object keys are strings; normalize here, restore to int
        # on load.
        "sequence_values": {
            str(uid): sv for uid, sv in sorted(store._sequence_values.items())
        },
    }


def store_from_dict(payload: dict) -> PolicyStore:
    """Reconstruct the directory serialized by :func:`store_to_dict`."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"not a policy-store payload: {payload.get('format')!r}")
    if payload.get("version") != VERSION:
        raise ValueError(
            f"payload version {payload.get('version')}, this build reads {VERSION}"
        )
    kind = payload["store"]
    if kind == "single":
        store: PolicyStore = PolicyStore(time_domain=payload["time_domain"])
    elif kind == "multi":
        store = MultiPolicyStore(time_domain=payload["time_domain"])
    else:
        raise ValueError(f"unknown store kind {kind!r}")

    # One install per record, not a replay of add_policy: the payload
    # holds resolved policies already bucketed per pair, so only the
    # edge checks (self-policy, duplicate pair) are paid on restore.
    # A policy granted to many viewers is one record per viewer; the
    # records share one (immutable) policy object, as the store built
    # by add_policy did.
    policies: dict[tuple, LocationPrivacyPolicy] = {}
    for owner, viewer, role, x_lo, x_hi, y_lo, y_hi, tint_flat in payload[
        "policies"
    ]:
        key = (owner, role, x_lo, x_hi, y_lo, y_hi, *tint_flat)
        policy = policies.get(key)
        if policy is None:
            policy = policies[key] = LocationPrivacyPolicy(
                owner=owner,
                role=role,
                locr=Rect(x_lo, x_hi, y_lo, y_hi),
                tint=_tint_from_flat(tint_flat),
            )
        store._install(policy, [viewer])

    store.set_sequence_values(
        {int(uid): sv for uid, sv in payload["sequence_values"].items()}
    )
    return store


def _tint_to_flat(tint: TimeInterval | TimeSet) -> list[float]:
    if isinstance(tint, TimeSet):
        flat: list[float] = []
        for piece in tint.intervals:
            flat.append(piece.start)
            flat.append(piece.end)
        return flat
    return [tint.start, tint.end]


def _tint_from_flat(flat: list[float]) -> TimeInterval | TimeSet:
    if len(flat) == 2:
        return TimeInterval(flat[0], flat[1])
    intervals = [
        TimeInterval(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)
    ]
    # TimeSet pieces serialize in normalized order; adopt them directly.
    return TimeSet.from_normalized(intervals)
