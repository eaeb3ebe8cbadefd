"""Continuous friend monitoring: a standing privacy-aware range query.

A dispatcher pins a region of town — "alert me while any of my visible
friends is inside the old harbour" — and the server keeps the answer
fresh as people move and policies flip on and off with the time of day.

Snapshot indexes answer this by re-running a range query every tick.
The PEB-tree can do better: all of the issuer's friends live in a few
SV bands, so a single registration scan (I/O proportional to the friend
count, not the population) captures every friend's *motion function*;
afterwards the monitor maintains the result analytically and can even
predict, to the second, when each friend will enter or leave —
including re-entries when a "work-hours only" policy re-arms the next
morning.

This exercises the :class:`repro.core.continuous.ContinuousPRQ`
extension (Section 8 of the paper asks for exactly such query types).

Run with::

    python examples/continuous_monitoring.py
"""

from repro import Rect
from repro.bench import ExperimentConfig, build_world
from repro.core.continuous import ContinuousPRQ

CONFIG = ExperimentConfig(n_users=2000, n_policies=30, build_buffer_pages=256, seed=11)
HARBOUR = Rect(350.0, 650.0, 350.0, 650.0)
HORIZON_MINUTES = 240.0


def pick_busy_issuer(store, states):
    """An issuer with a healthy number of friends makes a lively demo."""
    return max(sorted(states), key=lambda uid: len(store.friend_list(uid)))


def main():
    world = build_world(CONFIG)
    states, store, tree = world.states, world.store, world.peb
    issuer = pick_busy_issuer(store, states)
    friends = len(store.friend_list(issuer))
    print(f"Issuer u{issuer} has {friends} friends among {CONFIG.n_users} users.")
    print(f"Monitoring {HARBOUR} for the next {HORIZON_MINUTES:.0f} minutes.\n")

    # Register: one index scan bounded by the friend count.
    tree.btree.pool.flush()
    tree.btree.pool.clear()
    monitor = ContinuousPRQ(tree, issuer, HARBOUR, t_start=0.0)
    print(
        f"Registration tracked {monitor.tracked_count} friends "
        f"for {monitor.seed_io} physical reads."
    )

    inside_now = sorted(monitor.result_at(0.0))
    print(f"Inside at t=0: {[f'u{uid}' for uid in inside_now] or 'nobody'}\n")

    # Predict the exact membership timeline — zero further index I/O.
    events = monitor.events_between(0.0, HORIZON_MINUTES)
    print(f"Predicted timeline ({len(events)} events):")
    for event in events[:15]:
        action = "enters" if event.enters else "leaves"
        print(f"  t={event.time:7.1f}  u{event.uid:<6} {action}")
    if len(events) > 15:
        print(f"  ... {len(events) - 15} more")

    # A friend phones in an update mid-flight; the timeline adapts.
    if events:
        mover_uid = events[0].uid
        t_now = events[0].time / 2.0
        state = states[mover_uid]
        x, y = state.position_at(t_now)
        # The friend makes a U-turn: velocity reversed.
        updated = state.moved_to(x, y, -state.vx, -state.vy, t_now)
        states[mover_uid] = updated
        tree.update(updated)
        monitor.refresh(updated)
        print(f"\nu{mover_uid} makes a U-turn at t={t_now:.1f}; new timeline:")
        for event in monitor.events_between(t_now, HORIZON_MINUTES)[:8]:
            action = "enters" if event.enters else "leaves"
            print(f"  t={event.time:7.1f}  u{event.uid:<6} {action}")

    # Sanity: the monitor agrees with a fresh snapshot query at t=90.
    from repro import prq

    snapshot = prq(tree, issuer, HARBOUR, 90.0)
    monitored = monitor.result_at(90.0)
    assert snapshot.uids == monitored, (snapshot.uids, monitored)
    print(f"\nAt t=90 the monitor and a snapshot PRQ agree: "
          f"{len(monitored)} friend(s) inside. ✓")


if __name__ == "__main__":
    main()
