"""Friend finder: the paper's running example as an application.

A social location app where every user grants visibility only to chosen
peers under spatio-temporal conditions.  One user asks "where are my
nearest visible friends right now?" — the PkNN query of Definition 3.

The script builds the PEB-tree and the spatial-index + filter baseline
over the same population and contrasts their I/O on the same queries,
reproducing the effect of Figures 4 and 6: the baseline crawls outward
through *all* nearby users (most of whom hide from the issuer), while
the PEB-tree jumps straight to index regions where friends can be.

Run with::

    python examples/friend_finder.py
"""

import random

from repro import pknn
from repro.bench import ExperimentConfig, build_world

#: 3 000 users with 25 policies each, on 1 KiB pages (the benchmark's
#: page size): at 4 KiB both indexes fit in the 50-page query buffer
#: and read nothing.
CONFIG = ExperimentConfig(
    n_users=3000, n_policies=25, page_size=1024, build_buffer_pages=4096, seed=3
)


def main():
    world = build_world(CONFIG)
    states, peb, baseline = world.states, world.peb, world.baseline
    print(f"indexed {CONFIG.n_users} users in both structures")

    # Measure a batch of friend-finder queries under the paper's buffer.
    rng = random.Random(42)
    issuers = rng.sample(sorted(states), 15)
    t_query = 5.0
    k = 3

    for index in (peb, world.bx):
        pool = index.btree.pool
        pool.flush()
        pool.resize(CONFIG.buffer_pages)  # the paper's 50-page LRU buffer
        pool.stats.reset()

    print(f"\nfinding each user's {k} nearest visible friends at t={t_query}:\n")
    header = f"{'user':>6} {'friends found':>14} {'nearest':>22}"
    print(header)
    print("-" * len(header))
    for issuer in issuers:
        qx, qy = states[issuer].position_at(t_query)
        answer = pknn(peb, issuer, qx, qy, k, t_query)
        base_answer = baseline.knn_query(issuer, qx, qy, k, t_query)
        assert [uid for _, uid in [(d, o.uid) for d, o in answer.neighbors]] == [
            obj.uid for _, obj in base_answer
        ] or [round(d, 6) for d, _ in answer.neighbors] == [
            round(d, 6) for d, _ in base_answer
        ], "the two approaches must agree"
        nearest = (
            f"user {answer.neighbors[0][1].uid} @ {answer.neighbors[0][0]:.1f}"
            if answer.neighbors
            else "(nobody visible)"
        )
        print(f"{issuer:>6} {len(answer.neighbors):>14} {nearest:>22}")

    peb_io = peb.stats.physical_reads / len(issuers)
    base_io = world.bx.stats.physical_reads / len(issuers)
    print(
        f"\naverage I/O per query: PEB-tree {peb_io:.1f} pages, "
        f"spatial index + filter {base_io:.1f} pages "
        f"({base_io / max(peb_io, 0.01):.1f}x)"
    )
    print(
        "the baseline examines every nearby user regardless of policies —\n"
        "exactly the inefficiency the PEB-tree removes (Sections 4 and 5)"
    )


if __name__ == "__main__":
    main()
