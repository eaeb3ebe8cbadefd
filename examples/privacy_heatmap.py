"""Privacy-respecting heat map: aggregate queries over the PEB-tree.

An event organizer wants to know *where* their visible contacts
concentrate across the fairgrounds — without learning any individual's
exact position.  The privacy-aware density query buckets qualifying
friends into a coarse grid: each count is computed from verified
positions, but only cell totals leave the server.

Also shown: the existential query ("is at least one friend nearby?"),
which terminates the index scan the moment one qualifying user is
confirmed — cheaper than a full count, as the printed I/O shows.

This exercises the :mod:`repro.core.aggregate` extension (Section 8 of
the paper asks for more privacy-aware query types).

Run with::

    python examples/privacy_heatmap.py
"""

from repro import Rect
from repro.bench import ExperimentConfig, build_world
from repro.core.aggregate import pcount, pdensity_grid

CONFIG = ExperimentConfig(n_users=3000, n_policies=40, build_buffer_pages=256, seed=23)
FAIRGROUNDS = Rect(200.0, 800.0, 200.0, 800.0)
ROWS = COLUMNS = 6


def render(density):
    """ASCII heat map, densest cell normalized to '#'."""
    peak = max(density.cells.values(), default=0)
    shades = " .:-=+*#"
    lines = []
    for row in range(density.rows - 1, -1, -1):  # top row = largest y
        cells = []
        for column in range(density.columns):
            count = density.count_at(row, column)
            shade = shades[min(
                len(shades) - 1,
                round(count / peak * (len(shades) - 1)) if peak else 0,
            )]
            cells.append(f"{shade}{shade}")
        lines.append("|" + "".join(cells) + "|")
    return "\n".join(lines)


def main():
    world = build_world(CONFIG)
    states, store, tree = world.states, world.store, world.peb
    issuer = max(sorted(states), key=lambda uid: len(store.friend_list(uid)))
    print(
        f"Issuer u{issuer} ({len(store.friend_list(issuer))} friends among "
        f"{CONFIG.n_users} users) asks for a {ROWS}x{COLUMNS} density grid over "
        f"{FAIRGROUNDS}.\n"
    )

    def cold():
        tree.btree.pool.flush()
        tree.btree.pool.clear()
        tree.stats.reset()

    cold()
    density = pdensity_grid(
        tree, issuer, FAIRGROUNDS, t_query=30.0, rows=ROWS, columns=COLUMNS
    )
    density_io = tree.stats.physical_reads
    print(render(density))
    print(
        f"\n{density.total} visible friend(s) in "
        f"{len(density.cells)} occupied cell(s); "
        f"{density.candidates_examined} candidates verified; "
        f"{density_io} physical reads."
    )

    cold()
    full = pcount(tree, issuer, FAIRGROUNDS, t_query=30.0)
    full_io = tree.stats.physical_reads

    cold()
    existential = pcount(tree, issuer, FAIRGROUNDS, t_query=30.0, at_least=1)
    existential_io = tree.stats.physical_reads

    print(f"\nFull count:        {full.count:3d} friends, {full_io} reads")
    print(
        f"Existential query: >={existential.count} friend(s) "
        f"(stopped early: {existential.terminated_early}), "
        f"{existential_io} reads"
    )
    assert full.count == density.total
    assert existential_io <= full_io
    print("\nDensity total matches the count query. ✓")


if __name__ == "__main__":
    main()
