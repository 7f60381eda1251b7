"""Table 3 — attempted / established / dropped PCS connections.

Paper's shape: attempts = established + dropped at every load; attempts
grow superlinearly as the load approaches saturation (each stream
re-draws VCs until its probe finds both free); established connections
track the offered stream count and flatten near the 24-VC link
capacity; dropped counts dominate at high load.
"""

from conftest import run_once

from repro.experiments.figures import PAPER
from repro.experiments.report import table3_to_text


def bench_table3_pcs_connections(benchmark, profile, executor):
    spec = PAPER["table3"]
    table = run_once(benchmark, lambda: spec.run(profile, executor=executor))
    print()
    print(table3_to_text(table))

    rows = sorted(table.rows, key=lambda r: r.load)

    # The Table 3 identity holds at every load.
    for row in rows:
        assert row.attempts == row.established + row.dropped

    # Offered streams and attempts increase with load.
    assert rows[-1].offered > rows[0].offered
    assert rows[-1].attempts > rows[0].attempts

    # Drops dominate at the top load but not at the bottom.
    assert rows[-1].dropped > rows[-1].established * 1.5
    assert rows[0].dropped < rows[0].attempts

    # Collisions amplify attempts: near saturation each established
    # circuit cost several probes (paper: 718 attempts for 187 circuits).
    top = rows[-1]
    assert top.attempts >= 2 * top.established

    # Established circuits never exceed the VC capacity of the links.
    for row in rows:
        assert row.established <= 8 * 24
