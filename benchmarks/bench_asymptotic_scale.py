"""Section 6 asymptotics: Drum O(log n) vs Pull Θ(n) in group size.

The adversary concentrates a budget B = n (one fabricated message per
node per round) on the source, α = 1/n.  Drum keeps pushing M outward
and its propagation time grows logarithmically in n; pull must wait for
the source to win a pull-request slot against the flood, which takes
rounds linear in n.  The sweep runs on the fast engine; pull reaches the
400-round cap at n = 10⁵.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import once, record, runs, sweep_runner

from repro.sweep import scale_grid
from repro.util import Table

PROTOCOLS = ("drum", "pull")
NS = [10**3, 10**4, 10**5]
MAX_ROUNDS = 400


def _scale_sweep():
    cells = scale_grid(
        PROTOCOLS, NS, budget_per_node=1.0, runs=runs(10), seed=97,
        max_rounds=MAX_ROUNDS, engine="fast",
    ).cells
    return sweep_runner().run("asymptotic", cells).series()


def test_asymptotic_scale(benchmark):
    times = once(benchmark, _scale_sweep)
    table = Table(
        "Section 6: propagation time vs n (α=1/n, B=n, on the source)",
        ["protocol"] + [f"n=10^{round(math.log10(n))}" for n in NS],
    )
    for protocol in PROTOCOLS:
        table.add_row(protocol, *times[protocol])
    record("asymptotic", table)

    drum, pull = times["drum"], times["pull"]
    for n, rounds in zip(NS, drum):
        assert rounds <= 2.5 * math.log2(n), (n, rounds)
    for d, p in zip(drum, pull):
        assert p > 3.0 * d, (d, p)
    # Pull's first decade is uncensored; past it the cap flattens it.
    assert pull[1] / pull[0] > drum[1] / drum[0], (drum, pull)
