"""Byte pins on the figure front door: the CLI and the grid builders.

Each pin is a digest of what a seeded invocation writes, so moving the
sweep plumbing or the CLI between entry points must leave every value
and store key exactly where it was.  A store filled by an older build
stays readable only while these hold.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.sweep import ResultStore, rate_grid, scale_grid

TINY = ["--protocols", "drum,pull", "--n", "30", "--runs", "4", "--seed", "1"]

#: kind -> (x-axis values, sha256 of the ``--out`` report JSON).
SWEEP_REPORTS = {
    "rate": (
        "0,16",
        "8102fe8dd6362ed796d20e4250531f503293048118068f0fe7198ce94e1d2bae",
    ),
    "extent": (
        "0.1,0.2",
        "b24d4fde77bc929ac1fb7dad5993bf46d9e2ba778395edb1dd6e286907d97734",
    ),
    "budget": (
        "0.1,0.5",
        "b71b7c477689611b484fd415e84648c02ca9adc141ccf4334c99a78a8a5053a7",
    ),
    "churn": (
        "0,0.2",
        "6ab360cb81060a7fa98235636ff8a8a3e65b95bca9a969c112880bf98831e623",
    ),
}
#: ``ResultStore.key_for(cell)`` of each cell of the tiny rate grid.
RATE_KEYS = [
    "d9c8140915f6eadcfe7e183871d4eba6d1f02d0a416a744c2b7dbde76cdd5018",
    "5aa022daf2d8a02ac143a717acbf6a9a1e9a3b6eef3522d40b1e81ecff0ace03",
    "674a4f0b3f2391625c2afcf94b01bb5059876348a47e092bc73af3e09fb1ffc6",
    "bea1ee16e703da2cf31eaf748043ba91f68d1503d8bb3d280bb4884c9d7edfa3",
]
#: ``ResultStore.key_for(cell)`` of each cell of the tiny scale grid.
SCALE_KEYS = [
    "f10331659fde2125d5e424d51f5655ca473a3b19f414a4b4f8f60e28dd8cd951",
    "b2003db6afbd60d27180ff04ccaa86c374f6d2735d337911c1c882747a4348ab",
    "68ae86c12b4afe4b25d330bd510c04656f612f72e5fc67a10584818a8399bef3",
    "dcfa7a3e35104aff7ff9bd3a6c7557073610c5c6a1cba5a0eaa1a689a1e589b3",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", sorted(SWEEP_REPORTS))
def test_sweep_report_bytes(kind, tmp_path, capsys):
    values, digest = SWEEP_REPORTS[kind]
    out = tmp_path / "report.json"
    code = main(
        ["sweep", "--kind", kind, "--values", values, *TINY,
         "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    assert _sha(out.read_bytes()) == digest


def test_rate_sweep_store_keys(tmp_path, capsys):
    """A stored ``repro sweep`` files each cell under
    ``ResultStore.key_for(cell)`` of its ``rate_grid`` cell."""
    main(
        ["sweep", "--kind", "rate", "--values", "0,16", *TINY,
         "--store", str(tmp_path)]
    )
    capsys.readouterr()
    grid = rate_grid(
        ["drum", "pull"], [0.0, 16.0], n=30, malicious_fraction=0.1,
        runs=4, seed=1, max_rounds=400, alpha=0.1,
    )
    store = ResultStore(tmp_path)
    assert [store.key_for(cell) for cell in grid.cells] == RATE_KEYS
    assert sorted(p.stem for p in tmp_path.glob("*.npz")) == sorted(RATE_KEYS)


def test_stored_sweep_reruns_with_nothing_computed(tmp_path, capsys):
    """A store filled by the tiny ``repro sweep --store`` serves every
    cell of the same sweep run again."""
    argv = ["sweep", "--kind", "rate", "--values", "0,16", *TINY,
            "--store", str(tmp_path), "--json"]
    main(argv)
    cold = json.loads(capsys.readouterr().out)["sweep"]
    main(argv)
    warm = json.loads(capsys.readouterr().out)["sweep"]
    assert (cold["computed"], cold["cache_hits"]) == (4, 0)
    assert (warm["computed"], warm["cache_hits"]) == (0, 4)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["simulate", "--n", "30", "--runs", "4", "--alpha", "0.1",
             "-x", "16", "--churn", "0.2"],
            "2364d9b3d1dc24d12b1a72d49756ca98cd472de1ec0ca327fc1dce9e6e7d7297",
        ),
        (
            ["measure", "--n", "8", "--messages", "6", "--send-rate", "20",
             "--round-ms", "200", "--alpha", "0.25", "-x", "8"],
            "94c678d82a54c6f82e5163bfa26cb2442ff855061b78594af950abc54be8aa9a",
        ),
    ],
    ids=["simulate", "measure"],
)
def test_cli_json_payload(argv, digest, capsys):
    assert main([*argv, "--seed", "1", "--json"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == digest


def test_scale_grid_cells(tmp_path):
    grid = scale_grid(["drum", "pull"], [64, 128], runs=2, seed=5)
    assert (grid.name, grid.x_label, grid.x_values, grid.metadata) == (
        "scale_sweep", "n (group size)", (64.0, 128.0),
        {"budget_per_node": 8.0},
    )
    cells = grid.cells
    assert [(c.series, c.x, c.engine, c.runs) for c in cells] == [
        ("drum", 64.0, "mega", 2), ("drum", 128.0, "mega", 2),
        ("pull", 64.0, "mega", 2), ("pull", 128.0, "mega", 2),
    ]
    store = ResultStore(tmp_path)
    assert [store.key_for(cell) for cell in cells] == SCALE_KEYS
