"""Byte pins on the figure front door: the CLI and the grid builders.

Each pin is a digest of what a seeded invocation writes, so moving the
sweep plumbing or the CLI between entry points must leave every value,
store key and sweep identity exactly where it was.  A store and manifest
filled by an older build stay readable only while these hold.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.sweep import scale_grid
from repro.sweep.orchestrator import sweep_identity

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
#: ``sweep_identity("rate_sweep", cells)`` of the tiny rate grid.
RATE_IDENTITY = (
    "de664a567446839992665f658f66f2e4568e90aa4ce3cb8e27211b4c7c3499a7"
)
#: ``sweep_identity("scale_sweep", cells)`` of the tiny scale grid.
SCALE_IDENTITY = (
    "12a5f990497716fd3ac98815497f181193647f2bf9eb1de9199ad0aacfac686d"
)


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


def test_rate_sweep_manifest_identity(tmp_path, capsys):
    """The manifest a stored ``repro sweep`` writes names the sweep by
    ``sweep_identity(name, cells)`` of its ``rate_grid`` cells."""
    main(
        ["sweep", "--kind", "rate", "--values", "0,16", *TINY,
         "--store", str(tmp_path)]
    )
    capsys.readouterr()
    manifest = json.loads(
        (tmp_path / "manifests" / "rate_sweep.json").read_text()
    )
    assert manifest["identity"] == RATE_IDENTITY


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


def test_scale_grid_cells():
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
    assert sweep_identity(grid.name, cells) == SCALE_IDENTITY
