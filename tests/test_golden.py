"""Byte-identity gate on the CLI's reports.

`golden/<name>.json` holds the JSON report of each scenario/mode default at
seed 42, as written by

    bellcheck run <args> --seed 42 --format json --out tests/golden/<name>.json

Two 31,416-point grids are pinned by the sha256 of their output instead of
a stored copy.  A refactor must reproduce every report byte for byte.
"""

import hashlib
from pathlib import Path

import pytest

from bellcheck import cli

GOLDEN = Path(__file__).parent / "golden"

DEFAULTS = {
    "epr-scan-original": ("epr-scan",),
    "epr-scan-anticorrelated": ("epr-scan", "--mode", "anticorrelated"),
    "chsh": ("chsh",),
    "sequential-clifford": ("sequential",),
    "sequential-bell-static": ("sequential", "--mode", "bell-static"),
    "sequential-bell-hemisphere": ("sequential", "--mode", "bell-hemisphere"),
    "three-particle": ("three-particle",),
    "update-rule-search": ("update-rule-search",),
    "constraint-check": ("constraint-check",),
    "bell-toy": ("bell-toy",),
}

LARGE_GRIDS = {
    "epr-scan": (
        ("epr-scan", "--angles", "0:3.14159:0.0001", "--format", "json"),
        "c678024761ea065e7dc24351f54b748dfe19a8b3c2e79f2b231e8aa84eb461a6",
    ),
    "constraint-check": (
        ("constraint-check", "--angles", "0:3.14159:0.0001", "--format", "csv"),
        "e2706357fbdbc0ac5580407ba72b7d9021de4ef15a56844906919da88610476a",
    ),
}


def _run(args, tmp_path) -> bytes:
    out = tmp_path / "report"
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_default_report_matches_golden(name, tmp_path):
    got = _run((*DEFAULTS[name], "--seed", "42", "--format", "json"), tmp_path)
    assert got == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(LARGE_GRIDS))
def test_large_grid_output_hash(name, tmp_path):
    args, digest = LARGE_GRIDS[name]
    assert hashlib.sha256(_run(args, tmp_path)).hexdigest() == digest
