"""Byte-identity gate on the CLI's reports.

`golden/<name>.json` holds the JSON report of each scenario/mode default at
seed 42, as written by

    bellcheck run <args> --seed 42 --format json --out tests/golden/<name>.json

The same defaults in `--format table` and `--format csv`, two 31,416-point
grids, and the 100,001-point `update-rule-search` in all three formats are
pinned by the sha256 of their output instead of a stored copy.  A refactor must reproduce every report byte for byte.

The gate designations (`ScenarioReport.expected`, gated verdict name -> wanted
value, in verdict order) of the defaults and of the 31,416-point
`constraint-check` grid are pinned the same way, by the sha256 of
`json.dumps(list(report.expected.items()))`.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellcheck
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

TEXT_DIGESTS = {
    "table": {
        "bell-toy": "13f592b452db3f0dea424c817fa0104ec44f4b7e8c3fef776e0b5079c650ecb3",
        "chsh": "a8dd1572e4f66775e1ebec111a5edb32122de5118e4695a434b94831905fdd03",
        "constraint-check": "cf8875c0b050e98e8773f4548d4e0369d3e3061c23701041f7bdf40e3260c652",
        "epr-scan-anticorrelated": "0e74a2b3dff4a27f3aacb1574cf8eba6d5d2b961d3da063b2991c20182f392f6",
        "epr-scan-original": "a59b69d89a2379b88ba24a1dac7c26132cc2d2f8e297f85e33fc05390ee050c8",
        "sequential-bell-hemisphere": "18f3641ec74844eeb80a753b40a9fd3d78eef99ca00bf0789cc008f53f005858",
        "sequential-bell-static": "a37c2ae0a1fd6c7e9c7a43f4d4a322f1705cc45ad92762084c9f2230a41f4fa3",
        "sequential-clifford": "9aecd70405ee0089f7a37f8a7436b7b4b26eca25f4400831db3bea8d2431d97d",
        "three-particle": "deeb11862b240fa9a071f359fcb4c03a456eea788e137112d5eff05ab2d6d897",
        "update-rule-search": "1778442b5d5d2d10f1c0fdd4e8ec25db9fe8a1f3b684e92e63a1d0242efd6758",
    },
    "csv": {
        "bell-toy": "9d30f916f00b63f22313c63bb93f6d33ed51108c0616663e6776f0060a0c30fb",
        "chsh": "0ada914c8b790a8b21da72ba6d8a9f23f097d2892965a10f2b95fe9c0f931099",
        "constraint-check": "9018ec96bf89116c027f312734d28ab5fc77e188e4ae646161f3e84b6be1abef",
        "epr-scan-anticorrelated": "d1fd6d0b0b738f27f0e3daaec43f31a7b29ef9242840d07ee3d54f89e27ba7d8",
        "epr-scan-original": "9cbf439efef174b69ff8fccd94da452bc6d0a2ffb3d94a36678d1a23a45f2fbf",
        "sequential-bell-hemisphere": "aa3c6b500e6ba9727fa9cce48ed5fa5ca287f9787dfac673b2f43f6b7cd4cc25",
        "sequential-bell-static": "e8f376001094ae2eaff6ddbc7402aba3e5f7c582fb5a92f936a331229ed18c5c",
        "sequential-clifford": "59a27baade455e67e013c83b4273fecd04f4b31c65b41e12f2ed3a8d8096693a",
        "three-particle": "ccf5bf0a6be26c3216c906e02b567dc9e098a009c0a88c92d7a52d18202aad53",
        "update-rule-search": "b02e6e655b100132e7f0ea40baef12c2699152e608f9928c4c35ef1d4143abb5",
    },
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
    "update-rule-search-json": (
        ("update-rule-search", "--grid-step", "1e-5", "--seed", "42", "--format", "json"),
        "5f713280137ca47ac7629eb351cd327eadcf2cb9cbf63f1442df7bb1635092e8",
    ),
    "update-rule-search-csv": (
        ("update-rule-search", "--grid-step", "1e-5", "--seed", "42", "--format", "csv"),
        "696bc8ab1167cba184fa27dae78381f6d5e89ce1fd545d34c01c20987d51b1cd",
    ),
    "update-rule-search-table": (
        ("update-rule-search", "--grid-step", "1e-5", "--seed", "42", "--format", "table"),
        "db4d297646d895e74ddbc007ed38e7c365be675220735ca93b489d283bc1744a",
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


@pytest.mark.parametrize("name", sorted(DEFAULTS))
@pytest.mark.parametrize("fmt", sorted(TEXT_DIGESTS))
def test_default_text_output_hash(fmt, name, tmp_path):
    got = _run((*DEFAULTS[name], "--seed", "42", "--format", fmt), tmp_path)
    assert hashlib.sha256(got).hexdigest() == TEXT_DIGESTS[fmt][name]


@pytest.mark.parametrize("name", sorted(LARGE_GRIDS))
def test_large_grid_output_hash(name, tmp_path):
    args, digest = LARGE_GRIDS[name]
    assert hashlib.sha256(_run(args, tmp_path)).hexdigest() == digest


# One-point grids, where every column (each pair coordinate, each blade of
# each coefficient array) holds one bit pattern.  Each runs in a child with
# a timeout, so a writer that loops without end fails instead of hanging.
CONSTANT_GRID_DIGESTS = {
    ("constraint-check", "csv"): "8d42267f265378a88c8982a9993bcc97c166fd39c36628bc096bbb0e05648f4d",
    ("constraint-check", "json"): "1c12a8873a53967e65a6d22bb7b5b78e40ad671561e4d130f953e3ab835edd27",
    ("constraint-check", "table"): "d7cbcaa38cb270b906adb0632145780ece15a84c4cc12e034411dc149a050dd9",
    ("epr-scan", "csv"): "0a9b40f2c2484f31a956c5739d7c1c8a9e603f23eec3ceb20260a8a0554cd442",
    ("epr-scan", "json"): "51f4c217d6874f4a23d790734edcb9dc1c14dc859c1ab37ed3f52ef03cd793b6",
    ("epr-scan", "table"): "05920872d273185febc4dbad3cb054f7645ece8a7da7e60ee9f192ca78cca1b1",
}


@pytest.mark.parametrize("scenario, fmt", sorted(CONSTANT_GRID_DIGESTS))
def test_constant_column_grid_finishes_with_the_pinned_output(scenario, fmt):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bellcheck.__file__)))
    proc = subprocess.run([sys.executable, "-m", "bellcheck.cli", "run", scenario,
                           "--angles", "0:0:1", "--format", fmt],
                          env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == CONSTANT_GRID_DIGESTS[scenario, fmt]


DESIGNATION_ARGS = {
    **DEFAULTS,
    "constraint-check-grid": ("constraint-check", "--angles", "0:3.14159:0.0001"),
}

DESIGNATION_DIGESTS = {
    "bell-toy": "78b9fcd9055735f45289f607d8e550e76c70812bfe2642ff79e87be7953af456",
    "chsh": "b10ae27a6791378ef6b3e2310f320b4ae219ff89c737e7826d191025fe358425",
    "constraint-check": "2a6e0b934ad45979be07ffe28ad39b0c00efefa033fa91ebe3ee55785631b4f2",
    "constraint-check-grid": "5cbd90ae59d1de94187a14eeaed9f4f211fc50ce29d0b705dca370968de5bab2",
    "epr-scan-anticorrelated": "bd7d7a815daf24175daedcd7849bcf9a7d3114d8cd971fcd569fedec7b12da2d",
    "epr-scan-original": "2c95d9d38fbb44e5be707dc425ec56ec22370a996775639079a5be886550e5b1",
    "sequential-bell-hemisphere": "ccfb712831aa242bf2952f59b276a0c10935086ae352492d02a0f2aeb1322ae8",
    "sequential-bell-static": "cd4410d34a0ec3a8eb17b37d20a348c4330896ea1f490d08051a1bc5ac91ad0a",
    "sequential-clifford": "91353bde0d5f8be2654f02f512e437ef658ef758a4fc3d2ccda9e9f9cb8209a3",
    "three-particle": "2fcfc47cd6a261f4eec9ac560540aa3c35dff9a898efdee8e32a1aa7bf1d62b3",
    "update-rule-search": "9dca9ff1d221aae49be5cb90aa33731c571bb3f997bb1643bdec51fe96986c3c",
}


@pytest.mark.parametrize("name", sorted(DESIGNATION_DIGESTS))
def test_gate_designation_hash(name):
    report = cli.run_scenario(cli.parse_args(["run", *DESIGNATION_ARGS[name], "--seed", "42"]))
    text = json.dumps(list(report.expected.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == DESIGNATION_DIGESTS[name]
