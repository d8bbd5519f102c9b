"""The benchmark's output checks count a corrupted output as failed."""

import json

import pytest

import checks
import run
from bellcheck import closed_grid, run_epr_scan

GRID = checks.angle_grid(0.0, 3.14159, 0.1)


def _epr_output() -> bytes:
    return run_epr_scan(closed_grid(0.0, 3.14159, 0.1)).to_json().encode("utf-8")


def test_grid_matches_the_program():
    assert GRID == closed_grid(0.0, 3.14159, 0.1)
    assert len(checks.angle_grid(0.0, 3.14159, 0.0001)) == 31416


def test_good_output_passes():
    ledger = checks.Ledger()
    argv = ["run", "epr-scan"]
    for _ in range(2):
        assert ledger.judge("epr", argv, checks.epr_scan_json(GRID), 0, _epr_output())
    assert (ledger.attempted, ledger.failed, ledger.failures) == (2, 0, [])


def test_corrupted_model_scalar_counts_as_failed():
    data = json.loads(_epr_output())
    key = f"theta={GRID[7]:.12g}:model_scalar"
    data["exact_results"][key] += 1e-9
    corrupted = json.dumps(data, indent=2).encode("utf-8")

    ledger = checks.Ledger()
    assert not ledger.judge("epr", ["run"], checks.epr_scan_json(GRID), 0, corrupted)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert any(key in p for p in ledger.failures[0]["problems"])


def test_extra_json_key_counts_as_failed():
    data = json.loads(_epr_output())
    data["trace"] = {}
    ledger = checks.Ledger()
    assert not ledger.judge("epr", ["run"], checks.epr_scan_json(GRID), 0,
                            json.dumps(data).encode("utf-8"))
    assert ledger.failed == 1


def test_changed_repeat_and_exit_code_count_as_failed():
    ledger = checks.Ledger(explain=lambda argv: ["some_verdict"])
    good = _epr_output()
    assert ledger.judge("epr", ["run"], checks.epr_scan_json(GRID), 0, good)
    assert not ledger.judge("epr", ["run"], checks.epr_scan_json(GRID), 0, good + b" ")
    assert not ledger.judge("epr", ["run"], checks.epr_scan_json(GRID), 1, good,
                            b"bellcheck: something\n")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert "differs from earlier" in ledger.failures[0]["problems"][0]
    assert ledger.failures[1]["failing_verdicts"] == ["some_verdict"]


def test_table_check_needs_a_passing_gate():
    text = "scenario: chsh\nseed: 1\n\ngate: FAIL\n"
    assert checks.table("chsh")(text) == ["missing line 'gate: PASS'"]
    assert checks.table("chsh")(text.replace("FAIL", "PASS")) == []


def test_importtime_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        200 |   site",
        "import time:      1000 |      60000 |       numpy",
        "import time:      5000 |      90000 |   bellcheck",
        "import time:      5000 |     100000 | bellcheck.cli",
    ])
    split = run.parse_importtime(stderr)
    assert split == pytest.approx({"numpy_s": 0.06, "bellcheck_s": 0.04})


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    values = [float(i) for i in range(40)]
    assert run.tail(values) == {"value": 29.0, "level_pct": 75.0, "n": 40}
