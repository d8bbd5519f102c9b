import contextlib
import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings, strategies as st

import bellcheck
from bellcheck import cli, scenarios
from bellcheck.report import emit_csv
from bellcheck.scenarios import McResult, ScenarioReport, closed_grid


def parse(args):
    return cli.parse_args(["run"] + args)


def exit_code(args):
    try:
        return cli.main(["run", *args])
    except SystemExit as exc:
        return exc.code


# -- argument parsing ------------------------------------------------------


def test_defaults():
    config = parse(["chsh", "--seed", "7"])
    assert config.scenario == "chsh"
    assert config.seed == 7
    assert config.samples == 100_000
    assert config.format == "table"
    assert config.angles == (0.0, math.pi, math.pi / 36)


def test_angle_grid_size_from_flag():
    config = parse(["epr-scan", "--angles", "0:3.14159:0.1", "--format", "csv"])
    assert len(closed_grid(*config.angles)) == 32


def test_unknown_scenario_exits_2():
    with pytest.raises(SystemExit) as err:
        parse(["nope"])
    assert err.value.code == 2


def test_invalid_numeric_exits_2():
    with pytest.raises(SystemExit) as err:
        parse(["chsh", "--samples", "many"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        parse(["chsh", "--seed", "-1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        parse(["epr-scan", "--angles", "0:1:0"])
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_non_finite_angles_exit_2(slot, value):
    parts = ["0", "1", "0.5"]
    parts[slot] = value
    with pytest.raises(SystemExit) as err:
        parse(["epr-scan", "--angles", ":".join(parts)])
    assert err.value.code == 2


@pytest.mark.parametrize("angles", [
    ["--angles", "-0.1:0.1:0.1"], ["--angles=-0.1:0.1:0.1"], ["--ang", "-0.1:0.1:0.1"]])
def test_negative_angle_start(angles, capsys):
    assert cli.main(["run", "constraint-check", *angles, "--format", "csv"]) == 0
    pairs = scenarios.xz_scan(closed_grid(-0.1, 0.1, 0.1))
    assert capsys.readouterr().out == emit_csv(scenarios.run_constraint_check(pairs))


def test_bare_trailing_angles_exits_2(capsys):
    assert exit_code(["constraint-check", "--angles"]) == 2
    assert "--angles: expected one argument" in capsys.readouterr().err


def test_oversized_grids_exit_2(capsys):
    assert exit_code(["epr-scan", "--angles", "0:1e12:1e-9"]) == 2
    assert exit_code(["constraint-check", "--angles", "0:1e12:1e-9"]) == 2
    assert exit_code(["update-rule-search", "--grid-step", "1e-300"]) == 2
    assert capsys.readouterr().err.count("more than 1000000 points") == 3


def test_oversized_angle_grid_is_refused_at_parse_time(capsys):
    with pytest.raises(SystemExit) as err:
        parse(["epr-scan", "--angles", "0:1e12:1e-9"])
    assert err.value.code == 2
    assert "--angles: grid has more than 1000000 points" in capsys.readouterr().err


SAMPLE_DOMAIN_ERROR = ("bellcheck: error: samples must be <= 10000000 and >= 10000 "
                       "(chsh also takes 0)\n")


@pytest.mark.parametrize("fmt", list(cli.WRITERS))
def test_mc_sample_domain_is_the_same_in_every_format(fmt, capsys):
    refused = [["chsh", "--samples", n] for n in ("-1", "1", "2", "500", "9999")] + [
        ["bell-toy", "--samples", "9999"],
        ["sequential", "--mode", "bell-static", "--samples", "9999"],
        ["sequential", "--mode", "bell-hemisphere", "--samples", "9999"],
        ["bell-toy", "--samples", "0"],
        ["chsh", "--samples", "10000001"],
    ]
    for args in refused:
        assert exit_code([*args, "--format", fmt]) == 2, args
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", SAMPLE_DOMAIN_ERROR), args
    # chsh alone may skip its Monte Carlo part
    assert exit_code(["chsh", "--samples", "0", "--format", fmt]) == 0
    assert capsys.readouterr().err == ""


# The scenario flags each scenario/mode reads, as documented in the README.
READS = {
    ("epr-scan", "original"): {"--angles", "--mode"},
    ("epr-scan", "anticorrelated"): {"--angles", "--mode"},
    ("chsh", None): {"--samples"},
    ("sequential", "clifford"): {"--mode", "--flip-prob"},
    ("sequential", "bell-static"): {"--mode", "--samples"},
    ("sequential", "bell-hemisphere"): {"--mode", "--samples"},
    ("three-particle", None): set(),
    ("update-rule-search", None): {"--grid-step"},
    ("constraint-check", None): {"--angles"},
    ("bell-toy", None): {"--samples"},
}
# Each differs from the flag's default.
FLAG_VALUES = {"--samples": "20000", "--angles": "0:1:0.5", "--mode": "x",
               "--flip-prob": "0.5", "--grid-step": "0.05"}


def test_registry_has_one_entry_per_scenario_mode():
    assert set(scenarios.REGISTRY) == set(READS)


@pytest.mark.parametrize("scenario,mode", list(READS))
def test_variant_accepts_exactly_the_flags_it_reads(scenario, mode, tmp_path, capsys):
    base = [scenario] + (["--mode", mode] if mode else [])
    assert parse(base).mode == mode

    def report(extra):
        out = tmp_path / "report.json"
        assert cli.main(["run", *base, *extra, "--format", "json",
                         "--seed", "42", "--out", str(out)]) == 0
        return out.read_text()

    default = report([])
    for flag, value in FLAG_VALUES.items():
        if flag == "--mode" and mode:
            continue
        if flag in READS[scenario, mode]:
            # an accepted flag changes the report
            assert report([flag, value]) != default, flag
        else:
            capsys.readouterr()
            assert exit_code([*base, flag, value]) == 2, flag
            assert f"{flag} is not read by" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["chsh", "--mode", "bogus", "--flip-prob", "0.7"],
    ["three-particle", "--mode", "x"],
    ["epr-scan", "--samples", "7", "--grid-step", "0.05"],
    ["sequential", "--mode", "bell-static", "--flip-prob", "0.7"],
    ["sequential", "--samples", "5", "--format", "json"],
    ["sequential", "--mode", "bogus"],
    ["epr-scan", "--mode", "bogus"],
])
def test_ignored_or_unknown_flags_exit_2(args):
    assert exit_code(args) == 2


@pytest.mark.parametrize("args", [
    ["sequential", "--flip-prob", "1.5"],
    ["sequential", "--flip-prob", "nan"],
    ["update-rule-search", "--grid-step", "-1"],
    ["update-rule-search", "--grid-step", "0.5"],
    ["chsh", "--samples", "-1"],
    ["bell-toy", "--samples", "-1"],
])
def test_out_of_domain_values_exit_2(args, capsys):
    assert exit_code(args) == 2
    assert "error" in capsys.readouterr().err


def test_memory_error_exits_2_with_message(monkeypatch, capsys):
    def exhausted(samples, seed):
        raise MemoryError("Unable to allocate 2.18 TiB for an array")

    monkeypatch.setattr(scenarios, "run_chsh", exhausted)
    assert cli.main(["run", "chsh", "--samples", "100000000000"]) == 2
    assert "out of memory: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("runner, args, named", [
    ("run_epr_scan", ["epr-scan", "--angles", "0:0.999998:0.000001"],
     "epr-scan --angles (0.0, 0.999998, 1e-06) --mode original"),
    ("search_update_rules", ["update-rule-search", "--grid-step", "1e-5"],
     "update-rule-search --grid-step 1e-05"),
    ("run_chsh", ["chsh", "--samples", "20000"], "chsh --samples 20000"),
    ("run_sequential", ["sequential", "--mode", "bell-static"],
     "sequential --mode bell-static --samples 100000"),
    ("run_three_particle_search", ["three-particle"], "three-particle"),
])
def test_memory_error_without_text_names_the_run(runner, args, named, monkeypatch, capsys):
    def exhausted(*_):
        raise MemoryError()

    monkeypatch.setattr(scenarios, runner, exhausted)
    assert cli.main(["run", *args]) == 2
    assert capsys.readouterr().err == f"bellcheck: error: out of memory: {named}\n"


def test_internal_error_exits_2_with_message(monkeypatch, capsys):
    def broken(samples, seed):
        raise RuntimeError("verdict table lost")

    monkeypatch.setattr(scenarios, "run_chsh", broken)
    assert cli.main(["run", "chsh"]) == 2
    assert ("bellcheck: error: internal error: RuntimeError: verdict table lost"
            in capsys.readouterr().err)


@pytest.mark.parametrize("args", [
    ["chsh"],
    ["sequential", "--mode", "bell-static"],
    ["sequential", "--mode", "bell-hemisphere"],
    ["bell-toy"],
])
def test_samples_above_the_cap_exit_2(args, monkeypatch, capsys):
    monkeypatch.setattr(scenarios, "MAX_SAMPLES", 20_000)
    assert exit_code([*args, "--samples", "20001"]) == 2
    assert "samples must be <= 20000" in capsys.readouterr().err
    assert exit_code([*args, "--samples", "20000"]) == 0


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
    assert parse(["chsh"]).seed == 99
    # explicit flag wins
    assert parse(["chsh", "--seed", "3"]).seed == 3
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    with pytest.raises(SystemExit) as err:
        parse(["chsh"])
    assert err.value.code == 2


@pytest.mark.parametrize("env,flag,message", [
    ("-1", None, "BELLCHECK_SEED must fit in an unsigned 64-bit integer, got '-1'"),
    (str(2 ** 64), None,
     f"BELLCHECK_SEED must fit in an unsigned 64-bit integer, got '{2 ** 64}'"),
    (None, "-1", "--seed must fit in an unsigned 64-bit integer"),
    ("7", str(2 ** 64), "--seed must fit in an unsigned 64-bit integer"),
], ids=["env-negative", "env-2**64", "flag-negative", "flag-2**64-over-env"])
def test_out_of_range_seed_names_its_source(env, flag, message, monkeypatch, capsys):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.SEED_ENV_VAR, env)
    assert exit_code(["chsh"] + (["--seed", flag] if flag else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"bellcheck run: error: {message}\n")


# -- end-to-end runs ---------------------------------------------------------


def test_json_output_round_trips(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["run", "chsh", "--samples", "0", "--format", "json",
                     "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert set(parsed) == {"scenario_name", "parameters", "exact_results",
                           "mc_results", "qm_reference", "verdicts", "seed"}
    assert parsed["qm_reference"]["chsh"] == 2.82842712475
    rebuilt = ScenarioReport.from_json_dict(parsed)
    assert rebuilt.to_json_dict() == parsed


def test_identical_invocations_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli.main(["run", "bell-toy", "--samples", "20000", "--seed", "5",
                         "--format", "json", "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_wrong_sign_row(capsys):
    code = cli.main(["run", "epr-scan", "--mode", "anticorrelated",
                     "--angles", "0:0.5:0.5", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("point,")
    row = lines[1].split(",")
    assert row[0] == "theta=0"
    header = lines[0].split(",")
    assert row[header.index("model_scalar")] == "1"
    assert row[header.index("qm")] == "-1"
    assert row[header.index("verdict")] == "wrong_sign"


def test_csv_header_keeps_first_appearance_across_sections():
    # g1's field c appears only in qm_reference, after g2's exact field b.
    report = ScenarioReport(
        "synthetic", {"label": "x"},
        exact_results={"g1:a": 1.0, "g2:b": 2.5, "total": 3},
        mc_results={"g2:m": McResult(0.25, 0.125, 10), "pooled": McResult(0.5, 0.1, 20)},
        qm_reference={"g1:c": -1.0, "bound": 2.0},
        verdicts={"g1:ok": True, "g2:ok": False, "all_ok": True},
    )
    assert emit_csv(report) == (
        "point,a,b,m:estimate,m:standard_error,m:samples,c,verdict\n"
        "g1,1,,,,,-1,ok\n"
        "g2,,2.5,0.25,0.125,10,,\n"
        "\n"
        "name,value\n"
        "total,3\n"
        "pooled.estimate,0.5\n"
        "pooled.standard_error,0.1\n"
        "pooled.samples,20\n"
        "qm.bound,2\n"
        "all_ok,true\n"
    )


def test_table_three_particle_headline(capsys):
    code = cli.main(["run", "three-particle"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("consistent assignments: 0\n")


def test_unwritable_out_path_exits_3(tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code = cli.main(["run", "chsh", "--samples", "0", "--format", "json",
                     "--out", str(target)])
    assert code == 3


class _FullStdout:
    """A stdout on a real descriptor whose every write fails as on a full disk;
    it is its own binary layer."""

    def __init__(self, fileno):
        self.fileno = fileno
        self.buffer = self

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_failed_stdout_write_exits_3(tmp_path, capsys):
    with open(tmp_path / "stdout", "wb") as handle:
        with contextlib.redirect_stdout(_FullStdout(handle.fileno)):
            assert cli.main(["run", "three-particle"]) == 3
        # The failed descriptor now points at devnull, so a late flush is lost.
        os.write(handle.fileno(), b"late")
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == (
        "bellcheck: cannot write <stdout>: [Errno 28] No space left on device\n")


class _ShortStdout:
    """A stdout whose binary write takes at most 4,096 bytes per call, as a
    raw pipe may; it is its own binary layer."""

    def __init__(self):
        self.buffer = self
        self.data = bytearray()

    def write(self, data):
        self.data += data[:4096]
        return min(len(data), 4096)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", sorted(cli.WRITERS))
def test_short_stdout_writes_receive_the_whole_report(fmt, tmp_path, monkeypatch):
    # Blocks of 10,000 characters, so that each ends in a write shorter than 4,096.
    monkeypatch.setattr(cli, "WRITE_BLOCK", 10_000)
    args = ["run", "epr-scan", "--angles", "0:3.14159:0.005", "--format", fmt]
    stdout = _ShortStdout()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(args) == 0
    assert cli.main([*args, "--out", str(tmp_path / "report")]) == 0
    assert len(stdout.data) > 3 * 10_000
    assert bytes(stdout.data) == (tmp_path / "report").read_bytes()


def _bellcheck(*args, **popen):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bellcheck.__file__)))
    return subprocess.Popen([sys.executable, "-m", "bellcheck.cli", "run", *args],
                            env=env, stderr=subprocess.PIPE, **popen)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_3():
    with open("/dev/full", "wb") as full:
        proc = _bellcheck("sequential", stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert err == b"bellcheck: cannot write <stdout>: [Errno 28] No space left on device\n"


def test_stdout_pipe_closed_after_the_first_bytes_exits_3():
    # 282 KB of CSV, more than a pipe buffer holds, so the writer meets the closed end.
    proc = _bellcheck("epr-scan", "--angles", "0:3.14159:0.001", "--format", "csv",
                      stdout=subprocess.PIPE)
    assert proc.stdout.read(64).startswith(b"point,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 3
    assert err == b"bellcheck: cannot write <stdout>: [Errno 32] Broken pipe\n"


def test_runtime_value_errors_exit_2(capsys):
    # sequential bell models enforce the 10^4 sample floor inside the library
    code = cli.main(["run", "sequential", "--mode", "bell-static",
                     "--samples", "100"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_gate_failure_exits_1(monkeypatch, capsys):
    real = cli.run_scenario

    def broken(config):
        report = real(config)
        name = next(iter(report.expected))
        data = report.to_json_dict()
        data["verdicts"][name] = not report.expected[name]
        return ScenarioReport.from_json_dict(data)

    monkeypatch.setattr(cli, "run_scenario", broken)
    code = cli.main(["run", "update-rule-search"])
    assert code == 1


def test_sequential_modes_run_from_cli(capsys):
    assert cli.main(["run", "sequential", "--mode", "clifford",
                     "--flip-prob", "0.5"]) == 0
    assert cli.main(["run", "sequential", "--mode", "bell-hemisphere",
                     "--samples", "20000"]) == 0
    capsys.readouterr()


# -- property test of the CLI contract -----------------------------------------

# Boundary values of every numeric flag, never an accepted MAX_SAMPLES.
_NUMBERS = ["0", "1", "-1", str(scenarios.MIN_MC_SAMPLES - 1),
            str(scenarios.MIN_MC_SAMPLES + 1), str(scenarios.MAX_SAMPLES + 1),
            "nan", "inf", "-inf", "-0.0", "1e-300", "many"]
_CONTRACT_VALUES = {
    "--samples": st.sampled_from(_NUMBERS),
    "--flip-prob": st.sampled_from(_NUMBERS + ["0.5"]),
    "--grid-step": st.sampled_from(_NUMBERS + ["0.1", "0.01"]),
    "--angles": st.lists(st.sampled_from(_NUMBERS + ["0.5", "3.14159"]),
                         min_size=3, max_size=3).map(":".join),
    "--mode": st.sampled_from(sorted({m for _, m in scenarios.REGISTRY if m} | {"bogus"})),
}
_SEEDS = ["0", "-1", str(2 ** 64 - 1), str(2 ** 64), "x"]
_OUTS = [None, "file", "missing-dir"] + (["/dev/full"] if os.path.exists("/dev/full") else [])


def _accepted_grid_points(angles):
    """The points of an --angles grid the CLI accepts, 0 for one it refuses."""
    try:
        return scenarios.grid_points(*(float(part) for part in angles.split(":")))
    except ValueError:
        return 0


@st.composite
def _contract_invocations(draw):
    """A scenario/mode, a subset of the flags it reads, at most one flag it
    may not read, each with a boundary value, plus seed, format and target."""
    (scenario, mode), variant = draw(st.sampled_from(list(scenarios.REGISTRY.items())))
    args = [scenario] + (["--mode", mode] if mode else [])
    own = [f for f in variant.flags if f != "--mode"]
    flags = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    flags += draw(st.lists(st.sampled_from(sorted(_CONTRACT_VALUES)), max_size=1))
    for flag in flags:
        value = draw(_CONTRACT_VALUES[flag])
        # Keep accepted runs small: at most 1e4 grid points (samples stay <= 1e5).
        assume(flag != "--angles" or _accepted_grid_points(value) <= 10_000)
        args += [flag, value]
    seed = draw(st.none() | st.sampled_from(_SEEDS))
    args += ["--seed", seed] if seed is not None else []
    fmt = draw(st.none() | st.sampled_from(list(cli.WRITERS)))
    args += ["--format", fmt] if fmt is not None else []
    return args, draw(st.none() | st.sampled_from(_SEEDS)), draw(st.sampled_from(_OUTS))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_contract_invocations())
# Every run draws exits 0 and 2; these pin a gate failure and a failed write.
@example(invocation=(["bell-toy", "--samples", "10000", "--seed", "2"], None, None))
@example(invocation=(["chsh", "--samples", "0"], "7", "missing-dir"))
def test_cli_contract_holds_on_boundary_values(capsys, invocation):
    """150 drawn examples and 2 explicit ones.  Exit codes are 0..3; a refusal
    or a failed write leaves stdout empty and no traceback; a report's exit
    code is its gate."""
    args, env_seed, target = invocation
    env = {} if env_seed is None else {cli.SEED_ENV_VAR: env_seed}
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if env_seed is None:
            os.environ.pop(cli.SEED_ENV_VAR, None)
        out = {"file": os.path.join(tmp, "report"),
               "missing-dir": os.path.join(tmp, "missing", "report")}.get(target, target)
        argv = ["run", *args] + (["--out", out] if out else [])
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
        captured = capsys.readouterr()
        event(f"exit code {code}")
        assert code in {0, 1, 2, 3}
        if code in (2, 3):
            assert captured.out == ""
            assert captured.err
            assert "Traceback" not in captured.err
            assert "internal error" not in captured.err
            return
        config = cli.parse_args(argv)
        report = scenarios.REGISTRY[config.scenario, config.mode].run(config)
        assert code == (0 if report.gate_passed() else 1)
        text = cli.emit_report(report, config, report.gate_passed())
        if out is None:
            assert captured.out == text
        else:
            assert captured.out == ""
            with open(out, encoding="utf-8") as handle:
                assert handle.read() == text


# -- exit 0 across the documented input domain ------------------------------

# Each deterministic variant, with flags drawn from the domains README
# documents, must exit 0: none of these runs samples, so exit 1 would be a
# false alarm.  Grids are kept to at most 2,001 points so that the runs stay
# fast; the documented cap is MAX_GRID_POINTS.  constraint-check is left out:
# its gate designates parallel pairs from the 12-digit pair text while the
# verdict comes from full precision, so a pair at the EXACT_TOL boundary
# exits 1 (pinned below as an expected failure).
_MAX_DRAWN_POINTS = 2_001
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _angles(draw):
    """START:STOP:STEP of a grid the CLI accepts: finite bounds, STEP > 0,
    STOP >= START, written as repr so that each reads back exactly."""
    start = draw(_FINITE)
    step = draw(st.floats(min_value=0.0, max_value=10.0, exclude_min=True))
    stop = start + draw(st.floats(0.0, _MAX_DRAWN_POINTS - 1.0)) * step
    assume(0 < _accepted_grid_points(f"{start!r}:{stop!r}:{step!r}") <= _MAX_DRAWN_POINTS)
    return f"{start!r}:{stop!r}:{step!r}"


_DOMAIN_FLAGS = {
    ("epr-scan", "original"): {"--angles": _angles()},
    ("epr-scan", "anticorrelated"): {"--angles": _angles()},
    ("sequential", "clifford"): {"--flip-prob": st.floats(0.0, 1.0).map(repr)},
    ("update-rule-search", None): {"--grid-step": st.floats(
        1.0 / (_MAX_DRAWN_POINTS - 1), 0.1).map(repr)},
    ("three-particle", None): {},
}


@st.composite
def _domain_invocations(draw):
    """A deterministic variant, a subset of the flags it reads drawn from
    their domains, and a seed and a format, each possibly left to its default."""
    (scenario, mode), flags = draw(st.sampled_from(list(_DOMAIN_FLAGS.items())))
    args = [scenario] + (["--mode", mode] if mode else [])
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)) if flags else []:
        args += [flag, draw(flags[flag])]
    seed = draw(st.none() | st.integers(0, 2 ** 64 - 1).map(str))
    fmt = draw(st.none() | st.sampled_from(list(cli.WRITERS)))
    return args + (["--seed", seed] if seed else []) + (["--format", fmt] if fmt else [])


def test_domain_flags_cover_every_deterministic_variant_but_constraint_check():
    deterministic = {key for key, variant in scenarios.REGISTRY.items()
                     if "--samples" not in variant.flags}
    assert set(_DOMAIN_FLAGS) == deterministic - {("constraint-check", None)}
    for key, flags in _DOMAIN_FLAGS.items():
        assert {*flags, "--mode"} >= set(scenarios.REGISTRY[key].flags)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=_domain_invocations())
@example(args=["update-rule-search", "--grid-step", "0.03"])
@example(args=["epr-scan", "--angles", "1:1.000000000001:1e-13", "--format", "csv"])
def test_deterministic_variants_exit_0_across_their_domains(capsys, args, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    capsys.readouterr()
    code = exit_code(args)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), args
    assert captured.out


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: scenarios._parallel_pairs designates constraint-check pairs "
    "parallel from the 12-digit pair text, so at the EXACT_TOL boundary the gate "
    "raises a false alarm"))
def test_constraint_check_exits_0_at_the_tolerance_boundary(capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    code = exit_code(["constraint-check", "--angles", "5.00000000000004e-13:5.00000000000004e-13:1"])
    capsys.readouterr()
    assert code == 0
