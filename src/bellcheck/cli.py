"""Command-line entry point: parsing, scenario selection, exit codes.

    bellcheck run <scenario> [FLAGS] [--seed S] [--format table|json|csv] [--out PATH]

scenarios.REGISTRY lists each scenario/mode (the first mode listed is the
default), the FLAGS it reads and its runner; WRITERS holds one writer per
--format.  Any other flag is a usage error (exit 2):

    epr-scan [--mode original|anticorrelated]    --angles START:STOP:STEP
    chsh                                         --samples N
    sequential [--mode clifford]                 --flip-prob P
    sequential --mode bell-static|bell-hemisphere  --samples N
    three-particle                               (none)
    update-rule-search                           --grid-step G
    constraint-check                             --angles START:STOP:STEP
    bell-toy                                     --samples N

Exit codes: 0 when every gated verdict holds (the documented behaviour,
including the model failures the scenarios are built to demonstrate, was
reproduced), 1 when some gated verdict differs, 2 for usage errors and
invalid parameters (including non-finite angles, grids of more than
1,000,000 points, --samples outside 10,000..10,000,000 other than chsh's 0,
and running out of memory) and for internal errors, 3 when the report cannot
be written by the one write loop that serves --out and stdout alike (a full
disk, or a reader such as `| head` that closes the pipe early).  Identical
invocations produce byte-identical output.
BELLCHECK_SEED overrides the default seed when --seed is absent.  BLAS runs
on one thread unless OPENBLAS_NUM_THREADS is set.  Angles are radians; CSV is
comma-separated, UTF-8, LF.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

# Set before numpy is first imported: the only BLAS calls, (k, 3) @ (3,) and 4x4
# products, are too small to use the thread pool OpenBLAS would start.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import scenarios
from .report import emit_csv, emit_table
from .scenarios import DEFAULT_GRID_STEP, DEFAULT_SAMPLES, DEFAULT_SEED, ScenarioReport

# --format -> its writer of (report, whether the gate passed).
WRITERS = {"table": emit_table, "json": lambda report, _: report.to_json(),
           "csv": lambda report, _: emit_csv(report)}

SEED_ENV_VAR = "BELLCHECK_SEED"
WRITE_BLOCK = 1 << 20  # characters encoded per write, so no second whole copy is held

# The value of each flag left out; $BELLCHECK_SEED, when set, replaces the seed's.
DEFAULTS = {"samples": DEFAULT_SAMPLES, "seed": DEFAULT_SEED,
            "angles": (0.0, math.pi, math.pi / 36), "flip_prob": 0.0,
            "grid_step": DEFAULT_GRID_STEP}


def _parse_angles(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected START:STOP:STEP")
    start, stop, step = (float(p) for p in parts)
    scenarios.grid_points(start, stop, step)
    return (start, stop, step)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bellcheck",
        description="audit scenarios for Clifford-valued and scalar "
                    "hidden-variable spin models")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario and emit its report")
    names = list(dict.fromkeys(name for name, _ in scenarios.REGISTRY))
    run.add_argument("scenario", choices=names)
    run.add_argument("--samples", type=int, default=None,
                     help=f"Monte Carlo sample count (default {DEFAULTS['samples']})")
    run.add_argument("--seed", type=int, default=None,
                     help=f"64-bit unsigned RNG seed (default {DEFAULTS['seed']}, or "
                          f"${SEED_ENV_VAR} when set)")
    run.add_argument("--format", choices=list(WRITERS), default="table")
    run.add_argument("--angles", default=None, metavar="START:STOP:STEP",
                     help="angle grid in radians (default 0:pi:pi/36); START may be negative")
    modes_help = ", ".join(f"{name} {{{'|'.join(scenarios.modes(name))}}}"
                           for name in names if scenarios.modes(name))
    run.add_argument("--mode", default=None,
                     help=f"variant of {modes_help}; the first listed is the default")
    run.add_argument("--flip-prob", type=float, default=None,
                     help="post-z flip probability for sequential/clifford "
                          f"(default {DEFAULTS['flip_prob']})")
    run.add_argument("--grid-step", type=float, default=None,
                     help="probability resolution for update-rule-search "
                          f"(default {DEFAULTS['grid_step']})")
    run.add_argument("--out", default=None, help="write the report here")

    # argparse reads "--angles -0.1:0:0.1" as two options; join them as
    # "--angles=-0.1:0:0.1" (or an abbreviation of --angles) would be.
    args: list[str] = []
    for arg in argv:
        if (args and len(args[-1]) > 2 and "--angles".startswith(args[-1])
                and arg.startswith("-") and not arg.startswith("--")):
            args[-1] = f"{args[-1]}={arg}"
        else:
            args.append(arg)
    ns = parser.parse_args(args)

    known = scenarios.modes(ns.scenario)
    if known and ns.mode is not None and ns.mode not in known:
        run.error(f"--mode for {ns.scenario} must be one of {', '.join(known)}")
    mode = (ns.mode or known[0]) if known else None
    variant = scenarios.REGISTRY[ns.scenario, mode]
    for flag in dict.fromkeys(f for v in scenarios.REGISTRY.values() for f in v.flags):
        if getattr(ns, flag[2:].replace("-", "_")) is not None and flag not in variant.flags:
            run.error(f"{flag} is not read by {ns.scenario}"
                      + (f" --mode {mode}" if mode else ""))
    ns.mode = mode

    env = os.environ.get(SEED_ENV_VAR) if ns.seed is None else None
    if env is not None:
        try:
            ns.seed = int(env)
        except ValueError:
            run.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if ns.seed is not None and not 0 <= ns.seed < 2 ** 64:
        run.error("--seed must fit in an unsigned 64-bit integer" if env is None
                  else f"{SEED_ENV_VAR} must fit in an unsigned 64-bit integer, got {env!r}")

    if ns.angles is not None:
        try:
            ns.angles = _parse_angles(ns.angles)
        except ValueError as exc:
            run.error(f"--angles: {exc}")
    for name, value in DEFAULTS.items():
        if getattr(ns, name) is None:
            setattr(ns, name, value)
    return ns


def run_scenario(config: argparse.Namespace) -> ScenarioReport:
    return scenarios.REGISTRY[config.scenario, config.mode].run(config)


def emit_report(report: ScenarioReport, config: argparse.Namespace, passed: bool) -> str:
    return WRITERS[config.format](report, passed)


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = run_scenario(config)
        passed = report.gate_passed()
        text = emit_report(report, config, passed)
    except ValueError as exc:
        print(f"bellcheck: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # The allocator's own MemoryError has no text: name the run and the flags it read.
        flags = scenarios.REGISTRY[config.scenario, config.mode].flags
        run = [config.scenario, *(f"{f} {getattr(config, f[2:].replace('-', '_'))}" for f in flags)]
        print(f"bellcheck: error: out of memory: {str(exc) or ' '.join(run)}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for a gated verdict that differs.
        print(f"bellcheck: error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    blocks = (text[i:i + WRITE_BLOCK].encode("utf-8") for i in range(0, len(text), WRITE_BLOCK))
    try:
        # Under python -u stdout's binary layer is a raw file, whose write may
        # take only part of the data (a pipe closed mid-write): loop.
        with (contextlib.nullcontext(sys.stdout.buffer) if config.out is None
              else open(config.out, "wb")) as handle:
            for view in map(memoryview, blocks):
                while view:
                    view = view[handle.write(view):]
            handle.flush()
    except OSError as exc:
        if config.out is None:
            # As Python's signal docs advise for a closed pipe: point stdout at
            # devnull, so that the flush at interpreter exit cannot fail too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        target = "<stdout>" if config.out is None else repr(config.out)
        print(f"bellcheck: cannot write {target}: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
