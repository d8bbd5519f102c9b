"""tools/parity_corpus.txt names every registry variant in every format,
the help text, sample counts that straddle the lambda chunk, the three
seeded Monte Carlo false alarms and an update-rule-search grid step that
puts no grid point on p = 1/2.  The parity tool itself is not run here:
it starts two processes per line."""

import importlib.util
import os

import numpy as np
import pytest

from bellcheck import cli, scenarios
from bellcheck.models import CHUNK

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("parity", os.path.join(TOOLS, "parity.py"))
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

FALSE_ALARMS = (
    "bell-toy --samples 10000 --seed 2",
    "chsh --samples 10000 --seed 123",
    "sequential --mode bell-hemisphere --samples 1000000 --seed 17",
)


MC_VARIANTS = (("chsh", None), ("sequential", "bell-static"), ("sequential", "bell-hemisphere"),
               ("bell-toy", None))


@pytest.fixture(scope="module")
def corpus():
    return parity.read_corpus()


def _parsed(corpus):
    """The parsed arguments of each corpus line that is not a usage refusal."""
    for env, args in corpus:
        try:
            yield env, cli.parse_args(["run", *args])
        except SystemExit:
            continue  # a usage refusal, which the corpus holds on purpose


def test_corpus_runs_every_variant_in_every_format(corpus, monkeypatch, capsys):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    covered = {(ns.scenario, ns.mode, ns.format) for _, ns in _parsed(corpus)}
    capsys.readouterr()
    assert covered >= {(*variant, fmt) for variant in scenarios.REGISTRY for fmt in cli.WRITERS}
    assert len(corpus) >= 100
    assert ({}, ["--help"]) in corpus


@pytest.mark.parametrize("alarm", FALSE_ALARMS)
def test_corpus_holds_each_false_alarm(corpus, alarm):
    assert any(not env and " ".join(args).startswith(alarm) for env, args in corpus)


@pytest.mark.parametrize("variant", MC_VARIANTS)
def test_corpus_straddles_the_lambda_chunk(corpus, variant, monkeypatch, capsys):
    # JSON prints bell-toy's chunk-merged means to 12 digits; a partial last
    # chunk after full ones checks the reused buffer's short final view.
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    samples = {ns.samples for env, ns in _parsed(corpus)
               if not env and (ns.scenario, ns.mode) == variant and ns.format == "json"}
    capsys.readouterr()
    assert {CHUNK + 1, 3 * CHUNK + 5} <= samples


def _off_lattice(step: float) -> bool:
    """Whether the search takes `step` and no point of its grid is on p = 1/2."""
    try:
        grid = np.array(scenarios.closed_grid(0.0, 1.0, step))
    except ValueError:  # a grid over the cap, which the search refuses too
        return False
    return step <= 0.1 and not (np.abs(grid - 0.5) <= scenarios.FEASIBILITY_TOL).any()


def test_corpus_holds_an_off_lattice_grid_step(corpus, monkeypatch, capsys):
    # The search inserts p = 1/2 on such a grid; on the default step it is a grid point.
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    steps = {ns.grid_step for env, ns in _parsed(corpus)
             if not env and ns.scenario == "update-rule-search" and ns.grid_step is not None}
    capsys.readouterr()
    assert not _off_lattice(scenarios.DEFAULT_GRID_STEP)
    assert any(map(_off_lattice, steps))
