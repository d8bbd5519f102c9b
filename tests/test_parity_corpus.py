"""tools/parity_corpus.txt names every registry variant in every format and
the three seeded Monte Carlo false alarms.  The parity tool itself is not run
here: it starts two processes per line."""

import importlib.util
import os

import pytest

from bellcheck import cli

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("parity", os.path.join(TOOLS, "parity.py"))
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

FALSE_ALARMS = (
    "bell-toy --samples 10000 --seed 2",
    "chsh --samples 10000 --seed 123",
    "sequential --mode bell-hemisphere --samples 1000000 --seed 17",
)


@pytest.fixture(scope="module")
def corpus():
    return parity.read_corpus()


def test_corpus_runs_every_variant_in_every_format(corpus, monkeypatch, capsys):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    covered = set()
    for env, args in corpus:
        try:
            ns = cli.parse_args(["run", *args])
        except SystemExit:
            continue  # a usage refusal, which the corpus holds on purpose
        covered.add((ns.scenario, ns.mode, ns.format))
    capsys.readouterr()
    assert covered >= {(*variant, fmt) for variant in cli.REGISTRY for fmt in cli.FORMATS}
    assert len(corpus) >= 100


@pytest.mark.parametrize("alarm", FALSE_ALARMS)
def test_corpus_holds_each_false_alarm(corpus, alarm):
    assert any(not env and " ".join(args).startswith(alarm) for env, args in corpus)
