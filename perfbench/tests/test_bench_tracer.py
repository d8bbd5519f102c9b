"""Tracer arithmetic, and that tracing leaves the package as it found it."""

import inspect
import json

import pytest

import tracer

LAYER_MODULES = ("bellcheck", "bellcheck.clifford", "bellcheck.quantum",
                 "bellcheck.models", "bellcheck.scenarios", "bellcheck.cli")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_on_synthetic_tree():
    clock = FakeClock()
    t = tracer.Tracer("inv-1", clock=clock)

    # a (cli, 8 s) -> b (scenarios, 3 s) -> d (clifford, 1 s)
    #             -> c (clifford, 1 s)
    d = t.wrap(lambda: clock.tick(1.0), "clifford.d", "clifford")
    c = t.wrap(lambda: clock.tick(1.0), "clifford.c", "clifford")

    def b_body():
        clock.tick(1.0)
        d()
        clock.tick(1.0)

    def a_body():
        clock.tick(1.0)
        b()
        clock.tick(2.0)
        c()
        clock.tick(1.0)

    b = t.wrap(b_body, "scenarios.b", "scenarios")
    a = t.wrap(a_body, "cli.a", "cli")
    a()

    trace = t.to_dict(["run", "x"], 0)
    calls = {(c["parent"], c["name"]): (c["count"], c["total_s"], c["self_s"])
             for c in trace["calls"]}
    assert calls == {
        (None, "cli.a"): (1, 8.0, 4.0),
        ("cli.a", "scenarios.b"): (1, 3.0, 2.0),
        ("scenarios.b", "clifford.d"): (1, 1.0, 1.0),
        ("cli.a", "clifford.c"): (1, 1.0, 1.0),
    }
    assert sum(s for _, _, s in calls.values()) == 8.0

    # Only the cli and scenarios layers keep whole spans.
    spans = {s["name"]: s for s in trace["spans"]}
    assert set(spans) == {"cli.a", "scenarios.b"}
    assert spans["cli.a"]["parent"] is None
    assert spans["scenarios.b"]["parent"] == spans["cli.a"]["id"]
    assert (spans["scenarios.b"]["start"], spans["scenarios.b"]["end"]) == (1.0, 4.0)
    assert {s["invocation"] for s in trace["spans"]} == {"inv-1"}

    metrics = tracer.layer_metrics([trace, trace])
    assert metrics["clifford.self_s"]["value"] == 4.0
    assert metrics["scenarios.self_s"]["value"] == 4.0


def test_exception_still_closes_the_call():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def boom():
        clock.tick(2.0)
        raise ValueError("x")

    wrapped = t.wrap(boom, "models.boom", "models")
    with pytest.raises(ValueError):
        wrapped()
    assert t.to_dict([], 2)["calls"] == [
        {"parent": None, "name": "models.boom", "layer": "models",
         "count": 1, "total_s": 2.0, "self_s": 2.0}]


def _snapshot():
    modules = [__import__(name, fromlist=["_"]) for name in LAYER_MODULES]
    objects = {}
    for module in modules:
        for attr, obj in vars(module).items():
            objects[(module.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("bellcheck"):
                for member, value in vars(obj).items():
                    objects[(obj.__module__, obj.__name__, member)] = value
    return objects


def test_uninstall_restores_every_wrapped_name(tmp_path):
    import bellcheck.cli
    import bellcheck.models
    import bellcheck.scenarios

    before = _snapshot()
    t = tracer.Tracer("restore")
    t.install()
    try:
        # Names bound with `from .models import ...` are traced as well.
        assert bellcheck.scenarios.pair_product.__wrapped__ is before[
            ("bellcheck.models", "pair_product")]
        for argv in (["run", "epr-scan", "--format", "json"],
                     ["run", "chsh", "--samples", "10000", "--format", "json"]):
            out = tmp_path / f"{argv[1]}.json"
            assert bellcheck.cli.main(argv + ["--out", str(out)]) == 0
            json.loads(out.read_text())
    finally:
        t.uninstall()

    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert bellcheck.scenarios.pair_product is bellcheck.models.pair_product
    assert not hasattr(bellcheck.scenarios.pair_product, "__wrapped__")

    metrics = tracer.layer_metrics([t.to_dict([], 0)])
    assert metrics["clifford.products"]["value"] > 0
    assert metrics["quantum.tensor_calls"]["value"] > 0
    assert metrics["models.lambdas_drawn"]["value"] == 4 * 10000
    assert metrics["mc.samples_reported"]["value"] == 5 * 10000
    assert metrics["scenarios.points"]["value"] == 37
    assert metrics["cli.output_bytes"]["value"] == sum(
        len((tmp_path / f).read_bytes()) for f in ("epr-scan.json", "chsh.json"))
