"""Per-layer tracing of bellcheck from outside the package.

The layers are the package's modules: clifford, quantum, models, scenarios
and cli.  `Tracer.install()` replaces every public function of those
modules, the public methods, arithmetic operators and `__post_init__` of
their public classes, and every name another module bound with
`from .x import y`, by a timing wrapper.  `Tracer.uninstall()` puts each
original object back.

Trace schema (``SCHEMA``), shared by the benchmark's result files so that a
later in-program trace can emit the same records unchanged:

    {"schema": "bellcheck-trace/1",
     "invocation": str,               # one process run of `bellcheck run`
     "argv": [str, ...],
     "exit_code": int,
     "spans": [{"id": int, "name": str, "layer": str,
                "start": float, "end": float,       # perf_counter seconds
                "parent": int | null, "invocation": str}],
     "calls": [{"parent": str | null, "name": str, "layer": str,
                "count": int, "total_s": float, "self_s": float}],
     "counters": {str: int}}

Spans are kept for the cli and scenarios layers, which run a few times per
invocation.  Kernel, oracle and model calls run hundreds of thousands of
times, so for them (and for every call) only the per-(parent, function)
aggregate in "calls" is kept.  A call's self time is its duration minus the
durations of the traced calls made directly inside it.  Metrics use the
benchmark's own shape: {name: {"value": number, "unit": str}}.

Run as a script, the module is the traced entry point for one invocation:

    python perfbench/tracer.py TRACE_OUT INVOCATION_ID -- run epr-scan ...

It installs the tracer, calls `bellcheck.cli.main(argv)`, uninstalls, writes
the trace to TRACE_OUT and exits with main's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable

SCHEMA = "bellcheck-trace/1"

LAYERS = ("clifford", "quantum", "models", "scenarios", "cli")
SPANNED_LAYERS = ("scenarios", "cli")

# Class members wrapped besides public names: the operators the kernel is
# used through and the constructor hook that counts Multivector instances.
EXTRA_METHODS = ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__")

PRODUCTS = ("clifford.geometric_product", "clifford.dot", "clifford.wedge")
MULTIVECTOR_INIT = "clifford.Multivector.__post_init__"
TENSOR = "quantum.tensor"
READINGS = ("models.observable_value", "models.meter_outcome",
            "models.effective_outcome", "models.bell_observable")
SAMPLERS = ("models.random_unit_vectors", "models.hemisphere_samples",
            "models.hemisphere_update", "models.apply_update")
PARSE = "cli.parse_args"
EMIT = "cli.emit_report"
RUN_SCENARIO = "cli.run_scenario"
LAMBDA_SOURCE = "models.random_unit_vectors"


def _count_lambdas(tracer: "Tracer", result, args) -> None:
    tracer.counters["lambdas_drawn"] += int(result.shape[0])


def _count_report(tracer: "Tracer", report, args) -> None:
    groups = set()
    entries = 0
    for table in (report.exact_results, report.mc_results,
                  report.qm_reference, report.verdicts):
        entries += len(table)
        groups.update(key.split(":", 1)[0] for key in table if ":" in key)
    tracer.counters["points"] += len(groups)
    tracer.counters["entries"] += entries
    tracer.counters["samples_reported"] += sum(
        int(m.samples) for m in report.mc_results.values())


def _count_output(tracer: "Tracer", text, args) -> None:
    tracer.counters["output_bytes"] += len(text.encode("utf-8"))


ON_RETURN: dict[str, Callable] = {
    LAMBDA_SOURCE: _count_lambdas,
    RUN_SCENARIO: _count_report,
    EMIT: _count_output,
}

COUNTERS = ("lambdas_drawn", "points", "entries", "samples_reported",
            "output_bytes")


class Tracer:
    """Collects spans, per-(parent, function) call aggregates and counters.

    `clock` is injectable so that the self-time arithmetic can be checked on
    a synthetic call tree.
    """

    def __init__(self, invocation: str = "0",
                 clock: Callable[[], float] = time.perf_counter):
        self.invocation = invocation
        self.clock = clock
        self.spans: list[dict] = []
        self.calls: dict[tuple, list] = {}
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []
        self._next_span = 0
        self._replaced: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """Return `fn` wrapped so each call is timed and aggregated."""
        stack = self._stack
        calls = self.calls
        clock = self.clock
        spanned = layer in SPANNED_LAYERS
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: [name, time spent in traced children, span id]
            frame = [name, 0.0, None]
            if spanned:
                frame[2] = self._next_span
                self._next_span += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (parent[0] if parent else None, name, layer)
                record = calls.get(key)
                if record is None:
                    record = calls[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if spanned:
                    self.spans.append({
                        "id": frame[2], "name": name, "layer": layer,
                        "start": start, "end": end,
                        "parent": parent[2] if parent else None,
                        "invocation": self.invocation,
                    })
            if on_return is not None:
                on_return(self, result, args)
            return result

        return traced

    # -- installing wrappers -----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of every layer, and every alias of them."""
        package = importlib.import_module("bellcheck")
        modules = {layer: importlib.import_module(f"bellcheck.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(obj, f"{layer}.{attr}", layer)
                    wrapped[id(obj)] = wrapper
                    self._set(module, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # Re-bind names imported with `from .x import y` in other layers and
        # in the package namespace.
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(module, attr, wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in EXTRA_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(member.__func__, name, layer)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self.wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(member, name, layer))

    def uninstall(self) -> None:
        """Put back every object `install` replaced, newest first."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def to_dict(self, argv: list[str], exit_code: int) -> dict:
        return {
            "schema": SCHEMA,
            "invocation": self.invocation,
            "argv": list(argv),
            "exit_code": exit_code,
            "spans": sorted(self.spans, key=lambda s: s["id"]),
            "calls": [
                {"parent": parent, "name": name, "layer": layer,
                 "count": count, "total_s": total, "self_s": self_s}
                for (parent, name, layer), (count, total, self_s) in sorted(
                    self.calls.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# per-layer metrics from traces
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def self_by_layer(traces: list[dict]) -> dict[str, float]:
    """Self seconds per layer, summed over the traces."""
    layers = {layer: 0.0 for layer in LAYERS}
    for trace in traces:
        for call in trace["calls"]:
            layers[call["layer"]] += call["self_s"]
    return layers


def layer_metrics(traces: list[dict]) -> dict[str, dict]:
    """Sum the traces of one pass into the benchmark's per-layer metrics."""
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    counters = {name: 0 for name in COUNTERS}
    for trace in traces:
        for call in trace["calls"]:
            name = call["name"]
            count[name] = count.get(name, 0) + call["count"]
            total[name] = total.get(name, 0.0) + call["total_s"]
            self_by_name[name] = self_by_name.get(name, 0.0) + call["self_s"]
        for name, value in trace["counters"].items():
            counters[name] += value
    layers = self_by_layer(traces)

    def counts(names) -> int:
        return sum(count.get(n, 0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    products = counts(PRODUCTS)
    sampler_s = sum(self_by_name.get(n, 0.0) for n in SAMPLERS)
    emit_s = total.get(EMIT, 0.0)
    lambdas = counters["lambdas_drawn"]
    return {
        "clifford.self_s": metric(layers["clifford"], "s"),
        "clifford.products": metric(products, "count"),
        "clifford.multivectors": metric(count.get(MULTIVECTOR_INIT, 0), "count"),
        "clifford.us_per_product": metric(
            1e6 * ratio(sum(total.get(n, 0.0) for n in PRODUCTS), products), "us"),
        "quantum.self_s": metric(layers["quantum"], "s"),
        "quantum.calls": metric(
            sum(c for n, c in count.items() if n.startswith("quantum.")), "count"),
        "quantum.tensor_calls": metric(count.get(TENSOR, 0), "count"),
        "models.self_s": metric(layers["models"] - sampler_s, "s"),
        "models.readings": metric(counts(READINGS), "count"),
        "models.sampler_s": metric(sampler_s, "s"),
        "models.lambdas_drawn": metric(lambdas, "count"),
        "models.lambdas_per_s": metric(ratio(lambdas, sampler_s), "1/s"),
        "mc.samples_reported": metric(counters["samples_reported"], "count"),
        # Several estimates share one batch of draws (chsh also reports the
        # combined S over its four batches), so the yield can exceed 1.
        "mc.yield": metric(ratio(counters["samples_reported"], lambdas), "ratio"),
        "scenarios.self_s": metric(layers["scenarios"], "s"),
        "scenarios.points": metric(counters["points"], "count"),
        "scenarios.entries": metric(counters["entries"], "count"),
        "cli.parse_s": metric(total.get(PARSE, 0.0), "s"),
        "cli.emit_s": metric(emit_s, "s"),
        "cli.output_bytes": metric(counters["output_bytes"], "bytes"),
        "cli.emit_mb_per_s": metric(ratio(counters["output_bytes"] / 1e6, emit_s), "MB/s"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT INVOCATION_ID -- BELLCHECK_ARGS...",
              file=sys.stderr)
        return 2
    out_path, invocation, cli_argv = argv[0], argv[1], argv[3:]
    import bellcheck.cli

    tracer = Tracer(invocation)
    tracer.install()
    try:
        exit_code = bellcheck.cli.main(cli_argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_dict(cli_argv, exit_code), handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
