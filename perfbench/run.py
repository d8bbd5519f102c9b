"""Layered benchmark for `bellcheck run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` through PYTHONPATH, with no build step.  One client runs
`python -m bellcheck.cli run ...` child processes one at a time (a closed
loop), passing `--seed N` through to every invocation.  The environment is
inherited unchanged apart from PYTHONPATH: no CPU pinning, no cache
dropping, no thread-count override.

--trace 0 repeats the workload's pass of invocations until the next pass
would end after S seconds and reports the end-to-end metrics: medians over
passes of the pass wall time and CPU time (from `os.wait4` rusage), the
highest peak RSS of any invocation, and the median wall time of a child
that only imports `bellcheck.cli` (setup_s).

--trace 1 runs one untraced pass and one traced pass, in which each
invocation runs under `perfbench/tracer.py`, and reports per-layer metrics
from the traces, the import-time split and the tracing overhead.

Every invocation must exit 0, produce output that passes its workload's
check and repeat byte-identically within the run; misses count as failed.
The last stdout line is the result object; a detailed record, including
provenance, is printed before it and written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

SETUP_RUNS = 9          # at least this many setup samples per run
SETUP_PER_PASS = 2      # taken before each pass, so they share its conditions
IMPORTTIME_RUNS = 5
INVOCATION_TIMEOUT_S = 120.0
SUITE_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
POLICY = ("closed loop, one client, one child process at a time; acts only on "
          "its own processes: no CPU pinning, no cache dropping, no thread-count "
          "override (environment inherited, PYTHONPATH=src prepended)")

PROVENANCE_CODE = """
import json, sys
import numpy
import bellcheck.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception as exc:
    blas = {"unavailable": repr(exc)}
print(json.dumps({"python": sys.version, "numpy": numpy.__version__,
                  "blas": blas, "bellcheck_file": bellcheck.cli.__file__}))
"""


class Child:
    """Runs child processes with the program on PYTHONPATH and times them."""

    def __init__(self, scratch: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.out_path = os.path.join(scratch, "stdout")
        self.err_path = os.path.join(scratch, "stderr")

    def run(self, cmd: list[str], timeout: float = INVOCATION_TIMEOUT_S) -> dict:
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out_path, "rb") as out, open(self.err_path, "rb") as err:
            stdout, stderr = out.read(), err.read()
        return {"exit_code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}

    def python(self, *args: str, timeout: float = INVOCATION_TIMEOUT_S) -> dict:
        return self.run([sys.executable, *args], timeout)


def explain_failure(argv: list[str]) -> list[str]:
    """Names of the gated verdicts that differ, from an in-process rerun."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bellcheck.cli as cli

    try:
        report = cli.run_scenario(cli.parse_args(argv))
    except (SystemExit, ValueError) as exc:
        return [f"rerun failed: {exc!r}"]
    expected = report.expected or {name: True for name in report.verdicts}
    return sorted(name for name, want in expected.items()
                  if report.verdicts.get(name) != want)


def run_pass(child: Child, workload: Workload, seed: int, ledger: checks.Ledger,
             traced: bool = False, trace_dir: str = "") -> list[dict]:
    records = []
    for index, inv in enumerate(workload.invocations):
        argv = inv.argv(seed)
        if traced:
            trace_path = os.path.join(trace_dir, f"{index}.json")
            invocation_id = f"{workload.name}/{inv.label}"
            result = child.python(os.path.join(BENCH_DIR, "tracer.py"),
                                  trace_path, invocation_id, "--", *argv)
        else:
            result = child.python("-m", "bellcheck.cli", *argv)
        ok = ledger.judge(inv.label, argv, inv.check(seed), result["exit_code"],
                          result["stdout"], result["stderr"])
        record = {key: result[key] for key in ("exit_code", "wall_s", "cpu_s", "maxrss_mb")}
        record.update(label=inv.label, ok=ok, points=inv.points, samples=inv.samples)
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as handle:
                record["trace"] = json.load(handle)
        elif traced:  # the child died before writing its trace; already failed
            record["trace"] = tracer.Tracer(invocation_id).to_dict(argv, result["exit_code"])
        records.append(record)
    return records


def measure_setup(child: Child, walls: list[float], runs: int) -> None:
    """Append the wall times of `runs` children that only import the CLI."""
    for _ in range(runs):
        result = child.python("-c", "import bellcheck.cli")
        if result["exit_code"] != 0:
            raise RuntimeError(f"import bellcheck.cli failed: {result['stderr'][-500:]!r}")
        walls.append(result["wall_s"])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy and of bellcheck without numpy."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        except ValueError:
            continue  # the header line
    numpy_s = cumulative.get("numpy", 0.0)
    return {"numpy_s": numpy_s, "bellcheck_s": cumulative["bellcheck.cli"] - numpy_s}


def import_split(child: Child) -> dict[str, float]:
    splits = []
    for _ in range(IMPORTTIME_RUNS):
        result = child.python("-X", "importtime", "-c", "import bellcheck.cli")
        splits.append(parse_importtime(result["stderr"].decode("utf-8", "replace")))
    return {key: statistics.median(s[key] for s in splits) for key in splits[0]}


def git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def src_line_counts() -> dict[str, int]:
    package = os.path.join(SRC, "bellcheck")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                counts[name] = sum(1 for _ in handle)
    counts["total"] = sum(counts.values())
    return counts


def provenance(child: Child) -> dict:
    result = child.python("-c", PROVENANCE_CODE)
    if result["exit_code"] != 0:
        raise RuntimeError(f"provenance probe failed: {result['stderr'][-500:]!r}")
    info = json.loads(result["stdout"])
    imported = os.path.realpath(info.pop("bellcheck_file"))
    if not imported.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"bellcheck imported from {imported}, not from {SRC}")
    info.update({
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": src_line_counts(),
        "policy": POLICY,
    })
    return info


def tier1_suite(child: Child) -> dict:
    """Tier-1 test suite wall time; informational, never gates the run."""
    result = child.python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", "tests",
                          timeout=SUITE_TIMEOUT_S)
    lines = result["stdout"].decode("utf-8", "replace").strip().splitlines()
    return {"wall_s": result["wall_s"], "exit_code": result["exit_code"],
            "summary": lines[-1] if lines else ""}


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "level_pct": 100.0 * (n - 10) / n, "n": n}


def end_to_end(passes: list[list[dict]], setup_walls: list[float]) -> tuple[dict, dict]:
    """BENCHMARK.json end-to-end metrics, plus the per-workload extras."""
    pass_walls = [sum(r["wall_s"] for r in p) for p in passes]
    pass_cpus = [sum(r["cpu_s"] for r in p) for p in passes]
    invocations = [r for p in passes for r in p]
    metrics = {
        "wall_s": tracer.metric(statistics.median(pass_walls), "s"),
        "setup_s": tracer.metric(statistics.median(setup_walls), "s"),
        "cpu_s": tracer.metric(statistics.median(pass_cpus), "s"),
        "peak_rss_mb": tracer.metric(max(r["maxrss_mb"] for r in invocations), "MB"),
    }
    points = sum(r["points"] for r in passes[0])
    samples = sum(r["samples"] for r in passes[0])
    walls = [r["wall_s"] for r in invocations]
    extras = {
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "pass_cpu_s": pass_cpus,
        "setup_wall_s": setup_walls,
        "invocation_p50_s": tracer.metric(statistics.median(walls), "s"),
        "invocation_tail_s": tail(walls),
        "invocations_per_pass": len(passes[0]),
    }
    if points:
        extras["points_per_s"] = tracer.metric(
            statistics.median(points / w for w in pass_walls), "1/s")
    if samples:
        extras["samples_per_s"] = tracer.metric(
            statistics.median(samples / w for w in pass_walls), "1/s")
    per_invocation = {}
    for label in (r["label"] for r in passes[0]):
        mine = [r for r in invocations if r["label"] == label]
        per_invocation[label] = {
            "wall_s": statistics.median(r["wall_s"] for r in mine),
            "cpu_s": statistics.median(r["cpu_s"] for r in mine),
            "maxrss_mb": max(r["maxrss_mb"] for r in mine),
        }
    extras["per_invocation"] = per_invocation
    return metrics, extras


def confirm_choice(workload: str, traces: list[dict], metrics: dict,
                   extras: dict) -> dict:
    """Does the traced pass show the layer the workload was chosen for?"""
    layers = tracer.self_by_layer(traces)
    total = sum(layers.values())
    if workload == "exact-grid":
        claim, share = "clifford+quantum share of layer self time", (
            layers["clifford"] + layers["quantum"]) / total
    elif workload == "monte-carlo":
        claim, share = "models.sampler_s share of layer self time", (
            metrics["models.sampler_s"]["value"] / total)
    elif workload == "report-heavy":
        # cli.emit_s already holds the scenarios time spent in to_json, so
        # the two layers' self times are added instead.
        claim, share = "cli+scenarios share of layer self time", (
            layers["cli"] + layers["scenarios"]) / total
    else:
        claim, share = "setup_s / invocation_p50_s", (
            statistics.median(extras["setup_wall_s"])
            / extras["invocation_p50_s"]["value"])
    return {"claim": claim, "share": share, "holds": share > 0.5,
            "layer_self_s": layers}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "bellcheck", "cli.py")):
        print(f"perfbench: no bellcheck sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        child = Child(scratch)
        ledger = checks.Ledger(explain_failure)
        info = provenance(child)
        setup_walls: list[float] = []
        detail: dict = {"workload": workload.name,
                        "seed": args.seed, "trace": args.trace, "provenance": info}
        if args.trace:
            measure_setup(child, setup_walls, SETUP_RUNS)
            untraced = run_pass(child, workload, args.seed, ledger)
            traced = run_pass(child, workload, args.seed, ledger,
                              traced=True, trace_dir=scratch)
            traces = [r.pop("trace") for r in traced]
            metrics = tracer.layer_metrics(traces)
            split = import_split(child)
            metrics["setup.numpy_s"] = tracer.metric(split["numpy_s"], "s")
            metrics["setup.bellcheck_s"] = tracer.metric(split["bellcheck_s"], "s")
            overhead = (sum(r["wall_s"] for r in traced)
                        - sum(r["wall_s"] for r in untraced))
            metrics["trace.overhead_s"] = tracer.metric(overhead, "s")
            _, extras = end_to_end([untraced], setup_walls)
            extras["traced_pass"] = traced
            extras["workload_choice"] = confirm_choice(workload.name, traces,
                                                       metrics, extras)
            info["tier1_suite"] = tier1_suite(child)
            detail["traces"] = traces
        else:
            passes = []
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                measure_setup(child, setup_walls, SETUP_PER_PASS)
                passes.append(run_pass(child, workload, args.seed, ledger))
                now = time.perf_counter()
                if now - start + (now - pass_start) > args.seconds:
                    break
            measure_setup(child, setup_walls, max(0, SETUP_RUNS - len(setup_walls)))
            metrics, extras = end_to_end(passes, setup_walls)
        extras["failed_ratio"] = {
            "value": ledger.failed / ledger.attempted,
            "failed": ledger.failed, "attempted": ledger.attempted}
        detail.update(extras=extras, sha256=ledger.sha256, failures=ledger.failures,
                      metrics=metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out_name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, out_name), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    summary = {k: v for k, v in detail.items() if k != "traces"}
    print(json.dumps(summary, indent=1))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
