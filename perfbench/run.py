"""Benchmark for the moduli-strata command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json`` and is the
run length of each workload, so ``--workload all`` takes three times as
long as one workload.

Each request is a fresh ``python -m moduli_strata.cli ...`` process, as a
user runs the tool, so the package's caches start cold every time.  One
driver process sends the requests one at a time (a closed loop with one
client) and repeats the workload's request list, one pass after another,
until ``--seconds`` have elapsed and at least three passes are done; the
pass in progress is always finished.
Every response is checked by ``oracle.check``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes through ``trace_worker.py`` and reports the
per-layer metrics.  A human-readable table goes to standard output, and
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

All output lands in ``.perfbench/`` under the repository root, compiled
bytecode included (``PYTHONPYCACHEPREFIX``), so a run writes nothing
under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REQUEST_TIMEOUT_S = 120.0
SETUP_PROBES = 9
SETUP_PROBES_BETWEEN = 5
IMPORTTIME_PROBES = 5
#: The tail latency is taken over this many passes, whatever the run
#: length, so that its rank lands on the same kind of request every run.
TAIL_PASSES = 3

LAYERS = ("cli", "planner", "hecke_groups", "partitions", "strata", "verify")
PACKAGE_MODULES = ("moduli_strata", "errors", "moduli", "partitions", "hecke_groups",
                   "strata", "planner", "verify", "cli")
CACHES = ("partitions.canonical_entries", "hecke_groups._best_fill")
FUNCTION_SELF = ("hecke_groups.gamma_gamma_codim", "hecke_groups.max_product_dim",
                 "hecke_groups.max_product_dim_by_pairs", "partitions.enumerate_matrix_types")
#: Counters that add up the sizes a function returns.
SIZE_COUNTERS = {
    "partitions.enumerate_matrix_types": "partitions.matrix_types",
    "partitions.enumerate_proper_partitions": "partitions.partitions_enumerated",
    "strata.strata_of_product": "strata.strata_returned",
    "strata.strata_of_shape": "strata.strata_returned",
    "strata.strata_of_unitary": "strata.strata_returned",
    "verify.run_check": "verify.cases",
}
FUNCTION_CALLS = ("hecke_groups.gamma_gamma_codim", "hecke_groups.max_product_dim",
                  "partitions.enumerate_matrix_types", "verify.run_check")


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


@dataclass
class Response:
    code: int
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The environment of every child: no inherited PYTHON* settings, the
    source tree on the path and bytecode cached under OUT."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def _drain(stream, chunks: list[bytes]) -> None:
    chunks.append(stream.read())
    stream.close()


class Spawner:
    """Runs one child at a time and reports its exit code, wall time and peak RSS."""

    def __init__(self) -> None:
        self.env = child_env()

    def run(self, cmd: list[str], timeout: float = REQUEST_TIMEOUT_S) -> Response:
        out: list[bytes] = []
        err: list[bytes] = []
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
                   threading.Thread(target=_drain, args=(proc.stderr, err))]
        for reader in readers:
            reader.start()
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        for reader in readers:
            reader.join()
        return Response(proc.returncode, wall, usage.ru_maxrss,
                        out[0].decode("utf-8", "replace"), err[0].decode("utf-8", "replace"))

    def python(self, *args: str) -> Response:
        return self.run([sys.executable, *args])


def set_up(spawner: Spawner) -> None:
    """Compile the package into OUT and warm every import path once."""
    if not (ROOT / "src" / "moduli_strata" / "cli.py").is_file():
        raise SetupError(f"no moduli_strata sources under {ROOT / 'src'}")
    res = spawner.python("-m", "compileall", "-q", str(ROOT / "src"))
    if res.code != 0:
        raise SetupError(f"compileall failed: {res.stdout}{res.stderr}")
    warm = [("-c", "pass"), ("-c", "import moduli_strata.cli"),
            ("-m", "moduli_strata.cli", "plan", "--fixed", "1", "--varying", "3"),
            ("-m", "moduli_strata.cli", "no-such-command"),
            (str(HERE / "trace_worker.py"), str(OUT / "warm.spans"), "0", "--", "kodaira", "--genus", "4", "--json")]
    for args in warm:
        res = spawner.python(*args)
        if res.code not in (0, 1) or "Traceback" in res.stderr:
            raise SetupError(f"warm-up {' '.join(args)} failed: {res.stderr.strip()}")


def setup_probes(spawner: Spawner, n: int = SETUP_PROBES) -> list[float]:
    """Wall times of fresh ``python -c "import moduli_strata.cli"`` runs."""
    return [spawner.python("-c", "import moduli_strata.cli").wall_s for _ in range(n)]


# --- passes ---------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    latencies: list[float] = field(default_factory=list)
    rss_kb: list[int] = field(default_factory=list)
    output_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def run_pass(spawner: Spawner, requests: list[oracle.Request], traced: bool) -> Pass:
    done = Pass(0.0)
    spans_file = OUT / "request.spans"
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if traced:
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "trace_worker.py"), str(spans_file), str(i), "--", *req.argv]
        else:
            cmd = [sys.executable, "-m", "moduli_strata.cli", *req.argv]
        res = spawner.run(cmd)
        done.latencies.append(res.wall_s)
        done.rss_kb.append(res.rss_kb)
        done.output_bytes += len(res.stdout.encode("utf-8"))
        reason = oracle.check(req, res.code, res.stdout, res.stderr)
        if traced and reason is None:
            try:
                trace = json.loads(spans_file.read_text(encoding="utf-8"))
                trace["wall_s"] = res.wall_s
                done.traces.append(trace)
            except (OSError, json.JSONDecodeError) as exc:
                reason = f"no trace: {exc}"
        if reason is not None:
            done.failures.append(f"{' '.join(req.argv)}: {reason}")
    done.wall_s = time.perf_counter() - start
    return done


def run_passes(spawner: Spawner, requests: list[oracle.Request], seconds: float, modes: tuple[bool, ...],
               setup: list[float]) -> list[tuple[bool, Pass]]:
    """Cycle through ``modes`` (traced or not) one pass at a time until
    ``seconds`` are up, running every mode at least TAIL_PASSES times.
    Set-up probes run between passes too, so that ``setup`` samples the
    whole run."""
    start = time.perf_counter()
    passes: list[tuple[bool, Pass]] = []
    while True:
        for traced in modes:
            passes.append((traced, run_pass(spawner, requests, traced)))
            setup.extend(setup_probes(spawner, SETUP_PROBES_BETWEEN))
        if len(passes) >= TAIL_PASSES * len(modes) and time.perf_counter() - start >= seconds:
            return passes


# --- end-to-end metrics ---------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    """The host's speed drifts by tens of percent within a minute.  A
    pass's wall time is therefore the sum of each request's fastest
    repetition in the run (min-of-N), and ``setup_s`` the fastest of the
    import probes spread through the run.  The median latency is taken over
    every request of the run: with three or four passes that is steadier
    than the median of three- or four-fold minima.  The tail needs every
    sample of the first TAIL_PASSES passes."""
    latencies = [x for p in passes for x in p.latencies]
    fastest = [min(reps) for reps in zip(*(p.latencies for p in passes))]
    failed = sum(len(p.failures) for p in passes)
    value, pct, n = tail([x for p in passes[:TAIL_PASSES] for x in p.latencies])
    metrics = {
        "wall_s": (sum(fastest), "s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(x for p in passes for x in p.rss_kb) / 1024, "MB"),
    }
    notes = [
        f"latency_tail_ms is p{pct:.1f} of {n} requests ({TAIL_PASSES} of {len(passes)} passes of {len(passes[0].latencies)})",
        f"failed_frac = {failed}/{len(latencies)} = {failed / len(latencies):.4f}",
        "pass wall_s (measured): " + ", ".join(f"{p.wall_s:.3f}" for p in passes),
    ]
    return metrics, notes


# --- per-layer metrics ----------------------------------------------------


def layer_pass(done: Pass) -> tuple[dict[str, float], dict[str, int]]:
    """(times, counts) for one traced pass.

    A span's self time is its duration minus that of its child spans.  A
    layer's calls are the spans entered from another layer.  A size counter
    adds up the lengths its functions return, once per outermost call.
    """
    self_s = dict.fromkeys(LAYERS + FUNCTION_SELF, 0.0)
    counts = {"cli.output_bytes": done.output_bytes}
    counts.update((f"{name}.calls", 0) for name in LAYERS + FUNCTION_CALLS)
    counts.update(dict.fromkeys(SIZE_COUNTERS.values(), 0))
    caches = {name: [0, 0] for name in CACHES}
    after_startup = 0.0
    entries_peak = 0
    for trace in done.traces:
        spans = trace["spans"]
        own = [end - start for _, _, start, end, _, _ in spans]
        for _, _, start, end, parent, _ in spans:
            if parent is None:
                after_startup += end - start
            else:
                own[parent] -= end - start
        for (name, layer, _, _, parent, size), seconds in zip(spans, own):
            caller = spans[parent][0] if parent is not None else ""
            self_s[layer] += seconds
            if name in self_s:
                self_s[name] += seconds
            if name in FUNCTION_CALLS:
                counts[f"{name}.calls"] += 1
            if not caller.startswith(layer + "."):
                counts[f"{layer}.calls"] += 1
            counter = SIZE_COUNTERS.get(name)
            if counter and SIZE_COUNTERS.get(caller) != counter:
                counts[counter] += size
        for name, (hits, misses, _) in trace["caches"].items():
            if name in caches:
                caches[name][0] += hits
                caches[name][1] += misses
        entries_peak = max(entries_peak, sum(size for _, _, size in trace["caches"].values()))
    total_wall = sum(t["wall_s"] for t in done.traces)
    times = {f"{name}.self_ms": 1000 * s for name, s in self_s.items()}
    times.update((f"share.{layer}", self_s[layer] / after_startup) for layer in LAYERS)
    times["share.startup"] = (total_wall - after_startup) / total_wall
    for name, (hits, misses) in caches.items():
        counts[f"cache.{name}.hits"] = hits
        counts[f"cache.{name}.misses"] = misses
        times[f"cache.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counts["cache.entries"] = entries_peak
    times["trace.wall_s"] = done.wall_s
    return times, counts


def importtime_self_ms(spawner: Spawner) -> dict[str, float]:
    """Median per-module import self time from ``-X importtime``."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_PROBES):
        res = spawner.python("-X", "importtime", "-c", "import moduli_strata.cli")
        for line in res.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("moduli_strata"):
                name = parts[2].rsplit(".", 1)[-1]
                samples.setdefault(name, []).append(int(parts[0].split(":")[1]) / 1000)
    return {k: statistics.median(v) for k, v in samples.items()}


def startup_split(spawner: Spawner) -> dict[str, float]:
    interpreter = statistics.median(spawner.python("-c", "pass").wall_s for _ in range(SETUP_PROBES))
    code = "import time; t = time.perf_counter(); import moduli_strata.cli; print(time.perf_counter() - t)"
    imports = [float(spawner.python("-c", code).stdout) for _ in range(SETUP_PROBES)]
    out = {"startup.interpreter_ms": 1000 * interpreter, "startup.import_ms": 1000 * statistics.median(imports)}
    per_module = importtime_self_ms(spawner)
    for name in PACKAGE_MODULES:
        out[f"startup.import_self_ms.{name}"] = per_module.get(name, 0.0)
    return out


def check_prediction(workload: str, shares: dict[str, float], startup: float) -> tuple[bool, str, str]:
    """Whether the layer that ``metric_map.json`` predicts takes the largest share.

    A combined prediction adds the listed shares of the whole request time
    (start-up included); otherwise the leader after start-up must be listed.
    """
    rule = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))["largest_share"][workload]
    if rule["combined"]:
        whole = {layer: share * (1 - startup) for layer, share in shares.items()}
        whole["startup"] = startup
        mine = sum(whole.pop(layer) for layer in rule["layers"])
        leader = max(whole, key=whole.get)
        return mine >= whole[leader], leader, " plus ".join(rule["layers"])
    leader = max(shares, key=shares.get)
    return leader in rule["layers"], leader, " or ".join(rule["layers"]) + " (after start-up)"


def per_layer(spawner: Spawner, plain: list[Pass], traced: list[Pass], workload: str) -> tuple[dict, list[str], bool]:
    split = startup_split(spawner)
    per_pass = [layer_pass(p) for p in traced]
    counts = per_pass[0][1]
    repeat = all(c == counts for _, c in per_pass[1:])
    metrics: dict[str, tuple[float, str]] = {k: (v, "ms") for k, v in split.items()}
    for name in per_pass[0][0]:
        unit = "ms" if name.endswith("_ms") else ("s" if name.endswith("_s") else "fraction")
        metrics[name] = (statistics.median(t[name] for t, _ in per_pass), unit)
    for name, value in counts.items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    untraced = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_frac"] = (metrics.pop("trace.wall_s")[0] / untraced - 1, "fraction")
    shares = {layer: metrics[f"share.{layer}"][0] for layer in LAYERS}
    met, leader, text = check_prediction(workload, shares, metrics["share.startup"][0])
    notes = ["share of the time after start-up (start-up is "
             f"{100 * metrics['share.startup'][0]:.1f}% of traced request time): "
             + ", ".join(f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
             f"prediction: largest share is {text}: {'met' if met else 'NOT MET, largest is ' + leader}",
             f"counts repeat across {len(per_pass)} traced passes: {'yes' if repeat else 'NO'}"]
    return metrics, notes, repeat


# --- driver ---------------------------------------------------------------


def run_workload(spawner: Spawner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = workloads.requests_for(workload, seed)
    setup = setup_probes(spawner)
    modes = (False, True) if trace else (False,)
    passes = run_passes(spawner, requests, seconds, modes, setup)
    setup_s = min(setup)
    plain = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    attempted = sum(len(p.latencies) for _, p in passes)
    failures = [f for _, p in passes for f in p.failures]
    if trace:
        metrics, notes, correct = per_layer(spawner, plain, traced, workload)
    else:
        metrics, notes = end_to_end(plain, setup_s)
        correct = True
    correct = correct and not failures
    raw = {"workload": workload, "seed": seed, "trace": trace, "requests": [list(r.argv) for r in requests],
           "passes": [{"traced": t, "wall_s": p.wall_s, "latencies": p.latencies} for t, p in passes],
           "setup_s": setup, "failures": failures}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(raw), encoding="utf-8")
    print(f"== {workload} (seed {seed}, {len(requests)} requests per pass)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:14.4f} {unit}")
    for note in notes + [f"FAILED {f}" for f in failures[:20]]:
        print(f"  {note}")
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    spawner = Spawner()
    try:
        set_up(spawner)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    results = {name: run_workload(spawner, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
