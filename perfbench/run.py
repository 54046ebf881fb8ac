"""wignerlab benchmark: one workload per run, checked, every metric by name and unit.

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the operations run untraced for ``--seconds``
and the last stdout line carries the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the run first repeats that untraced window, then runs the
same window with spans around every call into wignerlab and reports the
per-layer metrics, the tracing overhead among them.  ``--smoke`` runs every
workload at a tiny size in both modes and checks the reports against
BENCHMARK.json and predictions.json.  Workloads, metrics and the prediction
table are described in README.md.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads; pool workers and
# subprocesses inherit it, so two QR workers do not oversubscribe two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 7
CHUNK_REPS = 3
#: Length of the smoke-size window that measures layers a workload never reaches.
PROBE_SECONDS = 2.0
#: Length of the phase that times the checks' oracle points after the window.
ORACLE_SECONDS = 3.0
IMPORT_MODULES = ("kernels", "sampling", "montecarlo", "oracles", "cli")

# The program comes from this checkout's src/ and nowhere else.
if not (SRC / "wignerlab" / "__init__.py").is_file():
    sys.exit(f"error: no wignerlab sources under {SRC}")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import wignerlab.cli  # noqa: E402
import wignerlab.montecarlo  # noqa: E402
from wignerlab import CHUNK, haar_batch, row_energies_batch  # noqa: E402

from tracing import OFF, Tracer  # noqa: E402
from workloads import LIMIT, WORKERS, WORKLOADS, Checks, Ctx, oracle_point  # noqa: E402

if SRC not in Path(wignerlab.__file__).resolve().parents:
    sys.exit(f"error: imported wignerlab from {wignerlab.__file__}, not {SRC}")


def machine_record(workers: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "pool_workers": workers}


def measure_setup(checks, reps: int, importtime: bool):
    """Cold start: a fresh interpreter runs `python -m wignerlab oracle --limit`.

    Returns the wall times and, with ``importtime``, each wignerlab module's
    cumulative import time per rep from ``python -X importtime``.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-m", "wignerlab", "oracle", "--limit"]
    times, imports = [], {m: [] for m in IMPORT_MODULES}
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        try:  # CSV: a header, then "value,method,estimated_abs_error"
            ok = proc.returncode == 0 and abs(float(proc.stdout.splitlines()[1].split(",")[0]) - LIMIT) <= 1e-15
        except (IndexError, ValueError):
            ok = False
        problems = [] if ok else [("setup", f"exit {proc.returncode}, stdout {proc.stdout!r}")]
        checks.record("setup", "python -m wignerlab oracle --limit", 0, problems)
        for line in proc.stderr.splitlines():  # "import time: self | cumulative | name"
            parts = line.split("|")
            package, _, module = parts[-1].strip().partition(".")
            if package == "wignerlab" and module in imports:
                imports[module].append(int(parts[1]) * 1e-6)
    return times, imports


def window(wl, ctx, seconds: float):
    """Closed loop: issue operations back to back until ``seconds`` have passed.

    Returns the number of operations and the first operation's points;
    checking runs between operations, outside the timed calls.
    """
    count, first = 0, None
    start = time.perf_counter()
    while not count or time.perf_counter() - start < seconds:
        count += 1
        with ctx.tracer.span("op"):
            try:
                points = wl.run_op(ctx)
            except Exception as exc:  # the program failed this operation
                ctx.checks.record("operation", wl.name, 0, [("error", repr(exc))])
                continue
        with ctx.tracer.span("check"):
            wl.verify(ctx, points, first)
        if first is None:
            first = points
    return count, first or []


def oracle_phase(wl, ctx, points) -> None:
    """Evaluate the checks' oracle points back to back for ORACLE_SECONDS.

    On the sampling workloads the checks alone evaluate each point a few
    times, in bursts between operations; a burst can fall wholly inside a
    slow spell of the host.  This phase gives each point's fastest call many
    more chances.  Every call is checked like the others.
    """
    inputs = wl.oracle_inputs(points)
    start = time.perf_counter()
    while inputs and time.perf_counter() - start < ORACLE_SECONDS:
        for args in inputs:
            oracle_point(ctx, *args)


def op_seconds(ctx) -> float:
    """One operation's time, assembled from each of its calls' fastest time."""
    return sum(ctx.step_best.values())


def check_determinism(wl, ctx, points) -> None:
    """Counts at workers=1 must equal the pooled counts (the determinism contract)."""
    for p in points:
        with ctx.tracer.span("montecarlo.estimate_1w"):
            negatives = wl.serial_negatives(p)
        problems = [] if negatives == p.negatives else [
            ("determinism", f"workers=1 gives {negatives}, workers={WORKERS} gave {p.negatives}")]
        ctx.checks.record("determinism", p.label, p.n, problems)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def untraced(wl, checks, seconds: float, setup_reps: int) -> dict:
    setup, _ = measure_setup(checks, (setup_reps + 1) // 2, importtime=False)
    ctx = Ctx(OFF, checks)
    ops, first = window(wl, ctx, seconds)
    # the other cold starts come after the window, so they see another spell of machine load
    setup += measure_setup(checks, setup_reps // 2, importtime=False)[0]
    print_fingerprint(wl, first)
    check_determinism(wl, ctx, first[:1])
    oracle_phase(wl, ctx, first)
    ctx.record_oracle_checks()
    if not ctx.step_best:
        print_failures(checks, "failed")
        sys.exit("error: no operation completed")
    lat_ms = [s * 1e3 for s in ctx.oracle_best.values()]
    print(f"samples: {ops} operations of {len(ctx.step_best)} timed calls; {len(lat_ms)} oracle "
          f"points, {ctx.oracle_calls} oracle calls; {len(setup)} cold starts")
    wall = op_seconds(ctx)
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (wl.op_trials(first) / wall, "1/s"),
        "oracle_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "oracle_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_frac": (1.0 - len(checks.failures) / checks.attempted, "ratio"),
    }


def chunk_seconds(fn, n: int) -> float:
    """Median time of one CHUNK-sized draw at dimension ``n``."""
    rng = np.random.default_rng(n)
    times = []
    for _ in range(CHUNK_REPS):
        start = time.perf_counter()
        fn(CHUNK, n, rng)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_layers(wl, checks, seconds: float):
    """Run one traced window and derive the per-layer metrics from its spans.

    Time metrics are per operation unless they are per call (``_ms``).  A
    metric is None when the workload never reaches that layer.
    """
    tracer = Tracer()
    # calls the program makes internally, which the benchmark cannot wrap at the call site
    tracer.wrap(wignerlab.montecarlo, "estimate_global", "montecarlo.estimate")
    tracer.wrap(wignerlab.montecarlo, "two_block_spectrum", "kernels.build")
    tracer.wrap(wignerlab.montecarlo, "random_spectrum", "kernels.build")
    tracer.wrap(wignerlab.cli, "run_sweep", "montecarlo.sweep")
    tracer.wrap(wignerlab.cli, "two_block_exact", "oracles.beta")
    tracer.wrap(wignerlab.cli, "cf_inversion_exact", "oracles.cf")
    ctx = Ctx(tracer, checks)
    try:
        count, first = window(wl, ctx, seconds)
        # a chunk draw is timed right after the first serial estimate at its N,
        # so draw_share compares times taken under the same machine load
        draw_fn = {"gamma": row_energies_batch, "haar": haar_batch}.get(wl.sampler)
        draw = {}
        for p in first:
            check_determinism(wl, ctx, [p])
            if draw_fn and p.n not in draw:
                draw[p.n] = chunk_seconds(draw_fn, p.n)
        ctx.record_oracle_checks()
    finally:
        tracer.unwrap_all()

    def per_op(name: str, self_time: bool = False):
        spans = tracer.named(name, root="op")
        if not spans:
            return None
        return sum(tracer.self_time(s) if self_time else tracer.duration(s) for s in spans) / count

    def per_call_ms(name: str):
        spans = tracer.named(name)
        return statistics.median(tracer.duration(s) for s in spans) * 1e3 if spans else None

    layers = {
        "sampling.gamma_chunk_s": sum(draw.values()) if wl.sampler == "gamma" else None,
        "sampling.haar_chunk_s": sum(draw.values()) if wl.sampler == "haar" else None,
        "montecarlo.sweep_self_s": per_op("montecarlo.sweep", self_time=True),
        "oracles.beta_ms": per_call_ms("oracles.beta"),
        "oracles.cf_ms": per_call_ms("oracles.cf"),
        "oracles.clt_ms": per_call_ms("oracles.clt"),
        "kernels.build_s": per_op("kernels.build"),
        "cli.main_s": per_op("cli.main"),
        "cli.self_s": per_op("cli.main", self_time=True),
    }
    if ctx.gap_ratios:
        layers["oracles.cf_uncertified"] = sum(r > 1.0 for r in ctx.gap_ratios) / count
        layers["oracles.cf_gap_over_bound_max"] = max(ctx.gap_ratios)
    estimate = per_op("montecarlo.estimate")
    serial = [tracer.duration(s) for s in tracer.named("montecarlo.estimate_1w")]
    if estimate and serial:
        one_worker = sum(serial)
        drawn = sum(p.trials / CHUNK * draw[p.n] for p in first)
        layers.update({
            "montecarlo.estimate_1w_s": one_worker,
            "montecarlo.estimate_s": estimate,
            "montecarlo.fanout_speedup": one_worker / estimate,
            "montecarlo.chunks": sum(-(-p.trials // CHUNK) for p in first),
            "montecarlo.draw_share": drawn / one_worker,
            "montecarlo.reduce_self_s": one_worker - drawn,
        })
    return tracer, ctx, count, layers


def traced(wl, checks, seconds: float, setup_reps: int, seed: int, per_layer: dict) -> dict:
    _, imports = measure_setup(checks, setup_reps, importtime=True)
    plain = Ctx(OFF, checks)
    window(wl, plain, seconds)
    plain.record_oracle_checks()
    tracer, ctx, _, layers = traced_layers(wl, checks, seconds)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(trace_path)
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    layers["bench.trace_overhead_s"] = op_seconds(ctx) - op_seconds(plain)
    for module, values in imports.items():
        layers[f"{module}.import_s"] = statistics.median(values) if values else None
    # A layer this workload never reaches is measured on a smoke-size window
    # of a workload that does, so that every metric is a measurement.  Those
    # figures are the probe workload's, and so are its checks: they are
    # printed, but they do not count in this run's result.
    sources = {}
    for name, cls in WORKLOADS.items():
        missing = [m for m in per_layer if layers.get(m) is None]
        if not missing or name == wl.name:
            continue
        probe_checks = Checks()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            _, _, probe_ops, probe = traced_layers(cls(seed, True, Path(tmp)), probe_checks, PROBE_SECONDS)
        for m in missing:
            if probe.get(m) is not None:
                layers[m] = probe[m]
                sources[m] = f"{name} at smoke size, {probe_ops} operations"
        print_failures(probe_checks, f"probe {name} failed")
    if sources:
        print("probed layers: " + json.dumps(sources))
    return {m: (layers.get(m, math.nan), per_layer[m]) for m in per_layer}


def print_fingerprint(wl, points) -> None:
    """Counts of the first operation, so a stream-preserving change can show bit-identity."""
    for p in points:
        print(f"fingerprint: {wl.name} {p.label} seed={p.seed} trials={p.trials} negatives={p.negatives}")


def print_failures(checks, prefix: str) -> None:
    seen = {}
    for failure in checks.failures:  # identical operations repeat; show each failure once
        key = json.dumps(failure)
        seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        print(f"{prefix} x{count}: {key}")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> tuple[dict, Checks]:
    print("machine: " + json.dumps(machine_record(WORKERS)))
    checks = Checks()
    setup_reps = 1 if smoke else SETUP_REPS
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = WORKLOADS[name](seed, smoke, Path(tmp))
        if trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = traced(wl, checks, seconds, setup_reps, seed, units)
        else:
            metrics = untraced(wl, checks, seconds, setup_reps)
    print_failures(checks, "failed")
    result = {"correct": checks.correct, "attempted": checks.attempted, "failed": len(checks.failures),
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    return result, checks


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, untraced and traced; report what is wrong."""
    predictions = json.loads((BENCH / "predictions.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    benchmarked = {w["name"] for w in spec["workloads"]}
    if not benchmarked <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload the benchmark does not define")
    predicted = {p["layer"] for p in predictions}
    if predicted != set(layer):
        problems.append(f"predictions.json layers differ: {sorted(predicted ^ set(layer))}")
    # "moves" and "no_change" are for the gate, so they name benchmarked workloads;
    # "by_hand" names the workloads that run only by hand
    for p in predictions:
        for key, allowed in (("moves", benchmarked), ("by_hand", set(WORKLOADS) - benchmarked)):
            for metric, names in p.get(key, {}).items():
                if metric not in e2e or not set(names) <= allowed:
                    problems.append(f"prediction for {p['layer']} names {metric} on {names} in {key}")
        if not set(p["no_change"]) <= benchmarked:
            problems.append(f"prediction for {p['layer']} names workloads the gate does not run")
    expected_kinds = {"mc_large": {"mc_point", "oracle_point", "determinism", "setup"},
                      "mc_small_cli": {"mc_point", "oracle_point", "determinism", "setup",
                                       "cli_output", "cli_oracle_value"},
                      "state_haar": {"mc_point", "oracle_point", "determinism", "setup"},
                      "oracle_grid": {"oracle_point", "setup"}}
    for name in WORKLOADS:
        for trace, declared in ((False, e2e), (True, layer)):
            result, checks = run(name, 0, 0.0, trace, True, spec)
            where = f"{name} --trace {int(trace)}"
            got = result["metrics"]
            if set(got) != set(declared):
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(declared))}")
            for metric, entry in got.items():
                if entry["unit"] != declared.get(metric) or not math.isfinite(entry["value"]):
                    problems.append(f"{where}: {metric} = {entry}")
            if not expected_kinds[name] <= set(checks.kinds):
                problems.append(f"{where}: checks not run: {expected_kinds[name] - set(checks.kinds)}")
            if not result["correct"]:
                problems.append(f"{where}: unexpected failed checks")
            if name == "oracle_grid" and result["failed"] == 0:
                problems.append(f"{where}: the N=4096 CF failure was not counted")
    for p in problems:
        print("smoke problem: " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, then checks")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), False, spec)
    print(json.dumps(result, allow_nan=False))  # a run without samples fails here, not in a parser
    return 0


if __name__ == "__main__":
    sys.exit(main())
