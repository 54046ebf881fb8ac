"""The benchmark's workloads: inputs made from the seed, one operation, its checks.

An operation is what one caller issues and waits for (closed loop): a
``run_sweep`` grid, one in-process ``wignerlab sweep`` command, nine
``estimate_state`` calls, or one pass over the oracle grid.  Every input is
derived from the workload seed; the program only sees the generated inputs.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import statistics
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from wignerlab import (
    CHUNK,
    KernelSelector,
    SweepConfig,
    cf_inversion_exact,
    clt_probability,
    estimate_global,
    estimate_state,
    limit_quantumness,
    random_spectrum,
    run_sweep,
    two_block_exact,
    two_block_spectrum,
)
from wignerlab import cli

#: Pool size for every fan-out: at most two, never more than the cores.
WORKERS = min(2, os.cpu_count() or 1)
#: Oracle calls per point in the checks of the sampling workloads; repeated
#: calls must return identical results.
CHECK_ORACLE_REPS = 3
#: Normal quantile of the Wilson band an estimate must put around its reference.
#: At z=5 a correct estimator leaves the band about once in 1.7 million points.
CHECK_Z = 5.0
#: 1 - Phi(1), computed here independently of the program.
LIMIT = statistics.NormalDist().cdf(-1.0)
#: The CF oracle reports bounds smaller than its real error from N=512 on and
#: returns 0.5 from N=4096 on.  Those failures are counted in ``failed``; they
#: leave ``correct`` true so that the benchmark keeps running until the oracle
#: is fixed.  Any other failed check makes ``correct`` false.  An oracle point
#: is one checked operation per window however often it is evaluated, so the
#: count of these failures is the same in every run.
KNOWN_CF_DEFECT_N = 512
_CF_PROBLEMS = ("cf_vs_beta", "cf_band", "cf_error")

#: Column order the CLI promises for sweep CSV output.
CSV_COLUMNS = ["schema_version", "N", "kernel_label", "k", "method", "trials", "negatives",
               "p_hat", "ci_low", "ci_high", "oracle_value", "seed", "wall_time_s"]


def derive(seed: int, *tags) -> int:
    """A 64-bit seed derived from the workload seed and a tag path."""
    words = [seed] + [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def wilson(negatives: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval, written out here so the check does not use the program's."""
    p = negatives / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials))
    low = 0.0 if negatives == 0 else center - half
    high = 1.0 if negatives == trials else center + half
    return low, high


@dataclass
class Checks:
    """Checked operations of one run; an operation fails if any of its checks fails."""

    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    kinds: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, label: str, n: int, problems: list[tuple[str, str]]) -> None:
        self.attempted += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if problems:
            known = all(name in _CF_PROBLEMS and n >= KNOWN_CF_DEFECT_N for name, _ in problems)
            self.failures.append({"kind": kind, "point": label, "known": known,
                                  "problems": [f"{name}: {detail}" for name, detail in problems]})

    @property
    def correct(self) -> bool:
        return all(f["known"] for f in self.failures)


@dataclass
class Ctx:
    """What one window of operations records.

    Times are kept as each call's fastest in the window: other tenants of the
    host slow it in spells from milliseconds to minutes, and a call's
    fastest time is what the program costs when the host leaves it alone.
    """

    tracer: object
    checks: Checks
    step_best: dict[str, float] = field(default_factory=dict)    # per call an operation makes
    oracle_calls: int = 0
    oracle_best: dict[str, float] = field(default_factory=dict)  # per oracle point
    gap_ratios: list[float] = field(default_factory=list)        # |cf - beta| / combined bound
    oracle_checks: dict[str, dict] = field(default_factory=dict)  # per oracle point

    @contextlib.contextmanager
    def step(self, label: str, span: str):
        """Time one call an operation makes into wignerlab, inside a tracer span.

        ``label`` names the call and its inputs, the same in every operation.
        """
        with self.tracer.span(span):
            start = time.perf_counter()
            yield
            seconds = time.perf_counter() - start
        self.step_best[label] = min(seconds, self.step_best.get(label, math.inf))

    def oracle_latency(self, label: str, seconds: float) -> None:
        self.oracle_calls += 1
        self.oracle_best[label] = min(seconds, self.oracle_best.get(label, math.inf))

    def oracle_checked(self, label: str, n: int, result, problems: list[tuple[str, str]]) -> None:
        """Keep one check per oracle point: its first evaluation's problems,
        and a repeat problem if a later evaluation gives another outcome."""
        seen = self.oracle_checks.setdefault(label, {"n": n, "outcome": (result, problems),
                                                     "problems": list(problems)})
        if (result, problems) != seen["outcome"] and not any(
                name == "oracle_repeat" for name, _ in seen["problems"]):
            seen["problems"].append(("oracle_repeat", "repeated calls returned different results"))

    def record_oracle_checks(self) -> None:
        """Record the window's oracle points, one checked operation each."""
        for label, seen in self.oracle_checks.items():
            self.checks.record("oracle_point", f"oracle {label}", seen["n"], seen["problems"])
        self.oracle_checks.clear()


@dataclass
class Point:
    """One Monte Carlo estimate produced by an operation."""

    label: str
    n: int
    selector: KernelSelector
    trials: int
    seed: int
    negatives: int
    rho: np.ndarray | None = None
    reported_oracle: float | None = None  # oracle_value the CLI printed, if any


def oracle_point(ctx: Ctx, spectrum, k: int | None, label: str, reps: int = 1) -> float | None:
    """Exact value of one kernel from the program's oracles, checked.

    A two-block kernel gets the beta form and CF inversion, which must agree
    within their combined reported bounds; a random kernel gets CF, which
    must lie within 4/N^2 of 1 - Phi(1) (random spectra sit within 1/N^2).
    The calls are made ``reps`` times; every call is timed, and every call
    of the window must return what the first one did.  Returns the
    reference value, or None if no oracle produced one.
    """
    n = spectrum.dimension
    for _ in range(reps):
        problems = []
        beta = cf = None
        start = time.perf_counter()
        if k is not None:
            try:
                with ctx.tracer.span("oracles.beta"):
                    beta = two_block_exact(n, k)
            except Exception as exc:  # a raising oracle is a failed operation, not a crash
                problems.append(("beta_error", repr(exc)))
        try:
            with ctx.tracer.span("oracles.cf"):
                cf = cf_inversion_exact(spectrum)
        except Exception as exc:
            problems.append(("cf_error", repr(exc)))
        ctx.oracle_latency(label, time.perf_counter() - start)
        if beta is not None and cf is not None:
            gap = abs(cf.value - beta.value)
            bound = cf.estimated_abs_error + beta.estimated_abs_error
            ctx.gap_ratios.append(gap / bound if bound > 0 else math.inf)
            if gap > bound:
                problems.append(("cf_vs_beta", f"|cf - beta| = {gap:.3e} > bounds {bound:.3e}"))
        elif k is None and cf is not None and abs(cf.value - LIMIT) > 4.0 / n**2:
            problems.append(("cf_band", f"cf = {cf.value!r} is not within 4/N^2 of {LIMIT!r}"))
        ctx.oracle_checked(label, n, (beta, cf), problems)
    if beta is not None:
        return beta.value
    return cf.value if cf is not None else None


def check_estimate(ctx: Ctx, point: Point, ref: float | None, first: Point | None) -> None:
    """The estimate's Wilson band at CHECK_Z must hold the reference, and a
    repeated operation must reproduce the first one's count."""
    problems = []
    low, high = wilson(point.negatives, point.trials, CHECK_Z)
    if ref is None:
        problems.append(("no_reference", "no oracle value to check against"))
    elif not low <= ref <= high:
        problems.append(("mc_band", f"reference {ref!r} outside [{low!r}, {high!r}]"))
    if first is not None and point.negatives != first.negatives:
        problems.append(("repeat", f"negatives {point.negatives} != first run {first.negatives}"))
    ctx.checks.record("mc_point", point.label, point.n, problems)


class Workload:
    name = ""
    #: what a chunk of this workload's estimates draws: "gamma", "haar" or None
    sampler: str | None = None

    def run_op(self, ctx: Ctx) -> list[Point]:
        raise NotImplementedError

    def op_trials(self, points: list[Point]) -> int:
        return sum(p.trials for p in points)

    def oracle_inputs(self, points: list[Point]) -> list[tuple]:
        """(spectrum, k, label) of each oracle point the checks evaluate."""
        return [(p.selector.build(p.n), p.selector.k, p.label) for p in points]

    def verify(self, ctx: Ctx, points: list[Point], first: list[Point] | None) -> None:
        for i, (p, inputs) in enumerate(zip(points, self.oracle_inputs(points))):
            ref = oracle_point(ctx, *inputs, CHECK_ORACLE_REPS)
            check_estimate(ctx, p, ref, first[i] if first else None)

    def serial_negatives(self, point: Point) -> int:
        """The point's count at workers=1, for the determinism contract."""
        return estimate_global(point.selector.build(point.n), point.trials, point.seed,
                               workers=1).negatives


class McLarge(Workload):
    """run_sweep on the fast-gamma path at large N, one sweep per point."""

    name = "mc_large"
    sampler = "gamma"

    def __init__(self, seed: int, smoke: bool, outdir) -> None:
        self.ns = (8, 16) if smoke else (64, 128)
        # Two chunks a point, one for each worker, and one sweep per point: a
        # call then takes ~0.2 s, so a run repeats each call often enough for
        # its fastest time to miss the host's slow spells.
        self.trials = 2 * CHUNK
        kernel_seed = derive(seed, self.name, "kernel")
        self.configs = [
            SweepConfig(dimensions=(n,), kernels=(sel,), trials=self.trials,
                        seed=derive(seed, self.name, n, sel.describe()), workers=WORKERS)
            for n in self.ns
            for sel in (KernelSelector.two_block(1), KernelSelector.two_block(n // 4),
                        KernelSelector.random(kernel_seed))]

    def run_op(self, ctx: Ctx) -> list[Point]:
        points = []
        for config in self.configs:
            (n,), (sel,) = config.dimensions, config.kernels
            label = f"N={n} {sel.describe()}"
            with ctx.step(f"run_sweep {label}", "montecarlo.sweep"):
                records = run_sweep(config)
            if len(records) != 1:
                raise RuntimeError(f"run_sweep returned {len(records)} records for one valid point")
            points.append(Point(label, n, sel, records[0].trials, records[0].seed, records[0].negatives))
        return points


class McSmallCli(Workload):
    """`wignerlab sweep --oracle` in-process over many small points."""

    name = "mc_small_cli"
    sampler = "gamma"

    def __init__(self, seed: int, smoke: bool, outdir) -> None:
        self.ns = (2, 3) if smoke else tuple(range(2, 17))
        self.trials = 3 * CHUNK
        self.selectors = (KernelSelector.two_block(1),
                          KernelSelector.random(derive(seed, self.name, "kernel")))
        self.csv_path = outdir / f"{self.name}.csv"
        self.argv = ["sweep", "--n", ",".join(map(str, self.ns)),
                     "--kernels", f"k=1,random={self.selectors[1].seed}",
                     "--trials", str(self.trials), "--seed", str(derive(seed, self.name)),
                     "--workers", str(WORKERS), "--oracle", "--out", str(self.csv_path)]

    def run_op(self, ctx: Ctx) -> list[Point]:
        with ctx.step("wignerlab sweep", "cli.main"):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"wignerlab sweep exited with {code}")
        with open(self.csv_path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        by_label = {sel.describe(): sel for sel in self.selectors}
        problems = []
        if header != CSV_COLUMNS:
            problems.append(("csv_header", f"{header}"))
        if len(rows) != len(self.ns) * len(self.selectors):
            problems.append(("csv_rows", f"{len(rows)} rows"))
        points = []
        for row in rows:
            rec = dict(zip(header, row))
            sel = by_label.get(rec.get("kernel_label"))
            if (sel is None or rec["schema_version"] != "1" or rec["method"] != "fast-gamma"
                    or int(rec["trials"]) != self.trials
                    or float(rec["p_hat"]) != int(rec["negatives"]) / self.trials):
                problems.append(("csv_row", ",".join(row)))
                continue
            points.append(Point(f"N={rec['N']} {rec['kernel_label']}", int(rec["N"]), sel,
                                self.trials, int(rec["seed"]), int(rec["negatives"]),
                                reported_oracle=float(rec["oracle_value"])))
        ctx.checks.record("cli_output", " ".join(self.argv[:1]), 0, problems)
        return points

    def verify(self, ctx: Ctx, points: list[Point], first: list[Point] | None) -> None:
        for i, (p, inputs) in enumerate(zip(points, self.oracle_inputs(points))):
            # the reference comes from the same route the CLI uses for oracle_value
            ref = oracle_point(ctx, *inputs, CHECK_ORACLE_REPS)
            check_estimate(ctx, p, ref, first[i] if first else None)
            problems = [] if p.reported_oracle == ref else [
                ("cli_oracle_value", f"printed {p.reported_oracle!r}, oracle gives {ref!r}")]
            ctx.checks.record("cli_oracle_value", p.label, p.n, problems)


def state_volume(n: int, kind: str, eigenvalues: np.ndarray) -> float:
    """Exact negative volume of a state for the two-block k=1 kernel.

    The symbol is a + (b - a) v^dagger rho v with v a uniform unit vector, so
    it is negative when sum_i lambda_i D_i > x = a / (a - b), where D is
    uniform on the simplex.  Pure state: P = (1 - x)^(N-1).  Distinct
    eigenvalues: the Curry-Schoenberg B-spline tail
    sum_i (lambda_i - x)_+^(N-1) / prod_{j != i} (lambda_i - lambda_j).
    Maximally mixed: the symbol is 1/N > 0 everywhere.
    """
    root = math.sqrt(n + 1.0)
    x = (1.0 + root) / (n * root)
    if kind == "pure":
        return (1.0 - x) ** (n - 1)
    if kind == "maximally-mixed":
        return 0.0
    lam = [float(v) for v in eigenvalues]
    return sum((li - x) ** (n - 1) / math.prod(li - lj for j, lj in enumerate(lam) if j != i)
               for i, li in enumerate(lam) if li > x)


class StateHaar(Workload):
    """estimate_state on a pure, a mixed and the maximally mixed state."""

    name = "state_haar"
    sampler = "haar"

    def __init__(self, seed: int, smoke: bool, outdir) -> None:
        self.ns = (2,) if smoke else (2, 4, 8)
        self.trials = 2 * CHUNK
        rng = np.random.default_rng(derive(seed, self.name))
        self.states = []  # (n, kind, rho, seed, exact volume)
        for n in self.ns:
            squares = np.arange(n, 0, -1, dtype=float) ** 2
            lam = rng.permutation(squares / squares.sum())
            pure = np.zeros(n)
            pure[rng.integers(n)] = 1.0
            for kind, diag in (("pure", pure), ("mixed", lam), ("maximally-mixed", np.full(n, 1.0 / n))):
                self.states.append((n, kind, np.diag(diag).astype(complex),
                                    derive(seed, self.name, n, kind), state_volume(n, kind, diag)))

    def run_op(self, ctx: Ctx) -> list[Point]:
        spectra = {}
        for n in self.ns:
            with ctx.step(f"two_block_spectrum N={n}", "kernels.build"):
                spectra[n] = two_block_spectrum(n, 1)
        points = []
        for n, kind, rho, seed, _ in self.states:
            with ctx.step(f"estimate_state N={n} {kind}", "montecarlo.estimate"):
                est = estimate_state(rho, spectra[n], self.trials, seed, workers=WORKERS)
            points.append(Point(f"N={n} {kind} state", n, KernelSelector.two_block(1),
                                est.trials, seed, est.negatives, rho=rho))
        return points

    def oracle_inputs(self, points: list[Point]) -> list[tuple]:
        # the kernel's global value, which a caller compares volumes with
        return [(two_block_spectrum(n, 1), 1, f"N={n} two-block k=1") for n in self.ns]

    def verify(self, ctx: Ctx, points: list[Point], first: list[Point] | None) -> None:
        for inputs in self.oracle_inputs(points):
            oracle_point(ctx, *inputs, CHECK_ORACLE_REPS)
        for i, (p, state) in enumerate(zip(points, self.states)):
            check_estimate(ctx, p, state[4], first[i] if first else None)

    def serial_negatives(self, point: Point) -> int:
        return estimate_state(point.rho, two_block_spectrum(point.n, 1), point.trials,
                              point.seed, workers=1).negatives


class OracleGrid(Workload):
    """Every exact route over N = 2 ... 16384; the oracle calls are the operation."""

    name = "oracle_grid"

    def __init__(self, seed: int, smoke: bool, outdir) -> None:
        exponents = (1, 12) if smoke else range(1, 15)
        self.two_block = sorted({(2**e, k) for e in exponents for k in (1, 2**e // 2)})
        self.random_ns = (8,) if smoke else (8, 64, 512, 4096)
        self.clt_ts = (1.0,) if smoke else (0.0, 0.5, 1.0, 2.0, 5.0)
        self.kernel_seed = derive(seed, self.name)
        self.calls = 2 * len(self.two_block) + len(self.random_ns) + len(self.clt_ts) + 1

    def op_trials(self, points: list[Point]) -> int:
        return self.calls  # nothing is sampled; one oracle call counts as one trial

    def run_op(self, ctx: Ctx) -> list[Point]:
        for n, k in self.two_block:
            label = f"N={n} two-block k={k}"
            with ctx.step(f"two_block_spectrum {label}", "kernels.build"):
                spectrum = two_block_spectrum(n, k)
            with ctx.step(f"oracles {label}", "oracles.point"):
                oracle_point(ctx, spectrum, k, label)
        rng = np.random.default_rng(self.kernel_seed)
        for n in self.random_ns:
            label = f"N={n} random"
            with ctx.step(f"random_spectrum {label}", "kernels.build"):
                spectrum = random_spectrum(n, rng)
            with ctx.step(f"oracles {label}", "oracles.point"):
                oracle_point(ctx, spectrum, None, label)
        for t in self.clt_ts:
            with ctx.step(f"clt t={t}", "oracles.point"):
                self._constant(ctx, "oracles.clt", f"clt t={t}", lambda: clt_probability(t))
        with ctx.step("limit", "oracles.point"):
            self._constant(ctx, "oracles.limit", "limit", limit_quantumness)
        return []

    def _constant(self, ctx: Ctx, span: str, label: str, call) -> None:
        """Time one call whose exact answer is 1 - Phi(1) and check it."""
        problems = []
        result = None
        start = time.perf_counter()
        try:
            with ctx.tracer.span(span):
                result = call()
        except Exception as exc:
            problems.append(("error", repr(exc)))
        else:
            if abs(result.value - LIMIT) > result.estimated_abs_error + 1e-15:
                problems.append(("value", f"{result.value!r} != {LIMIT!r}"))
        ctx.oracle_latency(label, time.perf_counter() - start)
        ctx.oracle_checked(label, 0, result, problems)

    def oracle_inputs(self, points: list[Point]) -> list[tuple]:
        return []  # the operation itself evaluates the oracle points

    def verify(self, ctx: Ctx, points: list[Point], first: list[Point] | None) -> None:
        pass  # checked inside the operation, call by call


WORKLOADS = {cls.name: cls for cls in (McLarge, McSmallCli, StateHaar, OracleGrid)}
