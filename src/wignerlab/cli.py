"""Command-line front end: kernels, estimates, sweeps, oracles, per-state runs.

Exit codes: 0 success, 2 usage or validation error, 3 runtime failure.
Every estimate row is one SweepRecord, reproducible from --seed modulo the
wall-time column; --workers (default 1) never changes the counts, only who
computes them.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from .kernels import KernelSpectrum, _integer, _real, master_residuals, moments
from .montecarlo import (
    METHODS,
    KernelSelector,
    SweepConfig,
    SweepRecord,
    _SEED_MAX,
    _derive_seed,
    check_state,
    estimate_global,
    estimate_state,
    run_sweep,
)
from .oracles import (
    ConvergenceError,
    OracleResult,
    cf_inversion_exact,
    clt_probability,
    limit_quantumness,
    two_block_exact,
)

SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "schema_version", "N", "kernel_label", "k", "method", "trials", "negatives",
    "p_hat", "ci_low", "ci_high", "oracle_value", "seed", "wall_time_s",
]
ORACLE_COLUMNS = ["value", "method", "estimated_abs_error"]

# entropy tag mixed into derived seeds for bare "random" kernel tokens,
# distinct from the (seed, point-index) scheme used for sweep points
_KERNEL_TOKEN_TAG = 0x6B65726E


def _selector_from_args(args) -> KernelSelector:
    if args.two_block is not None:
        return KernelSelector.two_block(args.two_block)
    return KernelSelector.random(args.random_seed)


def _parse_kernel_token(token: str, master_seed: int, position: int) -> KernelSelector:
    t = token.strip()
    if t == "random":
        return KernelSelector.random(_derive_seed(master_seed, _KERNEL_TOKEN_TAG, position))
    for prefix, build in (("k=", KernelSelector.two_block), ("random=", KernelSelector.random)):
        if t.startswith(prefix):
            try:
                value = int(t[len(prefix):])
            except ValueError:
                break
            return build(value)  # the selector's own check names a bad k or seed
    raise ValueError(f"cannot parse kernel token {token!r}; use k=INT, random, or random=SEED")


def load_state_file(path: str, expected_n: int | None = None) -> np.ndarray:
    """Read a density matrix: first line N, then N^2 lines "re im", row-major.

    The matrix must pass :func:`~wignerlab.montecarlo.check_state`.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"state file {path}: empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"state file {path}: first line must be the dimension, got {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"state file {path}: dimension must be >= 1, got {n}")
    if expected_n is not None and n != expected_n:
        raise ValueError(f"state file {path}: dimension {n} does not match --n {expected_n}")
    if len(lines) != 1 + n * n:
        raise ValueError(f"state file {path}: expected {n * n} entry lines, found {len(lines) - 1}")
    entries = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"state file {path}:{lineno}: expected 're im', got {ln!r}")
        try:
            entries.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"state file {path}:{lineno}: non-numeric entry {ln!r}") from None
    try:
        return check_state(np.array(entries, dtype=complex).reshape(n, n), n)
    except ValueError as exc:
        raise ValueError(f"state file {path}: {exc}") from None


def _record_payload(rec: SweepRecord, oracle_value: float | None) -> dict:
    row = {**asdict(rec), "schema_version": SCHEMA_VERSION, "N": rec.dimension,
           "k": "random" if rec.k is None else rec.k, "oracle_value": oracle_value}
    return {key: row[key] for key in CSV_COLUMNS}


def _render(rows: list[dict], columns: list[str], fmt: str, single: bool) -> str:
    """``rows`` as CSV with a header, as JSON (one object when ``single``), or as
    blank-line-separated ``key value`` blocks that leave out None values."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[key] for key in columns] for row in rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "json":
        return json.dumps(rows[0] if single else rows, indent=2)
    width = max(map(len, columns))
    blocks = ["\n".join(f"{key:<{width}} {row[key]}" for key in columns if row[key] is not None)
              for row in rows]
    return "\n\n".join(blocks) or "(no records)"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _kernel_oracle(selector: KernelSelector, spectrum: KernelSpectrum,
                   cf: bool = False, tol: float = 1e-10) -> OracleResult:
    """Beta-else-CF for two-block kernels unless ``cf``, CF inversion otherwise."""
    if selector.kind != "two-block" or cf:
        return cf_inversion_exact(spectrum, tol=tol)
    return two_block_exact(spectrum.dimension, selector.k, tol=tol)


def _cmd_kernel(args) -> int:
    selector = _selector_from_args(args)
    spectrum = selector.build(args.n)
    r1, r2 = master_residuals(spectrum)
    mom = moments(spectrum)
    if args.format == "json":
        payload = {
            "dimension": spectrum.dimension,
            "label": spectrum.label,
            "eigenvalues": [[v, m] for v, m in spectrum.eigenvalues],
            "residuals": {"trace": r1, "square_trace": r2},
            "moments": asdict(mom),
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = [
        f"dimension      {spectrum.dimension}",
        f"label          {spectrum.label}",
        "eigenvalues    (value x multiplicity)",
    ]
    lines.extend(f"    {v!r} x {m}" for v, m in spectrum.eigenvalues)
    lines.append(f"residuals      trace {r1:.3e}, square-trace {r2:.3e}")
    lines.append(f"moments        pos_sum={mom.pos_sum!r} neg_abs_sum={mom.neg_abs_sum!r}")
    lines.append(f"               pos_sq_sum={mom.pos_sq_sum!r} neg_sq_sum={mom.neg_sq_sum!r}")
    lines.append(f"               num_nonneg={mom.num_nonneg} sigma_ratio={mom.sigma_ratio!r}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_estimate(args) -> int:
    selector = _selector_from_args(args)
    spectrum = selector.build(args.n)
    rec = SweepRecord.timed(spectrum, selector.k, lambda: estimate_global(
        spectrum, args.trials, args.seed, method=args.method, workers=args.workers, z=args.z))
    oracle_value = _kernel_oracle(selector, spectrum).value if args.oracle else None
    _emit(_render([_record_payload(rec, oracle_value)], CSV_COLUMNS, args.format, single=True),
          args.out)
    return 0


def _parse_dimensions(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse dimension list {text!r}; use e.g. 2,4,8") from None


def _has_type(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


# what each sweep setting must be, keyed by SweepConfig field: (wording, type, item type)
_SWEEP_TYPES = {
    "dimensions": ("a list of integers", list, int),
    "kernels": ("a list of strings", list, str),
    "trials": ("an integer", int, None),
    "seed": ("an integer", int, None),
    "workers": ("an integer", int, None),
    "z": ("a number", (int, float), None),
    "method": ("a string", str, None),
}


def _sweep_settings(args) -> dict:
    """Sweep settings: the config file's, then the flags over them; seed defaults
    to 0, the rest to SweepConfig's defaults."""
    conf: dict = {}
    if args.config:
        with open(args.config) as fh:
            conf = json.load(fh)
        if not isinstance(conf, dict):
            raise ValueError(f"config file {args.config}: expected a JSON object")
        unknown = set(conf) - set(_SWEEP_TYPES)
        if unknown:
            raise ValueError(f"config file {args.config}: unknown keys {sorted(unknown)}")
        for key, value in conf.items():
            what, types, items = _SWEEP_TYPES[key]
            if not (_has_type(value, types)
                    and (items is None or all(_has_type(v, items) for v in value))):
                raise ValueError(
                    f"config file {args.config}: {key!r} must be {what}, got {value!r}")
    flags = {key: getattr(args, key) for key in _SWEEP_TYPES}
    conf.update((key, value) for key, value in flags.items() if value is not None)
    for key, flag in (("dimensions", "--n"), ("kernels", "--kernels"), ("trials", "--trials")):
        if key not in conf:
            raise ValueError(f"sweep needs {flag} or a config file with {key!r}")
    conf.setdefault("seed", 0)
    return conf


def _cmd_sweep(args) -> int:
    conf = _sweep_settings(args)
    seed = _integer(conf["seed"], "seed", 0, _SEED_MAX)
    selectors = [_parse_kernel_token(tok, seed, pos)
                 for pos, tok in enumerate(conf["kernels"])]
    records = run_sweep(SweepConfig(**{**conf, "kernels": selectors}))

    by_label = {sel.describe(): sel for sel in selectors}
    rows = []
    for rec in records:
        oracle_value = None
        if args.oracle:
            sel = by_label[rec.kernel_label]
            oracle_value = _kernel_oracle(sel, sel.build(rec.dimension)).value
        rows.append(_record_payload(rec, oracle_value))
    _emit(_render(rows, CSV_COLUMNS, args.format, single=False), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if (args.limit or args.clt is not None) and (args.n is not None or args.cf):
        raise ValueError("--n and --cf apply only to a kernel family")
    _real(args.tol, "tol", finite=False)
    if args.limit:
        result = limit_quantumness()
    elif args.clt is not None:
        result = clt_probability(args.clt, tol=args.tol)
    else:
        if args.n is None:
            raise ValueError("kernel-family oracles need --n")
        selector = _selector_from_args(args)
        result = _kernel_oracle(selector, selector.build(args.n), cf=args.cf, tol=args.tol)
    if result.estimated_abs_error > args.tol:
        raise ConvergenceError(
            f"{result.method} error bound {result.estimated_abs_error:.3e} exceeds tol {args.tol:.3e}")
    row = {key: getattr(result, key) for key in ORACLE_COLUMNS}
    _emit(_render([row], ORACLE_COLUMNS, args.format, single=True), args.out)
    return 0


def _cmd_state(args) -> int:
    selector = _selector_from_args(args)
    spectrum = selector.build(args.n)
    if args.maximally_mixed:
        rho = np.eye(args.n, dtype=complex) / args.n
    elif args.pure_basis is not None:
        j = args.pure_basis
        if not 1 <= j <= args.n:
            raise ValueError(f"basis index must be in [1, {args.n}], got {j}")
        rho = np.zeros((args.n, args.n), dtype=complex)
        rho[j - 1, j - 1] = 1.0
    else:
        rho = load_state_file(args.state_file, expected_n=args.n)
    rec = SweepRecord.timed(spectrum, selector.k, lambda: estimate_state(
        rho, spectrum, args.trials, args.seed, workers=args.workers, z=args.z))
    _emit(_render([_record_payload(rec, None)], CSV_COLUMNS, args.format, single=True), args.out)
    return 0


def _add_family_flags(parser: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    """Add the required choice of kernel family; returns the group for more choices."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-block", dest="two_block", type=int, metavar="K",
                       help="two-block kernel; K is the negative-block multiplicity")
    group.add_argument("--random", dest="random_seed", type=int, metavar="SEED",
                       help="random kernel spectrum drawn deterministically from SEED")
    return group


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of one seeded estimate, shared by ``estimate`` and ``state``."""
    parser.add_argument("--n", type=int, required=True, metavar="N")
    _add_family_flags(parser)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="thread count, capped at the chunk and CPU counts; "
                             "never changes the counts (default: 1)")
    parser.add_argument("--z", type=float, default=1.96)


def _add_output_flags(parser: argparse.ArgumentParser,
                      formats: tuple[str, ...] = ("csv", "json", "pretty")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Monte Carlo and exact negativity probabilities for "
                    "phase-space kernels of N-level systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="print a kernel spectrum with residuals and moments")
    p_kernel.add_argument("--n", type=int, required=True, metavar="N")
    _add_family_flags(p_kernel)
    _add_output_flags(p_kernel, ("pretty", "json"))
    p_kernel.set_defaults(handler=_cmd_kernel)

    p_est = sub.add_parser("estimate", help="Monte Carlo negativity probability of random states")
    _add_run_flags(p_est)
    p_est.add_argument("--method", choices=METHODS, default=METHODS[0])
    p_est.add_argument("--oracle", action="store_true", help="fill the oracle_value column")
    _add_output_flags(p_est)
    p_est.set_defaults(handler=_cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="estimate a grid of (N, kernel) points")
    p_sweep.add_argument("--config", metavar="FILE", default=None,
                         help="JSON file with dimensions/kernels/trials/seed/workers/z/method")
    p_sweep.add_argument("--n", dest="dimensions", metavar="LIST", default=None,
                         type=_parse_dimensions,
                         help="comma-separated dimensions, e.g. 2,4,8 (empty for none)")
    p_sweep.add_argument("--kernels", metavar="LIST", default=None,
                         type=lambda text: [t for t in text.split(",") if t.strip()],
                         help="comma-separated kernel tokens: k=INT, random, random=SEED")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--method", choices=METHODS, default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--z", type=float, default=None)
    p_sweep.add_argument("--oracle", action="store_true",
                         help="add exact oracle values per row (beta closed form or CF inversion)")
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exact negativity probabilities, no sampling")
    modes = _add_family_flags(p_oracle)
    modes.add_argument("--limit", action="store_true", help="infinite-dimension limit value")
    modes.add_argument("--clt", type=float, default=None, metavar="T",
                       help="normal-reduction quadrature at parameter T")
    p_oracle.add_argument("--n", type=int, default=None, metavar="N")
    p_oracle.add_argument("--cf", action="store_true",
                          help="force characteristic-function inversion for two-block kernels")
    p_oracle.add_argument("--tol", type=float, default=1e-10,
                          help="error tolerance for every route; the oracle fails (exit 3) "
                               "if its error bound exceeds it")
    _add_output_flags(p_oracle)
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_state = sub.add_parser("state", help="phase-space negativity volume of one state")
    _add_run_flags(p_state)
    state_group = p_state.add_mutually_exclusive_group(required=True)
    state_group.add_argument("--maximally-mixed", action="store_true")
    state_group.add_argument("--pure-basis", type=int, metavar="J",
                             help="basis projector |j><j|, 1-based index")
    state_group.add_argument("--state-file", metavar="PATH",
                             help="text file: first line N, then N^2 lines 're im' row-major")
    _add_output_flags(p_state)
    p_state.set_defaults(handler=_cmd_state)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
