"""Command line interface: solve, fredholm-bench, timing, deblur, oracle-check.

Exit codes: 0 success, 1 usage, 2 unreadable or malformed files,
3 numerical failure, 4 property violation (oracle check).
"""

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .arrayio import read_array, write_array
from .bidiag import run_bidiag
from .errors import (
    IdarrError,
    IoError,
    NumericalBreakdownError,
    TrivialDataError,
    UsageError,
)
from .linops import write_pgm
from .problems import (
    NSR_LADDER,
    add_noise,
    clean_problem,
    l2rho_error,
    load_operator,
    make_deblur,
    make_fredholm,
    true_solution,
)
from .properties import (gaussian_instance, multiplicity_instance, orthonormality_loss,
                         rank_deficient_instance, residual_gaps, subspace_deviation,
                         terminal_deviation)
from .rkhs import (DirectFactorization, RkhsGeometry, compute_exploration_weights, dartr_solve,
                   tikhonov_direct)
from .solver import Discrepancy, FixedIters, LCurve, dp_stop, idarr_solve, irL2_solve, irl2_solve

ITERATIVE_METHODS = ("iDARR", "IR-l2", "IR-L2")
DIRECT_METHODS = ("l2-direct", "L2-direct", "DARTR")
ALL_METHODS = ITERATIVE_METHODS + DIRECT_METHODS
GEOMETRY_FREE_METHODS = ("IR-l2", "l2-direct")  # need no exploration weights

RESULT_COLUMNS = (
    "method", "nsr", "trial", "k_stop", "l2rho_error",
    "relative_error", "loss", "wall_time_ms", "seed",
)


@dataclass
class ExperimentConfig:
    """The fredholm-bench settings; its fields are the config file's keys and its flags.

    A tuple field's metadata names the type of its comma-separated items.
    """

    kernel: str = "exp"
    m: int = 500
    n: int = 100
    truth: str = "in-range"
    nsr_ladder: tuple = field(default=NSR_LADDER, metadata={"item": float})
    trials: int = 20
    methods: tuple = field(default=ALL_METHODS, metadata={"item": str})
    stop_rule: str = "lcurve"
    tau: float = 1.01
    max_iters: int = 30
    seed_base: int = 1
    output_dir: str = "results"


_TRUTH_ALIASES = {
    "in": "in-range", "in-range": "in-range",
    "out": "out-of-range", "out-of-range": "out-of-range",
}


def _validate_config(cfg):
    if cfg.kernel not in ("exp", "poly"):
        raise UsageError(f"kernel must be exp or poly, got {cfg.kernel!r}")
    if cfg.truth not in _TRUTH_ALIASES:
        raise UsageError(f"truth must be in-range or out-of-range, got {cfg.truth!r}")
    cfg.truth = _TRUTH_ALIASES[cfg.truth]
    if cfg.m <= 0 or cfg.n <= 0:
        raise UsageError(f"grid sizes must be positive, got m={cfg.m}, n={cfg.n}")
    if cfg.trials <= 0:
        raise UsageError(f"trials must be positive, got {cfg.trials}")
    if not cfg.nsr_ladder or any(not 0 < v < np.inf for v in cfg.nsr_ladder):
        raise UsageError(f"nsr ladder must be positive and finite, got {cfg.nsr_ladder}")
    if len({f"{v:g}" for v in cfg.nsr_ladder}) < len(cfg.nsr_ladder):
        raise UsageError(f"nsr ladder items must differ under %g, got {cfg.nsr_ladder}")
    if not cfg.methods:
        raise UsageError("methods must name at least one method")
    unknown = [m for m in cfg.methods if m not in ALL_METHODS]
    if unknown:
        raise UsageError(f"unknown methods {unknown}; choose from {list(ALL_METHODS)}")
    if len(set(cfg.methods)) < len(cfg.methods):
        raise UsageError(f"methods must not repeat, got {list(cfg.methods)}")
    if cfg.stop_rule not in ("lcurve", "dp"):
        raise UsageError(f"stop_rule must be lcurve or dp, got {cfg.stop_rule!r}")
    if not 1.0 < cfg.tau < np.inf:
        raise UsageError(f"tau must exceed 1 and be finite, got {cfg.tau}")
    if cfg.max_iters < 10:
        raise UsageError(f"max_iters must be at least 10, got {cfg.max_iters}")
    if cfg.seed_base < 0:
        raise UsageError(f"seed_base must be nonnegative, got {cfg.seed_base}")
    return cfg


def _parse_field(f, text):
    """Parse config or flag text as field f's type; a tuple is a comma-separated list."""
    if f.type is tuple:
        return tuple(f.metadata["item"](v.strip()) for v in text.split(",") if v.strip())
    return f.type(text)


def _flag_type(f):
    """An argparse type parsing a flag's text as field f's value."""
    def parse(text):
        try:
            return _parse_field(f, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None
    return parse


def _format_field(f, value):
    kind = f.metadata.get("item", f.type)
    fmt = (lambda v: f"{v:g}") if kind is float else str
    return ",".join(map(fmt, value)) if f.type is tuple else fmt(value)


def load_config(path, cfg=None):
    """Read key=value sections into an ExperimentConfig."""
    cfg = cfg or ExperimentConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise IoError(f"{path}: malformed config: {exc}") from exc
    if not parser.has_section("experiment"):
        raise IoError(f"{path}: missing [experiment] section")
    sec = parser["experiment"]
    schema = {f.name: f for f in fields(ExperimentConfig)}
    try:
        for key in sec:
            if key not in schema:
                raise UsageError(f"unknown config key {key!r}")
            setattr(cfg, key, _parse_field(schema[key], sec.get(key)))
    except ValueError as exc:
        raise IoError(f"{path}: bad value: {exc}") from exc
    return cfg


def write_config(cfg, path):
    parser = configparser.ConfigParser()
    parser["experiment"] = {f.name: _format_field(f, getattr(cfg, f.name)) for f in fields(cfg)}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def row_seed(seed_base, method, nsr, trial):
    """Deterministic per-row seed: base XOR a stable digest of the row key."""
    key = f"{method}|{nsr:g}|{trial}".encode("ascii")
    digest = int(hashlib.sha256(key).hexdigest()[:8], 16)
    return int(seed_base) ^ digest


def _worker_count():
    """Benchmark worker processes: IDARR_THREADS (default 1), at most the core count."""
    raw = os.environ.get("IDARR_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(f"IDARR_THREADS must be a positive integer, got {raw!r}")
    return min(count, os.cpu_count() or 1)


# -- benchmark rows ----------------------------------------------------------

@lru_cache(maxsize=None)
def _get_setup(kernel, m, n):
    return make_fredholm(kernel, m, n)


@lru_cache(maxsize=None)
def _get_truth(kernel, m, n, truth):
    return true_solution(_get_setup(kernel, m, n), truth)


@lru_cache(maxsize=None)
def _get_factored(kernel, m, n, method):
    """A direct method's factorization; DARTR and L2-direct reuse the setup's eigenpairs."""
    setup = _get_setup(kernel, m, n)
    if method == "l2-direct":
        return DirectFactorization.tikhonov(setup.linmap.entries)
    form = DirectFactorization.dartr if method == "DARTR" else DirectFactorization.tikhonov
    return form(setup.linmap.entries, setup.geom.rho, setup.decomposition())


def run_method(method, linmap, geom, b, stop, factored=None, **kw):
    """Solve for b with the named method.

    geom is read only by the weighted methods (not GEOMETRY_FREE_METHODS);
    stop and the keywords (reorthogonalize, store_iterates) only by the
    iterative ones. A direct method solves through factored, its
    DirectFactorization of linmap, when one is given, and otherwise through
    its cold one-shot. Solvers are looked up by module name at call time.
    """
    if factored is not None and method in DIRECT_METHODS:
        return factored.solve(b)
    if method == "iDARR":
        return idarr_solve(geom, b, stop, **kw)
    if method == "IR-L2":
        return irL2_solve(geom, b, stop, **kw)
    if method == "IR-l2":
        return irl2_solve(linmap, b, stop, **kw)
    if method == "DARTR":
        return dartr_solve(linmap, geom.rho, b)
    if method == "L2-direct":
        return tikhonov_direct(linmap, b, weights=geom.rho)
    if method == "l2-direct":
        return tikhonov_direct(linmap, b)
    raise UsageError(f"unknown method {method!r}; choose from {list(ALL_METHODS)}")


def run_bench_row(cfg, method, nsr, trial):
    """Run one (method, nsr, trial) cell of cfg; returns the row dict, extras and solution."""
    seed = row_seed(cfg.seed_base, method, nsr, trial)
    setup = _get_setup(cfg.kernel, cfg.m, cfg.n)
    x_true = _get_truth(cfg.kernel, cfg.m, cfg.n, cfg.truth)
    problem = add_noise(clean_problem(setup, x_true), nsr, seed)
    geom = problem.geom
    iterative = method in ITERATIVE_METHODS
    stop = None
    if iterative:
        stop = (Discrepancy(noise_norm=problem.noise_norm, tau=cfg.tau, max_iters=cfg.max_iters)
                if cfg.stop_rule == "dp" else LCurve(max_iters=cfg.max_iters))
    # factored once per process, so a direct row times only its ladder solve
    factored = None if iterative else _get_factored(cfg.kernel, cfg.m, cfg.n, method)
    t0 = time.perf_counter()
    result = run_method(method, problem.linmap, geom, problem.b, stop, factored)
    elapsed = time.perf_counter() - t0
    x = result.x
    extras = {}
    if iterative:
        k_stop = result.k_stop
        residuals = [rec.residual for rec in result.history]
        k_dp = dp_stop(residuals, problem.noise_norm, cfg.tau)
        if cfg.stop_rule == "lcurve":
            extras = {"k_lcurve": k_stop, "k_dp": k_dp,
                      "weak_corner": int(result.weak_corner)}
        else:
            extras = {"k_lcurve": "", "k_dp": k_dp, "weak_corner": ""}
    else:
        k_stop = result.corner_index + 1
    err = l2rho_error(geom, x, x_true)
    truth_norm = geom.weighted_norm(x_true)
    res = problem.linmap.apply(x) - problem.b
    row = {
        "method": method,
        "nsr": f"{nsr:g}",
        "trial": trial,
        "k_stop": k_stop,
        "l2rho_error": f"{err:.17g}",
        "relative_error": f"{err / truth_norm:.17g}",
        "loss": f"{float(res @ res):.17g}",
        "wall_time_ms": f"{elapsed * 1e3:.3f}",
        "seed": seed,
    }
    return row, extras, x


def _boxplot_row(values):
    """count, median, q1, q3, whisker_lo, whisker_hi, n_outliers of values."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    whiskers = (inside if inside.size else v)[[0, -1]]
    n_out = int(np.count_nonzero((v < lo_fence) | (v > hi_fence)))
    return [v.size, *(f"{s:.17g}" for s in (med, q1, q3, *whiskers)), n_out]


def cmd_fredholm_bench(args):
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for f in fields(cfg):
        if getattr(args, f.name) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    _validate_config(cfg)

    cells = list(product(cfg.methods, cfg.nsr_ladder, range(1, cfg.trials + 1)))
    run_cell = partial(run_bench_row, cfg)
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_cell, *zip(*cells), chunksize=4))
    else:
        outcomes = [run_cell(*cell) for cell in cells]

    os.makedirs(cfg.output_dir, exist_ok=True)
    sol_dir = os.path.join(cfg.output_dir, "solutions")
    os.makedirs(sol_dir, exist_ok=True)
    write_config(cfg, os.path.join(cfg.output_dir, "config_used.cfg"))

    with open(os.path.join(cfg.output_dir, "results.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULT_COLUMNS))
        writer.writeheader()
        writer.writerows(row for row, _, _ in outcomes)

    with open(os.path.join(cfg.output_dir, "stopping.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "nsr", "trial", "k_lcurve", "k_dp", "weak_corner"])
        for row, extras, _ in outcomes:
            if extras:  # iterative methods only
                writer.writerow([row["method"], row["nsr"], row["trial"],
                                 extras["k_lcurve"], extras["k_dp"], extras["weak_corner"]])

    for row, _, x in outcomes:
        name = f"{row['method']}_nsr{row['nsr']}_trial{row['trial']}.bin"
        write_array(os.path.join(sol_dir, name), x)

    with open(os.path.join(cfg.output_dir, "stats.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "nsr", "count", "median", "q1", "q3",
                         "whisker_lo", "whisker_hi", "n_outliers"])
        for method, nsr in product(cfg.methods, (f"{v:g}" for v in cfg.nsr_ladder)):
            vals = [float(row["l2rho_error"]) for row, _, _ in outcomes
                    if row["method"] == method and row["nsr"] == nsr]
            writer.writerow([method, nsr, *_boxplot_row(vals)])

    print(f"wrote {len(cells)} rows to {os.path.join(cfg.output_dir, 'results.csv')}")
    return 0


def run_timing_sweep(n_ladder, m, k_fixed, replicas, seed):
    """Interleaved wall-time sweep of the iterative and direct solvers.

    Millisecond-scale solves are dominated by scheduler and cache noise,
    so each measurement round visits every problem size once in shuffled
    order and the reported figure per (solver, size) is the minimum over
    rounds — the least noise-contaminated estimate of the true cost.
    Garbage collection is paused during timed regions and every solver is
    warmed up once beforehand. Returns (rows, best): per-replica records
    (solver, n, replica, milliseconds) and the minima keyed by
    (solver, n).
    """
    import gc
    import random

    problems = {}
    for n in n_ladder:
        setup = make_fredholm("exp", m, n)
        x_true = true_solution(setup, "out-of-range")
        problems[n] = add_noise(clean_problem(setup, x_true), 0.05, seed + n)
    stop = FixedIters(k_fixed)
    solvers = (  # looked up by module name at call time
        ("iDARR", replicas, lambda p: idarr_solve(p.geom, p.b, stop)),
        ("DARTR", max(3, replicas // 5), lambda p: dartr_solve(p.linmap, p.geom.rho, p.b)),
    )
    for problem in problems.values():
        for _, _, solve in solvers:
            solve(problem)
    rows = []
    best = {}
    order = list(n_ladder)
    shuffler = random.Random(seed)
    gc.disable()
    try:
        for name, rounds, solve in solvers:
            for rep in range(1, rounds + 1):
                shuffler.shuffle(order)
                for n in order:
                    problem = problems[n]
                    t0 = time.perf_counter()
                    solve(problem)
                    ms = (time.perf_counter() - t0) * 1e3
                    rows.append((name, n, rep, ms))
                    best[name, n] = min(best.get((name, n), ms), ms)
    finally:
        gc.enable()
    return rows, best


def cmd_timing(args):
    ladder = args.n_ladder
    os.makedirs(args.output_dir, exist_ok=True)
    rows, best = run_timing_sweep(
        ladder, m=args.m, k_fixed=args.k_fixed, replicas=args.replicas, seed=args.seed
    )
    out_path = os.path.join(args.output_dir, "timing.csv")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "n", "replica", "wall_time_ms"])
        for solver, n, rep, ms in rows:
            writer.writerow([solver, n, rep, f"{ms:.3f}"])
    for solver in ("iDARR", "DARTR"):
        pretty = ", ".join(f"n={n}: {best[(solver, n)]:.2f}ms" for n in ladder)
        ratios = ", ".join(
            f"{a}->{b}: x{best[(solver, b)] / best[(solver, a)]:.2f}"
            for a, b in zip(ladder, ladder[1:])
        )
        print(f"{solver}: {pretty}" + (f"  ({ratios})" if ratios else ""))
    print(f"wrote {out_path}")
    return 0


def cmd_deblur(args):
    try:
        problem = make_deblur(args.image, psf=args.psf, nsr=args.nsr, seed=args.seed)
        stop = LCurve(max_iters=args.max_iters)
    except ValueError as exc:
        # bad synthetic-image kind, bad or oversized psf width, negative or
        # non-finite ratio, too short an iteration budget ...
        raise UsageError(str(exc)) from exc
    side = problem.linmap.side
    t0 = time.perf_counter()
    result = run_method(args.method, problem.linmap, problem.geom, problem.b, stop)
    elapsed = time.perf_counter() - t0
    os.makedirs(args.output_dir, exist_ok=True)
    write_pgm(os.path.join(args.output_dir, "blurred.pgm"),
              np.clip(problem.b.reshape(side, side), 0, 1) * 255)
    write_pgm(os.path.join(args.output_dir, "restored.pgm"),
              np.clip(result.x.reshape(side, side), 0, 1) * 255)
    truth = problem.x_true
    tnorm = float(np.linalg.norm(truth))
    with open(os.path.join(args.output_dir, "error_curve.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "residual", "penalty_norm", "rel_error_l2",
                         "rel_error_weighted"])
        wnorm = problem.geom.weighted_norm(truth)
        for rec, x_k in zip(result.history, result.iterates):
            rel = np.linalg.norm(x_k - truth) / tnorm
            relw = l2rho_error(problem.geom, x_k, truth) / wnorm
            writer.writerow([rec.k, f"{rec.residual:.17g}", f"{rec.penalty_norm:.17g}",
                             f"{rel:.17g}", f"{relw:.17g}"])
    summary = {
        "method": args.method,
        "side": side,
        "nsr": args.nsr,
        "k_stop": result.k_stop,
        "k_t": result.k_t,
        "weak_corner": result.weak_corner,
        "residual": result.residual,
        "rel_error_l2": float(np.linalg.norm(result.x - truth) / tnorm),
        "elapsed_s": elapsed,
    }
    with open(os.path.join(args.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"k_stop={result.k_stop} rel_error={summary['rel_error_l2']:.4f} "
          f"({elapsed:.1f}s), outputs in {args.output_dir}")
    return 0


def _parse_stop_flag(spec, max_iters):
    kind, _, rest = spec.partition(":")
    try:
        if spec == "lcurve":
            return LCurve(max_iters=max_iters)
        if kind == "dp":
            noise, _, tau = rest.partition(":")
            return Discrepancy(noise_norm=float(noise), tau=float(tau or 1.01),
                               max_iters=max_iters)
        if kind == "fixed":
            return FixedIters(int(rest))
    except ValueError as exc:
        raise UsageError(f"bad stop spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown stop rule {spec!r}; expected lcurve, dp:NOISE[:TAU] or fixed:K")


def _read_data(path, rows):
    """The data vector at path, checked to be finite and of length rows."""
    b = read_array(path)
    if b.shape != (rows,):
        raise IoError(f"{path}: expected a vector of length {rows}, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise IoError(f"{path}: data vector has non-finite entries")
    return b


def cmd_solve(args):
    linmap = load_operator(args.operator)
    b = _read_data(args.data, linmap.rows)
    method = args.method
    t0 = time.perf_counter()
    geom = (None if method in GEOMETRY_FREE_METHODS
            else RkhsGeometry(linmap, compute_exploration_weights(linmap)))
    iterative = method in ITERATIVE_METHODS
    stop = _parse_stop_flag(args.stop, args.max_iters) if iterative else None
    result = run_method(method, linmap, geom, b, stop, reorthogonalize=args.reorthogonalize)
    if iterative:
        note = (f"k_stop={result.k_stop} residual={result.residual:.6g} "
                f"converged={result.converged}")
    else:
        note = f"lambda={result.lam:.6g} corner_index={result.corner_index}"
    elapsed = time.perf_counter() - t0
    write_array(args.out, result.x)
    print(f"method={method} {note} elapsed_ms={elapsed * 1e3:.1f} -> {args.out}")
    return 0


# -- oracle battery ----------------------------------------------------------


def cmd_oracle_check(args):
    m, n, steps = args.m, args.n, args.steps
    if args.rank > min(m, n):
        raise UsageError(f"rank must be in 0..{min(m, n)} (0 for the default), got {args.rank}")
    rank = args.rank or max(min(m, n) // 2, 1)
    rng = np.random.default_rng(args.seed)

    def count_gap():  # the data hits three distinct values of six
        sigmas = (2.5, 2.5, 1.8, 1.0, 1.0, 0.7)
        geom, b = multiplicity_instance(rng, sigmas, (0, 2, 5), max(m, 12), max(n, 10))
        factors = run_bidiag(geom, b, len(sigmas) + 4, reorthogonalize=True)
        return abs(factors.k_t - 3) if factors.terminated else np.inf

    checks = (
        ("orthogonality", lambda: max(orthonormality_loss(run_bidiag(
            *gaussian_instance(rng, m, n), min(n, steps), reorthogonalize=True))), 1e-10),
        ("termination-count", count_gap, 0.5),
        ("residual-identity",
         lambda: max(residual_gaps(*gaussian_instance(rng, m, n), min(n, 15))), 1e-9),
        ("terminal-solution",
         lambda: terminal_deviation(*rank_deficient_instance(rng, m, n, rank)), 1e-6),
        ("subspace-uniqueness", lambda: subspace_deviation(
            *rank_deficient_instance(rng, m, n, rank), max(rank - 2, 1), rng), 1e-8),
    )
    failed = False
    for name, measure, tol in checks:
        value = measure()
        ok = value <= tol
        failed = failed or not ok
        print(f"PROP {name:<20} max_dev={value:.3e} tol={tol:.0e} "
              f"{'PASS' if ok else 'FAIL'}")
    return 4 if failed else 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ints(low, many=False):
    """An argparse type: an integer of at least low, or with many a comma list of distinct ones."""
    def parse(text):
        try:
            values = [int(v) for v in (text.split(",") if many else [text]) if v.strip()]
        except ValueError:
            values = []
        if not values or min(values) < low:
            raise argparse.ArgumentTypeError(f"expected integers of at least {low}, got {text!r}")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"items must not repeat, got {text!r}")
        return values if many else values[0]
    return parse


_NONNEGATIVE = _ints(0)  # seeds: numpy's generators take no negative ones
_POSITIVE = _ints(1)


def build_parser():
    parser = _Parser(prog="idarr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one problem from operator and data files")
    p.add_argument("--operator", required=True, help="operator descriptor (json)")
    p.add_argument("--data", required=True, help="data vector file")
    p.add_argument("--method", default="iDARR", choices=ALL_METHODS)
    p.add_argument("--stop", default="lcurve", help="lcurve | dp:NOISE[:TAU] | fixed:K")
    p.add_argument("--max-iters", type=int, default=30)
    p.add_argument("--reorthogonalize", action="store_true")
    p.add_argument("--out", default="solution.bin")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fredholm-bench", help="noise-ladder benchmark on integral equations")
    p.add_argument("--config", help="key=value config file ([experiment] section)")
    for f in fields(ExperimentConfig):  # each flag overrides its config key
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=_flag_type(f))
    p.set_defaults(func=cmd_fredholm_bench)

    p = sub.add_parser("timing", help="wall-time scaling of the iterative and direct solvers")
    p.add_argument("--n-ladder", dest="n_ladder", type=_ints(1, many=True),
                   default="200,400,800")
    p.add_argument("--m", type=_POSITIVE, default=500)
    p.add_argument("--k-fixed", dest="k_fixed", type=_POSITIVE, default=10)
    p.add_argument("--replicas", type=_POSITIVE, default=10)
    p.add_argument("--seed", type=_NONNEGATIVE, default=7)
    p.add_argument("--output-dir", dest="output_dir", default="results")
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("deblur", help="image deblurring demo")
    p.add_argument("--image", default="blobs:64",
                   help="pgm file or synthetic spec kind:side")
    p.add_argument("--psf", default="gaussian:2", help="gaussian:WIDTH or text grid file")
    p.add_argument("--nsr", type=float, default=0.01)
    p.add_argument("--method", default="iDARR", choices=ITERATIVE_METHODS)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=60)
    p.add_argument("--seed", type=_NONNEGATIVE, default=11)
    p.add_argument("--output-dir", dest="output_dir", default="deblur_out")
    p.set_defaults(func=cmd_deblur)

    p = sub.add_parser("oracle-check", help="verify structural properties on random instances")
    p.add_argument("--m", type=_POSITIVE, default=30)
    p.add_argument("--n", type=_POSITIVE, default=20)
    p.add_argument("--rank", type=_NONNEGATIVE, default=0)
    p.add_argument("--steps", type=_POSITIVE, default=20)
    p.add_argument("--seed", type=_NONNEGATIVE, default=3)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IoError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdownError, TrivialDataError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except IdarrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
