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
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .arrayio import aligned_empty, read_array, write_array
from .bidiag import run_bidiag
from .errors import (
    DimensionError,
    GeometryError,
    IdarrError,
    IoError,
    NumericalBreakdownError,
    TrivialDataError,
    UsageError,
)
from .linops import KERNELS, DenseMap, write_pgm
from .problems import (
    NSR_LADDER,
    TRUTH_KINDS,
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

# Each method is a solver family, iterative or direct, under a penalty norm: the
# data-adaptive "rkhs" norm, "L2" (weighted by the exploration measure rho) or "l2".
METHODS = {
    "iDARR": (True, "rkhs"),
    "IR-l2": (True, "l2"),
    "IR-L2": (True, "L2"),
    "l2-direct": (False, "l2"),
    "L2-direct": (False, "L2"),
    "DARTR": (False, "rkhs"),
}
ALL_METHODS = tuple(METHODS)
ITERATIVE_METHODS = tuple(name for name, (iterative, _) in METHODS.items() if iterative)

RESULT_COLUMNS = (
    "method", "nsr", "trial", "k_stop", "l2rho_error",
    "relative_error", "loss", "wall_time_ms", "seed", "converged",
)
STOP_COLUMNS = ("method", "nsr", "trial", "k_lcurve", "k_dp", "weak_corner")


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
    tau: float = Discrepancy.tau
    max_iters: int = LCurve.max_iters
    seed_base: int = 1
    output_dir: str = "results"


def _validate_config(cfg):
    if cfg.kernel not in KERNELS:
        raise UsageError(f"kernel must be one of {list(KERNELS)}, got {cfg.kernel!r}")
    if cfg.truth not in TRUTH_KINDS:
        raise UsageError(f"truth must be one of {list(TRUTH_KINDS)}, got {cfg.truth!r}")
    cfg.truth = TRUTH_KINDS[cfg.truth]
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
    try:  # the rules own the bounds on tau and max_iters; k_dp reads tau under lcurve too
        Discrepancy(0.0, cfg.tau)
        _bench_rule(cfg, 0.0)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if cfg.seed_base < 0:
        raise UsageError(f"seed_base must be nonnegative, got {cfg.seed_base}")


def _bench_rule(cfg, noise_norm):
    """The stopping rule of cfg's rows, for data whose noise has norm noise_norm."""
    return (LCurve(max_iters=cfg.max_iters) if cfg.stop_rule == "lcurve" else
            Discrepancy(noise_norm=noise_norm, tau=cfg.tau, max_iters=cfg.max_iters))


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


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _worker_count():
    """Benchmark worker processes: IDARR_THREADS (default 1), at most the usable CPUs.

    Usable CPUs are those this process may run on (its affinity mask), or
    the host's count where the platform has no affinity call.
    """
    raw = os.environ.get("IDARR_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(f"IDARR_THREADS must be a positive integer, got {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        return min(count, len(os.sched_getaffinity(0)))
    return min(count, os.cpu_count() or 1)


# -- benchmark rows ----------------------------------------------------------

@dataclass(frozen=True)
class BenchOperator:
    """A bench operator: its setup, A = QR, and the geometry of R~ = [R; 0] under A's rho.

    Golub-Kahan is invariant under an orthogonal change of data space, and ||R~ x - b~|| =
    ||A x - b|| and R~^T R~ = A^T A, so in exact arithmetic a run on (R~, reduce(b)) has A's
    iterates at O(n^2) per product and a ladder on it is A's. R's column sums differ from A's.
    """

    setup: object
    q: np.ndarray
    reduced: RkhsGeometry

    def reduce(self, b):
        """b~ = [Q^T b; ||b - Q Q^T b||], with the residual entry exactly where R~ has its row."""
        qb = self.q.T @ b
        return (qb if len(qb) == self.reduced.linmap.rows else
                np.append(qb, np.linalg.norm(b - self.q @ qb)))


@lru_cache(maxsize=None)
def _bench_operator(kernel, m, n):
    """The BenchOperator of make_fredholm(kernel, m, n), built once per process."""
    setup = make_fredholm(kernel, m, n)
    q, r = np.linalg.qr(setup.linmap.as_dense())
    # [R; 0] for m > n; otherwise Q is square, and a residual entry would be roundoff
    reduced = aligned_empty((min(m, n + 1), n))
    reduced[:len(r)], reduced[len(r):] = r, 0.0
    return BenchOperator(setup, q, RkhsGeometry(DenseMap(reduced), setup.geom.rho))


@lru_cache(maxsize=None)
def _clean_problem(kernel, m, n, truth):
    """The noise-free problem of the operator under truth; a row only draws its noise."""
    setup = _bench_operator(kernel, m, n).setup
    return clean_problem(setup, true_solution(setup, truth))


@lru_cache(maxsize=None)
def _get_factored(kernel, m, n, method):
    """A direct method's factorization of R~; the weighted norms reuse A's eigenpairs."""
    norm = METHODS[method][1]
    bench = _bench_operator(kernel, m, n)
    decomp = None if norm == "l2" else bench.setup.decomposition()
    return DirectFactorization.build(bench.reduced.linmap, norm, bench.reduced.rho, decomp)


def _check_keywords(method, kw):
    """Raise UsageError when kw is not empty and method is direct: that family takes none."""
    if kw and not METHODS[method][0]:
        raise UsageError(f"{method} is a direct method; it takes no {', '.join(kw)}")


def run_method(method, linmap, geom, b, stop, factored=None, **kw):
    """Solve for b with method, a key of METHODS: its family under its norm, at stop's point.

    geom is read only under the weighted norms ("L2", "rkhs"); the keywords
    (reorthogonalize, store_iterates) only by the iterative family, so a
    direct method given any fails. It solves through factored, its
    DirectFactorization of linmap, when one is given, and otherwise through
    its cold one-shot. Solvers are looked up by module name at call time.
    """
    _check_keywords(method, kw)
    iterative, norm = METHODS[method]
    if iterative:
        solve = {"rkhs": idarr_solve, "L2": irL2_solve, "l2": irl2_solve}[norm]
        return solve(linmap if norm == "l2" else geom, b, stop, **kw)
    if factored is not None:
        return factored.solve(b, stop)
    if norm == "rkhs":
        return dartr_solve(linmap, geom.rho, b, stop)
    return tikhonov_direct(linmap, b, None if norm == "l2" else geom.rho, stop)


def run_bench_row(cfg, method, nsr, trial):
    """Run one (method, nsr, trial) cell of cfg; returns its results and stopping row, and x."""
    seed = row_seed(cfg.seed_base, method, nsr, trial)
    op = (cfg.kernel, cfg.m, cfg.n)
    problem = add_noise(_clean_problem(*op, cfg.truth), nsr, seed)
    lcurve = cfg.stop_rule == "lcurve"
    stop = _bench_rule(cfg, problem.noise_norm)
    # reduced and factored once per process, so a row times only its own solve
    bench = _bench_operator(*op)
    factored = None if method in ITERATIVE_METHODS else _get_factored(*op, method)
    t0 = time.perf_counter()
    result = run_method(method, bench.reduced.linmap, bench.reduced, bench.reduce(problem.b),
                        stop, factored)
    elapsed = time.perf_counter() - t0
    x = result.x
    err = l2rho_error(problem.geom, x, problem.x_true)
    truth_norm = problem.geom.weighted_norm(problem.x_true)
    res = problem.linmap.apply(x) - problem.b
    row = {
        "method": method,
        "nsr": f"{nsr:g}",
        "trial": trial,
        "k_stop": result.k_stop,
        "l2rho_error": f"{err:.17g}",
        "relative_error": f"{err / truth_norm:.17g}",
        "loss": f"{float(res @ res):.17g}",
        "wall_time_ms": f"{elapsed * 1e3:.3f}",
        "seed": seed,
        "converged": result.converged,
        "k_lcurve": result.k_stop if lcurve else "",
        "k_dp": dp_stop(result.history[:, 0], problem.noise_norm, cfg.tau),
        "weak_corner": int(result.weak_corner) if lcurve else "",
    }
    return row, x


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
    try:  # cached for the rows; an operator with no in-range truth makes no directory
        _clean_problem(cfg.kernel, cfg.m, cfg.n, cfg.truth)
    except GeometryError as exc:
        raise UsageError(f"truth {cfg.truth!r} on a {cfg.m}x{cfg.n} operator: {exc}") from None

    cells = list(product(cfg.methods, cfg.nsr_ladder, range(1, cfg.trials + 1)))
    run_cell = partial(run_bench_row, cfg)
    workers = _worker_count()
    # created before the work, so an unwritable directory fails before any solve
    sol_dir = os.path.join(cfg.output_dir, "solutions")
    os.makedirs(sol_dir, exist_ok=True)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_cell, *zip(*cells), chunksize=4))
    else:
        outcomes = [run_cell(*cell) for cell in cells]

    out = cfg.output_dir
    write_config(cfg, os.path.join(out, "config_used.cfg"))
    for name, columns in (("results.csv", RESULT_COLUMNS), ("stopping.csv", STOP_COLUMNS)):
        _write_csv(os.path.join(out, name), columns,
                   ([row[c] for c in columns] for row, _ in outcomes))
    for row, x in outcomes:
        name = f"{row['method']}_nsr{row['nsr']}_trial{row['trial']}.bin"
        write_array(os.path.join(sol_dir, name), x)
    stats = []
    for method, nsr in product(cfg.methods, (f"{v:g}" for v in cfg.nsr_ladder)):
        vals = [float(row["l2rho_error"]) for row, _ in outcomes
                if row["method"] == method and row["nsr"] == nsr]
        stats.append([method, nsr, *_boxplot_row(vals)])
    _write_csv(os.path.join(out, "stats.csv"),
               ("method", "nsr", "count", "median", "q1", "q3", "whisker_lo", "whisker_hi",
                "n_outliers"), stats)
    print(f"wrote {len(cells)} rows to {os.path.join(out, 'results.csv')}")
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
    solvers = (("iDARR", replicas, FixedIters(k_fixed)), ("DARTR", max(3, replicas // 5), LCurve()))
    for problem in problems.values():
        for name, _, stop in solvers:
            run_method(name, problem.linmap, problem.geom, problem.b, stop)
    rows = []
    best = {}
    order = list(n_ladder)
    shuffler = random.Random(seed)
    gc.disable()
    try:
        for name, rounds, stop in solvers:
            for rep in range(1, rounds + 1):
                shuffler.shuffle(order)
                for n in order:
                    problem = problems[n]
                    t0 = time.perf_counter()
                    run_method(name, problem.linmap, problem.geom, problem.b, stop)
                    ms = (time.perf_counter() - t0) * 1e3
                    rows.append((name, n, rep, ms))
                    best[name, n] = min(best.get((name, n), ms), ms)
    finally:
        gc.enable()
    return rows, best


def cmd_timing(args):
    ladder = args.n_ladder
    os.makedirs(args.output_dir, exist_ok=True)
    rows, best = run_timing_sweep(ladder, m=args.m, k_fixed=args.k_fixed,
                                  replicas=args.replicas, seed=args.seed)
    out_path = os.path.join(args.output_dir, "timing.csv")
    _write_csv(out_path, ("solver", "n", "replica", "wall_time_ms"),
               ([solver, n, rep, f"{ms:.3f}"] for solver, n, rep, ms in rows))
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
    except (ValueError, DimensionError) as exc:
        # bad synthetic-image kind or side, bad or oversized psf width,
        # negative or non-finite ratio, too short an iteration budget ...
        raise UsageError(str(exc)) from exc
    os.makedirs(args.output_dir, exist_ok=True)
    side = problem.linmap.side
    t0 = time.perf_counter()
    # error_curve.csv reads every iterate, whatever the rule keeps
    result = run_method(args.method, problem.linmap, problem.geom, problem.b, stop,
                        store_iterates=True)
    elapsed = time.perf_counter() - t0
    write_pgm(os.path.join(args.output_dir, "blurred.pgm"),
              np.clip(problem.b.reshape(side, side), 0, 1) * 255)
    write_pgm(os.path.join(args.output_dir, "restored.pgm"),
              np.clip(result.x.reshape(side, side), 0, 1) * 255)
    truth = problem.x_true
    tnorm = float(np.linalg.norm(truth))
    wnorm = problem.geom.weighted_norm(truth)
    _write_csv(os.path.join(args.output_dir, "error_curve.csv"),
               ("k", "residual", "penalty_norm", "rel_error_l2", "rel_error_weighted"),
               ([k, f"{res:.17g}", f"{pen:.17g}",
                 f"{np.linalg.norm(x_k - truth) / tnorm:.17g}",
                 f"{l2rho_error(problem.geom, x_k, truth) / wnorm:.17g}"]
                for k, ((res, pen), x_k) in enumerate(zip(result.history, result.iterates), 1)))
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


def _parse_stop_flag(spec, budget):
    kind, _, rest = spec.partition(":")
    try:
        if spec == "lcurve":
            return LCurve(**budget)
        if kind == "dp":
            noise, _, tau = rest.partition(":")
            return Discrepancy(noise_norm=float(noise), tau=float(tau) if tau else Discrepancy.tau,
                               **budget)
        if kind == "fixed" and not budget:
            return FixedIters(int(rest))
    except ValueError as exc:
        raise UsageError(f"bad stop spec {spec!r}: {exc}") from None
    raise UsageError(f"bad stop spec {spec!r}; expected lcurve, dp:NOISE[:TAU] or fixed:K "
                     "(fixed:K takes no --max-iters)")


def _read_data(path, rows):
    """The data vector at path, checked to be finite and of length rows."""
    b = read_array(path)
    if b.shape != (rows,):
        raise IoError(f"{path}: expected a vector of length {rows}, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise IoError(f"{path}: data vector has non-finite entries")
    return b


def cmd_solve(args):
    norm = METHODS[args.method][1]
    kw = {"reorthogonalize": True} if args.reorthogonalize else {}
    budget = {} if args.max_iters is None else {"max_iters": args.max_iters}
    _check_keywords(args.method, {**kw, **budget})  # a ladder reads no budget
    stop = _parse_stop_flag(args.stop, budget)
    fresh = not os.path.exists(args.out)
    open(args.out, "ab").close()  # an unwritable --out fails before any work
    try:
        linmap = load_operator(args.operator)
        b = _read_data(args.data, linmap.rows)
        t0 = time.perf_counter()
        geom = None if norm == "l2" else RkhsGeometry(linmap, compute_exploration_weights(linmap))
        result = run_method(args.method, linmap, geom, b, stop, **kw)
        elapsed = time.perf_counter() - t0
        write_array(args.out, result.x)
    except BaseException:
        if fresh:  # a failed run leaves no output file
            os.remove(args.out)
        raise
    print(f"method={args.method} k_stop={result.k_stop} residual={result.residual:.6g} "
          f"converged={result.converged} elapsed_ms={elapsed * 1e3:.1f} -> {args.out}")
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
    p.add_argument("--method", default=ALL_METHODS[0], choices=ALL_METHODS)
    p.add_argument("--stop", default="lcurve", help="lcurve | dp:NOISE[:TAU] | fixed:K")
    p.add_argument("--max-iters", type=int, help=f"lcurve/dp budget (default {LCurve.max_iters})")
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
    p.add_argument("--method", default=ITERATIVE_METHODS[0], choices=ITERATIVE_METHODS)
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
