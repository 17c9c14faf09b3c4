"""Span tracing of the idarr package from outside, for the traced benchmark run.

The tracer replaces public functions and methods of the package with thin
wrappers that record one span per call (name, parent span, start, end) and
a few counters. Nothing in the package itself changes: module-level
functions are wrapped under the name the caller looks up, because a module
that did ``from .rkhs import dartr_solve`` holds its own reference.

Spans stay in memory until the run ends. Self time is a span's duration
minus the part of its interval that its child spans cover.
"""

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder that patches attributes and can restore them."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = Counter()
        self._stack = []
        self._patches = []
        self._span_names = set()

    def wrap(self, owner, attr, span, on_return=None):
        """Replace ``owner.attr`` by a wrapper recording span ``span``.

        ``on_return(counters, args, result)`` runs after a call returns, to
        update counters from the arguments and the result.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(span)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if on_return is not None:
                on_return(tracer.counters, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._span_names.add(span)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-span-name ``calls``, ``s`` and ``self_s``, plus the counters.

        ``s`` sums only outermost spans of a name, so a wrapped function
        reached again from inside itself is not counted twice.
        """
        own = self_times(self.parents, self.starts, self.ends)
        out = defaultdict(float)
        for name in self._span_names:
            for stat in ("calls", "s", "self_s"):
                out[f"{name}.{stat}"] = 0
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                out[f"{name}.s"] += self.ends[i] - self.starts[i]
        out.update(self.counters)
        return dict(out)

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(f'{{"id":{i},"parent":{self.parents[i]},"name":{json.dumps(name)},'
                         f'"start":{self.starts[i] - t0:.9f},"end":{self.ends[i] - t0:.9f}}}\n')


def self_times(parents, starts, ends):
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or straddling children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    own = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own


# -- the idarr layers ---------------------------------------------------------


COUNTERS = (
    "linops.flops_computed", "linops.bytes_computed", "bidiag.exhausted_alpha",
    "bidiag.exhausted_beta", "solver.iterations", "solver.k_stop_total",
    "solver.weak_corners", "solver.not_converged", "arrayio.read.bytes", "arrayio.write.bytes",
)


def _product_cost(op):
    """(flops, bytes) of one product, computed from the operator's type and size.

    Dense: one multiply-add per entry, streaming the matrix and both vectors.
    PSF: one multiply-add per nonzero tap and pixel, each tap streaming the
    input and the accumulator and writing the accumulator. Diagonal: one
    multiply per entry over three vectors. Other maps count zero.
    """
    from idarr.linops import DenseMap, DiagonalMap, PsfConvolutionMap

    if isinstance(op, DenseMap):
        return 2 * op.rows * op.cols, 8 * (op.rows * op.cols + op.rows + op.cols)
    if isinstance(op, PsfConvolutionMap):
        taps = int((op.psf != 0).sum())
        return 2 * taps * op.rows, 24 * taps * op.rows
    if isinstance(op, DiagonalMap):
        return op.rows, 24 * op.rows
    return 0, 0


def _count_product(counters, args, _result):
    flops, nbytes = _product_cost(args[0])
    counters["linops.flops_computed"] += flops
    counters["linops.bytes_computed"] += nbytes


def _count_init(counters, args, _result):
    proc = args[0]
    if proc.terminated:
        counters[f"bidiag.exhausted_{proc.reason}"] += 1


def _count_advance(counters, _args, step):
    if step.terminated:
        counters[f"bidiag.exhausted_{step.reason}"] += 1


def _count_solve(counters, _args, result):
    counters["solver.iterations"] += len(result.history)
    counters["solver.k_stop_total"] += result.k_stop
    counters["solver.weak_corners"] += int(result.weak_corner)
    counters["solver.not_converged"] += int(not result.converged)


def _count_read(counters, _args, arr):
    counters["arrayio.read.bytes"] += arr.nbytes


def _count_write(counters, args, _result):
    counters["arrayio.write.bytes"] += 8 * args[1].size


def install(tracer):
    """Wrap the public functions of every idarr layer with spans."""
    from idarr import bidiag, cli, linops, problems, rkhs, solver

    tracer.counters.update(dict.fromkeys(COUNTERS, 0))
    tracer.wrap(cli, "main", "cli")
    tracer.wrap(linops.LinearMap, "apply", "linops.apply", _count_product)
    tracer.wrap(linops.LinearMap, "apply_adjoint", "linops.apply_adjoint", _count_product)
    tracer.wrap(rkhs.RkhsGeometry, "apply_crkhs_pinv", "rkhs.crkhs_pinv")
    tracer.wrap(rkhs, "generalized_eig", "rkhs.generalized_eig")
    tracer.wrap(problems, "generalized_eig", "rkhs.generalized_eig")
    tracer.wrap(rkhs, "compute_exploration_weights", "rkhs.exploration_weights")
    tracer.wrap(cli, "compute_exploration_weights", "rkhs.exploration_weights")
    tracer.wrap(cli, "dartr_solve", "rkhs.dartr_solve")
    tracer.wrap(cli, "tikhonov_direct", "rkhs.tikhonov_direct")
    tracer.wrap(bidiag.BidiagProcess, "__init__", "bidiag.init", _count_init)
    tracer.wrap(bidiag.BidiagProcess, "advance", "bidiag.advance", _count_advance)
    tracer.wrap(solver.UpdateState, "step", "solver.update")
    tracer.wrap(solver, "lcurve_corner", "solver.lcurve_corner")
    tracer.wrap(cli, "dp_stop", "solver.dp_stop")
    for name in ("idarr_solve", "irl2_solve", "irL2_solve"):
        tracer.wrap(cli, name, "solver.iterate", _count_solve)
    for name in ("make_fredholm", "true_solution", "make_deblur"):
        tracer.wrap(cli, name, "problems.setup")
    tracer.wrap(cli, "load_operator", "problems.load_operator")
    for name in ("clean_problem", "add_noise", "l2rho_error"):
        tracer.wrap(cli, name, "problems.data")
    tracer.wrap(cli, "read_array", "arrayio.read", _count_read)
    tracer.wrap(problems, "read_array", "arrayio.read", _count_read)
    tracer.wrap(cli, "write_array", "arrayio.write", _count_write)


def layer_metrics(tracer):
    """All span and counter metrics, with the derived ones added."""
    out = tracer.metrics()
    iterations = out.get("solver.iterations", 0)
    out["solver.useful_iter_ratio"] = (
        out.get("solver.k_stop_total", 0) / iterations if iterations else 0.0
    )
    return out
