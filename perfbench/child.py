"""Run one workload instance in a fresh Python process.

    python3 perfbench/child.py SPEC.json

SPEC.json names the ``idarr`` command lines to run in sequence (each one a
call of ``idarr.cli.main``, the entry point of the ``idarr`` script), whether
to trace, and where to write the result. The result holds, per command, its
exit code, standard output and seconds, and for the instance its wall time,
the time spent in the program's set-up constructors, and its peak memory.
The runner (run.py) starts this script with ``src`` on PYTHONPATH and the
BLAS thread count already fixed in the environment.
"""

import contextlib
import io
import json
import math
import resource
import sys
import traceback
from time import perf_counter

import spans

# Constructors the commands run first; their time is the instance's set-up.
SETUP_FUNCTIONS = (
    "make_fredholm", "true_solution", "make_deblur", "load_operator",
    "compute_exploration_weights",
)


class SetupClock:
    """Sums the time of outermost calls to the set-up constructors in idarr.cli."""

    def __init__(self, cli):
        self.seconds = 0.0
        self.truths = []
        self._depth = 0
        for name in SETUP_FUNCTIONS:
            setattr(cli, name, self._timed(getattr(cli, name), name == "true_solution"))

    def _timed(self, fn, keep_result):
        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += perf_counter() - t0
            if keep_result:
                self.truths.append(result)
            return result
        return wrapper


class SolutionCapture:
    """Keeps the solutions that the solver functions return to idarr.cli."""

    def __init__(self, cli):
        self.solutions = []
        for name in ("idarr_solve", "dartr_solve"):
            setattr(cli, name, self._kept(getattr(cli, name), name))

    def _kept(self, fn, name):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.solutions.append((name, result.x.copy()))
            return result
        return wrapper

    def summary(self, truths):
        """Per solution: solver, finiteness and l2 error relative to the truth of its length."""
        import numpy as np

        by_len = {len(t): np.asarray(t, dtype=float) for t in truths}
        out = []
        for name, x in self.solutions:
            t = by_len.get(len(x))
            finite = bool(np.all(np.isfinite(x)))
            rel = float(np.linalg.norm(x - t) / np.linalg.norm(t)) if finite and t is not None else None
            out.append({"solver": name, "finite": finite, "rel_error": rel})
        return out


def run_instance(spec):
    import idarr
    import idarr.cli as cli

    clock = SetupClock(cli)
    capture = SolutionCapture(cli) if spec.get("capture") else None
    tracer = None
    if spec.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer)
    commands = []
    for argv in spec["argvs"]:
        out = io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:  # an uncaught error is a failed command, as in the script
            code = 1
            error = traceback.format_exc()
        commands.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                         "error": error, "seconds": perf_counter() - t0})
    result = {
        "idarr_file": idarr.__file__,
        "commands": commands,
        "wall_s": math.fsum(c["seconds"] for c in commands),
        "setup_s": clock.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solutions": capture.summary(clock.truths) if capture else None,
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        if spec.get("trace_out"):
            tracer.write(spec["trace_out"])
    return result


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_instance(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
