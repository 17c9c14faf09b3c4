"""The four benchmark workloads: their inputs, command lines and output checks.

Each workload builds its inputs from the seed (``prepare``), names the
``idarr`` command lines one instance runs (``argvs``), and checks the files
and output an instance left behind (``check``). A check returns an
``Outcome``: how many operations (solves) were attempted and how many
failed, and the per-solve samples the metrics are made from.

An operation fails on a nonzero exit code, a missing output, a non-finite
solution, a reported loss or residual that disagrees with the benchmark's
own ||Ax - b|| recomputed from the written solution, or ``converged=True``
reported with a non-finite residual.
"""

import configparser
import csv
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

ITERATIVE = ("iDARR", "IR-l2", "IR-L2")
FREDHOLM_CONFIGS = ("exp_in_range", "exp_out_of_range", "poly_in_range", "poly_out_of_range")
LOSS_RTOL = 1e-9       # loss column vs recomputed ||Ax - b||^2 (same arithmetic)
RESIDUAL_RTOL = 1e-5   # solve prints the residual to 6 significant digits


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    solves: int = 0
    iter_ms: list = field(default_factory=list)
    direct_ms: list = field(default_factory=list)
    rel_errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _command_ok(outcome, command, ops):
    if command["code"] != 0:
        outcome.fail(ops, f"{command['argv'][0]} exited {command['code']}: "
                          f"{(command['error'] or '').strip()[-300:]}")
        return False
    return True


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    capture = False   # keep the solutions the solver functions return

    def __init__(self, root):
        self.root = root

    def prepare(self, workdir, seed):
        self.seed = seed


class Fredholm(Workload):
    """fredholm-bench over the four configs: 1,600 small solves on two operators."""

    name = "fredholm"

    def __init__(self, root):
        super().__init__(root)
        self.paths = [os.path.join(root, "configs", f"{c}.cfg") for c in FREDHOLM_CONFIGS]
        self._setups = {}

    def prepare(self, workdir, seed):
        super().prepare(workdir, seed)
        self.configs = []
        for path in self.paths:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
            sec = parser["experiment"]
            self.configs.append({
                "kernel": sec["kernel"], "m": sec.getint("m"), "n": sec.getint("n"),
                "truth": sec["truth"], "trials": sec.getint("trials"),
                "methods": [v.strip() for v in sec["methods"].split(",") if v.strip()],
                "nsr": [float(v) for v in sec["nsr_ladder"].split(",") if v.strip()],
            })

    def argvs(self, outdir):
        return [["fredholm-bench", "--config", path, "--seed-base", str(self.seed),
                 "--output-dir", os.path.join(outdir, f"cfg{i}")]
                for i, path in enumerate(self.paths)]

    def _problem(self, cfg):
        from idarr.problems import clean_problem, make_fredholm, true_solution

        key = (cfg["kernel"], cfg["m"], cfg["n"], cfg["truth"])
        if key not in self._setups:
            setup = make_fredholm(cfg["kernel"], cfg["m"], cfg["n"])
            truth = true_solution(setup, cfg["truth"])
            self._setups[key] = (setup, truth, clean_problem(setup, truth))
        return self._setups[key]

    def check(self, outdir, commands, _solutions):
        from idarr.problems import add_noise

        out = Outcome()
        for i, (cfg, command) in enumerate(zip(self.configs, commands)):
            ops = len(cfg["methods"]) * len(cfg["nsr"]) * cfg["trials"]
            out.attempted += ops
            if not _command_ok(out, command, ops):
                continue
            cdir = os.path.join(outdir, f"cfg{i}")
            missing = [f for f in ("results.csv", "stopping.csv", "stats.csv")
                       if not os.path.exists(os.path.join(cdir, f))]
            if missing:
                out.fail(ops, f"config {i}: missing {missing}")
                continue
            rows = _read_csv(os.path.join(cdir, "results.csv"))
            if len(rows) != ops:
                out.fail(abs(ops - len(rows)), f"config {i}: {len(rows)} rows, expected {ops}")
            setup, truth, clean = self._problem(cfg)
            a = setup.linmap.entries
            rho = setup.geom.rho
            truth_norm = math.sqrt(float(rho @ (truth * truth)))
            nsr_by_text = {f"{v:g}": v for v in cfg["nsr"]}
            for row in rows[:ops]:
                path = os.path.join(cdir, "solutions",
                                    f"{row['method']}_nsr{row['nsr']}_trial{row['trial']}.bin")
                x = _read_vector(path)
                if x is None or x.shape != (cfg["n"],):
                    out.fail(1, f"missing or malformed solution {path}")
                    continue
                if not _finite(x):
                    out.fail(1, f"non-finite solution {path}")
                    continue
                b = add_noise(clean, nsr_by_text[row["nsr"]], int(row["seed"])).b
                res = a @ x - b
                loss = float(res @ res)
                if not math.isclose(float(row["loss"]), loss, rel_tol=LOSS_RTOL, abs_tol=1e-300):
                    out.fail(1, f"loss {row['loss']} != recomputed {loss!r} in {path}")
                    continue
                d = x - truth
                out.rel_errors.append(math.sqrt(float(rho @ (d * d))) / truth_norm)
                ms = float(row["wall_time_ms"])
                (out.iter_ms if row["method"] in ITERATIVE else out.direct_ms).append(ms)
                out.solves += 1
        return out


class Deblur(Workload):
    """One large matrix-free iDARR solve on a 256 x 256 image."""

    name = "deblur"
    max_iters = 60

    def argvs(self, outdir):
        return [["deblur", "--image", "blobs:256", "--psf", "gaussian:2", "--nsr", "0.01",
                 "--method", "iDARR", "--max-iters", str(self.max_iters),
                 "--seed", str(self.seed), "--output-dir", outdir]]

    def check(self, outdir, commands, _solutions):
        out = Outcome(attempted=1)
        if not _command_ok(out, commands[0], 1):
            return out
        names = ("blurred.pgm", "restored.pgm", "error_curve.csv", "summary.json")
        missing = [f for f in names if not os.path.exists(os.path.join(outdir, f))]
        if missing:
            out.fail(1, f"missing {missing}")
            return out
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        curve = _read_csv(os.path.join(outdir, "error_curve.csv"))
        k = summary.get("k_stop")
        values = [summary.get("residual"), summary.get("rel_error_l2"), summary.get("elapsed_s")]
        if not all(isinstance(v, (int, float)) for v in values) or not _finite(values):
            out.fail(1, f"non-finite or missing summary values {values}")
        elif not isinstance(k, int) or not 1 <= k <= len(curve) <= self.max_iters:
            out.fail(1, f"k_stop {k} outside the {len(curve)}-row error curve")
        elif float(curve[k - 1]["rel_error_l2"]) != summary["rel_error_l2"]:
            out.fail(1, "summary rel_error_l2 disagrees with the error curve at k_stop")
        elif not _finite([float(v) for r in curve for v in r.values()]):
            out.fail(1, "non-finite value in error_curve.csv")
        else:
            out.rel_errors.append(summary["rel_error_l2"])
            out.iter_ms.append(1e3 * summary["elapsed_s"])
            out.solves = 1
        return out


class Timing(Workload):
    """The cold-solve scaling sweep: independent iDARR and DARTR solves, n = 200..800."""

    name = "timing"
    capture = True
    ladder = (200, 400, 800)
    replicas = 10

    def argvs(self, outdir):
        return [["timing", "--n-ladder", ",".join(map(str, self.ladder)), "--m", "500",
                 "--k-fixed", "10", "--replicas", str(self.replicas),
                 "--seed", str(self.seed), "--output-dir", outdir]]

    def check(self, outdir, commands, solutions):
        expected_iter = self.replicas * len(self.ladder)
        out = Outcome()
        if not _command_ok(out, commands[0], expected_iter + len(self.ladder)):
            out.attempted = out.failed
            return out
        path = os.path.join(outdir, "timing.csv")
        rows = _read_csv(path) if os.path.exists(path) else []
        out.attempted = max(len(rows), expected_iter + len(self.ladder))
        iter_rows = [r for r in rows if r["solver"] == "iDARR"]
        direct_rows = [r for r in rows if r["solver"] == "DARTR"]
        missing = expected_iter - len(iter_rows)
        for n in self.ladder:
            if not any(int(r["n"]) == n for r in direct_rows):
                missing += 1
        if missing > 0:
            out.fail(missing, f"timing.csv lacks {missing} expected rows")
        for r in iter_rows + direct_rows:
            ms = float(r["wall_time_ms"])
            if not (math.isfinite(ms) and ms > 0):
                out.fail(1, f"bad time {r}")
                continue
            (out.iter_ms if r["solver"] == "iDARR" else out.direct_ms).append(ms)
        bad = [s for s in solutions if not s["finite"] or s["rel_error"] is None]
        if bad:
            out.fail(len(bad), f"{len(bad)} non-finite or unmatched solutions")
        # Accuracy only of the corner-selected DARTR solutions: the sweep runs
        # iDARR for a fixed 10 steps with no stopping rule, so their error
        # follows the noise draw (0.2 to 5.4 over ten seeds), not the method.
        out.rel_errors = [s["rel_error"] for s in solutions
                          if s["solver"] == "dartr_solve" and s["rel_error"] is not None]
        out.solves = len(solutions) - len(bad)
        return out


class Solve(Workload):
    """Repeated ``solve --reorthogonalize`` on a saved 2000 x 1000 dense problem."""

    name = "solve"
    nsr_levels = (0.005, 0.01, 0.02)

    def prepare(self, workdir, seed):
        from idarr.arrayio import write_array
        from idarr.problems import make_fredholm, save_operator

        setup = make_fredholm("poly", 2000, 1000)
        a = setup.linmap.entries
        # a smooth truth in the range of C = B (A^T A)^+ B, so it is recoverable
        t = np.linspace(0.0, 1.0, a.shape[0])
        x_true = setup.geom.rho * (a.T @ (np.sin(3.0 * t) + 0.5 * np.cos(7.0 * t)))
        b_clean = a @ x_true
        rng = np.random.default_rng(seed)
        self.a = a
        self.x_true = x_true
        self.descriptor = save_operator(setup.linmap, workdir)
        self.data = []
        for i, nsr in enumerate(self.nsr_levels):
            noise = rng.standard_normal(a.shape[0])
            b = b_clean + nsr * np.linalg.norm(b_clean) * noise / np.linalg.norm(noise)
            path = os.path.join(workdir, f"b{i}.bin")
            write_array(path, b)
            self.data.append((path, b))

    def argvs(self, outdir):
        return [["solve", "--operator", self.descriptor, "--data", path,
                 "--reorthogonalize", "--max-iters", "100",
                 "--out", os.path.join(outdir, f"x{i}.bin")]
                for i, (path, _) in enumerate(self.data)]

    def check(self, outdir, commands, _solutions):
        out = Outcome()
        truth_norm = float(np.linalg.norm(self.x_true))
        for i, ((_, b), command) in enumerate(zip(self.data, commands)):
            out.attempted += 1
            if not _command_ok(out, command, 1):
                continue
            fields = dict(re.findall(r"(\w+)=(\S+)", command["stdout"]))
            x = _read_vector(os.path.join(outdir, f"x{i}.bin"))
            if x is None or x.shape != self.x_true.shape:
                out.fail(1, f"missing or malformed solution x{i}.bin")
                continue
            if not _finite(x):
                out.fail(1, f"non-finite solution x{i}.bin")
                continue
            try:
                residual = float(fields["residual"])
                elapsed_ms = float(fields["elapsed_ms"])
            except (KeyError, ValueError):
                out.fail(1, f"unparsable output {command['stdout']!r}")
                continue
            if fields.get("converged") == "True" and not math.isfinite(residual):
                out.fail(1, f"converged=True with residual {residual}")
                continue
            actual = float(np.linalg.norm(self.a @ x - b))
            if not math.isclose(residual, actual, rel_tol=RESIDUAL_RTOL):
                out.fail(1, f"reported residual {residual} != recomputed {actual}")
                continue
            out.rel_errors.append(float(np.linalg.norm(x - self.x_true)) / truth_norm)
            out.iter_ms.append(elapsed_ms)
            out.solves += 1
        return out


def _read_vector(path):
    from idarr.arrayio import read_array
    from idarr.errors import IoError

    try:
        return read_array(path)
    except IoError:
        return None


WORKLOADS = {w.name: w for w in (Fredholm, Deblur, Timing, Solve)}
