"""Tests of the benchmark itself: tracing, self time, metric names, counts, checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import spans  # noqa: E402
import workloads  # noqa: E402
from idarr import cli  # noqa: E402
from idarr.problems import add_noise, clean_problem, make_fredholm, true_solution  # noqa: E402

SMALL_BENCH = ["fredholm-bench", "--kernel", "exp", "--m", "60", "--n", "20",
               "--nsr-ladder", "0.5,0.125", "--trials", "2",
               "--methods", "iDARR,IR-l2,IR-L2,DARTR,L2-direct", "--max-iters", "15",
               "--seed-base", "4"]


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _solve_all():
    setup = make_fredholm("exp", 60, 20)
    problem = add_noise(clean_problem(setup, true_solution(setup, "in-range")), 0.1, 3)
    geom, b = problem.geom, problem.b
    stop = cli.LCurve(min_iters=10, max_iters=15)
    return [
        cli.idarr_solve(geom, b, stop).x,
        cli.irl2_solve(geom.linmap, b, stop).x,
        cli.irL2_solve(geom, b, stop, reorthogonalize=True).x,
        cli.dartr_solve(geom.linmap, geom.rho, b).x,
        cli.tikhonov_direct(geom.linmap, b, weights=geom.rho).x,
    ]


def _bench_solutions(outdir):
    assert cli.main(SMALL_BENCH + ["--output-dir", str(outdir)]) == 0
    sol = outdir / "solutions"
    return {name: (sol / name).read_bytes() for name in sorted(os.listdir(sol))}


def test_wrapped_solves_are_bitwise_equal(tmp_path):
    originals = {name: vars(cli)[name] for name in ("main", "idarr_solve", "dartr_solve")}
    plain = _solve_all()
    plain_files = _bench_solutions(tmp_path / "plain")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = _solve_all()
        traced_files = _bench_solutions(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert tracer.metrics()["linops.apply.calls"] > 0
    for a, b in zip(plain, traced):
        assert a.tobytes() == b.tobytes()
    assert plain_files == traced_files
    assert all(vars(cli)[name] is fn for name, fn in originals.items())


def test_self_time_of_synthetic_spans():
    # root [0, 10]; children a [1, 4] and b [3, 6] overlap, c [8, 12] straddles
    # the root's end; a has its own child [2, 3]
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = spans.self_times(parents, starts, ends)
    assert own == pytest.approx([10 - (5 + 2), 3 - 1, 3, 4, 1])

    tracer = spans.Tracer()
    tracer.names = ["cli", "x", "x", "y"]
    tracer.parents = [-1, 0, 1, 0]
    tracer.starts = [0.0, 1.0, 2.0, 6.0]
    tracer.ends = [10.0, 5.0, 4.0, 7.0]
    m = tracer.metrics()
    assert m["cli.self_s"] == pytest.approx(10 - 4 - 1)
    assert m["x.calls"] == 2
    assert m["x.s"] == pytest.approx(4)          # the nested x is not counted twice
    assert m["x.self_s"] == pytest.approx(2 + 2)
    assert m["y.s"] == m["y.self_s"] == pytest.approx(1)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "timing",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()[trace]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def _traced_instance(tmp_path, tag):
    spec = {"argvs": [SMALL_BENCH + ["--output-dir", str(tmp_path / tag)]], "trace": True,
            "result": str(tmp_path / f"{tag}.json")}
    spec_path = tmp_path / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), str(spec_path)],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=170)
    return json.loads((tmp_path / f"{tag}.json").read_text())["layers"]


def test_counts_repeat_exactly_for_a_fixed_seed(tmp_path):
    first = _traced_instance(tmp_path, "first")
    second = _traced_instance(tmp_path, "second")
    for name in ("linops.apply.calls", "bidiag.advance.calls", "solver.iterations"):
        assert first[name] > 0
        assert first[name] == second[name], name


@pytest.fixture(scope="module")
def fredholm_instance(tmp_path_factory):
    """One checked-clean instance of the first fredholm config."""
    outdir = tmp_path_factory.mktemp("fredholm")
    wl = workloads.Fredholm(ROOT)
    wl.paths = wl.paths[:1]
    wl.prepare(str(outdir), 9)
    argv = wl.argvs(str(outdir))[0]
    commands = [{"argv": argv, "code": cli.main(argv), "error": None}]
    assert wl.check(str(outdir), commands, None).failed == 0
    return wl, outdir, commands


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_output_checks_count_failures(fredholm_instance):
    from idarr.arrayio import read_array, write_array

    wl, outdir, commands = fredholm_instance
    cdir = outdir / "cfg0"
    results = cdir / "results.csv"
    good = results.read_bytes()

    def bump_loss(rows):
        rows[3]["loss"] = repr(float(rows[3]["loss"]) * (1 + 1e-6))

    _rewrite_csv(results, bump_loss)
    assert wl.check(str(outdir), commands, None).failed == 1
    results.write_bytes(good)

    sol = sorted((cdir / "solutions").iterdir())
    x = read_array(str(sol[0]))
    x[2] = np.nan
    write_array(str(sol[0]), x)
    sol[1].unlink()
    assert wl.check(str(outdir), commands, None).failed == 2

    commands = [dict(commands[0], code=3)]
    out = wl.check(str(outdir), commands, None)
    assert out.failed == out.attempted == 400
