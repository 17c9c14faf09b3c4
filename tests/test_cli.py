"""Command-line interface: subcommands, exit codes, file outputs, config
handling, and reproducibility of the benchmark artifacts."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from functools import partial
from itertools import product

import numpy as np
import pytest

from idarr import (
    DenseMap,
    DiagonalMap,
    Discrepancy,
    FixedIters,
    LCurve,
    add_noise,
    clean_problem,
    dartr_solve,
    dp_stop,
    idarr_solve,
    irL2_solve,
    irl2_solve,
    make_fredholm,
    read_array,
    save_operator,
    tikhonov_direct,
    true_solution,
    write_array,
)
from idarr import (KernelEvaluationError, UsageError, build_fredholm_map, cli, linops,
                   problems, rkhs)
from idarr.cli import (
    ITERATIVE_METHODS,
    ExperimentConfig,
    load_config,
    main,
    row_seed,
    write_config,
)
from idarr.linops import KERNELS

BENCH_ARGS = [
    "fredholm-bench",
    "--kernel", "exp",
    "--m", "80",
    "--n", "30",
    "--truth", "in-range",
    "--nsr-ladder", "0.5,0.25",
    "--trials", "2",
    "--methods", "iDARR,IR-l2,DARTR",
    "--max-iters", "15",
    "--seed-base", "1",
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolveCommand:
    @pytest.fixture()
    def dense_instance(self, tmp_path, rng):
        a = rng.standard_normal((12, 6))
        desc = save_operator(DenseMap(a), str(tmp_path))
        b = a @ rng.standard_normal(6)
        data = tmp_path / "b.bin"
        write_array(str(data), b)
        return desc, str(data), a, b

    def test_iterative_solve_writes_solution(self, dense_instance, tmp_path, capsys):
        desc, data, a, b = dense_instance
        out = str(tmp_path / "x.bin")
        code = main(["solve", "--operator", desc, "--data", data,
                     "--method", "iDARR", "--stop", "fixed:6", "--out", out])
        assert code == 0
        x = read_array(out)
        assert x.shape == (6,)
        assert "k_stop=" in capsys.readouterr().out

    def test_direct_solve_reports_regularization_strength(self, dense_instance,
                                                          tmp_path, capsys):
        desc, data, _, _ = dense_instance
        out = str(tmp_path / "x.bin")
        code = main(["solve", "--operator", desc, "--data", data,
                     "--method", "DARTR", "--out", out])
        assert code == 0
        assert re.search(r" k_stop=\d+ residual=\S+ converged=(True|False) ",
                         capsys.readouterr().out)
        assert read_array(out).shape == (6,)

    def test_direct_solve_takes_the_rules_ladder_point(self, dense_instance, tmp_path, capsys):
        desc, data, a, b = dense_instance
        out = str(tmp_path / "x.bin")
        assert main(["solve", "--operator", desc, "--data", data,
                     "--method", "DARTR", "--stop", "fixed:5", "--out", out]) == 0
        fields = dict(re.findall(r"(\w+)=(\S+)", capsys.readouterr().out))
        assert fields["k_stop"] == "5"
        x = read_array(out)
        assert float(fields["residual"]) == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-5)

    def test_discrepancy_stop_spec(self, dense_instance, tmp_path):
        desc, data, _, b = dense_instance
        out = str(tmp_path / "x.bin")
        noise = 0.01 * float(np.linalg.norm(b))
        code = main(["solve", "--operator", desc, "--data", data,
                     "--stop", f"dp:{noise:.6g}:1.05", "--out", out])
        assert code == 0

    def test_unknown_flag_is_usage_error(self, dense_instance):
        desc, data, _, _ = dense_instance
        assert main(["solve", "--operator", desc, "--data", data, "--nope"]) == 1

    def test_malformed_stop_spec_is_usage_error(self, dense_instance, tmp_path, capsys):
        desc, data, _, _ = dense_instance
        out = tmp_path / "x.bin"
        args = ["solve", "--operator", desc, "--data", data, "--out", str(out)]
        # the spec is checked for the direct family too, which ignores it
        for method, extra in product(["iDARR", "DARTR"], (
                ["dp:abc"], ["fixed:0"], ["simplex"], ["dp:1:0.5"], ["dp:-1"],
                ["dp:nan"], ["dp:inf"], ["dp:0.1:nan"], ["dp:0.1:inf"],
                ["dp:0.1", "--max-iters", "0"], ["lcurve", "--max-iters", "3"])):
            assert main(args + ["--method", method, "--stop"] + extra) == 1, (method, extra)
            assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_missing_operator_file_is_io_error(self, tmp_path):
        data = tmp_path / "b.bin"
        write_array(str(data), np.ones(3))
        assert main(["solve", "--operator", str(tmp_path / "nope.json"),
                     "--data", str(data)]) == 2

    def test_zero_data_is_numerical_failure(self, dense_instance, tmp_path):
        desc, _, _, _ = dense_instance
        data = tmp_path / "zero.bin"
        write_array(str(data), np.zeros(12))
        out = tmp_path / "x.bin"
        args = ["solve", "--operator", desc, "--data", str(data), "--stop", "fixed:3",
                "--out", str(out)]
        assert main(args) == 3
        assert not out.exists()  # the failed run removes the file it opened
        out.write_bytes(b"kept")
        assert main(args) == 3
        assert out.read_bytes() == b"kept"  # and leaves an existing one as it was

    @pytest.mark.parametrize("method", cli.ALL_METHODS)
    def test_overflowing_data_is_numerical_failure(self, dense_instance, tmp_path, capsys,
                                                   method):
        # finite entries whose norm overflows: both families share one data check
        desc, _, _, b = dense_instance
        data = tmp_path / "huge.bin"
        write_array(str(data), 1e160 * b)
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", str(data),
                     "--method", method, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["DARTR", "l2-direct"])
    def test_overflowing_path_is_numerical_failure(self, tmp_path, capsys, method):
        # the data norm is finite, but the ladder's penalty norms overflow; a
        # corner picked from their NaN bends would be no solution
        setup = make_fredholm("poly", 200, 80)
        b = add_noise(clean_problem(setup, true_solution(setup, "out")), 0.01, 3).b
        desc = save_operator(setup.linmap, str(tmp_path))
        data = tmp_path / "b_wide.bin"
        write_array(str(data), 1e152 * b)
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", str(data),
                     "--method", method, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["iDARR", "DARTR"])
    @pytest.mark.parametrize("bad", ["short", "nan", "inf"])
    def test_malformed_data_vector_is_io_error(self, dense_instance, tmp_path, method, bad):
        desc, _, _, b = dense_instance
        b = b[:-1] if bad == "short" else np.where(np.arange(b.size) == 3, float(bad), b)
        data = tmp_path / "bad.bin"
        write_array(str(data), b)
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", str(data),
                     "--method", method, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["iDARR", "IR-l2", "l2-direct", "DARTR"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    def test_non_finite_operator_payload_is_io_error(self, tmp_path, rng, kind, bad, method):
        payload = rng.uniform(1.0, 2.0, (8, 6) if kind == "dense" else 6)
        desc = save_operator(DenseMap(payload) if kind == "dense" else DiagonalMap(payload),
                             str(tmp_path))
        payload.flat[3] = float(bad)
        write_array(str(tmp_path / f"operator_{'entries' if kind == 'dense' else 'diag'}.bin"),
                    payload)
        data = tmp_path / "b.bin"
        write_array(str(data), np.ones(payload.shape[0]))
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", str(data),
                     "--method", method, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ITERATIVE_METHODS)
    def test_data_orthogonal_to_range_gives_zero(self, tmp_path, rng, capsys, method):
        # the operator only reaches the first half of the data space
        a = np.vstack([rng.standard_normal((6, 4)), np.zeros((6, 4))])
        desc = save_operator(DenseMap(a), str(tmp_path))
        b = np.concatenate([np.zeros(6), rng.standard_normal(6)])
        data = tmp_path / "b.bin"
        write_array(str(data), b)
        out = str(tmp_path / "x.bin")
        assert main(["solve", "--operator", desc, "--data", str(data),
                     "--method", method, "--out", out]) == 0
        np.testing.assert_array_equal(read_array(out), np.zeros(4))
        printed = capsys.readouterr().out
        assert f"k_stop=0 residual={np.linalg.norm(b):.6g} converged=True" in printed

    @pytest.mark.parametrize("method", cli.ALL_METHODS)
    def test_zero_column_needs_exploration_weights(self, tmp_path, rng, capsys, method):
        # only the weighted methods need every column explored; the l2 ones solve
        a = rng.standard_normal((12, 6))
        a[:, 2] = 0.0
        desc = save_operator(DenseMap(a), str(tmp_path))
        data = tmp_path / "b.bin"
        write_array(str(data), rng.standard_normal(12))
        out = tmp_path / "x.bin"
        code = main(["solve", "--operator", desc, "--data", str(data), "--method", method,
                     "--stop", "fixed:3", "--out", str(out)])
        if cli.METHODS[method][1] == "l2":
            assert code == 0 and read_array(str(out)).shape == (6,)
        else:
            assert code == 3 and not out.exists()
            assert capsys.readouterr().err == "error: column 2 has zero absolute sum\n"

    @pytest.mark.parametrize("method", [m for m in cli.ALL_METHODS if m not in ITERATIVE_METHODS])
    def test_reorthogonalize_on_a_direct_method_is_usage_error(self, dense_instance, tmp_path,
                                                               capsys, method):
        desc, data, _, _ = dense_instance
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", data, "--method", method,
                     "--reorthogonalize", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("extra, reason", [
        (["--stop", "fixed:5", "--max-iters", "50"], "fixed:K takes no --max-iters"),
        (["--method", "DARTR", "--max-iters", "50"], "direct method"),
        (["--method", "DARTR", "--max-iters", "7"], "direct method"),
        (["--method", "l2-direct", "--stop", "fixed:5", "--max-iters", "50"], "direct method"),
    ])
    def test_budget_that_nothing_reads_is_usage_error(self, dense_instance, tmp_path, capsys,
                                                      extra, reason):
        # only an iterative run under lcurve or dp reads --max-iters
        desc, data, _, _ = dense_instance
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", data, "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and reason in err, err
        assert not out.exists()

    def test_run_method_rejects_keywords_on_a_direct_method(self, dense_instance):
        _, _, a, b = dense_instance
        linmap = DenseMap(a)
        with pytest.raises(UsageError, match="reorthogonalize"):
            cli.run_method("DARTR", linmap, rkhs.make_geometry(linmap), b, LCurve(),
                           reorthogonalize=False)


class TestBenchCommand:
    def run_bench(self, outdir, extra=()):
        return main(BENCH_ARGS + ["--output-dir", str(outdir)] + list(extra))

    def test_row_counts_and_artifacts(self, tmp_path):
        out = tmp_path / "res"
        assert self.run_bench(out) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 3 * 2 * 2  # methods x ladder x trials
        assert set(rows[0]) == {
            "method", "nsr", "trial", "k_stop", "l2rho_error",
            "relative_error", "loss", "wall_time_ms", "seed", "converged",
        }
        stopping = read_csv(out / "stopping.csv")
        assert len(stopping) == len(rows)  # a line per row, whatever the method's family
        assert set(stopping[0]) == {
            "method", "nsr", "trial", "k_lcurve", "k_dp", "weak_corner",
        }
        # a direct row's line reads its ladder as an iterative row's reads its run
        row, line = next((r, s) for r, s in zip(rows, stopping) if r["method"] == "DARTR")
        assert line["k_lcurve"] == row["k_stop"]
        setup = make_fredholm("exp", 80, 30)
        problem = add_noise(clean_problem(setup, true_solution(setup, "in-range")),
                            float(row["nsr"]), int(row["seed"]))
        bench = cli._bench_operator("exp", 80, 30)
        result = cli.run_method("DARTR", bench.reduced.linmap, bench.reduced,
                                bench.reduce(problem.b), LCurve(max_iters=15),
                                cli._get_factored("exp", 80, 30, "DARTR"))
        k_dp = dp_stop(result.history[:, 0], problem.noise_norm, Discrepancy.tau)
        assert k_dp is not None and line["k_dp"] == str(k_dp)
        stats = read_csv(out / "stats.csv")
        assert len(stats) == 3 * 2
        assert {r["method"] for r in stats} == {"iDARR", "IR-l2", "DARTR"}
        for row in stats:
            assert int(row["count"]) == 2
            assert float(row["q1"]) <= float(row["median"]) <= float(row["q3"])
        sols = os.listdir(out / "solutions")
        assert len(sols) == 12
        assert (out / "config_used.cfg").exists()

    def test_single_cell_ladder_row_count(self, tmp_path):
        out = tmp_path / "res"
        code = main([
            "fredholm-bench", "--kernel", "exp", "--m", "60", "--n", "20",
            "--nsr-ladder", "1,0.5,0.25,0.125,0.0625", "--trials", "1",
            "--methods", "iDARR", "--max-iters", "12",
            "--output-dir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 5
        assert [r["nsr"] for r in rows] == ["1", "0.5", "0.25", "0.125", "0.0625"]

    def test_deterministic_modulo_wall_time(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self.run_bench(out1) == 0
        assert self.run_bench(out2) == 0
        rows1 = read_csv(out1 / "results.csv")
        rows2 = read_csv(out2 / "results.csv")
        for r1, r2 in zip(rows1, rows2):
            r1.pop("wall_time_ms")
            r2.pop("wall_time_ms")
            assert r1 == r2
        name = "iDARR_nsr0.5_trial1.bin"
        np.testing.assert_array_equal(
            read_array(str(out1 / "solutions" / name)),
            read_array(str(out2 / "solutions" / name)),
        )

    def test_loss_column_recomputable_from_artifacts(self, tmp_path):
        out = tmp_path / "res"
        assert self.run_bench(out) == 0
        setup = make_fredholm("exp", 80, 30)
        xt = true_solution(setup, "in-range")
        base = clean_problem(setup, xt)
        for row in read_csv(out / "results.csv"):
            problem = add_noise(base, float(row["nsr"]), int(row["seed"]))
            name = f"{row['method']}_nsr{row['nsr']}_trial{row['trial']}.bin"
            x = read_array(str(out / "solutions" / name))
            res = setup.linmap.apply(x) - problem.b
            assert float(row["loss"]) == pytest.approx(
                float(res @ res), rel=1e-9
            )

    def test_worker_pool_produces_identical_results(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "serial", tmp_path / "pooled"
        assert self.run_bench(out1) == 0
        monkeypatch.setenv("IDARR_THREADS", "2")
        assert self.run_bench(out2) == 0
        rows1 = read_csv(out1 / "results.csv")
        rows2 = read_csv(out2 / "results.csv")
        for r1, r2 in zip(rows1, rows2):
            r1.pop("wall_time_ms")
            r2.pop("wall_time_ms")
            assert r1 == r2

    def test_dp_ladder_that_never_meets_the_threshold_is_unconverged(self, tmp_path):
        out = tmp_path / "res"
        assert main(["fredholm-bench", "--kernel", "exp", "--m", "60", "--n", "20",
                     "--stop-rule", "dp", "--trials", "3", "--output-dir", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        assert {r["converged"] for r in rows} == {"True", "False"}
        unmet = [r for r in rows if r["method"] not in ITERATIVE_METHODS and r["k_stop"] == "64"]
        assert unmet and all(r["converged"] == "False" for r in unmet)

    def test_invalid_worker_count_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IDARR_THREADS", "abc")
        assert self.run_bench(tmp_path / "res") == 1

    def test_invalid_method_is_usage_error(self, tmp_path):
        assert self.run_bench(tmp_path / "res", ["--methods", "iDARR,magic"]) == 1

    @pytest.mark.parametrize("key, value", [
        ("methods", "iDARR,iDARR"), ("nsr_ladder", "0.5,0.5"),
        ("nsr_ladder", "0.1234567,0.1234568"), ("methods", ""),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_colliding_cells_are_usage_error(self, tmp_path, capsys, key, value, source):
        # such cells would share their nsr text, seed and solution file name;
        # an empty method list would run no cell
        out = tmp_path / "res"
        if source == "flag":
            argv = ["--" + key.replace("_", "-"), value]
        else:
            (tmp_path / "exp.cfg").write_text(f"[experiment]\n{key} = {value}\n")
            argv = ["--config", str(tmp_path / "exp.cfg")]
        assert main(["fredholm-bench", *argv, "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("m, n, method", [(1, 5, "DARTR"), (3, 1, "iDARR")])
    def test_operator_without_in_range_truth_is_usage_error(self, tmp_path, capsys, m, n,
                                                            method):
        # rank below 2 has no second eigenvector to be the truth
        out = tmp_path / "res"
        argv = ["fredholm-bench", "--m", str(m), "--n", str(n), "--truth", "in-range",
                "--trials", "1", "--methods", method, "--output-dir", str(out)]
        assert main(argv) == 1
        assert "operator rank below 2" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
def test_worker_pool_matches_threaded_passes(tmp_path, monkeypatch):
    # R~ of a 1000 x 800 operator is 801 x 800, five row blocks: one process runs its
    # passes on two groups of threads, each of two worker processes on one group
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(linops, "usable_cpus", lambda: 2)
    reduced = cli._bench_operator("poly", 1000, 800).reduced.linmap
    assert 8 * reduced.rows * reduced.cols >= 4 * linops.NORMAL_BLOCK_BYTES

    def outputs(threads):
        monkeypatch.setenv("IDARR_THREADS", threads)
        out = tmp_path / threads
        assert main(["fredholm-bench", "--kernel", "poly", "--m", "1000", "--n", "800",
                     "--nsr-ladder", "0.5,0.25", "--trials", "2", "--methods", "iDARR,IR-L2",
                     "--output-dir", str(out)]) == 0
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        files["config_used.cfg"] = files["config_used.cfg"].replace(str(out).encode(), b"")
        files["results.csv"] = [{k: v for k, v in row.items() if k != "wall_time_ms"}
                                for row in read_csv(out / "results.csv")]
        return files

    groups, pool, parent = [], linops._thread_pool, os.getpid()

    def counted_pool():  # a forked worker inherits it, and must not call it
        assert os.getpid() == parent, "a worker process ran a pass on threads"
        groups.append(1)
        return pool()

    monkeypatch.setattr(linops, "_thread_pool", counted_pool)
    threaded = outputs("1")
    assert groups  # later groups went to the thread pool
    assert outputs("2") == threaded


def test_import_leaves_multiprocessing_unloaded():
    # only fredholm-bench with IDARR_THREADS above 1 starts a pool
    code = "import sys, idarr.cli; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


CONFIGS = [os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.cfg")
           for name in ("exp_in_range", "exp_out_of_range", "poly_in_range",
                        "poly_out_of_range")]


@pytest.fixture()
def cold_bench_caches():
    """Empty the per-process caches before and after.

    They hold each operator's setup and reduction to R~, the noise-free
    problem of each truth and each direct method's factorization of R~.
    """
    caches = (cli._bench_operator, cli._clean_problem, cli._get_factored)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture()
def eig_calls(monkeypatch):
    """Count generalized_eig calls under every name the package looks it up by."""
    calls = []
    eig = rkhs.generalized_eig

    def counted(gram, weights):
        calls.append(gram.shape)
        return eig(gram, weights)

    monkeypatch.setattr(rkhs, "generalized_eig", counted)
    monkeypatch.setattr(problems, "generalized_eig", counted)
    return calls


@pytest.fixture()
def qr_calls(monkeypatch):
    """Count np.linalg.qr calls by the shape of the matrix factored."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.mark.parametrize("config", CONFIGS, ids=os.path.basename)
def test_bench_factorization_is_the_reduced_operators(config, cold_bench_caches):
    # The weighted norms factor R~ over A's eigenpairs (R~^T R~ = A^T A), so
    # their ladders are the factorization of A's; l2 factors R~ itself. A
    # ladder on (R~, b~) is the cold one-shot on (A, b) up to roundoff: worst
    # measured at seed_base 1, all 20 trials, x 1.9e-10 and the history to
    # k_stop 5.1e-11 (l2-direct, poly).
    cfg = load_config(config)
    bench = cli._bench_operator(cfg.kernel, cfg.m, cfg.n)
    setup, reduced = bench.setup, bench.reduced
    base = cli._clean_problem(cfg.kernel, cfg.m, cfg.n, cfg.truth)
    for method in ("DARTR", "L2-direct", "l2-direct"):
        norm = cli.METHODS[method][1]
        factored = cli._get_factored(cfg.kernel, cfg.m, cfg.n, method)
        if norm != "l2":
            decomp = setup.decomposition()
            want = rkhs.DirectFactorization.build(reduced.linmap, norm, setup.geom.rho, decomp)
            for name in ("a", "t", "s2", "lambdas"):
                assert getattr(factored, name).tobytes() == getattr(want, name).tobytes(), name
            unreduced = rkhs.DirectFactorization.build(setup.linmap, norm, setup.geom.rho, decomp)
            assert factored.lambdas.tobytes() == unreduced.lambdas.tobytes()
        for nsr in cfg.nsr_ladder:
            b = add_noise(base, nsr, row_seed(cfg.seed_base, method, nsr, 1)).b
            warm = cli.run_method(method, reduced.linmap, reduced, bench.reduce(b), LCurve(),
                                  factored)
            if norm == "l2":
                cold = tikhonov_direct(reduced.linmap, bench.reduce(b))
                for name in ("x", "lambdas", "history", "iterates"):
                    assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
            cold = cli.run_method(method, setup.linmap, setup.geom, b, LCurve())
            assert warm.k_stop == cold.k_stop
            assert np.linalg.norm(warm.x - cold.x) <= 1e-9 * np.linalg.norm(cold.x)
            np.testing.assert_allclose(warm.history[:cold.k_stop], cold.history[:cold.k_stop],
                                       rtol=1e-9)


def test_dp_bench_row_takes_the_direct_discrepancy_point(cold_bench_caches):
    cfg = ExperimentConfig(kernel="exp", m=80, n=30, truth="in-range", stop_rule="dp")
    row, x = cli.run_bench_row(cfg, "DARTR", 0.25, 1)
    problem = add_noise(cli._clean_problem("exp", 80, 30, "in-range"), 0.25, row["seed"])
    reduce = cli._bench_operator("exp", 80, 30).reduce
    ladder = cli._get_factored("exp", 80, 30, "DARTR").solve(reduce(problem.b))
    k_dp = dp_stop(ladder.history[:, 0], problem.noise_norm, cfg.tau)
    assert k_dp is not None and k_dp != ladder.k_stop
    assert row["k_stop"] == row["k_dp"] == k_dp
    assert row["k_lcurve"] == row["weak_corner"] == ""  # no corner is picked under dp
    assert x.tobytes() == ladder.iterates[k_dp - 1].tobytes()


def test_discrepancy_budget_is_the_solve_commands(exp_setup, tmp_path, capsys):
    # an unreachable threshold runs the whole budget, in the API as in the command
    problem = add_noise(clean_problem(exp_setup, true_solution(exp_setup, "in-range")), 0.25, 0)
    noise = problem.noise_norm * 1e-6
    desc = save_operator(exp_setup.linmap, str(tmp_path))
    write_array(str(tmp_path / "b.bin"), problem.b)
    assert main(["solve", "--operator", desc, "--data", str(tmp_path / "b.bin"),
                 "--stop", f"dp:{noise:.17g}", "--out", str(tmp_path / "x.bin")]) == 0
    k_cli = int(re.search(r"k_stop=(\d+)", capsys.readouterr().out).group(1))
    result = idarr_solve(exp_setup.geom, problem.b, Discrepancy(noise))
    assert not result.converged
    assert len(result.history) == result.k_stop == k_cli


@pytest.mark.parametrize("method", ["DARTR", "L2-direct", "l2-direct"])
def test_bench_factorization_holds_the_reduced_operator(method, cold_bench_caches):
    # the factorization reads R~ through as_dense(): a read-only view of the
    # reduced map's entries, not a copy, and A is not held a second time
    entries = cli._bench_operator("poly", 60, 20).reduced.linmap.entries
    a = cli._get_factored("poly", 60, 20, method).a
    assert np.shares_memory(a, entries) and a.shape == entries.shape == (21, 20)
    assert not a.flags.writeable


def test_bench_factorizes_once_per_operator_and_weights(tmp_path, monkeypatch,
                                                        cold_bench_caches, eig_calls, qr_calls):
    monkeypatch.delenv("IDARR_THREADS", raising=False)
    for i, config in enumerate(CONFIGS):
        assert main(["fredholm-bench", "--config", config, "--trials", "1",
                     "--methods", "iDARR,IR-l2,IR-L2,DARTR,L2-direct",
                     "--output-dir", str(tmp_path / str(i))]) == 0
    assert len(eig_calls) == 2  # exp and poly, each under rho
    assert qr_calls == [(500, 100)] * 2  # one reduction per operator, for every row
    assert main(["fredholm-bench", "--config", CONFIGS[-1], "--trials", "2",
                 "--methods", "l2-direct", "--output-dir", str(tmp_path / "unit")]) == 0
    assert len(eig_calls) == 3  # poly's R~ under unit weights
    assert len(qr_calls) == 2


def test_bench_forms_each_clean_problem_once(tmp_path, monkeypatch, cold_bench_caches):
    # a row draws only its noise; A x_true is formed once per (operator, truth)
    monkeypatch.delenv("IDARR_THREADS", raising=False)
    calls = []
    build = cli.clean_problem
    monkeypatch.setattr(cli, "clean_problem",
                        lambda setup, x_true: calls.append(setup) or build(setup, x_true))
    runs = (("exp", "in"), ("exp", "out"), ("poly", "out"), ("exp", "in-range"))
    for i, (kernel, truth) in enumerate(runs):
        assert main(["fredholm-bench", "--kernel", kernel, "--m", "40", "--n", "15",
                     "--truth", truth, "--nsr-ladder", "0.5,0.25", "--trials", "2",
                     "--methods", "iDARR,DARTR", "--output-dir", str(tmp_path / str(i))]) == 0
    assert len(calls) == 3  # "in" and "in-range" name one truth


@pytest.mark.parametrize("m, n", [(80, 30), (40, 40), (20, 60)])
def test_bench_reduced_operator_is_aligned_r_over_a_zero_row(m, n, cold_bench_caches):
    # R~ is [R; 0] (R alone when Q is square), written into aligned storage
    entries = cli._bench_operator("poly", m, n).reduced.linmap.entries
    r = np.linalg.qr(make_fredholm("poly", m, n).linmap.as_dense())[1]
    expected = np.vstack((r, np.zeros((1, n)))) if m > n else r
    assert entries.ctypes.data % 64 == 0
    assert entries.shape == expected.shape and entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m, n", [(80, 30), (40, 40), (20, 60)])
def test_bench_reduction_fits_the_reduced_operator(m, n, cold_bench_caches):
    # b~ has R~'s rows: the residual entry exactly where R~ has its residual
    # row, and with it ||b~|| = ||b||
    bench = cli._bench_operator("poly", m, n)
    b = np.random.default_rng(7).standard_normal(m)
    reduced_b = bench.reduce(b)
    assert reduced_b.shape == (bench.reduced.linmap.rows,)
    if m > n:
        assert abs(np.linalg.norm(reduced_b) - np.linalg.norm(b)) <= 1e-14 * np.linalg.norm(b)


# (truth, nsr, seed) draws on make_fredholm(kernel, 200, 40)
REDUCTION_DRAWS = list(product(("in-range", "out-of-range"), (1.0, 0.25, 0.0625), range(3)))


def full_and_reduced_runs(kernel, stop, reorthogonalize):
    """Each iterative method's run on (A, b) and on ([R; 0], reduced b), for every draw."""
    bench = cli._bench_operator(kernel, 200, 40)
    setup, reduced = bench.setup, bench.reduced
    for truth, nsr, seed in REDUCTION_DRAWS:
        b = add_noise(clean_problem(setup, true_solution(setup, truth)), nsr, seed).b
        for method in ITERATIVE_METHODS:
            yield (cli.run_method(method, setup.linmap, setup.geom, b, stop,
                                  reorthogonalize=reorthogonalize),
                   cli.run_method(method, reduced.linmap, reduced, bench.reduce(b), stop,
                                  reorthogonalize=reorthogonalize))


@pytest.mark.parametrize("kernel", ["exp", "poly"])
def test_reduced_plain_runs_match_the_operators(kernel, cold_bench_caches):
    # Worst measured: x 9.0e-8 and history 5.5e-9 (exp, iDARR). Reversing A's
    # rows, an orthogonal change of data space with no reduction, moves x by
    # 5.8e-8 on the same kernel: plain runs amplify roundoff.
    for full, red in full_and_reduced_runs(kernel, FixedIters(3), False):
        assert red.k_stop == full.k_stop == 3
        assert np.linalg.norm(red.x - full.x) <= 1e-6 * np.linalg.norm(full.x)
        np.testing.assert_allclose(red.history, full.history, rtol=1e-7)


@pytest.mark.parametrize("kernel", ["exp", "poly"])
def test_reduced_reorthogonalized_runs_match_the_operators(kernel, cold_bench_caches):
    # Where k_stop agrees, x and the history up to k_stop agree within 1e-10
    # (worst measured: 1.8e-14 and 4.7e-13). The exhaustion floor scales with
    # the operator's rows, 41 here against A's 200. On exp, whose couplings
    # reach roundoff within 15 steps (43 of 54 full runs exhaust), a reduced
    # run may go on after the full one exhausted, and the corner may then
    # move: 1 of 54 runs here (IR-l2, out-of-range, nsr 1, seed 0: 4 -> 15).
    moved = 0
    for full, red in full_and_reduced_runs(kernel, LCurve(max_iters=15), True):
        if red.k_stop != full.k_stop:
            assert full.terminated and len(red.history) >= len(full.history)
            assert (len(red.history), red.reason) != (len(full.history), full.reason)
            moved += 1
            continue
        assert np.linalg.norm(red.x - full.x) <= 1e-10 * np.linalg.norm(full.x)
        np.testing.assert_allclose(red.history[:full.k_stop], full.history[:full.k_stop],
                                   rtol=1e-10)
    assert moved <= len(REDUCTION_DRAWS) * len(ITERATIVE_METHODS) // 10


@pytest.mark.parametrize("m, n", [(80, 30), (40, 40), (20, 60)])
def test_every_bench_row_solves_on_the_reduced_operator(m, n, cold_bench_caches):
    # Tall, square and wide operators take one path. R~ keeps a residual row
    # only for m > n: a wide R~ with an (m + 1)-th row would move the l2 and
    # L2 ladders' floor, lam[min(rows, n) - 1]. A direct row is the cold
    # one-shot on (A, b) up to roundoff: worst measured over 3 trials at 5
    # noise levels, x 5.2e-7 and the history to k_stop 2.1e-8 (l2-direct,
    # 20 x 60, whose A^T A has 40 zero eigenvalues).
    cfg = ExperimentConfig(kernel="poly", m=m, n=n, truth="out-of-range")
    bench = cli._bench_operator("poly", m, n)
    setup, q, reduced = bench.setup, bench.q, bench.reduced
    assert q.shape == (m, min(m, n))
    assert reduced.linmap.entries.shape == (min(m, n) + (m > n), n)
    # A's rho, so C^+ = B^-1 R~^T R~ B^-1 is A's metric
    assert reduced.rho.tobytes() == setup.geom.rho.tobytes()
    p = np.random.default_rng(5).standard_normal(n)
    want = setup.geom.apply_crkhs_pinv(p)
    assert np.linalg.norm(reduced.apply_crkhs_pinv(p) - want) <= 1e-12 * np.linalg.norm(want)
    base = cli._clean_problem("poly", m, n, cfg.truth)
    for method in cli.ALL_METHODS:
        row, x = cli.run_bench_row(cfg, method, 0.25, 1)
        b = add_noise(base, 0.25, row["seed"]).b
        res = setup.linmap.entries @ x - b
        assert np.all(np.isfinite(x))
        assert float(row["loss"]) == pytest.approx(float(res @ res), rel=1e-12)
        if method in ITERATIVE_METHODS:
            continue
        cold = cli.run_method(method, setup.linmap, setup.geom, b, LCurve())
        assert row["k_stop"] == cold.k_stop
        lambdas = cli._get_factored("poly", m, n, method).lambdas
        np.testing.assert_allclose(lambdas, cold.lambdas, rtol=1e-11)
        assert np.linalg.norm(x - cold.x) <= 1e-6 * np.linalg.norm(cold.x)


@pytest.mark.parametrize("raw, cores, want", [
    ("1", 4, 1), ("3", 4, 3), ("4", 4, 4), ("20000", 4, 4),
])
def test_worker_count_is_capped_at_the_core_count(monkeypatch, raw, cores, want):
    # only the pool size is computed here; no pool is started
    monkeypatch.setenv("IDARR_THREADS", raw)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert cli._worker_count() == want


def test_worker_count_is_capped_at_the_affinity_not_the_host(monkeypatch):
    # a cpuset of 2 CPUs on an 8-CPU host
    monkeypatch.setenv("IDARR_THREADS", "8")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._worker_count() == 2


@pytest.mark.parametrize("raw, cores, want", [("3", 4, 3), ("20000", 4, 4), ("2", None, 1)])
def test_worker_count_falls_back_to_the_host_count(monkeypatch, raw, cores, want):
    # a platform without an affinity call
    monkeypatch.setenv("IDARR_THREADS", raw)
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    assert cli._worker_count() == want


@pytest.mark.parametrize("raw", ["0", "-2", ""])
def test_nonpositive_worker_count_is_usage_error(monkeypatch, raw):
    monkeypatch.setenv("IDARR_THREADS", raw)
    with pytest.raises(UsageError):
        cli._worker_count()


def test_timing_sweep_factorizes_every_direct_solve(monkeypatch, eig_calls):
    solves = []
    dartr = cli.dartr_solve
    monkeypatch.setattr(cli, "dartr_solve", lambda *a: solves.append(1) or dartr(*a))
    cli.run_timing_sweep([20, 40], m=30, k_fixed=3, replicas=2, seed=0)
    assert solves and len(eig_calls) == len(solves)


class TestTimingCommand:
    def test_smoke_sweep_writes_timing_table(self, tmp_path, capsys):
        out = tmp_path / "timing"
        code = main(["timing", "--n-ladder", "40,80", "--m", "60",
                     "--k-fixed", "3", "--replicas", "2",
                     "--output-dir", str(out)])
        assert code == 0
        rows = read_csv(out / "timing.csv")
        assert set(r["solver"] for r in rows) == {"iDARR", "DARTR"}
        assert set(r["n"] for r in rows) == {"40", "80"}
        for row in rows:
            assert float(row["wall_time_ms"]) > 0
        printed = capsys.readouterr().out
        assert "iDARR:" in printed and "DARTR:" in printed

    def test_nonpositive_iteration_count_is_usage_error(self, tmp_path):
        assert main(["timing", "--k-fixed", "0",
                     "--output-dir", str(tmp_path)]) == 1

    def test_malformed_ladder_is_usage_error(self, tmp_path):
        assert main(["timing", "--n-ladder", "40,gull",
                     "--output-dir", str(tmp_path)]) == 1


class TestDeblurCommand:
    def test_smoke_run_writes_images_and_curve(self, tmp_path):
        out = tmp_path / "deblur"
        code = main(["deblur", "--image", "blobs:16", "--psf", "gaussian:1",
                     "--nsr", "0.02", "--max-iters", "12", "--seed", "1",
                     "--output-dir", str(out)])
        assert code == 0
        assert (out / "blurred.pgm").exists()
        assert (out / "restored.pgm").exists()
        curve = read_csv(out / "error_curve.csv")
        assert set(curve[0]) == {
            "k", "residual", "penalty_norm", "rel_error_l2", "rel_error_weighted",
        }
        summary = json.loads((out / "summary.json").read_text())
        assert summary["side"] == 16
        assert 1 <= summary["k_stop"] <= 12
        assert len(curve) == sum(1 for _ in curve)
        assert int(curve[-1]["k"]) == len(curve)

    def test_unknown_image_kind_is_usage_error(self, tmp_path):
        assert main(["deblur", "--image", "spiral:16",
                     "--output-dir", str(tmp_path)]) == 1

    def test_unparsable_psf_width_is_usage_error(self, tmp_path):
        assert main(["deblur", "--image", "blobs:16", "--psf", "gaussian:wide",
                     "--output-dir", str(tmp_path)]) == 1

    def test_psf_spec_that_is_neither_gaussian_nor_a_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["deblur", "--image", "blobs:16", "--psf", "gaussian5",
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("io error: cannot read psf")
        assert not out.exists()

    # a maxval-15 file's levels would be read as fractions of 255, a truth 17 times too dark
    @pytest.mark.parametrize("pgm", [
        b"P5\n12 10\n255\n" + bytes(120), b"P5\n16 16\n15\n" + bytes(range(16)) * 16,
    ], ids=["non-square", "maxval-15"])
    def test_malformed_image_file_is_io_error(self, tmp_path, capsys, pgm):
        (tmp_path / "img.pgm").write_bytes(pgm)
        out = tmp_path / "out"
        assert main(["deblur", "--image", str(tmp_path / "img.pgm"),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("io error:")
        assert not out.exists()

    def test_error_curve_has_a_row_per_step_whatever_the_rule_keeps(self, tmp_path,
                                                                     monkeypatch):
        class KeepsNoIterates(LCurve):
            needs_iterates = False

        monkeypatch.setattr(cli, "LCurve", KeepsNoIterates)
        out = tmp_path / "deblur"
        assert main(["deblur", "--image", "blobs:16", "--psf", "gaussian:1",
                     "--max-iters", "12", "--output-dir", str(out)]) == 0
        assert [int(row["k"]) for row in read_csv(out / "error_curve.csv")] == list(range(1, 13))

    def test_vanishing_gaussian_width_restores_through_a_delta(self, tmp_path):
        out = tmp_path / "deblur"
        assert main(["deblur", "--image", "blobs:16", "--psf", "gaussian:1e-200",
                     "--max-iters", "12", "--output-dir", str(out)]) == 0
        assert np.isfinite(json.loads((out / "summary.json").read_text())["rel_error_l2"])


@pytest.mark.parametrize("command", ["deblur", "solve"])
@pytest.mark.parametrize("entry", ["nan", "inf", "-0.1", "0"])
def test_bad_psf_grid_is_io_error(tmp_path, capsys, command, entry):
    (tmp_path / "psf.txt").write_text(f"0 0 0\n0 {entry} 0\n0 0 0\n")
    out = tmp_path / "out"
    if command == "deblur":
        argv = ["deblur", "--image", "blobs:16", "--psf", str(tmp_path / "psf.txt"),
                "--output-dir", str(out)]
    else:
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps({"kind": "psf", "side": 4, "psf": "psf.txt"}))
        write_array(str(tmp_path / "b.bin"), np.ones(16))
        argv = ["solve", "--operator", str(desc), "--data", str(tmp_path / "b.bin"),
                "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("io error:")
    assert not out.exists()


@pytest.mark.parametrize("side", [8.9, "8", 8.0, True])
def test_non_integer_psf_side_is_io_error(tmp_path, capsys, side):
    (tmp_path / "psf.txt").write_text("1 2 1\n2 4 2\n1 2 1\n")
    desc = tmp_path / "op.json"
    desc.write_text(json.dumps({"kind": "psf", "side": side, "psf": "psf.txt"}))
    write_array(str(tmp_path / "b.bin"), np.ones(64))
    out = tmp_path / "x.bin"
    assert main(["solve", "--operator", str(desc), "--data", str(tmp_path / "b.bin"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("io error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["deblur", "--image", "blobs:16", "--max-iters", "5"],
        ["deblur", "--image", "blobs:16", "--nsr", "-1"],
        ["fredholm-bench", "--nsr-ladder", "0.5,abc"],
        ["timing", "--replicas", "0"],
        ["timing", "--m", "0"],
        ["deblur", "--image", "blobs:16", "--psf", "gaussian:inf"],
        ["deblur", "--image", "blobs:16", "--psf", "gaussian:nan"],
        ["deblur", "--image", "blobs:16", "--psf", "gaussian:0"],
        ["deblur", "--image", "blobs:16", "--psf", "gaussian:1e6"],
        ["deblur", "--image", "blobs:16", "--psf", "gaussian:6"],
        ["deblur", "--image", "blobs:16", "--nsr", "nan"],
        ["deblur", "--image", "blobs:16", "--nsr", "inf"],
        ["fredholm-bench", "--nsr-ladder", "0.5,nan"],
        ["timing", "--seed", "-1000"],
        ["fredholm-bench", "--seed-base", "-1"],
        ["deblur", "--image", "blobs:16", "--seed", "-1"],
        ["timing", "--n-ladder", "20,20"],
        ["deblur", "--image", "blobs:4"],
    ],
    ids=["deblur-short-budget", "deblur-negative-nsr", "bench-bad-ladder",
         "timing-no-replicas", "timing-empty-grid", "deblur-psf-inf",
         "deblur-psf-nan", "deblur-psf-zero", "deblur-psf-huge",
         "deblur-psf-wider-than-frame", "deblur-nan-nsr", "deblur-inf-nsr",
         "bench-nan-ladder", "timing-negative-seed", "bench-negative-seed-base",
         "deblur-negative-seed", "timing-repeated-ladder", "deblur-image-too-small"],
)
def test_bad_flag_value_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, solver", [
    ("fredholm-bench", "run_bench_row"), ("deblur", "run_method"), ("solve", "run_method"),
])
def test_unwritable_output_dir_fails_before_any_solve(command, solver, tmp_path, monkeypatch,
                                                      capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    calls = []
    monkeypatch.setattr(cli, solver, lambda *args, **kwargs: calls.append(args))
    monkeypatch.delenv("IDARR_THREADS", raising=False)
    if command == "solve":  # its output is the file --out
        write_array(str(tmp_path / "b.bin"), np.ones(3))
        argv = ["solve", "--operator", save_operator(DenseMap(np.eye(3)), str(tmp_path)),
                "--data", str(tmp_path / "b.bin"), "--out"]
    else:
        argv = (BENCH_ARGS if command == "fredholm-bench"
                else ["deblur", "--image", "blobs:16"]) + ["--output-dir"]
    assert main(argv + [str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("io error:")
    assert calls == []


# each method's public call as the README documents it
DOCUMENTED_CALLS = {
    "iDARR": lambda linmap, geom, b, stop: idarr_solve(geom, b, stop),
    "IR-L2": lambda linmap, geom, b, stop: irL2_solve(geom, b, stop),
    "IR-l2": lambda linmap, geom, b, stop: irl2_solve(linmap, b, stop),
    "DARTR": lambda linmap, geom, b, stop: dartr_solve(linmap, geom.rho, b),
    "L2-direct": lambda linmap, geom, b, stop: tikhonov_direct(linmap, b, weights=geom.rho),
    "l2-direct": lambda linmap, geom, b, stop: tikhonov_direct(linmap, b),
}


@pytest.fixture(scope="module")
def poly_problem():
    setup = make_fredholm("poly", 60, 20)
    problem = add_noise(clean_problem(setup, true_solution(setup, "out-of-range")), 0.05, 3)
    return problem.linmap, problem.geom, problem.b, LCurve(max_iters=12)


@pytest.mark.parametrize("method", cli.ALL_METHODS)
def test_run_method_is_the_documented_call(method, poly_problem):
    expected = {name: call(*poly_problem).x.tobytes() for name, call in DOCUMENTED_CALLS.items()}
    got = cli.run_method(method, *poly_problem).x.tobytes()
    # bitwise the method's own call, and no other method's, so a swapped norm or family fails
    assert [name for name, bits in expected.items() if bits == got] == [method]


@pytest.mark.parametrize("method", cli.ALL_METHODS)
def test_every_method_returns_one_solve_result(method, poly_problem):
    result = cli.run_method(method, *poly_problem)
    k = len(result.iterates)
    assert result.history.shape == (k, 2) and 1 <= result.k_stop <= k
    assert result.x.tobytes() == result.iterates[result.k_stop - 1].tobytes()
    assert result.residual == result.history[result.k_stop - 1, 0]
    assert (result.lambdas is None) == (method in ITERATIVE_METHODS)
    if result.lambdas is not None:
        assert result.lambdas.shape == (k,)
        assert result.reason is None and result.terminated is False


class TestOracleCheckCommand:
    def test_all_properties_pass(self, capsys):
        code = main(["oracle-check", "--m", "25", "--n", "15", "--seed", "3"])
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("PROP")]
        assert code == 0
        assert len(lines) == 5
        assert all("PASS" in ln for ln in lines)
        names = {ln.split()[1] for ln in lines}
        assert names == {
            "orthogonality", "termination-count", "residual-identity",
            "terminal-solution", "subspace-uniqueness",
        }

    @pytest.mark.parametrize("argv", [
        # built from QR factors, the step-count instance took extra steps here
        ["--seed", "1"], ["--seed", "6"], ["--seed", "10"], ["--seed", "38"],
        ["--m", "3", "--n", "2"], ["--m", "10", "--n", "30"],
        ["--m", "12", "--n", "10"], ["--m", "8", "--n", "5", "--rank", "5"],
    ])
    def test_properties_pass_on_exact_instances(self, argv, capsys):
        assert main(["oracle-check"] + argv) == 0
        assert capsys.readouterr().out.count(" PASS\n") == 5

    @pytest.mark.parametrize("argv", [
        ["--m", "0"], ["--n", "-2"], ["--steps", "0"], ["--steps", "-3"],
        ["--rank", "-1"], ["--rank", "100"], ["--m", "8", "--n", "5", "--rank", "6"],
        ["--seed", "-1"],
    ])
    def test_bad_flag_value_is_usage_error(self, argv, capsys):
        assert main(["oracle-check"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and not captured.out


class TestConfigHandling:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            kernel="poly", m=120, n=40, truth="out-of-range",
            nsr_ladder=(0.5, 0.125), trials=3, methods=("iDARR", "DARTR"),
            stop_rule="dp", tau=1.05, max_iters=25, seed_base=9,
            output_dir="somewhere",
        )
        path = tmp_path / "exp.cfg"
        write_config(cfg, str(path))
        back = load_config(str(path))
        assert back == cfg

    def test_cli_overrides_config_file(self, tmp_path):
        cfg = ExperimentConfig(kernel="exp", m=60, n=20, trials=2,
                               nsr_ladder=(0.5,), methods=("iDARR",),
                               max_iters=12)
        path = tmp_path / "exp.cfg"
        write_config(cfg, str(path))
        out = tmp_path / "res"
        code = main(["fredholm-bench", "--config", str(path),
                     "--trials", "1", "--output-dir", str(out)])
        assert code == 0
        used = load_config(str(out / "config_used.cfg"))
        assert used.trials == 1  # the command line wins
        assert used.kernel == "exp" and used.m == 60
        assert len(read_csv(out / "results.csv")) == 1

    def test_unknown_key_is_usage_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nflavor = mint\n")
        assert main(["fredholm-bench", "--config", str(path)]) == 1

    def test_negative_seed_base_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nseed_base = -1\n")
        out = tmp_path / "out"
        assert main(["fredholm-bench", "--config", str(path), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_missing_section_is_io_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[other]\nkernel = exp\n")
        assert main(["fredholm-bench", "--config", str(path)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["fredholm-bench", "--config", str(tmp_path / "no.cfg")]) == 2


# flag text and parsed value for every key, each unlike the base config's
FLAG_VALUES = {
    "kernel": ("poly", "poly"), "m": ("50", 50), "n": ("16", 16),
    "truth": ("out-of-range", "out-of-range"),
    "nsr_ladder": ("0.25,0.125", (0.25, 0.125)), "trials": ("2", 2),
    "methods": ("IR-l2,DARTR", ("IR-l2", "DARTR")), "stop_rule": ("dp", "dp"),
    "tau": ("1.5", 1.5), "max_iters": ("11", 11), "seed_base": ("5", 5),
    "output_dir": ("elsewhere", "elsewhere"),
}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_each_flag_overrides_its_config_key(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ExperimentConfig(kernel="exp", m=60, n=20, nsr_ladder=(0.5,), trials=1,
                            methods=("iDARR",), max_iters=12, output_dir="base")
    write_config(base, "base.cfg")
    text, value = FLAG_VALUES[key]
    assert main(["fredholm-bench", "--config", "base.cfg", "--" + key.replace("_", "-"),
                 text]) == 0
    used = load_config(os.path.join(value if key == "output_dir" else "base",
                                    "config_used.cfg"))
    assert getattr(used, key) == value != getattr(base, key)
    for other in fields(ExperimentConfig):
        if other.name != key:
            assert getattr(used, other.name) == getattr(base, other.name), other.name


@pytest.mark.parametrize("flag, value", [
    ("--m", "ten"), ("--tau", "steep"), ("--nsr-ladder", "0.5,abc"), ("--trials", "1.5"),
])
def test_bad_bench_flag_message_names_flag_and_value(flag, value, capsys):
    assert main(["fredholm-bench", flag, value]) == 1
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err and "<lambda>" not in err


def _stop_bound_verdicts(key, value, tmp_path, dp=False):
    """Whether each command that reads stop bound key (tau or max_iters) accepts value.

    With dp, fredholm-bench and solve run the discrepancy rule, so only its bounds apply.
    """
    a = np.random.default_rng(5).standard_normal((20, 8))
    desc = save_operator(DenseMap(a), str(tmp_path))
    write_array(str(tmp_path / "b.bin"), a @ np.ones(8))
    (tmp_path / "exp.cfg").write_text(f"[experiment]\n{key} = {value}\n")
    flag = "--" + key.replace("_", "-")
    bench = ["fredholm-bench", "--m", "30", "--n", "10", "--nsr-ladder", "0.5", "--trials", "1",
             "--methods", "iDARR"] + (["--stop-rule", "dp"] if dp else [])
    argvs = {
        "bench-flag": bench + [flag, value],
        "bench-config": bench + ["--config", str(tmp_path / "exp.cfg")],
        "solve": ["solve", "--operator", desc, "--data", str(tmp_path / "b.bin")]
                 + (["--stop", f"dp:0.01:{value}"] if key == "tau"
                    else (["--stop", "dp:0.01"] if dp else []) + [flag, value]),
    }
    if key == "max_iters" and not dp:  # deblur runs the corner rule only
        argvs["deblur"] = ["deblur", "--image", "blobs:16", "--psf", "gaussian:1", flag, value]
    codes = {}
    for name, argv in argvs.items():
        out = str(tmp_path / name)
        codes[name] = main(argv + (["--out", out] if name == "solve" else ["--output-dir", out]))
    assert set(codes.values()) <= {0, 1}, codes
    return {name: code == 0 for name, code in codes.items()}


def _truth_verdicts(spelling, tmp_path):
    """Whether fredholm-bench and true_solution accept a truth spelling."""
    try:
        true_solution(make_fredholm("exp", 30, 10), spelling)
        owner = True
    except ValueError:
        owner = False
    code = main(["fredholm-bench", "--m", "30", "--n", "10", "--nsr-ladder", "0.5",
                 "--trials", "1", "--methods", "DARTR", "--truth", spelling,
                 "--output-dir", str(tmp_path / "out")])
    assert code in (0, 1)
    return {"true_solution": owner, "fredholm-bench": code == 0}


def _kernel_verdicts(name, tmp_path):
    """Whether fredholm-bench and build_fredholm_map (which reads KERNELS) accept a kernel."""
    try:
        build_fredholm_map(name, 30, 10)
        owner = True
    except KernelEvaluationError:
        owner = False
    code = main(["fredholm-bench", "--m", "30", "--n", "10", "--nsr-ladder", "0.5",
                 "--trials", "1", "--methods", "DARTR", "--kernel", name,
                 "--output-dir", str(tmp_path / "out")])
    assert code in (0, 1)
    return {"KERNELS": owner, "fredholm-bench": code == 0}


RULE_VERDICTS = {
    "tau": partial(_stop_bound_verdicts, "tau"),
    "max_iters": partial(_stop_bound_verdicts, "max_iters"),
    "dp_max_iters": partial(_stop_bound_verdicts, "max_iters", dp=True),
    "truth": _truth_verdicts,
    "kernel": _kernel_verdicts,
}


@pytest.mark.parametrize("rule, value, accepted", [
    ("tau", "1.0", False), ("tau", "1.01", True), ("tau", "inf", False), ("tau", "nan", False),
    ("max_iters", "9", False), ("max_iters", "10", True),
    ("dp_max_iters", "0", False), ("dp_max_iters", "5", True),
    *[("truth", v, True) for v in ("in", "in-range", "out", "out-of-range")],
    ("truth", "In", False), ("truth", "inside", False),
    *[("kernel", v, True) for v in KERNELS], ("kernel", "exp-shifted", True),
    ("kernel", "cubic", False), ("kernel", "Exp", False),
])
def test_each_rule_has_one_owner(rule, value, accepted, tmp_path, monkeypatch):
    # every command that reads the rule gives its owner's verdict; a kernel
    # added to the table is one the bench runs
    monkeypatch.delenv("IDARR_THREADS", raising=False)
    monkeypatch.setitem(KERNELS, "exp-shifted", lambda t, s: np.exp(-np.multiply.outer(t, s + 1)))
    got = RULE_VERDICTS[rule](value, tmp_path)
    assert got == dict.fromkeys(got, accepted)


class TestRowSeeds:
    def test_frozen_values(self):
        assert row_seed(1, "iDARR", 0.5, 1) == 3968155972
        assert row_seed(1, "iDARR", 0.5, 2) == 4018162384
        assert row_seed(2, "iDARR", 0.5, 1) == 3968155975
        assert row_seed(1, "IR-l2", 0.5, 1) == 4005302466

    def test_distinct_across_cells(self):
        seeds = {
            row_seed(1, method, nsr, trial)
            for method in ("iDARR", "IR-l2", "DARTR")
            for nsr in (1.0, 0.5, 0.25)
            for trial in range(1, 6)
        }
        assert len(seeds) == 3 * 3 * 5
