"""Command-line interface: subcommands, exit codes, file outputs, config
handling, and reproducibility of the benchmark artifacts."""

import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from idarr import (
    DenseMap,
    add_noise,
    clean_problem,
    make_fredholm,
    read_array,
    save_operator,
    true_solution,
    write_array,
)
from idarr import UsageError, cli, problems, rkhs
from idarr.cli import (
    ITERATIVE_METHODS,
    ExperimentConfig,
    load_config,
    main,
    row_seed,
    write_config,
)

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
        assert "lambda=" in capsys.readouterr().out
        assert read_array(out).shape == (6,)

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
        for extra in (["dp:abc"], ["fixed:0"], ["simplex"], ["dp:1:0.5"], ["dp:-1"],
                      ["dp:nan"], ["dp:inf"], ["dp:0.1:nan"], ["dp:0.1:inf"],
                      ["dp:0.1", "--max-iters", "0"], ["lcurve", "--max-iters", "3"]):
            assert main(args + ["--stop"] + extra) == 1, extra
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
        assert main(["solve", "--operator", desc, "--data", str(data),
                     "--stop", "fixed:3", "--out", str(tmp_path / "x.bin")]) == 3

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

    @pytest.mark.parametrize("method, code", [
        ("IR-l2", 0), ("l2-direct", 0), ("iDARR", 3), ("DARTR", 3),
    ])
    def test_zero_column_needs_exploration_weights(self, tmp_path, rng, method, code):
        # only the weighted methods need every column explored
        a = rng.standard_normal((12, 6))
        a[:, 2] = 0.0
        desc = save_operator(DenseMap(a), str(tmp_path))
        data = tmp_path / "b.bin"
        write_array(str(data), rng.standard_normal(12))
        assert main(["solve", "--operator", desc, "--data", str(data), "--method", method,
                     "--stop", "fixed:3", "--out", str(tmp_path / "x.bin")]) == code


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
            "relative_error", "loss", "wall_time_ms", "seed",
        }
        stopping = read_csv(out / "stopping.csv")
        assert len(stopping) == 2 * 2 * 2  # iterative methods only
        assert set(stopping[0]) == {
            "method", "nsr", "trial", "k_lcurve", "k_dp", "weak_corner",
        }
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


CONFIGS = [os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.cfg")
           for name in ("exp_in_range", "exp_out_of_range", "poly_in_range",
                        "poly_out_of_range")]


@pytest.fixture()
def cold_bench_caches():
    """Empty the per-process setup, truth and factorization caches before and after."""
    caches = (cli._get_setup, cli._get_truth, cli._get_factored)
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


@pytest.mark.parametrize("config", CONFIGS, ids=os.path.basename)
def test_bench_factorization_matches_cold_solves(config, cold_bench_caches):
    cfg = load_config(config)
    setup = cli._get_setup(cfg.kernel, cfg.m, cfg.n)
    base = clean_problem(setup, cli._get_truth(cfg.kernel, cfg.m, cfg.n, cfg.truth))
    for method in ("DARTR", "L2-direct", "l2-direct"):
        factored = cli._get_factored(cfg.kernel, cfg.m, cfg.n, method)
        for nsr in cfg.nsr_ladder:
            b = add_noise(base, nsr, row_seed(cfg.seed_base, method, nsr, 1)).b
            warm = cli.run_method(method, setup.linmap, setup.geom, b, None, factored)
            cold = cli.run_method(method, setup.linmap, setup.geom, b, None)
            for name in ("x", "lambdas", "residual_sq", "penalty_sq", "path"):
                assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
            assert (warm.lam, warm.corner_index) == (cold.lam, cold.corner_index)


def test_bench_factorizes_once_per_operator_and_weights(tmp_path, monkeypatch,
                                                        cold_bench_caches, eig_calls):
    monkeypatch.delenv("IDARR_THREADS", raising=False)
    for i, config in enumerate(CONFIGS):
        assert main(["fredholm-bench", "--config", config, "--trials", "1",
                     "--methods", "iDARR,DARTR,L2-direct",
                     "--output-dir", str(tmp_path / str(i))]) == 0
    assert len(eig_calls) == 2  # exp and poly, each under rho
    assert main(["fredholm-bench", "--config", CONFIGS[-1], "--trials", "2",
                 "--methods", "l2-direct", "--output-dir", str(tmp_path / "unit")]) == 0
    assert len(eig_calls) == 3  # poly under unit weights


@pytest.mark.parametrize("raw, cores, want", [
    ("1", 4, 1), ("3", 4, 3), ("4", 4, 4), ("20000", 4, 4), ("2", None, 1),
])
def test_worker_count_is_capped_at_the_core_count(monkeypatch, raw, cores, want):
    # only the pool size is computed here; no pool is started
    monkeypatch.setenv("IDARR_THREADS", raw)
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
    ],
    ids=["deblur-short-budget", "deblur-negative-nsr", "bench-bad-ladder",
         "timing-no-replicas", "timing-empty-grid", "deblur-psf-inf",
         "deblur-psf-nan", "deblur-psf-zero", "deblur-psf-huge",
         "deblur-psf-wider-than-frame", "deblur-nan-nsr", "deblur-inf-nsr",
         "bench-nan-ladder", "timing-negative-seed", "bench-negative-seed-base",
         "deblur-negative-seed", "timing-repeated-ladder"],
)
def test_bad_flag_value_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


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
