"""Experiment harness: discretization grids, truths, the noise law, the
deblurring construction, and operator serialization."""

import json

import numpy as np
import pytest

from idarr import (
    DenseMap,
    DiagonalMap,
    DimensionError,
    IoError,
    PsfConvolutionMap,
    add_noise,
    clean_problem,
    idarr_solve,
    FixedIters,
    l2rho_error,
    load_operator,
    make_deblur,
    save_operator,
    write_array,
    synthetic_image,
    true_solution,
)


class TestFredholmGrids:
    def test_unknown_grid_frozen_values(self, exp_setup):
        s = exp_setup.s
        assert s.shape == (100,)
        assert s[0] == pytest.approx(1.04, abs=1e-12)
        assert s[-1] == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(s), 0.04, atol=1e-12)

    def test_data_grid_frozen_values(self, exp_setup):
        t = exp_setup.t
        assert t.shape == (500,)
        assert t[0] == pytest.approx(0.01, abs=1e-12)
        assert t[-1] == pytest.approx(5.0, abs=1e-12)
        assert exp_setup.dt == pytest.approx(0.01, abs=1e-15)

    def test_kernel_label_recorded(self, exp_setup, poly_setup):
        assert exp_setup.kernel == "exp"
        assert poly_setup.kernel == "poly"


class TestTruths:
    def test_explorable_truth_has_unit_weighted_norm(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        assert exp_setup.geom.weighted_norm(xt) == pytest.approx(1.0, rel=1e-8)

    def test_explorable_truth_recoverable_from_clean_data(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = clean_problem(exp_setup, xt)
        result = idarr_solve(
            exp_setup.geom, problem.b, FixedIters(30), reorthogonalize=True
        )
        assert l2rho_error(exp_setup.geom, result.x, xt) <= 1e-6

    def test_unexplorable_truth_is_squared_grid(self, exp_setup):
        np.testing.assert_array_equal(
            true_solution(exp_setup, "out-of-range"), exp_setup.s**2
        )

    def test_kind_aliases(self, exp_setup):
        np.testing.assert_array_equal(
            true_solution(exp_setup, "in"), true_solution(exp_setup, "in-range")
        )
        np.testing.assert_array_equal(
            true_solution(exp_setup, "out"), true_solution(exp_setup, "out-of-range")
        )

    def test_unknown_kind_rejected(self, exp_setup):
        with pytest.raises(ValueError):
            true_solution(exp_setup, "sideways")


class TestNoiseModel:
    def test_clean_problem_has_no_noise(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = clean_problem(exp_setup, xt)
        np.testing.assert_array_equal(problem.b, problem.b_clean)
        np.testing.assert_array_equal(
            problem.b_clean, exp_setup.linmap.apply(xt)
        )
        assert problem.sigma == 0.0 and problem.nsr == 0.0 and problem.seed is None
        assert problem.noise_norm == 0.0

    def test_noise_scale_follows_data_norm(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        base = clean_problem(exp_setup, xt)
        problem = add_noise(base, 0.25, 42)
        assert problem.sigma == pytest.approx(
            0.25 * np.linalg.norm(base.b_clean), rel=1e-14
        )
        assert problem.nsr == 0.25 and problem.seed == 42
        assert problem.noise_norm == pytest.approx(
            problem.sigma * np.sqrt(problem.dt * 500), rel=1e-14
        )

    def test_same_seed_reproduces_and_seeds_differ(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        base = clean_problem(exp_setup, xt)
        p1 = add_noise(base, 0.25, 7)
        p2 = add_noise(base, 0.25, 7)
        p3 = add_noise(base, 0.25, 8)
        np.testing.assert_array_equal(p1.b, p2.b)
        assert np.abs(p1.b - p3.b).max() > 0

    def test_negative_ratio_rejected(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        with pytest.raises(ValueError):
            add_noise(clean_problem(exp_setup, xt), -0.1, 0)

    def test_perturbation_law_monte_carlo(self, exp_setup):
        # b - b_clean = sigma sqrt(dt) g with g standard normal: check the
        # per-entry standard deviation and the chi-square concentration of
        # ||g||^2 across replicas at the three-sigma level
        xt = true_solution(exp_setup, "in-range")
        base = clean_problem(exp_setup, xt)
        replicas = 200
        m = 500
        sqsums = np.empty(replicas)
        entries = []
        for seed in range(replicas):
            p = add_noise(base, 0.5, seed)
            g = (p.b - p.b_clean) / (p.sigma * np.sqrt(p.dt))
            sqsums[seed] = g @ g
            entries.append(g)
        pooled = np.concatenate(entries)
        assert np.std(pooled) == pytest.approx(1.0, rel=0.02)
        assert abs(sqsums.mean() - m) <= 3.0 * np.sqrt(2.0 * m / replicas)


class TestErrorMetric:
    def test_zero_for_identical_vectors(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        assert l2rho_error(exp_setup.geom, xt, xt) == 0.0

    def test_frozen_weighted_value(self):
        from idarr import RkhsGeometry

        geom = RkhsGeometry(
            DenseMap(np.diag([2.0, 1.0])), np.array([2.0 / 3.0, 1.0 / 3.0])
        )
        assert l2rho_error(geom, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(
            np.sqrt(2.0 / 3.0)
        )


class TestSyntheticImages:
    @pytest.mark.parametrize("kind", ["checkerboard", "blobs", "ramp"])
    def test_range_and_shape(self, kind):
        img = synthetic_image(kind, 16)
        assert img.shape == (16, 16)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_checkerboard_levels(self):
        img = synthetic_image("checkerboard", 16)
        assert set(np.unique(img)) == {0.25, 0.85}

    def test_ramp_is_horizontal_gradient(self):
        img = synthetic_image("ramp", 12)
        assert np.all(np.diff(img, axis=1) > 0)
        np.testing.assert_allclose(np.diff(img, axis=0), 0.0, atol=1e-15)

    def test_small_side_rejected(self):
        with pytest.raises(DimensionError):
            synthetic_image("blobs", 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image("spiral", 16)


class TestDeblur:
    def test_identity_psf_gives_identity_problem(self):
        problem = make_deblur("blobs:16", psf=np.array([[1.0]]), nsr=0.0)
        np.testing.assert_allclose(
            problem.b_clean, problem.x_true, atol=1e-14
        )

    def test_blur_smooths_the_image(self):
        problem = make_deblur("checkerboard:16", psf="gaussian:2", nsr=0.0)
        side = 16
        blurred = problem.b_clean.reshape(side, side)
        original = problem.x_true.reshape(side, side)

        def total_variation(img):
            return np.abs(np.diff(img, axis=0)).sum() + np.abs(np.diff(img, axis=1)).sum()

        assert total_variation(blurred) < 0.5 * total_variation(original)

    def test_pixel_weight_convention(self):
        problem = make_deblur("blobs:16", nsr=0.0)
        assert problem.dt == pytest.approx(1.0 / 256.0, abs=1e-18)
        assert problem.linmap.rows == 256

    def test_noisy_construction_applies_stated_ratio(self):
        problem = make_deblur("blobs:16", nsr=0.05, seed=3)
        assert problem.nsr == 0.05 and problem.seed == 3
        assert problem.sigma == pytest.approx(
            0.05 * np.linalg.norm(problem.b_clean), rel=1e-14
        )

    def test_psf_at_most_twice_the_side_minus_one_pixels(self):
        problem = make_deblur("blobs:16", psf="gaussian:5", nsr=0.0)
        assert problem.linmap.psf.shape == (31, 31)
        with pytest.raises(ValueError):
            make_deblur("blobs:16", psf=np.ones((1, 33)), nsr=0.0)

    def test_psf_file_named_like_a_gaussian_is_read_as_a_grid(self, tmp_path, monkeypatch):
        # only "gaussian" and "gaussian:WIDTH" name a Gaussian, and an existing file wins
        monkeypatch.chdir(tmp_path)
        box = np.full((3, 3), 1.0 / 9.0)
        for name in ("gaussian_box.txt", "gaussian:2"):
            np.savetxt(name, box)
            problem = make_deblur("blobs:16", psf=name, nsr=0.0)
            np.testing.assert_array_equal(problem.linmap.psf, box)
        with pytest.raises(IoError):
            make_deblur("blobs:16", psf="gaussian5", nsr=0.0)

    def test_array_image_in_unit_range_used_as_is(self):
        img = synthetic_image("ramp", 8)
        problem = make_deblur(img, psf=np.array([[1.0]]), nsr=0.0)
        np.testing.assert_allclose(problem.x_true, img.ravel(), atol=1e-15)


class TestSerialization:
    def test_dense_operator_round_trip(self, tmp_path, rng):
        a = rng.standard_normal((7, 4))
        path = save_operator(DenseMap(a), str(tmp_path))
        back = load_operator(path)
        assert isinstance(back, DenseMap)
        np.testing.assert_array_equal(back.entries, a)

    def test_diagonal_operator_round_trip(self, tmp_path, rng):
        d = rng.uniform(0.5, 2.0, 6)
        path = save_operator(DiagonalMap(d), str(tmp_path), name="diag_op")
        back = load_operator(path)
        assert isinstance(back, DiagonalMap)
        np.testing.assert_array_equal(back.diag, d)

    def test_psf_operator_round_trip(self, tmp_path):
        from idarr import gaussian_psf

        linmap = PsfConvolutionMap(12, gaussian_psf(1.5))
        path = save_operator(linmap, str(tmp_path), name="blur")
        back = load_operator(path)
        assert isinstance(back, PsfConvolutionMap)
        assert back.side == 12
        np.testing.assert_allclose(back.psf, linmap.psf, atol=1e-12)

    def test_unknown_operator_kind_rejected(self, tmp_path):
        desc = tmp_path / "operator.json"
        desc.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(IoError):
            load_operator(str(desc))

    def test_malformed_descriptor_rejected(self, tmp_path, capsys):
        from idarr.cli import main

        write_array(str(tmp_path / "vec.bin"), np.ones(4))
        write_array(str(tmp_path / "mat.bin"), np.ones((5, 3)))
        (tmp_path / "psf.txt").write_text("1\n")
        np.savetxt(tmp_path / "wide.txt", np.ones((41, 41)))
        desc = tmp_path / "operator.json"
        for text in (
            "{not json",
            '["dense"]',
            '{"kind": "dense"}',
            '{"kind": "dense", "rows": 4, "cols": 1, "entries": "vec.bin"}',  # a 1-d payload
            '{"kind": "dense", "rows": 7, "cols": 2, "entries": "mat.bin"}',
            '{"kind": "dense", "rows": 3, "cols": 5, "entries": "mat.bin"}',
            '{"kind": "dense", "rows": 5.0, "cols": 3, "entries": "mat.bin"}',
            '{"kind": "dense", "rows": "5", "cols": 3, "entries": "mat.bin"}',
            '{"kind": "dense", "cols": 3, "entries": "mat.bin"}',
            '{"kind": "diagonal", "diag": 3}',
            '{"kind": "psf", "psf": "psf.txt"}',
            '{"kind": "psf", "side": "abc", "psf": "psf.txt"}',
            '{"kind": "psf", "side": 0, "psf": "psf.txt"}',
            '{"kind": "psf", "side": 1e400, "psf": "psf.txt"}',
            '{"kind": "psf", "side": 4, "psf": "wide.txt"}',  # wider than 2 * side - 1
        ):
            desc.write_text(text)
            with pytest.raises(IoError):
                load_operator(str(desc))
            assert main(["solve", "--operator", str(desc), "--data", str(tmp_path / "vec.bin"),
                         "--out", str(tmp_path / "x.bin")]) == 2, text
            assert capsys.readouterr().err.startswith("io error:"), text
