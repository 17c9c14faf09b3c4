"""Weighted geometry, generalized spectral decomposition, and direct solvers.

Closed-form oracles: for the 2x2 operator diag(2, 1) with observation
(1, 0) the penalized least-squares path is available by hand for every
penalty convention used here, and the adaptive quadratic form reduces to
a diagonal matrix whose entries are checked against pencil-and-paper
values. On a random well-conditioned problem every ladder point of the
three direct solvers is checked against a per-strength normal-equations
solve.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idarr import (
    DegenerateColumnError,
    DenseMap,
    DimensionError,
    DirectFactorization,
    Discrepancy,
    FixedIters,
    GeometryError,
    LCurve,
    NumericalBreakdownError,
    RkhsGeometry,
    TrivialDataError,
    add_noise,
    build_fredholm_map,
    clean_problem,
    compute_exploration_weights,
    dartr_solve,
    generalized_eig,
    idarr_solve,
    irL2_solve,
    irl2_solve,
    l2rho_error,
    make_fredholm,
    make_geometry,
    tikhonov_direct,
    true_solution,
)
from idarr import cli, linops
from idarr.cli import main
from idarr.rkhs import N_LAMBDAS

from conftest import rkhs_norm_sq

TOY_A = np.diag([2.0, 1.0])
TOY_RHO = np.array([2.0 / 3.0, 1.0 / 3.0])  # normalized column sums of diag(2,1)


def reference_generalized_eig(gram, rho):
    """(V, lambdas, rank) of the symmetric reduction, from a Gram built by the caller."""
    d = np.sqrt(rho)
    sym = gram / d[:, None] / d[None, :]
    sym = 0.5 * (sym + sym.T)
    mu, q = np.linalg.eigh(sym)
    order = np.argsort(mu)[::-1]
    mu = np.maximum(mu[order], 0.0)
    v = q[:, order] / d[:, None]
    rank = int(np.count_nonzero(mu > mu[0] * rho.size * np.finfo(float).eps))
    return v, mu, rank


class TestExplorationWeights:
    def test_small_matrix_frozen_values(self):
        w = compute_exploration_weights(DenseMap(np.array([[1.0, -2.0], [3.0, 4.0]])))
        np.testing.assert_allclose(w, [0.4, 0.6], atol=1e-15)

    def test_toy_diagonal(self):
        np.testing.assert_allclose(
            compute_exploration_weights(DenseMap(TOY_A)), TOY_RHO, atol=1e-15
        )

    def test_zero_column_rejected(self):
        with pytest.raises(DegenerateColumnError) as exc:
            compute_exploration_weights(DenseMap(np.array([[1.0, 0.0], [2.0, 0.0]])))
        assert exc.value.index == 1

    def test_fredholm_weights_are_probability_vector(self, exp_setup):
        rho = exp_setup.geom.rho
        assert np.all(rho > 0)
        assert abs(rho.sum() - 1.0) <= 1e-12


class TestRkhsGeometry:
    def test_wrong_length_rejected(self):
        with pytest.raises(GeometryError):
            RkhsGeometry(DenseMap(TOY_A), np.ones(3))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GeometryError):
            RkhsGeometry(DenseMap(TOY_A), np.array([0.5, 0.0]))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(GeometryError):
            RkhsGeometry(DenseMap(TOY_A), np.array([0.5, np.inf]))

    def test_unnormalized_weights_accepted(self):
        # uniform weights of 1 are the plain Euclidean metric
        geom = RkhsGeometry(DenseMap(TOY_A), np.ones(2))
        np.testing.assert_array_equal(geom.rho, [1.0, 1.0])

    def test_apply_solve_round_trip(self, rng):
        geom = RkhsGeometry(DenseMap(rng.standard_normal((6, 4))), rng.uniform(0.1, 2.0, 4))
        v = rng.standard_normal(4)
        np.testing.assert_allclose(geom.solve_b(geom.rho * v), v, atol=1e-14)

    def test_weighted_norm_frozen_value(self):
        geom = RkhsGeometry(DenseMap(TOY_A), TOY_RHO)
        # sqrt(2/3 * 9) = sqrt(6)
        assert geom.weighted_norm(np.array([3.0, 0.0])) == pytest.approx(np.sqrt(6.0))

    def test_pinv_apply_matches_dense_oracle(self, rng):
        a = rng.standard_normal((12, 8))
        rho = rng.uniform(0.2, 3.0, 8)
        geom = RkhsGeometry(DenseMap(a), rho)
        p = rng.standard_normal(8)
        binv = np.diag(1.0 / rho)
        oracle = binv @ (a.T @ (a @ (binv @ p)))
        got = geom.apply_crkhs_pinv(p)
        np.testing.assert_allclose(got, oracle, atol=1e-12 * np.abs(oracle).max())

    def test_pinv_apply_reduces_to_normal_matrix_for_unit_weights(self, rng):
        a = rng.standard_normal((9, 5))
        geom = RkhsGeometry(DenseMap(a), np.ones(5))
        p = rng.standard_normal(5)
        np.testing.assert_allclose(
            geom.apply_crkhs_pinv(p), a.T @ (a @ p), rtol=1e-15, atol=0
        )

    @pytest.mark.parametrize("cols", [8, 3], ids=["square", "tall"])
    def test_block_maps_act_column_by_column(self, cols):
        geom = make_geometry(build_fredholm_map("exp", 8, 8)[0])
        block = np.random.default_rng(5).standard_normal((8, cols))
        for apply in (geom.solve_b, geom.apply_crkhs_pinv):
            want = np.column_stack([apply(col) for col in block.T])
            np.testing.assert_allclose(apply(block), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(7,), (7, 3), (8, 2, 2)])
    def test_block_maps_reject_wrong_shapes(self, shape):
        geom = make_geometry(build_fredholm_map("exp", 8, 8)[0])
        for apply in (geom.solve_b, geom.apply_crkhs_pinv):
            with pytest.raises(DimensionError):
                apply(np.ones(shape))

    def test_make_geometry_normalizes(self):
        geom = make_geometry(DenseMap(TOY_A))
        np.testing.assert_allclose(geom.rho, TOY_RHO, atol=1e-15)


def two_product_crkhs_pinv(geom, p):
    """C^+ as the forward action, then the adjoint: the reference for the fused path."""
    return geom.solve_b(geom.linmap.apply_adjoint(geom.linmap.apply(geom.solve_b(p))))


class TestFusedMetric:
    """C^+ reads a dense operator once; solves keep the two-product path's results."""

    @pytest.mark.parametrize("shape", [(100,), (100, 3)], ids=["vector", "block"])
    @pytest.mark.parametrize("operator", ["R~", "A"])
    def test_one_block_map_is_bitwise_the_two_products(self, shape, operator):
        bench = cli._bench_operator("poly", 500, 100)
        geom = bench.reduced if operator == "R~" else bench.setup.geom
        assert 8 * geom.linmap.rows * geom.linmap.cols <= linops.NORMAL_BLOCK_BYTES
        p = np.random.default_rng(7).standard_normal(shape)
        got = geom.apply_crkhs_pinv(p)
        assert got.tobytes() == two_product_crkhs_pinv(geom, p).tobytes()
        assert got.shape == shape

    def test_reorthogonalized_idarr_on_many_blocks_matches_two_products(self, monkeypatch):
        setup = make_fredholm("poly", 300, 120)
        # 23 rows per block: 13 full blocks and a last one of 1 row
        monkeypatch.setattr(linops, "NORMAL_BLOCK_BYTES", 8 * 120 * 23)
        b = add_noise(clean_problem(setup, true_solution(setup, "out")), 0.01, 3).b
        stop = LCurve(max_iters=60)
        fused = idarr_solve(setup.geom, b, stop, reorthogonalize=True)
        monkeypatch.setattr(RkhsGeometry, "apply_crkhs_pinv", two_product_crkhs_pinv)
        ref = idarr_solve(setup.geom, b, stop, reorthogonalize=True)
        assert fused.k_stop == ref.k_stop
        assert np.linalg.norm(fused.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)

    def test_fredholm_solutions_are_bitwise_the_two_product_ones(self, tmp_path, monkeypatch):
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "poly_in_range.cfg")
        assert 8 * 500 * 100 <= linops.NORMAL_BLOCK_BYTES  # the config's operator is one block

        def solutions(name):
            out = tmp_path / name
            assert main(["fredholm-bench", "--config", config, "--trials", "2",
                         "--methods", "iDARR", "--output-dir", str(out)]) == 0
            return {f.name: f.read_bytes() for f in sorted((out / "solutions").iterdir())}

        fused = solutions("fused")
        monkeypatch.setattr(RkhsGeometry, "apply_crkhs_pinv", two_product_crkhs_pinv)
        ref = solutions("ref")
        assert len(fused) == 10 and fused == ref


class TestGeneralizedEig:
    def test_toy_eigenvalues_and_vectors(self):
        # diag(4,1) against diag(2/3,1/3): eigenvalues 6 and 3, vectors axis-
        # aligned with B-normalization sqrt(3/2) and sqrt(3)
        decomp = generalized_eig(TOY_A, TOY_RHO)
        np.testing.assert_allclose(decomp.lambdas, [6.0, 3.0], atol=1e-12)
        assert decomp.rank == 2
        np.testing.assert_allclose(
            np.abs(decomp.V), np.diag([np.sqrt(1.5), np.sqrt(3.0)]), atol=1e-12
        )

    def test_defining_equation_and_b_orthonormality(self, rng):
        a = rng.standard_normal((30, 18))
        rho = rng.uniform(0.1, 2.0, 18)
        gram = a.T @ a
        decomp = generalized_eig(a, rho)
        bmat = np.diag(rho)
        lhs = gram @ decomp.V
        rhs = bmat @ decomp.V @ np.diag(decomp.lambdas)
        scale = decomp.lambdas[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * scale)
        np.testing.assert_allclose(decomp.V.T @ bmat @ decomp.V, np.eye(18), atol=1e-8)

    def test_eigenvalues_descending_and_nonnegative(self, rng):
        a = rng.standard_normal((20, 12))
        decomp = generalized_eig(a, rng.uniform(0.1, 2.0, 12))
        assert np.all(np.diff(decomp.lambdas) <= 0)
        assert np.all(decomp.lambdas >= 0)

    def test_rank_matches_svd_oracle(self, rng):
        # explicit rank-7 operator on 12 unknowns
        u, _ = np.linalg.qr(rng.standard_normal((20, 7)))
        v, _ = np.linalg.qr(rng.standard_normal((12, 7)))
        a = u @ np.diag(np.geomspace(1.0, 1e-2, 7)) @ v.T
        rho = rng.uniform(0.5, 1.5, 12)
        decomp = generalized_eig(a, rho)
        assert decomp.rank == np.linalg.matrix_rank(a)
        assert decomp.rank == 7

    def test_invalid_weights_rejected(self):
        with pytest.raises(GeometryError):
            generalized_eig(TOY_A, np.array([1.0, -1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            generalized_eig(np.eye(3), np.ones(2))
        with pytest.raises(DimensionError):
            generalized_eig(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("shape", [(30, 18), (18, 30), (40, 1), (1, 6), (200, 80), (80, 200)])
    def test_bitwise_equal_to_gram_reference(self, rng, shape):
        # (18, 30), (1, 6) and (80, 200) have n > m: rank-deficient Grams
        a = rng.standard_normal(shape) * rng.uniform(0.01, 10.0, shape[1])
        rho = rng.uniform(0.1, 2.0, shape[1])
        decomp = generalized_eig(a, rho)
        v, mu, rank = reference_generalized_eig(a.T @ a, rho)
        assert decomp.V.strides == v.strides
        np.testing.assert_array_equal(decomp.V, v)
        np.testing.assert_array_equal(decomp.lambdas, mu)
        assert decomp.rank == rank == min(shape)

    def test_bitwise_equal_on_fredholm_operator(self, exp_setup):
        a, rho = exp_setup.linmap.entries, exp_setup.geom.rho
        v, mu, rank = reference_generalized_eig(a.T @ a, rho)
        decomp = generalized_eig(a, rho)
        np.testing.assert_array_equal(decomp.V, v)
        np.testing.assert_array_equal(decomp.lambdas, mu)
        assert decomp.rank == rank

    def test_operator_left_as_given_and_read_only_accepted(self, rng):
        a = rng.standard_normal((25, 10))
        rho = rng.uniform(0.5, 1.5, 10)
        before = a.copy()
        decomp = generalized_eig(a, rho)
        np.testing.assert_array_equal(a, before)
        a.flags.writeable = False
        np.testing.assert_array_equal(generalized_eig(a, rho).V, decomp.V)

    def test_traced_peak_is_one_gram_and_the_eigenvectors(self, rng, traced_peak):
        # the Gram and eigh's eigenvectors (eigh's own malloc'd copy and
        # workspace are not traced); the out-of-place reference, with the
        # caller's Gram, holds at least 4 n^2 doubles
        n = 400
        a = rng.standard_normal((500, n))
        rho = rng.uniform(0.5, 1.5, n)
        peak = traced_peak(lambda: generalized_eig(a, rho))
        assert peak < 2.5 * n * n * 8
        assert traced_peak(lambda: reference_generalized_eig(a.T @ a, rho)) >= 4 * n * n * 8


class TestRkhsNormSq:
    def test_toy_frozen_value(self):
        decomp = generalized_eig(TOY_A, TOY_RHO)
        assert rkhs_norm_sq(decomp, TOY_RHO, np.array([1.0, 0.0])) == pytest.approx(
            1.0 / 9.0, rel=1e-12
        )

    def test_unit_weight_frozen_value(self):
        rho = np.ones(2)
        decomp = generalized_eig(TOY_A, rho)
        assert rkhs_norm_sq(decomp, rho, np.array([1.0, 0.0])) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_full_rank_dense_oracle(self, rng):
        a = rng.standard_normal((15, 10))
        rho = rng.uniform(0.2, 2.0, 10)
        decomp = generalized_eig(a, rho)
        x = rng.standard_normal(10)
        bmat = np.diag(rho)
        oracle = x @ (bmat @ np.linalg.inv(a.T @ a) @ bmat) @ x
        assert rkhs_norm_sq(decomp, rho, x) == pytest.approx(oracle, rel=1e-8)

    def test_vanishes_exactly_on_unexplored_directions(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((16, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((9, 5)))
        a = u @ np.diag(np.linspace(2.0, 1.0, 5)) @ v.T
        rho = rng.uniform(0.5, 1.5, 9)
        decomp = generalized_eig(a, rho)
        r = decomp.rank
        assert r == 5
        x = rng.standard_normal(9)
        vr = decomp.V[:, :r]
        x_perp = x - vr @ (vr.T @ (rho * x))  # remove the explored expansion
        assert rkhs_norm_sq(decomp, rho, x_perp) <= 1e-16
        x_in = vr @ np.ones(r)
        assert rkhs_norm_sq(decomp, rho, x_in) > 0.1

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_scales_quadratically(self, c):
        decomp = generalized_eig(TOY_A, TOY_RHO)
        x = np.array([0.7, -1.3])
        base = rkhs_norm_sq(decomp, TOY_RHO, x)
        assert rkhs_norm_sq(decomp, TOY_RHO, c * x) == pytest.approx(
            c * c * base, rel=1e-9, abs=1e-12
        )


class TestDirectFactorization:
    def test_build_shares_the_dense_operator(self, rng):
        linmap = DenseMap(rng.standard_normal((20, 8)))
        fac = DirectFactorization.build(linmap, "rkhs", compute_exploration_weights(linmap))
        assert np.shares_memory(fac.a, linmap.entries)
        assert not fac.a.flags.writeable

    @pytest.mark.parametrize("norm", ["rkhs", "L2"])
    def test_weighted_norms_take_weights(self, norm):
        # only "l2" ignores rho; the weighted norms have no unit-weight default
        with pytest.raises(GeometryError):
            DirectFactorization.build(DenseMap(TOY_A), norm)


class TestDartrSolve:
    def test_identity_system_recovers_data(self):
        linmap = DenseMap(np.eye(2))
        result = dartr_solve(linmap, compute_exploration_weights(linmap), np.array([1.0, 1.0]))
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-3)

    def test_toy_path_matches_closed_form(self):
        # penalty (x1^2 + x2^2)/9 gives x(lambda) = (2/(4 + lambda/9), 0)
        result = dartr_solve(DenseMap(TOY_A), TOY_RHO, np.array([1.0, 0.0]))
        expected = 2.0 / (4.0 + result.lambdas / 9.0)
        np.testing.assert_allclose(result.iterates[:, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(result.iterates[:, 1], 0.0, atol=1e-12)

    def test_selected_point_lies_on_path(self):
        result = dartr_solve(DenseMap(TOY_A), TOY_RHO, np.array([1.0, 0.0]))
        assert result.history.shape == (result.lambdas.size, 2)
        np.testing.assert_allclose(
            result.x, result.iterates[result.k_stop - 1], rtol=0, atol=1e-15
        )

    def test_trade_off_curve_is_monotone(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.5, 7)
        result = dartr_solve(exp_setup.linmap, exp_setup.geom.rho, problem.b)
        residual_sq, penalty_sq = result.history.T ** 2
        slack_r = 1e-9 * residual_sq[0]
        slack_p = 1e-9 * penalty_sq[-1]
        assert np.all(np.diff(residual_sq) <= slack_r)
        assert np.all(np.diff(penalty_sq) >= -slack_p)

    def test_ladder_spans_spectrum_and_extends_below(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 3)
        result = dartr_solve(exp_setup.linmap, exp_setup.geom.rho, problem.b)
        decomp = exp_setup.decomposition()
        assert result.lambdas[0] == pytest.approx(decomp.lambdas[0], rel=1e-12)
        assert result.lambdas[-1] < decomp.lambdas[decomp.rank - 1]
        assert np.all(np.diff(result.lambdas) < 0)

    def test_zero_data_rejected(self):
        with pytest.raises(TrivialDataError):
            dartr_solve(DenseMap(TOY_A), TOY_RHO, np.zeros(2))

    def test_ladder_matches_analytic_spectrum(self, rng):
        # A = U diag(s) Q^T diag(sqrt(rho)) has generalized eigenvalues s^2,
        # so the standard form's spectrum s^4 spans 1.6e-15 of its top: the
        # ladder is exact only if that spectrum is not recomputed
        u = np.linalg.qr(rng.standard_normal((200, 60)))[0]
        q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        s = np.geomspace(1.0, 2e-4, 60)
        rho = rng.uniform(0.5, 2.0, 60)
        a = (u * s) @ q.T * np.sqrt(rho)
        b = rng.standard_normal(200)
        result = dartr_solve(DenseMap(a), rho, b)
        beta = u.T @ b
        outside = b - u @ beta
        lam = result.lambdas[:, None]
        s4 = s**4
        penalty = np.sum((s**2 * beta / (s4 + lam)) ** 2, axis=1)
        residual = np.sum((beta * lam / (s4 + lam)) ** 2, axis=1) + outside @ outside
        np.testing.assert_allclose(result.history[:, 1] ** 2, penalty, rtol=1e-9)
        np.testing.assert_allclose(result.history[:, 0] ** 2, residual, rtol=1e-9)

    def test_beats_plain_penalty_on_smooth_kernel(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.0625, 0)
        adaptive = dartr_solve(exp_setup.linmap, exp_setup.geom.rho, problem.b)
        plain = tikhonov_direct(exp_setup.linmap, problem.b)
        err_adaptive = l2rho_error(exp_setup.geom, adaptive.x, xt)
        err_plain = l2rho_error(exp_setup.geom, plain.x, xt)
        assert err_adaptive < 0.5 * err_plain


class TestTikhonovDirect:
    def test_plain_path_matches_closed_form(self):
        # penalty x1^2 + x2^2 gives x(lambda) = (2/(4 + lambda), 0)
        result = tikhonov_direct(DenseMap(TOY_A), np.array([1.0, 0.0]))
        expected = 2.0 / (4.0 + result.lambdas)
        np.testing.assert_allclose(result.iterates[:, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(result.iterates[:, 1], 0.0, atol=1e-12)

    def test_weighted_path_matches_closed_form(self):
        # penalty 9 x1^2 + x2^2 gives x(lambda) = (2/(4 + 9 lambda), 0)
        result = tikhonov_direct(
            DenseMap(TOY_A), np.array([1.0, 0.0]), weights=np.array([9.0, 1.0]),
        )
        expected = 2.0 / (4.0 + 9.0 * result.lambdas)
        np.testing.assert_allclose(result.iterates[:, 0], expected, rtol=1e-12)

    def test_residual_includes_out_of_range_component(self, rng):
        # tall system: part of b lies outside the operator's column span
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal(8)
        result = tikhonov_direct(DenseMap(a), b)
        x = result.iterates[result.k_stop - 1]
        direct = a @ x - b
        assert result.history[result.k_stop - 1, 0] ** 2 == pytest.approx(
            direct @ direct, rel=1e-9
        )

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GeometryError):
            tikhonov_direct(DenseMap(TOY_A), np.array([1.0, 0.0]), weights=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("weights, error", [
        ([1.0, np.nan], GeometryError),
        ([np.inf, 1.0], GeometryError),
        ([1.0, 1.0, 1.0], DimensionError),
    ], ids=["nan", "inf", "wrong-length"])
    def test_bad_weights_rejected(self, weights, error):
        with pytest.raises(error):
            tikhonov_direct(DenseMap(TOY_A), np.array([1.0, 0.0]), weights=np.array(weights))

    def test_zero_data_rejected(self):
        with pytest.raises(TrivialDataError):
            tikhonov_direct(DenseMap(TOY_A), np.zeros(2))

    def test_zero_operator_rejected(self):
        with pytest.raises(TrivialDataError):
            tikhonov_direct(DenseMap(np.zeros((3, 2))), np.ones(3))


class TestDirectLadderReference:
    """Each ladder point against (A^T A + lam P) x = A^T b, solved directly.

    P is the penalty matrix: B (A^T A)^-1 B for DARTR (the adaptive norm
    when A has full column rank), diag(rho) for L2-direct and I for
    l2-direct.
    """

    @pytest.mark.parametrize("method", ["DARTR", "L2-direct", "l2-direct"])
    def test_every_point_solves_normal_equations(self, rng, method):
        a = rng.standard_normal((40, 12))
        b = rng.standard_normal(40)
        rho = compute_exploration_weights(DenseMap(a))
        gram = a.T @ a
        if method == "DARTR":
            result = dartr_solve(DenseMap(a), rho, b)
            penalty = np.diag(rho) @ np.linalg.solve(gram, np.diag(rho))
        elif method == "L2-direct":
            result = tikhonov_direct(DenseMap(a), b, weights=rho)
            penalty = np.diag(rho)
        else:
            result = tikhonov_direct(DenseMap(a), b)
            penalty = np.eye(12)
        assert result.iterates.shape == (result.lambdas.size, 12)
        for j, lam in enumerate(result.lambdas):
            x = np.linalg.solve(gram + lam * penalty, a.T @ b)
            assert np.linalg.norm(result.iterates[j] - x) <= 1e-8 * np.linalg.norm(x)
            res = a @ x - b
            assert result.history[j, 0] ** 2 == pytest.approx(res @ res, rel=1e-8)
            assert result.history[j, 1] ** 2 == pytest.approx(x @ penalty @ x, rel=1e-8)
        assert np.array_equal(result.x, result.iterates[result.k_stop - 1])

    def test_unit_weights_equal_plain_penalty_bitwise(self, rng):
        a = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        weighted = tikhonov_direct(DenseMap(a), b, weights=np.ones(10))
        plain = tikhonov_direct(DenseMap(a), b)
        for name in ("x", "lambdas", "history", "iterates"):
            assert getattr(weighted, name).tobytes() == getattr(plain, name).tobytes(), name
        assert weighted.k_stop == plain.k_stop


@pytest.mark.parametrize("solve", [
    lambda b: dartr_solve(DenseMap(TOY_A), TOY_RHO, b),
    lambda b: tikhonov_direct(DenseMap(TOY_A), b),
    lambda b: idarr_solve(RkhsGeometry(DenseMap(TOY_A), TOY_RHO), b, LCurve()),
    lambda b: irl2_solve(DenseMap(TOY_A), b, LCurve()),
    lambda b: irL2_solve(RkhsGeometry(DenseMap(TOY_A), TOY_RHO), b, LCurve()),
], ids=["dartr", "tikhonov", "idarr", "irl2", "irL2"])
@pytest.mark.parametrize("b, error", [
    ([1.0, np.nan], NumericalBreakdownError),
    ([np.inf, 0.0], NumericalBreakdownError),
    ([1e200, 1e200], NumericalBreakdownError),  # finite entries, overflowing norm
    ([[1.0, 0.0]], DimensionError),
    ([1.0, 0.0, 0.0], DimensionError),
    ([0.0, 0.0], TrivialDataError),
    ([0.0, 0.0, 0.0], DimensionError),  # the length is checked before the norm
], ids=["nan", "inf", "overflow", "2-d", "wrong-length", "zero", "zero-wrong-length"])
def test_bad_data_rejected(solve, b, error):
    # runs and ladders share one data check
    with pytest.raises(error):
        solve(np.array(b))


@pytest.mark.parametrize("solve", [
    dartr_solve,
    lambda linmap, rho, b: tikhonov_direct(linmap, b),
], ids=["dartr", "tikhonov"])
def test_overflowing_ladder_norms_raise(solve):
    # a finite data norm whose ladder norms overflow to inf: no corner to pick
    setup = make_fredholm("exp", 200, 40)
    b = add_noise(clean_problem(setup, true_solution(setup, "out")), 0.25, 4).b
    rho = compute_exploration_weights(setup.linmap)
    solve(setup.linmap, rho, b)  # the same data at its own scale solves
    with pytest.raises(NumericalBreakdownError, match="not finite"):
        solve(setup.linmap, rho, 1e150 * b)


def test_factorization_solves_repeatedly_like_the_one_shots(rng):
    a = rng.standard_normal((40, 12))
    rho = compute_exploration_weights(DenseMap(a))
    dartr = DirectFactorization.build(DenseMap(a), "rkhs", rho)
    tikhonov = DirectFactorization.build(DenseMap(a), "L2", rho, dartr.decomp)
    for b in rng.standard_normal((3, 40)):
        pairs = ((dartr.solve(b), dartr_solve(DenseMap(a), rho, b)),
                 (tikhonov.solve(b), tikhonov_direct(DenseMap(a), b, weights=rho)))
        for warm, cold in pairs:
            for name in ("x", "lambdas", "history", "iterates"):
                assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
            assert warm.k_stop == cold.k_stop


class TestLadderSelection:
    """The stopping rule picks a ladder point, strongest strength first, as it picks an iterate."""

    @pytest.fixture(scope="class")
    def ladder(self, exp_setup):
        problem = add_noise(clean_problem(exp_setup, true_solution(exp_setup, "in-range")), 0.1, 5)
        return DirectFactorization.build(exp_setup.linmap, "rkhs", exp_setup.geom.rho), problem

    def test_discrepancy_takes_the_first_point_under_the_threshold(self, ladder):
        factored, problem = ladder
        result = factored.solve(problem.b, Discrepancy(problem.noise_norm, 1.05))
        under = result.history[:, 0] <= 1.05 * problem.noise_norm
        first = int(np.flatnonzero(under)[0]) + 1
        assert 1 < first < N_LAMBDAS
        assert (result.k_stop, result.converged) == (first, True)
        assert result.x.tobytes() == result.iterates[first - 1].tobytes()
        assert result.residual == result.history[first - 1, 0]

    def test_unmet_discrepancy_ends_at_the_weakest_strength(self, ladder):
        factored, problem = ladder
        result = factored.solve(problem.b, Discrepancy(problem.noise_norm * 1e-3))
        assert (result.k_stop, result.converged) == (N_LAMBDAS, False)
        assert result.x.tobytes() == result.iterates[-1].tobytes()

    def test_fixed_iters_takes_point_k(self, ladder):
        factored, problem = ladder
        result = factored.solve(problem.b, FixedIters(5))
        assert result.x.tobytes() == result.iterates[4].tobytes()
        assert (result.k_stop, result.converged) == (5, True)
        beyond = factored.solve(problem.b, FixedIters(N_LAMBDAS + 1))
        assert (beyond.k_stop, beyond.converged) == (N_LAMBDAS, False)

    def test_default_rule_is_the_corner(self, ladder, exp_setup):
        factored, problem = ladder
        pairs = ((factored.solve(problem.b), factored.solve(problem.b, LCurve())),
                 (dartr_solve(exp_setup.linmap, exp_setup.geom.rho, problem.b),
                  dartr_solve(exp_setup.linmap, exp_setup.geom.rho, problem.b, LCurve())),
                 (tikhonov_direct(exp_setup.linmap, problem.b),
                  tikhonov_direct(exp_setup.linmap, problem.b, None, LCurve())))
        for default, corner in pairs:
            for name in ("x", "lambdas", "history", "iterates"):
                assert getattr(default, name).tobytes() == getattr(corner, name).tobytes(), name
            assert (default.k_stop, default.converged, default.weak_corner) == (
                corner.k_stop, corner.converged, corner.weak_corner)


def test_unknown_norm_rejected():
    with pytest.raises(ValueError, match="norm must be"):
        DirectFactorization.build(DenseMap(TOY_A), "L1", TOY_RHO)


@pytest.mark.parametrize("method", ["DARTR", "L2-direct", "l2-direct"])
def test_direct_solve_runs_one_eigendecomposition(rng, monkeypatch, method):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    a = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    rho = compute_exploration_weights(DenseMap(a))
    if method == "DARTR":
        dartr_solve(DenseMap(a), rho, b)
    else:
        tikhonov_direct(DenseMap(a), b, weights=rho if method == "L2-direct" else None)
    assert calls == [(12, 12)]
