"""Iterative solver: recursive update correctness, stopping rules, and the
corner detector.

Oracles: every subspace iterate has a dense reference (least squares
against the explicit coupling matrix); the corner detector is checked
against an independent circumscribed-circle computation (perpendicular-
bisector circumcenter) and on synthetic polylines with known corners.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idarr import (
    BidiagProcess,
    DenseMap,
    DimensionError,
    Discrepancy,
    FixedIters,
    LCurve,
    RkhsGeometry,
    add_noise,
    clean_problem,
    dp_stop,
    generalized_eig,
    idarr_solve,
    irL2_solve,
    irl2_solve,
    lcurve_corner,
    make_geometry,
    run_bidiag,
    true_solution,
)
from idarr import cli, solver
from idarr.properties import (rank_deficient_instance, residual_gaps, restricted_solution,
                              subspace_deviation)
from idarr.solver import polyline_bends

from conftest import rkhs_norm_sq

SOLVERS = {  # each iterative solver, called with a geometry
    "idarr": idarr_solve,
    "irL2": irL2_solve,
    "irl2": lambda geom, *args, **kw: irl2_solve(geom.linmap, *args, **kw),
}
TOY_A = np.diag([2.0, 1.0])
TOY_RHO = np.array([2.0 / 3.0, 1.0 / 3.0])


def _point_at_arc(pts, cum, s):
    """Point at arc-length position s along the polyline (linear interp)."""
    s = min(max(s, 0.0), float(cum[-1]))
    j = int(np.searchsorted(cum, s, side="right")) - 1
    j = min(max(j, 0), pts.shape[0] - 2)
    seg = cum[j + 1] - cum[j]
    if seg <= 0.0:
        return pts[j]
    t = (s - cum[j]) / seg
    return pts[j] + t * (pts[j + 1] - pts[j])


def reference_polyline_bends(pts, scale_frac=0.05):
    """Per-vertex loop that polyline_bends vectorizes; kept as its reference."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])
    bends = np.zeros(pts.shape[0] - 2)
    if total <= 0.0:
        return bends
    h = scale_frac * total
    for i in range(1, pts.shape[0] - 1):
        back = _point_at_arc(pts, cum, cum[i] - h)
        ahead = _point_at_arc(pts, cum, cum[i] + h)
        d1 = pts[i] - back
        d2 = ahead - pts[i]
        a = np.hypot(d1[0], d1[1])
        b = np.hypot(d2[0], d2[1])
        chord = ahead - back
        c = np.hypot(chord[0], chord[1])
        abc = a * b * c
        if abc > 0.0:
            cross = d1[0] * d2[1] - d1[1] * d2[0]
            bends[i - 1] = -2.0 * cross / abc
    return bends


def clip_split_polyline_bends(pts):
    """polyline_bends written with np.clip, np.split and np.linalg.norm of np.diff.

    The library's body replaces those calls by their arithmetic; it must
    stay bitwise equal to this one.
    """
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])
    if total <= 0.0:
        return np.zeros(pts.shape[0] - 2)
    h = solver.CORNER_SCALE_FRAC * total
    here = pts[1:-1]
    s = np.clip(np.concatenate((cum[1:-1] - h, cum[1:-1] + h)), 0.0, total)
    j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, pts.shape[0] - 2)
    span = cum[j + 1] - cum[j]
    moving = span > 0.0
    t = (s - cum[j]) / np.where(moving, span, 1.0)
    at = np.where(moving[:, None], pts[j] + t[:, None] * (pts[j + 1] - pts[j]), pts[j])
    back, ahead = np.split(at, 2)
    d1 = here - back
    d2 = ahead - here
    a, b, c = (np.hypot(d[:, 0], d[:, 1]) for d in (d1, d2, ahead - back))
    abc = a * b * c
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    curved = abc > 0.0
    return np.where(curved, -2.0 * cross / np.where(curved, abc, 1.0), 0.0)


@pytest.fixture(scope="module")
def bench_log_paths():
    """Log-norm paths of fredholm-bench rows, clamped as LCurve clamps them.

    108 iterative 30-point runs (iDARR, IR-l2, IR-L2 on both kernels' R~)
    and six DARTR 64-point ladders.
    """
    runs, ladders = [], []
    for kernel, truth in (("exp", "in-range"), ("poly", "out-of-range")):
        bench = cli._bench_operator(kernel, 500, 100)
        clean = cli._clean_problem(kernel, 500, 100, truth)
        factored = cli._get_factored(kernel, 500, 100, "DARTR")
        for nsr, seed in itertools.product((0.01, 0.1, 0.5), range(6)):
            b = bench.reduce(add_noise(clean, nsr, seed).b)
            for method in ("iDARR", "IR-l2", "IR-L2"):
                runs.append(cli.run_method(method, bench.reduced.linmap, bench.reduced, b,
                                           LCurve()).history)
            if seed == 0:
                ladders.append(cli.run_method("DARTR", bench.reduced.linmap, bench.reduced, b,
                                              LCurve(), factored).history)
    assert {h.shape for h in runs} == {(30, 2)} and {h.shape for h in ladders} == {(64, 2)}
    return [np.log(np.maximum(h, solver._LOG_FLOOR)) for h in runs + ladders]


def toy_geom():
    return RkhsGeometry(DenseMap(TOY_A), TOY_RHO)


def subspace_lstsq_oracle(geom, b, k):
    """Dense reference for the k-th iterate: least squares in the explicit
    generated basis against the coupling matrix."""
    factors = run_bidiag(geom, b, k)
    # B_k: alpha_i on the diagonal, beta_{i+1} below it
    bk = np.eye(k + 1, k) * factors.alphas[:k] + np.eye(k + 1, k, -1) * factors.betas[1:k + 1]
    rhs = np.zeros(k + 1)
    rhs[0] = factors.betas[0]
    y, *_ = np.linalg.lstsq(bk, rhs, rcond=None)
    return np.column_stack(factors.Z[:k]) @ y


class TestUpdateRecursion:
    def test_toy_solution_by_hand(self):
        # exhaustion after one step; the single Givens rotation is trivial
        # (beta_2 = 0) and x_1 = (gamma_1/rho_1) z_1 = (1/6)(3,0) = (1/2, 0)
        result = idarr_solve(toy_geom(), np.array([1.0, 0.0]), FixedIters(5))
        np.testing.assert_allclose(result.x, [0.5, 0.0], atol=1e-14)
        assert result.k_stop == 1
        assert result.terminated and result.k_t == 1
        assert result.converged
        assert result.history[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert result.history[0, 1] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_iterates_match_dense_subspace_oracle(self, rng):
        a = rng.standard_normal((15, 8))
        geom = RkhsGeometry(DenseMap(a), rng.uniform(0.5, 1.5, 8))
        b = rng.standard_normal(15)
        result = idarr_solve(geom, b, FixedIters(6), store_iterates=True)
        for k in range(1, 7):
            oracle = subspace_lstsq_oracle(geom, b, k)
            np.testing.assert_allclose(
                result.iterates[k - 1], oracle, atol=1e-10 * np.abs(oracle).max()
            )

    def test_recorded_residual_matches_recomputation(self, rng):
        a = rng.standard_normal((15, 8))
        geom = RkhsGeometry(DenseMap(a), rng.uniform(0.5, 1.5, 8))
        gaps = residual_gaps(geom, rng.standard_normal(15), 6)
        assert len(gaps) == 6 and max(gaps) <= 1e-9

    def test_recorded_penalty_matches_spectral_form(self, rng):
        a = rng.standard_normal((15, 8))
        rho = rng.uniform(0.5, 1.5, 8)
        geom = RkhsGeometry(DenseMap(a), rho)
        b = rng.standard_normal(15)
        decomp = generalized_eig(a, rho)
        result = idarr_solve(geom, b, FixedIters(6), store_iterates=True)
        for (_, penalty_norm), x in zip(result.history, result.iterates):
            spectral = np.sqrt(rkhs_norm_sq(decomp, rho, x))
            assert penalty_norm == pytest.approx(spectral, rel=1e-6, abs=1e-10)

    def test_residuals_monotone_and_penalty_nondecreasing(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 4)
        result = idarr_solve(exp_setup.geom, problem.b, FixedIters(30))
        res, pen = result.history.T
        assert np.all(np.diff(res) <= 1e-12 * res[0])
        assert np.all(np.diff(pen) >= -1e-10 * pen[-1])

    def test_terminal_iterate_matches_pseudoinverse_oracle(self, rng):
        # rank-deficient operator: at exhaustion the iterate is the least
        # squares solution of minimal penalty norm, computable densely
        # through the kernel square root
        u, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        a = u @ np.diag([2.0, 1.5, 1.0, 0.5]) @ v.T
        rho = rng.uniform(0.5, 1.5, 6)
        geom = RkhsGeometry(DenseMap(a), rho)
        b = rng.standard_normal(10)
        result = idarr_solve(geom, b, FixedIters(20), reorthogonalize=True)
        assert result.terminated
        oracle = restricted_solution(geom, b)
        np.testing.assert_allclose(result.x, oracle, atol=1e-6 * np.abs(oracle).max())

    def test_iterate_unique_across_bases(self, rng):
        # the subspace minimizer does not depend on the basis used to
        # parameterize the subspace
        a = rng.standard_normal((12, 7))
        rho = rng.uniform(0.5, 1.5, 7)
        geom = RkhsGeometry(DenseMap(a), rho)
        b = rng.standard_normal(12)
        k = 4
        result = idarr_solve(geom, b, FixedIters(k))
        assert subspace_deviation(geom, b, k, rng) <= 1e-8

        def kp(p):
            return (a.T @ (a @ (p / rho))) / rho

        vecs = [kp(a.T @ b)]
        for _ in range(k - 1):
            vecs.append(kp(a.T @ (a @ vecs[-1])))
        w = np.column_stack(vecs)
        w /= np.abs(w).max(axis=0)  # tame the scale spread across powers
        c2, *_ = np.linalg.lstsq(a @ w, b, rcond=None)
        np.testing.assert_allclose(w @ c2, result.x, atol=1e-8 * np.abs(result.x).max())

    def test_data_with_no_explorable_component_gives_zero(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        geom = RkhsGeometry(DenseMap(a), np.ones(2))
        result = idarr_solve(geom, np.array([0.0, 1.0]), FixedIters(5))
        np.testing.assert_array_equal(result.x, [0.0, 0.0])
        assert result.k_stop == 0 and result.k_t == 0
        # the zero iterate's residual is the data norm beta_1
        assert result.residual == 1.0 and result.penalty_norm is None

    @pytest.mark.parametrize("stop, converged", [
        (Discrepancy(noise_norm=0.01), False),  # ||b|| = 1 > 1.01 * 0.01
        (Discrepancy(noise_norm=1.0), True),  # ||b|| = 1 <= 1.01 * 1
        (LCurve(), True),
        (FixedIters(5), True),
    ], ids=["dp-unmet", "dp-met", "lcurve", "fixed"])
    def test_zero_step_convergence_follows_the_rule(self, stop, converged):
        # with nothing explorable the zero iterate is the whole run, and each
        # rule judges it as it would judge the last iterate of a longer run
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        geom = RkhsGeometry(DenseMap(a), np.ones(2))
        result = idarr_solve(geom, np.array([0.0, 1.0]), stop)
        assert result.k_stop == 0 and result.history.shape == (0, 2)
        assert result.converged is converged
        assert result.weak_corner is False


class TestCornerDetector:
    def test_right_angle_polyline(self):
        pts = [(-float(i), 0.0) for i in range(5)] + [(-4.0, float(j)) for j in range(1, 5)]
        idx, weak = lcurve_corner(pts)
        assert idx == 4 and not weak

    def test_near_ties_resolve_to_earliest_corner(self):
        # two equally sharp clockwise corners: prefer the earlier one
        pts = [(0.0, 0.0), (-2.0, 0.0), (-2.0, 1.0), (-4.0, 1.0), (-4.0, 2.0)]
        idx, weak = lcurve_corner(pts)
        assert idx == 1 and not weak

    def test_collinear_points_fall_back_to_last(self):
        pts = [(-float(i), 0.5 * i) for i in range(10)]
        idx, weak = lcurve_corner(pts)
        assert idx == 9 and weak

    def test_counterclockwise_bend_is_not_a_corner(self):
        # curve bending the wrong way (up, then left): no clockwise corner
        pts = [(0.0, -4.0), (0.0, -2.0), (0.0, 0.0), (-2.0, 0.0), (-4.0, 0.0)]
        idx, weak = lcurve_corner(pts)
        assert idx == len(pts) - 1 and weak

    def test_too_few_points_give_the_last_point_weak(self):
        assert lcurve_corner([(0.0, 0.0), (-1.0, 0.0)]) == (1, True)
        assert lcurve_corner([(0.0, 0.0)]) == (0, True)
        with pytest.raises(ValueError):
            lcurve_corner(np.zeros((0, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            lcurve_corner(np.zeros((4, 3)))

    def test_collapsed_leading_norms_are_pruned(self):
        # leading points with norm at the log floor must not fabricate a bend
        floor = np.log(1e-280)
        pts = [(0.0, floor), (-0.5, floor)] + [(-float(i), 0.0) for i in range(1, 5)] + [
            (-4.0, float(j)) for j in range(1, 5)
        ]
        idx, weak = lcurve_corner(pts)
        assert not weak
        assert pts[idx] == (-4.0, 0.0)

    def test_matches_independent_circumcircle_oracle(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.5, 11)
        result = idarr_solve(exp_setup.geom, problem.b, LCurve())
        pts = np.log(result.history)
        bends = polyline_bends(pts)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        h = 0.05 * cum[-1]
        for i in range(1, len(pts) - 1):
            p0 = _point_at_arc(pts, cum, cum[i] - h)
            p1 = pts[i]
            p2 = _point_at_arc(pts, cum, cum[i] + h)
            d1, d2 = p1 - p0, p2 - p1
            cross = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(cross) < 1e-300:
                oracle = 0.0
            else:
                mid1, mid2 = 0.5 * (p0 + p1), 0.5 * (p1 + p2)
                center = np.linalg.solve(
                    np.array([d1, d2]), np.array([mid1 @ d1, mid2 @ d2])
                )
                radius = np.linalg.norm(center - p1)
                oracle = -np.sign(cross) / radius
            assert bends[i - 1] == pytest.approx(oracle, rel=1e-10, abs=1e-13)

    def test_bends_bitwise_equal_to_per_vertex_loop(self, rng):
        for trial in range(300):
            k = int(rng.integers(3, 70))
            pts = rng.standard_normal((k, 2)) * 10.0 ** rng.uniform(-12, 3)
            # repeated points give zero-length segments, and an all-equal
            # curve has no extent at all
            repeats = rng.random(k) < (0.9 if trial % 50 == 0 else 0.3)
            for i in np.flatnonzero(repeats[1:]) + 1:
                pts[i] = pts[i - 1]
            want = reference_polyline_bends(pts)
            got = polyline_bends(pts)
            assert got.tobytes() == want.tobytes(), trial

    def test_bends_and_picks_bitwise_equal_to_clip_split_body(self, bench_log_paths,
                                                               monkeypatch):
        first = bench_log_paths[0]
        stalled = first.copy()
        stalled[12:] = first[12] + 1e-15 * np.arange(18)[:, None]
        repeated = np.repeat(first, 2, axis=0)
        collapsed = first.copy()
        collapsed[:4, 1] = np.log(1e-300)
        edge_cases = [stalled, repeated, collapsed, first[[0, 9, 29]], np.ones((5, 2)),
                      np.ones((3, 2)), first[[4, 4, 4, 20, 20, 29, 29]]]
        paths = bench_log_paths + edge_cases
        picks = [lcurve_corner(pts) for pts in paths]
        for pts in paths:
            assert polyline_bends(pts).tobytes() == clip_split_polyline_bends(pts).tobytes()
        monkeypatch.setattr(solver, "polyline_bends", clip_split_polyline_bends)
        assert picks == [lcurve_corner(pts) for pts in paths]

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        tx=st.floats(min_value=-50.0, max_value=50.0),
        ty=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_selection_invariant_under_similarity_transforms(self, scale, tx, ty):
        pts = np.array(
            [(-float(i), 0.0) for i in range(5)] + [(-4.0, float(j)) for j in range(1, 5)]
        )
        moved = pts * scale + np.array([tx, ty])
        assert lcurve_corner(moved) == lcurve_corner(pts)


class TestDiscrepancySelection:
    def test_first_crossing_frozen_example(self):
        assert dp_stop([0.5, 0.2, 0.09], 0.1, 1.01) == 3

    def test_exact_threshold_counts(self):
        assert dp_stop([0.5, 0.101], 0.1, 1.01) == 2

    def test_no_crossing_returns_none(self):
        assert dp_stop([0.5, 0.4, 0.3], 0.1, 1.01) is None

    def test_tau_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            dp_stop([0.5], 0.1, 1.0)

    @pytest.mark.parametrize("noise, tau", [
        (np.nan, 1.01), (np.inf, 1.01), (0.1, np.nan), (0.1, np.inf),
    ])
    def test_non_finite_noise_or_tau_rejected(self, noise, tau):
        with pytest.raises(ValueError):
            dp_stop([0.5], noise, tau)

    @settings(max_examples=60, deadline=None)
    @given(
        residuals=st.lists(
            st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=30
        ),
        noise=st.floats(min_value=1e-4, max_value=5.0),
    )
    def test_result_is_always_the_first_crossing(self, residuals, noise):
        tau = 1.01
        out = dp_stop(residuals, noise, tau)
        threshold = tau * noise
        if out is None:
            assert all(r > threshold for r in residuals)
        else:
            assert residuals[out - 1] <= threshold
            assert all(r > threshold for r in residuals[: out - 1])

    def test_discrepancy_and_corner_agree_on_fredholm_problem(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.125, 2000)
        by_corner = idarr_solve(exp_setup.geom, problem.b, LCurve())
        by_dp = idarr_solve(
            exp_setup.geom, problem.b, Discrepancy(problem.noise_norm, 1.01)
        )
        assert by_dp.converged
        assert abs(by_corner.k_stop - by_dp.k_stop) <= 2


class TestRulesOnAPath:
    """select reads a path's (K, 2) history alone, so a ladder's points select as a run's do."""

    def test_discrepancy_takes_the_first_point_under_the_threshold(self):
        rule = Discrepancy(0.1)
        history = np.array([[0.5, 1.0], [0.1, 2.0], [0.05, 3.0]])
        assert rule.select(history, False, 1.0) == (2, True, False)
        assert rule.select(np.array([[0.5, 1.0], [0.4, 2.0]]), False, 1.0) == (2, False, False)
        # the empty path is judged by the zero iterate's residual
        assert rule.select(np.zeros((0, 2)), True, 0.1) == (0, True, False)
        assert rule.select(np.zeros((0, 2)), True, 1.0) == (0, False, False)

    def test_fixed_iters_takes_point_k(self):
        path = np.linspace(1.0, 0.1, 64)
        history = np.column_stack((path, path[::-1]))
        assert FixedIters(5).select(history, False, 1.0) == (5, True, False)
        assert FixedIters(70).select(history, False, 1.0) == (64, False, False)
        assert FixedIters(70).select(history[:3], True, 1.0) == (3, True, False)

    def test_corner_is_numbered_from_one(self):
        pts = np.array(
            [(-float(i), 0.0) for i in range(5)] + [(-4.0, float(j)) for j in range(1, 5)]
        )
        idx, weak = lcurve_corner(pts)
        k_stop, converged, got_weak = LCurve().select(np.exp(pts), False, 1.0)
        assert (k_stop, converged, got_weak) == (idx + 1, True, weak)

    def test_corner_rule_on_too_short_a_path_takes_its_last_point_weak(self):
        history = np.array([[0.5, 1.0], [0.1, 2.0]])
        assert LCurve().select(history[:1], False, 1.0) == (1, True, True)
        assert LCurve().select(history, False, 1.0) == (2, True, True)
        assert LCurve().select(np.zeros((0, 2)), True, 1.0) == (0, True, False)

    def test_discrepancy_budget_is_the_corner_rules(self):
        assert Discrepancy(0.1).max_iters == LCurve().max_iters


class TestStoppingRuleValidation:
    def test_corner_rule_needs_enough_history(self):
        with pytest.raises(ValueError):
            LCurve(min_iters=5)

    def test_corner_rule_budget_ordering(self):
        with pytest.raises(ValueError):
            LCurve(max_iters=5)

    def test_discrepancy_tau_must_exceed_one(self):
        with pytest.raises(ValueError):
            Discrepancy(0.1, tau=1.0)

    def test_discrepancy_noise_norm_nonnegative(self):
        with pytest.raises(ValueError):
            Discrepancy(-0.1)

    @pytest.mark.parametrize("kwargs", [
        {"noise_norm": np.nan}, {"noise_norm": np.inf}, {"noise_norm": 0.1, "tau": np.nan},
        {"noise_norm": 0.1, "tau": np.inf}, {"noise_norm": 0.1, "max_iters": 0},
    ])
    def test_discrepancy_rejects_non_finite_or_empty_budget(self, kwargs):
        with pytest.raises(ValueError):
            Discrepancy(**kwargs)

    def test_fixed_iters_positive(self):
        with pytest.raises(ValueError):
            FixedIters(0)


class TestSolveResultContract:
    def test_fixed_iters_runs_exactly_k(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 0)
        result = idarr_solve(exp_setup.geom, problem.b, FixedIters(7))
        assert result.k_stop == 7 and len(result.history) == 7
        assert result.converged and result.iterates is None

    def test_corner_rule_retains_all_iterates(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 0)
        result = idarr_solve(exp_setup.geom, problem.b, LCurve())
        assert len(result.iterates) == len(result.history) == 30
        np.testing.assert_array_equal(result.x, result.iterates[result.k_stop - 1])
        assert result.residual == result.history[result.k_stop - 1, 0]
        assert result.penalty_norm == result.history[result.k_stop - 1, 1]

    def test_identity_system_stops_at_one_weakly(self):
        geom = make_geometry(DenseMap(np.eye(5)))
        b = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
        result = idarr_solve(geom, b, LCurve())
        assert result.k_stop == 1
        assert result.weak_corner
        np.testing.assert_allclose(result.x, b, atol=1e-12)

    @pytest.mark.parametrize("solve", ["idarr", "irl2"])
    def test_data_column_is_rejected(self, exp_setup, solve):
        # operators take (m, k) blocks, so an (m, 1) b must not run as one
        b = np.ones((exp_setup.linmap.rows, 1))
        with pytest.raises(DimensionError):
            if solve == "idarr":
                idarr_solve(exp_setup.geom, b, FixedIters(3))
            else:
                irl2_solve(exp_setup.linmap, b, FixedIters(3))

    @pytest.mark.parametrize("a, b, budget, reason, k_t", [
        ([[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0], 5, "alpha", 1),
        ([[1.0, 1.0], [0.0, 0.0]], [0.0, 1.0], 5, "alpha", 0),  # nothing explorable
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 5, "beta", 1),
        ([[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0], 1, None, None),  # the budget ends the run
    ])
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_exhaustion_reason_is_kept(self, solve, a, b, budget, reason, k_t):
        geom = RkhsGeometry(DenseMap(np.array(a)), np.ones(2))
        result = SOLVERS[solve](geom, np.array(b), FixedIters(budget))
        assert (result.reason, result.terminated, result.k_t) == (reason, reason is not None, k_t)

    def test_exhaustion_matches_the_process(self):
        # terminated and k_t, derived from reason and the history, equal the
        # process's own on rank-deficient runs, ended early or by the budget
        rng = np.random.default_rng(31)
        ended = 0
        for _ in range(30):
            m, n = rng.integers(6, 14, size=2)
            geom, b = rank_deficient_instance(rng, m, n, int(rng.integers(1, min(m, n))))
            budget = int(rng.integers(1, n + 2))
            for (solve, pinv), reorth in itertools.product(
                    zip(SOLVERS.values(), (geom.apply_crkhs_pinv, geom.solve_b, None)),
                    (False, True)):
                result = solve(geom, b, FixedIters(budget), reorthogonalize=reorth)
                proc = BidiagProcess(geom.linmap, b, pinv, reorthogonalize=reorth)
                while not proc.terminated and len(proc.betas) <= budget:
                    proc.advance()
                assert (result.reason, result.terminated, result.k_t) == (
                    proc.reason, proc.terminated, proc.k_t)
                ended += proc.terminated
        assert 0 < ended < 180

    def test_discrepancy_unmet_reports_not_converged(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 0)
        result = idarr_solve(
            exp_setup.geom, problem.b, Discrepancy(problem.noise_norm * 1e-6, max_iters=15)
        )
        assert not result.converged
        assert result.k_stop == 15


class TestPlainIteration:
    def test_identity_solves_in_one_step(self):
        result = irl2_solve(DenseMap(np.eye(2)), np.array([1.0, 0.0]), FixedIters(5))
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-14)
        assert result.k_stop == 1

    def test_converges_to_dense_solution(self, rng):
        q1, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        q2, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = q1 @ np.diag(np.linspace(1.0, 2.0, 10)) @ q2.T
        b = rng.standard_normal(10)
        result = irl2_solve(DenseMap(a), b, FixedIters(60), reorthogonalize=True)
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), atol=1e-8)

    def test_weighted_iteration_is_preconditioned_plain_iteration(self, exp_setup):
        # the L2(rho) iteration must reproduce, iterate by iterate, plain
        # least squares on the column-scaled operator A diag(rho^-1/2);
        # reorthogonalization keeps the two floating-point paths on the
        # exact factorization, where the equivalence is an identity
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 3)
        k = 6
        weighted = irL2_solve(
            exp_setup.geom, problem.b, FixedIters(k),
            store_iterates=True, reorthogonalize=True,
        )
        scale = 1.0 / np.sqrt(exp_setup.geom.rho)
        scaled_map = DenseMap(exp_setup.linmap.entries * scale[None, :])
        plain = irl2_solve(
            scaled_map, problem.b, FixedIters(k),
            store_iterates=True, reorthogonalize=True,
        )
        for xw, xp in zip(weighted.iterates, plain.iterates):
            back = xp * scale
            np.testing.assert_allclose(xw, back, atol=1e-10 * np.abs(back).max())
