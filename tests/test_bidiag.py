"""Generalized bidiagonalization: hand-derived steps, invariants, and the
reduction to the classical process.

The strongest oracle: with square-root factor C of the adaptive kernel's
pseudoinverse (K^+ = C C^T), the generalized process on (A, K^+) produces
exactly the couplings and data-space directions of classical Golub-Kahan
on the composed operator A C, with solution directions related by z = C w.
A hand-rolled classical recurrence inside the test checks this with no
shared code.
"""

import numpy as np
import pytest

from idarr import (
    BidiagProcess,
    DenseMap,
    NumericalBreakdownError,
    RkhsGeometry,
    StateError,
    TrivialDataError,
    add_noise,
    clean_problem,
    generalized_eig,
    make_fredholm,
    run_bidiag,
    true_solution,
)
from idarr.properties import gaussian_instance, orthonormality_loss

TOY_A = np.diag([2.0, 1.0])
TOY_RHO = np.array([2.0 / 3.0, 1.0 / 3.0])


def toy_geom():
    return RkhsGeometry(DenseMap(TOY_A), TOY_RHO)


def classical_gkb(mat, b, steps):
    """Textbook Golub-Kahan lower bidiagonalization of mat starting from b."""
    beta = [float(np.linalg.norm(b))]
    u = [b / beta[0]]
    w = []
    alpha = []
    r = mat.T @ u[0]
    alpha.append(float(np.linalg.norm(r)))
    w.append(r / alpha[0])
    for i in range(steps):
        q = mat @ w[i] - alpha[i] * u[i]
        bnext = float(np.linalg.norm(q))
        if bnext <= 1e-13 * alpha[0]:
            break
        beta.append(bnext)
        u.append(q / bnext)
        r = mat.T @ u[i + 1] - bnext * w[i]
        anext = float(np.linalg.norm(r))
        if anext <= 1e-13 * alpha[0]:
            break
        alpha.append(anext)
        w.append(r / anext)
    return alpha, beta, u, w


def mgs_bidiag(linmap, b, pinv_apply, steps):
    """Reference process reorthogonalized as before block products: per-vector
    modified Gram-Schmidt loops, twice, on lists of vectors. Same exhaustion
    rule as BidiagProcess (an exactly zero first pairing, then the roundoff
    floor)."""
    eps = np.finfo(float).eps
    beta1 = float(np.linalg.norm(b))
    us, zs, zbars, alphas, betas = [b / beta1], [], [], [], [beta1]

    def extend(p, tol):
        s = pinv_apply(p)
        for _ in range(2):
            for zj, zbarj in zip(zs, zbars):
                c = float(s @ zbarj)
                s -= c * zj
                p -= c * zbarj
        alpha = float(np.sqrt(max(float(s @ p), 0.0)))
        if alpha <= tol:
            return False
        zs.append(s / alpha)
        zbars.append(p / alpha)
        alphas.append(alpha)
        return True

    extend(linmap.apply_adjoint(us[0]), 0.0)
    tol = max(linmap.rows, linmap.cols) * eps * max(alphas[0], beta1)
    for _ in range(steps):
        r = linmap.apply(zs[-1]) - alphas[-1] * us[-1]
        for _ in range(2):
            for uj in us:
                r -= (uj @ r) * uj
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            betas.append(0.0)
            break
        us.append(r / beta)
        betas.append(beta)
        if not extend(linmap.apply_adjoint(us[-1]) - beta * zbars[-1], tol):
            break
    return alphas, betas, np.array(us), np.array(zs), np.array(zbars)


class TestFirstStepByHand:
    def test_adaptive_toy(self):
        # b=(1,0): p = A^T u1 = (2,0); K^+ = diag(9,9) so s = (18,0);
        # alpha1 = sqrt(36) = 6, z1 = (3,0), zbar1 = (1/3,0)
        geom = toy_geom()
        proc = BidiagProcess(geom.linmap, np.array([1.0, 0.0]),
                             pinv_apply=geom.apply_crkhs_pinv)
        assert proc.beta1 == 1.0
        np.testing.assert_allclose(proc.U[0], [1.0, 0.0])
        assert proc.alphas[0] == pytest.approx(6.0, rel=1e-14)
        np.testing.assert_allclose(proc.z, [3.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(proc.zbar, [1.0 / 3.0, 0.0], atol=1e-14)

    def test_adaptive_toy_unit_weights(self):
        # with unit weights K^+ = A^T A = diag(4,1): s = (8,0), alpha1 = 4
        geom = RkhsGeometry(DenseMap(TOY_A), np.ones(2))
        proc = BidiagProcess(geom.linmap, np.array([1.0, 0.0]),
                             pinv_apply=geom.apply_crkhs_pinv)
        assert proc.alphas[0] == pytest.approx(4.0, rel=1e-14)
        np.testing.assert_allclose(proc.z, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(proc.zbar, [0.5, 0.0], atol=1e-14)

    def test_identity_metric_reduces_to_classical(self):
        # no kernel: s = p = (2,0), alpha1 = 2, z1 = zbar1 = (1,0)
        proc = BidiagProcess(DenseMap(TOY_A), np.array([1.0, 0.0]))
        assert proc.alphas[0] == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(proc.z, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(proc.zbar, [1.0, 0.0], atol=1e-14)

    def test_zero_data_rejected(self):
        with pytest.raises(TrivialDataError):
            BidiagProcess(DenseMap(TOY_A), np.zeros(2))


class TestTermination:
    def test_aligned_data_exhausts_in_one_step(self):
        # b along the first eigen-direction: the subspace closes immediately
        geom = toy_geom()
        factors = run_bidiag(geom, np.array([1.0, 0.0]), 10)
        assert factors.terminated and factors.k_t == 1
        assert factors.alphas == [pytest.approx(6.0)]
        np.testing.assert_allclose(factors.betas, [1.0, 0.0], atol=1e-14)

    def test_generic_data_exhausts_at_full_dimension(self):
        geom = toy_geom()
        factors = run_bidiag(geom, np.array([1.0, 1.0]), 10)
        assert factors.terminated and factors.k_t == 2
        assert len(factors.alphas) == 2

    def test_exhaustion_counts_distinct_components(self):
        # A = Sigma W^T with unit weights: the generalized process equals the
        # classical one on U Sigma^2, so the exhaustion step counts distinct
        # squared singular values carrying data. Reorthogonalization is
        # essential: bare three-term recurrences let roundoff reintroduce
        # exhausted components and the process runs past the true dimension.
        rng = np.random.default_rng(5)
        w, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = np.diag([3.0, 2.0, 2.0, 1.0, 1.0, 1.0]) @ w.T
        geom = RkhsGeometry(DenseMap(a), np.ones(6))
        e = np.eye(6)
        for b, expected in [(e[0], 1), (e[0] + e[1], 2), (e[0] + e[1] + e[3], 3)]:
            factors = run_bidiag(geom, b, 10, reorthogonalize=True)
            assert factors.terminated
            assert factors.k_t == expected
            assert len(factors.alphas) == expected

    def test_data_outside_range_terminates_with_closing_beta(self):
        # A = [[1,1],[0,0]], b=(1,1): after one step the pulled-back
        # direction vanishes (alpha-type exit) while the data residual
        # does not, so the closing coupling sqrt(2) is recorded
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        geom = RkhsGeometry(DenseMap(a), np.ones(2))
        proc = BidiagProcess(geom.linmap, np.array([1.0, 1.0]),
                             pinv_apply=geom.apply_crkhs_pinv, keep_vectors=True)
        step = proc.advance()
        assert step.terminated and step.reason == "alpha"
        assert step.beta == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert proc.k_t == 1
        np.testing.assert_allclose(proc.betas, [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-14)

    def test_data_orthogonal_to_range_terminates_at_zero(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        geom = RkhsGeometry(DenseMap(a), np.ones(2))
        proc = BidiagProcess(geom.linmap, np.array([0.0, 1.0]),
                             pinv_apply=geom.apply_crkhs_pinv)
        assert proc.terminated and proc.k_t == 0
        assert proc.alphas == []

    def test_advance_after_termination_rejected(self):
        geom = toy_geom()
        proc = BidiagProcess(geom.linmap, np.array([1.0, 0.0]),
                             pinv_apply=geom.apply_crkhs_pinv)
        proc.advance()
        assert proc.terminated
        with pytest.raises(StateError):
            proc.advance()

    def test_negative_pairing_raises_breakdown(self):
        with pytest.raises(NumericalBreakdownError):
            BidiagProcess(DenseMap(TOY_A), np.array([1.0, 0.0]),
                          pinv_apply=lambda p: -p)

    def test_non_finite_values_raise_breakdown(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericalBreakdownError):
                BidiagProcess(DenseMap(TOY_A), np.array([bad, 1.0]))
        calls = []

        def pinv(p):  # finite on the first call, NaN from the second on
            calls.append(p)
            return p if len(calls) == 1 else p * np.nan

        proc = BidiagProcess(DenseMap(TOY_A), np.array([1.0, 1.0]), pinv_apply=pinv)
        with pytest.raises(NumericalBreakdownError):
            proc.advance()


class TestRecurrenceIdentities:
    def test_coupling_matrix_identity(self, rng):
        # stacking the recurrences: A Z_k = U_{k+1} B_k with B_k lower bidiagonal
        a = rng.standard_normal((14, 9))
        geom = RkhsGeometry(DenseMap(a), rng.uniform(0.5, 1.5, 9))
        b = rng.standard_normal(14)
        factors = run_bidiag(geom, b, 5)
        k = 5
        z = np.column_stack(factors.Z[:k])
        u = np.column_stack(factors.U[: k + 1])
        bk = factors.bidiagonal_matrix(k)
        assert bk.shape == (k + 1, k)
        np.testing.assert_allclose(a @ z, u @ bk, atol=1e-12 * np.abs(a @ z).max())

    def test_adjoint_recurrence(self, rng):
        # A^T u_{i+1} = beta_{i+1} zbar_i + alpha_{i+1} zbar_{i+1}
        a = rng.standard_normal((14, 9))
        geom = RkhsGeometry(DenseMap(a), rng.uniform(0.5, 1.5, 9))
        factors = run_bidiag(geom, rng.standard_normal(14), 5)
        for i in range(4):
            lhs = a.T @ factors.U[i + 1]
            rhs = factors.betas[i + 1] * factors.Zbar[i] + factors.alphas[i + 1] * factors.Zbar[i + 1]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(lhs).max())

    def test_shadow_vectors_track_kernel_action(self, rng):
        # zbar_i must equal K z_i, i.e. C^+ zbar = ...: check via the dense
        # kernel K = B (A^T A)^-1 B on a full-rank operator
        a = rng.standard_normal((12, 6))
        rho = rng.uniform(0.5, 1.5, 6)
        geom = RkhsGeometry(DenseMap(a), rho)
        factors = run_bidiag(geom, rng.standard_normal(12), 4)
        kmat = np.diag(rho) @ np.linalg.inv(a.T @ a) @ np.diag(rho)
        for z, zbar in zip(factors.Z, factors.Zbar):
            np.testing.assert_allclose(kmat @ z, zbar, atol=1e-10 * np.abs(zbar).max())

    def test_couplings_positive(self, rng):
        a = rng.standard_normal((14, 9))
        geom = RkhsGeometry(DenseMap(a), rng.uniform(0.5, 1.5, 9))
        factors = run_bidiag(geom, rng.standard_normal(14), 6)
        assert all(al > 0 for al in factors.alphas)
        assert all(be > 0 for be in factors.betas)


class TestOrthogonality:
    def test_reorthogonalized_directions_on_ill_posed_problem(self, exp_setup):
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 1)
        factors = run_bidiag(exp_setup.geom, problem.b, 20, reorthogonalize=True)
        u_dev, pair_dev = orthonormality_loss(factors)
        assert u_dev <= 1e-12
        # the kernel inner product z_i^T K z_j is the plain pairing z_i^T zbar_j
        assert pair_dev <= 1e-8

    def test_bare_recurrence_loses_orthogonality(self, exp_setup):
        # documents why reorthogonalization is offered at all
        xt = true_solution(exp_setup, "in-range")
        problem = add_noise(clean_problem(exp_setup, xt), 0.25, 1)
        factors = run_bidiag(exp_setup.geom, problem.b, 10, reorthogonalize=False)
        assert orthonormality_loss(factors)[0] > 1e-4


class TestKrylovSubspace:
    def test_solution_directions_span_kernel_krylov_space(self, rng):
        # z_1..z_k spans K_k(K^+ A^T A, K^+ A^T b)
        a = rng.standard_normal((10, 6))
        rho = rng.uniform(0.5, 1.5, 6)
        geom = RkhsGeometry(DenseMap(a), rho)
        b = rng.standard_normal(10)
        k = 4
        factors = run_bidiag(geom, b, k - 1)
        z = np.column_stack(factors.Z[:k])

        def kp(v):
            return (a.T @ (a @ (v / rho))) / rho

        vecs = [kp(a.T @ b)]
        for _ in range(k - 1):
            vecs.append(kp(a.T @ (a @ vecs[-1])))
        kry = np.column_stack(vecs)
        qz, _ = np.linalg.qr(z)
        qk, _ = np.linalg.qr(kry)
        sv = np.linalg.svd(qz.T @ qk, compute_uv=False)
        assert sv.min() > 1.0 - 1e-8


class TestClassicalReduction:
    def test_matches_hand_rolled_golub_kahan_on_composed_operator(self, rng):
        a = rng.standard_normal((20, 12))
        geom = RkhsGeometry(DenseMap(a), rng.uniform(0.5, 2.0, 12))
        b = rng.standard_normal(20)
        decomp = generalized_eig(a.T @ a, geom.rho)
        r = decomp.rank
        assert r == 12
        cfac = decomp.V[:, :r] * np.sqrt(decomp.lambdas[:r])[None, :]
        # sanity: C C^T reproduces the kernel pseudoinverse action
        probe = rng.standard_normal(12)
        np.testing.assert_allclose(
            cfac @ (cfac.T @ probe), geom.apply_crkhs_pinv(probe),
            atol=1e-8 * np.abs(probe).max() * decomp.lambdas[0],
        )
        k = 6
        alpha, beta, u_ref, w_ref = classical_gkb(a @ cfac, b, k)
        factors = run_bidiag(geom, b, k)
        np.testing.assert_allclose(factors.alphas[: k + 1], alpha[: k + 1], rtol=1e-9)
        np.testing.assert_allclose(factors.betas[: k + 1], beta[: k + 1], rtol=1e-9)
        for i in range(k):
            np.testing.assert_allclose(factors.U[i], u_ref[i], atol=1e-8)
            np.testing.assert_allclose(
                factors.Z[i], cfac @ w_ref[i], atol=1e-7 * np.abs(factors.Z[i]).max()
            )

    def test_identity_metric_matches_classical_on_operator_itself(self, rng):
        a = rng.standard_normal((15, 8))
        b = rng.standard_normal(15)
        k = 5
        alpha, beta, u_ref, w_ref = classical_gkb(a, b, k)
        proc = BidiagProcess(DenseMap(a), b, keep_vectors=True)
        for _ in range(k):
            proc.advance()
        np.testing.assert_allclose(proc.alphas[:k], alpha[:k], rtol=1e-11)
        np.testing.assert_allclose(proc.betas[:k], beta[:k], rtol=1e-11)
        for i in range(k):
            np.testing.assert_allclose(proc.Z[i], w_ref[i], atol=1e-10)


class TestStateManagement:
    def test_default_process_keeps_no_history(self):
        geom = toy_geom()
        proc = BidiagProcess(geom.linmap, np.array([1.0, 1.0]),
                             pinv_apply=geom.apply_crkhs_pinv)
        assert proc.keep_vectors is False
        proc.advance()
        assert len(proc.Z) == 0 and len(proc.U) == 1
        assert len(proc.alphas) == 2  # scalars always accumulate

    def test_reorthogonalize_implies_keeping_vectors(self):
        geom = toy_geom()
        proc = BidiagProcess(geom.linmap, np.array([1.0, 1.0]),
                             pinv_apply=geom.apply_crkhs_pinv, reorthogonalize=True)
        assert proc.keep_vectors is True

    def test_reorthogonalize_overrides_keep_vectors_false(self, rng):
        geom, b = gaussian_instance(rng, 60, 40)
        proc = BidiagProcess(geom.linmap, b, pinv_apply=geom.apply_crkhs_pinv,
                             reorthogonalize=True, keep_vectors=False)
        for _ in range(30):
            proc.advance()
        assert proc.keep_vectors is True
        assert max(orthonormality_loss(proc)) < 1e-10

    def test_coupling_matrix_frozen_toy(self):
        geom = toy_geom()
        factors = run_bidiag(geom, np.array([1.0, 0.0]), 10)
        np.testing.assert_allclose(factors.bidiagonal_matrix(1), [[6.0], [0.0]], atol=1e-12)


class TestBlockReorthogonalization:
    """Block classical Gram-Schmidt, twice, against the per-vector MGS loops
    it replaced, on instances that run past several storage growths."""

    STEPS = 60

    @pytest.fixture(scope="class", params=["exp", "poly"])
    def runs(self, request):
        setup = make_fredholm(request.param, 300, 200)
        b = add_noise(clean_problem(setup, true_solution(setup, "in-range")), 0.01, 1).b
        geom = setup.geom
        proc = run_bidiag(geom, b, self.STEPS, reorthogonalize=True)
        ref = mgs_bidiag(geom.linmap, b, geom.apply_crkhs_pinv, self.STEPS)
        return request.param, proc, ref

    def test_matches_mgs_reference(self, runs):
        kernel, proc, (alphas, betas, u, z, zbar) = runs
        assert len(proc.alphas) == len(alphas) and len(proc.betas) == len(betas)
        assert proc.U.shape == u.shape and proc.Z.shape == z.shape
        scale = max(max(alphas), max(betas))
        # every coupling on the operator's roundoff scale
        np.testing.assert_allclose(proc.alphas, alphas, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(proc.betas, betas, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(proc.U, u, rtol=0, atol=1e-10)
        # entrywise on the steps whose couplings stand above sqrt(eps) of the
        # largest: exp reaches its numerical rank at step 10, where couplings
        # near 1e-13 of the largest leave the last directions set by roundoff
        # (a 1e-15 relative change of b moves the MGS reference's z_9 by 2e-9)
        tiny = np.sqrt(np.finfo(float).eps) * scale
        k = next((i for i, (al, be) in enumerate(zip(alphas, betas)) if min(al, be) < tiny),
                 len(alphas))
        assert k >= (6 if kernel == "exp" else self.STEPS)
        np.testing.assert_allclose(proc.alphas[:k], alphas[:k], rtol=1e-12)
        np.testing.assert_allclose(proc.betas[:k], betas[:k], rtol=1e-12)
        for got, want in ((proc.Z, z), (proc.Zbar, zbar)):
            for i in range(k):
                np.testing.assert_allclose(got[i], want[i], rtol=0,
                                           atol=1e-10 * np.abs(want[i]).max())

    def test_orthonormality(self, runs):
        kernel, proc, _ = runs
        u_dev, pair_dev = orthonormality_loss(proc)
        assert u_dev <= 1e-12
        # exp's kernel pairing at its numerical rank: the MGS reference loses
        # 1.8e-10 here, so it is held to TestOrthogonality's 1e-8
        assert pair_dev <= (1e-8 if kernel == "exp" else 1e-10)

    def test_identity_metric_reorthogonalizes_once_per_pass(self, rng):
        # K^+ = I hands p back as s; subtracting from both would reflect the
        # component instead of removing it, leaving the loss of the bare run
        a = rng.standard_normal((60, 40))
        b = rng.standard_normal(60)
        proc = BidiagProcess(DenseMap(a), b, reorthogonalize=True)
        ref = mgs_bidiag(DenseMap(a), b, lambda p: p.copy(), 30)
        for _ in range(30):
            proc.advance()
        assert max(orthonormality_loss(proc)) <= 1e-14
        np.testing.assert_allclose(proc.alphas, ref[0], rtol=1e-12)
        np.testing.assert_allclose(proc.Z, ref[3], rtol=0, atol=1e-12)

    def test_identity_metric_exhausts_at_full_dimension(self, rng):
        # ten singular values within 1e-3 of 1 and twenty from 0.1 to 1e-3;
        # reflecting instead of removing loses 3e-12 on this draw, and on
        # other draws ran past n = 30 with a pairing loss near 0.6
        q1 = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        q2 = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        s = np.concatenate([1.0 + 1e-4 * np.arange(10), np.geomspace(1e-1, 1e-3, 20)])
        proc = BidiagProcess(DenseMap((q1[:, :30] * s) @ q2.T), rng.standard_normal(40),
                             reorthogonalize=True)
        while not proc.terminated and len(proc.alphas) <= 30:
            proc.advance()
        assert proc.k_t == 30
        assert max(orthonormality_loss(proc)) <= 1e-14

    def test_no_kept_vectors_hold_only_the_first_u(self, rng):
        geom, b = gaussian_instance(rng, 60, 40)
        proc = BidiagProcess(geom.linmap, b, pinv_apply=geom.apply_crkhs_pinv)
        for _ in range(20):
            proc.advance()
        assert proc.U.shape == (1, 60) and len(proc.Z) == 0 and len(proc.Zbar) == 0
        np.testing.assert_array_equal(proc.U[0], b / np.linalg.norm(b))

    def test_views_survive_growth(self, rng):
        geom, b = gaussian_instance(rng, 60, 40)
        proc = BidiagProcess(geom.linmap, b, pinv_apply=geom.apply_crkhs_pinv,
                             keep_vectors=True)
        views, copies = [], []
        for _ in range(20):  # the kept rows grow from 8 to 16 to 32
            views.append((proc.U, proc.Z, proc.Zbar))
            copies.append(tuple(v.copy() for v in views[-1]))
            proc.advance()
        for (u, z, zbar), (u0, z0, zbar0) in zip(views, copies):
            for view, values, full in ((u, u0, proc.U), (z, z0, proc.Z), (zbar, zbar0, proc.Zbar)):
                assert not view.flags.writeable and view.flags.c_contiguous
                np.testing.assert_array_equal(view, values)
                np.testing.assert_array_equal(full[: len(values)], values)
        assert len(proc.U) == 21 and len(proc.Z) == 21
        np.testing.assert_array_equal(proc.Z[-1], proc.z)
        np.testing.assert_array_equal(proc.U[-1], proc.u)
