"""Acceptance gate: ten end-to-end guarantees the library must deliver.

Each test measures one guarantee, prints a single "ACCEPTANCE n: PASS/FAIL"
line with the key figures, and then asserts on it.  The two Fredholm
benchmark ladders (20 trials x 5 noise levels x 2 solvers) are shared
module-scoped fixtures so the statistical criteria reuse one run.
"""

import time

import numpy as np
import pytest

from idarr import (
    DenseMap,
    FixedIters,
    LCurve,
    RkhsGeometry,
    add_noise,
    clean_problem,
    idarr_solve,
    irL2_solve,
    irl2_solve,
    make_deblur,
    make_fredholm,
    make_geometry,
    run_bidiag,
    true_solution,
)
from idarr.cli import ExperimentConfig, run_bench_row, run_timing_sweep
from idarr.properties import (
    gaussian_instance,
    multiplicity_instance,
    orthonormality_loss,
    rank_deficient_instance,
    residual_gaps,
    terminal_deviation,
)

NOISE_LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625)
TRIALS = 20


# -- shared benchmark ladders -------------------------------------------------


def _run_ladder(kernel):
    """20-trial noise ladder for both iterative solvers; returns its rows and the time."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kernel=kernel, m=500, n=100, truth="in-range", stop_rule="lcurve",
                           tau=1.01, max_iters=30, seed_base=1)
    rows = []
    for method in ("iDARR", "IR-l2"):
        for nsr in NOISE_LADDER:
            for trial in range(TRIALS):
                rows.append(run_bench_row(cfg, method, nsr, trial)[0])
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def exp_ladder():
    return _run_ladder("exp")


@pytest.fixture(scope="module")
def poly_ladder():
    return _run_ladder("poly")


def _median_errors(rows, method):
    medians = {}
    for nsr in NOISE_LADDER:
        errs = [
            float(row["l2rho_error"])
            for row in rows
            if row["method"] == method and float(row["nsr"]) == nsr
        ]
        assert len(errs) == TRIALS
        medians[nsr] = float(np.median(errs))
    return medians


# -- 1: reorthogonalized factorization stays orthonormal to termination ------


def test_01_factorization_orthonormality(record_acceptance):
    geom, b = gaussian_instance(np.random.default_rng(101), 50, 30)
    t0 = time.perf_counter()
    factors = run_bidiag(geom, b, 60, reorthogonalize=True)
    elapsed = time.perf_counter() - t0
    u_dev, pair_dev = orthonormality_loss(factors)

    ok = (
        factors.terminated
        and factors.k_t == 30
        and u_dev <= 1e-10
        and pair_dev <= 1e-10
        and elapsed < 1.0
    )
    record_acceptance(
        1,
        ok,
        f"k_t={factors.k_t}, max|U'U-I|={u_dev:.2e}, "
        f"max|Z'Zbar-I|={pair_dev:.2e}, {elapsed:.2f}s",
    )


# -- 2: recursive residual estimate equals the recomputed residual -----------


def test_02_residual_identity(record_acceptance):
    gaps = []
    rng = np.random.default_rng(202)
    for _ in range(20):
        m = int(rng.integers(15, 61))
        n = int(rng.integers(8, 41))
        gaps += residual_gaps(*gaussian_instance(rng, m, n), min(n, 12))

    for kernel in ("exp", "poly"):
        setup = make_fredholm(kernel)
        x_true = true_solution(setup, "in-range")
        for nsr in (0.5, 0.0625):
            problem = add_noise(clean_problem(setup, x_true), nsr, 1)
            gaps += residual_gaps(problem.geom, problem.b, 30)

    worst = max(gaps)
    ok = worst <= 1e-9
    record_acceptance(
        2, ok, f"{len(gaps)} iterations checked, worst |gap|/||b||={worst:.2e}"
    )


# -- 3: step count equals the number of active distinct spectral values ------


def test_03_termination_step_count(record_acceptance):
    # Singular-value ladders with repeats, and which left directions the data
    # hits.  The factorization must take exactly one step per *distinct*
    # spectral value that carries data, never more than the operator rank.
    cases = (
        ((2.0, 2.0, 2.0), (0, 1, 2), 1),
        ((3.0, 2.0, 2.0), (0, 1), 2),
        ((3.0, 2.0, 2.0), (1, 2), 1),
        ((3.0, 2.0, 1.5, 1.5), (0, 1, 2), 3),
        ((3.0, 2.0, 1.5, 1.5), (0, 3), 2),
        ((5.0, 4.0, 3.0, 2.0, 1.0, 1.0), (0, 1, 2, 3, 4), 5),
        ((5.0, 4.0, 3.0, 2.0, 1.0, 1.0), (1, 3, 5), 3),
    )
    rng = np.random.default_rng(303)
    failures = []
    for sigmas, hit_columns, expected in cases:
        r = len(sigmas)
        geom, b = multiplicity_instance(rng, sigmas, hit_columns, r + 6, r + 4)
        factors = run_bidiag(geom, b, r + 4, reorthogonalize=True)
        if not (factors.terminated and factors.k_t == expected and factors.k_t <= r):
            failures.append((sigmas, hit_columns, expected, factors.k_t))

    ok = not failures
    record_acceptance(
        3,
        ok,
        f"{len(cases)} spectral-multiplicity cases, failures={failures or 'none'}",
    )


# -- 4: terminal iterate matches the dense range-restricted least squares ----


def test_04_terminal_solution_oracle(record_acceptance):
    rng = np.random.default_rng(404)
    worst = max(
        terminal_deviation(*rank_deficient_instance(rng, m, n, rank))
        for m, n, rank in ((30, 20, 8), (50, 50, 10), (25, 15, 5))
    )
    ok = worst <= 1e-6
    record_acceptance(4, ok, f"3 rank-deficient instances, worst rel dev={worst:.2e}")


# -- 5: smooth-spectrum benchmark, error decay and baseline comparison -------


def test_05_exp_benchmark_error_decay(record_acceptance, exp_ladder):
    def fmt(values):
        return "/".join(f"{v:.1e}" for v in values)

    rows, elapsed = exp_ladder
    adaptive = _median_errors(rows, "iDARR")
    plain = _median_errors(rows, "IR-l2")
    meds = [adaptive[nsr] for nsr in NOISE_LADDER]
    decreasing = all(a > b for a, b in zip(meds, meds[1:]))
    never_worse = all(adaptive[nsr] <= plain[nsr] for nsr in NOISE_LADDER)

    ok = decreasing and never_worse and elapsed < 300.0
    record_acceptance(
        5,
        ok,
        f"medians {fmt(meds)} decreasing={decreasing}, "
        f"<=IR-l2 at all noise={never_worse}, {elapsed:.1f}s",
    )


# -- 6: corner stopping index is stable across trials ------------------------


def test_06_stopping_index_stability(record_acceptance, exp_ladder):
    rows, _ = exp_ladder
    iqrs = {}
    for nsr in NOISE_LADDER:
        ks = [
            row["k_lcurve"]
            for row in rows
            if row["method"] == "iDARR" and float(row["nsr"]) == nsr
        ]
        assert len(ks) == TRIALS
        q1, q3 = np.percentile(ks, [25, 75])
        iqrs[nsr] = float(q3 - q1)

    ok = all(v <= 2.0 for v in iqrs.values())
    record_acceptance(
        6,
        ok,
        "stop-index IQR per noise level "
        + ", ".join(f"{nsr:g}:{iqrs[nsr]:g}" for nsr in NOISE_LADDER),
    )


# -- 7: slow-spectrum benchmark at low noise ---------------------------------


def test_07_poly_benchmark_low_noise(record_acceptance, poly_ladder):
    rows, elapsed = poly_ladder
    adaptive = _median_errors(rows, "iDARR")
    plain = _median_errors(rows, "IR-l2")
    low_noise_ok = all(adaptive[nsr] <= plain[nsr] for nsr in (0.25, 0.125, 0.0625))
    k_max = max(row["k_stop"] for row in rows)

    ok = low_noise_ok and k_max <= 30
    record_acceptance(
        7,
        ok,
        f"medians at low noise adaptive<=plain={low_noise_ok}, "
        f"max stop index={k_max}, {elapsed:.1f}s",
    )


# -- 8: iterative cost scales gently, direct cost steeply --------------------


def test_08_timing_scaling(record_acceptance):
    t0 = time.perf_counter()
    _, best = run_timing_sweep([200, 400, 800], m=500, k_fixed=10, replicas=25, seed=0)
    elapsed = time.perf_counter() - t0
    iterative_rate = float(np.sqrt(best[("iDARR", 800)] / best[("iDARR", 200)]))
    direct_last = float(best[("DARTR", 800)] / best[("DARTR", 400)])

    ok = iterative_rate <= 3.0 and direct_last >= 3.0 and elapsed < 120.0
    record_acceptance(
        8,
        ok,
        f"iterative per-doubling growth {iterative_rate:.2f}<=3, "
        f"direct last-doubling growth {direct_last:.2f}>=3, {elapsed:.1f}s",
    )


# -- 9: deblurring semi-converges and the corner picks a good iterate --------


def test_09_deblurring_semiconvergence(record_acceptance):
    t0 = time.perf_counter()
    problem = make_deblur("blobs:64", psf="gaussian:2", nsr=0.01, seed=0)
    result = idarr_solve(
        problem.geom, problem.b, LCurve(min_iters=10, max_iters=60),
        store_iterates=True,
    )
    elapsed = time.perf_counter() - t0
    truth_norm = np.linalg.norm(problem.x_true)
    errs = np.array(
        [np.linalg.norm(x - problem.x_true) / truth_norm for x in result.iterates]
    )
    best = int(errs.argmin())
    interior_minimum = (
        0 < best < len(errs) - 1 and errs[best] < errs[0] and errs[best] < errs[-1]
    )
    corner_err = float(errs[result.k_stop - 1])
    terminal_err = float(errs[-1])

    ok = interior_minimum and corner_err <= terminal_err and elapsed < 120.0
    record_acceptance(
        9,
        ok,
        f"error dips to {errs[best]:.3f} at k={best + 1} of {len(errs)}, "
        f"corner k={result.k_stop} err={corner_err:.3f} <= terminal "
        f"{terminal_err:.3f}, {elapsed:.1f}s",
    )


# -- 10: equivalence with classical baselines --------------------------------


def _reference_lsqr(mat, b, iters):
    """Textbook least-squares bidiagonalization solver, written independently
    of the library's recursion, returning every iterate."""
    beta1 = np.linalg.norm(b)
    u = b / beta1
    r = mat.T @ u
    alpha = np.linalg.norm(r)
    v = r / alpha
    w = v.copy()
    x = np.zeros(mat.shape[1])
    phibar, rhobar = beta1, alpha
    out = []
    for _ in range(iters):
        s_vec = mat @ v - alpha * u
        beta = np.linalg.norm(s_vec)
        rho = np.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        phi = c * phibar
        phibar = s * phibar
        x = x + (phi / rho) * w
        out.append(x.copy())
        if beta == 0:
            break
        u = s_vec / beta
        r = mat.T @ u - beta * v
        alpha = np.linalg.norm(r)
        if alpha == 0:
            break
        v = r / alpha
        theta = s * alpha
        rhobar = -c * alpha
        w = v - (theta / rho) * w
    return out


def test_10_baseline_equivalences(record_acceptance):
    # (a) weighted solver == split-preconditioned classical solver to 1e-10.
    worst = 0.0
    rng = np.random.default_rng(1010)
    for m, n in ((25, 18), (40, 30), (20, 12)):
        entries = rng.standard_normal((m, n))
        geom = make_geometry(DenseMap(entries))
        b = rng.standard_normal(m)
        steps = min(n, 12)
        mine = irL2_solve(geom, b, FixedIters(steps), store_iterates=True)
        back = 1.0 / np.sqrt(geom.rho)
        ref = _reference_lsqr(entries * back[None, :], b, steps)
        assert len(mine.iterates) == len(ref)
        for x_lib, y_ref in zip(mine.iterates, ref):
            x_ref = y_ref * back
            scale = max(float(np.abs(x_ref).max()), 1e-30)
            worst = max(worst, float(np.abs(x_lib - x_ref).max()) / scale)

    # (b) with uniform unit weights and a signed permutation operator, the
    # adaptive solver's extra metric applications are exact in floating
    # point, so its iterates must equal the plain solver's bit for bit.
    rng = np.random.default_rng(55)
    n = 12
    perm = np.zeros((n, n))
    perm[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
    b = rng.standard_normal(n)
    adaptive = idarr_solve(
        RkhsGeometry(DenseMap(perm), np.ones(n)),
        b,
        FixedIters(4),
        store_iterates=True,
    )
    plain = irl2_solve(DenseMap(perm), b, FixedIters(4), store_iterates=True)
    bitwise = len(adaptive.iterates) == len(plain.iterates) and all(
        np.array_equal(xa, xp) for xa, xp in zip(adaptive.iterates, plain.iterates)
    )

    # Orthogonal operator => single spectral value => both stop after one step.
    one_step = adaptive.k_stop == 1 and plain.k_stop == 1

    ok = worst <= 1e-10 and bitwise and one_step
    record_acceptance(
        10,
        ok,
        f"preconditioned-classical worst dev={worst:.2e}<=1e-10, "
        f"signed-permutation iterates bitwise equal={bitwise}, one step={one_step}",
    )
