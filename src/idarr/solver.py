"""Iterative regularization driven by the bidiagonal factorization.

The solver advances the bidiagonalization one coupling at a time and folds
each new coupling into the running least-squares solution with a Givens
rotation, after Paige and Saunders. A shadow copy of the recursion tracks
K x_k, so the penalty norm ||x_k||_K = sqrt(x_k^T xbar_k) is available at
every step for O(n) cost. Early stopping picks the iterate at the corner
of the (log residual, log penalty-norm) curve or at the first discrepancy
crossing; running past the corner lets the iterates drift toward the noisy
terminal solution, which is exactly what the rules are there to prevent.
"""

from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagProcess
from .errors import InsufficientHistoryError
from .rkhs import RkhsGeometry

_LOG_FLOOR = 1e-300  # clamp before taking logs so a zero residual or norm stays finite
CORNER_SCALE_FRAC = 0.05  # arc-length stencil of polyline_bends, as a fraction of the curve
CORNER_TIE_FRAC = 0.8  # bends within this fraction of the sharpest tie with it


# -- stopping rules ----------------------------------------------------------


class StoppingRule:
    """The whole stopping policy of an iterative solve.

    budget is the most iterations to run; reached(residual) ends the run
    early after a step; needs_iterates asks the solver to keep every
    iterate; select(history, terminated) picks (k_stop, converged,
    weak_corner) from the finished run's history.
    """

    needs_iterates = False

    @property
    def budget(self):
        return self.max_iters

    def reached(self, residual):
        return False


@dataclass(frozen=True)
class LCurve(StoppingRule):
    """Run to max_iters and return the corner iterate.

    min_iters is validated (at least 10, at most max_iters) but does not
    change the run: the budget is max_iters.
    """

    min_iters: int = 10
    max_iters: int = 30
    needs_iterates = True

    def __post_init__(self):
        if self.min_iters < 10:
            raise ValueError("corner selection needs at least 10 iterations of history")
        if self.max_iters < self.min_iters:
            raise ValueError(
                f"max_iters must be at least min_iters ({self.min_iters}), got {self.max_iters}"
            )

    def select(self, history, terminated):
        if len(history) < 3:
            return len(history), True, True
        idx, weak = select_corner([rec.residual for rec in history],
                                  [rec.penalty_norm for rec in history])
        return history[idx].k, True, weak


@dataclass(frozen=True)
class Discrepancy(StoppingRule):
    """Stop at the first residual at or below tau * noise_norm."""

    noise_norm: float
    tau: float = 1.01
    max_iters: int = 100

    def __post_init__(self):
        if not 1.0 < self.tau < np.inf:
            raise ValueError(f"tau must exceed 1 and be finite, got {self.tau}")
        if not 0.0 <= self.noise_norm < np.inf:
            raise ValueError(f"noise_norm must be nonnegative and finite, got {self.noise_norm}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")

    def reached(self, residual):
        return residual <= self.tau * self.noise_norm

    def select(self, history, terminated):
        # a run ended by exhaustion reaches the true residual floor; it is
        # converged only if that floor meets the threshold
        return len(history), bool(history and self.reached(history[-1].residual)), False


@dataclass(frozen=True)
class FixedIters(StoppingRule):
    """Run exactly k iterations (fewer only on subspace exhaustion)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("iteration count must be positive")

    @property
    def budget(self):
        return self.k

    def select(self, history, terminated):
        return len(history), len(history) == self.k or terminated, False


# -- corner and discrepancy selection ----------------------------------------


def polyline_bends(pts):
    """Signed curvature of each interior vertex at a fixed arc-length scale.

    Iterative solvers stall for stretches of iterations, emitting runs of
    log-log points whose mutual distances are at roundoff scale; a circle
    through three raw consecutive points then has arbitrary, often huge,
    curvature made of floating-point noise, and genuinely small segments
    always out-curve large ones because three-point curvature is inversely
    proportional to the local chord. Measuring every vertex at one common
    scale removes both artifacts: the stencil for vertex i is the pair of
    points at arc distance h = CORNER_SCALE_FRAC * total_length before and
    after it along the polyline, and the bend is the inverse radius of the
    circle circumscribing (back, vertex, ahead), signed positive for a
    clockwise turn (moving left, then up). Returns the bend array for
    vertices 1..len-2, zeros when the curve has no usable extent.
    """
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])
    if total <= 0.0:
        return np.zeros(pts.shape[0] - 2)
    h = CORNER_SCALE_FRAC * total
    here = pts[1:-1]
    # the stencil points back and ahead of every interior vertex at once,
    # interpolated along the polyline; a zero-length segment yields its start
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
    # the corner turns clockwise in these coordinates (left, then up)
    curved = abc > 0.0
    return np.where(curved, -2.0 * cross / np.where(curved, abc, 1.0), 0.0)


def lcurve_corner(points):
    """Index of maximal discrete curvature on a log-log polyline.

    points is a sequence of (log_residual, log_norm) pairs ordered so the
    residual coordinate is non-increasing. Leading entries with collapsed
    norm (log below the clamp floor) are pruned, then every interior
    vertex gets a three-point circumscribed-circle curvature measured at a
    common arc-length scale (see polyline_bends). The corner is the vertex
    of maximal clockwise bend; vertices whose bend reaches CORNER_TIE_FRAC
    of the maximum count as ties, and ties resolve to the smallest index,
    so a curve with several comparably sharp corners yields the earliest
    one (the lower-left preference). Returns (index, weak) where weak flags a
    selection made without a genuine positive bend (near-collinear data).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (k, 2) points, got shape {pts.shape}")
    if pts.shape[0] < 3:
        raise InsufficientHistoryError(
            f"corner selection needs at least 3 points, got {pts.shape[0]}"
        )
    floor = np.log(1e-250)
    start = 0
    while start < pts.shape[0] and pts[start, 1] <= floor:
        start += 1
    sub = pts[start:]
    if sub.shape[0] < 3:
        return pts.shape[0] - 1, True
    bend = polyline_bends(sub)
    best = int(np.argmax(bend))
    if bend[best] <= 1e-12:
        # No genuine clockwise corner: the curve never turned toward a
        # noise floor, so the least-regularized end is the defensible pick.
        return pts.shape[0] - 1, True
    near = np.flatnonzero(bend >= CORNER_TIE_FRAC * bend[best])
    return start + 1 + int(near[0]), False


def select_corner(residuals, penalties):
    """lcurve_corner of a regularization path: (index, weak).

    residuals and penalties are the path's norms, or both its squared
    norms, ordered so the residual does not increase. Each is clamped at
    _LOG_FLOOR before its log is taken. The iterative corner rule (LCurve)
    and the direct ladders (DirectFactorization.solve) both select here.
    """
    pts = np.log(np.maximum(np.column_stack((residuals, penalties)), _LOG_FLOOR))
    return lcurve_corner(pts)


def dp_stop(residuals, noise_norm, tau):
    """Smallest 1-based index with residual <= tau * noise_norm, else None."""
    if tau <= 1.0:
        raise ValueError("tau must exceed 1")
    threshold = tau * noise_norm
    for i, r in enumerate(residuals):
        if r <= threshold:
            return i + 1
    return None


# -- recursive update of the running minimizer -------------------------------


class UpdateState:
    """Givens-rotation recursion for the subspace least-squares solution.

    Tracks x_k and the shadow xbar_k = K x_k through paired direction
    updates, so the penalty norm is a dot product away. Initialized from
    the first couplings (alpha_1, beta_1) and directions (z_1, zbar_1).
    """

    def __init__(self, alpha1, beta1, z1, zbar1):
        self.x = np.zeros_like(z1)
        self.xbar = np.zeros_like(zbar1)
        self.w = z1.copy()
        self.wbar = zbar1.copy()
        self.rhobar = float(alpha1)
        self.gammabar = float(beta1)
        self.steps = 0

    def step(self, alpha_next, beta_next, z_next, zbar_next):
        """Fold in couplings (alpha_{i+1}, beta_{i+1}) and advance x_i.

        At subspace exhaustion call with the closing couplings and
        z_next=None; the solution update still applies but no new search
        direction is formed. Returns (residual_norm, penalty_norm_sq) for
        the newly completed iterate.
        """
        rho = float(np.hypot(self.rhobar, beta_next))
        c = self.rhobar / rho
        s = beta_next / rho
        gamma = c * self.gammabar
        self.gammabar = s * self.gammabar
        coef = gamma / rho
        self.x += coef * self.w
        self.xbar += coef * self.wbar
        if z_next is not None:
            theta = s * alpha_next
            self.rhobar = -c * alpha_next
            frac = theta / rho
            self.w = z_next - frac * self.w
            self.wbar = zbar_next - frac * self.wbar
        self.steps += 1
        return self.gammabar, self.penalty_norm_sq()

    def penalty_norm_sq(self):
        return max(float(self.x @ self.xbar), 0.0)


# -- shared driver -----------------------------------------------------------


@dataclass
class IterationRecord:
    k: int
    residual: float
    penalty_norm: float


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    x is the iterate selected by the stopping rule, k_stop its index.
    history holds one record per completed iteration; iterates holds the
    corresponding solution vectors when retention was requested. k_t is the
    exhaustion step when the factorization terminated, else None. converged
    is False when the rule was never satisfied within the iteration budget;
    weak_corner marks a corner chosen from near-collinear history.
    data_norm is ||b||, the residual of the zero iterate (k_stop 0).
    """

    x: np.ndarray
    k_stop: int
    history: list
    iterates: list | None
    terminated: bool
    k_t: int | None
    converged: bool
    weak_corner: bool = False
    data_norm: float | None = None

    @property
    def residual(self):
        return self.history[self.k_stop - 1].residual if self.k_stop else self.data_norm

    @property
    def penalty_norm(self):
        return self.history[self.k_stop - 1].penalty_norm if self.k_stop else None


def _iterate(linmap, b, pinv_apply, stop, reorthogonalize=False, store_iterates=False):
    store_iterates = store_iterates or stop.needs_iterates
    proc = BidiagProcess(linmap, b, pinv_apply=pinv_apply, reorthogonalize=reorthogonalize)
    if proc.terminated:
        # nothing explorable: the zero vector already minimizes the residual
        x0 = np.zeros(linmap.cols)
        return SolveResult(
            x=x0,
            k_stop=0,
            history=[],
            iterates=[] if store_iterates else None,
            terminated=True,
            k_t=0,
            converged=True,
            data_norm=proc.beta1,
        )
    state = UpdateState(proc.alpha1, proc.beta1, proc.z, proc.zbar)
    history = []
    iterates = [] if store_iterates else None
    while state.steps < stop.budget:
        step = proc.advance()
        residual, norm_sq = state.step(step.alpha, step.beta, step.z, step.zbar)
        history.append(IterationRecord(state.steps, float(residual), float(np.sqrt(norm_sq))))
        if store_iterates:
            iterates.append(state.x.copy())
        if step.terminated or stop.reached(residual):
            break

    k_stop, converged, weak = stop.select(history, proc.terminated)
    x = iterates[k_stop - 1].copy() if k_stop < state.steps else state.x.copy()
    return SolveResult(
        x=x,
        k_stop=k_stop,
        history=history,
        iterates=iterates,
        terminated=proc.terminated,
        k_t=proc.k_t,
        converged=converged,
        weak_corner=weak,
        data_norm=proc.beta1,
    )


# -- public solver entry points ----------------------------------------------


def idarr_solve(geom, b, stop, reorthogonalize=False, store_iterates=False):
    """Iterative solve regularized by the data-adaptive kernel norm."""
    return _iterate(
        geom.linmap, b, geom.apply_crkhs_pinv, stop,
        reorthogonalize=reorthogonalize, store_iterates=store_iterates,
    )


def irl2_solve(linmap, b, stop, reorthogonalize=False, store_iterates=False):
    """Plain least-squares iteration (Euclidean geometry), i.e. LSQR."""
    return _iterate(
        linmap, b, None, stop,
        reorthogonalize=reorthogonalize, store_iterates=store_iterates,
    )


def irL2_solve(geom, b, stop, reorthogonalize=False, store_iterates=False):
    """Weighted least-squares iteration in the L2(rho) geometry."""
    if not isinstance(geom, RkhsGeometry):
        raise TypeError("irL2_solve needs an RkhsGeometry")
    return _iterate(
        geom.linmap, b, geom.solve_b, stop,
        reorthogonalize=reorthogonalize, store_iterates=store_iterates,
    )
