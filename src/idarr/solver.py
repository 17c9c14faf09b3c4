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

import math
from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagProcess
from .errors import NumericalBreakdownError

_LOG_FLOOR = 1e-300  # clamp before taking logs so a zero residual or norm stays finite
CORNER_SCALE_FRAC = 0.05  # arc-length stencil of polyline_bends, as a fraction of the curve
CORNER_TIE_FRAC = 0.8  # bends within this fraction of the sharpest tie with it


# -- stopping rules ----------------------------------------------------------


class StoppingRule:
    """The whole stopping policy of a solve, iterative or direct.

    max_iters is the most iterations to run; reached(residual) ends a run
    early after a step; needs_iterates asks the solver to keep every
    iterate. select(history, terminated, data_norm) picks (k_stop,
    converged, weak_corner) from the (K, 2) history of a path's points
    1..K: a finished run's iterates (none when nothing was explorable) or a
    direct ladder's strengths, strongest first. data_norm is ||b||, the
    residual of the zero iterate (k_stop 0).
    """

    needs_iterates = False

    def reached(self, residual):
        return False


@dataclass(frozen=True)
class LCurve(StoppingRule):
    """Run to max_iters and return the corner iterate (a ladder's corner strength).

    The corner is lcurve_corner of the log norms, each clamped at
    _LOG_FLOOR. min_iters is validated (at least 10, at most max_iters) but
    does not change the run, which reads max_iters alone.
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

    def select(self, history, terminated, data_norm):
        if not len(history):
            return 0, True, False  # the zero iterate needs no corner
        idx, weak = lcurve_corner(np.log(np.maximum(history, _LOG_FLOOR)))
        return idx + 1, True, weak


@dataclass(frozen=True)
class Discrepancy(StoppingRule):
    """Stop at the first residual at or below tau * noise_norm."""

    noise_norm: float
    tau: float = 1.01
    max_iters: int = LCurve.max_iters

    def __post_init__(self):
        if not 1.0 < self.tau < np.inf:
            raise ValueError(f"tau must exceed 1 and be finite, got {self.tau}")
        if not 0.0 <= self.noise_norm < np.inf:
            raise ValueError(f"noise_norm must be nonnegative and finite, got {self.noise_norm}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")

    def reached(self, residual):
        return residual <= self.tau * self.noise_norm

    def select(self, history, terminated, data_norm):
        k = dp_stop(history[:, 0], self.noise_norm, self.tau)
        if k is not None:
            return k, True, False
        # a path that never meets the threshold ends at its last point,
        # unconverged; the empty path is judged by the zero iterate's residual
        return len(history), len(history) == 0 and bool(self.reached(data_norm)), False


@dataclass(frozen=True)
class FixedIters(StoppingRule):
    """Run exactly k iterations (fewer only on subspace exhaustion); point k of a ladder."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("iteration count must be positive")

    @property
    def max_iters(self):
        return self.k

    def select(self, history, terminated, data_norm):
        return min(self.k, len(history)), len(history) >= self.k or terminated, False


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
    selection made without a genuine positive bend: near-collinear data, or
    fewer than three points before or after pruning. An empty input, or one
    that is not (k, 2), raises ValueError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValueError(f"expected (k, 2) points with k > 0, got shape {pts.shape}")
    floor = np.log(1e-250)
    start = 0
    while start < pts.shape[0] and pts[start, 1] <= floor:
        start += 1
    if pts.shape[0] - start >= 3:
        bend = polyline_bends(pts[start:])
        best = int(np.argmax(bend))
        if bend[best] > 1e-12:
            near = np.flatnonzero(bend >= CORNER_TIE_FRAC * bend[best])
            return start + 1 + int(near[0]), False
    # No genuine clockwise corner (too few points, or the curve never turned
    # toward a noise floor), so the least-regularized end is the defensible pick.
    return pts.shape[0] - 1, True


def dp_stop(residuals, noise_norm, tau):
    """Smallest 1-based index with a residual that Discrepancy(noise_norm, tau) accepts.

    None when no residual is accepted. A noise_norm or tau that Discrepancy
    rejects raises its ValueError.
    """
    rule = Discrepancy(noise_norm, tau)
    return next((i + 1 for i, r in enumerate(residuals) if rule.reached(r)), None)


# -- recursive update of the running minimizer -------------------------------


class UpdateState:
    """Givens-rotation recursion for the subspace least-squares solution.

    Tracks x_k and the shadow xbar_k = K x_k through paired direction
    updates, so the penalty norm is a dot product away. Reads a running
    BidiagProcess, whose directions it never writes and the process never rewrites.
    """

    def __init__(self, proc):
        self.x = np.zeros_like(proc.z)
        self.xbar = np.zeros_like(proc.zbar)
        self.w = proc.z
        self.wbar = proc.zbar
        self.rhobar = float(proc.alphas[0])
        self.gammabar = float(proc.betas[0])

    def step(self, proc):
        """Fold in the process's latest couplings (alpha_{i+1}, beta_{i+1}) and advance x_i.

        Once the process has terminated, betas[-1] is the closing coupling;
        the solution update still applies but no new search direction is
        formed. Returns the (residual norm, penalty norm) history row of
        the newly completed iterate.
        """
        beta_next = proc.betas[-1]
        rho = float(np.hypot(self.rhobar, beta_next))
        c = self.rhobar / rho
        s = beta_next / rho
        gamma = c * self.gammabar
        self.gammabar = s * self.gammabar
        coef = gamma / rho
        self.x += coef * self.w
        self.xbar += coef * self.wbar
        if not proc.terminated:
            alpha_next = proc.alphas[-1]
            theta = s * alpha_next
            self.rhobar = -c * alpha_next
            frac = theta / rho
            self.w = proc.z - frac * self.w
            self.wbar = proc.zbar - frac * self.wbar
        return self.gammabar, math.sqrt(max(float(self.x @ self.xbar), 0.0))


# -- shared driver -----------------------------------------------------------


@dataclass
class SolveResult:
    """Outcome of a solve, iterative or direct: a path of points and the one selected.

    history[j] is the (residual, penalty norm) of path point j + 1, a (K, 2)
    array: a run's iterates, or a direct ladder's strengths lambdas[j],
    strongest first (lambdas is None for a run). iterates holds the points
    when kept: a run's list when retention was requested, a ladder's (K, n)
    array always. x is a copy of point k_stop (zero for k_stop 0), so keeping
    x alone does not keep the path alive. reason is the process's: None, or
    "alpha" or "beta" when that coupling vanished; terminated and k_t, the
    exhaustion step, are read from it. converged is False when the rule was
    never satisfied within the iteration budget; weak_corner marks a corner
    chosen from near-collinear history. data_norm is ||b||, the residual of
    the zero iterate (k_stop 0). Every solve builds its result with from_path.
    """

    x: np.ndarray
    k_stop: int
    history: np.ndarray
    iterates: list | np.ndarray | None
    reason: str | None
    converged: bool
    weak_corner: bool = False
    data_norm: float | None = None
    lambdas: np.ndarray | None = None

    @classmethod
    def from_path(cls, stop, history, iterates, last, reason, data_norm, lambdas=None):
        """The result of stop on a finished path: select k_stop and copy its point as x.

        history is the path's (K, 2) norms and iterates its points, or None
        when they were not kept; last is point K (the zero vector for an
        empty path), which stands in for point k_stop = K. The rule is told
        the path terminated when reason is set. A norm that is not finite
        (an overflow) raises NumericalBreakdownError before any selection.
        """
        if not np.isfinite(history).all():
            raise NumericalBreakdownError("a residual or penalty norm of the path is not finite")
        k_stop, converged, weak = stop.select(history, reason is not None, data_norm)
        x = iterates[k_stop - 1] if k_stop < len(history) else last
        return cls(x=x.copy(), k_stop=int(k_stop), history=history, iterates=iterates,
                   reason=reason, converged=converged, weak_corner=weak,
                   data_norm=data_norm, lambdas=lambdas)

    @property
    def terminated(self):
        return self.reason in ("alpha", "beta")

    @property
    def k_t(self):
        return len(self.history) if self.terminated else None

    @property
    def residual(self):
        return float(self.history[self.k_stop - 1, 0]) if self.k_stop else self.data_norm

    @property
    def penalty_norm(self):
        return float(self.history[self.k_stop - 1, 1]) if self.k_stop else None


def _iterate(linmap, b, pinv_apply, stop, reorthogonalize=False, store_iterates=False):
    store_iterates = store_iterates or stop.needs_iterates
    proc = BidiagProcess(linmap, b, pinv_apply=pinv_apply, reorthogonalize=reorthogonalize)
    history = []
    iterates = [] if store_iterates else None
    x = np.zeros(linmap.cols)  # stays zero when nothing is explorable
    if not proc.terminated:
        state = UpdateState(proc)
        while len(history) < stop.max_iters:
            history.append(state.step(proc.advance()))
            if store_iterates:
                iterates.append(state.x.copy())
            if proc.terminated or stop.reached(history[-1][0]):
                break
        x = state.x

    history = np.array(history, dtype=np.float64).reshape(-1, 2)
    return SolveResult.from_path(stop, history, iterates, x, proc.reason, proc.betas[0])


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
    return _iterate(
        geom.linmap, b, geom.solve_b, stop,
        reorthogonalize=reorthogonalize, store_iterates=store_iterates,
    )
