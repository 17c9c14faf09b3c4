"""Golub-Kahan bidiagonalization generalized to a semi-inner product.

The process couples the data space, carrying the Euclidean inner product,
with the unknown's space carrying the (semi-)inner product of a norm whose
pseudoinverse K^+ we can apply. Each solution-space direction z comes with
a shadow vector zbar = K z maintained by the recurrence itself, so inner
products <z, z'>_K = z^T zbar' never touch K. With K the adaptive kernel,
K^+ p = B^-1 A^T A B^-1 p; with K = B it is B^-1 p; with K = I it is p and
the process reduces to the classical bidiagonalization behind LSQR.

Scalars follow the usual convention: beta_i couple data-space vectors u,
alpha_i couple solution-space vectors, and the process stops when either
falls to roundoff scale, at which point the generated subspace is exhausted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError, StateError, TrivialDataError

_EPS = np.finfo(float).eps


class _Rows:
    """Vectors kept as the rows of a C-ordered array that doubles when full.

    Growing copies the filled rows once. A view of the filled rows taken
    before a growth keeps reading the old array, which is never written again.
    """

    def __init__(self, first_rows):
        self._buf = np.empty((0, 0))
        self._first_rows = first_rows
        self.count = 0

    def next_row(self, shape):
        """The next unfilled row (a writable view), growing the array if full."""
        if self.count == len(self._buf):
            grown = np.empty((max(2 * self.count, self._first_rows), *shape))
            if self.count:
                grown[: self.count] = self._buf
            self._buf = grown
        self.count += 1
        return self._buf[self.count - 1]

    def filled(self):
        view = self._buf[: self.count]
        view.flags.writeable = False
        return view


def _finite(value, name):
    if not math.isfinite(value):
        raise NumericalBreakdownError(f"{name} is not finite ({value})")
    return value


@dataclass
class BidiagStep:
    """One advance of the process: scalars and (unless terminal) new directions.

    reason is None for an ordinary step, else "alpha" or "beta": the
    coupling that vanished and ended the process.
    """

    alpha: float
    beta: float
    z: np.ndarray | None
    zbar: np.ndarray | None
    reason: str | None = None

    @property
    def terminated(self):
        return self.reason is not None


class BidiagProcess:
    """Incremental bidiagonalization keeping O(n) state by default.

    alphas holds the diagonal couplings (alpha_1, alpha_2, ...) and betas
    the data-space couplings (beta_1 = data norm, beta_2, ...). U, Z, Zbar
    are read-only arrays whose rows are the generated directions when
    vectors are kept (U holds only u_1 otherwise); Zbar[i] is the shadow
    K Z[i]. reason is None while the process runs and "alpha" or
    "beta" once that coupling vanished; terminated and k_t, the exhaustion
    step, are read from it. Once terminated, betas has one more entry than
    alphas (the closing coupling, zero if the data-space direction vanished).

    Parameters
    ----------
    linmap : LinearMap
        The forward operator.
    b : array
        Data vector; must be nonzero and finite. A non-finite data norm or
        coupling raises NumericalBreakdownError.
    pinv_apply : callable or None
        Action of K^+ on a vector; None means the identity metric.
    reorthogonalize : bool
        Re-project each new direction against all previous ones (block
        classical Gram-Schmidt, twice). Implies keeping the full history.
    keep_vectors : bool
        Retain all generated vectors; reorthogonalize overrides False.
    """

    def __init__(self, linmap, b, pinv_apply=None, reorthogonalize=False, keep_vectors=False):
        b = np.asarray(b, dtype=np.float64)
        self.linmap = linmap
        self.pinv_apply = pinv_apply if pinv_apply is not None else lambda p: p
        self.reorthogonalize = bool(reorthogonalize)
        self.keep_vectors = bool(keep_vectors or reorthogonalize)

        beta1 = _finite(float(np.linalg.norm(b)), "data norm beta_1")
        if beta1 == 0.0:
            raise TrivialDataError("data vector is identically zero")
        self.beta1 = beta1
        self.reason = None
        self.alphas = []
        self.betas = [beta1]
        first_rows = 8 if self.keep_vectors else 1
        self._U, self._Z, self._Zbar = _Rows(first_rows), _Rows(first_rows), _Rows(first_rows)
        self.u = np.divide(b, beta1, out=self._U.next_row(b.shape))
        self.z = None
        self.zbar = None
        # only an exactly zero first pairing means the data carries no
        # component in the explorable range
        self._tol = 0.0
        self._extend(linmap.apply_adjoint(self.u))
        if not self.terminated:
            # roundoff floor for declaring a later coupling zero
            self._tol = max(linmap.rows, linmap.cols) * _EPS * max(self.alphas[0], beta1)

    @property
    def terminated(self):
        return self.reason is not None

    @property
    def k_t(self):
        return len(self.alphas) if self.terminated else None

    @property
    def U(self):
        return self._U.filled()

    @property
    def Z(self):
        return self._Z.filled()

    @property
    def Zbar(self):
        return self._Zbar.filled()

    def _checked_pairing(self, s, p, abs_tol=0.0):
        # the exact pairing is a positive semidefinite quadratic form; a
        # negative value is roundoff unless it is large both relative to the
        # summands and on the termination scale
        sp = _finite(float(s @ p), "pairing s^T p")
        if sp < 0.0:
            rel_tol = s.shape[0] * _EPS * np.linalg.norm(s) * np.linalg.norm(p)
            if sp < -rel_tol and -sp > abs_tol * abs_tol:
                raise NumericalBreakdownError(
                    f"pairing s^T p = {sp:.3e} is negative beyond roundoff ({rel_tol:.3e})"
                )
            sp = 0.0
        return sp

    def _extend(self, p):
        """Turn p = A^T u - beta zbar into the next direction, unless alpha vanishes."""
        s = self.pinv_apply(p)
        if self.reorthogonalize and self._Z.count:
            z, zbar = self.Z, self.Zbar
            for _ in range(2):
                c = zbar @ s
                s -= c @ z
                if s is not p:  # the identity metric hands back p itself
                    p -= c @ zbar
        alpha = float(np.sqrt(self._checked_pairing(s, p, self._tol)))
        if alpha <= self._tol:
            self.reason = "alpha"
            return
        if self.keep_vectors:
            self.z = np.divide(s, alpha, out=self._Z.next_row(s.shape))
            self.zbar = np.divide(p, alpha, out=self._Zbar.next_row(p.shape))
        else:
            self.z = s / alpha
            self.zbar = p / alpha
        self.alphas.append(alpha)

    def advance(self):
        """Produce couplings (alpha_{i+1}, beta_{i+1}) and the next directions.

        Returns a BidiagStep; when the process exhausts the subspace the
        step carries its reason (and the closing beta if the data-space
        direction was still valid) and the state freezes.
        """
        if self.terminated:
            raise StateError("process already terminated")
        r = self.linmap.apply(self.z) - self.alphas[-1] * self.u
        if self.reorthogonalize:
            u = self.U
            for _ in range(2):
                r -= (u @ r) @ u
        beta = _finite(float(np.linalg.norm(r)), "coupling beta")
        if beta <= self._tol:
            self.reason = "beta"
            self.betas.append(0.0)
            return BidiagStep(0.0, 0.0, None, None, "beta")
        if self.keep_vectors:
            self.u = np.divide(r, beta, out=self._U.next_row(r.shape))
        else:
            self.u = r / beta
        self.betas.append(beta)
        self._extend(self.linmap.apply_adjoint(self.u) - beta * self.zbar)
        if self.terminated:
            return BidiagStep(0.0, beta, None, None, self.reason)
        return BidiagStep(self.alphas[-1], beta, self.z, self.zbar)

    def bidiagonal_matrix(self, k=None):
        """The (k+1) x k lower bidiagonal coupling matrix."""
        if k is None:
            k = min(len(self.alphas), len(self.betas) - 1)
        mat = np.zeros((k + 1, k))
        for i in range(k):
            mat[i, i] = self.alphas[i]
            mat[i + 1, i] = self.betas[i + 1]
        return mat


def run_bidiag(geom, b, max_steps, reorthogonalize=False):
    """Run the adaptive-kernel process and return it, vectors kept.

    Stops after max_steps advances or at subspace exhaustion, whichever
    comes first.
    """
    proc = BidiagProcess(geom.linmap, b, pinv_apply=geom.apply_crkhs_pinv,
                         reorthogonalize=reorthogonalize, keep_vectors=True)
    for _ in range(int(max_steps)):
        if proc.terminated:
            break
        proc.advance()
    return proc
