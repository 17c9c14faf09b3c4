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

import numpy as np

from .errors import (
    DimensionError, GeometryError, NumericalBreakdownError, StateError, TrivialDataError,
)

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


def _block_cgs2(v, w, basis, dual, images):
    """Block CGS2 in place: twice, c = dual @ v, then v -= c @ basis and w -= c @ images."""
    for _ in range(2):
        c = dual @ v
        v -= c @ basis
        w -= c @ images


def _finite(value, name):
    if not math.isfinite(value):
        raise NumericalBreakdownError(f"{name} is not finite ({value})")
    return value


def check_data(b, rows):
    """The data check of every solve: b as a float64 vector of length rows, and its norm.

    Raises, in this order, DimensionError for any other shape, NumericalBreakdownError
    for a norm that is not finite (NaN, inf or overflow), TrivialDataError for zero data.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (rows,):
        raise DimensionError(f"data of shape {b.shape} does not match an operator with {rows} rows")
    with np.errstate(over="ignore"):  # an overflowing norm is raised as a breakdown below
        norm = _finite(float(np.linalg.norm(b)), "data norm")
    if norm == 0.0:
        raise TrivialDataError("data vector is identically zero")
    return b, norm


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

    A coupling counts as vanished at or below the floor
    max(rows, cols) * eps * max(alpha_1, beta_1), where rows and cols are
    those of the operator the process is given. The same problem posed on
    an orthogonally reduced operator, such as the (n+1) x n [R; 0] of a
    tall A = QR, gets an (n+1)-based floor, so where the couplings reach
    roundoff it can run past the step at which A's process exhausts.

    Parameters
    ----------
    linmap : LinearMap
        The forward operator.
    b : array
        Data vector, checked by check_data against the operator's rows. A
        non-finite coupling raises NumericalBreakdownError.
    pinv_apply : callable or None
        Action of K^+ on a vector, returned as a new array (the process
        updates it in place); None means the identity metric. A first
        result that shares memory with its argument raises GeometryError.
    reorthogonalize : bool
        Re-project each new direction against all previous ones (block
        classical Gram-Schmidt, twice). Implies keeping the full history,
        and also keeps the rows A^T u_i, so the coefficients' share is
        taken out of A^T r without another product.
    keep_vectors : bool
        Retain all generated vectors; reorthogonalize overrides False.
    """

    def __init__(self, linmap, b, pinv_apply=None, reorthogonalize=False, keep_vectors=False):
        b, beta1 = check_data(b, linmap.rows)
        self.linmap = linmap
        self.pinv_apply = pinv_apply if pinv_apply is not None else np.ndarray.copy
        self.reorthogonalize = bool(reorthogonalize)
        self.keep_vectors = bool(keep_vectors or reorthogonalize)
        self.reason = None
        self.alphas = []
        self.betas = [beta1]
        first_rows = 8 if self.keep_vectors else 1
        self._U, self._Z, self._Zbar = _Rows(first_rows), _Rows(first_rows), _Rows(first_rows)
        self._ATu = _Rows(first_rows)  # rows A^T u_i, kept to reorthogonalize A^T r
        self.u = np.divide(b, beta1, out=self._U.next_row(b.shape))
        self.z = None
        self.zbar = None
        # only an exactly zero first pairing means the data carries no
        # component in the explorable range
        self._tol = 0.0
        self._extend(self._keep_atu(linmap.apply_adjoint(self.u)))
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
        sp = _finite(float(s.dot(p)), "pairing s^T p")
        if sp < 0.0:
            rel_tol = s.shape[0] * _EPS * np.linalg.norm(s) * np.linalg.norm(p)
            if sp < -rel_tol and -sp > abs_tol * abs_tol:
                raise NumericalBreakdownError(
                    f"pairing s^T p = {sp:.3e} is negative beyond roundoff ({rel_tol:.3e})"
                )
            sp = 0.0
        return sp

    def _keep_atu(self, atu):
        if self.reorthogonalize:
            self._ATu.next_row(atu.shape)[:] = atu
        return atu

    def _extend(self, p):
        """Turn p = A^T u - beta zbar into the next direction, unless alpha vanishes."""
        s = self.pinv_apply(p)
        if not self.alphas and np.shares_memory(s, p):  # the contract, checked once
            raise GeometryError("pinv_apply must return a new array, not its argument or a view")
        if self.reorthogonalize and self._Z.count:
            _block_cgs2(s, p, self.Z, self.Zbar, self.Zbar)
        alpha = math.sqrt(self._checked_pairing(s, p, self._tol))
        if alpha <= self._tol:
            self.reason = "alpha"
            return
        if self.keep_vectors:
            self.z = np.divide(s, alpha, out=self._Z.next_row(s.shape))
            self.zbar = np.divide(p, alpha, out=self._Zbar.next_row(p.shape))
        else:  # in place: s and p are this step's own arrays
            s /= alpha
            p /= alpha
            self.z, self.zbar = s, p
        self.alphas.append(alpha)

    def advance(self):
        """Produce couplings (alpha_{i+1}, beta_{i+1}) and the next directions.

        One apply_residual gives r = A z - alpha u and A^T r, as in LSQR, so
        A^T u = A^T r / beta needs no second product: a step reads a dense A
        once here, and iDARR's metric application reads it once more.

        Returns the process. When it exhausts the subspace, reason is set,
        betas ends with the closing beta (zero if the data-space direction
        vanished) and the state freezes.
        """
        if self.reason is not None:
            raise StateError("process already terminated")
        r, atr = self.linmap.apply_residual(self.z, self.alphas[-1] * self.u)
        if self.reorthogonalize:
            _block_cgs2(r, atr, self.U, self.U, self._ATu.filled())
        beta = _finite(math.sqrt(float(r.dot(r))), "coupling beta")
        if beta <= self._tol:
            self.reason = "beta"
            self.betas.append(0.0)
            return self
        if self.keep_vectors:
            self.u = np.divide(r, beta, out=self._U.next_row(r.shape))
        else:
            r /= beta
            self.u = r
        self.betas.append(beta)
        atr /= beta  # now A^T u
        self._keep_atu(atr)
        atr -= beta * self.zbar
        self._extend(atr)
        return self


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
