"""Least squares estimation of a decreasing convex density on [0, inf).

The estimator minimizes ``phi(f) = 1/2 int f^2 - int f dF_n`` over
mixtures of triangular kernels ``f_theta(x) = 2 (theta - x) / theta^2``
on ``[0, theta)``.  Every piece of the objective has a closed form in
the atoms, so the cone machinery runs on exact linear algebra:

* ``Y_n(theta) = (1/n) sum_i (theta - x_i)_+`` collects the empirical
  part; it is the integrated empirical distribution function.
* ``H(theta; f)`` is the twice-integrated mixture, with one closed-form
  branch per side of each atom.
* ``<f_theta, f_tau> = 2/tau - 2 theta / (3 tau^2)`` for
  ``theta <= tau`` gives the Gram matrix; the diagonal is
  ``4 / (3 theta)``.

The directional derivative toward a kernel is then
``(2/theta^2) (H(theta; f) - Y_n(theta))`` and the termination scan
uses its curvature-normalized rescaling ``D * sqrt(3 theta / 4)``.
"""

from __future__ import annotations

import numpy as np

from . import core
from .families import SignedMixingMeasure, TriangularFamily

__all__ = ["LsModel"]


class LsModel(core.ConeObjective):
    """Least squares convex-density objective over triangular mixtures.

    Parameters
    ----------
    sample : array_like
        Observations, all positive.

    Attributes
    ----------
    x : ndarray
        Sorted copy of the sample.
    domain : tuple of float
        Parameter interval ``[x_(1), 3 x_(n)]`` the support is confined
        to; the default grid spans it.
    """

    family = TriangularFamily()

    def __init__(self, sample):
        self.x = x = core.sorted_sample(sample)
        if x[0] <= 0.0:
            # An atom of weight 3 m / (2 n) at theta below the other
            # observations, m of them at 0, scores -1.5 m^2 / (n^2 theta).
            raise ValueError(
                "the convex-density model needs positive data: with an "
                "observation at 0 the least squares criterion is unbounded "
                "below as an atom approaches 0")
        self.n = x.size
        self.domain = (float(x[0]), 3.0 * float(x[-1]))
        # Prefix sums make Y_n piecewise-linear evaluation O(log n).
        self._cumsum = np.concatenate(([0.0], np.cumsum(x)))

    # -- empirical and mixture integrals ---------------------------------

    def Y_n(self, theta):
        """Integrated empirical distribution ``(1/n) sum (theta - x_i)_+``."""
        theta = np.asarray(theta, dtype=float)
        k = self.x.searchsorted(theta, side="right")
        out = (k * theta - self._cumsum[k]) / self.n
        return out if out.ndim else float(out)

    def H(self, theta, measure):
        """Twice-integrated mixture ``int_0^theta int_0^s f`` at ``theta``.

        For an atom ``(tau, c)`` the contribution is
        ``c (theta^2 / tau - theta^3 / (3 tau^2))`` when
        ``theta <= tau`` and ``c (theta - tau / 3)`` past the kernel's
        support.  With ``k`` atoms below ``theta`` the sum is
        ``theta^2 A_k - theta^3 B_k / 3 + theta C_k - E_k / 3``: suffix
        sums ``A``, ``B`` of ``c / tau``, ``c / tau^2`` and prefix sums
        ``C``, ``E`` of ``c``, ``c tau``, so no ``G x p`` array is built.
        """
        theta = np.asarray(theta, dtype=float)
        tau, c = measure.locations, measure.weights
        zero = np.zeros(1)
        a = c / tau
        A = np.concatenate((a[::-1].cumsum()[::-1], zero))
        B = np.concatenate(((a / tau)[::-1].cumsum()[::-1], zero))
        C = np.concatenate((zero, c.cumsum()))
        E = np.concatenate((zero, (c * tau).cumsum()))
        k = tau.searchsorted(theta, side="left")
        out = theta * (theta * (A[k] - theta * B[k] / 3.0) + C[k]) - E[k] / 3.0
        return out if out.ndim else float(out)

    def inner_product(self, theta_a, theta_b):
        """L2 inner product of two triangular kernels."""
        theta_a = np.asarray(theta_a, dtype=float)
        theta_b = np.asarray(theta_b, dtype=float)
        if (theta_a <= 0.0).any() or (theta_b <= 0.0).any():
            raise ValueError("kernel parameters must be positive")
        lo = np.minimum(theta_a, theta_b)
        hi = np.maximum(theta_a, theta_b)
        out = 2.0 / hi - 2.0 * lo / (3.0 * hi * hi)
        return out if out.ndim else float(out)

    def _gram(self, support):
        return self.inner_product(support[:, None], support[None, :])

    def _linear_term(self, support):
        # b_j = int f_theta_j dF_n = (2/theta_j^2) Y_n(theta_j)
        return 2.0 * self.Y_n(support) / support**2

    # -- ConeObjective contract ------------------------------------------

    def objective(self, measure):
        """``1/2 int f^2 - int f dF_n`` for an atomic (signed) mixture."""
        w = measure.weights
        G = self._gram(measure.locations)
        b = self._linear_term(measure.locations)
        return float(0.5 * w @ G @ w - b @ w)

    def dir_deriv_vertex(self, theta, measure):
        theta = np.asarray(theta, dtype=float)
        # Near 1e-160 theta^2 underflows and the scan is not finite; the
        # callers that read it say so (``core.min_alt_dir_deriv``, ``mixfit
        # check``), so the arithmetic warns nothing on its own.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = 2.0 / theta**2 * (self.H(theta, measure) - self.Y_n(theta))
        return out if out.ndim else float(out)

    def alt_dir_deriv_vertex(self, theta, measure):
        # Normalizing by the kernel norm sqrt(4 / (3 theta)) makes the
        # scan threshold scale-free across the grid.
        theta = np.asarray(theta, dtype=float)
        out = self.dir_deriv_vertex(theta, measure) * np.sqrt(0.75 * theta)
        return out if out.ndim else float(out)

    def unrestricted_min(self, support):
        """Signed minimizer of ``phi`` over the span of the given kernels.

        Solves the normal equations ``G sigma = b`` by a symmetric
        positive definite factorization.
        """
        support = np.asarray(support, dtype=float)
        if support.size == 0:
            return SignedMixingMeasure.empty()
        sigma = core.cholesky_solve(
            self._gram(support), self._linear_term(support),
            "singular Gram matrix: knots too close to resolve, merge them")
        return SignedMixingMeasure(support, sigma)

    def segment_curvature(self, direction):
        """Exact ``int h^2`` for a signed direction; phi is quadratic."""
        w = direction.weights
        return float(w @ self._gram(direction.locations) @ w)

    # -- gridless support ------------------------------------------------

    def location_gradient(self, measure):
        """Gradient of ``phi`` in the atom locations at fixed weights, the
        location part of :meth:`newton_system`."""
        return self.newton_system(measure)[0][:measure.size]

    def newton_system(self, measure):
        """Gradient and Hessian of ``phi`` in the locations, then the weights.

        ``phi = 1/2 w' G(theta) w - b(theta)' w`` with ``G`` the Gram
        matrix and ``b`` the linear term.  With ``P_jk = dG_jk/dtheta_j``
        (``-2/(3 theta_k^2)`` for ``theta_j <= theta_k``, else
        ``(4 theta_k/3 - 2 theta_j)/theta_j^3``),
        ``Q_jk = 4/(3 max(theta_j, theta_k)^3)``,
        ``R_jk = 4 (theta_j - theta_k)/theta_j^4`` for ``theta_j > theta_k``
        and 0 otherwise, and, with ``k`` observations below an atom
        summing to ``S``, ``b' = (4 S - 2 theta k)/(n theta^3)`` and
        ``b'' = (4 theta k - 12 S)/(n theta^4)``, the gradient is
        ``[w (P w - b'), G w - b]``, ``H_thetatheta = (w w') Q +
        diag(w (R w - b''))``, ``H_thetaw = diag(w) P + diag(P w - b')``
        and ``H_ww = G``; ``w (...)`` and ``(w w') Q`` are elementwise.
        The jumps of ``F_n`` at the data are ignored.
        """
        theta, w = measure.locations, measure.weights
        col = theta[:, None]
        above = col > theta
        P = np.where(above, (4.0 * theta / 3.0 - 2.0 * col) / col**3,
                     -2.0 / (3.0 * theta**2))
        Q = 4.0 / (3.0 * np.maximum(col, theta)**3)
        R = np.where(above, 4.0 * (col - theta) / col**4, 0.0)
        G = self._gram(theta)
        k = self.x.searchsorted(theta, side="left")
        S = self._cumsum[k]
        db = (4.0 * S - 2.0 * theta * k) / (self.n * theta**3)
        d2b = (4.0 * theta * k - 12.0 * S) / (self.n * theta**4)
        pw = P @ w - db
        grad = np.concatenate((w * pw, G @ w - self._linear_term(theta)))
        h_tt = np.outer(w, w) * Q + np.diag(w * (R @ w - d2b))
        h_tw = w[:, None] * P + np.diag(pw)
        return grad, np.block([[h_tt, h_tw], [h_tw.T, G]])
