"""Maximum likelihood Gaussian deconvolution by sequential quadratic solves.

The estimator maximizes the mixture log likelihood for data
``x_i = theta_i + noise`` with standard normal noise and an unknown
mixing distribution.  Working with the mass-relaxed objective

    ml(f) = -(1/n) sum_i log f(x_i) + total_mass(f)

turns the simplex constraint into a free cone problem: any solution of
the relaxed problem automatically has total mass one.  The objective is
not quadratic, so each outer iteration builds the exact second-order
model of ``ml`` around the current mixture ``g``,

    q(f) = total_mass(f) - (2/n) sum f(x_i)/g(x_i)
           + (1/(2n)) sum (f(x_i)/g(x_i))^2 ,

minimizes it over the cone with the support reduction solver, and
moves toward that minimizer on the true objective: the full step, or,
when the objective still falls at its end, the exact minimizer of the
likelihood along the segment.  Near the solution full steps are
accepted and the scheme converges at Newton speed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np

from . import core
from .families import (
    GaussianFamily,
    MixingMeasure,
    SignedMixingMeasure,
    combine,
)

__all__ = ["KernelUnderflow", "MlModel", "QuadLocalModel", "newton_solve",
           "starting_iterate"]

logger = logging.getLogger("mixfit.mldeconv")

#: ``MlModel.segment_step``'s iteration cap; the benchmark tracer reads it.
_MAX_HALVINGS = 60

#: Largest ``h * (max x - min(min x, theta_0))`` for which a uniform grid
#: uses the Gaussian product identity: it keeps the factors that
#: :meth:`MlModel.curvatures` forms from ``h`` within ``exp(+-600)``.
_PRODUCT_SPAN = 600.0

#: Bytes of rows of a ``G x n`` kernel matrix per tile: the passes the
#: kernel build and the curvatures make over one tile stay in cache.
_TILE_BYTES = 1 << 20

#: ``ceil(6 s) + 16`` node rows interpolate ``phi`` and ``phi^2`` to 1e-15
#: over a span of ``s`` = 0.1 to 50 noise units.  They serve a step while
#: its iterate covers the sample, ``f >= 1 / (_NODE_COVER n)`` at every
#: observation, as the covering start (about ``0.35 / n``) does.
_NODES_PER_UNIT, _NODE_FLOOR, _NODE_COVER = 6.0, 16, 50.0

#: An exact scan on a node grid keeps every factor below ``exp(_SHIFT_EXP)``
#: and each product within ``_SERIAL_GEMM`` multiply-adds, which OpenBLAS
#: runs on one thread (65536 times its ``GEMM_MULTITHREAD_THRESHOLD`` of 4),
#: so its sums are the same bit for bit at any thread count.
_SHIFT_EXP, _SERIAL_GEMM = 16.0, 1 << 18


def _tile_rows(n):
    """Rows of a float array with ``n`` columns in one tile: about
    ``_TILE_BYTES``, at least one row."""
    return max(1, _TILE_BYTES // (8 * n))


def _node_count(grid):
    """``r``, the Chebyshev node rows for the span of ``grid``."""
    return math.ceil(_NODES_PER_UNIT * (grid[-1] - grid[0])) + _NODE_FLOOR


def _barycentric(theta, nodes):
    """The matrix of barycentric interpolation from the Chebyshev points
    ``nodes`` to ``theta`` (Berrut & Trefethen 2004)."""
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    diff = theta[:, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        L = w / diff
        L /= L.sum(axis=1, keepdims=True)
    hit = (diff == 0.0).any(axis=1)
    L[hit] = diff[hit] == 0.0
    return L


class KernelUnderflow(ValueError):
    """Raised when a likelihood mixture vanishes at an observation:
    Gaussian kernels underflow to 0 about 38 noise units from their atom,
    so no likelihood derivative or quadratic model exists there."""


def _product_step(grid, x):
    """The step ``h`` of a grid ``theta_j = theta_0 + j h`` on which the
    Gaussian product identity serves the sorted sample ``x``, or None: every
    point within 4 ulp of ``theta_0 + j h``, as ``np.linspace`` makes them,
    and ``h (max x - min(min x, theta_0)) <= _PRODUCT_SPAN``."""
    h = (grid[-1] - grid[0]) / max(grid.size - 1, 1)
    off = np.abs(grid - (grid[0] + np.arange(grid.size) * h)).max()
    ok = (off <= 4.0 * np.spacing(np.abs(grid).max())
          and h * (x[-1] - min(x[0], grid[0])) <= _PRODUCT_SPAN)
    return h if ok else None


class MlModel:
    """Relaxed negative log likelihood for Gaussian location mixtures.

    Exposes the objective, its directional derivatives (used for the
    optimality certificate and as the termination scan of the outer
    Newton loop), and the Newton system for gridless refinement.
    The certificate derivative needs no rescaling here: the kernels
    share a common shape, so the raw derivative is already comparable
    across the grid.  ``domain``, the data range, bounds the default
    grid and the refined atoms.

    ``MlModel(sample, grid=None)`` holds the sorted sample, shared with
    ``sample`` when that is a model, and at most one grid; every kernel
    value at the observations comes from it, observations on the last
    axis.  A fit holds one model on its grid for every stage (:meth:`on`).
    It holds either the grid's kernels ``K[j, i] = phi(x_i - grid_j)``,
    built one tile of rows (about ``_TILE_BYTES``) at a time, or, on a node
    grid (:meth:`_node_step`: ``K`` would outgrow a tile on a uniform grid
    with ``2 r <= G``), ``nodes``: rows ``Kc[k] = phi(x - t_k)`` at ``r``
    Chebyshev points of the grid's span, their squares, and the
    barycentric matrices ``L`` to the grid and ``Lmid`` to its midpoints;
    ``K`` is smooth in the grid point.  Never both: ``K`` is None exactly
    when ``nodes`` is set.  A step whose iterate does not cover the sample
    (``_NODE_COVER``), which the node sums cannot serve, reads exact scans
    instead.  Atoms read their rows of a stored ``K`` (:meth:`grid_index`)
    or are evaluated, never interpolated.  An exact scan over a node grid
    is one blocked GEMM by the Gaussian shift identity
    (:meth:`_shift_scan`): it evaluates one row in ``B``, about
    ``sqrt(G)``, and stays within a few 1e-15 of the tiled product near 0;
    every other scan reads or evaluates its rows a tile at a time.  The
    path depends on the points and the sample alone, so a fit's
    certificate and one from a model without a grid agree bit for bit
    (:meth:`_scan`).

    The model keeps the last mixture it evaluated, and on a grid also
    that mixture's mean kernel ratio ``b = K (1/f) / n`` over the grid,
    which a Newton step's certificate scan, objective and quadratic model
    read, and a fit's certificate of the last iterate; a Newton step may
    read it from node rows, a certificate never (:meth:`ratio_mean`).
    :meth:`positive_mixture` is the one positivity check of the mixture.
    Every other sum over ``K`` is formed here too: a quadratic model's
    curvatures (:meth:`curvatures`) and Gram rows (:meth:`gram_rows`).

    ``step`` is the grid's step ``h`` where the Gaussian product identity
    serves its Gram rows (:func:`_product_step`, :class:`QuadLocalModel`),
    else None; :meth:`curvatures` and :meth:`gram_rows` form its factors.
    """

    family = GaussianFamily()

    def __init__(self, sample, grid=None):
        self.x = x = (sample.x if isinstance(sample, MlModel)
                      else core.sorted_sample(sample))
        self.n = x.size
        self.domain = (float(x[0]), float(x[-1]))
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self.K = self.nodes = self.step = None
        self._last = (None, None, None, True)   # measure, f(x), b, b exact
        if grid is not None:
            self.step = _product_step(self.grid, x)
            if self._node_step(self.grid) is None:
                self.K = self._evaluate(self.grid)
            else:
                self.nodes = self._node_rows(self.step)

    def _evaluate(self, theta, x=None):
        """Read-only ``phi(x - theta)`` for the sample ``x`` unless given,
        built a tile of rows at a time."""
        out = np.empty((theta.size, self.n))
        step = _tile_rows(self.n)
        for lo in range(0, theta.size, step):
            self.family.kernel(theta[lo:lo + step, None],
                               self.x if x is None else x, out=out[lo:lo + step])
        out.flags.writeable = False
        return out

    def _node_step(self, theta):
        """The step ``h`` of ``theta`` if it is a node grid of this sample,
        else None.

        A node grid is increasing and serves the product identity
        (:func:`_product_step`); it holds more points than one tile, and at
        least ``2 r`` for the node count ``r`` of its span.  A model holds
        node rows on such a grid, and every exact scan over one takes the
        blocked GEMM (:meth:`_scan`).
        """
        h = _product_step(theta, self.x)
        node = (theta.size > _tile_rows(self.n) and h is not None and h > 0.0
                and 2 * _node_count(theta) <= theta.size)
        return h if node else None

    def _node_rows(self, h):
        """``(Kc, Kc^2, L, Lmid)`` on a node grid of step ``h``, formed about
        its midpoint ``c`` so that the nodes are exact far from 0: ``Kc[k] =
        phi((x - c) - tau_k)`` at the Chebyshev points ``tau_k`` of ``grid -
        c``; ``Lmid`` interpolates at the midpoints, times ``exp(-h^2/4)``."""
        c = 0.5 * (self.grid[0] + self.grid[-1])
        grid = self.grid - c
        tau = 0.5 * np.ptp(grid) * np.cos(np.linspace(0.0, np.pi, _node_count(grid)))
        Kc = self._evaluate(tau, self.x - c)
        return (Kc, np.square(Kc), _barycentric(grid, tau),
                np.exp(-0.25 * h * h) * _barycentric(0.5 * (grid[:-1] + grid[1:]), tau))

    def on(self, grid):
        """This model if it holds ``grid``, else a model on ``grid`` that
        shares this one's sample."""
        held = isinstance(self.grid_index(grid), slice)
        return self if held else MlModel(self, grid)

    def grid_index(self, theta):
        """Grid indices of ``theta``, or None.

        The whole grid maps to ``slice(None)``.  None when there is no
        grid or some atom is off it.
        """
        if self.grid is None:
            return None
        theta = np.asarray(theta, dtype=float)
        if theta is self.grid or (theta.shape == self.grid.shape
                                  and (theta == self.grid).all()):
            return slice(None)
        idx = np.minimum(self.grid.searchsorted(theta), self.grid.size - 1)
        return idx if (self.grid[idx] == theta).all() else None

    def kernels(self, theta):
        """``phi(x_i - theta)``, observations along the last axis."""
        theta = np.asarray(theta, dtype=float)
        idx = self.grid_index(theta)
        if idx is None or self.K is None:
            return self.family.kernel(theta[..., None], self.x)
        return self.K[idx]

    def mixture(self, measure, kern=None):
        """The mixture density at every observation; ``kern``, the kernels
        at the atoms if the caller holds them, spares their evaluation."""
        if measure is not self._last[0]:
            if kern is None:
                kern = self.kernels(measure.locations)
            fx = measure.weights @ kern
            fx.flags.writeable = False
            self._last = (measure, fx, None, True)
        return self._last[1]

    def positive_mixture(self, measure, kern=None):
        """:meth:`mixture`, checked positive at every observation.

        Raises ``KernelUnderflow`` naming the first observation where it
        vanishes, with its distances to the nearest grid point, when the
        model holds a grid, and to the nearest atom.
        """
        fx = self.mixture(measure, kern)
        vanish = fx <= 0.0
        if vanish.any():
            xi = self.x[vanish.argmax()]
            near = " and ".join(
                f"{np.abs(points - xi).min():.3g} from the nearest {name}"
                for name, points in (("grid point", self.grid),
                                     ("atom", measure.locations))
                if points is not None and points.size)
            cause = ("Gaussian kernels underflow beyond about 38 noise units"
                     if measure.size else "the measure has no atoms")
            raise KernelUnderflow(
                f"the mixture vanishes at observation {xi:.17g}"
                f"{', ' if near else ''}{near}: {cause}")
        return fx

    def _scan(self, theta, ratio):
        """``K_theta ratio / n``, exactly, and the same bit for bit on every
        model: the path depends on ``theta`` and the sample alone.

        A node grid (:meth:`_node_step`) takes :meth:`_shift_scan`, one
        blocked GEMM.  Any other ``theta`` of more than one tile is one
        product per ``_tile_rows(n)`` rows from row 0, read from a stored
        ``K`` or evaluated a tile at a time.
        """
        theta = np.asarray(theta, dtype=float)
        flat, step = theta.ravel(), _tile_rows(self.n)
        if flat.size <= step:
            return self.kernels(theta) @ ratio / self.n
        whole, h = isinstance(self.grid_index(theta), slice), self._node_step(flat)
        if h is not None:
            out = self._shift_scan(flat, h, ratio)
        else:
            out = np.concatenate([
                (self.K[lo:lo + step] if whole else self.kernels(flat[lo:lo + step]))
                @ ratio for lo in range(0, flat.size, step)])
        return (out / self.n).reshape(theta.shape)

    def _shift_scan(self, theta, h, ratio, square=False):
        """``K_theta ratio`` (``(K_theta∘K_theta) ratio`` with ``square``) on
        a grid of step ``h`` that spans a node grid, as one blocked GEMM, by
        the Gaussian shift identity about the grid's midpoint ``c``: ``phi(x
        - t - j h) = phi(x - t) P[j] F_tj`` with ``P[j] = exp(j h (x - c))``
        and ``F_tj = exp(-j h (t - c) - j^2 h^2 / 2)``, for block starts ``t``
        in ``theta[::B]``; ``square`` squares those rows and doubles both
        exponents.  Per column chunk ``S = phi(x - theta[::B]) ratio`` adds
        ``S P'`` into a ``ceil(G / B) x B`` sum, which takes ``F`` and is
        read row by row.  ``B`` is the largest block, at most
        ``ceil(sqrt(G))``, with every exponent, ``(B - 1) h max(|x - c|,
        span / 2)`` or twice that, within ``_SHIFT_EXP``.  Nothing is
        truncated or interpolated.  Near 0 it is within a few 1e-15 of the
        tiled scan's largest value; a grid's own rounding off ``theta_0 + j
        h`` adds about ``ulp(max |theta|)``.
        """
        c, G, e = 0.5 * (theta[0] + theta[-1]), theta.size, 1 + square
        reach = e * h * max(self.x[-1] - c, c - self.x[0], theta[-1] - c)
        B = math.ceil(math.sqrt(G))
        if (B - 1) * reach > _SHIFT_EXP:
            B = 1 + int(_SHIFT_EXP / reach)
        starts, powers, m = theta[::B], e * h * np.arange(B), math.ceil(G / B)
        per = min(_TILE_BYTES // (8 * (m + B + 1)), _SERIAL_GEMM // (m * B))
        cols = math.ceil(self.n / math.ceil(self.n / max(per, 1)))
        S, P, d, out = np.empty((m, cols)), np.empty((B, cols)), np.empty(cols), 0.0
        for c0 in range(0, self.n, cols):
            x = self.x[c0:c0 + cols]
            s, p = S[:, :x.size], P[:, :x.size]
            k = self.family.kernel(starts[:, None], x, out=s)
            np.multiply(np.square(k, out=k) if square else k,
                        ratio[c0:c0 + cols], out=s)
            np.multiply.outer(powers, np.subtract(x, c, out=d[:x.size]), out=p)
            out = out + s @ np.exp(p, out=p).T
        out *= np.exp(-np.multiply.outer(starts - c, powers) - 0.5 / e * powers ** 2)
        return out.ravel()[:G]

    def _node_sums(self, weights, square):
        """``Kc w / n`` for ``w = 1/f`` (``Kc^2 w / n`` for ``w = 1/f^2`` with
        ``square``); None without node rows or where ``f`` does not cover the
        sample (``_NODE_COVER``), which the weights tell before any product."""
        limit = (_NODE_COVER * self.n) ** (1 + square)
        if self.nodes is not None and weights.max() <= limit:
            return self.nodes[square] @ weights / self.n
        return None

    def ratio_mean(self, theta, measure, exact=True):
        """``(1/n) sum_i phi(x_i - theta) / f(x_i)`` for the measure's mixture.

        The vector ``b`` over the whole grid is kept with the last mixture;
        with ``exact`` false it may be ``L (Kc (1/f) / n)``, for a Newton
        step.  Every other value is :meth:`_scan`'s.
        """
        fx = self.positive_mixture(measure)
        if not isinstance(self.grid_index(theta), slice):
            return self._scan(theta, 1.0 / fx)
        if self._last[2] is None or (exact and not self._last[3]):
            u = None if exact else self._node_sums(1.0 / fx, False)
            b = self._scan(self.grid, 1.0 / fx) if u is None else self.nodes[2] @ u
            self._last = (measure, fx, b, u is None)
        return self._last[2]

    def curvatures(self, d2):
        """``c2 = (K∘K) d2 / n`` over the grid, and ``W``, which interleaves
        ``c2`` and the superdiagonal ``K[j] diag(d2) K[j + 1]' / n`` where
        the model has a product ``step`` and is None elsewhere.

        By the product identity the superdiagonal is ``exp(-h^2 / 4)`` times
        ``phi^2`` at the midpoints.  From node rows, ``v = Kc^2 d2 / n``
        gives ``c2 = L v`` and the superdiagonal ``Lmid v``; where the node
        sums refuse ``d2``, one exact :meth:`_shift_scan` of ``phi^2`` over
        the grid and its midpoints, ``2 G - 1`` points, gives ``W``.  Else
        one pass over ``K`` gives it as ``exp(h (max x - theta_j) - h^2 / 2)
        ((K∘K)[:-1] (d2 exp(h (x - max x)))) / n``: each row tile is squared
        into a reused buffer and multiplied by the weight vectors in one
        product, so ``K∘K`` is never stored.
        """
        if self.nodes is not None:
            v, h = self._node_sums(d2, True), self.step
            W = np.empty(2 * self.grid.size - 1)
            if v is None:
                W[0::2], W[1::2] = self.grid, 0.5 * (self.grid[:-1] + self.grid[1:])
                W = self._shift_scan(W, 0.5 * h, d2, square=True) / self.n
                W[1::2] *= np.exp(-0.25 * h * h)
            else:
                W[0::2], W[1::2] = self.nodes[2] @ v, self.nodes[3] @ v
            return W[0::2], W
        G, n = self.K.shape
        h, top = self.step, self.x[-1]
        w = d2 if h is None else np.array((d2, d2 * np.exp(h * (self.x - top))))
        step = min(_tile_rows(n), G)
        buf = np.empty((step, n))
        sums = np.empty(w.shape[:-1] + (G,))
        for lo in range(0, G, step):
            tile = np.square(self.K[lo:lo + step], out=buf[:min(step, G - lo)])
            np.matmul(w, tile.T, out=sums[..., lo:lo + step])
        if h is None:
            return sums / n, None
        W = np.empty(2 * G - 1)
        W[0::2] = c2 = sums[0] / n
        W[1::2] = np.exp(h * (top - self.grid[:-1]) - 0.5 * h * h) * sums[1, :-1] / n
        return c2, W

    def gram_rows(self, new, d2, W):
        """``K[new] diag(d2) K' / n`` for grid indices ``new``: O(G) per row
        from the product identity given :meth:`curvatures`' ``W``, else one
        pass over ``K`` for any count."""
        if W is None:
            return (self.K[new] * d2) @ self.K.T / self.n
        t, h = np.arange(self.grid.size), self.step
        toep = np.exp(-0.25 * h * h * (t * t - t % 2))
        return toep[np.abs(new[:, None] - t)] * W[new[:, None] + t]

    def objective(self, measure):
        """``-(1/n) sum log f(x_i) + mass``; +inf when f vanishes at a point."""
        fx = self.mixture(measure)
        if (fx <= 0.0).any():
            return np.inf
        return float(-np.log(fx).mean() + measure.total_mass())

    def dir_deriv_vertex(self, theta, measure):
        """``1 - (1/n) sum f_theta(x_i) / f(x_i)``."""
        out = 1.0 - self.ratio_mean(theta, measure)
        return out if out.ndim else float(out)

    alt_dir_deriv_vertex = dir_deriv_vertex

    def location_gradient(self, measure):
        """Gradient of ``ml`` in the atom locations at fixed weights, the
        location part of :meth:`newton_system`."""
        if measure.size == 0:
            return np.zeros(0)
        return self.newton_system(measure)[0][:measure.size]

    def newton_system(self, measure):
        """Gradient and Hessian of ``ml`` in the locations, then the weights.

        With ``r = 1/f(x)``, kernels ``K``, ``D = (x - theta) K`` and
        ``E = ((x - theta)^2 - 1) K``: ``d/dw_j = 1 - mean(K_j r)``,
        ``d/dtheta_j = -w_j mean(D_j r)``, ``H_ww = mean(K_j K_k r^2)``,
        ``H_wtheta = -delta_jk mean(D_j r) + w_k mean(K_j D_k r^2)`` and
        ``H_thetatheta = -delta_jk w_j mean(E_j r) + w_j w_k mean(D_j D_k r^2)``.
        """
        theta, w = measure.locations, measure.weights
        kern = self.kernels(theta)
        fx = self.positive_mixture(measure, kern)
        z = self.x - theta[:, None]
        kr = kern / fx
        dr = z * kr
        d_mean = dr.mean(axis=1)
        h_ww = kr @ kr.T / self.n
        h_wt = (kr @ dr.T) / self.n * w - np.diag(d_mean)
        h_tt = (np.outer(w, w) * (dr @ dr.T) / self.n
                - np.diag(w * ((z * z - 1.0) * kr).mean(axis=1)))
        grad = np.concatenate((-w * d_mean, 1.0 - kr.mean(axis=1)))
        return grad, np.block([[h_tt, h_wt.T], [h_wt, h_ww]])

    def segment_step(self, current, candidate):
        """The minimizer of ``ml((1 - lam) f + lam c)`` over ``lam`` in
        ``(0, 1]``, for the iterate ``f = current`` and ``c = candidate``.

        With ``r = c(x) - f(x)`` and ``m = f(x) + lam r``, ``ml`` is convex
        along the segment, with slope ``mass(c) - mass(f) - mean(r / m)``
        and curvature ``mean((r / m)^2)``.  Returns 1 unless the slope at
        1 is positive, or infinite because ``c`` vanishes at an
        observation; then a Newton iteration on the slope, safeguarded by
        bisection of its bracket in ``(0, 1)``, to 1e-12.  The iterate's
        mixture must be positive at every observation.  Both mixtures
        come from :meth:`mixture`, the iterate's first: in the Newton loop
        the model still holds it, and the candidate's stays there for its
        objective.
        """
        fx = self.mixture(current)
        cx = self.mixture(candidate)
        r = cx - fx
        dm = candidate.total_mass() - current.total_mass()
        # A candidate mixture that vanishes or nearly underflows at an
        # observation makes the ratios infinite; those steps bisect.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = r / cx
            slope = dm - q.mean()
            if not slope > 0.0:
                return 1.0
            # ``last`` is the previous Newton step's length, inf after a
            # bisection: a Newton step must at least halve it, and a step
            # below 1e-12 ends the search only after an earlier Newton
            # step, so the tiny first step next to a pole of the slope at
            # 1 is not taken for convergence.
            lo, hi, lam, last = 0.0, 1.0, 1.0, np.inf
            for _ in range(_MAX_HALVINGS):
                curv = (q * q).mean()
                dx = slope / curv if 0.0 < curv < np.inf else np.inf
                if lo < lam - dx < hi and abs(dx) <= 0.5 * last:
                    if abs(dx) <= 1e-12 and last < np.inf:
                        return lam - dx
                    lam, last = lam - dx, abs(dx)
                else:
                    lam, last = 0.5 * (lo + hi), np.inf
                q = r / (fx + lam * r)
                slope = dm - q.mean()
                if slope > 0.0:
                    hi = lam
                elif slope < 0.0:
                    lo = lam
                if not hi - lo > 1e-12:
                    break
        return lam

    def minimize_over_support(self, measure, config, theta=()):
        """Minimize ``ml`` over the cone of the support and ``theta``.

        Runs the Newton loop from the measure on the atoms and ``theta``
        as its grid.  Returns the loop's last iterate, certified or not, the
        grid points it drops, and the objectives after its Newton steps.
        """
        grid = np.union1d(measure.locations, theta)
        result, trace = _newton_loop(self, measure, replace(config, grid=grid))
        return result, grid.size - result.size, trace.objective[1:]


class QuadLocalModel(core.ConeObjective):
    """Second-order model of the relaxed likelihood around a mixture.

    Parameters
    ----------
    sample : ndarray or MlModel
        Observations (any order), or the likelihood model the quadratic
        expands, whose grid then replaces ``grid``.
    center : MixingMeasure
        Expansion point ``g``; must be positive at every observation.
    grid : ndarray, optional
        Candidate grid whose kernels are evaluated once for every scan
        over exactly this grid; other scans evaluate on the fly.

    Notes
    -----
    With ``d_i = 1 / g(x_i)`` the model is the quadratic

        q(f) = mass(f) - (2/n) sum d_i f(x_i) + (1/(2n)) sum (d_i f(x_i))^2

    whose gradient toward a kernel, ``c1(theta)``, matches the gradient
    of ``ml`` at ``g`` exactly, and whose curvature along a kernel is
    ``c2(theta) = (1/n) sum (d_i f_theta(x_i))^2``.  With ``b(theta) =
    K_theta d / n`` and ``M(rows, cols) = K_rows diag(d^2) K_cols' / n``,
    a measure ``f = sum w_j f_{theta_j}`` on atoms ``S`` has

        c1 = 1 - 2 b(theta) + w'M(S, theta),
        q(f) = sum w - 2 w'b(S) + w'M(S, S) w / 2,

    normal equations ``M(S, S) alpha = 2 b(S) - 1`` and curvature
    ``h'M(S, S) h`` along a direction ``h``.  Only :meth:`_lin`,
    :meth:`_gram_block` and the read of ``c2`` tell grid atoms from
    others.  The model holds only this algebra and reads no ``K``: on the
    grid the likelihood model forms ``b`` (its vector at the center),
    ``c2 = (K∘K) d^2 / n`` and ``W`` (:meth:`MlModel.curvatures`), from
    node rows or exact scans when it holds no ``K``, and in one pass over
    ``K`` otherwise, and the Gram rows of the grid atoms that enter the
    support, each when first needed (:meth:`MlModel.gram_rows`).  ``M`` is
    read from that store of rows, so a solver call reads nothing of length
    n.  Other atoms, and models without a grid, evaluate their kernels.

    On a grid with the likelihood model's ``step`` ``h`` the rows come from
    the Gaussian product identity ``phi(x - a) phi(x - b) = exp(-(a - b)^2 / 4)
    phi(x - (a + b)/2)^2``: entries with the same midpoint differ by a
    factor.  With ``t = |a - b|`` that gives ``M[a, b] = exp(-(t^2 - t
    mod 2) h^2 / 4) W[a + b]``, where ``W`` interleaves the diagonal
    ``M[j, j] = c2[j]`` and the superdiagonal ``M[j, j + 1]``, so each row
    costs O(G).
    """

    family = MlModel.family

    def __init__(self, sample, center, grid=None):
        model = sample if isinstance(sample, MlModel) else MlModel(sample, grid)
        self.model = model
        self.x, self.n = model.x, model.n
        self.d = 1.0 / model.positive_mixture(center)
        self._d2 = self.d**2
        if model.grid is not None:
            self._b = model.ratio_mean(model.grid, center, exact=False)
            self._c2, self._half = model.curvatures(self._d2)
            # grid index -> row of the store, -1 until that row is formed
            self._slot = np.full(model.grid.size, -1)
            self._gram = np.empty((0, model.grid.size))

    def _lin(self, theta, at):
        """``b(theta)``; ``at`` is the grid index of ``theta``, or None."""
        if at is not None:
            return self._b[at]
        return self.model.kernels(theta) @ self.d / self.n

    def _gram_block(self, rows, at_rows, cols, at_cols):
        """``M(rows, cols)``, given the grid indices of both, or None.

        On the grid it reads the store, forming the missing rows."""
        if at_rows is None or at_cols is None:
            kernels = self.model.kernels
            return (kernels(rows) * self._d2) @ kernels(cols).T / self.n
        slots = self._slot[at_rows]
        missing = slots < 0
        if missing.any():
            new = np.arange(self._slot.size)[at_rows][missing]
            self._slot[new] = np.arange(len(self._gram), len(self._gram) + new.size)
            self._gram = np.concatenate(
                (self._gram, self.model.gram_rows(new, self._d2, self._half)))
            slots = self._slot[at_rows]
        return self._gram[slots][:, at_cols]

    def objective(self, measure):
        S, w = measure.locations, measure.weights
        at = self.model.grid_index(S)
        return float(w.sum() - 2.0 * (w @ self._lin(S, at))
                     + 0.5 * (w @ self._gram_block(S, at, S, at) @ w))

    def quad_coefficients(self, theta, measure):
        """Slope and curvature of ``q`` along a kernel direction.

        Returns ``(c1, c2)`` with
        ``q(f + eps f_theta) = q(f) + c1 eps + (1/2) c2 eps^2``.
        """
        theta = np.asarray(theta, dtype=float)
        S = measure.locations
        idx, at = self.model.grid_index(theta), self.model.grid_index(S)
        c1 = (1.0 - 2.0 * self._lin(theta, idx)
              + measure.weights @ self._gram_block(S, at, theta, idx))
        c2 = (self._c2[idx] if idx is not None
              else self.model.kernels(theta)**2 @ self._d2 / self.n)
        if np.ndim(c1):
            return np.asarray(c1), np.asarray(c2)
        return float(c1), float(c2)

    def dir_deriv_vertex(self, theta, measure):
        return self.quad_coefficients(theta, measure)[0]

    def alt_dir_deriv_vertex(self, theta, measure):
        """``c1 / sqrt(c2)``, or ``c1`` where ``c2`` is not positive: where it
        underflows at every observation, or node rows interpolate it below 0."""
        c1, c2 = self.quad_coefficients(theta, measure)
        out = np.divide(c1, np.sqrt(np.maximum(c2, 0.0)),
                        out=np.array(c1, dtype=float), where=c2 > 0.0)
        return out if np.ndim(out) else float(out)

    def unrestricted_min(self, support):
        """Solve the normal equations ``M(S, S) alpha = 2 b(S) - 1``.

        Equivalent to a penalized weighted least squares fit with
        observation weights ``sqrt(n) d_i`` over the given kernels.
        """
        support = np.asarray(support, dtype=float)
        if support.size == 0:
            return SignedMixingMeasure.empty()
        at = self.model.grid_index(support)
        alpha = core.cholesky_solve(
            self._gram_block(support, at, support, at),
            2.0 * self._lin(support, at) - 1.0,
            "rank-deficient quadratic subproblem: support points too "
            "close to resolve, merge them")
        return SignedMixingMeasure(support, alpha)


def starting_iterate(sample, grid):
    """A cover of the sorted sample by cells one noise unit wide.

    Walking up the sorted sample, each cell ``[x_i, x_i + 1]`` opens at
    the first observation the cells before it left out and holds every
    observation up to ``x_i + 1``.  Each cell puts one atom at the grid
    point nearest its midrange, weighted by its share of the
    observations; cells that land on one grid point merge.  The width
    is the kernel's own unit, the noise's standard deviation, so on a
    grid of spacing ``h`` that spans the sample every observation lies
    within ``1/2 + h/2`` of an atom and the mixture stays far from
    underflow at every observation.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    grid = np.asarray(grid, dtype=float)
    first = [0]
    while (nxt := x.searchsorted(x[first[-1]] + 1.0, side="right")) < x.size:
        first.append(nxt)
    bounds = np.append(first, x.size)
    mid = 0.5 * (x[bounds[:-1]] + x[bounds[1:] - 1])
    hi = grid.searchsorted(mid).clip(0, grid.size - 1)
    lo = (hi - 1).clip(0)
    nearest = np.where(mid - grid[lo] <= grid[hi] - mid, lo, hi)
    return MixingMeasure.from_atoms(grid[nearest], np.diff(bounds) / x.size)


def _blend(current, candidate, lam):
    """``(1 - lam) current + lam candidate`` without the atoms of weight
    below ``core.PURGE_THRESHOLD``."""
    blend = combine(current, 1.0 - lam, candidate, lam)
    keep = blend.weights >= core.PURGE_THRESHOLD
    return MixingMeasure(blend.locations[keep], blend.weights[keep])


def _damped_update(model, current, candidate, current_value):
    """Step along the segment toward the quadratic minimizer.

    The trial is the full step, or the minimizer along the segment
    (``model.segment_step``) when that lies inside it and its objective
    lies more than 4 ulp below the full step's, or the full step's is not
    finite.  It returns if its objective is at most 4 ulp above
    ``current_value``, else the current iterate returns at step 0; an
    infinite or NaN objective never qualifies.  Every trial drops the
    atoms below ``core.PURGE_THRESHOLD``, so the value returned is its
    measure's own and an empty trial never returns.  The step is ``tied``
    unless its objective lies more than 4 ulp below ``current_value``:
    near the optimum the remaining gain, quadratic in a tiny certificate
    gap, is no longer representable, and the caller certifies or stops
    right after.  Returns ``(measure, value, step, tied)``.
    """
    tol = 4.0 * np.spacing(abs(current_value))
    trial = _blend(current, candidate, 1.0)
    exact = model.segment_step(current, trial)
    value, step = model.objective(trial), 1.0
    if exact < 1.0:
        inner = _blend(current, candidate, exact)
        inner_value = model.objective(inner)
        floor = (value - 4.0 * np.spacing(abs(value))
                 if np.isfinite(value) else np.inf)
        if inner_value < floor:
            trial, value, step = inner, inner_value, exact
    if value <= current_value + tol:
        return trial, value, step, not value < current_value - tol
    return current, current_value, 0.0, True


def _newton_loop(model, start, config):
    """Shared sequential-quadratic iteration for the relaxed likelihood."""
    grid = config.grid
    # The model on the grid, the fit's own or a weight polish's new one,
    # forms every sum over K that the certificate and the quadratic models
    # read, and keeps the iterate's mixture and matvec K (1/f) / n, which
    # the objective and the quadratic model at that iterate reuse.  Its
    # first certificate scan checks that the start's mixture is positive.
    model = model.on(grid)
    f = start
    trace = core.SolverTrace()
    pending = (0, np.nan, ())
    tied_last = False
    value = model.objective(f)

    for it in range(config.max_outer_iter + 1):
        # A pass read from node sums (``_last[3]`` false) is confirmed exactly.
        scan = 1.0 - model.ratio_mean(grid, f, exact=False)
        cert = core.check_optimality(model, f, grid, config.eta,
                                     config.support_tol, scan)
        if cert.passed and not model._last[3]:
            cert = core.check_optimality(model, f, grid, config.eta,
                                         config.support_tol)
        trace.append(value, f.size, cert.min_grid_alt, *pending)
        if cert.passed:
            trace.converged = True
            logger.debug("likelihood certificate passed after %d Newton steps "
                         "(grid min %.3e, support max %.3e)",
                         it, cert.min_grid_alt, cert.max_abs_support)
            break
        if tied_last:
            # A flat step is only admissible right before certification;
            # failing the certificate after one means no representable
            # progress remains.
            logger.debug("likelihood iteration stalled at certificate gap "
                         "%.3e: objective flat to 4 ulp and the certificate "
                         "still fails", cert.gap)
            break
        if it == config.max_outer_iter:
            logger.debug("Newton iteration cap %d reached, certificate gap %.3e",
                         config.max_outer_iter, cert.gap)
            break
        quad = QuadLocalModel(model, f)
        # Early quadratic subproblems need only a loose solve.  The gap is
        # measured on the quadratic model's own curvature-normalized scale
        # (the scale its scan terminates on; the raw likelihood gap can sit
        # orders of magnitude above it), and the floor sits below the outer
        # tolerance so the final certificate is not limited by truncation.
        # At the center this scan reads the model's b and the Gram rows of
        # the iterate's atoms, which the warm start then reuses.
        alt0 = np.asarray(quad.alt_dir_deriv_vertex(grid, f))
        gap_q = max(0.0, -float(alt0.min()))
        eta_q = max(0.1 * config.eta, 1e-2 * gap_q)
        # Warm start: the iterate re-solved on its own support.  A
        # partial step holds the atoms of both ends of its segment, which
        # on tied data can outnumber the distinct observations; that
        # support's system is singular, and the solve starts empty.
        try:
            start = quad.minimize_over_support(f, config)[0]
        except core.SingularSystem:
            start = None
        candidate, inner_trace = core.solve(quad, replace(config, eta=eta_q), start)
        f_new, new_value, lam, tied_last = _damped_update(
            model, f, candidate, value)
        pending = (int(np.sum(inner_trace.deletions)), lam,
                   inner_trace.objective)
        logger.debug("Newton step %d: objective %.12g -> %.12g, lam %.3g, "
                     "support %d -> %d%s", it, value, new_value, lam,
                     f.size, f_new.size, " (tie)" if tied_last else "")
        f, value = f_new, new_value

    return f, trace


def newton_solve(sample, config, start=None):
    """Maximize the mixture likelihood over the grid-generated cone.

    Parameters
    ----------
    sample : array_like or MlModel
        Observations, or the likelihood model that holds them; the loop
        reuses that model when it holds ``config.grid``.
    config : core.SolverConfig
        Grid, outer tolerance ``eta`` (certificate threshold on the
        grid), and iteration caps.
    start : MixingMeasure, optional
        Starting iterate; default is :func:`starting_iterate`, which
        covers the sample, so the first step starts with a mixture of
        the data's own scale at every observation.

    Returns
    -------
    measure : MixingMeasure
    trace : core.SolverTrace
        One row per Newton iteration; ``step_size`` holds the damping
        factor; ``converged`` means the returned measure's certificate
        passes.  A run that hits the cap or stalls (a step whose
        objective is flat to 4 ulp, or no step at all) returns its
        iterate with ``converged`` false.

    Raises
    ------
    KernelUnderflow
        When the start's mixture vanishes at an observation, which lies
        beyond kernel underflow from every atom of the start: on the
        default start, from every grid point.
    """
    model = sample if isinstance(sample, MlModel) else MlModel(sample)
    if start is None:
        start = starting_iterate(model.x, config.grid)
    return _newton_loop(model, start, config)
