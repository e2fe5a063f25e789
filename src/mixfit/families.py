"""Parametric generator families and atomic mixing measures.

A mixture model is described by a family of unit-mass kernels
``f_theta`` indexed by a scalar parameter and an atomic mixing measure
placing weight on finitely many parameter values.  The solvers in this
package only ever touch mixtures through the operations collected here:
the families' kernel, parameter-derivative and distribution-function
methods, mixture evaluation, and linear measure arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

__all__ = [
    "SignedMixingMeasure",
    "MixingMeasure",
    "TriangularFamily",
    "GaussianFamily",
    "mixture_eval",
    "mixture_cdf",
    "combine",
    "merge_atoms",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def merge_atoms(locations, weights):
    """Sort atoms by location and sum weights at exactly equal locations.

    Returns a pair of float arrays (locations strictly increasing).
    """
    locations = np.asarray(locations, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if locations.shape != weights.shape:
        raise ValueError("locations and weights must have the same length")
    if locations.size == 0:
        return locations.copy(), weights.copy()
    order = locations.argsort(kind="stable")
    loc = locations[order]
    # Group runs of identical locations; exact float equality is the
    # dedup rule, near-duplicates are the caller's business.
    fresh = np.empty(loc.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = loc[1:] != loc[:-1]
    return loc[fresh], np.bincount(fresh.cumsum() - 1, weights=weights[order])


class SignedMixingMeasure:
    """Finite atomic measure on the parameter axis, weights of any sign.

    Parameters
    ----------
    locations : array_like
        Strictly increasing, finite atom locations.
    weights : array_like
        Finite atom weights, one per location.

    Notes
    -----
    Instances are immutable; the backing arrays are marked read-only so
    a measure can be shared freely between solver stages.
    """

    __slots__ = ("locations", "weights")

    def __init__(self, locations, weights):
        locations = np.array(locations, dtype=float).ravel()
        weights = np.array(weights, dtype=float).ravel()
        if locations.shape != weights.shape:
            raise ValueError("locations and weights must have the same length")
        if not np.isfinite(locations).all():
            raise ValueError("atom locations must be finite")
        if not np.isfinite(weights).all():
            raise ValueError("atom weights must be finite")
        if (locations[1:] <= locations[:-1]).any():
            raise ValueError("atom locations must be strictly increasing")
        locations.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("measures are immutable")

    @classmethod
    def from_atoms(cls, locations, weights):
        """Build a measure from unsorted atoms, merging equal locations."""
        loc, w = merge_atoms(locations, weights)
        return cls(loc, w)

    @classmethod
    def empty(cls):
        return cls(np.empty(0), np.empty(0))

    @property
    def size(self):
        return self.locations.size

    def __len__(self):
        return self.locations.size

    def __repr__(self):
        atoms = ", ".join(
            f"({t:.6g}, {w:.6g})" for t, w in zip(self.locations, self.weights)
        )
        return f"{type(self).__name__}([{atoms}])"

    def total_mass(self):
        """Sum of atom weights (signed)."""
        return float(self.weights.sum())

    def cdf(self, theta):
        """Weight of ``(-inf, theta]``: the mixing distribution function."""
        theta = np.asarray(theta, dtype=float)
        idx = self.locations.searchsorted(theta, side="right")
        csum = np.concatenate(([0.0], self.weights.cumsum()))
        out = csum[idx]
        return out if out.ndim else float(out)


class MixingMeasure(SignedMixingMeasure):
    """Atomic measure with strictly positive weights (a point in the cone)."""

    __slots__ = ()

    def __init__(self, locations, weights):
        super().__init__(locations, weights)
        if (self.weights <= 0.0).any():
            raise ValueError("MixingMeasure weights must be strictly positive")


def combine(measure_a, coef_a, measure_b, coef_b):
    """Linear combination ``coef_a * a + coef_b * b`` as a signed measure.

    Atoms at exactly equal locations are merged.
    """
    loc = np.concatenate([measure_a.locations, measure_b.locations])
    w = np.concatenate([coef_a * measure_a.weights, coef_b * measure_b.weights])
    return SignedMixingMeasure.from_atoms(loc, w)


class TriangularFamily:
    """Triangular densities ``f_theta(x) = 2 (theta - x) / theta**2`` on ``[0, theta)``.

    Mixtures of these kernels over positive mixing measures are exactly
    the decreasing convex densities on the half line, which makes the
    family the natural generator set for convex density estimation.
    The parameter must be strictly positive.
    """

    name = "triangular"
    domain = (0.0, math.inf)

    @staticmethod
    def _validate_theta(theta):
        theta = np.asarray(theta, dtype=float)
        if (theta <= 0.0).any() or not np.isfinite(theta).all():
            raise ValueError("triangular kernel parameter must be positive and finite")
        return theta

    def kernel(self, theta, x):
        theta = self._validate_theta(theta)
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x < theta)
        out = np.where(inside, 2.0 * (theta - x) / theta**2, 0.0)
        return out if out.ndim else float(out)

    def theta_deriv(self, theta, x):
        # Pointwise derivative in theta; the kink at x == theta gets 0.
        theta = self._validate_theta(theta)
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x < theta)
        out = np.where(inside, (4.0 * x - 2.0 * theta) / theta**3, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, theta, x):
        theta = self._validate_theta(theta)
        x = np.asarray(x, dtype=float)
        z = np.minimum(np.maximum(x / theta, 0.0), 1.0)
        out = z * (2.0 - z)
        return out if out.ndim else float(out)


class GaussianFamily:
    """Standard normal location kernels ``f_theta(x) = phi(x - theta)``.

    The generator set for deconvolving a location mixture observed with
    standard Gaussian noise.  The parameter ranges over the whole line.
    """

    name = "gaussian"
    domain = (-math.inf, math.inf)

    @staticmethod
    def _validate_theta(theta):
        theta = np.asarray(theta, dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("gaussian kernel parameter must be finite")
        return theta

    def kernel(self, theta, x, out=None):
        """``phi(x - theta)`` over the broadcast shape; ``out``, an array of
        that shape, receives the values in place of a new one."""
        theta = self._validate_theta(theta)
        x = np.asarray(x, dtype=float)
        # At most one allocation of the broadcast shape, then every step
        # in place; a multiply by the reciprocal costs a third of a divide
        # and keeps every value within 2 ulp.
        out = np.asarray(np.subtract(x, theta, out=out))
        np.square(out, out=out)
        np.multiply(out, -0.5, out=out)
        np.exp(out, out=out)
        np.multiply(out, _INV_SQRT_2PI, out=out)
        return out if out.ndim else float(out)

    def theta_deriv(self, theta, x):
        theta = self._validate_theta(theta)
        x = np.asarray(x, dtype=float)
        z = x - theta
        out = z * np.exp(-0.5 * z**2) * _INV_SQRT_2PI
        return out if out.ndim else float(out)

    def cdf(self, theta, x):
        theta = self._validate_theta(theta)
        x = np.asarray(x, dtype=float)
        out = ndtr(x - theta)
        return out if out.ndim else float(out)


def _mixture_sum(fn, measure, x):
    """``sum_i w_i fn(theta_i, x)``, shaped like ``x``; zero for an empty
    measure."""
    x = np.asarray(x, dtype=float)
    out = fn(measure.locations, x[..., None]) @ measure.weights
    return out if out.ndim else float(out)


def mixture_eval(family, measure, x):
    """Evaluate the mixture density ``sum_i w_i f_{theta_i}(x)``.

    ``x`` may be a scalar or an array; the result matches its shape.
    An empty measure gives identically zero.
    """
    return _mixture_sum(family.kernel, measure, x)


def mixture_cdf(family, measure, x):
    """Evaluate the mixture distribution function at ``x``."""
    return _mixture_sum(family.cdf, measure, x)
