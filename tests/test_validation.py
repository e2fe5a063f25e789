"""Input checks on the solver's hot path: each raises its own message.

The checks run on every measure construction, kernel call and restricted
solve, so they are written for speed; this table pins what each one
says, for non-finite, non-increasing and nonpositive input.
"""

import re

import numpy as np
import pytest

from mixfit.core import SolverConfig, solve
from mixfit.families import (
    GaussianFamily,
    MixingMeasure,
    SignedMixingMeasure,
    TriangularFamily,
    merge_atoms,
)
from mixfit.lsconvex import LsModel
from mixfit.mldeconv import MlModel, QuadLocalModel
from mixfit.pipeline import build_grid

NAN, INF = np.nan, np.inf
X = np.array([0.5, 1.0, 2.0])


class _Gram(LsModel):
    """LS model whose restricted system is replaced by fixed arrays."""

    def __init__(self, gram, linear):
        super().__init__(X)
        self._fixed = np.array(gram, dtype=float), np.array(linear, dtype=float)

    def _gram(self, support):
        return self._fixed[0]

    def _linear_term(self, support):
        return self._fixed[1]


def _far_measure():
    # Every observation lies 100 from the atom, where phi underflows to 0.
    return MixingMeasure([100.0], [1.0])


# The one positivity check names the first observation where it fails.
_VANISHES = ("the mixture vanishes at observation 0.5, 99.5 from the nearest "
             "atom: Gaussian kernels underflow beyond about 38 noise units")


CASES = {
    "signed-location-nan": (lambda: SignedMixingMeasure([0.0, NAN], [1.0, 1.0]),
                            "atom locations must be finite"),
    "signed-location-inf": (lambda: SignedMixingMeasure([0.0, INF], [1.0, 1.0]),
                            "atom locations must be finite"),
    "signed-weight-inf": (lambda: SignedMixingMeasure([0.0, 1.0], [1.0, -INF]),
                          "atom weights must be finite"),
    "signed-repeated": (lambda: SignedMixingMeasure([1.0, 1.0], [1.0, 1.0]),
                        "atom locations must be strictly increasing"),
    "signed-decreasing": (lambda: SignedMixingMeasure([2.0, 1.0], [1.0, 1.0]),
                          "atom locations must be strictly increasing"),
    "signed-length": (lambda: SignedMixingMeasure([1.0, 2.0], [1.0]),
                      "locations and weights must have the same length"),
    "measure-weight-nan": (lambda: MixingMeasure([1.0], [NAN]),
                           "atom weights must be finite"),
    "measure-decreasing": (lambda: MixingMeasure([2.0, 1.0], [1.0, 1.0]),
                           "atom locations must be strictly increasing"),
    "measure-zero-weight": (lambda: MixingMeasure([1.0, 2.0], [1.0, 0.0]),
                            "MixingMeasure weights must be strictly positive"),
    "measure-negative-weight": (lambda: MixingMeasure([1.0], [-1.0]),
                                "MixingMeasure weights must be strictly positive"),
    "merge-length": (lambda: merge_atoms([1.0, 2.0], [1.0]),
                     "locations and weights must have the same length"),
    "triangular-zero": (lambda: TriangularFamily().kernel(0.0, X),
                        "triangular kernel parameter must be positive and finite"),
    "triangular-negative": (
        lambda: TriangularFamily().cdf(np.array([1.0, -1.0]), 0.5),
        "triangular kernel parameter must be positive and finite"),
    "triangular-inf": (lambda: TriangularFamily().theta_deriv(INF, X),
                       "triangular kernel parameter must be positive and finite"),
    "triangular-nan": (lambda: TriangularFamily().kernel(NAN, X),
                       "triangular kernel parameter must be positive and finite"),
    "gaussian-nan": (lambda: GaussianFamily().kernel(NAN, X),
                     "gaussian kernel parameter must be finite"),
    "gaussian-inf": (lambda: GaussianFamily().cdf(np.array([0.0, -INF]), 0.5),
                     "gaussian kernel parameter must be finite"),
    "grid-empty": (lambda: SolverConfig(grid=np.array([])),
                   "grid must be nonempty"),
    "grid-nan": (lambda: SolverConfig(grid=np.array([1.0, NAN])),
                 "grid values must be finite"),
    "grid-repeated": (lambda: SolverConfig(grid=np.array([1.0, 2.0, 2.0])),
                      "grid must be strictly increasing"),
    "grid-decreasing": (lambda: SolverConfig(grid=np.array([2.0, 1.0])),
                        "grid must be strictly increasing"),
    "inner-product-zero": (lambda: LsModel(X).inner_product(0.0, 1.0),
                           "kernel parameters must be positive"),
    "inner-product-negative": (
        lambda: LsModel(X).inner_product(np.array([1.0]), np.array([-1.0])),
        "kernel parameters must be positive"),
    "gram-nan": (lambda: _Gram([[1.0, NAN], [NAN, 1.0]], [1.0, 1.0])
                 .unrestricted_min(np.array([1.0, 2.0])),
                 "array must not contain infs or NaNs"),
    "linear-term-inf": (lambda: _Gram([[1.0]], [INF])
                        .unrestricted_min(np.array([1.0])),
                        "array must not contain infs or NaNs"),
    "gram-singular": (lambda: _Gram(np.ones((2, 2)), [1.0, 1.0])
                      .unrestricted_min(np.array([1.0, 2.0])),
                      "singular Gram matrix: knots too close to resolve, "
                      "merge them"),
    "quadratic-singular": (
        lambda: QuadLocalModel(X, MixingMeasure([1.0], [1.0]))
        .unrestricted_min(np.array([100.0])),
        "rank-deficient quadratic subproblem: support points too close to "
        "resolve, merge them"),
    "likelihood-derivative": (
        lambda: MlModel(X).dir_deriv_vertex(X, _far_measure()), _VANISHES),
    "likelihood-gradient": (
        lambda: MlModel(X).location_gradient(_far_measure()), _VANISHES),
    "quadratic-center": (lambda: QuadLocalModel(X, _far_measure()),
                         _VANISHES),
    # Counts must be integers: a float fails later, deep in the solve.
    "iteration-cap-float": (
        lambda: SolverConfig(grid=[1.5, 4.0], max_outer_iter=2.5),
        "max_outer_iter must be an integer"),
    "grid-size-float": (lambda: build_grid(0, 1, 2.0, GaussianFamily()),
                        "grid size must be an integer"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_check_message(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_counts_are_accepted():
    config = SolverConfig(grid=[1.5, 4.0], max_outer_iter=np.int64(2))
    assert solve(LsModel(X), config)[1].n_iterations <= 2
    assert build_grid(0, 1, np.int32(3), GaussianFamily()).size == 3
