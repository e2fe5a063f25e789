"""Kernel families and measure arithmetic.

Closed-form kernel values are pinned against hand-computed numbers;
integral properties (unit mass, distribution functions) are checked
against numerical quadrature; parameter derivatives against central
finite differences.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from mixfit.families import (
    GaussianFamily,
    MixingMeasure,
    SignedMixingMeasure,
    TriangularFamily,
    combine,
    merge_atoms,
    mixture_cdf,
    mixture_eval,
)

TRI = TriangularFamily()
GAU = GaussianFamily()


class TestKernelValues:
    def test_triangular_pinned(self):
        assert TRI.kernel(2.0, 1.0) == 0.5
        assert TRI.kernel(1.0, 1.0) == 0.0  # support boundary
        assert TRI.kernel(2.0, 0.0) == 1.0  # left endpoint included
        assert TRI.kernel(2.0, -0.1) == 0.0
        assert TRI.kernel(2.0, 2.5) == 0.0

    def test_gaussian_pinned(self):
        assert_allclose(GAU.kernel(0.0, 0.0), 1.0 / math.sqrt(2 * math.pi),
                        rtol=1e-15)
        assert_allclose(GAU.kernel(1.0, 2.0),
                        math.exp(-0.5) / math.sqrt(2 * math.pi), rtol=1e-15)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs extended precision")
    def test_gaussian_within_two_ulp(self):
        # On a dyadic z grid -z^2/2 is exact, so the extended-precision
        # reference is exp(-z^2/2)/sqrt(2 pi) itself.
        z = np.arange(-37 * 1024, 37 * 1024 + 1) / 1024.0
        ld = z.astype(np.longdouble)
        ref = np.exp(-0.5 * ld * ld) / np.sqrt(2.0 * np.arccos(np.longdouble(-1.0)))
        err = np.abs(GAU.kernel(0.0, z) - ref) / np.spacing(ref.astype(float))
        assert err.max() <= 2.0

    def test_gaussian_shapes_and_out(self):
        assert isinstance(GAU.kernel(1.0, 2.0), float)
        theta, x = np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5])
        values = GAU.kernel(theta[:, None], x)
        assert values.shape == (3, 2)
        assert np.array_equal(values, [[GAU.kernel(t, xi) for xi in x]
                                       for t in theta])
        out = np.empty((3, 2))
        assert GAU.kernel(theta[:, None], x, out=out) is out
        assert np.array_equal(out, values)

    def test_triangular_domain_error(self):
        with pytest.raises(ValueError):
            TRI.kernel(0.0, 0.5)
        with pytest.raises(ValueError):
            TRI.kernel(-1.0, 0.5)
        with pytest.raises(ValueError):
            TRI.kernel(np.inf, 0.5)

    def test_gaussian_domain_error(self):
        with pytest.raises(ValueError):
            GAU.kernel(np.nan, 0.0)

    def test_vectorized_shapes(self):
        theta = np.array([1.0, 2.0, 3.0])
        x = np.array([0.5, 1.5])
        out = TRI.kernel(theta, x[:, None])
        assert out.shape == (2, 3)
        assert isinstance(TRI.kernel(2.0, 1.0), float)


class TestKernelIntegrals:
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.7, 5.0])
    def test_triangular_unit_mass(self, theta):
        val, _ = integrate.quad(lambda x: TRI.kernel(theta, x),
                                0.0, theta)
        assert_allclose(val, 1.0, atol=1e-8)

    @pytest.mark.parametrize("theta", [-2.0, 0.0, 1.3])
    def test_gaussian_unit_mass(self, theta):
        val, _ = integrate.quad(lambda x: GAU.kernel(theta, x),
                                theta - 10.0, theta + 10.0)
        assert_allclose(val, 1.0, atol=1e-8)

    def test_cdf_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = float(rng.uniform(0.3, 3.0))
            x = float(rng.uniform(0.0, 1.2 * theta))
            val, _ = integrate.quad(lambda s: TRI.kernel(theta, s),
                                    0.0, min(x, theta))
            assert_allclose(TRI.cdf(theta, x), val, atol=1e-9)
        for _ in range(10):
            theta = float(rng.uniform(-2.0, 2.0))
            x = float(rng.uniform(theta - 3.0, theta + 3.0))
            val, _ = integrate.quad(lambda s: GAU.kernel(theta, s),
                                    theta - 12.0, x)
            assert_allclose(GAU.cdf(theta, x), val, atol=1e-9)

    def test_triangular_cdf_saturates(self):
        assert TRI.cdf(2.0, -1.0) == 0.0
        assert TRI.cdf(2.0, 2.0) == 1.0
        assert TRI.cdf(2.0, 99.0) == 1.0


class TestThetaDeriv:
    def test_pinned(self):
        assert GAU.theta_deriv(0.0, 0.0) == 0.0
        assert_allclose(GAU.theta_deriv(1.0, 2.0),
                        GAU.kernel(1.0, 2.0), rtol=1e-15)
        assert TRI.theta_deriv(2.0, 1.0) == 0.0  # (4x-2theta)=0
        assert TRI.theta_deriv(2.0, 3.0) == 0.0  # outside support

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(25):
            theta = float(rng.uniform(0.5, 3.0))
            x = float(rng.uniform(0.0, 0.9 * theta))  # stay off the kink
            fd = (TRI.kernel(theta + h, x)
                  - TRI.kernel(theta - h, x)) / (2 * h)
            assert_allclose(TRI.theta_deriv(theta, x), fd, rtol=1e-5)
        for _ in range(25):
            theta = float(rng.uniform(-2.0, 2.0))
            x = float(rng.uniform(theta - 2.5, theta + 2.5))
            fd = (GAU.kernel(theta + h, x)
                  - GAU.kernel(theta - h, x)) / (2 * h)
            assert_allclose(GAU.theta_deriv(theta, x), fd, rtol=1e-5)


class TestMixtureEval:
    def test_empty(self):
        assert mixture_eval(TRI, MixingMeasure.empty(), 1.0) == 0.0
        out = mixture_eval(TRI, MixingMeasure.empty(), np.array([1.0, 2.0]))
        assert_allclose(out, [0.0, 0.0])

    def test_single_atom_reduces_to_kernel(self):
        f = MixingMeasure([2.0], [1.0])
        assert mixture_eval(TRI, f, 1.0) == TRI.kernel(2.0, 1.0)

    def test_two_atom_pinned(self):
        f = MixingMeasure([1.0, 2.0], [0.5, 0.5])
        assert mixture_eval(TRI, f, 0.0) == 1.5

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = MixingMeasure(np.sort(rng.uniform(0.5, 2.0, 3)), rng.uniform(0.1, 1.0, 3))
        b = MixingMeasure(np.sort(rng.uniform(2.5, 4.0, 2)), rng.uniform(0.1, 1.0, 2))
        both = combine(a, 1.0, b, 1.0)
        x = rng.uniform(0.0, 4.0, 20)
        assert_allclose(mixture_eval(TRI, both, x),
                        mixture_eval(TRI, a, x) + mixture_eval(TRI, b, x),
                        rtol=1e-14)

    def test_mixture_cdf_limits(self):
        f = MixingMeasure([1.0, 3.0], [0.25, 0.75])
        assert mixture_cdf(TRI, f, 0.0) == 0.0
        assert_allclose(mixture_cdf(TRI, f, 10.0), 1.0, rtol=1e-15)


class TestMeasures:
    def test_total_mass_pinned(self):
        assert MixingMeasure.empty().total_mass() == 0.0
        assert MixingMeasure([1.0, 3.0], [0.25, 0.75]).total_mass() == 1.0
        assert SignedMixingMeasure([2.0, 4.0], [-0.5, 1.5]).total_mass() == 1.0

    def test_positive_weight_enforced(self):
        with pytest.raises(ValueError):
            MixingMeasure([1.0], [0.0])
        with pytest.raises(ValueError):
            MixingMeasure([1.0, 2.0], [0.5, -0.1])

    def test_strictly_increasing_locations(self):
        with pytest.raises(ValueError):
            SignedMixingMeasure([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            SignedMixingMeasure([2.0, 1.0], [0.5, 0.5])

    def test_finite_values_required(self):
        with pytest.raises(ValueError):
            SignedMixingMeasure([np.inf], [1.0])
        with pytest.raises(ValueError):
            SignedMixingMeasure([1.0], [np.nan])

    def test_immutability(self):
        f = MixingMeasure([1.0], [0.5])
        with pytest.raises(AttributeError):
            f.locations = np.array([2.0])
        with pytest.raises(ValueError):
            f.weights[0] = 1.0  # read-only backing array

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MixingMeasure([1.0, 2.0], [0.5])

    def test_merge_atoms(self):
        loc, w = merge_atoms([2.0, 1.0, 2.0], [0.3, 0.5, 0.2])
        assert_allclose(loc, [1.0, 2.0])
        assert_allclose(w, [0.5, 0.5])

    def test_from_atoms_merges(self):
        f = SignedMixingMeasure.from_atoms([1.0, 1.0, 2.0], [0.5, -0.5, 1.0])
        assert_allclose(f.locations, [1.0, 2.0])
        assert_allclose(f.weights, [0.0, 1.0])

    def test_combine_merges_equal_locations(self):
        a = MixingMeasure([1.0, 2.0], [0.5, 0.5])
        b = MixingMeasure([2.0, 3.0], [1.0, 1.0])
        c = combine(a, 1.0, b, -0.5)
        assert_allclose(c.locations, [1.0, 2.0, 3.0])
        assert_allclose(c.weights, [0.5, 0.0, -0.5])

    def test_measure_cdf_steps(self):
        f = MixingMeasure([1.0, 3.0], [0.25, 0.75])
        assert f.cdf(0.5) == 0.0
        assert f.cdf(1.0) == 0.25  # atom included from the right
        assert f.cdf(2.0) == 0.25
        assert f.cdf(3.0) == 1.0
        assert_allclose(f.cdf(np.array([0.0, 1.5, 4.0])), [0.0, 0.25, 1.0])

    def test_len_and_repr(self):
        f = MixingMeasure([1.0, 3.0], [0.25, 0.75])
        assert len(f) == 2 and f.size == 2
        assert "0.25" in repr(f)
