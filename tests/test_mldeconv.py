"""Gaussian deconvolution by sequential quadratic likelihood steps.

The quadratic local model is validated against the exact polynomial
expansion and finite differences of the relaxed likelihood; the Newton
driver against a box-constrained quasi-Newton oracle on a frozen grid.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

from mixfit import core, gridless, mldeconv, pipeline
from mixfit.cli import main
from mixfit.core import SolverConfig, check_optimality
from mixfit.families import (
    GaussianFamily,
    MixingMeasure,
    SignedMixingMeasure,
    combine,
    mixture_eval,
)
from mixfit.mldeconv import (
    KernelUnderflow,
    MlModel,
    QuadLocalModel,
    _damped_update,
    newton_solve,
    starting_iterate,
)


def _kernel_spy(monkeypatch):
    """Record every ``GaussianFamily.kernel`` call as ``(theta, shape of the
    values, whether they went to out=)``."""
    original = GaussianFamily.kernel
    calls = []

    def counting(self, theta, obs, out=None):
        values = original(self, theta, obs, out=out)
        calls.append((np.array(theta), np.shape(values), out is not None))
        return values

    monkeypatch.setattr(GaussianFamily, "kernel", counting)
    return calls


def _assert_one_tiled_build(calls, grid, n):
    """The calls that wrote into ``out=`` cover every grid row exactly once,
    in order, and no other call evaluated a ``G x n`` kernel."""
    tiles = [theta for theta, _, into in calls if into]
    assert len(tiles) >= 1
    assert np.array_equal(np.concatenate(tiles).ravel(), grid)
    assert all(t.shape == (t.size, 1) for t in tiles)
    assert (grid.size, n) not in [shape for _, shape, into in calls if not into]


class TestMlObjective:
    def test_pinned_single_obs(self):
        m = MlModel(np.array([1.3]))
        f = MixingMeasure([1.3], [1.0])
        assert_allclose(m.objective(f), 0.5 * math.log(2 * math.pi) + 1.0,
                        rtol=1e-15)

    def test_infinite_when_density_vanishes(self):
        m = MlModel(np.array([0.0]))
        assert m.objective(MixingMeasure.empty()) == np.inf
        assert m.objective(MixingMeasure([50.0], [1.0])) == np.inf  # underflow

    def test_mass_scaling_identity(self):
        # ml(c f) = ml(f) - log c + (c - 1) mass(f)
        rng = np.random.default_rng(5)
        m = MlModel(rng.normal(size=12))
        f = MixingMeasure([-0.5, 0.8], [0.6, 0.7])
        base = m.objective(f)
        for c in (0.5, 2.0):
            lhs = m.objective(MixingMeasure(f.locations, c * f.weights))
            rhs = base - math.log(c) + (c - 1.0) * f.total_mass()
            assert_allclose(lhs, rhs, rtol=1e-13)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            MlModel(np.array([]))
        with pytest.raises(ValueError):
            MlModel(np.array([0.0, np.nan]))


class TestMlDirDeriv:
    def test_zero_at_single_obs_fixed_point(self):
        m = MlModel(np.array([1.3]))
        f = MixingMeasure([1.3], [1.0])
        assert m.dir_deriv_vertex(1.3, f) == 0.0

    def test_far_vertex_approaches_one(self):
        m = MlModel(np.array([0.0]))
        f = MixingMeasure([0.0], [1.0])
        assert_allclose(m.dir_deriv_vertex(25.0, f), 1.0, rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        m = MlModel(rng.normal(size=15))
        f = MixingMeasure([-0.8, 0.5], [0.5, 0.6])
        e = 1e-6
        for theta in (-1.5, 0.0, 1.0):
            delta = SignedMixingMeasure([theta], [1.0])
            fd = (m.objective(combine(f, 1.0, delta, e))
                  - m.objective(combine(f, 1.0, delta, -e))) / (2 * e)
            assert_allclose(m.dir_deriv_vertex(theta, f), fd, rtol=1e-5)

    def test_certificate_scale_is_the_raw_derivative(self):
        assert MlModel.alt_dir_deriv_vertex is MlModel.dir_deriv_vertex

    def test_requires_positive_mixture(self):
        m = MlModel(np.array([0.0]))
        with pytest.raises(ValueError):
            m.dir_deriv_vertex(0.0, MixingMeasure.empty())


class TestMlLocationGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        m = MlModel(rng.normal(size=20))
        f = MixingMeasure([-0.7, 0.4, 1.2], [0.3, 0.5, 0.2])
        grad = m.location_gradient(f)
        h = 1e-6
        for i in range(3):
            up = f.locations.copy(); up[i] += h
            dn = f.locations.copy(); dn[i] -= h
            fd = (m.objective(MixingMeasure(up, f.weights))
                  - m.objective(MixingMeasure(dn, f.weights))) / (2 * h)
            assert_allclose(grad[i], fd, rtol=1e-5)

    def test_one_kernel_evaluation_and_no_theta_deriv(self, monkeypatch):
        calls = []
        original = GaussianFamily.kernel

        def counting(self, theta, obs):
            calls.append(np.shape(theta))
            return original(self, theta, obs)

        def forbidden(self, theta, obs):
            raise AssertionError("theta_deriv called")

        monkeypatch.setattr(GaussianFamily, "kernel", counting)
        monkeypatch.setattr(GaussianFamily, "theta_deriv", forbidden)
        m = MlModel(np.random.default_rng(11).normal(size=20))
        m.location_gradient(MixingMeasure([-0.7, 0.4, 1.2], [0.3, 0.5, 0.2]))
        assert calls == [(3, 1)]


class TestMlNewtonSystem:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4))
    def test_matches_central_differences(self, seed, p):
        # The joint gradient against central differences of the
        # objective, the Hessian against central differences of the
        # gradient, in the locations and then the weights.
        rng = np.random.default_rng(seed)
        m = MlModel(rng.normal(size=30) + rng.exponential(size=30))
        theta = np.sort(rng.uniform(-1.0, 3.0, p)) + 0.05 * np.arange(p)
        z = np.concatenate((theta, rng.uniform(0.1, 1.0, p)))

        def at(v):
            return MixingMeasure(v[:p], v[p:])

        grad, hess = m.newton_system(at(z))
        h = 1e-6
        fd_grad = np.empty(2 * p)
        fd_hess = np.empty((2 * p, 2 * p))
        for i in range(2 * p):
            e = np.zeros(2 * p)
            e[i] = h
            fd_grad[i] = (m.objective(at(z + e))
                          - m.objective(at(z - e))) / (2 * h)
            fd_hess[i] = (m.newton_system(at(z + e))[0]
                          - m.newton_system(at(z - e))[0]) / (2 * h)
        assert_allclose(grad, fd_grad, rtol=1e-6,
                        atol=1e-6 * np.abs(grad).max())
        assert_allclose(hess, fd_hess, rtol=1e-6,
                        atol=1e-6 * np.abs(hess).max())
        assert_allclose(grad[:p], m.location_gradient(at(z)), rtol=1e-14,
                        atol=1e-16)


class TestQuadModel:
    def _setup(self, seed=13, n=18):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.normal(size=n))
        center = MixingMeasure([-0.5, 0.6], [0.55, 0.5])
        return x, center, QuadLocalModel(x, center)

    def test_tangent_to_likelihood_at_center(self):
        x, center, q = self._setup()
        m = MlModel(x)
        thetas = np.linspace(-2.0, 2.0, 9)
        c1, c2 = q.quad_coefficients(thetas, center)
        assert_allclose(c1, m.dir_deriv_vertex(thetas, center), rtol=1e-10)
        assert np.all(c2 > 0)

    def test_objective_at_center_pinned(self):
        # d_i f(x_i) = 1 at the expansion point, so q = mass - 3/2
        x, center, q = self._setup()
        assert_allclose(q.objective(center), center.total_mass() - 1.5,
                        rtol=1e-13)

    def test_exact_quadratic_along_kernel(self):
        x, center, q = self._setup()
        f = MixingMeasure([0.1], [0.8])
        theta = -0.3
        c1, c2 = q.quad_coefficients(theta, f)
        base = q.objective(f)
        for eps in (0.2, 0.7, 1.5):
            blend = combine(f, 1.0, SignedMixingMeasure([theta], [1.0]), eps)
            expect = base + c1 * eps + 0.5 * c2 * eps**2
            assert_allclose(q.objective(blend), expect, rtol=1e-12)

    def test_segment_curvature_matches_c2(self):
        x, center, q = self._setup()
        theta = 0.9
        _, c2 = q.quad_coefficients(theta, center)
        S, w = np.array([theta]), np.array([1.0])
        at = q.model.grid_index(S)
        assert_allclose(w @ q._gram_block(S, at, S, at) @ w, c2, rtol=1e-13)

    def test_grid_cache_matches_fresh_evaluation(self):
        x, center, _ = self._setup()
        grid = np.linspace(-2.0, 2.0, 11)
        cached = QuadLocalModel(x, center, grid=grid)
        fresh = QuadLocalModel(x, center)
        f = MixingMeasure([0.2], [0.9])
        a1, a2 = cached.quad_coefficients(grid, f)
        b1, b2 = fresh.quad_coefficients(grid, f)
        assert_allclose(a1, b1, rtol=1e-14)
        assert_allclose(a2, b2, rtol=1e-14)
        # scalar path agrees with the vectorized one
        s1, s2 = cached.quad_coefficients(float(grid[3]), f)
        assert_allclose([s1, s2], [b1[3], b2[3]], rtol=1e-14)

    def test_unit_center_is_single_kernel_minimizer(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=9)
        q = QuadLocalModel(x, MixingMeasure([0.2], [1.0]))
        f = q.unrestricted_min(np.array([0.2]))
        assert_allclose(f.weights, [1.0], rtol=1e-12)

    def test_normal_equations_match_naive_loops(self):
        x, center, q = self._setup()
        sup = np.array([-0.4, 0.7])
        sol = q.unrestricted_min(sup)
        p, n = len(sup), len(x)
        M = np.zeros((p, p))
        rhs = np.zeros(p)
        for a in range(p):
            ka = np.array([QuadLocalModel.family.kernel(sup[a], xi) for xi in x])
            rhs[a] = 2.0 * float(ka @ q.d) - n
            for b in range(p):
                kb = np.array([QuadLocalModel.family.kernel(sup[b], xi) for xi in x])
                M[a, b] = float((ka * q.d) @ (kb * q.d))
        assert_allclose(sol.weights, np.linalg.solve(M, rhs), rtol=1e-10)

    def test_stationarity_at_solution(self):
        x, center, q = self._setup()
        sup = np.array([-0.4, 0.7])
        sol = q.unrestricted_min(sup)
        c1, _ = q.quad_coefficients(sup, sol)
        assert np.all(np.abs(c1) < 1e-9)

    def test_rank_deficient_support_raises(self):
        # symmetric support around the lone observation makes the two
        # kernel columns bitwise equal, hence an exactly singular system
        q = QuadLocalModel(np.array([0.0]), MixingMeasure([0.0], [1.0]))
        with pytest.raises(ValueError, match="merge them"):
            q.unrestricted_min(np.array([-1.0, 1.0]))

    def test_center_must_be_positive(self):
        with pytest.raises(KernelUnderflow,
                           match="^the mixture vanishes at observation 0: "
                                 "the measure has no atoms$"):
            QuadLocalModel(np.array([0.0]), MixingMeasure.empty())


def _product_form(x, center, theta, measure):
    """``(c1, c2)`` from the explicit n x G product ``d_i f_theta(x_i)``,
    and a bound on the size of the terms summed into ``c1``."""
    fam = GaussianFamily()
    d = 1.0 / (fam.kernel(center.locations, x[:, None]) @ center.weights)
    kd = fam.kernel(theta, x[:, None]) * d[:, None]
    fd = (fam.kernel(measure.locations, x[:, None]) @ measure.weights) * d
    terms = np.abs(kd).mean(axis=0) * (2.0 + np.abs(fd).max(initial=0.0))
    c1 = 1.0 - 2.0 * kd.mean(axis=0) + fd @ kd / x.size
    return c1, np.mean(kd**2, axis=0), terms


def _atoms(lo, hi, min_size):
    return st.lists(st.tuples(st.floats(lo, hi), st.floats(0.05, 1.0)),
                    min_size=min_size, max_size=3).map(
        lambda atoms: MixingMeasure.from_atoms(*zip(*atoms)) if atoms
        else MixingMeasure.empty())


class TestGridPathAgreement:
    """The grid model's matvecs give the grid-free coefficients."""

    def _check(self, x, center, grid, measure):
        x = np.sort(x)              # the models' order, for free.d
        on_grid = QuadLocalModel(x, center, grid=grid)
        assert on_grid.model.K is not None
        free = QuadLocalModel(x, center)
        a1, a2 = on_grid.quad_coefficients(grid, measure)
        b1, b2 = free.quad_coefficients(grid, measure)
        r1, r2, terms = _product_form(x, center, grid, measure)
        # a measure on the grid sums the terms of c1 in another order, and
        # both match the explicit product up to its rounding
        for c1 in (b1, r1):
            assert_allclose(a1, c1, rtol=1e-12, atol=1e-12 * terms.max())
        for c2 in (b2, r2):
            assert_allclose(a2, c2, rtol=1e-12)
        # objective and curvature along the measure, against the sums of
        # their terms' sizes
        fam = GaussianFamily()
        kd = fam.kernel(measure.locations, x[:, None]) * free.d[:, None]
        w, fd, size = measure.weights, kd @ measure.weights, kd @ np.abs(measure.weights)
        q_size = np.abs(w).sum() + 2.0 * size.mean() + 0.5 * (size**2).mean()
        for quad in (on_grid, free):
            assert_allclose(quad.objective(measure),
                            w.sum() - 2.0 * fd.mean() + 0.5 * (fd**2).mean(),
                            rtol=1e-12, atol=1e-12 * q_size)
            S = measure.locations
            at = quad.model.grid_index(S)
            assert_allclose(w @ quad._gram_block(S, at, S, at) @ w,
                            (fd**2).mean(),
                            rtol=1e-12, atol=1e-12 * (size**2).mean())
        # the normal equations, on grid atoms and on the measure's, where
        # the system is conditioned well enough that rounding stays orders
        # of magnitude below the tolerance
        for support in (np.unique(grid[[0, grid.size // 2, -1]]),
                        measure.locations):
            ks = fam.kernel(support, x[:, None]) * free.d[:, None]
            gram, b = ks.T @ ks / x.size, ks.mean(axis=0)
            if support.size == 0 or np.linalg.cond(gram) >= 1e4:
                continue
            # the solution's size if no term of 2 b_S - 1 cancelled
            alpha_size = np.abs(np.linalg.inv(gram)) @ (2.0 * b + 1.0)
            for alpha in (free.unrestricted_min(support).weights,
                          np.linalg.solve(gram, 2.0 * b - 1.0)):
                assert_allclose(on_grid.unrestricted_min(support).weights, alpha,
                                rtol=1e-12, atol=1e-12 * alpha_size.max())
        # at the center the slope is the likelihood's derivative
        c1, _ = on_grid.quad_coefficients(grid, center)
        _, _, terms = _product_form(x, center, grid, center)
        assert_allclose(c1, MlModel(x).dir_deriv_vertex(grid, center),
                        rtol=1e-12, atol=1e-12 * terms.max())

    @pytest.mark.parametrize("measure", [
        MixingMeasure.empty(), MixingMeasure([-0.3, 0.4], [0.5, 0.6])])
    def test_empty_and_nonempty_measure(self, measure):
        rng = np.random.default_rng(31)
        x = rng.normal(size=25)
        center = MixingMeasure([-0.5, 0.6], [0.55, 0.5])
        self._check(x, center, np.linspace(-2.0, 2.0, 13), measure)

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
           center=_atoms(-1.0, 1.0, 1),
           grid=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
           measure=_atoms(-2.0, 2.0, 0))
    def test_property(self, x, center, grid, measure):
        self._check(np.array(x), center, np.unique(grid), measure)

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
           center=_atoms(-1.0, 1.0, 1),
           grid=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8,
                         unique=True),
           atoms=st.lists(st.tuples(st.integers(0, 7),
                                    st.one_of(st.floats(-1.0, -0.05),
                                              st.floats(0.05, 1.0))),
                          max_size=4))
    def test_property_on_grid_atoms(self, x, center, grid, atoms):
        """Measures on grid points take the Gram-store path; it agrees
        with the grid-free model and the explicit products."""
        x, grid = np.array(x), np.sort(grid)
        measure = SignedMixingMeasure.from_atoms(
            [grid[a % grid.size] for a, _ in atoms], [w for _, w in atoms])
        assert MlModel(x, grid).grid_index(measure.locations) is not None
        self._check(x, center, grid, measure)

    @pytest.mark.parametrize("grid", [[-1.0, 1.0], [-0.5, 0.5], [-1.0, 0.3, 1.0]])
    def test_singular_grid_support_raises(self, grid):
        # kernels symmetric about the lone observation are bitwise equal,
        # so the Gram rows are too
        grid = np.array(grid)
        q = QuadLocalModel(np.array([0.0]), MixingMeasure([0.0], [1.0]), grid=grid)
        assert q.model.grid_index(grid) is not None
        with pytest.raises(ValueError, match="merge them"):
            q.unrestricted_min(grid)


def _product_factors(model):
    """``exp(h (x - max x))`` and ``exp(h (max x - theta_j) - h^2 / 2)`` of
    the model's product step ``h``, so that ``phi(x - theta_j) phi(x -
    theta_{j+1}) = K[j]^2 * scale * odd[j]``."""
    h, top = model.step, model.x[-1]
    return (np.exp(h * (model.x - top)),
            np.exp(h * (top - model.grid[:-1]) - 0.5 * h * h))


class TestSquaredProducts:
    """The model's curvatures, squared tile by tile, match the products
    over the stored square of ``K``."""

    @settings(max_examples=80, deadline=None)
    @given(x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30),
           size=st.integers(1, 12),
           jitter=st.booleans(),
           tile_rows=st.integers(1, 13),
           decades=st.floats(0.0, 3.0))
    def test_property(self, x, size, jitter, tile_rows, decades):
        # data and grid scaled by up to 1e3, so the product span crosses
        # _PRODUCT_SPAN both ways; the center holds an atom at every
        # observation, so it covers the sample at any scale
        scale = 10.0 ** decades
        x = scale * np.array(x)
        grid = scale * np.linspace(-2.0, 2.0, size)
        if jitter and size > 2:
            grid[1] += 1e-3 * scale  # not uniform: no product identity
        center = MixingMeasure.from_atoms(x, np.full(x.size, 1.0 / x.size))
        with (mock.patch.object(mldeconv, "_TILE_BYTES", tile_rows * 8 * x.size),
              warnings.catch_warnings()):
            warnings.simplefilter("error", RuntimeWarning)
            model = MlModel(x, grid)
            d2 = (1.0 / model.mixture(center))**2
            c2, W = model.curvatures(d2)
        K2 = model.K * model.K
        assert_allclose(c2, K2 @ d2 / x.size, rtol=1e-13)
        h = (grid[-1] - grid[0]) / max(size - 1, 1)
        wide = h * (x.max() - min(x.min(), grid[0])) > mldeconv._PRODUCT_SPAN
        assert (W is None) == (jitter and size > 2 or wide)
        assert (model.step is None) == (W is None)
        if W is not None:
            factor, odd = _product_factors(model)
            assert_allclose(W[1::2], odd * (K2[:-1] @ (d2 * factor)) / x.size,
                            rtol=1e-13)
            adjacent = (model.K[:-1] * model.K[1:]) @ d2 / x.size
            assert np.abs(W[1::2] - adjacent).max(initial=0.0) <= 1e-13 * c2.max()
            assert_allclose(W[0::2], c2, rtol=0.0)

    @pytest.mark.parametrize("size, jitter", [(1, False), (2, False), (9, False),
                                              (9, True), (40, False)])
    def test_one_tile_holds_the_grid(self, size, jitter):
        # one tile squares all of K, bit for bit as the whole square does
        x = np.random.default_rng(43).normal(size=25)
        grid = np.linspace(-2.0, 2.0, size)
        if jitter:
            grid[1] += 1e-3
        model = MlModel(x, grid)
        assert mldeconv._tile_rows(x.size) >= size
        d2 = (1.0 / model.mixture(MixingMeasure([0.0], [1.0])))**2
        c2, W = model.curvatures(d2)
        if jitter:
            assert W is None and model.step is None
            assert np.array_equal(c2, d2 @ np.square(model.K).T / x.size)
        else:
            scale, odd = _product_factors(model)
            sums = np.array((d2, d2 * scale)) @ np.square(model.K).T
            assert np.array_equal(c2, sums[0] / x.size)
            assert np.array_equal(W[0::2], c2)
            assert np.array_equal(W[1::2], odd * sums[1, :-1] / x.size)


class TestObservations:
    """Grid atoms read rows of the model's matrix; other atoms evaluate."""

    X = np.sort(np.random.default_rng(37).normal(size=30))
    GRID = np.linspace(-2.0, 2.0, 9)

    @pytest.fixture
    def calls(self, monkeypatch):
        return _kernel_spy(monkeypatch)

    def test_grid_atoms_read_rows(self, calls, monkeypatch):
        monkeypatch.setattr(mldeconv, "_TILE_BYTES", 4 * 8 * self.X.size)
        model = MlModel(self.X, self.GRID)
        assert model.K.shape == (self.GRID.size, self.X.size)
        # tiles of 4, 4 and 1 rows
        _assert_one_tiled_build(calls, self.GRID, self.X.size)
        assert len(calls) == 3
        for theta in (self.GRID[[0, 3, 4, 8]], self.GRID[5], self.GRID):
            calls.clear()
            rows = model.kernels(theta)
            assert calls == []
            fresh = GaussianFamily().kernel(theta[..., None], self.X)
            assert rows.shape == fresh.shape
            assert np.array_equal(rows, fresh)

    @pytest.mark.parametrize("theta", [
        [-1.5, 0.1, 1.0],        # one atom off the grid
        [-2.0, 2.5],             # above the last point: searchsorted gives G
        [-2.7, 0.0],             # below the first point
        0.3,                     # a scalar
    ])
    def test_other_atoms_are_evaluated(self, calls, theta):
        model = MlModel(self.X, self.GRID)
        calls.clear()
        out = model.kernels(theta)
        assert len(calls) == 1
        expect = GaussianFamily().kernel(np.asarray(theta)[..., None], self.X)
        assert out.shape == np.shape(theta) + (self.X.size,)
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("size, tile_rows", [
        (1, 1), (1, 4), (2, 1), (2, 2), (9, 4), (9, 9), (9, 1000)])
    def test_tiled_build_equals_one_call(self, monkeypatch, size, tile_rows):
        monkeypatch.setattr(mldeconv, "_TILE_BYTES", tile_rows * 8 * self.X.size)
        grid = np.linspace(-2.0, 2.0, size)
        K = MlModel(self.X, grid).K
        assert np.array_equal(K, GaussianFamily().kernel(grid[:, None], self.X))
        assert K.flags.c_contiguous and not K.flags.writeable

    def test_build_holds_one_matrix(self):
        x = np.random.default_rng(41).normal(size=2_000)
        grid = np.linspace(-3.0, 3.0, 200)
        tracemalloc.start()
        try:
            MlModel(x, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * grid.size * x.size * 8

    def test_empty_measure(self):
        for model in (MlModel(self.X, self.GRID), MlModel(self.X)):
            assert model.kernels(np.empty(0)).shape == (0, self.X.size)
            assert np.array_equal(model.mixture(MixingMeasure.empty()),
                                  np.zeros(self.X.size))

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
           grid=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8,
                         unique=True),
           atoms=st.lists(st.tuples(st.one_of(st.integers(0, 7),
                                              st.floats(-3.0, 3.0)),
                                    st.floats(0.05, 1.0)), max_size=4))
    def test_mixture_matches_mixture_eval(self, x, grid, atoms):
        x, grid = np.sort(x), np.sort(grid)
        # integer picks are grid points, floats are anywhere
        locations = [float(grid[a % grid.size]) if isinstance(a, int) else a
                     for a, _ in atoms]
        measure = (MixingMeasure.from_atoms(locations, [w for _, w in atoms])
                   if atoms else MixingMeasure.empty())
        expect = mixture_eval(GaussianFamily(), measure, x)
        for model in (MlModel(x, grid), MlModel(x)):
            assert_allclose(model.mixture(measure), expect, rtol=1e-12)


class TestStartingIterate:
    def test_pinned(self):
        # cells [0, 1] and [2, 3]: midranges 0.5 and 2 snap to 0.5 and 3
        f = starting_iterate(np.array([2.0, 0.0, 1.0]),
                             np.array([0.5, 0.9, 3.0]))
        assert_allclose(f.locations, [0.5, 3.0])
        assert_allclose(f.weights, [2 / 3, 1 / 3])
        # both cells snap to the one grid point and merge
        f = starting_iterate(np.array([0.0, 1.0, 2.0]), np.array([0.9]))
        assert_allclose(f.locations, [0.9])
        assert_allclose(f.weights, [1.0])

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40),
           digits=st.integers(0, 3), size=st.integers(2, 80),
           seed=st.integers(0, 2**32 - 1))
    def test_cover(self, x, digits, size, seed):
        # rounding makes ties; the grid spans the sample
        x = np.round(np.array(x), digits)
        grid = np.unique(np.linspace(x.min(), x.max(), size))
        h = np.diff(grid).max(initial=0.0)
        f = starting_iterate(x, grid)
        assert np.isin(f.locations, grid).all()
        assert (f.weights > 0.0).all()
        assert_allclose(f.weights.sum(), 1.0, rtol=1e-12)
        g = starting_iterate(np.random.default_rng(seed).permutation(x), grid)
        assert np.array_equal(g.locations, f.locations)
        assert np.array_equal(g.weights, f.weights)
        reach = np.abs(x[:, None] - f.locations).min(axis=1)
        assert (reach <= 0.5 + h / 2 + 1e-9).all()


class TestNewtonSolve:
    def test_single_obs_is_immediate(self):
        f, trace = newton_solve(
            np.array([1.3]),
            SolverConfig(grid=np.array([0.3, 1.3, 2.3]), eta=1e-10))
        assert trace.converged
        assert trace.n_iterations == 0
        assert_allclose(f.locations, [1.3])
        assert_allclose(f.weights, [1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_runs(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.normal(size=40) + rng.exponential(size=40))
        grid = np.linspace(x[0], x[-1], 25)
        f, trace = newton_solve(x, SolverConfig(grid=grid, eta=1e-8))
        assert trace.converged
        assert abs(f.total_mass() - 1.0) <= 1e-6
        assert f.size <= len(np.unique(x))
        diffs = np.diff(trace.objective)
        assert np.all(diffs[:-1] < 0)
        assert diffs.size == 0 or diffs[-1] <= 1e-14

    def test_matches_box_constrained_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=25)
        grid = np.linspace(-1.5, 1.5, 5)
        f, trace = newton_solve(x, SolverConfig(grid=grid, eta=1e-9))
        assert trace.converged
        m = MlModel(x)

        def obj(w):
            fx = np.exp(-0.5 * (x[:, None] - grid) ** 2) / math.sqrt(2 * math.pi) @ w
            if np.any(fx <= 0):
                return 1e6
            return -np.mean(np.log(fx)) + w.sum()

        res = optimize.minimize(
            obj, np.full(5, 0.2), method="L-BFGS-B",
            bounds=[(0.0, None)] * 5,
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 5000})
        assert m.objective(f) <= res.fun + 1e-6

    def test_iteration_cap(self):
        rng = np.random.default_rng(19)
        x = np.sort(rng.normal(size=60) + rng.exponential(size=60))
        grid = np.linspace(x[0], x[-1], 30)
        f, trace = newton_solve(
            x, SolverConfig(grid=grid, eta=1e-8, max_outer_iter=1))
        assert not trace.converged
        assert trace.n_iterations == 1

    def test_accepts_the_model(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=30) + rng.exponential(size=30)
        config = SolverConfig(grid=np.linspace(x.min(), x.max(), 12), eta=1e-8)
        f, trace = newton_solve(x, config)
        g, trace_g = newton_solve(MlModel(x), config)
        assert trace_g.objective == trace.objective
        assert_allclose(g.locations, f.locations, rtol=0)
        assert_allclose(g.weights, f.weights, rtol=0)

    def test_one_model_per_fit(self, monkeypatch):
        built = []
        original = MlModel.__init__

        def counting(self, sample, grid=None):
            built.append(isinstance(sample, MlModel))
            original(self, sample, grid)

        monkeypatch.setattr(MlModel, "__init__", counting)
        rng = np.random.default_rng(41)
        x = rng.normal(size=30) + rng.exponential(size=30)
        pipeline.fit("deconv-ml", x, SolverConfig(
            grid=np.linspace(x.min(), x.max(), 12), eta=1e-8,
            gridless_enabled=True))
        # one model reads the sample; the models on grids share it
        assert built.count(False) == 1 and built.count(True) > 1

    def test_converged_matches_a_fresh_certificate(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=60) + rng.exponential(size=60)
        grid = np.linspace(x.min(), x.max(), 25)
        for cap in (1, 10_000):     # stopped by the cap, then converged
            config = SolverConfig(grid=grid, eta=1e-8, max_outer_iter=cap,
                                  support_tol=1e-7)
            f, trace = newton_solve(x, config)
            fresh = check_optimality(MlModel(x), f, grid, 1e-8, 1e-7)
            assert fresh.passed == trace.converged
            assert cap == 10_000 or not trace.converged
            # the fit's certificate, read from its model, is the same
            assert pipeline.fit("deconv-ml", x, config).certificate == fresh

    def test_no_worse_than_the_median_start(self):
        # Tiny samples, sparse and wide, with ties from rounding, on the
        # default grid: the start that covers the data, with the vertex
        # exchange of the reduction, ends no worse than one atom at the
        # grid point nearest the median.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 15))
            x = np.round(rng.uniform(0.3, 8.0) * rng.standard_normal(n),
                         int(rng.integers(0, 3)))
            model = MlModel(x)
            grid = pipeline.build_grid(*model.domain, 500, GaussianFamily())
            config = SolverConfig(grid=grid, eta=1e-8)
            median = grid[np.abs(grid - np.median(x)).argmin()]
            f, trace = newton_solve(model, config)
            g, _ = newton_solve(model, config,
                                start=MixingMeasure([median], [1.0]))
            assert trace.converged, seed
            best = model.objective(g)
            assert model.objective(f) <= best + 1e-9 * abs(best), seed

    @pytest.mark.parametrize("gridless", [False, True])
    def test_singular_warm_start_starts_empty(self, monkeypatch, gridless):
        # A support of eight atoms on a tied sample of three distinct
        # observations: its quadratic model's system has rank 3, so the
        # warm start on it raises and the fit's first subproblem starts
        # empty.  A partial step reaches such a support by keeping the
        # atoms of both ends of its segment.
        x = np.array([-2.9, -2.9, -2.0, -2.0, -2.9, -2.9, -2.0, -0.2])
        grid = pipeline.build_grid(*pipeline.default_grid_spec("deconv-ml", x),
                                   GaussianFamily())
        config = SolverConfig(grid=grid, eta=1e-8, gridless_enabled=gridless)
        start = MixingMeasure(grid[::grid.size // 8][:8], np.full(8, 0.125))
        assert np.unique(x).size < start.size
        with pytest.raises(core.SingularSystem):
            QuadLocalModel(MlModel(x, grid), start).minimize_over_support(
                start, config)
        starts = []
        solve = core.solve

        def recording(model, config, start=None, local=None):
            if isinstance(model, QuadLocalModel):
                starts.append(start)
            return solve(model, config, start, local)

        monkeypatch.setattr(core, "solve", recording)
        monkeypatch.setattr(mldeconv, "starting_iterate", lambda x, grid: start)
        result = pipeline.fit("deconv-ml", x, config)
        assert result.converged
        assert result.trace.support_size[0] == 8
        assert starts[0] is None
        assert all(s.size <= np.unique(x).size for s in starts if s is not None)

    def test_custom_start(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=30)
        grid = np.linspace(x.min(), x.max(), 12)
        start = MixingMeasure([float(grid[0])], [1.0])
        f, trace = newton_solve(x, SolverConfig(grid=grid, eta=1e-8),
                                start=start)
        assert trace.converged
        assert abs(f.total_mass() - 1.0) <= 1e-6

    @pytest.mark.parametrize("grid, start, where", [
        # one grid point 200 noise units from the last observation
        ([0.0], None, "200 from the nearest grid point"),
        # a fine grid, but a user start far from the outlier
        (np.linspace(0.0, 200.0, 401), MixingMeasure([0.0], [1.0]),
         "0 from the nearest grid point and 200 from the nearest atom"),
    ], ids=[   # fixed names, so that a message edit renames no test
        "grid0-None-200 from the nearest grid point",
        "grid1-start1-0 from the nearest grid point and 200 from the nearest atom"])
    def test_start_beyond_kernel_underflow_raises(self, grid, start, where):
        x = [0.0, 0.0, 0.0, 0.0, 0.0, 200.0]
        with pytest.raises(KernelUnderflow, match="observation 200, " + where):
            newton_solve(x, SolverConfig(grid=np.array(grid)), start=start)
        assert issubclass(KernelUnderflow, ValueError)


class TestKernelUnderflow:
    """Every likelihood entry checks its mixture through one method, which
    names the first observation where the mixture vanishes; the objective
    is infinite there instead."""

    X = np.array([0.0, 0.0, 1.0, 200.0])
    GRID = np.linspace(0.0, 100.0, 5)
    START = MixingMeasure([0.0], [1.0])
    ATOM = ("200 from the nearest atom: Gaussian kernels underflow beyond "
            "about 38 noise units")
    ON_GRID = "100 from the nearest grid point and " + ATOM

    @pytest.mark.parametrize("entry", [
        "derivative", "derivative-on-grid", "newton-system", "quadratic",
        "quadratic-from-model", "newton-solve", "fine-tune", "certificate"])
    def test_entry_names_the_observation(self, entry):
        model, f, grid = MlModel(self.X), self.START, self.GRID
        # (whether the model that checks holds the grid, the call)
        on_grid, call = {
            "derivative": (False, lambda: model.dir_deriv_vertex(0.5, f)),
            "derivative-on-grid": (True, lambda: MlModel(
                self.X, grid).dir_deriv_vertex(grid, f)),
            "newton-system": (False, lambda: model.newton_system(f)),
            "quadratic": (False, lambda: QuadLocalModel(self.X, f)),
            "quadratic-from-model": (True, lambda: QuadLocalModel(
                MlModel(self.X, grid), f)),
            "newton-solve": (True, lambda: newton_solve(
                self.X, SolverConfig(grid=grid), start=f)),
            "fine-tune": (False, lambda: gridless.fine_tune(
                model, f, SolverConfig(grid=grid, gridless_enabled=True))),
            "certificate": (False,
                            lambda: check_optimality(model, f, grid, 1e-8)),
        }[entry]
        where = self.ON_GRID if on_grid else self.ATOM
        with pytest.raises(KernelUnderflow,
                           match="^the mixture vanishes at observation 200, "
                                 + re.escape(where) + "$"):
            call()
        assert model.objective(f) == np.inf
        assert MlModel(self.X, grid).objective(f) == np.inf


class TestSharedKernelMatrix:
    """One G x n kernel matrix per Newton loop, and none after it."""

    N, G = 200, 40

    def _problem(self):
        rng = np.random.default_rng(29)
        x = np.sort(rng.normal(size=self.N) + rng.exponential(size=self.N))
        return x, np.linspace(x[0], x[-1], self.G)

    @pytest.fixture(autouse=True)
    def _tiles_of_seven_rows(self, monkeypatch):
        # 40 grid rows in tiles of 7: five full tiles and a ragged one
        monkeypatch.setattr(mldeconv, "_TILE_BYTES", 7 * 8 * self.N)

    def test_grid_kernels_evaluated_once_per_solve(self, monkeypatch):
        x, grid = self._problem()
        calls = _kernel_spy(monkeypatch)
        f, trace = newton_solve(x, SolverConfig(grid=grid, eta=1e-8))
        assert trace.converged and trace.n_iterations >= 3
        # the certificate scans, every quadratic model and every atom on
        # the grid read one matrix: no other kernel is evaluated
        _assert_one_tiled_build(calls, grid, self.N)
        assert all(into for _, _, into in calls)

    def test_final_certificate_scans_the_grid_once(self, monkeypatch):
        x, grid = self._problem()
        calls = _kernel_spy(monkeypatch)
        config = SolverConfig(grid=grid, eta=1e-8)
        result = pipeline.fit("deconv-ml", x, config)
        assert result.converged
        # one K for the Newton loop and the final certificate, which reads
        # the matvec the loop's last scan left in the model
        _assert_one_tiled_build(calls, grid, self.N)
        assert result.certificate == check_optimality(
            MlModel(x), result.measure, grid, config.eta, config.support_tol)

    def test_refined_fit_builds_the_grid_rows_once(self, monkeypatch):
        x, grid = self._problem()
        calls = _kernel_spy(monkeypatch)
        models = []
        build = MlModel.__init__

        def recording(self, x, grid=None):
            models.append(grid)
            build(self, x, grid)

        monkeypatch.setattr(MlModel, "__init__", recording)
        result = pipeline.fit("deconv-ml", x, SolverConfig(
            grid=grid, eta=1e-8, gridless_enabled=True))
        assert result.converged and result.fine_tune_trace.steps > 0
        # the grid stage, refinement's scans, the polish and the final
        # certificate share one model on the grid; the weight polishes
        # build small ones on their atoms and the scanned point
        built = [g for g in models if g is not None]
        tiles = [t for t, _, into in calls if into]
        assert np.array_equal(np.concatenate(tiles).ravel(), np.concatenate(built))
        large = [g for g in built if g.size >= self.G // 4]
        assert len(large) == 1 and np.array_equal(large[0], grid)
        assert len(built) > 1
        assert (grid.size, self.N) not in [s for _, s, into in calls if not into]
        assert result.model.K is None

    def test_curves_evaluate_no_grid_kernels(self, monkeypatch, tmp_path):
        x, grid = self._problem()
        result = pipeline.fit("deconv-ml", x, SolverConfig(grid=grid, eta=1e-8))
        calls = _kernel_spy(monkeypatch)
        pipeline.emit_curves(tmp_path, result)
        # the certificate curve is the final certificate's scan
        assert (grid.size, self.N) not in [shape for _, shape, _ in calls]
        curve = np.loadtxt(tmp_path / "curve_directional_derivative.csv",
                           delimiter=",", skiprows=1)
        assert np.array_equal(curve[:, 1], result.certificate.grid_alt)
        assert curve[:, 1].min() == result.certificate.min_grid_alt
        # the tiled K gives the untiled scan bit for bit
        assert np.array_equal(
            curve[:, 1], MlModel(x).alt_dir_deriv_vertex(grid, result.measure))

    def test_on_returns_the_model_that_holds_the_grid(self):
        x, grid = self._problem()
        model = MlModel(x)
        work = model.on(grid)
        assert work is not model and work.grid is grid
        assert work.on(grid) is work
        assert work.on(grid.copy()) is work
        assert model.grid is None and model.K is None
        for other in (grid[::2], np.append(grid, grid[-1] + 1.0)):
            polish = work.on(other)
            assert polish is not work and polish.x is work.x
            assert np.array_equal(polish.grid, other)
            assert work.grid is grid

    def test_second_quadratic_model_allocates_no_matrix(self):
        x, grid = self._problem()
        model = MlModel(x, grid)
        center = MixingMeasure([float(grid[10]), float(grid[25])], [0.5, 0.5])
        # the model holds K alone: its square is formed a tile at a time
        assert not hasattr(model, "K2")
        held = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        assert [a.size >= self.N * self.G for a in held].count(True) == 1
        QuadLocalModel(model, center)                 # the loop's first model
        tracemalloc.start()
        try:
            quad = QuadLocalModel(model, center)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.N * self.G * 8
        quad.quad_coefficients(grid, center)
        arrays = [v for v in vars(quad).values() if isinstance(v, np.ndarray)]
        assert arrays
        assert max(a.size for a in arrays) < self.N * self.G

    def test_fit_result_model_holds_only_sample_vectors(self):
        x, grid = self._problem()
        config = SolverConfig(grid=grid, eta=1e-8, gridless_enabled=True)
        result = pipeline.fit("deconv-ml", x, config)
        arrays, seen, todo = [], set(), [result.model]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif isinstance(obj, (list, tuple)):
                todo.extend(obj)
            elif isinstance(obj, dict):
                todo.extend(obj.values())
            elif hasattr(obj, "__dict__"):
                todo.extend(vars(obj).values())
        assert arrays
        assert max(a.size for a in arrays) <= self.N


def _node_sample(n=2000, seed=1):
    """A sample and a 300-point grid on its range that hold node rows."""
    x = pipeline.simulate_sample("exp-normal-mixture", n, seed)
    return x, np.linspace(x.min(), x.max(), 300)


class TestNodeRows:
    """Grid sums from Chebyshev node rows where the grid qualifies and the
    iterate covers the sample, the exact rows elsewhere, and exact
    certificates."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(40, 600), extra=st.integers(1, 40),
           reach=st.floats(0.0, 1.0), ties=st.booleans(),
           outlier=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_node_sums_match_exact_sums(self, size, extra, reach, ties,
                                        outlier, seed):
        # n just above the size at which K outgrows one tile, spans up to
        # the node rule's limit 2 r <= G, and one observation that lies a
        # share ``outlier`` of the span beyond all others
        n = mldeconv._TILE_BYTES // (8 * size) + extra
        limit = (size // 2 - mldeconv._NODE_FLOOR) / mldeconv._NODES_PER_UNIT
        span = max(0.05, reach * limit)
        x = np.random.default_rng(seed).uniform(0.0, (1.0 - outlier) * span, n)
        if ties:
            x[1::2] = x[::2][:n // 2]
        x[0] = span
        grid = np.linspace(x.min(), x.max(), size)
        model = MlModel(x, grid)
        assert model.nodes is not None and model.K is None
        f = starting_iterate(x, grid)
        d = 1.0 / model.positive_mixture(f)
        K = GaussianFamily().kernel(grid[:, None], model.x)
        Kc = model.nodes[0]
        u, v = Kc @ d / n, np.square(Kc) @ d**2 / n
        b = model.ratio_mean(grid, f, exact=False)
        assert not model._last[3]             # read from the node rows
        assert np.abs(b - K @ d / n).max() <= 1e-13 * np.abs(u).max()
        c2, W = model.curvatures(d**2)
        assert np.array_equal(W[0::2], c2)
        assert np.abs(c2 - np.square(K) @ d**2 / n).max() <= 1e-13 * v.max()
        assert (np.abs(W[1::2] - (K[:-1] * K[1:]) @ d**2 / n).max()
                <= 1e-13 * v.max())
        assert model.K is None

    @pytest.mark.parametrize("case", ["tiny", "non-uniform", "coarse"])
    def test_hazards_select_exact_rows(self, case):
        x, grid = _node_sample()
        if case == "tiny":
            x, grid = np.array([0.5, 0.5, 2.0]), np.linspace(0.5, 2.0, 500)
        elif case == "non-uniform":
            grid[1] += 1e-3
        else:
            grid = grid[::3]                  # 2 r > G
        model = MlModel(x, grid)
        assert model.nodes is None and model.K is not None
        f = starting_iterate(x, grid)
        assert np.array_equal(model.ratio_mean(grid, f, exact=False),
                              MlModel(x).ratio_mean(grid, f))
        assert model._last[3]

    def test_a_near_outlier_keeps_node_rows(self):
        # the gap case's outlier 2 noise units nearer: 3.5 from the grid
        x, grid = _node_sample()
        x = np.append(x, x.max() + 7.0)
        assert MlModel(x, np.linspace(x.min(), x.max(), grid.size)).nodes is not None

    def test_a_gap_keeps_node_rows(self, monkeypatch):
        # grid points 4.5 noise units from every observation, where an
        # interpolated curvature may dip below 0: the fit stays on node rows,
        # raises no RuntimeWarning, and reaches the exact rows' objective
        x, grid = _node_sample()
        x = np.append(x, x.max() + 9.0)
        grid = np.linspace(x.min(), x.max(), grid.size)
        model = MlModel(x, grid)
        assert model.nodes is not None and model.K is None
        config = SolverConfig(grid=grid, eta=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f, trace = newton_solve(model, config)
            assert pipeline.fit("deconv-ml", x, config).converged
        assert trace.converged and model.K is None
        monkeypatch.setattr(MlModel, "_node_step", lambda self, theta: None)
        exact = MlModel(x, grid)
        g, exact_trace = newton_solve(exact, config)
        assert exact_trace.converged and exact.nodes is None
        best = exact.objective(g)
        assert abs(exact.objective(f) - best) <= 1e-12 * best

    def test_node_sums_serve_an_iterate_that_covers_the_sample(self):
        # the covering start scaled down until max 1/f = 40 n: within
        # _NODE_COVER, and Kc^2 d^2 / n exceeds 1e6
        x, grid = _node_sample(5000, 3)
        model = MlModel(x, grid)
        start = starting_iterate(x, grid)
        d = 1.0 / model.positive_mixture(start)
        scale = d.max() / (40.0 * x.size)
        f = MixingMeasure(start.locations, start.weights * scale)
        d = 1.0 / model.positive_mixture(f)
        assert 25.0 * x.size < d.max() < 50.0 * x.size
        v = np.square(model.nodes[0]) @ d**2 / x.size
        assert v.max() > 1e6
        c2, W = model.curvatures(d**2)
        assert model.K is None
        K = GaussianFamily().kernel(grid[:, None], model.x)
        assert np.abs(c2 - np.square(K) @ d**2 / x.size).max() <= 1e-13 * v.max()
        assert (np.abs(W[1::2] - (K[:-1] * K[1:]) @ d**2 / x.size).max()
                <= 1e-13 * v.max())
        model.ratio_mean(grid, f, exact=False)
        assert not model._last[3]             # read from the node rows

    @pytest.mark.parametrize("gridless", [False, True])
    def test_data_far_from_0_certifies(self, gridless):
        # at 1e8 the nodes are exact only about the grid's midpoint: placed
        # at 1e8 + tau_k they are off by rounding, and the support half
        # reads 1.6e-8 > support_tol
        x = pipeline.simulate_sample("exp-normal-mixture", 2000, 1) + 1e8
        grid = pipeline.build_grid(*pipeline.default_grid_spec("deconv-ml", x),
                                   GaussianFamily())
        assert MlModel(x, grid).nodes is not None
        result = pipeline.fit("deconv-ml", x, SolverConfig(
            grid=grid, eta=1e-8, gridless_enabled=gridless))
        assert result.converged

    def test_far_start_steps_on_exact_rows(self, monkeypatch):
        x, grid = _node_sample()
        config = SolverConfig(grid=grid, eta=1e-8)
        covered = MlModel(x, grid)
        f, trace = newton_solve(covered, config)
        assert trace.converged and covered.K is None
        # one atom at the left end covers no observation far from it:
        # max Kc (1/f) / n reaches 7e27, and the steps read exact scans
        far = MlModel(x, grid)
        calls = _kernel_spy(monkeypatch)
        g, far_trace = newton_solve(far, config,
                                    start=MixingMeasure([grid[0]], [1.0]))
        assert far_trace.converged and far.K is None and far.nodes is not None
        assert all(np.prod(shape) < grid.size * x.size for _, shape, _ in calls)
        best = covered.objective(f)
        assert abs(far.objective(g) - best) <= 4.0 * np.spacing(best)

    def test_fit_certificate_is_the_exact_one(self, monkeypatch):
        x, grid = _node_sample()
        assert MlModel(x, grid).nodes is not None
        config = SolverConfig(grid=grid, eta=1e-8)
        calls, scans = _kernel_spy(monkeypatch), []
        exact_scan = MlModel._scan

        def recording(self, theta, ratio):
            scans.append(np.size(theta))
            return exact_scan(self, theta, ratio)

        monkeypatch.setattr(MlModel, "_scan", recording)
        result = pipeline.fit("deconv-ml", x, config)
        assert result.converged
        # the loop's last row is the exact scan that confirmed it, and the
        # fit's certificate reads that scan again: one pass over the grid
        assert scans.count(grid.size) == 1
        assert result.trace.min_alt_deriv[-1] == result.certificate.min_grid_alt
        assert result.certificate == check_optimality(
            MlModel(x), result.measure, grid, config.eta, config.support_tol)
        assert (grid.size, x.size) not in [s for _, s, into in calls if not into]

    def test_final_certificate_evaluates_no_kernel(self, monkeypatch):
        # Its atoms are grid points: the support half reads the kept exact
        # scan, as the grid half does, and the model keeps the mixture, so
        # not even the atoms' (p, n) block is evaluated.
        x, grid = _node_sample()
        calls, per_check = _kernel_spy(monkeypatch), []
        check = core.check_optimality

        def recording(*args, **kwargs):
            start = len(calls)
            cert = check(*args, **kwargs)
            per_check.append([shape for _, shape, _ in calls[start:]])
            return cert

        monkeypatch.setattr(core, "check_optimality", recording)
        result = pipeline.fit("deconv-ml", x, SolverConfig(grid=grid, eta=1e-8))
        assert result.converged and len(per_check) >= 2
        assert per_check[-1] == []


def _tiled_scan(x, theta, ratio):
    """``K_theta ratio / n`` one product per tile of ``_tile_rows(n)``
    rows, as exact scans off node grids form it."""
    step = mldeconv._tile_rows(x.size)
    return np.concatenate([
        GaussianFamily().kernel(theta[lo:lo + step, None], x) @ ratio
        for lo in range(0, theta.size, step)]) / x.size


def _block_rows(x, grid, square=False):
    """``B`` of an exact node-grid scan: the largest block, at most
    ``ceil(sqrt(G))``, with ``(B - 1) h max(|x - c|, span / 2) <= 16``, or
    twice that for the scan of ``phi^2``."""
    h, c = (grid[-1] - grid[0]) / (grid.size - 1), 0.5 * (grid[0] + grid[-1])
    reach = (1 + square) * h * max(np.abs(x - c).max(), 0.5 * (grid[-1] - grid[0]))
    return max(b for b in range(1, math.ceil(math.sqrt(grid.size)) + 1)
               if (b - 1) * reach <= mldeconv._SHIFT_EXP)


class TestShiftScan:
    """Exact scans over node grids as one blocked GEMM by the Gaussian shift
    identity, and every other scan as the tiled product, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(40, 600), extra=st.integers(1, 40),
           reach=st.floats(0.0, 1.0), ties=st.booleans(),
           decades=st.floats(0.0, 300.0), shift=st.sampled_from([0.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_tiled_scan(self, size, extra, reach, ties, decades,
                                    shift, seed):
        # G just above one tile, spans from 0.1 to the node rule's limit
        # 2 r <= G, where B falls below ceil(sqrt(G)), ratios over up to 300
        # decades, and data at 0 or shifted by 1e3
        n = mldeconv._TILE_BYTES // (8 * size) + extra
        limit = (size // 2 - mldeconv._NODE_FLOOR) / mldeconv._NODES_PER_UNIT
        rng = np.random.default_rng(seed)
        x = shift + rng.uniform(0.0, max(0.1, reach * limit), n)
        if ties:
            x[1::2] = x[::2][:n // 2]
        grid = np.linspace(x.min(), x.max(), size)
        ratio = 10.0 ** rng.uniform(0.0, decades, n)
        model = MlModel(x)
        assert model._node_step(grid) is not None
        kernel = GaussianFamily.kernel
        with mock.patch.object(GaussianFamily, "kernel", autospec=True,
                               side_effect=kernel) as spy:
            b = model._scan(grid, ratio)
        starts = grid[::_block_rows(model.x, grid)]
        assert all(np.array_equal(call.args[1].ravel(), starts)
                   for call in spy.call_args_list)
        exact = _tiled_scan(model.x, grid, ratio)
        assert np.array_equal(np.isfinite(b), np.isfinite(exact))
        tol = 1e-13 + 4.0 * np.spacing(np.abs(grid).max())
        assert np.abs(b - exact).max() <= tol * np.abs(exact).max()
        # the node model on the grid forms it bit for bit alike
        assert np.array_equal(MlModel(x, grid)._scan(grid, ratio), b)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(40, 600), extra=st.integers(1, 40),
           reach=st.floats(0.0, 1.0), ties=st.booleans(),
           decades=st.floats(0.0, 300.0), shift=st.sampled_from([0.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_squared_scan_matches_the_tiled_products(
            self, size, extra, reach, ties, decades, shift, seed):
        # the curvatures of a node model for weights the node sums refuse:
        # one exact scan of phi^2 over the grid and its midpoints, on the
        # draws of test_matches_the_tiled_scan
        n = mldeconv._TILE_BYTES // (8 * size) + extra
        limit = (size // 2 - mldeconv._NODE_FLOOR) / mldeconv._NODES_PER_UNIT
        rng = np.random.default_rng(seed)
        x = shift + rng.uniform(0.0, max(0.1, reach * limit), n)
        if ties:
            x[1::2] = x[::2][:n // 2]
        grid = np.linspace(x.min(), x.max(), size)
        d2 = 10.0 ** rng.uniform(0.0, decades, n)
        model = MlModel(x, grid)
        assert model.nodes is not None
        kernel = GaussianFamily.kernel
        with (mock.patch.object(mldeconv, "_NODE_COVER", 0.0),
              mock.patch.object(GaussianFamily, "kernel", autospec=True,
                                side_effect=kernel) as spy):
            c2, W = model.curvatures(d2)
        assert model.K is None and np.array_equal(W[0::2], c2)
        # the block-start rows of the grid and its midpoints
        points = np.empty(2 * size - 1)
        points[0::2], points[1::2] = grid, 0.5 * (grid[:-1] + grid[1:])
        starts = points[::_block_rows(model.x, points, square=True)]
        assert all(np.array_equal(call.args[1].ravel(), starts)
                   for call in spy.call_args_list)
        K = GaussianFamily().kernel(grid[:, None], model.x)
        tol = 1e-13 + 4.0 * np.spacing(np.abs(grid).max())
        for scan, exact in ((c2, np.square(K) @ d2 / n),
                            (W[1::2], (K[:-1] * K[1:]) @ d2 / n)):
            assert np.array_equal(np.isfinite(scan), np.isfinite(exact))
            assert np.abs(scan - exact).max() <= tol * np.abs(exact).max()

    @pytest.mark.parametrize("n", [2000, 40000])
    def test_one_row_per_block_and_chunk_is_evaluated(self, monkeypatch, n):
        # each column chunk evaluates the block-start rows grid[::B] once;
        # its buffers stay within a tile and its product within one BLAS
        # thread's share, so 40 000 observations take several chunks
        x, grid = _node_sample(n)
        model = MlModel(x)
        ratio = 1.0 / model.positive_mixture(starting_iterate(x, grid))
        B = _block_rows(model.x, grid)
        starts = grid[::B]
        calls = _kernel_spy(monkeypatch)
        b = model._scan(grid, ratio)
        assert all(np.array_equal(theta.ravel(), starts) for theta, _, _ in calls)
        widths = [shape[1] for _, shape, _ in calls]
        assert sum(widths) == n and (len(widths) >= 3 or n < 40000)
        assert 8 * (starts.size + B + 1) * max(widths) <= mldeconv._TILE_BYTES
        assert starts.size * B * max(widths) <= mldeconv._SERIAL_GEMM
        exact = _tiled_scan(model.x, grid, ratio)
        assert np.abs(b - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("case", ["gap", "wide", "non-uniform"])
    def test_other_grids_keep_the_tiled_scan(self, case):
        x = pipeline.simulate_sample("exp-normal-mixture", 2000, 1)
        if case == "gap":
            x = np.append(x, 40.0)
        elif case == "wide":
            x[:3] = 300.0, 600.0, 900.0
        grid = pipeline.build_grid(*pipeline.default_grid_spec("deconv-ml", x),
                                   GaussianFamily())
        if case == "non-uniform":
            grid[1] += 1e-3
        model = MlModel(x, grid)
        assert model._node_step(grid) is None and model.K is not None
        ratio = 1.0 / model.positive_mixture(starting_iterate(x, grid))
        tiled = _tiled_scan(model.x, grid, ratio)
        assert np.array_equal(model._scan(grid, ratio), tiled)
        assert np.array_equal(MlModel(x)._scan(grid, ratio), tiled)

    @pytest.mark.parametrize("case", ["node", "far-start", "stored-K"])
    def test_fit_certificate_is_the_grid_free_one(self, monkeypatch, case):
        x, grid = _node_sample()
        if case == "stored-K":
            # the CI gap sample: its span of 43 noise units needs r = 275
            # node rows, and 2 r exceeds its 500 grid points
            x = np.append(x, 40.0)
            grid = pipeline.build_grid(
                *pipeline.default_grid_spec("deconv-ml", x), GaussianFamily())
        elif case == "far-start":
            # one atom at the left end: the loop reads exact scans, no K
            monkeypatch.setattr(mldeconv, "starting_iterate",
                                lambda x, grid: MixingMeasure([grid[0]], [1.0]))
        built, models = [], []
        evaluate, init = MlModel._evaluate, MlModel.__init__

        def recording(self, theta, *args):
            built.append(theta.size)
            return evaluate(self, theta, *args)

        def keep(self, *args):
            init(self, *args)
            models.append(self)

        monkeypatch.setattr(MlModel, "_evaluate", recording)
        monkeypatch.setattr(MlModel, "__init__", keep)
        config = SolverConfig(grid=grid, eta=1e-8)
        result = pipeline.fit("deconv-ml", x, config)
        assert result.converged
        assert (grid.size in built) == (case == "stored-K")
        # a grid model holds K or node rows, never both, after any step
        assert all((m.K is None) == (m.nodes is not None)
                   for m in models if m.grid is not None)
        assert (MlModel(x)._node_step(grid) is None) == (case == "stored-K")
        assert result.certificate == check_optimality(
            MlModel(x), result.measure, grid, config.eta, config.support_tol)


class _Unread:
    """Stands in for ``K`` where nothing may read it."""

    def __getitem__(self, key):
        raise AssertionError("the solve read K")


class TestGramStore:
    """On grid atoms the quadratic model reads its store of Gram rows.

    The tests run with RuntimeWarnings as errors, so an overflow in the
    product identity's factors fails them.
    """

    @pytest.fixture(autouse=True)
    def _warnings_fail(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @staticmethod
    def _rows(x, grid, new):
        """Rows ``new`` of the model's store and of the pass over ``K``."""
        model = MlModel(x, grid)
        quad = QuadLocalModel(model, starting_iterate(x, grid))
        rows = quad._gram_block(grid[new], new, grid, slice(None))
        return model, rows, (model.K[new] * quad.d**2) @ model.K.T / x.size

    @pytest.mark.parametrize("size", [1, 2, 3, 40, "gap"])
    def test_identity_rows_match_the_k_pass(self, size):
        x, _ = TestSharedKernelMatrix()._problem()
        if size != "gap":
            grid = np.linspace(x[0], x[-1], size)
        else:
            # the CI gap sample: K stored on a uniform grid of many tiles,
            # since its 43 noise units need 2 r = 550 > 500 grid points
            x = np.append(pipeline.simulate_sample("exp-normal-mixture", 2000, 1), 40.0)
            grid = pipeline.build_grid(
                *pipeline.default_grid_spec("deconv-ml", x), GaussianFamily())
            size = grid.size
            assert size > mldeconv._tile_rows(x.size)
        for new in ([0], [size - 1], np.unique([0, size // 3, size // 2, size - 1])):
            new = np.asarray(new)
            model, rows, reference = self._rows(x, grid, new)
            assert model.step is not None and model.nodes is None
            assert_allclose(rows, reference, rtol=1e-12, atol=0.0)

    def test_other_grids_take_the_k_pass(self):
        x, grid = TestSharedKernelMatrix()._problem()
        # refinement's grids: atoms off the uniform grid, and one that
        # spans thousands of sigma at a coarse step, where the identity's
        # factors would overflow
        for other in (np.union1d(grid[::3], [0.123, 2.345]),
                      np.linspace(-3000.0, 3000.0, 61)):
            new = np.array([0, other.size // 2, other.size - 1])
            model, rows, reference = self._rows(x, other, new)
            assert model.step is None
            assert_allclose(rows, reference, rtol=1e-12, atol=0.0)

    def test_fit_is_the_same_without_the_identity(self, monkeypatch):
        x = pipeline.simulate_sample("exp-normal-mixture", 2000, 1)
        lo, hi, _ = pipeline.default_grid_spec("deconv-ml", x)
        config = SolverConfig(
            grid=pipeline.build_grid(lo, hi, 200, GaussianFamily()), eta=1e-8)
        assert MlModel(x, config.grid).step is not None
        fast = pipeline.fit("deconv-ml", x, config)
        monkeypatch.setattr(mldeconv, "_product_step", lambda grid, x: None)
        assert MlModel(x, config.grid).step is None
        slow = pipeline.fit("deconv-ml", x, config)
        assert fast.converged and slow.converged
        assert fast.trace.n_iterations == slow.trace.n_iterations
        assert fast.measure.size == slow.measure.size
        assert fast.certificate.passed == slow.certificate.passed
        assert_allclose(fast.model.objective(fast.measure),
                        slow.model.objective(slow.measure), rtol=1e-12)

    def test_rows_formed_once_and_no_sample_read_in_a_solve(self, monkeypatch):
        x, grid = TestSharedKernelMatrix()._problem()
        model = MlModel(x, grid)
        quad = QuadLocalModel(model, MixingMeasure(grid[[10, 25]], [0.5, 0.5]))
        # on the uniform grid the rows come from the product identity
        assert model.step is not None
        monkeypatch.setattr(model, "K", _Unread())
        formed = []
        original = MlModel.gram_rows

        def recording(self, new, d2, W):
            formed.extend(new.tolist())
            return original(self, new, d2, W)

        def forbidden(self, *args):
            raise AssertionError("the solve read n-sized data")

        monkeypatch.setattr(MlModel, "gram_rows", recording)
        monkeypatch.setattr(MlModel, "mixture", forbidden)
        monkeypatch.setattr(MlModel, "kernels", forbidden)
        f, trace = core.solve(quad, SolverConfig(grid=grid, eta=1e-10))
        assert trace.converged and trace.n_iterations >= 2
        assert len(formed) == len(set(formed))
        assert set(f.locations) <= set(grid[formed])
        assert quad._gram.shape == (len(formed), grid.size)

    def test_large_grid_fit_matches_the_sample_path_in_little_memory(
            self, monkeypatch):
        # a grid ten times the sample: a dense G x G store would be 72 MB
        x = pipeline.simulate_sample("exp-normal-mixture", 300, 1)
        lo, hi, _ = pipeline.default_grid_spec("deconv-ml", x)
        size = 3000
        config = SolverConfig(
            grid=pipeline.build_grid(lo, hi, size, GaussianFamily()), eta=1e-8)
        tracemalloc.start()
        try:
            result = pipeline.fit("deconv-ml", x, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < size * size * 8 / 4
        # the same fit with only the whole grid found on it: every atom's
        # kernels are evaluated and every sum runs over the sample
        original = MlModel.grid_index

        def whole_grid_only(self, theta):
            idx = original(self, theta)
            return idx if isinstance(idx, slice) else None

        monkeypatch.setattr(MlModel, "grid_index", whole_grid_only)
        reference = pipeline.fit("deconv-ml", x, config)
        assert reference.converged
        assert_allclose(result.model.objective(result.measure),
                        reference.model.objective(reference.measure),
                        rtol=1e-12)


class TestGridStageStall:
    """A damped update that finds no step ends the grid stage like the cap
    does: the current iterate comes back uncertified, not an exception."""

    @pytest.fixture
    def stalled(self, monkeypatch):
        def stall(model, current, candidate, current_value):
            return current, current_value, 0.0, True

        monkeypatch.setattr(mldeconv, "_damped_update", stall)
        x = np.random.default_rng(47).normal(size=60) + 1.0
        return x, SolverConfig(grid=np.linspace(x.min(), x.max(), 25),
                               eta=1e-8, gridless_enabled=True)

    def test_newton_solve_returns_its_start(self, stalled):
        x, config = stalled
        start = starting_iterate(x, config.grid)
        f, trace = newton_solve(x, config)
        assert np.array_equal(f.locations, start.locations)
        assert np.array_equal(f.weights, start.weights)
        assert not trace.converged
        # the step-0 tie is recorded, then its certificate fails
        assert trace.n_iterations == 1
        assert trace.step_size[1] == 0.0
        fresh = check_optimality(MlModel(x), start, config.grid, config.eta,
                                 config.support_tol)
        assert not fresh.passed

    def test_fit_returns_without_refinement(self, stalled):
        x, config = stalled
        result = pipeline.fit("deconv-ml", x, config)
        assert not result.converged
        assert not result.certificate.passed
        assert result.fine_tune_trace is None

    def test_cli_writes_its_files_and_exits_1(self, stalled, tmp_path):
        x, _ = stalled
        sample = tmp_path / "s.txt"
        pipeline.write_sample(sample, x)
        out = tmp_path / "out"
        res = CliRunner().invoke(main, ["fit", "deconv-ml", str(sample),
                                        "--out-dir", str(out)],
                                 env={"MIXFIT_LOG": "off"})
        assert res.exit_code == 1, res.output
        assert "Traceback" not in res.output
        assert isinstance(res.exception, SystemExit)
        grid = pipeline.build_grid(*pipeline.default_grid_spec("deconv-ml", x),
                                   GaussianFamily())
        assert (pipeline.read_measure(out / "measure.csv").size
                == starting_iterate(x, grid).size)
        assert "converged: false" in (out / "report.txt").read_text()


class _RiggedObjective:
    """Objective scripted per trial, with a scripted ``segment_step``.

    The first trial is the full step, the second, if any, the step to
    ``exact``; the trials are kept in ``trials``.
    """

    def __init__(self, values, exact=1.0):
        self.values = values
        self.exact = exact
        self.trials = []

    def objective(self, measure):
        self.trials.append(measure)
        return self.values[len(self.trials) - 1]

    def segment_step(self, current, candidate):
        return self.exact


class TestDampedUpdate:
    CURRENT = MixingMeasure([0.0], [1.0])
    CANDIDATE = MixingMeasure([1.0], [1.0])

    def test_full_step_when_it_decreases(self):
        model = _RiggedObjective([4.0])
        trial, value, lam, tied = _damped_update(
            model, self.CURRENT, self.CANDIDATE, 5.0)
        assert lam == 1.0 and not tied
        assert value == 4.0

    def test_vanishing_candidate_takes_the_interior_step(self):
        # The candidate's kernel underflows at x = 50, so the full step's
        # objective is infinite.  Along the segment the likelihood is
        # -(log(0.2 + 0.8 lam) + log(0.2 (1 - lam))) / 2 + 0.4 + 0.6 lam
        # plus a constant, minimal at lam = 1/6.
        model = MlModel([0.0, 50.0])
        current = MixingMeasure([0.0, 50.0], [0.2, 0.2])
        candidate = MixingMeasure([0.0], [1.0])
        current_value = model.objective(current)
        assert model.objective(candidate) == np.inf
        trial, value, lam, tied = _damped_update(model, current, candidate,
                                                 current_value)
        assert 0.0 < lam < 1.0 and not tied
        assert_allclose(lam, 1.0 / 6.0, rtol=1e-10)
        assert np.isfinite(value) and value < current_value
        assert value == model.objective(MixingMeasure(trial.locations,
                                                      trial.weights))

    def test_tie_accepted_when_flat(self):
        model = _RiggedObjective([5.0])
        trial, value, lam, tied = _damped_update(
            model, self.CURRENT, self.CANDIDATE, 5.0)
        assert tied and lam == 1.0 and value == 5.0

    def test_one_ulp_decrease_is_a_tie(self):
        model = _RiggedObjective([np.nextafter(5.0, 0.0)])
        trial, value, lam, tied = _damped_update(
            model, self.CURRENT, self.CANDIDATE, 5.0)
        assert tied and lam == 1.0 and value < 5.0

    def test_stall_when_objective_always_worse(self):
        model = _RiggedObjective([6.0, 5.001], exact=0.5)
        trial, value, lam, tied = _damped_update(
            model, self.CURRENT, self.CANDIDATE, 5.0)
        assert len(model.trials) == 2
        assert trial is self.CURRENT
        assert (value, lam, tied) == (5.0, 0.0, True)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), current_value=st.sampled_from(
        [5.0, 2.730203582645328, -0.75, 1e-300, 0.0, 3e5]),
           exact=st.sampled_from([1.0, 0.5, 0.3, 1e-13]))
    def test_largest_step_within_four_ulp(self, data, current_value, exact):
        # the full step scores ``full`` and the step to ``exact`` scores
        # ``inner``, drawn near ``current_value`` or near ``full``
        ulp = np.spacing(abs(current_value))
        tol = 4.0 * ulp

        def near(value):
            return st.one_of(
                st.sampled_from([np.inf, np.nan]),
                st.integers(-12, 12).map(
                    lambda j: value + j * np.spacing(abs(value))),
                st.floats(1e-6, 10.0).map(lambda d: value - d))

        full = data.draw(near(current_value))
        inner = data.draw(near(full) if np.isfinite(full)
                          else near(current_value))
        model = _RiggedObjective([full, inner], exact)
        trial, value, lam, tied = _damped_update(
            model, self.CURRENT, self.CANDIDATE, current_value)
        steps = [1.0] if exact == 1.0 else [1.0, exact]
        assert len(model.trials) == len(steps)
        # the candidate atom sits at 1.0 with the step as its weight, and
        # leaves every trial once that weight is below the purge threshold
        for step, t in zip(steps, model.trials):
            expect = [step] if step >= core.PURGE_THRESHOLD else []
            assert_allclose(t.weights[t.locations == 1.0], expect)
        # the interior step wins only more than 4 ulp below the full
        # step's finite objective, or below a full step that is not finite
        floor = (full - 4.0 * np.spacing(abs(full)) if np.isfinite(full)
                 else np.inf)
        k = 1 if exact < 1.0 and inner < floor else 0
        score = [full, inner][k]
        if not score <= current_value + tol:
            assert trial is self.CURRENT
            assert (value, lam, tied) == (current_value, 0.0, True)
            return
        assert lam == steps[k]
        assert value == score
        assert tied == (not value < current_value - tol)
        assert trial is model.trials[k]

    def test_full_step_drops_atoms_below_the_purge_threshold(self):
        model = MlModel([-1.0, 0.0, 0.5, 2.0])
        current = MixingMeasure([5.0], [1.0])
        candidate = MixingMeasure([0.0, 3.0], [1.0, 5e-13])
        trial, value, lam, tied = _damped_update(
            model, current, candidate, model.objective(current))
        assert lam == 1.0 and not tied
        assert trial.locations.tolist() == [0.0]
        assert trial.weights.tolist() == [1.0]
        # a fresh measure, so the value is not read from the model's cache
        assert value == model.objective(MixingMeasure([0.0], [1.0]))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
           digits=st.integers(0, 2))
    def test_exact_step_minimizes_along_the_segment(self, seed, n, digits):
        # tied or distinct data; the candidate is the quadratic model's
        # minimizer around a drawn iterate, as in the Newton loop, and a
        # descent direction of the likelihood
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(0.3, 4.0) * rng.normal(size=n), digits)
        grid = np.linspace(x.min() - 1.0, x.max() + 1.0, 20)
        atoms = int(rng.integers(1, 5))
        current = MixingMeasure.from_atoms(rng.choice(grid, atoms),
                                           rng.uniform(0.05, 1.0, atoms))
        candidate, _ = core.solve(QuadLocalModel(x, current, grid),
                                  SolverConfig(grid=grid, eta=1e-10))
        fx = mixture_eval(GaussianFamily(), current, x)
        r = mixture_eval(GaussianFamily(), candidate, x) - fx
        assume(candidate.total_mass() - current.total_mass()
               - (r / fx).mean() < 0.0)
        model = MlModel(x)
        current_value = model.objective(current)
        trial, value, lam, tied = _damped_update(model, current, candidate,
                                                 current_value)
        halvings = [model.objective(mldeconv._blend(current, candidate, 2.0**-k))
                    for k in range(mldeconv._MAX_HALVINGS)]
        assert value <= min(halvings) + 4.0 * np.spacing(abs(current_value))
        assert value == model.objective(trial)

        full = mldeconv._blend(current, candidate, 1.0)
        exact = model.segment_step(current, full)
        assert lam in (1.0, exact)
        r = mixture_eval(GaussianFamily(), full, x) - fx
        q = r / (fx + exact * r)
        slope = full.total_mass() - current.total_mass() - q.mean()
        roundoff = 1e-13 * (np.abs(q).mean() + full.total_mass()
                            + current.total_mass())
        if exact == 1.0:
            assert slope <= roundoff
        else:
            assert 0.0 < exact < 1.0
            assert abs(slope) <= roundoff + 4e-12 * (q * q).mean()

    def test_overshooting_full_step_gives_way_to_the_exact_step(self):
        # The covering start's first quadratic minimizer overshoots: the
        # objective still falls at the end of the segment, so the step is
        # its interior minimizer; every later step is a full step, and the
        # fit certifies in 7 Newton steps where halving took 9.
        x = pipeline.simulate_sample("exp-normal-mixture", 5_000, 3)
        grid = np.linspace(x.min(), x.max(), 500)
        f, trace = newton_solve(x, SolverConfig(grid=grid, eta=1e-8))
        assert trace.converged
        assert trace.n_iterations == 7
        assert 0.8 < trace.step_size[1] < 0.85
        assert trace.step_size[2:] == [1.0] * 6
