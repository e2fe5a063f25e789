"""Least-squares model over triangular mixtures.

Closed forms (empirical integrals, cross moments, normal equations) are
checked against quadrature and brute-force oracles, plus hand-pinned
values on tiny samples.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from mixfit.core import SolverConfig, check_optimality, solve
from mixfit.families import (
    GaussianFamily,
    MixingMeasure,
    SignedMixingMeasure,
    TriangularFamily,
    combine,
    mixture_cdf,
    mixture_eval,
)
from mixfit.lsconvex import LsModel

TRI = TriangularFamily()


def _quad_inner(a, b):
    hi = max(a, b)
    val, _ = integrate.quad(
        lambda x: TRI.kernel(a, x) * TRI.kernel(b, x), 0.0, hi, limit=200)
    return val


class TestEmpiricalIntegral:
    # Y_n(t) = (1/n) sum (t - x_i)+, the integrated empirical cdf
    def test_pinned(self):
        m = LsModel(np.array([1.0]))
        assert m.Y_n(2.0) == 1.0
        assert m.Y_n(0.5) == 0.0
        assert m.Y_n(1.0) == 0.0

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(7)
        x = rng.exponential(size=37)
        m = LsModel(x)
        for t in rng.uniform(0.0, 2.0 * x.max(), 50):
            naive = np.mean(np.clip(t - x, 0.0, None))
            assert_allclose(m.Y_n(float(t)), naive, rtol=1e-13, atol=1e-15)

    def test_vectorized(self):
        m = LsModel(np.array([0.5, 1.5]))
        t = np.array([0.0, 1.0, 2.0])
        assert_allclose(m.Y_n(t), [0.0, 0.25, 1.0])


class TestCrossMoment:
    # H(theta; f) integrates the mixture cdf from 0 to theta
    def test_pinned(self):
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([1.0], [1.0])
        assert_allclose(m.H(1.0, f), 2.0 / 3.0, rtol=1e-15)
        assert_allclose(m.H(2.0, f), 5.0 / 3.0, rtol=1e-15)
        assert m.H(0.0, f) == 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(19)
        m = LsModel(np.array([1.0]))
        f = SignedMixingMeasure([0.7, 1.9, 3.2], [0.4, -0.2, 0.6])
        for theta in rng.uniform(0.05, 4.0, 12):
            oracle, _ = integrate.quad(
                lambda t: mixture_cdf(TRI, f, t), 0.0, float(theta), limit=200)
            assert_allclose(m.H(float(theta), f), oracle, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(atoms=st.lists(st.tuples(
               st.floats(0.01, 10.0),
               # weights far from underflow, where no formula is exact
               st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-100)),
                          min_size=1, max_size=12, unique_by=lambda a: a[0]),
           outside=st.lists(st.floats(1e-3, 20.0), max_size=8))
    def test_prefix_sums_match_atomwise_formula(self, atoms, outside):
        # The atom-by-atom branch formula H was computed with before the
        # prefix sums, kept as the reference: on the atoms themselves, at
        # points between them and beyond both ends of the support.
        f = SignedMixingMeasure.from_atoms(*zip(*atoms))
        tau, c = f.locations, f.weights
        theta = np.concatenate((tau, 0.5 * tau, 2.0 * tau[-1:], [0.0],
                                np.asarray(outside)))
        t = theta[:, None]
        terms = np.where(t <= tau, t * t / tau - t**3 / (3.0 * tau * tau),
                         t - tau / 3.0)
        reference = terms @ c
        scale = np.abs(terms) @ np.abs(c)
        H = LsModel(np.array([1.0])).H(theta, f)
        assert np.all(np.abs(H - reference) <= 1e-13 * scale)

    def test_linearity_in_measure(self):
        m = LsModel(np.array([1.0]))
        a = MixingMeasure([0.5], [1.0])
        b = MixingMeasure([2.0], [1.0])
        c = combine(a, 0.3, b, -0.7)
        assert_allclose(m.H(1.7, c),
                        0.3 * m.H(1.7, a) - 0.7 * m.H(1.7, b), rtol=1e-14)


class TestInnerProduct:
    def test_pinned(self):
        m = LsModel(np.array([1.0]))
        assert_allclose(m.inner_product(1.0, 1.0), 4.0 / 3.0, rtol=1e-15)
        assert_allclose(m.inner_product(1.0, 2.0), 5.0 / 6.0, rtol=1e-15)

    def test_symmetry(self):
        m = LsModel(np.array([1.0]))
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.uniform(0.1, 5.0, 2)
            assert m.inner_product(float(a), float(b)) == \
                m.inner_product(float(b), float(a))

    def test_matches_quadrature(self):
        m = LsModel(np.array([1.0]))
        rng = np.random.default_rng(23)
        for _ in range(15):
            a, b = rng.uniform(0.1, 5.0, 2)
            assert_allclose(m.inner_product(float(a), float(b)),
                            _quad_inner(float(a), float(b)), rtol=1e-9)

    def test_small_scale_limit(self):
        # a spike at 0+ integrates the other kernel's value at 0: 2/b
        m = LsModel(np.array([1.0]))
        assert_allclose(m.inner_product(1e-9, 2.0), 1.0, rtol=1e-8)

    def test_rejects_nonpositive(self):
        m = LsModel(np.array([1.0]))
        with pytest.raises(ValueError):
            m.inner_product(0.0, 1.0)
        with pytest.raises(ValueError):
            m.inner_product(1.0, -2.0)


class TestObjective:
    def test_pinned(self):
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([2.0], [0.75])
        assert_allclose(m.objective(f), -0.1875, rtol=1e-15)
        assert m.objective(SignedMixingMeasure.empty()) == 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(31)
        x = rng.exponential(size=11)
        m = LsModel(x)
        f = SignedMixingMeasure([0.4, 1.1, 2.6], [0.5, -0.1, 0.55])
        sq, _ = integrate.quad(lambda t: mixture_eval(TRI, f, t) ** 2,
                               0.0, 2.6, limit=300)
        oracle = 0.5 * sq - float(np.mean(mixture_eval(TRI, f, x)))
        assert_allclose(m.objective(f), oracle, atol=1e-9)

    def test_on_any_grid_is_the_model(self):
        # its scans are closed forms, so every stage of a fit reads it
        m = LsModel(np.array([0.2, 0.7, 1.5]))
        assert m.on(np.linspace(0.1, 3.0, 7)) is m


class TestDirectionalDerivative:
    def test_pinned_empty(self):
        m = LsModel(np.array([1.0]))
        f = SignedMixingMeasure.empty()
        assert_allclose(m.dir_deriv_vertex(2.0, f), -0.5, rtol=1e-15)
        # normalized form divides by the kernel's norm scale sqrt(4/(3 theta))
        assert_allclose(m.alt_dir_deriv_vertex(2.0, f),
                        -0.5 * np.sqrt(1.5), rtol=1e-14)

    def test_matches_epsilon_limit(self):
        # D(theta; f) = lim (phi(f + eps f_theta) - phi(f)) / eps; the
        # objective is quadratic so D = (phi(f + e d) - phi(f - e d)) / 2e
        rng = np.random.default_rng(41)
        x = rng.exponential(size=9)
        m = LsModel(x)
        f = SignedMixingMeasure([0.8, 2.1], [0.6, 0.3])
        e = 1e-6
        for theta in (0.5, 1.3, 3.0):
            up = combine(f, 1.0, SignedMixingMeasure([theta], [1.0]), e)
            dn = combine(f, 1.0, SignedMixingMeasure([theta], [1.0]), -e)
            fd = (m.objective(up) - m.objective(dn)) / (2 * e)
            assert_allclose(m.dir_deriv_vertex(theta, f), fd, rtol=1e-7)

    def test_alt_same_sign(self):
        rng = np.random.default_rng(43)
        x = rng.exponential(size=25)
        m = LsModel(x)
        f = MixingMeasure([1.0], [0.9])
        for theta in rng.uniform(0.05, 3.0, 40):
            raw = m.dir_deriv_vertex(float(theta), f)
            alt = m.alt_dir_deriv_vertex(float(theta), f)
            assert np.sign(raw) == np.sign(alt) or abs(raw) < 1e-12

    def test_vectorized(self):
        m = LsModel(np.array([1.0]))
        f = SignedMixingMeasure.empty()
        out = m.dir_deriv_vertex(np.array([2.0, 4.0]), f)
        assert_allclose(out, [-0.5, -0.375], rtol=1e-14)


class TestUnrestrictedMin:
    def test_single_knot_closed_form(self):
        # argmin over the ray {sigma f_theta} is 3 Y_n(theta) / (2 theta)
        rng = np.random.default_rng(53)
        x = rng.exponential(size=21)
        m = LsModel(x)
        for theta in rng.uniform(0.3, 3.0, 10):
            f = m.unrestricted_min(np.array([float(theta)]))
            sigma = 1.5 * m.Y_n(float(theta)) / float(theta)
            assert_allclose(f.weights[0], sigma, rtol=1e-12)

    def test_two_knot_matches_dense_solve(self):
        rng = np.random.default_rng(59)
        x = rng.exponential(size=21)
        m = LsModel(x)
        sup = np.array([0.7, 2.3])
        f = m.unrestricted_min(sup)
        G = np.array([[m.inner_product(a, b) for b in sup] for a in sup])
        b = np.array([2.0 * m.Y_n(t) / t**2 for t in sup])
        assert_allclose(f.weights, np.linalg.solve(G, b), rtol=1e-10)

    def test_stationarity(self):
        rng = np.random.default_rng(61)
        x = rng.exponential(size=40)
        m = LsModel(x)
        sup = np.array([0.5, 1.4, 2.8, 3.9])
        f = m.unrestricted_min(sup)
        for t in sup:
            assert abs(m.dir_deriv_vertex(float(t), f)) < 1e-9

    def test_fit_interpolates_empirical_integral(self):
        # stationarity at knot t is exactly H(t; f) = Y_n(t)
        rng = np.random.default_rng(67)
        x = rng.exponential(size=40)
        m = LsModel(x)
        sup = np.array([0.5, 1.4, 2.8, 3.9])
        f = m.unrestricted_min(sup)
        for t in sup:
            assert_allclose(m.H(float(t), f), m.Y_n(float(t)), atol=1e-9)

    def test_singular_gram_raises(self):
        class Degenerate(LsModel):
            def _gram(self, support):
                n = len(support)
                return np.ones((n, n))

        m = Degenerate(np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="merge"):
            m.unrestricted_min(np.array([1.0, 2.0]))


class TestExactQuadraticExpansion:
    def test_mini(self):
        # phi(f + eps (g - f)) expands exactly to second order
        rng = np.random.default_rng(71)
        x = rng.exponential(size=15)
        m = LsModel(x)
        f = MixingMeasure([0.9, 2.2], [0.5, 0.4])
        g = MixingMeasure([1.5], [1.1])
        diff = combine(g, 1.0, f, -1.0)
        slope = sum(w * m.dir_deriv_vertex(float(t), f)
                    for t, w in zip(diff.locations, diff.weights))
        curv = m.segment_curvature(diff)
        for eps in (0.125, 0.5, 0.9):
            blend = combine(f, 1.0, diff, eps)
            lhs = m.objective(blend)
            rhs = m.objective(f) + eps * slope + 0.5 * eps**2 * curv
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestLocationGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        x = rng.exponential(size=30)
        m = LsModel(x)
        f = MixingMeasure([0.8, 1.9, 3.1], [0.4, 0.3, 0.2])
        grad = m.location_gradient(f)
        h = 1e-6
        for i in range(3):
            loc_up = f.locations.copy(); loc_up[i] += h
            loc_dn = f.locations.copy(); loc_dn[i] -= h
            up = m.objective(MixingMeasure(loc_up, f.weights))
            dn = m.objective(MixingMeasure(loc_dn, f.weights))
            assert_allclose(grad[i], (up - dn) / (2 * h), rtol=1e-4)

    def test_newton_system_is_that_of_the_reduced_objective(self):
        # psi(theta) = phi at the exact weights of the support theta.  At
        # those weights the joint weight gradient vanishes, the location
        # gradient is psi's and the Schur complement of the weight block
        # is psi's Hessian: differences with no data point between probes.
        rng = np.random.default_rng(73)
        m = LsModel(rng.exponential(size=30))
        theta = np.array([0.5, 2.6])

        def psi(t):
            return m.objective(m.unrestricted_min(t))

        f = m.unrestricted_min(theta)
        assert np.all(f.weights > 0)  # construction guard
        grad, hess = m.newton_system(MixingMeasure(theta, f.weights))
        assert hess.shape == (4, 4)
        h = 1e-4
        assert np.all(np.abs(m.x[:, None] - theta) > 2 * h)
        eye = np.eye(2) * h
        assert_allclose(grad[2:], 0.0, atol=1e-14)
        assert_allclose(grad[:2], [(psi(theta + a) - psi(theta - a)) / (2 * h)
                                   for a in eye], rtol=1e-5)
        h_tw = hess[:2, 2:]
        reduced = hess[:2, :2] - h_tw @ np.linalg.solve(hess[2:, 2:], h_tw.T)
        fd = np.array([[(psi(theta + a + b) - psi(theta + a - b)
                         - psi(theta - a + b) + psi(theta - a - b)) / (4 * h * h)
                        for b in eye] for a in eye])
        assert_allclose(reduced, fd, rtol=1e-4, atol=1e-4 * np.abs(fd).max())


class TestLsNewtonSystem:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4))
    @example(seed=61820, p=1)
    def test_matches_central_differences(self, seed, p):
        # The joint gradient against central differences of the
        # objective, the Hessian against central differences of the
        # gradient, in the locations and then the weights; the location
        # part also against its mixture-cdf form.
        rng = np.random.default_rng(seed)
        m = LsModel(rng.exponential(size=30))
        theta = np.sort(rng.uniform(0.1, 4.0, p)) + 0.05 * np.arange(p)
        z = np.concatenate((theta, rng.uniform(0.1, 1.0, p)))
        h = 1e-6
        # The gradient jumps where an atom crosses an observation.
        assume(np.abs(m.x[:, None] - theta).min() > 2 * h)

        def at(v):
            return MixingMeasure(v[:p], v[p:])

        grad, hess = m.newton_system(at(z))
        assert grad.shape == (2 * p,) and hess.shape == (2 * p, 2 * p)
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
        # w_j d/dtheta D_phi(f_theta; f) at theta_j: (2/theta^2) F_f
        # - (4/theta^3) H(theta; f) minus the empirical sum of kernel
        # parameter derivatives (1/n) sum (4 x_i - 2 theta)/theta^3.
        f = at(z)
        below = m.x < theta[:, None]
        empirical = ((4.0 * m.x - 2.0 * theta[:, None]) * below).sum(axis=1)
        terms = np.array([2.0 / theta**2 * mixture_cdf(TRI, f, theta),
                          4.0 / theta**3 * m.H(theta, f),
                          empirical / (m.n * theta**3)])
        reference = f.weights * (terms[0] - terms[1] - terms[2])
        # The terms cancel, so the two forms agree to the roundoff of the
        # terms, not of their difference.
        assert_allclose(grad[:p], reference, rtol=1e-12,
                        atol=1e-12 * np.abs(f.weights * terms).max())
        assert_allclose(m.location_gradient(f), grad[:p], rtol=0, atol=0)


@st.composite
def _sample_and_grid(draw):
    """Positive samples with ties and grids inside (0, 3.6 x_(n)); some
    grids end below x_(n), some lie wholly below x_(1)."""
    pool = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30))
    x = np.array(draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=30)))
    top = draw(st.sampled_from([1.2 * 3.0 * x.max(), x.max(), x.min()]))
    u = draw(st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1,
                      max_size=60))
    return x, np.unique(np.array(u) * top)


class TestStartingPoint:
    def test_default_start_is_empty(self):
        # solve starts from the empty measure unless given a start
        m = LsModel(np.array([1.0]))
        _, trace = solve(m, SolverConfig(grid=np.array([3.0]), eta=1e-10))
        assert trace.support_size[0] == 0
        assert trace.objective[0] == m.objective(MixingMeasure.empty())

    def test_grid_below_sample_maximum_certifies(self):
        # 3 mean = 9.75 < max x = 10 and no grid point lies past 10
        x = np.array([1.0, 1.0, 1.0, 10.0])
        m = LsModel(x)
        grid = np.array([5.0, 9.0])
        f, trace = solve(m, SolverConfig(grid=grid, eta=1e-10))
        assert trace.converged
        assert check_optimality(m, f, grid, 1e-10, 1e-8).passed

    @settings(max_examples=200, deadline=None)
    @given(problem=_sample_and_grid())
    # one ulp above min x: Y_n is 3.5e-18, the best single kernel gains
    # 1.1e-31 and the scan reads -4.7e-16 >= -eta, so solve stays empty
    @example(problem=(np.array([0.1277553757769694, 0.054687556039010196]),
                      np.array([0.0546875560390102])))
    def test_empty_start_certifies_on_any_grid(self, problem):
        x, grid = problem
        eta = 1e-10
        m = LsModel(x)
        f, trace = solve(m, SolverConfig(grid=grid, eta=eta))
        assert trace.converged
        assert check_optimality(m, f, grid, eta, 1e-8).passed
        # the first scan inserts the best single kernel on the grid, whose
        # objective is -1.5 Y_n(theta)^2 / theta^3 at the ray's optimal
        # weight.  Along the ray the gain is alt^2 / 2, so a scan that
        # passes at eta leaves at most eta^2 / 2 of it.
        one_atom = min(0.0, float((-1.5 * m.Y_n(grid) ** 2 / grid**3).min()))
        assert m.objective(f) <= one_atom + 1e-12 * abs(one_atom) + 0.5 * eta**2


class TestModelValidation:
    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            LsModel(np.array([0.5, -0.1]))

    def test_zero_observation_rejected(self):
        # phi is unbounded below: an atom of weight 3 m / (2 n) at theta
        # below the positive data, m of them at 0, scores
        # -1.5 m^2 / (n^2 theta).
        with pytest.raises(ValueError, match="unbounded below"):
            LsModel(np.array([0.0, 0.4, 1.3, 2.2]))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            LsModel(np.array([]))

    def test_domain(self):
        m = LsModel(np.array([1.0, 2.0]))
        assert m.domain == (1.0, 6.0)


_EMPTY = MixingMeasure.empty()


@pytest.mark.parametrize("call, expect", [
    (lambda m: m.H(1.5, _EMPTY), 0.0),
    (lambda m: m.H(np.array([0.5, 3.0]), _EMPTY), np.zeros(2)),
    (lambda m: m.objective(_EMPTY), 0.0),
    (lambda m: m.objective(SignedMixingMeasure.empty()), 0.0),
    (lambda m: m.segment_curvature(SignedMixingMeasure.empty()), 0.0),
    (lambda m: m.location_gradient(_EMPTY), np.zeros(0)),
    (lambda m: mixture_eval(TRI, _EMPTY, 1.5), 0.0),
    (lambda m: mixture_eval(GaussianFamily(), _EMPTY, np.array([-1.0, 2.0])),
     np.zeros(2)),
    (lambda m: mixture_cdf(TRI, _EMPTY, np.ones((2, 3))), np.zeros((2, 3))),
], ids=["H-scalar", "H-array", "objective", "objective-signed",
        "segment-curvature", "location-gradient", "mixture-scalar",
        "mixture-array", "cdf-array"])
def test_empty_measure_takes_the_general_path(call, expect):
    """Empty measures run the same code as others: scalars give the float
    0.0, arrays zeros of their shape, the location gradient no entries."""
    out = call(LsModel(np.array([0.5, 1.0, 2.0])))
    assert type(out) is type(expect)
    assert np.shape(out) == np.shape(expect) and np.array_equal(out, expect)
    assert not np.signbit(out).any()
