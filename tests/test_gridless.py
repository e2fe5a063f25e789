"""Off-grid refinement: the Newton step, its step limit and
backtracking line search, and the polish loop.

Scripted models make the line search behavior exactly predictable; the
end-to-end paths run on both cone models.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixfit import gridless, pipeline
from mixfit.core import SolverConfig, _reduce_to_cone, solve
from mixfit.families import MixingMeasure
from mixfit.gridless import (
    _merge_close,
    _newton_step,
    _step_limit,
    fine_tune,
    line_search,
    tau_gradient,
)
from mixfit.lsconvex import LsModel
from mixfit.mldeconv import MlModel, newton_solve


class _Scripted:
    """Objective of the locations alone, weights held: its joint system has
    a zero weight gradient and an identity weight block, so no step moves
    a weight, and its weight polish changes nothing."""

    domain = (-10.0, 10.0)

    def newton_system(self, measure):
        p = measure.size
        hess = np.eye(2 * p)
        hess[:p, :p] = self.location_hessian(measure)
        return np.concatenate((self.location_gradient(measure),
                               np.zeros(p))), hess

    def minimize_over_support(self, measure, config):
        return measure, 0, []


class _OneAtomQuadratic(_Scripted):
    """phi depends only on the single atom location: (loc - v)^2."""

    def __init__(self, v):
        self.v = v

    def objective(self, measure):
        return float((measure.locations[0] - self.v) ** 2)

    def location_gradient(self, measure):
        return np.array([2.0 * (measure.locations[0] - self.v)])

    def location_hessian(self, measure):
        return np.array([[2.0]])


class _FlatDeceiver(_Scripted):
    """Claims descent but the objective never moves."""

    def objective(self, measure):
        return 0.0

    def location_gradient(self, measure):
        return np.array([-1.0])

    def location_hessian(self, measure):
        return np.array([[1.0]])


def _search(model, f, step=None):
    """``line_search`` along the Newton step at ``f``, with the objective
    that ``fine_tune`` hands it."""
    if step is None:
        step = _newton_step(*model.newton_system(f))
    return line_search(model, f, model.objective(f), step)


class _Recorder:
    """Forwards to a cone model and records the (locations, weights) that
    ``objective`` and ``newton_system`` see, and the results of
    ``minimize_over_support``."""

    def __init__(self, model):
        self._model = model
        self.domain = model.domain
        self.seen = {"objective": [], "newton_system": []}
        self.outputs = []

    @staticmethod
    def _key(measure):
        return measure.locations.tobytes(), measure.weights.tobytes()

    def objective(self, measure):
        self.seen["objective"].append(self._key(measure))
        return self._model.objective(measure)

    def newton_system(self, measure):
        self.seen["newton_system"].append(self._key(measure))
        return self._model.newton_system(measure)

    def minimize_over_support(self, measure, config):
        reduced = self._model.minimize_over_support(measure, config)
        self.outputs.append(reduced[0])
        return reduced


class _CoalescingPull(_Scripted):
    """``sum_i w_i (loc_i - v)^2`` at fixed weights, whose objective fails
    on atoms closer than ``gap``, as a rank-deficient solve does, and
    records every measure it receives."""

    def __init__(self, v, gap):
        self.v, self.gap = v, gap
        self.inputs, self.failed = [], []

    def objective(self, measure):
        self.inputs.append(measure)
        if np.any(np.diff(measure.locations) < self.gap):
            self.failed.append(measure)
            raise ValueError("singular normal equations")
        return float(measure.weights @ (measure.locations - self.v) ** 2)

    def location_gradient(self, measure):
        return 2.0 * measure.weights * (measure.locations - self.v)

    def location_hessian(self, measure):
        return np.diag(2.0 * measure.weights)


class TestNewtonStep:
    def test_positive_definite_is_plain_newton(self):
        hess = np.array([[4.0, 1.0], [1.0, 3.0]])
        grad = np.array([1.0, -2.0])
        assert_allclose(_newton_step(grad, hess), -np.linalg.solve(hess, grad),
                        rtol=1e-14)

    def test_negative_curvature_is_turned_around(self):
        # With eigenvalues 2 and -1 the step uses 2 and 1: still descent.
        hess = np.diag([2.0, -1.0])
        grad = np.array([2.0, 3.0])
        step = _newton_step(grad, hess)
        assert_allclose(step, [-1.0, -3.0])
        assert step @ grad < 0.0

    def test_singular_direction_is_floored(self):
        step = _newton_step(np.array([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert np.all(np.isfinite(step))
        assert step @ np.array([1.0, 1.0]) < 0.0


class TestStepLimit:
    def test_gap_bound(self):
        # Atoms 2 apart closing at speed 2 may close half the gap.
        f = MixingMeasure([1.0, 3.0], [0.5, 0.5])
        assert _step_limit(f, np.array([1.0, -1.0])) == 0.5

    def test_separating_atoms_take_the_full_step(self):
        f = MixingMeasure([1.0, 3.0], [0.5, 0.5])
        assert _step_limit(f, np.array([-5.0, 5.0])) == 1.0
        assert _step_limit(f, np.zeros(2)) == 1.0

    def test_weight_bound(self):
        # The location part is free; the first weight reaches zero at 0.25.
        f = MixingMeasure([1.0, 3.0], [0.5, 0.5])
        step = np.array([0.0, 0.0, -2.0, 1.0])
        assert _step_limit(f, step) == 0.25


class TestLineSearch:
    def test_finds_interior_vertex(self):
        model = _OneAtomQuadratic(0.3)
        f = MixingMeasure([0.0], [1.0])
        shifted, value = _search(model, f)
        assert_allclose(shifted.locations, [0.3], atol=1e-12)
        assert value == model.objective(shifted)

    def test_full_step_when_it_decreases(self):
        model = _OneAtomQuadratic(0.3)
        f = MixingMeasure([0.0], [1.0])
        shifted, value = _search(model, f, np.array([0.2, 0.0]))
        assert shifted.locations[0] == 0.2
        assert value == model.objective(shifted)

    def test_halves_until_decrease(self):
        # A step of 1.0 overshoots to 1.0, worse; half of it lands on 0.5.
        model = _OneAtomQuadratic(0.3)
        f = MixingMeasure([0.0], [1.0])
        shifted, _ = _search(model, f, np.array([1.0, 0.0]))
        assert shifted.locations[0] == 0.5

    def test_clipped_into_domain(self):
        model = _OneAtomQuadratic(20.0)
        f = MixingMeasure([9.0], [1.0])
        shifted, _ = _search(model, f)
        assert shifted.locations[0] == model.domain[1]

    def test_none_at_stationary_point(self):
        model = _OneAtomQuadratic(0.3)
        f = MixingMeasure([0.3], [1.0])
        assert _search(model, f) is None

    def test_none_when_no_actual_improvement(self):
        f = MixingMeasure([0.0], [1.0])
        assert _search(_FlatDeceiver(), f) is None

    def test_accepted_step_strictly_decreases_ls_objective(self):
        # The locations and the weights step together, from the exact
        # weights of the starting support.
        rng = np.random.default_rng(3)
        m = LsModel(rng.exponential(size=40))
        f = _reduce_to_cone(m, MixingMeasure([0.8, 2.1], [0.5, 0.4]))[0]
        step = _search(m, f)
        assert step is not None
        shifted, value = step
        assert shifted.size == f.size
        assert np.all(shifted.locations != f.locations)
        assert np.all(shifted.weights != f.weights)
        assert value == m.objective(shifted)
        assert value < m.objective(f)

    def test_joint_step_drops_a_vanishing_weight(self):
        # The step takes the first weight to zero exactly at its limit.
        rng = np.random.default_rng(4)
        m = MlModel(rng.normal(size=30))
        f = MixingMeasure([-2.0, 0.0], [0.1, 0.9])
        step = np.array([0.0, 0.0, -0.1, 0.1])
        shifted, value = _search(m, f, step)
        assert_allclose(shifted.locations, [0.0])
        assert_allclose(shifted.weights, [1.0])
        assert value < m.objective(f)


class TestTauGradient:
    def test_wraps_location_gradient(self):
        rng = np.random.default_rng(5)
        m = LsModel(rng.exponential(size=15))
        f = MixingMeasure([0.5, 1.5], [0.3, 0.6])
        out = tau_gradient(m, f)
        assert isinstance(out, np.ndarray)
        assert_allclose(out, m.location_gradient(f), rtol=1e-15)

    def test_symmetric_configuration_is_stationary(self):
        m = MlModel(np.array([-1.2, 1.2]))
        f = MixingMeasure([0.0], [1.0])
        assert abs(tau_gradient(m, f)[0]) <= 1e-16

    def test_matches_shifted_finite_differences(self):
        # gradient of tau at eps along h equals h . grad at the shift
        rng = np.random.default_rng(7)
        m = MlModel(rng.normal(size=25))
        f = MixingMeasure([-0.4, 0.6], [0.5, 0.5])
        h = np.array([0.6, -0.8])
        eps, d = 0.05, 1e-6

        def tau(e):
            return m.objective(MixingMeasure(f.locations + e * h, f.weights))

        fd = (tau(eps + d) - tau(eps - d)) / (2 * d)
        shifted = MixingMeasure(f.locations + eps * h, f.weights)
        assert_allclose(float(h @ tau_gradient(m, shifted)), fd, rtol=1e-5)

    @pytest.mark.parametrize("kind", ["convex-ls", "deconv-ml"])
    def test_is_the_location_part_of_the_newton_system(self, kind):
        model, f, _ = _fit(kind)
        grad, hess = model.newton_system(f)
        assert grad.size == hess.shape[0] == hess.shape[1]
        assert grad.size == 2 * f.size
        # the same sums, added in another order
        expected = tau_gradient(model, f)
        assert_allclose(grad[:f.size], expected,
                        atol=1e-12 * np.abs(expected).max())


class TestMergeClose:
    def test_weighted_mean_merge(self):
        f = MixingMeasure([1.0, 1.001, 2.0], [1.0, 3.0, 0.5])
        g = _merge_close(f, 0.01)
        assert_allclose(g.locations, [1.00075, 2.0])
        assert_allclose(g.weights, [4.0, 0.5])

    def test_noop_returns_same_object(self):
        f = MixingMeasure([1.0, 2.0], [0.5, 0.5])
        assert _merge_close(f, 1e-6) is f
        assert _merge_close(f, 0.0) is f

    def test_chain_merges_into_one(self):
        f = MixingMeasure([1.0, 1.004, 1.008], [1.0, 1.0, 2.0])
        g = _merge_close(f, 0.005)
        assert g.size == 1
        assert_allclose(g.locations, [(1.0 + 1.004 + 2 * 1.008) / 4.0])
        assert_allclose(g.weights, [4.0])


def _ls_fit(seed=11, n=50, grid_size=40):
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=n)
    grid = np.linspace(x.min(), 3 * x.max(), grid_size)[1:]
    config = SolverConfig(grid=grid, eta=1e-10, gridless_enabled=True,
                          gridless_tol=1e-6)
    model = LsModel(x)
    f, trace = solve(model, config)
    assert trace.converged
    return model, f, config


def _ml_fit():
    # test_ml_path's problem
    rng = np.random.default_rng(29)
    x = np.sort(rng.normal(size=50) + rng.exponential(size=50))
    grid = np.linspace(x[0], x[-1], 25)
    config = SolverConfig(grid=grid, eta=1e-8, gridless_enabled=True,
                          gridless_tol=1e-6)
    f, trace = newton_solve(x, config)
    assert trace.converged
    return MlModel(x), f, config


def _fit(kind):
    return _ls_fit() if kind == "convex-ls" else _ml_fit()


class TestWeightPolish:
    @pytest.mark.parametrize("kind", ["convex-ls", "deconv-ml"])
    def test_returns_the_objective_of_its_measure(self, kind):
        # The polish of the support after the first refinement step: its
        # deletions account for the atoms it dropped, and its records
        # descend from the shifted measure to the polished one.
        model, f0, config = _fit(kind)
        shifted, _ = _search(model, f0)
        polished, deletions, inner = model.minimize_over_support(shifted,
                                                                 config)
        assert polished.size > 0
        assert polished.size + deletions == shifted.size
        values = [model.objective(shifted), *inner, model.objective(polished)]
        assert np.all(np.diff(values) <= 1e-12 * abs(values[0]))
        assert values[-1] <= values[0]


class TestFineTune:
    def test_empty_measure(self):
        model, _, config = _ls_fit()
        f, trace = fine_tune(model, MixingMeasure.empty(), config)
        assert trace.converged
        assert trace.stop_reason == "empty measure"
        assert f.size == 0

    def test_ls_descent_and_convergence(self):
        model, f0, config = _ls_fit()
        f, trace = fine_tune(model, f0, config)
        assert trace.converged
        assert trace.stop_reason == "gradient below tolerance"
        obj = np.asarray(trace.objective)
        assert np.all(np.diff(obj) <= 1e-14)
        assert f.size <= f0.size
        assert np.linalg.norm(tau_gradient(model, f)) <= config.gridless_tol
        assert np.all(np.diff(f.locations) > 0)

    def test_idempotent_after_convergence(self):
        model, f0, config = _ls_fit()
        f, _ = fine_tune(model, f0, config)
        g, trace2 = fine_tune(model, f, config)
        assert trace2.converged
        assert trace2.steps == 0
        assert_allclose(g.locations, f.locations)

    def test_ml_path(self):
        rng = np.random.default_rng(29)
        x = np.sort(rng.normal(size=50) + rng.exponential(size=50))
        grid = np.linspace(x[0], x[-1], 25)
        config = SolverConfig(grid=grid, eta=1e-8, gridless_enabled=True,
                              gridless_tol=1e-6)
        model = MlModel(x)
        f0, trace0 = newton_solve(x, config)
        assert trace0.converged
        f, trace = fine_tune(model, f0, config)
        assert trace.converged
        obj = np.asarray(trace.objective)
        assert np.all(np.diff(obj) <= 1e-12)
        assert f.size <= f0.size
        assert np.all(np.diff(f.locations) > 0)
        assert abs(f.total_mass() - 1.0) <= 1e-6

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(gridless, "_MAX_STEPS", 1)
        model, f0, config = _ls_fit(grid_size=12)
        f, trace = fine_tune(model, f0,
                             dataclasses.replace(config, gridless_tol=1e-13))
        assert not trace.converged
        assert trace.stop_reason == "step cap reached"
        assert trace.steps == 1

    @pytest.mark.parametrize("kind", ["convex-ls", "deconv-ml"])
    def test_each_measure_evaluated_once(self, kind):
        # Every value a step needs comes from one evaluation: the line
        # search gets the iterate's objective from fine_tune and hands
        # back the accepted step's, one Newton system is solved per
        # iterate, and the closing polish returns its objective.
        model, f0, config = _fit(kind)
        rec = _Recorder(model)
        f, trace = fine_tune(rec, f0, config)
        assert trace.converged and trace.steps > 0
        for name, seen in rec.seen.items():
            assert len(set(seen)) == len(seen), name
        assert len(rec.seen["newton_system"]) == trace.steps + 1
        assert rec.outputs[-1] is f
        assert trace.objective[0] == model.objective(f0)
        assert trace.objective[-1] == model.objective(f)
        assert len(trace.objective) == trace.steps + 2

    def test_merge_keeps_descending(self):
        # Both atoms are pulled to 0.9 and close in geometrically; the
        # shifted pair that comes closer than the merge gap (a fraction of
        # the domain's width) merges before the objective, which never
        # sees it, and the single atom descends to 0.9.
        lo, hi = _CoalescingPull.domain
        model = _CoalescingPull(0.9, gap=gridless._MERGE_GAP * (hi - lo))
        config = SolverConfig(grid=np.array([0.5]), gridless_tol=1e-8)
        f, trace = fine_tune(model, MixingMeasure([0.0, 1.0], [1.0, 1.0]),
                             config)
        assert model.failed == []
        sizes = [m.size for m in model.inputs]
        i = sizes.index(1)
        assert sizes == [2] * i + [1] * (len(sizes) - i)  # one merge
        merged = model.inputs[i]
        assert len(sizes) > i + 1  # steps on the merged support
        assert trace.converged
        assert f.size == 1
        assert f.weights[0] == 2.0
        assert_allclose(f.locations, [0.9], atol=1e-8)
        obj = np.asarray(trace.objective)
        assert np.all(np.diff(obj) <= 0.0)
        assert obj[-1] < model.objective(merged)


class TestMergeRule:
    """Atoms that come closer than the merge gap merge before every
    weight polish, also when the polish would succeed on them."""

    @pytest.mark.parametrize("x", [[-0.5, 0.5], [-0.7, -0.2, 0.2, 0.7]])
    def test_symmetric_fit_returns_one_atom(self, x):
        # Two grid atoms meet at 0, where the estimate is one atom of
        # weight 1: the data sit well inside one noise sd.
        config = SolverConfig(grid=np.linspace(-1.0, 1.0, 10), eta=1e-8,
                              gridless_enabled=True)
        result = pipeline.fit("deconv-ml", np.array(x), config)
        assert result.grid_support_size == 2
        assert result.measure.size == 1
        assert_allclose(result.measure.weights, [1.0], rtol=1e-6)
        assert_allclose(result.measure.locations, [0.0], atol=1e-8)
        assert result.certificate.passed
        assert result.converged

    def test_head_on_atoms_merge(self):
        model = MlModel(np.array([-0.5, 0.5]))
        config = SolverConfig(grid=np.linspace(-1.0, 1.0, 10), eta=1e-8)
        f, trace = fine_tune(model, MixingMeasure([-0.4, 0.4], [0.5, 0.5]),
                             config)
        assert f.size == 1
        assert_allclose(f.weights, [1.0], rtol=1e-6)
        assert trace.converged
        assert np.all(np.diff(trace.objective) <= 1e-15)
