"""Support reduction machinery: scan, inner reduction, outer loop,
certificates, and the directional derivative along a signed measure.

Brute-force oracles: subset enumeration for tiny solves and scripted
models for the deletion bookkeeping.
"""

import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import linalg

from mixfit import dir_deriv_measure
from mixfit.core import (
    ConeObjective,
    OptimalityCertificate,
    SingularSystem,
    SolverConfig,
    SolverTrace,
    _max_abs_support,
    _reduce_to_cone,
    check_optimality,
    cholesky_solve,
    min_alt_dir_deriv,
    solve,
)
from mixfit.families import MixingMeasure, SignedMixingMeasure
from mixfit.lsconvex import LsModel
from mixfit.mldeconv import MlModel


class TestMinAltScan:
    def test_pinned(self):
        m = LsModel(np.array([1.0]))
        f = SignedMixingMeasure.empty()
        theta, val = min_alt_dir_deriv(m, f, np.array([2.0]))
        assert theta == 2.0
        assert_allclose(val, -0.5 * math.sqrt(1.5), rtol=1e-14)
        # the rescaling favors wider kernels here: -0.375 sqrt(3) wins
        theta, val = min_alt_dir_deriv(m, f, np.array([0.5, 2.0, 4.0]))
        assert theta == 4.0
        assert_allclose(val, -0.375 * math.sqrt(3.0), rtol=1e-14)

    def test_zero_at_restricted_minimum(self):
        m = LsModel(np.array([1.0]))
        f = m.unrestricted_min(np.array([2.0]))
        assert f.weights[0] > 0
        _, val = min_alt_dir_deriv(m, f, np.array([2.0]))
        assert abs(val) <= 1e-12

    def test_nonfinite_raises(self):
        class Broken(LsModel):
            def alt_dir_deriv_vertex(self, theta, measure):
                return np.full(np.shape(theta), np.nan)

        m = Broken(np.array([1.0]))
        with pytest.raises(FloatingPointError):
            min_alt_dir_deriv(m, SignedMixingMeasure.empty(), np.array([1.0, 2.0]))


class _ScriptedModel(ConeObjective):
    """Returns pre-scripted signed minimizers keyed on the support; the
    objective is ``value(measure)``, 0 by default, and every atom is
    stationary."""

    def __init__(self, script, value=lambda measure: 0.0):
        self.script = {tuple(k): np.asarray(v, dtype=float)
                       for k, v in script.items()}
        self.value = value
        self.calls = []

    def unrestricted_min(self, support):
        """The scripted minimizer; a support scripted as NaN is singular."""
        key = tuple(np.asarray(support, dtype=float))
        self.calls.append(key)
        if np.isnan(self.script[key]).any():
            raise SingularSystem("singular")
        return SignedMixingMeasure(np.asarray(key), self.script[key])

    def objective(self, measure):
        return self.value(measure)

    def dir_deriv_vertex(self, theta, measure):
        return np.zeros(np.shape(theta))


def _first_moment(measure):
    """A scripted objective that prefers weight on high locations."""
    return -float(measure.weights @ measure.locations)


class TestInnerReduction:
    def test_boundary_step_deletes_negative_atom(self):
        # w = [1, 0] toward u = [-0.5, 1.5]: lam = 1/(1-(-0.5)) = 2/3,
        # atom 1 hits zero and is dropped; the re-solve is all positive.
        fake = _ScriptedModel({
            (1.0, 2.0): [-0.5, 1.5],
            (2.0,): [1.2],
        })
        f, deletions, inner = _reduce_to_cone(
            fake, MixingMeasure([1.0], [1.0]), 2.0)
        assert_allclose(f.locations, [2.0])
        assert_allclose(f.weights, [1.2], rtol=1e-15)
        assert deletions == 1
        assert len(inner) == 1
        assert fake.calls == [(1.0, 2.0), (2.0,)]

    def test_boundary_step_weights(self):
        # intermediate iterate after the lam = 2/3 move is checked via a
        # script that keeps one more negative round
        fake = _ScriptedModel({
            (1.0, 2.0, 3.0): [-0.5, 1.5, 0.25],
            (2.0, 3.0): [1.0, -1.0],
            (2.0,): [0.8],
        })
        f, deletions, _ = _reduce_to_cone(
            fake, MixingMeasure([1.0], [1.0]), np.array([3.0, 2.0]))
        assert_allclose(f.locations, [2.0])
        assert_allclose(f.weights, [0.8])
        assert deletions == 2

    def test_tiny_weights_are_purged_and_resolved(self):
        fake = _ScriptedModel({
            (1.0, 2.0): [1e-13, 0.5],
            (2.0,): [0.5],
        })
        f, deletions, _ = _reduce_to_cone(
            fake, MixingMeasure([1.0, 2.0], [0.1, 0.1]))
        assert_allclose(f.locations, [2.0])
        assert deletions == 1
        assert fake.calls == [(1.0, 2.0), (2.0,)]

    def test_exact_zeros_are_dropped_without_a_resolve(self):
        fake = _ScriptedModel({(1.0, 2.0, 3.0): [0.0, 0.5, 0.0]})
        f, deletions, inner = _reduce_to_cone(
            fake, MixingMeasure([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]))
        assert_allclose(f.locations, [2.0])
        assert deletions == 2 and inner == []
        assert fake.calls == [(1.0, 2.0, 3.0)]

    def test_zero_and_tiny_weights_are_dropped_in_one_pass(self):
        fake = _ScriptedModel({
            (1.0, 2.0, 3.0): [0.0, 0.5, 1e-13],
            (2.0,): [0.4],
        })
        f, deletions, _ = _reduce_to_cone(
            fake, MixingMeasure([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]))
        assert_allclose(f.weights, [0.4])
        assert deletions == 2
        assert fake.calls == [(1.0, 2.0, 3.0), (2.0,)]

    def test_theta_on_an_atom_adds_nothing(self):
        # the start keeps the atom's weight, so the step below is taken
        # from w = [1, 1], not from a zero at 2.0
        fake = _ScriptedModel({
            (1.0, 2.0): [-1.0, 3.0],
            (2.0,): [2.0],
        })
        f, deletions, inner = _reduce_to_cone(
            fake, MixingMeasure([1.0, 2.0], [1.0, 1.0]), [2.0, 2.0])
        assert fake.calls == [(1.0, 2.0), (2.0,)]
        assert_allclose(f.weights, [2.0])
        assert deletions == 1 and len(inner) == 1


    def test_singular_insertion_is_exchanged(self):
        # 2.4 takes over the weight of its nearest atom, 3.0, and the
        # reduction on (1.0, 2.4) lowers the objective from -0.4 to -1.1
        fake = _ScriptedModel({
            (1.0, 2.4, 3.0): [np.nan],
            (1.0, 2.4): [0.5, 0.25],
        }, _first_moment)
        f, deletions, inner = _reduce_to_cone(
            fake, MixingMeasure([1.0, 3.0], [0.1, 0.1]), 2.4)
        assert fake.calls == [(1.0, 2.4, 3.0), (1.0, 2.4)]
        assert_allclose(f.locations, [1.0, 2.4])
        assert_allclose(f.weights, [0.5, 0.25])
        assert deletions == 1 and inner == []

    def test_exchange_tries_the_far_neighbour_second(self):
        # exchanging 3.0 is singular too, so 2.4 replaces 1.0
        fake = _ScriptedModel({
            (1.0, 2.4, 3.0): [np.nan],
            (1.0, 2.4): [np.nan],
            (2.4, 3.0): [0.5, 0.25],
        }, _first_moment)
        f, deletions, _ = _reduce_to_cone(
            fake, MixingMeasure([1.0, 3.0], [0.1, 0.1]), 2.4)
        assert fake.calls == [(1.0, 2.4, 3.0), (1.0, 2.4), (2.4, 3.0)]
        assert_allclose(f.locations, [2.4, 3.0])
        assert deletions == 1

    def test_exchange_records_only_its_descent_from_the_start(self):
        # the boundary step of the exchanged reduction passes through
        # {2.4: 0.1} at -0.24, above the start's -0.4: that record goes
        fake = _ScriptedModel({
            (1.0, 2.4, 3.0): [np.nan],
            (1.0, 2.4): [-0.9, 0.1],
            (2.4,): [1.0],
        }, _first_moment)
        f, deletions, inner = _reduce_to_cone(
            fake, MixingMeasure([1.0, 3.0], [0.1, 0.1]), 2.4)
        assert_allclose(f.locations, [2.4])
        assert_allclose(f.weights, [1.0])
        assert deletions == 2 and inner == []

    def test_singular_insertion_is_dropped(self):
        # neither exchange lowers the constant objective: the reduction
        # runs on the measure's own support without the new point
        fake = _ScriptedModel({
            (1.0, 2.0, 3.0): [np.nan],
            (1.0, 2.0): [0.5, 0.25],
            (2.0, 3.0): [0.5, 0.25],
            (1.0, 3.0): [0.5, 0.25],
        })
        f, deletions, inner = _reduce_to_cone(
            fake, MixingMeasure([1.0, 3.0], [0.1, 0.1]), 2.0)
        assert fake.calls == [(1.0, 2.0, 3.0), (2.0, 3.0), (1.0, 2.0),
                              (1.0, 3.0)]
        assert_allclose(f.locations, [1.0, 3.0])
        assert_allclose(f.weights, [0.5, 0.25])
        assert deletions == 0 and inner == []

    @pytest.mark.parametrize("theta", [(), 3.0])
    def test_singular_own_support_raises(self, theta):
        # without a new point, or when the support alone is singular too
        fake = _ScriptedModel({(1.0, 3.0): [np.nan]})
        with pytest.raises(SingularSystem, match="^singular$"):
            _reduce_to_cone(fake, MixingMeasure([1.0, 3.0], [0.1, 0.1]),
                            theta)


class TestReductionStep:
    """One outer insertion step: reduce on the enlarged support from the
    current weights, zero at the new vertex (what ``solve`` does)."""

    def test_one_knot_from_empty(self):
        m = LsModel(np.array([1.0]))
        f, _, _ = _reduce_to_cone(m, MixingMeasure.empty(), 2.0)
        assert_allclose(f.locations, [2.0])
        assert_allclose(f.weights, [0.75], rtol=1e-14)

    def test_all_positive_returned_directly(self):
        rng = np.random.default_rng(13)
        m = LsModel(rng.exponential(size=30))
        sup = np.array([1.0, 3.5])
        u = m.unrestricted_min(sup)
        assert np.all(u.weights > 0)  # construction guard
        f, deletions, inner = _reduce_to_cone(
            m, MixingMeasure([1.0], [float(u.weights[0])]), 3.5)
        assert_allclose(f.locations, u.locations)
        assert_allclose(f.weights, u.weights, rtol=1e-14)
        assert deletions == 0 and inner == []


class TestReoptimize:
    """``minimize_over_support`` without new points re-solves the
    measure on its own support."""

    CONFIG = SolverConfig(grid=np.array([1.0]))

    def test_stationarity_and_descent(self):
        rng = np.random.default_rng(29)
        m = LsModel(rng.exponential(size=50))
        rough = MixingMeasure([0.4, 1.1, 2.0, 3.3], [0.1, 0.5, 0.2, 0.3])
        f, deletions, _ = m.minimize_over_support(rough, self.CONFIG)
        assert f.size + deletions == rough.size
        assert m.objective(f) < m.objective(rough)
        for t in f.locations:
            assert abs(m.dir_deriv_vertex(float(t), f)) <= 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        m = LsModel(rng.exponential(size=50))
        f = m.minimize_over_support(
            MixingMeasure([0.4, 1.1, 2.0], [0.1, 0.5, 0.2]), self.CONFIG)[0]
        g, deletions, _ = m.minimize_over_support(f, self.CONFIG)
        assert deletions == 0
        assert_allclose(g.weights, f.weights, rtol=1e-12)


class TestDirDerivMeasure:
    def test_linear_in_direction(self):
        rng = np.random.default_rng(37)
        m = LsModel(rng.exponential(size=12))
        f = MixingMeasure([0.8, 1.6], [0.5, 0.4])
        h = SignedMixingMeasure([0.5, 1.6, 2.4], [0.2, -0.7, 0.1])
        expected = sum(w * m.dir_deriv_vertex(float(t), f)
                       for t, w in zip(h.locations, h.weights))
        assert_allclose(dir_deriv_measure(m, h, f), expected, rtol=1e-13)

    def test_empty_direction(self):
        m = LsModel(np.array([1.0]))
        assert dir_deriv_measure(m, SignedMixingMeasure.empty(),
                                 MixingMeasure.empty()) == 0.0


def _enumerate_optimum(model, grid, feas_tol=1e-8):
    """Global cone minimum by trying every support subset."""
    best = 0.0  # empty measure
    for r in range(1, len(grid) + 1):
        for subset in itertools.combinations(range(len(grid)), r):
            sup = grid[list(subset)]
            G = np.array([[model.inner_product(a, b) for b in sup] for a in sup])
            b = np.array([2.0 * model.Y_n(float(t)) / t**2 for t in sup])
            try:
                w = np.linalg.solve(G, b)
            except np.linalg.LinAlgError:
                continue
            if np.any(w < -feas_tol):
                continue
            w = np.clip(w, 0.0, None)
            val = float(0.5 * w @ G @ w - b @ w)
            best = min(best, val)
    return best


class TestSolve:
    def test_zero_iterations_when_start_is_optimal(self):
        # single observation, grid {3}: one atom at 3 of weight 1 is
        # already the cone minimizer over that grid
        m = LsModel(np.array([1.0]))
        f, trace = solve(m, SolverConfig(grid=np.array([3.0]), eta=1e-10),
                         start=MixingMeasure([3.0], [1.0]))
        assert trace.converged
        assert trace.n_iterations == 0
        assert_allclose(f.locations, [3.0])
        assert_allclose(f.weights, [1.0], rtol=1e-12)

    def test_one_iteration_from_the_empty_start(self):
        # the default start is empty; the first scan inserts the optimum
        m = LsModel(np.array([1.0]))
        f, trace = solve(m, SolverConfig(grid=np.array([3.0]), eta=1e-10))
        assert trace.converged
        assert trace.n_iterations == 1
        assert_allclose(f.locations, [3.0])
        assert_allclose(f.weights, [1.0], rtol=1e-12)

    def test_outer_objectives_strictly_decrease(self):
        rng = np.random.default_rng(41)
        x = rng.exponential(size=80)
        m = LsModel(x)
        grid = np.linspace(x.min(), 3 * x.max(), 60)[1:]
        f, trace = solve(m, SolverConfig(grid=grid, eta=1e-10))
        assert trace.converged
        obj = np.asarray(trace.objective)
        diffs = np.diff(obj)
        assert np.all(diffs[:-1] < 0)
        assert diffs.size == 0 or diffs[-1] <= 1e-14

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(43)
        for trial in range(6):
            x = rng.uniform(0.2, 1.0, size=rng.integers(3, 9))
            pts = np.sort(rng.uniform(0.3, 2.0, size=4))
            grid = np.unique(np.append(pts, 2.5))  # keep one point beyond max
            m = LsModel(x)
            f, trace = solve(m, SolverConfig(grid=grid, eta=1e-10))
            assert trace.converged
            oracle = _enumerate_optimum(m, grid)
            assert m.objective(f) <= oracle + 1e-8

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(47)
        x = rng.exponential(size=80)
        grid = np.linspace(x.min(), 3 * x.max(), 60)[1:]
        m = LsModel(x)
        f, trace = solve(m, SolverConfig(grid=grid, eta=1e-10, max_outer_iter=1))
        assert not trace.converged
        assert trace.n_iterations == 1


class _AtomRepickingModel(_ScriptedModel):
    """Started from one atom at 1.0 of weight 1.0, which the scan picks
    until its weight is 2.0; the objective is ``(w - 2)^2`` summed over
    the atoms."""

    START = MixingMeasure([1.0], [1.0])

    def objective(self, measure):
        return float(((measure.weights - 2.0) ** 2).sum())

    def alt_dir_deriv_vertex(self, theta, measure):
        done = measure.size == 1 and measure.weights[0] == 2.0
        return np.where(theta == 1.0, 0.0 if done else -1.0, 0.5)


class TestSolveInPlace:
    """A scan that picks an existing atom re-solves on the support."""

    CONFIG = SolverConfig(grid=np.array([0.5, 1.0, 1.5]), max_outer_iter=50)

    def test_resolve_adds_no_duplicate(self):
        m = _AtomRepickingModel({(1.0,): [2.0]})
        f, trace = solve(m, self.CONFIG, start=m.START)
        assert trace.converged and trace.n_iterations == 1
        assert m.calls == [(1.0,)]
        assert_allclose(f.weights, [2.0])

    def test_no_progress_stops_with_a_warning(self, caplog):
        m = _AtomRepickingModel({(1.0,): [1.0]})
        with caplog.at_level(logging.DEBUG, logger="mixfit.core"):
            f, trace = solve(m, self.CONFIG, start=m.START)
        assert not trace.converged and trace.n_iterations == 0
        assert m.calls == [(1.0,)]
        assert_allclose(f.weights, [1.0])
        assert [r.levelno for r in caplog.records
                if "no progress" in r.getMessage()] == [logging.DEBUG]


class TestSolveLocalStep:
    """``local`` follows every reduction that made progress."""

    CONFIG = SolverConfig(grid=np.array([0.5, 1.0, 1.5]), max_outer_iter=50)

    def test_runs_after_each_progressive_reduction(self):
        m = _AtomRepickingModel({(1.0,): [2.0]})
        seen = []
        f, trace = solve(m, self.CONFIG, start=m.START,
                         local=lambda g: seen.append(g) or g)
        assert trace.converged and trace.n_iterations == 1
        assert [g.weights.tolist() for g in seen] == [[2.0]]
        assert seen[-1] is f

    def test_skipped_when_the_reduction_returns_its_start(self):
        m = _AtomRepickingModel({(1.0,): [1.0]})
        seen = []
        f, trace = solve(m, self.CONFIG, start=m.START,
                         local=lambda g: seen.append(g) or g)
        assert not trace.converged and seen == []


class _CyclingModel(_ScriptedModel):
    """Started from one atom at 1.0; after k reductions the scan picks
    2.0 at ``-deficit(k)``, and the reduction keeps it, so a local step
    that undoes it cycles."""

    START = MixingMeasure([1.0], [1.0])

    def __init__(self, value, deficit=lambda k: 1.0):
        super().__init__({(1.0, 2.0): [0.5, 0.5]}, value)
        self.deficit = deficit

    def alt_dir_deriv_vertex(self, theta, measure):
        return np.where(theta == 2.0, -self.deficit(len(self.calls)), 0.5)


class TestSolveStall:
    """A round that lowers neither the objective nor the grid minimum's
    deficit stops ``solve``, so a cycling local step cannot run on to
    ``max_outer_iter``."""

    CONFIG = SolverConfig(grid=np.array([1.0, 2.0]), max_outer_iter=50)

    @pytest.mark.parametrize("rise", [0.0, 1.0])
    def test_cycling_local_step_stops(self, rise, caplog):
        rows = itertools.count(0.0, rise)
        m = _CyclingModel(lambda f: next(rows))
        seen = []
        with caplog.at_level(logging.DEBUG, logger="mixfit.core"):
            f, trace = solve(m, self.CONFIG, start=m.START,
                             local=lambda g: seen.append(g) or m.START)
        assert not trace.converged and trace.n_iterations == 1
        assert m.calls == [(1.0, 2.0)]
        assert [g.locations.tolist() for g in seen] == [[1.0, 2.0]]
        assert f is m.START
        assert any(r.getMessage().startswith("stalled") for r in caplog.records)

    @pytest.mark.parametrize("fall, deficit", [
        (-1.0, lambda k: 1.0),              # the objective falls
        (0.0, lambda k: 1.0 / (k + 1)),     # the grid minimum rises
    ])
    def test_progress_runs_on(self, fall, deficit):
        rows = itertools.count(0.0, fall)
        m = _CyclingModel(lambda f: next(rows), deficit)
        seen = []
        f, trace = solve(m, self.CONFIG, start=m.START,
                         local=lambda g: seen.append(g) or m.START)
        assert not trace.converged
        assert trace.n_iterations == len(seen) == self.CONFIG.max_outer_iter


class _UnstationaryModel(_ScriptedModel):
    """Started from one atom at 1.0 of weight 1.0; the scan passes on
    every measure, but the atom is stationary only at weight 2.0."""

    START = MixingMeasure([1.0], [1.0])

    def alt_dir_deriv_vertex(self, theta, measure):
        return np.where(theta == 1.0, 0.0, 0.5)

    def dir_deriv_vertex(self, theta, measure):
        done = measure.size == 1 and measure.weights[0] == 2.0
        return np.full(np.shape(theta), 0.0 if done else 1e-3)


class TestSolveSupportHalf:
    """``solve`` stops only when both halves of the certificate pass."""

    def test_failing_support_reduces_again(self):
        m = _UnstationaryModel({(1.0,): [2.0]})
        config = SolverConfig(grid=np.array([0.5, 1.0, 1.5]), eta=1e-8,
                              support_tol=1e-8)
        f, trace = solve(m, config, start=m.START)
        assert trace.min_alt_deriv[0] >= -config.eta    # grid half passes
        assert trace.converged and trace.n_iterations == 1
        assert m.calls == [(1.0,)]
        assert_allclose(f.weights, [2.0])

    def test_support_failure_alone_stays_uncertified(self):
        # the re-solve returns its start: no progress, not converged
        m = _UnstationaryModel({(1.0,): [1.0]})
        config = SolverConfig(grid=np.array([0.5, 1.0, 1.5]))
        f, trace = solve(m, config, start=m.START)
        assert not trace.converged and trace.n_iterations == 0
        assert not check_optimality(m, f, config.grid, config.eta).passed


class _DeletedInsertionModel(_ScriptedModel):
    """Started from one atom at 1.0; the scan always picks 2.0, which the
    reduction deletes at once, so it returns the measure it started from."""

    START = MixingMeasure([1.0], [1.0])

    def alt_dir_deriv_vertex(self, theta, measure):
        return np.where(theta == 2.0, -1.0, 0.5)


class TestSolveNoProgress:
    def test_deleted_insertion_stops_with_a_warning(self, caplog):
        m = _DeletedInsertionModel({(1.0, 2.0): [1.0, -1.0], (1.0,): [1.0]})
        config = SolverConfig(grid=np.array([1.0, 2.0]), max_outer_iter=50)
        with caplog.at_level(logging.DEBUG, logger="mixfit.core"):
            f, trace = solve(m, config, start=m.START)
        assert m.calls == [(1.0, 2.0), (1.0,)]
        assert not trace.converged and trace.n_iterations == 0
        assert_allclose(f.locations, [1.0])
        assert_allclose(f.weights, [1.0])
        assert [r.levelno for r in caplog.records
                if "no progress" in r.getMessage()] == [logging.DEBUG]

    def test_singular_insertion_is_exchanged(self):
        # the exchange moves the weight onto 2.0, which lowers the
        # objective; the next scan re-picks 2.0, now an atom, and the
        # re-solve in place returns its start
        m = _DeletedInsertionModel({(1.0, 2.0): [np.nan], (2.0,): [1.0]},
                                   _first_moment)
        config = SolverConfig(grid=np.array([1.0, 2.0]), max_outer_iter=50)
        f, trace = solve(m, config, start=m.START)
        assert m.calls == [(1.0, 2.0), (2.0,), (2.0,)]
        assert not trace.converged and trace.n_iterations == 1
        assert trace.deletions == [0, 1]
        assert_allclose(f.locations, [2.0])
        assert_allclose(f.weights, [1.0])

    def test_singular_insertion_stops(self):
        # the support plus the scan's pick is singular and the exchange
        # does not lower the objective: the reduction without the pick
        # returns the start, and solve stops
        m = _DeletedInsertionModel({(1.0, 2.0): [np.nan], (2.0,): [1.0],
                                    (1.0,): [1.0]})
        config = SolverConfig(grid=np.array([1.0, 2.0]), max_outer_iter=50)
        f, trace = solve(m, config, start=m.START)
        assert m.calls == [(1.0, 2.0), (2.0,), (1.0,)]
        assert not trace.converged and trace.n_iterations == 0
        assert_allclose(f.weights, [1.0])


class TestCheckOptimality:
    def test_empty_measure_fails(self):
        m = LsModel(np.array([1.0]))
        cert = check_optimality(m, MixingMeasure.empty(), np.array([2.0]), 1e-8)
        assert not cert.passed
        assert cert.max_abs_support == 0.0
        assert_allclose(cert.gap, 0.5 * math.sqrt(1.5), rtol=1e-14)

    def test_non_stationary_support_fails(self):
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([2.0], [0.6])  # optimal weight is 0.75
        cert = check_optimality(m, f, np.array([2.0]), 1e-8)
        assert not cert.passed
        assert_allclose(cert.max_abs_support, 0.1, rtol=1e-13)

    def test_solver_output_passes(self):
        rng = np.random.default_rng(53)
        x = rng.exponential(size=60)
        grid = np.linspace(x.min(), 3 * x.max(), 50)[1:]
        m = LsModel(x)
        f, trace = solve(m, SolverConfig(grid=grid, eta=1e-10))
        assert trace.converged
        cert = check_optimality(m, f, grid, 1e-10, support_tol=1e-8)
        assert cert.passed
        assert cert.support_size == f.size

    def test_support_tol_defaults_to_tol(self):
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([2.0], [0.75])
        a = check_optimality(m, f, np.array([2.0]), 1e-6)
        b = check_optimality(m, f, np.array([2.0]), 1e-6, support_tol=1e-6)
        assert a == b

    def test_keeps_its_read_only_scan(self):
        m = LsModel(np.array([1.0, 3.0]))
        f = MixingMeasure([2.0], [0.6])
        grid = np.linspace(0.5, 5.0, 7)
        cert = check_optimality(m, f, grid, 1e-8)
        assert np.array_equal(cert.grid_alt, m.alt_dir_deriv_vertex(grid, f))
        assert not cert.grid_alt.flags.writeable
        # the scan takes no part in == or repr
        bare = replace(cert, grid_alt=None)
        assert cert == bare and repr(cert) == repr(bare)


class _CountingModel:
    """Raw derivative ``theta - 1``; records the size of every scan."""

    def __init__(self):
        self.scans = []

    def dir_deriv_vertex(self, theta, measure):
        theta = np.asarray(theta, dtype=float)
        self.scans.append(theta.size)
        return theta - 1.0

    alt_dir_deriv_vertex = dir_deriv_vertex


class _RescaledCountingModel(_CountingModel):
    def alt_dir_deriv_vertex(self, theta, measure):
        return 0.5 * self.dir_deriv_vertex(theta, measure)


class TestCertificateScans:
    GRID = np.array([0.0, 0.5, 2.0, 3.0, 4.0])
    MEASURE = MixingMeasure([1.0], [1.0])

    def test_one_grid_scan_when_alt_is_raw(self):
        m = _CountingModel()
        cert = check_optimality(m, self.MEASURE, self.GRID, 1e-8)
        assert m.scans.count(self.GRID.size) == 1
        assert cert.min_grid_raw == cert.min_grid_alt == -1.0
        assert not cert.passed

    def test_two_grid_scans_when_alt_is_rescaled(self):
        m = _RescaledCountingModel()
        cert = check_optimality(m, self.MEASURE, self.GRID, 1e-8)
        assert m.scans.count(self.GRID.size) == 2
        assert cert.min_grid_raw == -1.0
        assert cert.min_grid_alt == -0.5

    @pytest.mark.parametrize("atoms, support, evaluated", [
        ([2.0, 4.0], 3.0, False), ([2.0, 2.5], 1.5, True)],
        ids=["on-grid", "one-off-grid"])
    def test_support_half_reads_the_raw_scan_on_the_grid(self, atoms, support,
                                                         evaluated):
        m = _RescaledCountingModel()
        cert = check_optimality(m, MixingMeasure(atoms, [1.0, 1.0]),
                                self.GRID, 1e-8)
        assert m.scans == [self.GRID.size] * 2 + [len(atoms)] * evaluated
        assert cert.max_abs_support == support

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["ls", "ml", "ml-on-grid"]),
           n=st.integers(2, 3000), size=st.integers(1, 400),
           atoms=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_scan_read_matches_the_atoms_evaluated(self, kind, n, size, atoms,
                                                   seed):
        # Atoms on the grid; the ML scans span several tiles for n above
        # about 330, so the read and the evaluation may round apart.
        rng = np.random.default_rng(seed)
        if kind == "ls":
            x = rng.exponential(size=n) + 1e-3
            grid = np.linspace(x.min(), 3.0 * x.max(), size)
            model = LsModel(x)
        else:
            x = rng.normal(size=n) + rng.exponential(size=n)
            grid = np.linspace(x.min(), x.max(), size)
            model = MlModel(x) if kind == "ml" else MlModel(x, grid)
        at = np.sort(rng.choice(size, min(atoms, size), replace=False))
        measure = MixingMeasure(grid[at], rng.dirichlet(np.ones(at.size)))
        cert = check_optimality(model, measure, grid, 1e-8)
        raw = np.asarray(model.dir_deriv_vertex(grid, measure))
        assert cert.max_abs_support == np.abs(raw[at]).max()
        assert (abs(cert.max_abs_support - _max_abs_support(model, measure))
                <= 1e-14 * (1.0 + np.abs(raw).max()))


def _spd_system(n):
    """``(M, b)`` with ``M = B B' + I`` for a random ``n x (n + 2)`` ``B``."""
    entries = st.floats(-1e3, 1e3)
    return st.tuples(hnp.arrays(float, (n, n + 2), elements=entries),
                     hnp.arrays(float, n, elements=entries)).map(
        lambda bb: (bb[0] @ bb[0].T + np.eye(n), bb[1]))


class TestCholeskySolve:
    @settings(max_examples=200, deadline=None)
    @given(system=st.integers(1, 12).flatmap(_spd_system))
    def test_bit_identical_to_scipy(self, system):
        M, b = system
        expected = linalg.cho_solve(linalg.cho_factor(M), b)
        assert cholesky_solve(M, b, "singular").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", ["matrix", "rhs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raises_scipy_message(self, bad, value):
        M, b = np.eye(2), np.ones(2)
        (M if bad == "matrix" else b)[1] = value
        with pytest.raises(ValueError) as scipy_error:
            linalg.cho_solve(linalg.cho_factor(M), b)
        with pytest.raises(ValueError) as ours:
            cholesky_solve(M, b, "singular")
        assert str(ours.value) == str(scipy_error.value)


class TestConfigAndTrace:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            SolverConfig(grid=np.array([]))
        with pytest.raises(ValueError, match="strictly increasing"):
            SolverConfig(grid=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(grid=np.array([1.0, np.inf]))

    def test_scalar_validation(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta"):
                SolverConfig(grid=np.array([1.0]), eta=bad)
        with pytest.raises(ValueError, match="max_outer_iter"):
            SolverConfig(grid=np.array([1.0]), max_outer_iter=0)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gridless_tol"):
                SolverConfig(grid=np.array([1.0]), gridless_tol=bad)
        for bad in (0.0, -1e-8, np.nan, np.inf):
            with pytest.raises(ValueError, match="support_tol"):
                SolverConfig(grid=np.array([1.0]), support_tol=bad)

    def test_grid_is_copied_and_read_only(self):
        src = np.array([1.0, 2.0])
        cfg = SolverConfig(grid=src)
        src[0] = 99.0
        assert cfg.grid[0] == 1.0
        with pytest.raises(ValueError):
            cfg.grid[0] = 5.0

    def test_trace_counts(self):
        tr = SolverTrace()
        assert tr.n_iterations == 0
        tr.append(1.0, 2, -0.5, 0)
        tr.append(0.5, 3, -0.1, 1, inner_objectives=[0.7, 0.6])
        assert tr.n_iterations == 1
        assert tr.inner_objectives[1] == [0.7, 0.6]
        assert math.isnan(tr.step_size[0])

    def test_certificate_gap(self):
        cert = OptimalityCertificate(
            min_grid_alt=-0.2, min_grid_raw=-0.1, argmin_theta=1.0,
            max_abs_support=0.05, support_size=1,
            grid_tol=1e-8, support_tol=1e-8)
        assert not cert.passed
        assert_allclose(cert.gap, 0.2)
        ok = OptimalityCertificate(
            min_grid_alt=-1e-9, min_grid_raw=-1e-9, argmin_theta=1.0,
            max_abs_support=1e-9, support_size=1,
            grid_tol=1e-8, support_tol=1e-8)
        assert ok.passed and ok.gap == 0.0
