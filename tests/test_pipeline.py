"""The single fit path: the per-model spec table, the stages ``fit`` runs,
and what ``converged`` promises."""

import dataclasses
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from mixfit import core, gridless, mldeconv, pipeline
from mixfit.core import SolverConfig
from mixfit.families import MixingMeasure
from mixfit.lsconvex import LsModel
from mixfit.mldeconv import MlModel


def _ls_refined_problem(seed):
    # one problem of the seeded refinement batch (acceptance criterion 5)
    x = np.random.default_rng(seed).exponential(size=60)
    grid = np.linspace(x.min(), 3.0 * x.max(), 50)[1:]
    return x, SolverConfig(grid=grid, eta=1e-10, gridless_enabled=True,
                           gridless_tol=1e-6)


class TestConverged:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["convex-ls", "deconv-ml"]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60),
           refine=st.booleans())
    def test_result_carries_the_certificate_it_reports(self, kind, seed, n,
                                                       refine):
        # criterion 5's recipes and grids at drawn seeds and n, with and
        # without refinement: the certificate the fit reads from its
        # layer is the one `mixfit check` issues on the grid-free model
        rng = np.random.default_rng(seed)
        if kind == "convex-ls":
            x = rng.exponential(size=n)
            grid, eta = np.linspace(x.min(), 3.0 * x.max(), 50)[1:], 1e-10
        else:
            x = rng.normal(size=n) + rng.exponential(size=n)
            grid, eta = np.linspace(x.min(), x.max(), 30), 1e-8
        config = SolverConfig(grid=grid, eta=eta, gridless_enabled=refine,
                              gridless_tol=1e-6)
        result = pipeline.fit(kind, x, config)
        assert result.certificate == core.check_optimality(
            result.model, result.measure, config.grid, config.eta,
            config.support_tol)
        assert result.converged == result.certificate.passed

    def test_failing_certificate_is_not_converged(self):
        # Every stage stops on its own criterion; a failing certificate
        # alone makes the fit unconverged.
        x, config = _ls_refined_problem(2)
        result = pipeline.fit("convex-ls", x, config)
        assert result.converged
        failing = dataclasses.replace(result.certificate, min_grid_alt=-1e-6)
        result = dataclasses.replace(result, certificate=failing)
        assert result.trace.converged
        assert result.fine_tune_trace.converged
        assert not result.certificate.passed
        assert not result.converged
        report = result.report_text().splitlines()
        assert "converged: false" in report
        assert "cert_passed: false" in report

    def test_no_insertions_leaves_descent_uncertified(self):
        # Without re-insertion the polish of criterion-5 seed 2 stops at a
        # stationary point that a grid kernel still descends from.
        x, config = _ls_refined_problem(2)
        model = LsModel(x)
        measure, trace = core.solve(model, config)
        assert trace.converged
        polished, ft_trace = gridless.fine_tune(model, measure, config)
        assert ft_trace.converged
        cert = core.check_optimality(model, polished, config.grid,
                                     config.eta, config.support_tol)
        assert cert.min_grid_alt < -1e-8
        assert not cert.passed

    def test_passing_certificate_is_converged(self):
        # The polish of this sample stops on a failed line search, but
        # re-insertion leaves a measure whose certificate passes.
        rng = np.random.default_rng(38)
        x = rng.uniform(0.0, 1.0, size=int(rng.integers(3, 200))) ** 3
        result = pipeline.fit("convex-ls", x, _default_config("convex-ls", x))
        assert not result.fine_tune_trace.converged
        assert result.certificate.passed
        assert result.converged

    def test_tied_three_point_sample_certifies(self):
        # Two distinct observations give the quadratic model's Gram matrix
        # rank 2, so a third grid atom makes the restricted solve singular.
        x = np.array([0.5, 0.5, 2.0])
        result = pipeline.fit("deconv-ml", x, _default_config("deconv-ml", x))
        assert result.converged
        np.testing.assert_array_equal(result.measure.locations, [1.0])
        np.testing.assert_array_equal(result.measure.weights, [1.0])

    def test_tied_three_point_sample_logs_nothing_above_debug(self, caplog):
        # The solver's "no progress" stop is routine here; a library fit
        # with no logging configured must print nothing.
        x = np.array([0.5, 0.5, 2.0])
        with caplog.at_level(logging.DEBUG, logger="mixfit"):
            result = pipeline.fit("deconv-ml", x,
                                  _default_config("deconv-ml", x))
        assert result.converged
        assert [r for r in caplog.records
                if r.name.startswith("mixfit")
                and r.levelno >= logging.WARNING] == []

    def test_partial_step_on_tied_data_certifies(self):
        # The first step stops inside its segment and holds the atoms of
        # both ends, 6 of them over 5 distinct observations, so the next
        # warm start's restricted system is singular.
        x = np.array([-2.0, 0.0, -1.0, 1.0, -1.0, -6.0, 1.0, 1.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = pipeline.fit("deconv-ml", x,
                                  _default_config("deconv-ml", x))
        assert 0.0 < result.trace.step_size[1] < 1.0
        assert result.converged

    def test_grid_ending_below_sample_maximum_certifies(self):
        # 3 mean = 7.725 < max x = 10 and no grid point lies past 10.
        x = np.array([0.1, 0.1, 0.1, 10.0])
        result = pipeline.fit("convex-ls", x,
                              _default_config("convex-ls", x, grid_max=9.9))
        assert result.trace.converged
        assert result.converged


def _default_config(kind, x, grid_max=None):
    """The configuration `mixfit fit` builds for ``x`` by default, or
    with ``--grid-max`` when ``grid_max`` is given."""
    spec = pipeline.model_spec(kind)
    lo, hi, size = pipeline.default_grid_spec(kind, x)
    grid = pipeline.build_grid(lo, hi if grid_max is None else grid_max,
                               size, spec.model.family)
    return SolverConfig(grid=grid, eta=spec.eta, gridless_enabled=True)


class TestRefinementCertifies:
    @pytest.mark.parametrize("seed, grid_optimum", [(3, -0.24782),
                                                    (5, -0.31004)])
    def test_matches_a_fine_grid_solve(self, seed, grid_optimum):
        # The optimum needs atoms next to x_(1), far below the 49-point
        # grid's first point: re-insertion must find them.
        x, config = _ls_refined_problem(seed)
        result = pipeline.fit("convex-ls", x, config)
        assert result.certificate.passed
        assert result.converged
        model = LsModel(x)
        fine = SolverConfig(grid=np.linspace(x.min(), 3.0 * x.max(), 20_000),
                            eta=1e-10)
        f, trace = core.solve(model, fine)
        assert trace.converged
        best = model.objective(f)
        assert abs(best - grid_optimum) <= 5e-6
        value = model.objective(result.measure)
        assert value <= best + 1e-9 * abs(best)

    def test_likelihood_reinserts(self):
        # A 12-point grid leaves the polished likelihood fit an atom
        # short: the grid scan fails once and re-insertion closes the gap.
        rng = np.random.default_rng(1)
        x = np.sort(rng.normal(size=50) + rng.exponential(size=50))
        result = pipeline.fit("deconv-ml", x, SolverConfig(
            grid=np.linspace(x[0], x[-1], 12), eta=1e-8,
            gridless_enabled=True))
        assert result.fine_tune_trace.insertions >= 1
        assert result.converged
        assert result.model.objective(result.measure) <= result.trace.objective[-1]

    def test_argmin_on_an_atom_ends_refinement(self, monkeypatch):
        # After 13 insertions the certificate fails only on its support
        # part and the scan's argmin is an atom; inserting it again made
        # the Gram matrix singular.  A 50-step polish cap reaches the
        # same state as the default cap in a hundredth of the time.
        monkeypatch.setattr(gridless, "_MAX_STEPS", 50)
        x = np.array([1e-9, 1.0, 2.0])
        result = pipeline.fit("convex-ls", x, _default_config("convex-ls", x))
        assert result.fine_tune_trace.insertions <= 13
        assert not result.converged

    def test_near_zero_sample_certifies_after_many_insertions(self):
        # Near-0 data whose refinement needs 25 insertions to certify.
        rng = np.random.default_rng(59)
        x = rng.uniform(size=rng.integers(3, 200)) ** 3
        result = pipeline.fit("convex-ls", x, _default_config("convex-ls", x))
        assert result.fine_tune_trace.insertions > 20
        assert result.converged

    def test_zero_observation_is_a_clear_error(self):
        # Rounding puts observations at 0, where the least squares
        # criterion is unbounded below; refinement used to chase an atom
        # toward 0 until the linear algebra failed.
        x = np.round(np.random.default_rng(0).exponential(size=200), 1)
        assert x.min() == 0.0
        grid = np.linspace(0.1, 3.0 * x.max(), 100)
        with pytest.raises(ValueError, match="unbounded below"):
            pipeline.fit("convex-ls", x, SolverConfig(
                grid=grid, eta=1e-10, gridless_enabled=True))


def _outlier_sample(case):
    """The 200-point sample of seed 3 with an outlier or scaled, or the
    12-point sample of seed 3."""
    if case == "n12":
        return (np.random.default_rng(3).normal(size=12)
                + np.random.default_rng(1003).exponential(size=12))
    x = pipeline.simulate_sample("exp-normal-mixture", 200, 3)
    if case.startswith("at"):
        return np.append(x, float(case[2:]))
    return float(case[1:]) * x


class TestOutliersAndWideData:
    """Data whose kernels underflow far from a single central atom: the
    start covers them, so every fit certifies in a few Newton steps."""

    @pytest.mark.parametrize("case", ["at20", "at40", "at60", "x3", "x10",
                                      "x50", "n12"])
    def test_default_fit_certifies(self, case):
        x = _outlier_sample(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = pipeline.fit("deconv-ml", x,
                                  _default_config("deconv-ml", x))
        assert result.converged
        assert result.trace.n_iterations <= 10


def _coarse_optimum(kind):
    """A model, its optimum over a coarse grid, the grid's config, and the
    argmin of a fine scan that the optimum fails."""
    if kind == "convex-ls":
        x = np.random.default_rng(3).exponential(size=60)
        model = LsModel(x)
        config = SolverConfig(grid=np.linspace(x.min(), 3.0 * x.max(), 8)[1:],
                              eta=1e-10)
        measure, trace = core.solve(model, config)
    else:
        rng = np.random.default_rng(1)
        x = np.sort(rng.normal(size=50) + rng.exponential(size=50))
        model = MlModel(x)
        config = SolverConfig(grid=np.linspace(x[0], x[-1], 6), eta=1e-8)
        measure, trace = mldeconv.newton_solve(model, config)
    assert trace.converged
    cert = core.check_optimality(model, measure, np.linspace(*model.domain, 2001),
                                 config.eta, config.support_tol)
    assert not cert.passed
    return model, measure, config, cert.argmin_theta


class TestMinimizeOverSupport:
    """One weight re-solve per model: over the support, plus ``theta``."""

    @pytest.mark.parametrize("kind", ["convex-ls", "deconv-ml"])
    def test_inserted_atom_joins_an_optimal_support(self, kind):
        model, measure, config, theta = _coarse_optimum(kind)
        f, deletions, inner = model.minimize_over_support(measure, config,
                                                          theta)
        support = np.union1d(measure.locations, theta)
        assert np.isin(f.locations, support).all()
        assert f.size + deletions == support.size
        cert = core.check_optimality(model, f, support, config.eta,
                                     config.support_tol)
        assert cert.passed
        assert all(v < model.objective(measure) for v in inner)
        assert model.objective(f) < model.objective(measure)

    def test_ls_without_theta_is_the_support_polish(self):
        model, measure, config, _ = _coarse_optimum("convex-ls")
        start = MixingMeasure(measure.locations, 1.1 * measure.weights)
        f, deletions, inner = model.minimize_over_support(start, config)
        expected, expected_deletions, expected_inner = \
            core._reduce_to_cone(model, start)
        np.testing.assert_array_equal(f.locations, expected.locations)
        np.testing.assert_array_equal(f.weights, expected.weights)
        assert (deletions, inner) == (expected_deletions, expected_inner)


class TestSpecTable:
    def test_defaults(self):
        ls = pipeline.model_spec("convex-ls")
        ml = pipeline.model_spec("deconv-ml")
        assert (ls.model, ls.eta, ls.nonnegative) == (LsModel, 1e-10, True)
        assert (ml.model, ml.eta, ml.nonnegative) == (MlModel, 1e-8, False)

    def test_default_grid_rule(self):
        x = np.array([0.5, 2.0, 1.0])
        assert pipeline.default_grid_spec("convex-ls", x) == (0.5, 6.0, 1000)
        assert pipeline.default_grid_spec("deconv-ml", x) == (0.5, 2.0, 500)

    def test_default_grid_is_the_model_domain(self):
        x = np.random.default_rng(3).exponential(size=25)
        for kind in pipeline.MODELS:
            spec = pipeline.model_spec(kind)
            assert pipeline.default_grid_spec(kind, x) == \
                (*spec.model(x).domain, spec.grid_size)

    def test_unknown_model_rejected(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="unknown model"):
            pipeline.default_grid_spec("kde", x)
        with pytest.raises(ValueError, match="unknown model"):
            pipeline.fit("kde", x, SolverConfig(grid=np.array([3.0])))


class TestStages:
    """``fit`` finds each stage by module attribute at call time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for module, name in ((core, "solve"), (mldeconv, "newton_solve"),
                             (gridless, "fine_tune")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return seen

    def test_ls_grid_solve_only(self, calls):
        x = np.random.default_rng(0).exponential(size=30)
        grid = np.linspace(x.min(), 3.0 * x.max(), 20)[1:]
        result = pipeline.fit("convex-ls", x, SolverConfig(grid=grid,
                                                           eta=1e-10))
        assert calls == ["solve"]
        assert result.fine_tune_trace is None
        assert result.converged

    def test_ml_newton_then_refinement(self, calls):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40) + rng.exponential(size=40)
        grid = np.linspace(x.min(), x.max(), 20)
        result = pipeline.fit("deconv-ml", x, SolverConfig(
            grid=grid, eta=1e-8, gridless_enabled=True))
        # the likelihood stages run core.solve on their quadratic models
        assert calls[0] == "newton_solve"
        assert calls.count("newton_solve") == calls.count("fine_tune") == 1
        assert calls.index("fine_tune") > calls.index("solve")
        assert result.grid_support_size >= result.measure.size
        cert = core.check_optimality(MlModel(x), result.measure, grid, 1e-8,
                                     1e-8)
        assert cert == result.certificate


class TestInfoLog:
    """At info level a fit logs one summary line per stage it ran."""

    @pytest.mark.parametrize("kind, sim, seed", [
        ("deconv-ml", "exp-normal-mixture", 11),
        ("convex-ls", "exponential", 1)])
    def test_one_line_per_stage(self, caplog, kind, sim, seed):
        # The default fit `mixfit fit` runs on a 500-point sample.
        x = pipeline.simulate_sample(sim, 500, seed)
        config = _default_config(kind, x)
        caplog.set_level(logging.INFO, logger="mixfit")
        result = pipeline.fit(kind, x, config)
        info = [r.getMessage() for r in caplog.records
                if r.name.startswith("mixfit") and r.levelno == logging.INFO]
        assert result.converged
        assert len(info) == 3
        assert info[0].startswith("grid stage converged")
        assert info[1].startswith("refinement stopped")
        assert info[2].startswith("certificate passed")


class TestCurves:
    def test_true_density_is_finite_on_wide_data(self, tmp_path):
        # exp(0.5 - x) overflows far left of the data, where ndtr is 0:
        # the density curve used to hold nan there
        x = np.random.default_rng(4).normal(size=12) * 2000
        result = pipeline.fit("deconv-ml", x, _default_config("deconv-ml", x))
        pipeline.emit_curves(tmp_path, result)
        xs, _, true = np.loadtxt(tmp_path / "curve_mixture_density.csv",
                                 delimiter=",", skiprows=1).T
        assert np.isfinite(true).all() and (true >= 0.0).all()
        probe = np.concatenate((xs, np.linspace(-800.0, 800.0, 160_001)))
        with np.errstate(over="ignore", invalid="ignore"):
            old = np.exp(0.5 - probe) * ndtr(probe - 1.0)
        new = pipeline.MODELS["deconv-ml"].density(probe)
        assert np.isfinite(new).all()
        finite = np.isfinite(old)
        assert (~finite).any()
        np.testing.assert_allclose(new[finite], old[finite], rtol=1e-14, atol=0)
