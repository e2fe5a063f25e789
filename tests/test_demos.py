"""Every demo's ``main()`` runs to the end on the current API, and the
two classical hull rules that ``demo_baselines`` defines take the steps
they promise.

Demos that write curve files write them under a temporary directory in
place of ``demos/output``.  The hull rules are checked against their
closed-form step and against epsilon scans along their segment.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixfit import (
    MixingMeasure,
    SignedMixingMeasure,
    combine,
    dir_deriv_measure,
)
from mixfit.lsconvex import LsModel

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("demo_*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_baselines = _load(DEMO_DIR / "demo_baselines.py")
fedorov_wynn_step = _baselines.fedorov_wynn_step
vertex_exchange_step = _baselines.vertex_exchange_step


def test_all_demos_found():
    assert [p.stem for p in DEMOS] == ["demo_baselines", "demo_convex_ls",
                                       "demo_deconv_ml"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, tmp_path, monkeypatch, capsys):
    module = _load(path)
    writes_curves = hasattr(module, "OUT")
    if writes_curves:
        monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    assert capsys.readouterr().out
    if writes_curves:
        assert len(list(tmp_path.glob("curve_*.csv"))) == 4


class TestFedorovWynn:
    def test_returns_same_object_at_optimum(self):
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([2.0], [0.75])
        out = fedorov_wynn_step(m, f, np.array([2.0]))
        assert out is f

    def test_step_matches_closed_form(self):
        rng = np.random.default_rng(59)
        x = rng.exponential(size=20)
        m = LsModel(x)
        f = MixingMeasure([0.5, 1.2, 2.5], [1 / 3, 1 / 3, 1 / 3])
        grid = np.linspace(0.2, 3.5, 12)
        out = fedorov_wynn_step(m, f, grid)
        dvals = m.dir_deriv_vertex(grid, f)
        d_self = dir_deriv_measure(m, f, f)
        idx = int(np.argmin(dvals - d_self))
        vertex = MixingMeasure([float(grid[idx])], [1.0])
        direction = combine(vertex, 1.0, f, -1.0)
        slope = float(dvals[idx] - d_self)
        eps = min(max(-slope / m.segment_curvature(direction), 0.0), 1.0)
        expected = combine(f, 1.0 - eps, vertex, eps)
        assert_allclose(m.objective(out), m.objective(expected), rtol=1e-12)
        assert m.objective(out) < m.objective(f)

    def test_no_worse_than_epsilon_scan(self):
        rng = np.random.default_rng(61)
        x = rng.exponential(size=20)
        m = LsModel(x)
        f = MixingMeasure([0.6, 1.4], [0.5, 0.5])
        grid = np.linspace(0.3, 3.0, 9)
        out = fedorov_wynn_step(m, f, grid)
        dvals = m.dir_deriv_vertex(grid, f)
        idx = int(np.argmin(dvals - dir_deriv_measure(m, f, f)))
        vertex = MixingMeasure([float(grid[idx])], [1.0])
        scans = [m.objective(combine(f, 1.0 - e, vertex, e))
                 for e in np.linspace(0.0, 1.0, 2001)]
        assert m.objective(out) <= min(scans) + 1e-9

    def test_empty_measure_rejected(self):
        m = LsModel(np.array([1.0]))
        with pytest.raises(ValueError):
            fedorov_wynn_step(m, MixingMeasure.empty(), np.array([2.0]))


class TestVertexExchange:
    def test_full_exchange_removes_donor(self):
        # donor kernel nearly coincides with the better grid vertex, so
        # the segment is almost flat and the optimal step caps at 1
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([1.9999], [1.0])
        out = vertex_exchange_step(m, f, np.array([2.0]))
        assert_allclose(out.locations, [2.0])
        assert out.weights[0] == 1.0  # conserved bit for bit
        assert out.size == 1

    def test_mass_conserved(self):
        rng = np.random.default_rng(97)
        x = rng.exponential(size=20)
        m = LsModel(x)
        f = MixingMeasure([0.5, 1.2, 2.5], [1 / 3, 1 / 3, 1 / 3])
        out = vertex_exchange_step(m, f, np.linspace(0.2, 3.5, 10))
        assert abs(out.total_mass() - f.total_mass()) <= 1e-15
        assert m.objective(out) < m.objective(f)

    def test_returns_same_object_when_donor_is_recipient(self):
        m = LsModel(np.array([1.0]))
        f = MixingMeasure([2.0], [0.75])
        out = vertex_exchange_step(m, f, np.array([2.0]))
        assert out is f

    def test_no_worse_than_epsilon_scan(self):
        rng = np.random.default_rng(101)
        x = rng.exponential(size=25)
        m = LsModel(x)
        f = MixingMeasure([0.7, 1.8], [0.5, 0.5])
        grid = np.linspace(0.3, 3.2, 8)
        out = vertex_exchange_step(m, f, grid)
        dvals = m.dir_deriv_vertex(grid, f)
        at_sup = m.dir_deriv_vertex(f.locations, f)
        donor = float(f.locations[np.argmax(at_sup)])
        recipient = float(grid[np.argmin(dvals)])
        mass = float(f.weights[np.argmax(at_sup)])
        direction = SignedMixingMeasure.from_atoms(
            [recipient, donor], [mass, -mass])
        scans = [m.objective(combine(f, 1.0, direction, e))
                 for e in np.linspace(0.0, 1.0, 2001)]
        assert m.objective(out) <= min(scans) + 1e-9

    def test_empty_measure_rejected(self):
        m = LsModel(np.array([1.0]))
        with pytest.raises(ValueError):
            vertex_exchange_step(m, MixingMeasure.empty(), np.array([2.0]))
