"""Command line behavior: simulation reproducibility, file formats,
fit outputs, the optimality checker, and logging configuration."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

import mixfit
from mixfit import pipeline
from mixfit.cli import main
from mixfit.pipeline import (
    ingest,
    read_measure,
    simulate_sample,
    write_measure,
    write_sample,
)
from mixfit.families import MixingMeasure


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env or {"MIXFIT_LOG": "off"},
                         catch_exceptions=True)


class TestSimulate:
    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            res = _invoke(runner, ["simulate", "--kind", "exponential",
                                   "--n", "50", "--seed", "7",
                                   "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert a.read_bytes() == b.read_bytes()

    def test_exponential_mean(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        res = _invoke(runner, ["simulate", "--kind", "exponential",
                               "--n", "100000", "--seed", "1",
                               "--out", str(out)])
        assert res.exit_code == 0
        x = ingest(out)
        assert x.size == 100000
        assert np.all(x >= 0)
        assert abs(x.mean() - 1.0) <= 3.0 / math.sqrt(100000)

    def test_mixture_mean(self, runner, tmp_path):
        # location Exp(1) plus N(0,1) noise: mean 1, variance 2
        out = tmp_path / "s.txt"
        res = _invoke(runner, ["simulate", "--kind", "exp-normal-mixture",
                               "--n", "100000", "--seed", "2",
                               "--out", str(out)])
        assert res.exit_code == 0
        x = ingest(out)
        assert abs(x.mean() - 1.0) <= 3.0 * math.sqrt(2.0 / 100000)
        assert np.any(x < 0)  # the noise makes negatives possible

    def test_matches_library_call(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        _invoke(runner, ["simulate", "--kind", "exponential", "--n", "20",
                         "--seed", "11", "--out", str(out)])
        assert_allclose(ingest(out), np.sort(simulate_sample("exponential", 20, 11)),
                        rtol=0, atol=0)

    def test_unknown_kind_rejected(self, runner, tmp_path):
        res = _invoke(runner, ["simulate", "--kind", "weibull", "--n", "5",
                               "--seed", "0", "--out", str(tmp_path / "x")])
        assert res.exit_code != 0


class TestIngest:
    def test_comments_and_blanks_skipped_and_sorted(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# header\n\n2.5\n0.5\n\n# trailing\n1.5\n")
        assert_allclose(ingest(p), [0.5, 1.5, 2.5])

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\n2.0\nbogus\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\ninf\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest(p)

    def test_negative_policy(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\n-0.5\n")
        assert_allclose(ingest(p), [-0.5, 1.0])
        with pytest.raises(ValueError, match="negative observation"):
            ingest(p, nonnegative=True)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no observations"):
            ingest(p)

    def test_sample_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        x = np.sort(rng.exponential(size=40) * rng.uniform(1e-8, 1e8, 40))
        p = tmp_path / "s.txt"
        write_sample(p, x, header=("roundtrip",))
        back = ingest(p)
        assert np.array_equal(back, x)


class TestMeasureRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        f = MixingMeasure(np.sort(rng.uniform(0.1, 9.0, 6)),
                          rng.uniform(1e-12, 2.0, 6))
        p = tmp_path / "m.csv"
        write_measure(p, f)
        g = read_measure(p)
        assert np.array_equal(g.locations, f.locations)
        assert np.array_equal(g.weights, f.weights)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_measure(p)

    @pytest.mark.parametrize("row, message", [
        ("1.0,abc", "line 3: not a number: 'abc'"),
        ("x,1.0", "line 3: not a number: 'x'"),
        ("1.0,nan", "line 3: non-finite value"),
        ("inf,1.0", "line 3: non-finite value"),
    ], ids=[   # fixed names, so that a message edit renames no test
        "1.0,abc-line 3: not a number: 'abc'", "x,1.0-line 3: not a number: 'x'",
        "1.0,nan-line 3: non-finite value", "inf,1.0-line 3: non-finite value"])
    def test_bad_field_names_path_and_line(self, tmp_path, row, message):
        p = tmp_path / "m.csv"
        p.write_text(f"theta,weight\n0.5,1.0\n{row}\n")
        with pytest.raises(ValueError) as info:
            read_measure(p)
        assert str(info.value) == f"{p}: {message}"


def _report_dict(path):
    out = {}
    atoms = []
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("atom_"):
            t, w = value.split(",")
            atoms.append((float(t), float(w)))
        else:
            out[key] = value
    out["atoms"] = atoms
    return out


class TestFitCommand:
    def _simulate(self, runner, tmp_path, kind, n, seed):
        p = tmp_path / "sample.txt"
        res = _invoke(runner, ["simulate", "--kind", kind, "--n", str(n),
                               "--seed", str(seed), "--out", str(p)])
        assert res.exit_code == 0
        return p

    def test_convex_ls_end_to_end(self, runner, tmp_path):
        sample = self._simulate(runner, tmp_path, "exponential", 120, 3)
        out = tmp_path / "fit"
        res = _invoke(runner, ["fit", "convex-ls", str(sample),
                               "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        assert "converged" in res.output
        for name in ("measure.csv", "report.txt", "curve_mixing_cdf.csv",
                     "curve_mixture_density.csv",
                     "curve_directional_derivative.csv",
                     "curve_mixture_cdf.csv"):
            assert (out / name).exists(), name

        report = _report_dict(out / "report.txt")
        assert report["model"] == "convex-ls"
        assert report["converged"] == "true"
        assert report["cert_passed"] == "true"
        assert report["n_observations"] == "120"
        assert abs(float(report["total_mass"]) - 1.0) <= 1e-5

        measure = read_measure(out / "measure.csv")
        assert len(report["atoms"]) == measure.size
        for (t, w), loc, weight in zip(report["atoms"], measure.locations,
                                       measure.weights):
            assert t == loc and w == weight

        # certificate curve: the scan the solver terminated on
        rows = (out / "curve_directional_derivative.csv").read_text().splitlines()
        assert rows[0] == "theta,alt_dir_deriv"
        vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert vals.min() >= -1e-10 * 1.001
        assert len(vals) == int(report["grid_size"])

    def test_report_renders_the_fit_record(self, runner, tmp_path,
                                           monkeypatch):
        # The CI's re-insertion sample on an 8-point grid: report.txt
        # holds its 22 keys in this order, each value exactly the fit's,
        # then the atoms exactly as measure.csv writes them.
        sample = self._simulate(runner, tmp_path, "exp-normal-mixture",
                                500, 2)
        results = []
        fit = pipeline.fit
        monkeypatch.setattr(pipeline, "fit", lambda *args: results.append(
            fit(*args)) or results[-1])
        out = tmp_path / "fitins"
        res = _invoke(runner, ["fit", "deconv-ml", str(sample),
                               "--grid-size", "8", "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        (r,) = results
        cfg, cert, ft = r.config, r.certificate, r.fine_tune_trace
        expected = {
            "model": "deconv-ml",
            "n_observations": 500,
            "grid_min": float(cfg.grid[0]),
            "grid_max": float(cfg.grid[-1]),
            "grid_size": 8,
            "eta": 1e-8,
            "max_iter": 10_000,
            "gridless": True,
            "gridless_tol": 1e-6,
            "converged": True,
            "outer_iterations": r.trace.n_iterations,
            "fine_tune_steps": ft.steps,
            "insertions": 1,
            "final_objective": r.model.objective(r.measure),
            "support_size": r.measure.size,
            "grid_support_size": r.grid_support_size,
            "total_mass": r.measure.total_mass(),
            "cert_min_grid_alt": cert.min_grid_alt,
            "cert_min_grid_raw": cert.min_grid_raw,
            "cert_max_abs_support": cert.max_abs_support,
            "cert_passed": True,
            "wall_time_s": r.wall_time,
        }
        lines = (out / "report.txt").read_text().splitlines()
        head = [line.partition(": ") for line in lines[:len(expected)]]
        assert [key for key, _, _ in head] == list(expected)
        for key, _, text in head:
            want = expected[key]
            if isinstance(want, bool):
                assert text == ("true" if want else "false"), key
            elif isinstance(want, float):
                assert float(text) == want, key
            else:
                assert text == str(want), key
        rows = (out / "measure.csv").read_text().splitlines()[1:]
        assert lines[len(expected):] == [f"atom_{i}: {row}"
                                         for i, row in enumerate(rows)]

    def test_single_observation_fit(self, runner, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("1.0\n")
        out = tmp_path / "fit1"
        res = _invoke(runner, ["fit", "convex-ls", str(p),
                               "--out-dir", str(out)])
        assert res.exit_code == 0, res.output

    def test_deconv_ml_with_refinement(self, runner, tmp_path):
        sample = self._simulate(runner, tmp_path, "exp-normal-mixture", 80, 5)
        out = tmp_path / "fitml"
        res = _invoke(runner, ["fit", "deconv-ml", str(sample),
                               "--grid-size", "60", "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        report = _report_dict(out / "report.txt")
        assert report["gridless"] == "true"  # default for this model
        assert report["converged"] == "true"
        assert abs(float(report["total_mass"]) - 1.0) <= 1e-6

    def test_gridless_can_be_disabled(self, runner, tmp_path):
        sample = self._simulate(runner, tmp_path, "exp-normal-mixture", 40, 9)
        out = tmp_path / "fitng"
        res = _invoke(runner, ["fit", "deconv-ml", str(sample),
                               "--grid-size", "40", "--no-gridless",
                               "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        report = _report_dict(out / "report.txt")
        assert report["gridless"] == "false"
        assert report["fine_tune_steps"] == "0"

    def test_nonconvergence_exit_code(self, runner, tmp_path):
        sample = self._simulate(runner, tmp_path, "exponential", 120, 3)
        out = tmp_path / "fitcap"
        res = _invoke(runner, ["fit", "convex-ls", str(sample),
                               "--max-iter", "1", "--out-dir", str(out)])
        assert res.exit_code == 1
        report = _report_dict(out / "report.txt")
        assert report["converged"] == "false"

    def test_negative_data_rejected_for_convex_ls(self, runner, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("1.0\n-0.25\n")
        res = _invoke(runner, ["fit", "convex-ls", str(p),
                               "--out-dir", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "negative observation" in res.output

    def test_zero_observation_rejected_for_convex_ls(self, runner, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text("0\n0.4\n1.3\n2.2\n")
        res = _invoke(runner, ["fit", "convex-ls", str(p),
                               "--out-dir", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "unbounded below" in res.output
        assert "Traceback" not in res.output
        assert isinstance(res.exception, SystemExit)

    def test_malformed_input_names_line(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\nnope\n")
        res = _invoke(runner, ["fit", "convex-ls", str(p),
                               "--out-dir", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "line 2" in res.output


class TestCheckCommand:
    def test_fitted_measure_passes(self, runner, tmp_path):
        p = tmp_path / "sample.txt"
        _invoke(runner, ["simulate", "--kind", "exponential", "--n", "120",
                         "--seed", "3", "--out", str(p)])
        out = tmp_path / "fit"
        res = _invoke(runner, ["fit", "convex-ls", str(p),
                               "--out-dir", str(out)])
        assert res.exit_code == 0
        res = _invoke(runner, ["check", str(out / "measure.csv"), str(p),
                               "--model", "convex-ls"])
        assert res.exit_code == 0, res.output
        assert "passed: true" in res.output

    def test_tampered_measure_fails(self, runner, tmp_path):
        p = tmp_path / "sample.txt"
        _invoke(runner, ["simulate", "--kind", "exponential", "--n", "120",
                         "--seed", "3", "--out", str(p)])
        out = tmp_path / "fit"
        _invoke(runner, ["fit", "convex-ls", str(p), "--out-dir", str(out)])
        f = read_measure(out / "measure.csv")
        write_measure(out / "measure.csv",
                      MixingMeasure(f.locations, f.weights * 1.1))
        res = _invoke(runner, ["check", str(out / "measure.csv"), str(p),
                               "--model", "convex-ls"])
        assert res.exit_code == 1
        assert "passed: false" in res.output

    @pytest.mark.parametrize("rows, why", [
        ("", ": the measure has no atoms"),
        ("100,1\n", ", 102 from the nearest atom: Gaussian kernels underflow "
                    "beyond about 38 noise units"),
    ], ids=["empty", "far"])
    def test_vanishing_likelihood_mixture_fails(self, runner, tmp_path, rows,
                                                why):
        # The mixture is 0 at some observation: the likelihood is infinite
        # there, so the measure is not optimal and has no certificate.
        p = tmp_path / "sample.txt"
        _invoke(runner, ["simulate", "--kind", "exp-normal-mixture", "--n",
                         "200", "--seed", "3", "--out", str(p)])
        (tmp_path / "m.csv").write_text("theta,weight\n" + rows)
        res = _invoke(runner, ["check", str(tmp_path / "m.csv"), str(p),
                               "--model", "deconv-ml"])
        assert res.exit_code == 1
        assert res.output == ("passed: false (the mixture vanishes at "
                              f"observation -2.0147686270949832{why})\n")
        assert isinstance(res.exception, SystemExit)

    def test_defaults_to_the_tolerances_fit_certifies_with(self, runner,
                                                          tmp_path):
        # fit fails this measure's certificate at convex-ls's eta 1e-10;
        # check used to pass it at 1e-8 for both halves
        p = tmp_path / "sample.txt"
        p.write_text("9085.981764677768\n11602.566459262558\n"
                     "2303.222569805761\n")
        out = tmp_path / "fit"
        res = _invoke(runner, ["fit", "convex-ls", str(p), "--max-iter", "2",
                               "--no-gridless", "--out-dir", str(out)])
        assert res.exit_code == 1
        check = ["check", str(out / "measure.csv"), str(p),
                 "--model", "convex-ls"]
        res = _invoke(runner, check)
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert "grid_tol: 1e-10" in lines and "support_tol: 1e-08" in lines
        assert -1e-8 < float(lines[0].split(": ")[1]) < -1e-10
        assert lines[-1] == "passed: false"
        # an explicit --tol sets both halves
        res = _invoke(runner, check + ["--tol", "1e-8"])
        assert res.exit_code == 0
        assert {"grid_tol: 1e-08", "support_tol: 1e-08",
                "passed: true"} <= set(res.output.splitlines())

    def test_empty_ls_measure_prints_certificate(self, runner, tmp_path):
        p = tmp_path / "sample.txt"
        p.write_text("0.5\n1.0\n2.0\n")
        (tmp_path / "m.csv").write_text("theta,weight\n")
        res = _invoke(runner, ["check", str(tmp_path / "m.csv"), str(p),
                               "--model", "convex-ls"])
        assert res.exit_code == 1
        assert "support_size: 0" in res.output
        assert "passed: false" in res.output


class TestInputErrors:
    """Bad input is a usage error (exit 2, message, no traceback); exit 1
    means a run that did not converge or certify."""

    @pytest.mark.parametrize("case", ["gridless-tol", "grid-size",
                                      "simulate-n", "measure-field",
                                      "atom-below-domain", "atom-on-edge",
                                      "eta-inf", "check-tol-negative",
                                      "check-tol-inf", "measure-repeated",
                                      "measure-weight-zero", "far-observation",
                                      "grid-min-inf", "grid-max-inf",
                                      "grid-max-nan", "ls-scale-1e-160",
                                      "check-ls-scale-1e-160"])
    def test_usage_error_without_traceback(self, runner, tmp_path, case):
        sample = tmp_path / "s.txt"
        sample.write_text("0.5\n1.0\n2.0\n")
        far = tmp_path / "w.txt"
        far.write_text("0\n0\n0\n0\n0\n200\n")
        tiny = tmp_path / "tiny.txt"
        np.savetxt(tiny, np.random.default_rng(7).exponential(size=60) * 1e-160,
                   fmt="%.17g")
        out = str(tmp_path / "o")
        check = ["check", str(tmp_path / "m.csv"), str(sample),
                 "--model", "convex-ls"]
        args, message = {
            "gridless-tol": (["fit", "convex-ls", str(sample), "--gridless",
                              "--gridless-tol", "-1", "--out-dir", out],
                             "gridless_tol must be nonnegative"),
            "grid-size": (["fit", "convex-ls", str(sample), "--grid-size",
                           "0", "--out-dir", out],
                          "grid size must be positive"),
            "simulate-n": (["simulate", "--kind", "exponential", "--n", "0",
                            "--seed", "0", "--out", str(tmp_path / "n.txt")],
                           "sample size must be positive"),
            "measure-field": (check, "line 2: not a number: 'abc'"),
            # The triangular kernel's parameter lives in (0, inf).
            "atom-below-domain": (check, "m.csv: atom -1.0 is outside the "
                                         "parameter domain (0, inf)"),
            "atom-on-edge": (check, "m.csv: atom 0.0 is outside the "
                                    "parameter domain (0, inf)"),
            # An infinite tolerance passes every certificate.
            "eta-inf": (["fit", "convex-ls", str(sample), "--eta", "inf",
                         "--out-dir", out], "eta must be positive and finite"),
            "check-tol-negative": (check + ["--tol", "-1"],
                                   "--tol must be positive and finite"),
            "check-tol-inf": (check + ["--tol", "inf"],
                              "--tol must be positive and finite"),
            # Rows that parse but do not form a measure name the file.
            "measure-repeated": (check, "m.csv: atom locations must be "
                                        "strictly increasing"),
            "measure-weight-zero": (check, "m.csv: MixingMeasure weights must "
                                           "be strictly positive"),
            # Every Gaussian kernel underflows at the observation 200.
            "far-observation": (["fit", "deconv-ml", str(far), "--grid-size",
                                 "1", "--out-dir", out],
                                "vanishes at observation 200, 200 from the "
                                "nearest grid point"),
            # np.linspace turns an infinite bound into nan grid points.
            "grid-min-inf": (["fit", "deconv-ml", str(sample), "--grid-min",
                              "-inf", "--out-dir", out],
                             "grid min -inf and grid max 2 must be finite"),
            "grid-max-inf": (["fit", "deconv-ml", str(sample), "--grid-max",
                              "inf", "--out-dir", out],
                             "grid min 0.5 and grid max inf must be finite"),
            "grid-max-nan": (["fit", "deconv-ml", str(sample), "--grid-max",
                              "nan", "--out-dir", out],
                             "grid min 0.5 and grid max nan must be finite"),
            # 2 / theta^2 overflows on the default grid of this sample.
            "ls-scale-1e-160": (["fit", "convex-ls", str(tiny), "--out-dir",
                                 out], "the directional derivative scan is "
                                       "not finite on data of scale 3.8e-160"
                                       "; rescale the data\n"),
            # The same scan from check is not a certificate either.
            "check-ls-scale-1e-160": (["check", str(tmp_path / "m.csv"),
                                       str(tiny), "--model", "convex-ls"],
                                      "the directional derivative scan is "
                                      "not finite on data of scale 3.8e-160"
                                      "; rescale the data\n"),
        }[case]
        rows = {"atom-below-domain": "-1.0,0.5\n2.0,0.5\n",
                "atom-on-edge": "0.0,0.5\n2.0,0.5\n",
                "check-tol-negative": "1.0,0.5\n2.0,0.5\n",
                "check-tol-inf": "1.0,0.5\n2.0,0.5\n",
                "measure-repeated": "1,0.5\n1,0.5\n",
                "measure-weight-zero": "1.0,0.5\n2.0,0\n",
                "check-ls-scale-1e-160": "4e-160,1\n"}.get(case, "1.0,abc\n")
        (tmp_path / "m.csv").write_text("theta,weight\n" + rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _invoke(runner, args)
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert "Traceback" not in res.output
        assert isinstance(res.exception, SystemExit)


class TestLogging:
    def test_invalid_level_is_a_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--kind", "exponential",
                                   "--n", "5", "--seed", "0",
                                   "--out", str(tmp_path / "s.txt")],
                            env={"MIXFIT_LOG": "loud"})
        assert res.exit_code == 2
        assert "MIXFIT_LOG" in res.output

    def test_trace_level_accepted(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--kind", "exponential",
                                   "--n", "5", "--seed", "0",
                                   "--out", str(tmp_path / "s.txt")],
                            env={"MIXFIT_LOG": "trace"})
        assert res.exit_code == 0


class TestImportCost:
    def test_cli_does_not_import_scipy_stats(self):
        # A fresh interpreter: test_demos imports the demos into this one.
        src = Path(mixfit.__file__).resolve().parents[1]
        code = "import sys, mixfit.cli; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
