"""Every demo's ``main()`` runs to the end on the current API.

Demos that write curve files write them under a temporary directory in
place of ``demos/output``."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos")
               .glob("demo_*.py"))


def test_all_demos_found():
    assert [p.stem for p in DEMOS] == ["demo_baselines", "demo_convex_ls",
                                       "demo_deconv_ml"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    writes_curves = hasattr(module, "OUT")
    if writes_curves:
        monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    assert capsys.readouterr().out
    if writes_curves:
        assert len(list(tmp_path.glob("curve_*.csv"))) == 4
