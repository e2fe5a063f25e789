"""The benchmark's layer tracer (``bench/tracer.py``) still finds every
name it wraps, so a rename in ``mixfit`` cannot silently break
``bench/run.py --trace 1``.  The tracer is only read here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves():
    missing = []
    for name, mod_name, owner_name, attr in _tracer_targets():
        module = importlib.import_module(f"mixfit.{mod_name}")
        if owner_name is None:
            found = callable(getattr(module, attr, None))
        else:
            owner = getattr(module, owner_name, None)
            found = owner is not None and callable(vars(owner).get(attr))
        if not found:
            missing.append(f"{name}: mixfit.{mod_name}."
                           f"{owner_name + '.' if owner_name else ''}{attr}")
    assert missing == []


def test_halving_cap_resolves():
    # the tracer counts damped-update trials from this cap
    from mixfit import mldeconv

    assert isinstance(mldeconv._MAX_HALVINGS, int)
    assert mldeconv._MAX_HALVINGS > 0
