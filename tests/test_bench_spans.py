"""The benchmark's span recorder (``benchmarks/spans.py``) times the
package by replacing names in its modules. Every name it wraps must
exist there, and uninstalling it must put every original back."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mmsbkit import run_sweep

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    """``benchmarks/spans.py``, loaded from its path without writing
    bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def wrapped_names(spans):
    for module_name, names in spans.TARGETS.items():
        module = importlib.import_module(f"mmsbkit.{module_name}")
        for name in names:
            yield module, name


def test_every_target_resolves(spans):
    missing = [f"{module.__name__}.{name}" for module, name in wrapped_names(spans) if not hasattr(module, name)]
    assert not missing


def test_uninstall_puts_every_original_back(spans):
    originals = {(module.__name__, name): getattr(module, name) for module, name in wrapped_names(spans)}
    recorder = spans.Recorder()
    recorder.install()
    try:
        replaced = [key for key, fn in originals.items() if getattr(sys.modules[key[0]], key[1]) is not fn]
    finally:
        recorder.uninstall()
    assert sorted(replaced) == sorted(originals)
    assert all(getattr(sys.modules[m], name) is fn for (m, name), fn in originals.items())


def test_an_in_process_sweep_is_traced_down_to_the_solvers(spans):
    from test_sweep import tiny_config

    recorder = spans.Recorder()
    recorder.install()
    try:
        run_sweep(tiny_config(reps=1), workers=1)
    finally:
        recorder.uninstall()
    names = {s.name for s in recorder.spans}
    assert {"sweep._run_trial", "spectral.leading_eigenpairs", "corners.one_class_svm"} <= names
    # the per-method layer metrics of the benchmark read these span names
    assert {"recovery.recover_from_basis.SRSC", "recovery.recover_from_basis.CRSC"} <= names
