"""The benchmark's span recorder (``benchmarks/spans.py``) times the
package by replacing names in its modules. Every name it wraps must
exist there, and uninstalling it must put every original back."""

import ast
import importlib
import importlib.util
import io
import sys
import tokenize
from pathlib import Path

import pytest

import mmsbkit
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


#: The comment that keeps an otherwise unused import for the recorder.
TRACER_ONLY = "# noqa: F401 (benchmarks/spans.py wraps"


def tracer_only_imports():
    """The ``(module, line)`` of every package line that carries
    :data:`TRACER_ONLY`, and the ``(module, line, name)`` of every name
    imported on such a line."""
    marked, names = set(), []
    for path in sorted(Path(mmsbkit.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        lines = {t.start[0] for t in tokens if t.type == tokenize.COMMENT and t.string.startswith(TRACER_ONLY)}
        marked |= {(path.stem, line) for line in lines}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names += [(path.stem, a.lineno, a.asname or a.name) for a in node.names if a.lineno in lines]
    return marked, names


def test_tracer_only_imports_name_wrapped_functions(spans):
    # an import kept only for the recorder must be a name it wraps in that
    # module, so that the import goes when the recorder stops wrapping it
    marked, names = tracer_only_imports()
    assert {(module, line) for module, line, _ in names} == marked
    assert [(module, name) for module, _, name in names if name not in spans.TARGETS.get(module, ())] == []
