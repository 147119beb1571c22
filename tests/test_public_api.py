"""The package namespace re-exports every public module name and error class."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import degenwave
from degenwave import errors

MODULES = [
    importlib.import_module(f"degenwave.{info.name}")
    for info in pkgutil.iter_modules(degenwave.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_module_all_is_reexported(module):
    missing = [n for n in module.__all__ if getattr(degenwave, n, None) is not getattr(module, n)]
    assert not missing


def test_error_classes_are_reexported():
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.DegenWaveError) and cls.__module__ == errors.__name__
    ]
    assert errors.DegenWaveError in classes
    assert [c.__name__ for c in classes if getattr(degenwave, c.__name__, None) is not c] == []


def test_every_reexport_resolves():
    public = [n for n in vars(degenwave) if not n.startswith("_")]
    for name in public:
        obj = getattr(degenwave, name)
        if inspect.ismodule(obj):
            continue
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about a quarter second of every import and CLI run
    probe = "import sys, degenwave; print('scipy.optimize' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
