"""Package surface and demos: every exported name resolves and every demo
imports against the current API."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import saddlescape

MODULES = ["saddlescape"] + [
    f"saddlescape.{info.name}" for info in pkgutil.iter_modules(saddlescape.__path__)
]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path):
    # run_name is not "__main__", so the module body runs (imports and
    # definitions) without the demo itself.
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert namespace["__name__"] == "smoke"
