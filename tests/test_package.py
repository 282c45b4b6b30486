"""The package inits: public names load on first access."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_analysis_skips_numpy():
    """``simprof check`` and ``cache`` import no numeric stack via the init."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    code = "import sys, repro.analysis; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_public_names_resolve():
    from repro import SimProf, TraceStream
    from repro.core.pipeline import SimProf as pipeline_simprof
    from repro.jvm.stream import TraceStream as stream_cls

    assert SimProf is pipeline_simprof
    assert TraceStream is stream_cls
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope


#: Subpackages whose inits re-export lazily through ``_EXPORTS``.
LAZY_PACKAGES = (
    "repro.core",
    "repro.datagen",
    "repro.faults",
    "repro.hadoop",
    "repro.jvm",
    "repro.runtime",
    "repro.spark",
)


def _type_checking_imports(package: str) -> dict[str, str]:
    """``name -> module`` imported under the init's ``if TYPE_CHECKING:``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(path.read_text())
    found: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.dump(stmt)
                for alias in stmt.names:
                    found[alias.asname or alias.name] = stmt.module
    return found


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve(package):
    module = importlib.import_module(package)
    for name, source in module._EXPORTS.items():
        assert getattr(module, name) is getattr(importlib.import_module(source), name)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_imports_stay_visible(package):
    """The ``TYPE_CHECKING`` imports mirror ``_EXPORTS``: code fingerprints
    follow import statements, so the package keeps its import edges."""
    module = importlib.import_module(package)
    assert _type_checking_imports(package) == module._EXPORTS
