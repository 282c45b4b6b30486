"""The ``repro`` package init: public names load on first access."""

from __future__ import annotations

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
