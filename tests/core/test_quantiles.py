"""The quantiles SimProf computes through ``scipy.special``.

``z_for_confidence`` and the F-critical value behind feature selection
evaluate the same ``scipy.special`` functions that ``scipy.stats``
wraps, so they must match ``scipy.stats`` bit for bit.  Importing
``scipy.stats`` costs most of a second and ~40 MB per process, so the
CLI must start without it; ``z_for_confidence`` serves the levels the
program uses from a table of ``ndtri`` floats, so a warm report never
imports scipy at all.  Feature selection brackets the F-critical value
in pure Python and asks scipy only for a score inside the bracket, so
a cold run never imports scipy either.  Table I reads class attributes
only, so it must not load the substrate simulators either; a warm
report never profiles, so it must not load the profiler.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.core.features import _f_critical, _f_critical_bracket
from repro.core.sampling import _Z_TABLE, z_for_confidence

SRC = Path(__file__).resolve().parents[2] / "src"


def test_z_for_confidence_matches_norm_ppf():
    for confidence in np.linspace(0.0, 1.0, 2001)[1:-1].tolist() + [0.997, 0.95]:
        expected = float(stats.norm.ppf(0.5 + confidence / 2.0))
        assert z_for_confidence(confidence) == expected, confidence


@pytest.mark.parametrize("dfd", [1, 2, 3, 10, 48, 200, 5000])
def test_f_critical_matches_f_isf(dfd):
    for q in np.logspace(-9, 0, 40).tolist() + [0.5, 0.01 / 300]:
        assert _f_critical(q, dfd) == float(stats.f.isf(q, 1, dfd)), (q, dfd)


@pytest.mark.parametrize("dfd", [1, 2, 3, 10, 48, 200, 5000, 20000])
def test_f_critical_bracket_holds_fdtri(dfd):
    for q in np.logspace(-12, 0, 40).tolist() + [0.5, 0.01 / 300]:
        lo, hi = _f_critical_bracket(q, dfd)
        assert lo <= _f_critical(q, dfd) <= hi, (q, dfd)
        assert hi - lo <= 1e-6 * lo, (q, dfd)


def test_z_table_holds_exact_ndtri_floats():
    from scipy import special

    assert 0.997 in _Z_TABLE
    for confidence, z in _Z_TABLE.items():
        assert z == float(special.ndtri(0.5 + confidence / 2.0)), confidence
        assert z_for_confidence(confidence) == z


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    assert _run_python(code) == "False"


def test_report_import_loads_no_scipy():
    code = (
        "import sys, repro.cli, repro.experiments.report\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_python(code) == "[]"


def test_table1_loads_no_substrate_simulator():
    code = (
        "import sys, repro.workloads\n"
        "from repro.experiments.table1 import run_table1\n"
        "run_table1()\n"
        "print(sorted(m for m in ('repro.spark.executor', 'repro.hadoop.runtime')"
        " if m in sys.modules))"
    )
    assert _run_python(code) == "[]"


def test_featurizing_cold_loads_no_scipy():
    code = (
        "import sys\n"
        "from repro.core.pipeline import SimProf, SimProfConfig\n"
        "from repro.workloads import run_workload\n"
        "tool = SimProf(SimProfConfig(unit_size=10_000_000, snapshot_period=500_000))\n"
        "for name in ('wc', 'cc'):\n"
        "    job = tool.profile(run_workload(name, 'spark', scale=0.01, seed=0))\n"
        "    assert tool.form_phases(job).space.n_features > 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_python(code) == "[]"


def test_warm_report_modules_load_no_profiler():
    code = (
        "import sys, repro.cli, repro.experiments.report\n"
        "from repro.core.pipeline import SimProfConfig\n"
        "SimProfConfig().profiler_config()\n"
        "print(sorted(m for m in ('repro.core.profiler', 'repro.jvm.stream',"
        " 'repro.jvm.segments', 'repro.runtime.snapshot') if m in sys.modules))"
    )
    assert _run_python(code) == "[]"
