"""Two-pass engine behaviour: caching, parallelism, ``--changed``.

The acceptance bar for the engine is *byte-identity*: serial, parallel
and warm-cache runs of the same tree must render the exact same JSON
report, and a warm re-run must serve every module from the
ArtifactStore instead of re-analyzing it.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, render_json, render_sarif, run_check
from repro.cli import main
from repro.runtime.store import ArtifactStore

BASE = """\
class Checkpointable:
    def snapshot(self):
        return {}

    def restore(self, payload):
        pass
"""

CHILD = """\
from repro.core.base import Checkpointable


class Runner(Checkpointable):
    def __init__(self):
        self._pending = []

    def push(self, x):
        self._pending.append(x)
"""

OTHER = """\
import random


def jitter():
    return random.random()
"""


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "base.py").write_text(BASE)
    (pkg / "child.py").write_text(CHILD)  # SPA009: _pending never restored
    (pkg / "other.py").write_text(OTHER)  # SPA001, no project imports
    return tmp_path


def render(result):
    return render_json(result)


class TestByteIdentity:
    def test_serial_parallel_and_warm_render_identically(self, tree, tmp_path):
        serial = render(run_check([tree]))
        parallel = render(run_check([tree], jobs=2))
        store = ArtifactStore(tmp_path / "cache")
        cold = render(run_check([tree], store=store))
        warm = render(run_check([tree], store=store))
        assert serial == parallel == cold == warm
        doc = json.loads(serial)
        assert sorted({f["rule"] for f in doc["new"]}) == ["SPA001", "SPA009"]

    def test_parallel_warm_combination(self, tree, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = render(run_check([tree], jobs=2, store=store))
        warm = render(run_check([tree], jobs=2, store=store))
        assert cold == warm


class TestCacheHits:
    def test_warm_run_hits_store_for_every_module(self, tree, tmp_path):
        root = tmp_path / "cache"
        cold = run_check([tree], store=ArtifactStore(root))
        assert cold.n_cached == 0

        # A *fresh* store instance has an empty memory tier: every
        # pass-1 payload and every pass-2 rule result must come off
        # disk.
        fresh = ArtifactStore(root)
        warm = run_check([tree], store=fresh)
        assert warm.n_cached == warm.n_files == 3
        assert warm.n_project_cached == 5  # SPA009-SPA013
        assert fresh.stats.disk_hits >= warm.n_files + warm.n_project_cached

    def test_editing_one_file_reanalyzes_only_it(self, tree, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_check([tree], store=store)
        target = tree / "src" / "repro" / "core" / "other.py"
        target.write_text(OTHER + "\n# trailing comment\n")
        result = run_check([tree], store=store)
        assert result.n_cached == 2  # base + child unchanged
        # The project digest changed with the file, so pass 2 re-ran.
        assert result.n_project_cached == 0

    def test_rule_selection_keys_the_cache(self, tree, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        full = run_check([tree], store=store)
        subset = run_check([tree], rule_ids=["SPA001"], store=store)
        assert subset.n_cached == 0  # different signature, no reuse
        assert [f.rule for f in subset.findings] == ["SPA001"]
        assert len(full.findings) == 2


class TestChangedOnly:
    def test_closure_over_reverse_imports(self, tree, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_check([tree], store=store)

        # Touch the base module: child imports it, other does not.
        base = tree / "src" / "repro" / "core" / "base.py"
        base.write_text(BASE + "\n# touched\n")
        result = run_check([tree], store=store, changed_only=True)
        reported = {Path(p).name for p in (result.skipped or [])}
        assert reported == {"other.py"}
        rules = sorted({f.rule for f in result.findings})
        assert rules == ["SPA009"]  # other.py's SPA001 filtered out

    def test_unchanged_tree_skips_everything(self, tree, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_check([tree], store=store)
        result = run_check([tree], store=store, changed_only=True)
        assert len(result.skipped) == 3
        assert result.findings == []
        assert result.exit_code() == 0


class TestProjectFindingsThroughChecker:
    def test_project_finding_suppressed_at_anchor(self, tree):
        child = tree / "src" / "repro" / "core" / "child.py"
        child.write_text(
            CHILD.replace(
                "        self._pending = []",
                "        # simprof: ignore[SPA009] -- rebuilt by scheduler\n"
                "        self._pending = []",
            )
        )
        result = run_check([tree])
        assert sorted({f.rule for f in result.findings}) == ["SPA001"]
        assert result.suppressed == 1

    def test_unused_suppression_reported(self, tree):
        other = tree / "src" / "repro" / "core" / "other.py"
        other.write_text(
            "def quiet():\n"
            "    return 1  # simprof: ignore[SPA001]\n"
        )
        result = run_check([tree])
        assert len(result.unused_suppressions) == 1
        path, line, rules = result.unused_suppressions[0]
        assert Path(path).name == "other.py"
        assert line == 2
        assert rules == ("SPA001",)

    def test_used_suppression_not_reported_on_warm_run(self, tree, tmp_path):
        other = tree / "src" / "repro" / "core" / "other.py"
        other.write_text(OTHER.replace(
            "return random.random()",
            "return random.random()  # simprof: ignore[SPA001] -- fuzz",
        ))
        store = ArtifactStore(tmp_path / "cache")
        cold = run_check([tree], store=store)
        warm = run_check([tree], store=store)
        assert cold.unused_suppressions == warm.unused_suppressions == []
        assert cold.suppressed == warm.suppressed == 1


class TestCliEngineOptions:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIMPROF_CACHE_DIR", str(tmp_path / "cli-cache"))

    def test_jobs_auto_and_explicit(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(tree)
        assert main(["check", "--jobs", "auto", "src"]) == 1
        auto_out = capsys.readouterr().out
        assert main(["check", "--jobs", "2", "--no-cache", "src"]) == 1
        two_out = capsys.readouterr().out
        assert auto_out == two_out

    def test_jobs_rejects_garbage(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(tree)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--jobs", "many", "src"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_changed_requires_cache(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(tree)
        assert main(["check", "--changed", "--no-cache", "src"]) == 2
        assert "--changed" in capsys.readouterr().err

    def test_changed_skips_unchanged_files(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(tree)
        assert main(["check", "src"]) == 1
        capsys.readouterr()
        assert main(["check", "--changed", "src"]) == 0
        out = capsys.readouterr().out
        assert out.count("skipped (unchanged)") == 3

    def test_sarif_format(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(tree)
        assert main(["check", "--format", "sarif", "src"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == [f"SPA{n:03d}" for n in range(1, 14)]
        by_rule = {r["ruleId"] for r in run["results"]}
        assert by_rule == {"SPA001", "SPA009"}
        spa9 = next(
            r for r in run["tool"]["driver"]["rules"] if r["id"] == "SPA009"
        )
        assert spa9["helpUri"].endswith("#spa009--snapshot-state-drift")
        assert all(
            "simprofFingerprint/v2" in r["partialFingerprints"]
            for r in run["results"]
        )

    def test_v1_baseline_migrated_in_place(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(tree)
        result = run_check(["src"])  # relative, like the CLI run below
        v1 = {
            "version": 1,
            "findings": [
                {"fingerprint": f.fingerprint_v1(), "count": 1}
                for f in result.findings
            ],
        }
        baseline_path = tree / ".simprof-baseline.json"
        baseline_path.write_text(json.dumps(v1))
        assert main(["check", "src"]) == 0
        err = capsys.readouterr().err
        assert "migrated" in err
        doc = json.loads(baseline_path.read_text())
        assert doc["version"] == 2
        # Re-keyed entries keep absorbing the same findings.
        assert main(["check", "src"]) == 0
        assert Baseline.load(baseline_path).version == 2


class TestSarifRenderer:
    def test_parse_errors_become_results(self, tmp_path):
        (tmp_path / "broken.py").write_text("def (:\n")
        result = run_check([tmp_path])
        doc = json.loads(render_sarif(result))
        rows = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in rows] == ["parse-error"]
        assert doc["runs"][0]["results"][0]["locations"]
