"""Orchestration: the two-pass whole-program check.

**Pass 1** parses every target file, runs the per-module rules
(:class:`~repro.analysis.base.Rule`) and distils a
:class:`~repro.analysis.index.ModuleIndex`.  The complete per-file
result — findings, suppression table, index — is one plain-dict
payload, content-addressed in the
:class:`~repro.runtime.store.ArtifactStore` by the file's digest: an
unchanged file costs one cache read and zero re-analysis.

**Pass 2** assembles the module indexes into a
:class:`~repro.analysis.index.ProjectIndex` and runs the project rules
(:class:`~repro.analysis.project.ProjectRule`) with cross-module
context.  Each rule's findings are cached against the digest of the
*whole project* (every module's content digest), so a warm re-run
skips pass 2 entirely.

Both passes fan out over :func:`repro.runtime.runner.map_tasks`; the
payloads are deterministic and globally sorted, so serial, parallel
and warm-cache runs produce byte-identical reports.

``--changed`` mode (``changed_only=True``) reports findings only for
files whose digest had no cache entry, plus their reverse-dependency
closure over the import graph; everything else is listed as skipped.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import ModuleContext, Rule, all_rules, get_rule
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.index import (
    INDEX_VERSION,
    ModuleIndex,
    ProjectIndex,
    build_module_index,
)
from repro.analysis.project import (
    ProjectContext,
    ProjectRule,
    all_project_rules,
    get_project_rule,
    project_rule_ids,
)
from repro.analysis.suppressions import SuppressionIndex, parse_suppressions

__all__ = ["CheckResult", "run_check", "check_source", "collect_files"]

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", ".venv", "node_modules"}

#: Bump when analysis payload semantics change (cache invalidation).
ANALYSIS_VERSION = 1


@dataclass
class CheckResult:
    """Outcome of one checker invocation."""

    findings: list[Finding] = field(default_factory=list)  # new (not baselined)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    n_files: int = 0
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    #: (path, line, rule-ids) of suppression markers that matched nothing.
    unused_suppressions: list[tuple[str, int, tuple[str, ...]]] = field(
        default_factory=list
    )
    #: Paths excluded from the report by ``--changed``.
    skipped: list[str] = field(default_factory=list)
    #: Pass-1 payloads served from the ArtifactStore.
    n_cached: int = 0
    #: Pass-2 (per-project-rule) results served from the store.
    n_project_cached: int = 0

    def exit_code(self, *, strict: bool = False) -> int:
        """0 when clean; 1 on new findings (plus baselined ones under
        ``--strict``); 2 when a target file failed to parse."""
        if self.parse_errors:
            return 2
        offending = len(self.findings) + (len(self.baselined) if strict else 0)
        return 1 if offending else 0


def collect_files(paths: list[str | Path]) -> list[Path]:
    """Python files under ``paths`` (dirs recursed), sorted for determinism."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def check_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Run per-module rules over one in-memory source blob.

    The test/fixture path: suppression comments are honoured, baselines
    are not.  Project rules need a whole project — use
    :func:`repro.analysis.project.check_project` for those.
    """
    ctx = ModuleContext(source, path=path, module=module)
    suppressions = parse_suppressions(ctx.lines)
    found: list[Finding] = []
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check(ctx):
            if not suppressions.is_suppressed(finding.rule, finding.line):
                found.append(finding)
    return sorted(found)


# -- pass 1: per-file analysis (picklable task) -------------------------------


def _suppressions_payload(supp: SuppressionIndex) -> dict:
    return {str(line): sorted(rules) for line, rules in supp._by_line.items()}


def _suppressions_from_payload(payload: dict) -> SuppressionIndex:
    return SuppressionIndex(
        {int(line): frozenset(rules) for line, rules in payload.items()}
    )


def _analyze_file_task(item: dict) -> dict:
    """Parse one file, run module rules, build its index (pass-1 task).

    Module-level and dict-in/dict-out so :func:`map_tasks` can ship it
    to pool workers; importing the rules package registers the rule
    classes inside fresh worker processes.
    """
    import repro.analysis.rules  # noqa: F401  (registry side effect)

    path: str = item["path"]
    payload: dict = {
        "version": ANALYSIS_VERSION,
        "path": path,
        "module": "",
        "digest": item["digest"],
        "parse_error": None,
        "findings": [],
        "suppressed": 0,
        "suppressions": {},
        "used_lines": [],
        "index": None,
    }
    try:
        ctx = ModuleContext(item["source"], path=path)
    except SyntaxError as exc:
        payload["parse_error"] = str(exc)
        return payload
    payload["module"] = ctx.module
    suppressions = parse_suppressions(ctx.lines)
    findings: list[Finding] = []
    suppressed = 0
    for rule_id in item["rule_ids"]:
        rule = get_rule(rule_id)
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    payload["findings"] = [f.to_payload() for f in sorted(findings)]
    payload["suppressed"] = suppressed
    payload["suppressions"] = _suppressions_payload(suppressions)
    payload["used_lines"] = sorted(suppressions.used)
    payload["index"] = build_module_index(ctx, digest=item["digest"]).to_dict()
    return payload


# -- pass 2: project rules (picklable task) -----------------------------------


def _project_rule_task(item: dict) -> list[dict]:
    """Run one project rule over the assembled index (pass-2 task)."""
    import repro.analysis.rules  # noqa: F401  (registry side effect)

    index = ProjectIndex(
        {m: ModuleIndex.from_dict(d) for m, d in item["modules"].items()}
    )
    project = ProjectContext(index, sources=item["sources"])
    rule = get_project_rule(item["rule"])
    return [f.to_payload() for f in sorted(rule.check(project))]


# -- orchestration ------------------------------------------------------------


def _split_rule_ids(rule_ids: list[str] | None) -> tuple[list[str], list[str]]:
    """Partition a selection into (module rule ids, project rule ids)."""
    module_ids = sorted(r.id for r in all_rules())
    project_ids = sorted(r.id for r in all_project_rules())
    if rule_ids is None:
        return module_ids, project_ids
    mod: list[str] = []
    proj: list[str] = []
    for rule_id in rule_ids:
        if rule_id in project_rule_ids():
            proj.append(rule_id)
        else:
            get_rule(rule_id)  # raises KeyError on unknown ids
            mod.append(rule_id)
    return sorted(set(mod)), sorted(set(proj))


def run_check(
    paths: list[str | Path],
    *,
    rules: list[Rule] | None = None,
    rule_ids: list[str] | None = None,
    baseline: Baseline | None = None,
    jobs: int | None = None,
    store=None,
    changed_only: bool = False,
) -> CheckResult:
    """Check every Python file under ``paths`` with the two-pass engine.

    ``rule_ids`` selects a subset of registered rules (module and/or
    project); ``baseline`` partitions surviving findings into new vs
    grandfathered.  ``store`` (an :class:`ArtifactStore`) enables the
    content-addressed cache — ``None`` keeps the run pure.  ``jobs``
    fans both passes out over :func:`map_tasks` (``None`` = serial).
    ``rules`` (explicit instances) is the legacy single-pass escape
    hatch used by tests: it runs in-process, uncached, per-module only.
    """
    result = CheckResult()
    files = collect_files(paths)
    result.n_files = len(files)

    if rules is not None:
        module_rules: list[Rule] = [r for r in rules if isinstance(r, Rule)]
        project_rules = [r for r in rules if isinstance(r, ProjectRule)]
        return _run_legacy(files, module_rules, project_rules, baseline, result)

    module_ids, project_ids = _split_rule_ids(rule_ids)
    full_run = rule_ids is None
    sig = f"a{ANALYSIS_VERSION}.i{INDEX_VERSION}|" + ",".join(module_ids)

    # Pass 0: read and digest every file, probe the cache.
    payloads: dict[str, dict] = {}  # path -> pass-1 payload
    keys: dict[str, str] = {}
    misses: list[dict] = []
    for file_path in files:
        path = file_path.as_posix()
        try:
            raw = file_path.read_bytes()
        except OSError as exc:
            result.parse_errors.append((path, str(exc)))
            continue
        digest = hashlib.sha256(raw).hexdigest()
        cached = None
        if store is not None:
            key = store.key_for(
                "analysis-module", {"path": path, "digest": digest, "sig": sig}
            )
            keys[path] = key
            try:
                candidate = store.get(key)
            except KeyError:
                candidate = None
            if (
                isinstance(candidate, dict)
                and candidate.get("version") == ANALYSIS_VERSION
            ):
                cached = candidate
        if cached is not None:
            payloads[path] = cached
            result.n_cached += 1
        else:
            misses.append(
                {
                    "path": path,
                    "source": raw.decode("utf-8"),
                    "digest": digest,
                    "rule_ids": module_ids,
                }
            )

    # Pass 1: analyze the misses (parallel when jobs > 1).
    fresh = _map(_analyze_file_task, misses, jobs)
    for payload in fresh:
        payloads[payload["path"]] = payload
        if store is not None and payload["path"] in keys:
            store.put(keys[payload["path"]], payload)

    changed_paths = {m["path"] for m in misses}
    ordered = [payloads[p.as_posix()] for p in files if p.as_posix() in payloads]

    index = ProjectIndex()
    sources: dict[str, str] = {}
    for payload in ordered:
        if payload["parse_error"] is not None:
            result.parse_errors.append((payload["path"], payload["parse_error"]))
            continue
        index.add(ModuleIndex.from_dict(payload["index"]))
    for item in misses:
        mi = index.module_of_path(item["path"])
        if mi is not None:
            sources[mi.module] = item["source"]

    # ``--changed``: the report covers changed files plus everything
    # that (transitively) imports them.
    report_paths = {p["path"] for p in ordered}
    if changed_only:
        changed_modules = {
            p["module"]
            for p in ordered
            if p["path"] in changed_paths and p["parse_error"] is None
        }
        closure = index.reverse_closure(changed_modules)
        report_paths = {
            p["path"]
            for p in ordered
            if p["parse_error"] is not None
            or p["module"] in closure
            or p["path"] in changed_paths
        }
        result.skipped = sorted(
            p["path"] for p in ordered if p["path"] not in report_paths
        )

    # Pass 2: project rules against the assembled index.
    project_findings: list[Finding] = []
    if project_ids and index.modules:
        project_digest = hashlib.sha256(
            (
                sig
                + "|"
                + "|".join(
                    f"{m}:{index.modules[m].digest}" for m in sorted(index.modules)
                )
            ).encode()
        ).hexdigest()
        module_dicts = {m: mi.to_dict() for m, mi in index.modules.items()}
        pending: list[dict] = []
        pending_ids: list[str] = []
        cached_by_rule: dict[str, list[dict]] = {}
        for rule_id in project_ids:
            key = None
            if store is not None:
                key = store.key_for(
                    "analysis-project",
                    {"rule": rule_id, "digest": project_digest, "sig": sig},
                )
                try:
                    cached_by_rule[rule_id] = store.get(key)
                    result.n_project_cached += 1
                    continue
                except KeyError:
                    pass
            pending.append(
                {"rule": rule_id, "modules": module_dicts, "sources": sources}
            )
            pending_ids.append(rule_id)
        computed = _map(_project_rule_task, pending, jobs)
        for rule_id, item, rows in zip(pending_ids, pending, computed):
            cached_by_rule[rule_id] = rows
            if store is not None:
                key = store.key_for(
                    "analysis-project",
                    {"rule": rule_id, "digest": project_digest, "sig": sig},
                )
                store.put(key, rows)
        for rule_id in project_ids:
            project_findings.extend(
                Finding.from_payload(row) for row in cached_by_rule[rule_id]
            )

    # Apply suppressions to project findings at their anchor lines.
    supp_by_path = {
        p["path"]: _suppressions_from_payload(p["suppressions"]) for p in ordered
    }
    kept_project: list[Finding] = []
    project_suppressed = 0
    for finding in project_findings:
        supp = supp_by_path.get(finding.path)
        if supp is not None and supp.is_suppressed(finding.rule, finding.line):
            project_suppressed += 1
        else:
            kept_project.append(finding)

    found: list[Finding] = []
    suppressed = 0
    for payload in ordered:
        if payload["path"] not in report_paths:
            continue
        found.extend(Finding.from_payload(row) for row in payload["findings"])
        suppressed += payload["suppressed"]
    found.extend(f for f in kept_project if f.path in report_paths)
    result.suppressed = suppressed + project_suppressed

    # Unused-suppression report: only meaningful when every rule ran.
    if full_run:
        for payload in ordered:
            if payload["path"] not in report_paths:
                continue
            supp = supp_by_path[payload["path"]]
            supp.mark_used(payload["used_lines"])
            for line, rule_list in supp.unused():
                result.unused_suppressions.append(
                    (payload["path"], line, rule_list)
                )
        result.unused_suppressions.sort()

    if baseline is None:
        baseline = Baseline()
    result.findings, result.baselined = baseline.partition(sorted(found))
    return result


def _map(fn, items: list, jobs: int | None) -> list:
    """Dispatch task dicts: in-process when serial, map_tasks otherwise."""
    if not items:
        return []
    if jobs is None or jobs <= 1:
        return [fn(item) for item in items]
    from repro.runtime.runner import map_tasks

    return map_tasks(fn, items, jobs=jobs)


def _run_legacy(
    files: list[Path],
    module_rules: list[Rule],
    project_rules: list[ProjectRule],
    baseline: Baseline | None,
    result: CheckResult,
) -> CheckResult:
    """Explicit rule instances: single-process, uncached (test path)."""
    suppressed = 0
    found: list[Finding] = []
    index = ProjectIndex()
    sources: dict[str, str] = {}
    supp_by_path: dict[str, SuppressionIndex] = {}
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        try:
            ctx = ModuleContext(source, path=file_path)
        except SyntaxError as exc:
            result.parse_errors.append((file_path.as_posix(), str(exc)))
            continue
        suppressions = parse_suppressions(ctx.lines)
        supp_by_path[ctx.path] = suppressions
        for rule in module_rules:
            for finding in rule.check(ctx):
                if suppressions.is_suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    found.append(finding)
        if project_rules:
            index.add(build_module_index(ctx))
            sources[ctx.module] = source
    if project_rules and index.modules:
        project = ProjectContext(index, sources=sources)
        for rule in project_rules:
            for finding in rule.check(project):
                supp = supp_by_path.get(finding.path)
                if supp is not None and supp.is_suppressed(
                    finding.rule, finding.line
                ):
                    suppressed += 1
                else:
                    found.append(finding)
    result.suppressed = suppressed
    if baseline is None:
        baseline = Baseline()
    result.findings, result.baselined = baseline.partition(sorted(found))
    return result
