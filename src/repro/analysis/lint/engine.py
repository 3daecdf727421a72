"""Rule engine of ``repro lint``.

The engine parses every Python file under the requested paths once,
classifies it by *plane* (the top-level package directory: ``core``,
``ldp``, ``stream``, ``api``, …), and hands the parsed
:class:`Module` objects to each registered :class:`Rule`.  Rules emit
:class:`Finding` objects; the engine then filters inline suppressions
(``# repro-lint: disable=RULE``) and baseline-matched findings before
reporting.

Everything here is purely syntactic — the analyzed code is **never
imported** — so the analyzer can run on a broken tree, on fixtures, and
in CI without side effects.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.baseline import Baseline

#: Severity vocabulary, most severe first.
SEVERITIES = ("error", "warning")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: display path (as the file was reached on disk)
    pkg_path: str  #: package-relative posix path — stable across checkouts
    line: int
    col: int
    message: str
    severity: str = "error"
    code: str = ""  #: stripped source line, the baseline fingerprint

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "pkg_path": self.pkg_path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "code": self.code,
        }


class Module:
    """One parsed source file plus the lookups every rule needs."""

    def __init__(self, path: Path, pkg_path: str, source: str):
        self.path = path
        self.pkg_path = pkg_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: local alias -> imported module dotted path (``import numpy as np``)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> dotted origin (``from threading import Lock``)
        self.from_imports: Dict[str, str] = {}
        self._collect_imports()
        self._suppressions, self._file_suppressions = self._collect_suppressions()

    # ------------------------------------------------------------------ #
    # imports
    # ------------------------------------------------------------------ #
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def aliases_of(self, dotted: str) -> Set[str]:
        """Local names bound to the module ``dotted`` (``numpy`` -> {np})."""
        return {
            local
            for local, target in self.module_aliases.items()
            if target == dotted
        }

    # ------------------------------------------------------------------ #
    # suppressions
    # ------------------------------------------------------------------ #
    def _collect_suppressions(self) -> Tuple[Dict[int, Set[str]], Set[str]]:
        per_line: Dict[int, Set[str]] = {}
        whole_file: Set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if not m:
                continue
            rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            if m.group("scope"):
                whole_file |= rules
            else:
                per_line.setdefault(lineno, set()).update(rules)
        return per_line, whole_file

    def is_suppressed(self, rule: str, line: int) -> bool:
        """A finding is suppressed by a marker on its line, the line above
        (comment-above style), or a file-level ``disable-file`` marker."""
        if rule in self._file_suppressions or "all" in self._file_suppressions:
            return True
        for lineno in (line, line - 1):
            rules = self._suppressions.get(lineno)
            if rules and (rule in rules or "all" in rules):
                return True
        return False

    # ------------------------------------------------------------------ #
    # conveniences for rules
    # ------------------------------------------------------------------ #
    @property
    def plane(self) -> str:
        """Top-level package directory ('' for package-root modules)."""
        parts = self.pkg_path.split("/")
        return parts[0] if len(parts) > 1 else ""

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule.name,
            path=str(self.path),
            pkg_path=self.pkg_path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=rule.severity,
            code=self.line_text(line),
        )


class Project:
    """All modules of one lint run plus repo-level context."""

    def __init__(self, modules: Sequence[Module], root: Optional[Path]):
        self.modules = list(modules)
        #: Repository root (directory holding ``pyproject.toml``), when found.
        self.root = root

    def module_at(self, pkg_path: str) -> Optional[Module]:
        for module in self.modules:
            if module.pkg_path == pkg_path:
                return module
        return None

    def read_doc(self, rel_path: str) -> Optional[str]:
        """Text of a repo doc (e.g. ``docs/API.md``) or ``None``."""
        if self.root is None:
            return None
        path = self.root / rel_path
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


class Rule:
    """Base class of one invariant check.

    ``visit_module`` runs per file; ``finalize`` runs once after every
    module has been visited and is where cross-file registry rules live.
    """

    #: Stable identifier used in suppressions and the baseline.
    name: str = ""
    #: "error" or "warning" (both fail the run; severity is for triage).
    severity: str = "error"
    #: One-line rationale shown by ``repro lint --list-rules``.
    description: str = ""

    def visit_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    stale_baseline: List[str] = field(default_factory=list)
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        parts = [
            f"{len(self.findings)} finding(s) in {self.n_files} file(s)",
            f"{self.baselined} baselined",
            f"{self.suppressed} suppressed",
        ]
        if self.stale_baseline:
            parts.append(f"{len(self.stale_baseline)} stale baseline entrie(s)")
        return ", ".join(parts)


# ---------------------------------------------------------------------- #
# file discovery / package paths
# ---------------------------------------------------------------------- #
def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    yield sub


def package_path(path: Path, scan_root: Path) -> str:
    """Stable package-relative posix path of one file.

    Inside an installed/source tree the anchor is the last ``repro``
    directory component (``src/repro/core/online.py`` -> ``core/online.py``);
    fixture trees without a ``repro`` component anchor at the scan root, so
    the same rules run unchanged over synthetic layouts in tests.
    """
    parts = path.parts
    if "repro" in parts[:-1]:
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
        return "/".join(parts[anchor + 1 :])
    try:
        return path.relative_to(scan_root).as_posix()
    except ValueError:
        return path.name


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor holding ``pyproject.toml`` (the repo root)."""
    node = start if start.is_dir() else start.parent
    for candidate in (node, *node.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


# ---------------------------------------------------------------------- #
# the driver
# ---------------------------------------------------------------------- #
def run_lint(
    paths: Sequence,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Run ``rules`` over every Python file under ``paths``.

    Findings suppressed inline or absorbed by ``baseline`` are counted
    but not reported; the caller decides the exit code from
    :attr:`LintResult.ok`.
    """
    if rules is None:
        from repro.analysis.lint.rules import all_rules

        rules = all_rules()
    path_objs = [Path(p) for p in paths]
    scan_root = path_objs[0] if path_objs and path_objs[0].is_dir() else Path(".")
    modules: List[Module] = []
    result = LintResult()
    for file_path in iter_python_files(path_objs):
        source = file_path.read_text(encoding="utf-8")
        try:
            modules.append(
                Module(file_path, package_path(file_path, scan_root), source)
            )
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    rule="parse-error",
                    path=str(file_path),
                    pkg_path=package_path(file_path, scan_root),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    result.n_files = len(modules)
    project = Project(modules, root=find_project_root(scan_root.resolve()))

    raw: List[Finding] = []
    for rule in rules:
        for module in modules:
            raw.extend(rule.visit_module(module))
        raw.extend(rule.finalize(project))

    by_pkg = {module.pkg_path: module for module in modules}
    visible: List[Finding] = []
    for finding in raw:
        module = by_pkg.get(finding.pkg_path)
        if module is not None and module.is_suppressed(finding.rule, finding.line):
            result.suppressed += 1
            continue
        visible.append(finding)
    if baseline is not None:
        visible, absorbed, stale = baseline.filter(visible)
        result.baselined = absorbed
        result.stale_baseline = stale
    visible.sort(key=lambda f: (f.pkg_path, f.line, f.col, f.rule))
    result.findings.extend(visible)
    result.findings.sort(key=lambda f: (f.pkg_path, f.line, f.col, f.rule))
    return result
