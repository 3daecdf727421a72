"""Registry-consistency rules: wire schema, spec/CLI drift, metric names.

These rules consume the repo's machine-readable registries *statically*:
``MESSAGE_TYPES`` in ``api/schema.py`` (the wire-verb vocabulary),
the ``metadata["cli"]`` field annotations plus ``NON_CLI_FIELDS`` in
``api/specs.py`` (the spec↔CLI contract), and ``docs/API.md`` (the
documented metric catalog).  They are cross-file rules, so they run in
:meth:`Rule.finalize` after every module has been parsed — and they are
silent when the registry module is outside the scanned set, so linting a
single file stays noise-free.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.engine import Finding, Module, Project, Rule

#: Registered metric family names must match this (and be documented).
METRIC_NAME_RE = re.compile(r"^retrasyn_[a-z_]+$")

#: Calls that *decode* a verb: (callable name, position of the verb arg).
_DECODE_CALLS = {"iter_frames": 1, "_validate": 1, "load_frame": 2}


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _find_module(
    project: Project, suffix: str, marker: Optional[str] = None
) -> Optional[Module]:
    """The scanned module whose package path ends with ``suffix`` (and
    whose source mentions ``marker``, to skip unrelated same-named files)."""
    for module in project.modules:
        if module.pkg_path.endswith(suffix):
            if marker is None or marker in module.source:
                return module
    return None


class SchemaVerbRule(Rule):
    """Every declared wire verb has an encoder and a decoder arm."""

    name = "schema-orphan-verb"
    severity = "error"
    description = (
        "every verb in api/schema.py MESSAGE_TYPES must have both an "
        "encoder (message(...)) and a decoder (expect=/type dispatch) "
        "somewhere in the tree, and no site may use an undeclared verb"
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        schema_mod = _find_module(project, "schema.py", marker="MESSAGE_TYPES")
        if schema_mod is None:
            return
        declared = self._declared_verbs(schema_mod)
        if declared is None:
            return
        verbs, decl_node = declared
        encoded: Dict[str, Tuple[Module, ast.AST]] = {}
        decoded: Dict[str, Tuple[Module, ast.AST]] = {}
        for module in project.modules:
            for verb, node in self._encode_sites(module):
                encoded.setdefault(verb, (module, node))
            for verb, node in self._decode_sites(module):
                decoded.setdefault(verb, (module, node))
        for verb in verbs:
            if verb not in encoded:
                yield schema_mod.finding(
                    self, decl_node,
                    f"verb {verb!r} is declared but nothing encodes it "
                    "(no message(...) site) — orphan verb",
                )
            if verb not in decoded:
                yield schema_mod.finding(
                    self, decl_node,
                    f"verb {verb!r} is declared but nothing decodes it "
                    "(no expect=/type-dispatch site) — orphan verb",
                )
        for verb, (module, node) in sorted(encoded.items()):
            if verb not in verbs:
                yield module.finding(
                    self, node,
                    f"message type {verb!r} is not declared in "
                    "api/schema.py MESSAGE_TYPES",
                )
        for verb, (module, node) in sorted(decoded.items()):
            if verb not in verbs:
                yield module.finding(
                    self, node,
                    f"expected message type {verb!r} is not declared in "
                    "api/schema.py MESSAGE_TYPES",
                )

    def _declared_verbs(
        self, module: Module
    ) -> Optional[Tuple[Set[str], ast.AST]]:
        for node in module.tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "MESSAGE_TYPES":
                    value = node.value
                    if isinstance(value, (ast.Tuple, ast.List)):
                        verbs = {
                            v for v in map(_str_const, value.elts)
                            if v is not None
                        }
                        return verbs, node
        return None

    def _encode_sites(
        self, module: Module
    ) -> Iterable[Tuple[str, ast.AST]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            callee = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if callee != "message":
                continue
            verb = _str_const(node.args[0])
            if verb is not None:
                yield verb, node

    def _decode_sites(
        self, module: Module
    ) -> Iterable[Tuple[str, ast.AST]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "expect":
                        verb = _str_const(kw.value)
                        if verb is not None:
                            yield verb, node
                func = node.func
                callee = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                pos = _DECODE_CALLS.get(callee or "")
                if pos is not None and len(node.args) > pos:
                    verb = _str_const(node.args[pos])
                    if verb is not None:
                        yield verb, node
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                    continue
                left, right = node.left, node.comparators[0]
                for const, other in ((right, left), (left, right)):
                    verb = _str_const(const)
                    if verb is None:
                        continue
                    try:
                        other_src = ast.unparse(other)
                    except Exception:  # pragma: no cover - defensive
                        continue
                    # `type_ == "verb"` / `msg["type"] == "verb"` — but not
                    # `arr.dtype.byteorder == ">"` (substring inside a word).
                    if re.search(r"(?:^|[^\w])type_?(?:[^\w]|$)", other_src):
                        yield verb, node
                        break


class SpecDriftRule(Rule):
    """Every ``*Spec`` field is CLI-exposed or deliberately not."""

    name = "spec-flag-drift"
    severity = "error"
    description = (
        "every *Spec dataclass field carries CLI metadata or a "
        "NON_CLI_FIELDS justification; flags stay unique"
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        specs_mod = _find_module(project, "specs.py", marker="Spec")
        if specs_mod is None:
            return
        non_cli = self._non_cli_fields(specs_mod)
        seen_flags: Dict[str, str] = {}
        all_fields: Set[Tuple[str, str]] = set()
        for cls in specs_mod.tree.body:
            if not isinstance(cls, ast.ClassDef) or not cls.name.endswith("Spec"):
                continue
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                fname = stmt.target.id
                all_fields.add((cls.name, fname))
                flag = self._cli_flag(stmt.value)
                if flag is not None:
                    prior = seen_flags.get(flag)
                    if prior is not None:
                        yield specs_mod.finding(
                            self, stmt,
                            f"CLI flag {flag!r} of {cls.name}.{fname} "
                            f"collides with {prior}",
                        )
                    seen_flags[flag] = f"{cls.name}.{fname}"
                elif fname not in non_cli:
                    yield specs_mod.finding(
                        self, stmt,
                        f"{cls.name}.{fname} has neither CLI metadata nor a "
                        "NON_CLI_FIELDS justification — the flag surface "
                        "and the spec are drifting",
                    )
        field_names = {fname for _, fname in all_fields}
        for fname, node in non_cli.items():
            if fname not in field_names:
                yield specs_mod.finding(
                    self, node,
                    f"NON_CLI_FIELDS entry {fname!r} matches no *Spec "
                    "field — stale justification",
                )

    def _cli_flag(self, value: Optional[ast.AST]) -> Optional[str]:
        """The ``--flag`` of a ``field(metadata=_cli("--flag", ...))``."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        callee = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if callee != "field":
            return None
        for kw in value.keywords:
            if kw.arg != "metadata":
                continue
            for node in ast.walk(kw.value):
                if isinstance(node, ast.Call):
                    inner = node.func
                    inner_name = (
                        inner.id if isinstance(inner, ast.Name)
                        else inner.attr if isinstance(inner, ast.Attribute)
                        else None
                    )
                    if inner_name == "_cli" and node.args:
                        return _str_const(node.args[0])
                # Literal {"cli": {"flag": "--x", ...}} metadata.
                if isinstance(node, ast.Dict):
                    for key, val in zip(node.keys, node.values):
                        if _str_const(key) == "flag":
                            return _str_const(val)
        return None

    def _non_cli_fields(self, module: Module) -> Dict[str, ast.AST]:
        """Parse ``NON_CLI_FIELDS = {"field": "reason", ...}``."""
        out: Dict[str, ast.AST] = {}
        for node in module.tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "NON_CLI_FIELDS"
                    and isinstance(node.value, ast.Dict)
                ):
                    for key in node.value.keys:
                        name = _str_const(key)
                        if name is not None:
                            out[name] = node
        return out


class MetricNameRule(Rule):
    """Metric families follow the naming contract and are documented."""

    name = "metric-name"
    severity = "error"
    description = (
        "registered metric families must match retrasyn_[a-z_]+ and "
        "appear in docs/API.md"
    )

    def __init__(self) -> None:
        self._registered: List[Tuple[Module, ast.AST, str]] = []

    def visit_module(self, module: Module) -> Iterable[Finding]:
        if module.pkg_path.endswith("obs/metrics.py"):
            return  # the registry implementation itself
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in {"counter", "gauge", "histogram"}:
                continue
            name = _str_const(node.args[0])
            if name is None:
                continue
            self._registered.append((module, node, name))
            if not METRIC_NAME_RE.match(name):
                yield module.finding(
                    self, node,
                    f"metric family {name!r} violates the naming contract "
                    "retrasyn_[a-z_]+",
                )

    def finalize(self, project: Project) -> Iterable[Finding]:
        registered, self._registered = self._registered, []
        doc = project.read_doc("docs/API.md")
        if doc is None:
            return
        reported: Set[str] = set()
        for module, node, name in registered:
            if not METRIC_NAME_RE.match(name) or name in reported:
                continue
            if name not in doc:
                reported.add(name)
                yield module.finding(
                    self, node,
                    f"metric family {name!r} is not documented in "
                    "docs/API.md (metrics table)",
                )
