"""Concurrency rule: lock-scope hygiene.

The PR 8 hung-coordinator class of bug came from blocking socket reads
while holding a lock; the sanctioned shapes are ``with lock:`` blocks that
never contain a blocking receive.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint.engine import Finding, Module, Rule

#: Blocking receive shapes (stdlib socket plus this repo's frame helpers).
_BLOCKING_RECV = frozenset(
    {"recv", "recv_into", "recvfrom", "recvmsg", "accept",
     "recv_frame", "recv_frame_bytes", "_recv_exact", "_recv", "_recv_frame"}
)


class LockScopeRule(Rule):
    """Locks via ``with`` only; never block on a socket inside one."""

    name = "lock-scope"
    severity = "error"
    description = (
        "no bare .acquire() (locks are held via 'with'), and no blocking "
        "socket receive inside a lock-holding 'with' block"
    )

    def visit_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "acquire"
                    and not self._is_with_context(module, node)
                ):
                    yield module.finding(
                        self, node,
                        "bare .acquire() risks a leaked lock on any "
                        "exception path; hold locks via 'with'",
                    )
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                if not self._holds_lock(node):
                    continue
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr in _BLOCKING_RECV
                    ):
                        yield module.finding(
                            self, inner,
                            f"blocking receive '{inner.func.attr}()' while "
                            "holding a lock can hang every other holder "
                            "(the PR 8 hung-coordinator bug class); "
                            "receive outside the lock, then publish",
                        )

    def _holds_lock(self, node) -> bool:
        for item in node.items:
            text = ast.unparse(item.context_expr).lower()
            # `with lock:` / `with self._state_lock:`; condition variables
            # are lock-like too.  `with pool.lock_free_view()` would false-
            # positive — suppress inline if that shape ever appears.
            if "lock" in text or "mutex" in text or "cond" in text:
                return True
        return False

    def _is_with_context(self, module: Module, call: ast.Call) -> bool:
        """True when the .acquire() call is itself a `with` context item
        (``with lock.acquire():`` is unusual but not a leak)."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.context_expr is call:
                        return True
        return False
