"""Determinism rules: RNG discipline, wall-clock reads, set iteration.

The reproduction's core guarantee — the serial and distributed
executors produce *bit-identical* streams — holds only because every
random draw flows through an injected, seeded
:class:`numpy.random.Generator` in a pinned order.  These rules make the
three classic ways of breaking that guarantee un-writable in the
deterministic planes (``core/``, ``ldp/``, ``stream/``):

* drawing from global RNG state (``random.*``, ``np.random.*``) or
  creating an *unseeded* ``default_rng()``;
* reading the wall clock where results could feed outputs;
* iterating a ``set`` (hash order — varies run to run under
  ``PYTHONHASHSEED``) where order can reach RNG- or wire-ordered output.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.analysis.lint.engine import Finding, Module, Rule

#: The planes whose behaviour must be bit-reproducible.
DETERMINISTIC_PLANES = frozenset({"core", "ldp", "stream"})

#: np.random constructors that take explicit state and are therefore fine.
_SEEDABLE_TYPES = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
     "Philox", "SFC64", "MT19937"}
)

#: Wall-clock reads (``time`` module functions).
_CLOCK_FUNCS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns"}
)

#: ``datetime`` constructors that capture "now".
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})


def _in_deterministic_plane(module: Module) -> bool:
    return module.plane in DETERMINISTIC_PLANES


class RngGlobalStateRule(Rule):
    """All randomness must flow through an injected, seeded Generator."""

    name = "rng-global-state"
    severity = "error"
    description = (
        "no random.* / np.random.* global-state draws or unseeded "
        "default_rng() in the deterministic planes (core/, ldp/, stream/)"
    )

    def visit_module(self, module: Module) -> Iterable[Finding]:
        if not _in_deterministic_plane(module):
            return
        random_aliases = module.aliases_of("random")
        numpy_aliases = module.aliases_of("numpy") | module.aliases_of("np")
        np_random_aliases = module.aliases_of("numpy.random")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                origin = module.from_imports.get(func.id)
                if origin is None:
                    continue
                if origin.startswith("random."):
                    yield module.finding(
                        self, node,
                        f"stdlib '{origin}' draws from global RNG state; "
                        "take an injected numpy Generator instead",
                    )
                elif origin == "numpy.random.default_rng" and not (
                    node.args or node.keywords
                ):
                    yield module.finding(
                        self, node,
                        "unseeded default_rng() is fresh OS entropy; thread "
                        "a seeded Generator through repro.rng.ensure_rng",
                    )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            # random.<draw>()
            if isinstance(value, ast.Name) and value.id in random_aliases:
                yield module.finding(
                    self, node,
                    f"stdlib 'random.{func.attr}' draws from global RNG "
                    "state; take an injected numpy Generator instead",
                )
                continue
            # np.random.<fn>()  /  <numpy.random alias>.<fn>()
            is_np_random = (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in numpy_aliases
            ) or (isinstance(value, ast.Name) and value.id in np_random_aliases)
            if not is_np_random:
                continue
            if func.attr in _SEEDABLE_TYPES:
                continue
            if func.attr == "default_rng":
                if not (node.args or node.keywords):
                    yield module.finding(
                        self, node,
                        "unseeded np.random.default_rng() is fresh OS "
                        "entropy; thread a seeded Generator through "
                        "repro.rng.ensure_rng",
                    )
                continue
            yield module.finding(
                self, node,
                f"'np.random.{func.attr}' uses numpy's global RNG state; "
                "draw from an injected Generator instead",
            )


class WallClockRule(Rule):
    """No wall-clock reads in the deterministic planes.

    Phase timings and checkpoint stamps are legitimate *observability*
    uses — they must never feed RNG-ordered or wire-ordered output — and
    live in the committed baseline with a justification each, so any new
    clock read starts a deliberate conversation instead of slipping in.
    """

    name = "wall-clock"
    severity = "warning"
    description = (
        "no time.time()/perf_counter()/datetime.now() in the "
        "deterministic planes (core/, ldp/, stream/)"
    )

    def visit_module(self, module: Module) -> Iterable[Finding]:
        if not _in_deterministic_plane(module):
            return
        time_aliases = module.aliases_of("time")
        datetime_mod_aliases = module.aliases_of("datetime")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                origin = module.from_imports.get(func.id, "")
                if origin.startswith("time.") and origin.split(".", 1)[1] in _CLOCK_FUNCS:
                    yield module.finding(
                        self, node,
                        f"wall-clock read '{origin}' in a deterministic plane",
                    )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id in time_aliases
                and func.attr in _CLOCK_FUNCS
            ):
                yield module.finding(
                    self, node,
                    f"wall-clock read 'time.{func.attr}' in a deterministic "
                    "plane",
                )
            elif func.attr in _DATETIME_NOW and (
                (isinstance(value, ast.Name)
                 and (value.id in datetime_mod_aliases
                      or module.from_imports.get(value.id, "")
                      == "datetime.datetime"))
                or (isinstance(value, ast.Attribute)
                    and value.attr == "datetime"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in datetime_mod_aliases)
            ):
                yield module.finding(
                    self, node,
                    f"wall-clock read 'datetime.{func.attr}' in a "
                    "deterministic plane",
                )


class SetIterationRule(Rule):
    """Iterating a set is hash-ordered — nondeterministic across runs."""

    name = "set-iteration"
    severity = "error"
    description = (
        "no iteration over set expressions in the deterministic planes "
        "(hash order varies under PYTHONHASHSEED); sort first"
    )

    def visit_module(self, module: Module) -> Iterable[Finding]:
        if not _in_deterministic_plane(module):
            return
        # Function-local names assigned directly from a set expression.
        set_names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(
                node.value, set_names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._is_set_expr(node.value, set_names) and isinstance(
                    node.target, ast.Name
                ):
                    set_names.add(node.target.id)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_names):
                    yield self._finding(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, set_names):
                        yield self._finding(module, gen.iter)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else None
                if name in {"list", "tuple", "enumerate", "iter"} and node.args:
                    if self._is_set_expr(node.args[0], set_names):
                        yield self._finding(module, node)

    def _finding(self, module: Module, node: ast.AST) -> Finding:
        return module.finding(
            self, node,
            "iterating a set is hash-ordered and varies across runs; "
            "wrap in sorted(...) before the order can reach RNG- or "
            "wire-ordered output",
        )

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        """Conservatively: literals, set()/frozenset() calls, tracked
        names, set operators over those — never `sorted(...)`."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in {
                "union", "intersection", "difference", "symmetric_difference",
            }:
                return self._is_set_expr(func.value, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False
