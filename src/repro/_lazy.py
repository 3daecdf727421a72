"""Lazy package exports (PEP 562).

Each package maps its public names to the submodule that defines them.
A name's submodule is imported the first time the name is read, so
importing a package (or any module inside it) executes none of its
siblings: a client process that only speaks the wire schema never
compiles the engines, the metrics or the dataset generators.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """The ``__getattr__`` and ``__dir__`` hooks of ``package``.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package`` (``{"OnlineRetraSyn": "core.online"}``).  A
    resolved name is stored on the package, so later reads are plain
    attribute lookups that never reach the hook.
    """
    where = {name: f"{package}.{module}" for name, module in exports.items()}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
