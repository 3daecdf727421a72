"""Unified curator API: the single front door to every engine family.

* :mod:`repro.api.specs` — ``SessionSpec``, the one flat, validated
  configuration class (``RetraSynConfig`` is the same class); its service
  fields (``SERVICE_FIELDS``) shape a deployment.
* :mod:`repro.api.session` — the engine-agnostic :class:`CuratorSession`
  protocol (``submit_batch / advance / snapshot / result / checkpoint /
  close``) and the :func:`create_session` factory that returns any of the
  three engine families behind it.
* :mod:`repro.api.schema` — the versioned request/response wire schema
  spoken identically in-process and over the network (arrays travel in
  the ``ReportBatch`` columnar format).
* :mod:`repro.api.http` — the asyncio HTTP ingress (``repro serve
  --http PORT``) in front of the ingestion service.
* :mod:`repro.api.client` — :class:`Client`, the remote twin of a local
  session, for submission and querying over the ingress.

The submodules are imported lazily so that ``repro.core`` (whose
``RetraSynConfig`` is ``SessionSpec``) can import :mod:`repro.api.specs`
without dragging the whole session/transport stack into every import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    # specs
    "SessionSpec": "repro.api.specs",
    # sessions
    "CuratorSession": "repro.api.session",
    "DirectSession": "repro.api.session",
    "IngestSession": "repro.api.session",
    "create_session": "repro.api.session",
    "load_session": "repro.api.session",
    # wire schema + transports
    "SCHEMA_VERSION": "repro.api.schema",
    "Client": "repro.api.client",
    "serve_http": "repro.api.http",
    "HttpIngress": "repro.api.http",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.api.client import Client
    from repro.api.http import HttpIngress, serve_http
    from repro.api.schema import SCHEMA_VERSION
    from repro.api.session import (
        CuratorSession,
        DirectSession,
        IngestSession,
        create_session,
        load_session,
    )
    from repro.api.specs import SessionSpec


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
