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

The submodules are imported lazily, like every package's, so that
``repro.core`` (whose ``RetraSynConfig`` is ``SessionSpec``) can import
:mod:`repro.api.specs`, and a client process :mod:`repro.api.client`,
without dragging the whole session/transport stack into every import.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    # specs
    "SessionSpec": "specs",
    # sessions
    "CuratorSession": "session",
    "DirectSession": "session",
    "IngestSession": "session",
    "create_session": "session",
    "load_session": "session",
    # wire schema + transports
    "SCHEMA_VERSION": "schema",
    "Client": "client",
    "serve_http": "http",
    "HttpIngress": "http",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
