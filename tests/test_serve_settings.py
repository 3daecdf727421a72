"""`repro serve` settings: the service fields from the flags to the session.

Both serve paths — the dataset replay and ``--http`` — open their session
through :func:`repro.serve.open_session`, so the parsed spec reaches the
running session whole.  These tests pin that wiring from the outside:
parse real ``repro serve`` flags and read the session spec's
:data:`~repro.api.specs.SERVICE_FIELDS` back.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.api.http as http_mod
import repro.serve as serve_mod
from repro.api.specs import SERVICE_FIELDS, SessionSpec, iter_cli_fields
from repro.cli import main
from repro.datasets.io import save_stream_dataset
from repro.exceptions import ConfigurationError
from repro.serve import serve_dataset


@pytest.fixture
def dataset_file(walk_data, tmp_path):
    path = tmp_path / "walks.npz"
    save_stream_dataset(walk_data, path)
    return path


def _service_flag(name: str) -> str:
    (flag,) = [
        f.metadata["cli"]["flag"]
        for f in iter_cli_fields(service=True)
        if f.name == name
    ]
    return flag


def _serve_sessions(monkeypatch, argv):
    """Run ``repro serve argv`` and return every session it opened."""
    opened = []
    real_open = serve_mod.open_session

    def spy(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def no_listen(session, host, port, on_ready=None):
        return http_mod.HttpIngress(session, host=host, port=port)

    monkeypatch.setattr(serve_mod, "open_session", spy)
    monkeypatch.setattr(http_mod, "serve_http", no_listen)
    assert main(["serve", *argv]) == 0
    return opened


class TestServiceLayerWiring:
    def test_defaults_resolve_to_an_ingest_service_spec(
        self, dataset_file, monkeypatch
    ):
        """Without service flags, serve runs the service-field defaults."""
        (session,) = _serve_sessions(
            monkeypatch, ["--input", str(dataset_file), "--w", "5"]
        )
        defaults = SessionSpec(transport="ingest")
        for name in SERVICE_FIELDS:
            assert getattr(session.spec, name) == getattr(defaults, name), name

    def test_transport_is_forced_to_ingest(self, walk_data):
        """A direct-transport spec still replays through the assembler."""
        spec = SessionSpec(epsilon=1.0, w=5, seed=0)
        assert spec.transport == "direct"
        outcome = serve_dataset(walk_data, spec)
        assert outcome.stats.n_timestamps == walk_data.n_timestamps
        assert outcome.stats.n_reports_processed == outcome.stats.n_submitted > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_lateness=-1),
            dict(checkpoint_every=-1),
            dict(checkpoint_keep=0),
        ],
    )
    def test_validation_delegates_to_service_spec(self, dataset_file, kwargs):
        """Out-of-range serve flags die in the spec's validation."""
        ((name, value),) = kwargs.items()
        with pytest.raises(ConfigurationError, match=name):
            main([
                "serve", "--input", str(dataset_file),
                _service_flag(name), str(value),
            ])


class TestCliFlagDrift:
    def test_explicit_none_cannot_reach_the_spec_layer(self):
        """``None`` where the service wants an int dies in the spec's
        validation, also when it arrives through ``dataclasses.replace``."""
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            SessionSpec(checkpoint_every=None)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            dataclasses.replace(SessionSpec(), checkpoint_every=None)

    def test_every_service_cli_flag_is_representable(
        self, dataset_file, tmp_path, monkeypatch
    ):
        """Structural anti-drift pin: every CLI-exposed service field, set
        to a non-default value on the ``repro serve`` command line, reaches
        ``session.spec`` on the replay path *and* on the ``--http`` path."""
        probes, argv = {}, ["--input", str(dataset_file), "--w", "5"]
        for f in iter_cli_fields(service=True):
            kind = f.metadata["cli"]["type"]
            if kind in (int, float):
                probes[f.name] = kind(f.default + 2)
            else:
                probes[f.name] = str(tmp_path / f"{f.name}.probe")
            argv += [f.metadata["cli"]["flag"], str(probes[f.name])]

        (replayed,) = _serve_sessions(monkeypatch, argv)
        (served,) = _serve_sessions(monkeypatch, [*argv, "--http", "0"])
        for session in (replayed, served):
            assert session.spec.transport == "ingest"
            for name, value in probes.items():
                assert getattr(session.spec, name) == value, name
        assert served.spec.http_port == 0
