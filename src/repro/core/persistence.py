"""Persistence for mobility models, configurations and curator checkpoints.

A deployed curator needs to survive restarts.  Three artefact shapes:

* **models** (npz): the learned global mobility model — frequencies plus
  the grid geometry and state-space flags needed to rebuild the space;
* **configurations** (JSON): the full pipeline tuning;
* **checkpoints** (pickle): the one curator engine's complete state — rng,
  model, synthesizer (live synthetic streams), collection shards with
  their user trackers (fetched from the worker processes under the
  distributed executor), allocator feedback context and the
  privacy-accountant ledger.  The stored config rebuilds the same shard
  layout; a v4 file written while K=1 still kept its tracker on the
  engine itself restores into the K=1 shard.  The columnar accounting
  plane checkpoints as plain numpy state: the shared
  :class:`~repro.stream.slots.UserSlotTable`, the columns hung on it (the
  accountant's swept spend ring, the tracker's statuses) and the audit
  archive are ordinary arrays, and pickle's reference sharing keeps the
  tracker and accountant pointing at the *same* table after a restore.
  The synthesis plane checkpoints the same way: the
  :class:`~repro.core.trajectory_store.TrajectoryStore` live block and
  archive and per-shard generation rngs are plain state
  (the vectorized synthesizer drops its process-local thread pool and its
  compiled model, both rebuilt lazily on the next step).  A curator restored from a checkpoint continues the stream
  bit-for-bit identically to one that was never interrupted; the
  ingestion service (:mod:`repro.stream.ingest`) checkpoints on this API.

Checkpoints use :mod:`pickle` because they capture an arbitrary live
object graph; load them only from paths you wrote yourself (same trust
model as any process state file).  Restoring any artefact is pure
post-processing of already-released statistics (paper Theorem 2), so
persistence never touches the privacy budget.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import warnings
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.retrasyn import RetraSynConfig
from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.grid import Grid
from repro.geo.point import BoundingBox
from repro.stream.state_space import TransitionStateSpace

_MODEL_FORMAT_VERSION = 1
# v2: synthesizers keep their streams in a columnar TrajectoryStore (plus
# ordered row-id lists for the object engine) instead of CellTrajectory
# object lists; v1 checkpoints would restore a pre-store attribute layout
# and are refused.
# v3: the payload additionally carries the layered SessionSpec (the
# canonical config surface since the unified curator API), so a resumed
# service restores its deployment shape — transport, lateness bound,
# checkpoint cadence — not just the engine state.
# v4: live-window state layouts — the ledger is a swept ring on columns
# owned by a self-compacting slot table (plus an audit archive of retired
# rows), the tracker's columns live on the same table, and the trajectory
# store is a live block plus a CSR archive.  Older checkpoints describe
# attribute layouts that no longer exist and are refused by version.
_CHECKPOINT_FORMAT_VERSION = 4


def save_model(model: GlobalMobilityModel, path: Union[str, Path]) -> None:
    """Write a mobility model (and its space geometry) to ``path``."""
    space = model.space
    grid = space.grid
    np.savez_compressed(
        Path(path),
        version=np.asarray([_MODEL_FORMAT_VERSION]),
        frequencies=model.frequencies,
        grid_k=np.asarray([grid.k]),
        bbox=np.asarray(
            [grid.bbox.min_x, grid.bbox.min_y, grid.bbox.max_x, grid.bbox.max_y]
        ),
        include_eq=np.asarray([int(space.include_eq)]),
    )


def load_model(path: Union[str, Path]) -> GlobalMobilityModel:
    """Rebuild a mobility model saved by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"model file not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["version"][0])
        if version != _MODEL_FORMAT_VERSION:
            raise DatasetError(
                f"unsupported model format version {version} "
                f"(expected {_MODEL_FORMAT_VERSION})"
            )
        freqs = archive["frequencies"]
        k = int(archive["grid_k"][0])
        bx = archive["bbox"]
        include_eq = bool(int(archive["include_eq"][0]))
    grid = Grid(
        BoundingBox(float(bx[0]), float(bx[1]), float(bx[2]), float(bx[3])), k
    )
    space = TransitionStateSpace(grid, include_entering_quitting=include_eq)
    if freqs.shape != (space.size,):
        raise DatasetError(
            f"frequency vector of length {freqs.shape} does not match the "
            f"reconstructed state space of size {space.size}"
        )
    model = GlobalMobilityModel(space)
    model.set_all(freqs)
    return model


def config_to_dict(config: RetraSynConfig) -> dict:
    """JSON-safe dictionary form of a pipeline configuration."""
    out = dataclasses.asdict(config)
    seed = out.get("seed")
    if seed is not None and not isinstance(seed, int):
        # Generators are process-local state; persist only reproducible seeds.
        out["seed"] = None
    return out


def config_from_dict(data: dict) -> RetraSynConfig:
    """Inverse of :func:`config_to_dict` (validates via the dataclass)."""
    known = {f.name for f in dataclasses.fields(RetraSynConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    return RetraSynConfig(**data)


def _generation_files(path: Path) -> list[Path]:
    """Rotated generation files for ``path``, newest first.

    Generations are named ``<name>.g<stamp>`` next to the base path; the
    stamp is a zero-padded nanosecond timestamp, so lexicographic order
    is chronological order.
    """
    prefix = path.name + ".g"
    found = [
        p for p in path.parent.glob(prefix + "*")
        if p.name[len(prefix):].isdigit()
    ]
    return sorted(found, reverse=True)


def checkpoint_candidates(path: Union[str, Path]) -> list[Path]:
    """Existing checkpoint files for ``path``, newest first.

    Rotated generations come first (newest stamp leading); the bare path
    itself — the non-rotated layout, ``checkpoint_keep=1`` — is last.
    """
    path = Path(path)
    candidates = _generation_files(path)
    if path.exists():
        candidates.append(path)
    return candidates


def checkpoint_exists(path: Union[str, Path]) -> bool:
    """True if any checkpoint file (rotated or not) exists for ``path``."""
    return bool(checkpoint_candidates(path))


def save_checkpoint(curator, path: Union[str, Path], spec=None, keep: int = 1) -> None:
    """Freeze a running curator to ``path``.

    Captures everything :meth:`~repro.core.online.OnlineRetraSyn
    .checkpoint_state` returns, plus the grid / config / λ needed to
    rebuild the curator object itself.  For the distributed shard executor
    the per-shard states are fetched from the worker processes first, so
    the checkpoint is complete even though the workers hold the trackers.

    ``spec`` is the session's :class:`~repro.api.specs.SessionSpec`; when
    omitted it is lifted from the curator's flat config (losing only the
    service layer, which defaults).

    ``keep`` enables rotation: with ``keep > 1`` each save writes a new
    timestamped generation (``<path>.g<stamp>``) and prunes the oldest
    beyond ``keep``, so a checkpoint torn by a crash mid-write — or
    corrupted afterwards — still leaves the previous generation for
    :func:`load_checkpoint` to fall back to.  Every write remains atomic
    (tmp file + rename) in both layouts.
    """
    import time

    payload = {
        "version": _CHECKPOINT_FORMAT_VERSION,
        "grid": curator.grid,
        "config": curator.config,
        "spec": spec if spec is not None else curator.config.to_spec(),
        "lam": curator.lam,
        "state": curator.checkpoint_state(),
    }
    path = Path(path)
    if keep <= 1:
        target = path
    else:
        existing = _generation_files(path)
        # Rotation stamps order checkpoint *files* on disk; they never
        # enter the checkpointed state, so replay stays bit-identical.
        stamp = time.time_ns()  # repro-lint: disable=wall-clock
        if existing:
            # Guarantee strictly increasing stamps even on coarse clocks.
            prev = int(existing[0].name[len(path.name) + 2:])
            stamp = max(stamp, prev + 1)
        target = path.with_name(f"{path.name}.g{stamp:020d}")
    tmp = Path(str(target) + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(target)  # atomic: a crash mid-write never corrupts
    if keep > 1:
        for stale in _generation_files(path)[keep:]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass


def _read_checkpoint_payload(path: Union[str, Path]) -> dict:
    """Load and version-check one checkpoint file.

    Callers resolving a rotated set use :func:`_read_newest_valid` — this
    reads exactly the file it is given.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"checkpoint file not found: {path}")
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict):
        raise DatasetError(f"checkpoint {path} does not contain a payload dict")
    version = int(payload.get("version", -1))
    if version != _CHECKPOINT_FORMAT_VERSION:
        raise DatasetError(
            f"unsupported checkpoint format version {version} "
            f"(expected {_CHECKPOINT_FORMAT_VERSION})"
        )
    return payload


def _read_newest_valid(path: Union[str, Path]) -> dict:
    """Payload of the newest *readable* checkpoint for ``path``.

    Walks the rotated generations newest-first (then the bare path), so a
    torn or corrupted newest file — the crash-mid-rotation case — falls
    back to the previous generation with a warning instead of failing the
    resume outright.
    """
    candidates = checkpoint_candidates(path)
    if not candidates:
        raise DatasetError(f"checkpoint file not found: {path}")
    failures = []
    for candidate in candidates:
        try:
            return _read_checkpoint_payload(candidate)
        except Exception as exc:  # torn write, truncation, bad version...
            failures.append(f"{candidate.name}: {exc}")
            if len(candidates) > 1:
                warnings.warn(
                    f"skipping unreadable checkpoint {candidate} ({exc}); "
                    f"falling back to an older generation",
                    RuntimeWarning,
                    stacklevel=3,
                )
    raise DatasetError(
        f"no valid checkpoint for {path}; tried {len(candidates)} file(s): "
        + "; ".join(failures)
    )


def load_checkpoint(path: Union[str, Path]):
    """Rebuild the curator saved by :func:`save_checkpoint`.

    Returns the :class:`~repro.core.online.OnlineRetraSyn` — built from
    the stored config, so with the same shard count and executor — whose
    next ``process_timestep`` continues exactly where the saved one
    stopped (``curator._last_t + 1``).  Checkpoints of an older format version are
    refused with a :class:`~repro.exceptions.DatasetError` naming it.
    Only load checkpoints you wrote: the format is pickle.
    """
    return load_checkpoint_with_spec(path)[0]


def load_checkpoint_with_spec(path: Union[str, Path]):
    """One-read variant of :func:`load_checkpoint` + :func:`peek_checkpoint_spec`.

    Returns ``(curator, spec)``.  Session resume
    (:func:`repro.api.session.load_session`) uses this so large payloads
    — the trajectory store, model and ledgers — are unpickled once.
    """
    from repro.core.online import OnlineRetraSyn

    payload = _read_newest_valid(path)
    # The replace below keeps only current fields.  A removed on/off
    # switch that was on changed every round, so such a file is refused
    # here rather than resumed without it.
    current = {f.name for f in dataclasses.fields(RetraSynConfig)}
    removed_on = sorted(
        name for name, value in vars(payload["config"]).items()
        if name not in current and value is True
    )
    if removed_on:
        raise DatasetError(
            f"checkpoint {path} was written with removed option(s) "
            + ", ".join(f"{name}=True" for name in removed_on)
            + "; its rounds cannot be continued"
        )
    # Unpickling skips validation, so the curator is built from a
    # re-validated copy of the stored config.  Files written while
    # pipelined rounds existed may carry round_batch > 1; they resume one
    # timestamp per round, which those rounds were bit-identical to.
    config = dataclasses.replace(payload["config"], round_batch=1)
    curator = OnlineRetraSyn(payload["grid"], config, lam=payload["lam"])
    curator.restore_state(payload["state"])
    return curator, payload["spec"]


def peek_checkpoint_spec(path: Union[str, Path]):
    """The :class:`~repro.api.specs.SessionSpec` stored in a checkpoint."""
    return _read_newest_valid(path)["spec"]


def save_config(config: RetraSynConfig, path: Union[str, Path]) -> None:
    """Write a configuration as pretty-printed JSON."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: Union[str, Path]) -> RetraSynConfig:
    """Read a configuration written by :func:`save_config`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"config file not found: {path}")
    return config_from_dict(json.loads(path.read_text()))
