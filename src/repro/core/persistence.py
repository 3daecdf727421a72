"""Persistence for mobility models, configurations and curator checkpoints.

A deployed curator needs to survive restarts.  Three artefact shapes:

* **models** (npz): the learned global mobility model — frequencies plus
  the grid geometry and state-space flags needed to rebuild the space;
* **configurations** (JSON): the full pipeline tuning;
* **checkpoints** (format v7): RSF2 frames (:mod:`repro.api.schema`) — a
  ``checkpoint`` header with the version, grid, λ and the session spec's
  flat dict, then one ``state`` frame per stateful component (under the
  distributed executor, the frames each worker returns for its shard).
  A budget-division curator's ``ledger`` frame holds its O(w) schedule
  ledger and no slot table; the ``store`` frame is the trajectory store's
  round log as stored, adopted on load without a transpose.

Loading reads the header's spec with :func:`config_from_dict`, the one
reader of stored specs (JSON config files use it too), builds the curator
with its normal constructor and calls ``load_state`` on each component,
so shared references — the K=1 shard drawing from the engine rng, its
tracker on the ledger's slot table — come from the constructor; the
resumed curator continues bit for bit.  Nothing in a checkpoint is
executable: a file without the RSF2 magic (a pickle checkpoint of format
4 or older) is refused unread.  Restoring any artefact is pure
post-processing of already-released statistics (paper Theorem 2), so
persistence never touches the privacy budget.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import warnings
from pathlib import Path
from typing import Union

import numpy as np

from repro.api import schema
from repro.core.mobility_model import GlobalMobilityModel
from repro.core.retrasyn import RetraSynConfig
from repro.exceptions import ConfigurationError, DatasetError, ReproError
from repro.geo.grid import Grid
from repro.geo.point import BoundingBox
from repro.stream.state_space import TransitionStateSpace

_MODEL_FORMAT_VERSION = 1
# v7: RSF2 frames — a header, then one state frame per component; the
# store frame is the round log, the slots frame carries no identity flag.
# v6 held a row-major store frame and v5 a per-user budget ledger; both
# are refused, as are v4 and older, which were pickles of the curator's
# attribute graph.
_CHECKPOINT_FORMAT_VERSION = 7

#: Fields stored specs may still carry that the spec no longer has.  All
#: were service fields, which a resumed session takes from its caller, so
#: the reader drops them: ``queue_size`` bounded the replay's asyncio
#: queue, which is gone.
_REMOVED_FIELDS = frozenset({"queue_size"})


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
    """Inverse of :func:`config_to_dict` (validates via the dataclass).

    The one reader of stored specs: JSON config files and checkpoint
    headers both come through here.  A dict written before the service
    fields joined the config (20 keys) loads too — absent fields take
    their defaults — and so does one carrying a removed service field
    (:data:`_REMOVED_FIELDS`), which is dropped.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"a config must be a JSON object, got {type(data).__name__}"
        )
    data = {k: v for k, v in data.items() if k not in _REMOVED_FIELDS}
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


def _header(curator, spec) -> dict:
    """The header frame: version, grid, λ and the spec's field dict."""
    flat = dataclasses.asdict(spec)
    if not isinstance(flat["seed"], int):
        flat["seed"] = None  # generators are process-local state
    bbox = list(map(float, dataclasses.astuple(curator.grid.bbox)))
    return schema.message(
        "checkpoint", version=_CHECKPOINT_FORMAT_VERSION, lam=float(curator.lam),
        spec={k: v.item() if isinstance(v, np.generic) else v for k, v in flat.items()},
        grid={"k": curator.grid.k, "bbox": bbox},
    )


def save_checkpoint(curator, path: Union[str, Path], spec=None, keep: int = 1) -> None:
    """Freeze a running curator to ``path``.

    Writes the header frame, then every component's ``state`` frame
    (:meth:`~repro.core.online.OnlineRetraSyn.state_frames`), fetching the
    distributed executor's shard frames from its workers.

    ``spec`` is the session's :class:`~repro.api.specs.SessionSpec`; it
    defaults to the curator's own config.

    ``keep`` enables rotation: with ``keep > 1`` each save writes a new
    timestamped generation (``<path>.g<stamp>``) and prunes the oldest
    beyond ``keep``, so a checkpoint torn by a crash mid-write — or
    corrupted afterwards — still leaves the previous generation for
    :func:`load_checkpoint` to fall back to.  Every write remains atomic
    (tmp file + rename) in both layouts; a successful save also removes
    the temp files a crashed save left behind.
    """
    import time

    spec = spec if spec is not None else curator.config
    parts = schema.dump_frame_parts(_header(curator, spec)) + curator.state_frames()
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
        for part in parts:
            fh.write(part)
    tmp.replace(target)  # atomic: a crash mid-write never corrupts
    # Prune old generations and whatever temp files crashed saves left.
    stale = list(path.parent.glob(path.name + ".g*.tmp")) + [Path(str(path) + ".tmp")]
    for old in stale + (_generation_files(path)[keep:] if keep > 1 else []):
        try:
            old.unlink()
        except OSError:  # already gone, or concurrent cleanup
            pass


def _check_magic(path: Path, head) -> None:
    """Refuse, unread, any file that does not open with the RSF2 magic."""
    if bytes(head[: len(schema.FRAME_MAGIC)]) != schema.FRAME_MAGIC:
        raise DatasetError(
            f"checkpoint {path} is not an RSF2 checkpoint; pickle checkpoints "
            "(format <= 4) are no longer read"
        )


def _check_version(header: dict) -> None:
    """Refuse a header of another format version, before any state frame
    of the file is decoded."""
    if header.get("version") != _CHECKPOINT_FORMAT_VERSION:
        raise DatasetError(
            f"unsupported checkpoint format version {header.get('version')!r} "
            f"(expected {_CHECKPOINT_FORMAT_VERSION})"
        )


def _parse_header(path: Path, header: dict, nbytes: int, shards=None):
    """``(spec, grid, lam)`` from a header frame, once the file's ``nbytes``
    and (unless ``None``) ``shards`` shard frames are seen to back its sizes."""
    try:
        k, bbox = int(header["grid"]["k"]), map(float, header["grid"]["bbox"])
        spec = config_from_dict(header["spec"])
        sizes = (k * k, 8 * spec.w, 100 * spec.synthesis_shards)
        if k < 1 or max(sizes) > nbytes or shards not in (None, spec.n_shards):
            raise ValueError(f"sizes {sizes} and {shards} shard frames do not fit")
        return spec, Grid(BoundingBox(*bbox), k), float(header["lam"])
    except (ReproError, ValueError, TypeError, KeyError, OverflowError) as exc:
        raise DatasetError(f"checkpoint {path}: bad header: {exc!r}") from exc


def _read_checkpoint(path: Path, header_only: bool = False):
    """``((spec, grid, lam), frames)`` of one file, ``frames`` holding each
    decoded component frame and its raw bytes (none with ``header_only``)."""
    if not path.exists():
        raise DatasetError(f"checkpoint file not found: {path}")
    nbytes, frames = path.stat().st_size, []
    with open(path, "rb") as fh:
        if header_only:
            data = fh.read(schema.FRAME_PREFIX_LEN)
        else:  # a writable buffer (a bytearray without its zero fill)
            data = np.empty(nbytes, dtype=np.uint8)
            data = data[: fh.readinto(memoryview(data))]
        _check_magic(path, data)
        try:
            if header_only:
                data += fh.read(schema.frame_length(data))
            header, offset = schema.load_frame(data, 0, expect="checkpoint")
            _check_version(header)
            while offset < len(data) and not header_only:
                msg, end = schema.load_frame(data, offset, expect="state")
                frames.append((msg, memoryview(data)[offset:end]))
                offset = end
        except schema.SchemaError as exc:
            raise DatasetError(f"checkpoint {path}: {exc}") from exc
    shards = None if header_only else sum(m["component"] == "shard" for m, _ in frames)
    return _parse_header(path, header, nbytes, shards), frames


def _read_newest_valid(path: Union[str, Path], read=_read_checkpoint):
    """``read`` of the newest *readable* checkpoint for ``path``.

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
            return read(candidate)
        except (ReproError, OSError) as exc:  # torn write, truncation, bad version...
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
    the stored spec, so with the same shard count and executor — whose
    next ``process_timestep`` continues exactly where the saved one
    stopped (``curator._last_t + 1``).  Files of another format version,
    pickle checkpoints included, and malformed files are refused with a
    :class:`~repro.exceptions.DatasetError`.
    """
    return load_checkpoint_with_spec(path)[0]


def load_checkpoint_with_spec(path: Union[str, Path]):
    """One-read variant of :func:`load_checkpoint` + :func:`peek_checkpoint_spec`.

    Returns ``(curator, spec)``; session resume
    (:func:`repro.api.session.load_session`) uses this.
    """
    from repro.core.online import OnlineRetraSyn

    (spec, grid, lam), frames = _read_newest_valid(path)
    try:
        curator = OnlineRetraSyn(grid, spec, lam=lam)
    except (ReproError, ValueError, TypeError, OverflowError) as exc:  # e.g. a bad seed
        raise DatasetError(f"checkpoint {path}: {exc}") from exc
    try:
        curator.load_state_frames(frames)
    except BaseException:
        curator.close()
        raise
    return curator, spec


def peek_checkpoint_spec(path: Union[str, Path]):
    """The stored :class:`~repro.api.specs.SessionSpec` of the newest
    readable checkpoint, from its header frame alone."""
    read = functools.partial(_read_checkpoint, header_only=True)
    return _read_newest_valid(path, read=read)[0][0]


def save_config(config: RetraSynConfig, path: Union[str, Path]) -> None:
    """Write a configuration as pretty-printed JSON."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: Union[str, Path]) -> RetraSynConfig:
    """Read a configuration written by :func:`save_config`.

    A file that is not a JSON object of config fields is refused with a
    :class:`~repro.exceptions.ConfigurationError`.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, and undecodable bytes
        raise ConfigurationError(f"config file {path} is not JSON: {exc}") from exc
    return config_from_dict(data)
