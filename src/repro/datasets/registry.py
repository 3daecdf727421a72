"""Name-based dataset loading used by experiments and benchmarks.

``load_dataset("tdrive", scale=0.05)`` hides generator details behind the
paper's dataset names so experiment code reads like the evaluation section.
Each factory imports its generator when it runs, so listing the names
(the CLI's ``--dataset`` choices) imports none of them.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import DatasetError
from repro.rng import RngLike
from repro.stream.stream import StreamDataset


def _tdrive(scale: float, k: int, seed: RngLike) -> StreamDataset:
    from repro.datasets.tdrive import TDriveConfig, make_tdrive

    return make_tdrive(TDriveConfig.scaled(scale, k=k), seed=seed)


def _oldenburg(scale: float, k: int, seed: RngLike) -> StreamDataset:
    from repro.datasets.brinkhoff import make_oldenburg

    return make_oldenburg(scale, k=k, seed=seed)


def _sanjoaquin(scale: float, k: int, seed: RngLike) -> StreamDataset:
    from repro.datasets.brinkhoff import make_sanjoaquin

    return make_sanjoaquin(scale, k=k, seed=seed)


_REGISTRY: dict[str, Callable[[float, int, RngLike], StreamDataset]] = {
    "tdrive": _tdrive,
    "t-drive": _tdrive,
    "oldenburg": _oldenburg,
    "sanjoaquin": _sanjoaquin,
}


def available_datasets() -> list[str]:
    """Canonical dataset names accepted by :func:`load_dataset`."""
    return ["tdrive", "oldenburg", "sanjoaquin"]


def load_dataset(
    name: str, scale: float = 0.05, k: int = 6, seed: RngLike = 0
) -> StreamDataset:
    """Generate one of the paper's three datasets at the requested scale.

    ``scale=1.0`` approximates the Table I magnitudes; the default 0.05 is
    laptop-friendly while retaining the datasets' qualitative structure.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        )
    return _REGISTRY[key](scale, k, seed)
