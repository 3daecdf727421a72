"""Seeded random-number helpers.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  This
module centralises that convention so components never call
``numpy.random.default_rng`` ad hoc and experiments stay reproducible.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import DatasetError

RngLike = Union[int, np.random.Generator, None]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` for fresh OS entropy, an ``int`` seed, or an existing
        generator (returned unchanged so callers can share one stream).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"rng must be None, an int seed, or a numpy Generator, got {type(rng)!r}"
    )


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` statistically independent child generators.

    Children are derived through :class:`numpy.random.SeedSequence` spawning,
    so results do not depend on the order in which children are consumed.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def load_rng(rng: np.random.Generator, value) -> None:
    """Set ``rng`` to a PCG64 ``bit_generator.state`` read from a checkpoint."""
    try:
        if not (isinstance(value, dict) and value.get("bit_generator") == "PCG64"):
            raise ValueError("not a PCG64 state")
        rng.bit_generator.state = value
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise DatasetError(f"bad checkpoint rng state: {repr(value)[:80]}") from exc
