"""Trajectory-stream substrate.

Models the paper's streaming setting (Sections II-B and III-B):

* :class:`~repro.stream.events.TransitionState` — a user's per-timestamp
  mobility status: a movement ``m_ij`` between adjacent cells, an entering
  event ``e_i``, or a quitting event ``q_j``.
* :class:`~repro.stream.state_space.TransitionStateSpace` — dense indexing of
  the full state domain ``S`` under reachability constraints (``O(9|C|)``).
* :class:`~repro.stream.stream.StreamDataset` — a collection of cell
  trajectories viewed timestamp-by-timestamp, deriving each user's
  transition state at each timestamp.
* :class:`~repro.stream.user_tracker.UserTracker` — the dynamic active-user
  set with the recycling rule of Algorithm 1 (line 9).
* :class:`~repro.stream.slots.UserSlotTable` — the vectorized uid → dense
  slot mapping shared by the tracker's status columns and the columnar
  privacy accountant's spend ring buffer.
* :class:`~repro.stream.reports.ReportBatch` — the columnar report plane:
  per-timestamp batches as numpy index arrays, the wire format the whole
  collection pipeline (shards included) speaks;
  :class:`~repro.stream.reports.ColumnarStreamView` replays a finished
  dataset as those batches, for RetraSyn and the baselines alike.
* :mod:`~repro.stream.ingest` — the ingestion front-end: out-of-order
  report batches assembled into closed, canonically ordered timestamps
  under a watermark.
"""

from repro.stream.events import StateKind, TransitionState
from repro.stream.ingest import IngestStats, TimestampAssembler
from repro.stream.reports import (
    ColumnarStreamView,
    ReportBatch,
    shard_of_array,
)
from repro.stream.slots import UserSlotTable
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset
from repro.stream.user_tracker import UserStatus, UserTracker

__all__ = [
    "StateKind",
    "TransitionState",
    "TransitionStateSpace",
    "StreamDataset",
    "UserStatus",
    "UserTracker",
    "UserSlotTable",
    "ReportBatch",
    "ColumnarStreamView",
    "shard_of_array",
    "TimestampAssembler",
    "IngestStats",
]
