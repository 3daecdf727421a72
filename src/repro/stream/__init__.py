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

from repro._lazy import lazy_exports

_EXPORTS = {
    "StateKind": "events",
    "TransitionState": "events",
    "TransitionStateSpace": "state_space",
    "StreamDataset": "stream",
    "UserStatus": "user_tracker",
    "UserTracker": "user_tracker",
    "UserSlotTable": "slots",
    "ReportBatch": "reports",
    "ColumnarStreamView": "reports",
    "shard_of_array": "reports",
    "TimestampAssembler": "ingest",
    "IngestStats": "ingest",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
