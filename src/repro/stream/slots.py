"""Shared uid → dense-slot table backing the columnar user-state planes.

Several per-user columnar stores need the same mapping: given an int64
array of user ids, find (or create) each user's dense row index so that
statuses, last-report timestamps and privacy-ledger windows can live in
flat numpy arrays instead of per-uid dicts.  :class:`UserSlotTable` is
that mapping, fully vectorized, and it *owns the rows*:

* a lookup is one gather — no Python loop over the batch, which is what
  keeps ``spend_many`` / ``active_mask`` array-speed at 100k+ reporters
  per round (see "Two indexes" below);
* slot numbers are assigned in **first-appearance order**, exactly like
  the dict-based stores they replace, so audit surfaces that iterate in
  slot order (``recycle`` return values, ``active_users``) keep their
  historical ordering;
* per-user state lives in **columns hung on the table**
  (:meth:`UserSlotTable.add_column`): the table grows every column in one
  place and keeps them row-aligned, so components never carry their own
  capacity bookkeeping;
* one table can be *shared* between components — the unsharded curator
  hands the same instance to its :class:`~repro.stream.user_tracker
  .UserTracker` and its columnar privacy accountant, so a user occupies
  one row everywhere;
* the table is **self-compacting**: components attach a release rule
  (:meth:`UserSlotTable.attach`), and whenever the table has doubled since
  its last scan, rows that *every* attached component releases are
  retired by one order-preserving compaction of the uid column, the
  index and every hung column.  Surviving users keep their relative
  (first-appearance) order; a retired uid that shows up again is simply
  interned as a fresh arrival.  A round therefore costs what the live
  rows cost, not what every uid ever seen costs.

Two indexes, one at a time
--------------------------
A table holding rows has exactly one index; an empty table has none.

* **The dense map** serves a table while its resident uids are *dense*:
  their span (largest minus smallest, plus one) is at most
  ``_DENSE_SPAN`` times the table's capacity.  It is a direct-address
  array ``uid - base -> slot`` (``-1`` where no resident uid sits), so a
  lookup is a range check and a gather.  Uids handed out in arrival
  order — every generated dataset, the round benchmark's clients — stay
  dense however many users have come and gone, as long as the oldest
  resident user arrived not too many arrivals before the newest:
  compaction shrinks the span back to the rows that stay.  The identity
  mapping (uids ``0..n-1`` interned in order) is its special case, not a
  separate path.  ``_append`` writes new uids into it, widening it when
  they fall outside; ``_compact`` rebuilds it over the rows that stay.
* **The sorted index** (a ``searchsorted`` over the resident uids, sorted)
  serves a table whose uids are too sparse for the map: hashed int64 ids
  from an HTTP client, whose span no memory bound could cover, or one
  hash partition whose long-lived users hold the span open.  It takes
  over when an append would stretch the span past the bound, and it stays
  for that input.  New uids that sort after its tail (the shape every
  replay generates) are appended in amortised O(1); only a compaction
  that leaves a dense population switches back to the map.

Both exist because neither serves every input: the map is a gather but
its memory follows the uid span, the sorted index is ``O(log n)`` per id
but its memory follows the rows.  Which one serves a table changes only
its speed, never a slot, a ``-1`` or an error.

The table's ``state()`` is its resident uids and hung columns, named by
their owners; ``load_state`` fills a table whose owners the curator's
constructor attached, so a shared table is shared again by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError

#: Largest single growth step of an :func:`extend_log` array, in entries.
_LOG_STEP = 1 << 16

#: Tables smaller than this are never scanned for retirable rows.
_MIN_COMPACT_ROWS = 1024

#: Smallest capacity :func:`reserve` grows an array to.
_MIN_GROWTH = 1024

#: A table keeps the dense uid map while its resident uids span at most
#: this many times its capacity (see the module docstring).
_DENSE_SPAN = 4


def _as_id_array(user_ids) -> np.ndarray:
    """Normalise ids to int64, rejecting silent coercion.

    Float/object inputs raise (the dict stores this table replaced would
    have raised on lookup or aliased distinct users on truncation), and
    uint64 values above the int64 range raise instead of wrapping to
    negative ids.
    """
    ids = np.asarray(user_ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            f"user ids must be integers, got dtype {ids.dtype}"
        )
    if ids.dtype == np.uint64 and ids.size and ids.max() > np.uint64(
        np.iinfo(np.int64).max
    ):
        raise ConfigurationError("user ids exceed the int64 range")
    return np.atleast_1d(ids.astype(np.int64, copy=False))


def reserve(arr: np.ndarray, used: int, need: int, fill=0) -> np.ndarray:
    """``arr`` with room for ``need`` entries along its last axis.

    Returns ``arr`` itself when it is already large enough; otherwise a
    1.5x-grown copy of the first ``used`` entries, padded with ``fill``
    (amortised growth: appends cost O(1) each).
    """
    cap = arr.shape[-1]
    if need <= cap:
        return arr
    grown = np.full(
        arr.shape[:-1] + (max(need, cap + cap // 2, _MIN_GROWTH),), fill, dtype=arr.dtype
    )
    grown[..., :used] = arr[..., :used]
    return grown


def extend_log(arr: np.ndarray, used: int, need: int) -> np.ndarray:
    """:func:`reserve` for a zero-padded 1-D log nobody else aliases.

    Grows by ``realloc`` in place — large blocks are remapped by the
    allocator rather than copied — and, once large, in fixed steps, so
    each growth faults in at most ``_LOG_STEP`` fresh entries and
    appending to a log of millions of entries never stalls a round.  Only
    for arrays whose sole reference is the owner's attribute (a view taken
    earlier would dangle); anything that does not own its memory takes
    the copy path.
    """
    cap = arr.shape[0]
    if need <= cap:
        return arr
    try:
        arr.resize(
            max(need, cap + min(max(cap // 2, 1024), _LOG_STEP)), refcheck=False
        )
    except ValueError:  # not the owner of its data (e.g. built on a buffer)
        return reserve(arr, used, need)
    return arr


def find_sorted(sorted_values: np.ndarray, values: np.ndarray):
    """``(found, pos)``: where each of ``values`` sits in ``sorted_values``.

    ``sorted_values`` must be non-empty; ``pos`` is only meaningful
    where ``found``.
    """
    pos = np.minimum(
        np.searchsorted(sorted_values, values), sorted_values.size - 1
    )
    return sorted_values[pos] == values, pos


class SlotColumn:
    """One per-slot array hung on a :class:`UserSlotTable`.

    The slot axis is the **last** axis of ``data`` (a ``depth``-deep
    column is ``(depth, capacity)``, so each of its layers is contiguous
    over the slots).  ``data`` is capacity-padded (entries at or beyond
    ``n_slots`` hold ``fill``) and is *replaced* when the table grows, so
    owners index ``column.data`` afresh after every ``intern`` instead of
    caching it.  ``name`` labels the column in the table's ``state()``.
    """

    def __init__(self, name: str, data: np.ndarray, fill) -> None:
        self.name = name
        self.data = data
        self.fill = fill


class UserSlotTable:
    """Vectorized, self-compacting mapping from user id to dense slot index."""

    def __init__(self) -> None:
        self._uids = np.empty(0, dtype=np.int64)  # slot -> uid (capacity-padded)
        self._n = 0
        # The one index of a table holding rows (none while it is empty):
        # the dense map uid - _lo -> slot over resident uids in
        # [_lo, _hi], or the sorted index (capacity-padded) when they are
        # too sparse for it.
        self._map: Optional[np.ndarray] = None
        self._lo = self._hi = 0
        self._sorted_uids: Optional[np.ndarray] = None
        self._sorted_slots: Optional[np.ndarray] = None
        self._columns: list[SlotColumn] = []
        self._owners: list = []
        self._compact_at = _MIN_COMPACT_ROWS
        #: Rows retired by compaction since the table was created.
        self.n_retired = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_slots(self) -> int:
        return self._n

    @property
    def uids(self) -> np.ndarray:
        """uid of each slot, indexed by slot (do not mutate)."""
        return self._uids[: self._n]

    @property
    def index(self) -> Optional[str]:
        """The index serving lookups: ``"dense"``, ``"sorted"``, or ``None``
        while the table is empty."""
        if self._map is not None:
            return "dense"
        return None if self._sorted_uids is None else "sorted"

    def __len__(self) -> int:
        return self._n

    def __contains__(self, user_id) -> bool:
        return self.slot_of(user_id) >= 0

    # ------------------------------------------------------------------ #
    # columns and release rules
    # ------------------------------------------------------------------ #
    def add_column(
        self, name: str, dtype, fill=0, depth: Optional[int] = None
    ) -> SlotColumn:
        """Hang a per-slot column (``depth`` layers deep, if given) on the table."""
        shape = (len(self._uids),) if depth is None else (depth, len(self._uids))
        column = SlotColumn(name, np.full(shape, fill, dtype=dtype), fill)
        self._columns.append(column)
        return column

    def attach(self, owner) -> None:
        """Give ``owner`` a vote on which rows may be retired.

        ``owner._releasable(n)`` returns a boolean mask over slots
        ``[0, n)`` of rows the owner no longer needs; a row is retired
        only when every attached owner releases it.  Just before the
        compaction ``owner._retire(slots)`` lets the owner move what must
        outlive the row (audit totals) elsewhere.  A table with no owner
        attached never retires anything.
        """
        self._owners.append(owner)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def lookup(self, user_ids) -> np.ndarray:
        """Slots of ``user_ids``; ``-1`` marks ids the table does not hold."""
        ids = _as_id_array(user_ids)
        if self._n == 0 or ids.size == 0:
            return np.full(ids.shape, -1, dtype=np.int64)
        if self._map is None:
            found, pos = find_sorted(self._sorted_uids[: self._n], ids)
            return np.where(found, self._sorted_slots[pos], -1)
        lo, hi = self._lo, self._hi
        if lo <= ids.min() and ids.max() <= hi:
            return self._map[ids - lo]
        # ids - lo wraps only where ids lie outside [lo, hi], never read.
        inside = (ids >= lo) & (ids <= hi)
        return np.where(inside, self._map[np.where(inside, ids - lo, 0)], -1)

    def slot_of(self, user_id) -> int:
        """Scalar lookup; ``-1`` when unknown."""
        return int(self.lookup([user_id])[0])

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #
    def intern(self, user_ids) -> np.ndarray:
        """Slots of ``user_ids``, appending unseen ids as new slots.

        New ids receive consecutive slots in first-appearance order (the
        dict-insertion order of the stores this table replaced), even when
        one batch repeats an id.  Slots handed out by an earlier call are
        only valid until the next one: a scan for retirable rows may run
        here, before any slot of this batch is resolved.
        """
        ids = _as_id_array(user_ids)
        if self._n >= self._compact_at:
            self._reclaim()
        slots = self.lookup(ids)
        missing = slots < 0
        if missing.any():
            uniq, first_idx, inverse = np.unique(
                ids[missing], return_index=True, return_inverse=True
            )
            order = np.argsort(first_idx, kind="stable")
            base, count = self._n, uniq.size
            rank = np.empty(count, dtype=np.int64)
            rank[order] = np.arange(count, dtype=np.int64)
            slots[missing] = base + rank[inverse]
            self._append(uniq[order])
        return slots

    def state(self) -> dict:
        """uids and hung columns (registration order) of the resident rows.

        ``identity`` (every uid equals its slot) is derived from the uids;
        :meth:`load_state` checks it.
        """
        n = self._n
        columns = {c.name: c.data[..., :n].ravel() for c in self._columns}
        identity = bool(np.array_equal(self._uids[:n], np.arange(n)))
        return {
            "n_retired": self.n_retired, "identity": identity,
            "compact_at": self._compact_at, "uids": self._uids[:n], **columns,
        }

    def load_state(self, state: dict) -> None:
        """Fill this table, its owners attached, from :meth:`state`."""
        self._uids = state["uids"].copy()
        self._n = n = self._uids.size
        self._reindex()
        slots = np.arange(n)
        # A repeated uid resolves to one slot, so some slot misses itself.
        bad = not np.array_equal(self.lookup(self._uids), slots)
        if bad or (state["identity"] is True and not np.array_equal(self._uids, slots)):
            raise ValueError("slot uids repeat, or break the identity flag")
        for column in self._columns:
            shape = column.data.shape[:-1] + (n,)
            column.data = np.array(state[column.name].reshape(shape), column.data.dtype)
        self._compact_at, self.n_retired = int(state["compact_at"]), int(state["n_retired"])

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _append(self, new_uids: np.ndarray) -> None:
        """Give ``new_uids`` (distinct, unseen) the next slots, in order."""
        base = self._n
        need = base + new_uids.size
        if need > len(self._uids):
            self._uids = reserve(self._uids, base, need)
            for column in self._columns:
                column.data = reserve(column.data, base, len(self._uids), column.fill)
        self._uids[base:need] = new_uids
        self._n = need
        new_slots = np.arange(base, need, dtype=np.int64)
        if self._sorted_uids is not None:
            self._index_new(base, new_uids, new_slots)
            return
        lo, hi = int(new_uids.min()), int(new_uids.max())
        if self._map is not None:
            lo, hi = min(lo, self._lo), max(hi, self._hi)
        if not self._dense(hi - lo + 1):
            # Too sparse for the map: the sorted index takes over.
            self._map = None
            self._build_index()
        elif self._map is None or lo < self._lo:
            self._build_map(lo, hi)
        else:
            self._map = reserve(self._map, len(self._map), hi - lo + 1, fill=-1)
            self._hi = hi
            self._map[new_uids - lo] = new_slots

    def _dense(self, span: int) -> bool:
        """Whether a uid span this wide is served by the dense map."""
        return span <= _DENSE_SPAN * max(len(self._uids), _MIN_GROWTH)

    def _build_map(self, lo: int, hi: int) -> None:
        n = self._n
        self._lo, self._hi = lo, hi
        self._map = np.full(hi - lo + 1, -1, dtype=np.int64)
        self._map[self._uids[:n] - lo] = np.arange(n, dtype=np.int64)

    def _build_index(self) -> None:
        n = self._n
        order = np.argsort(self._uids[:n], kind="stable")
        self._sorted_uids = self._uids[:n][order]
        self._sorted_slots = order.astype(np.int64, copy=False)

    def _reindex(self, keep: Optional[np.ndarray] = None) -> None:
        """Give the resident rows their index: the map if their uids are
        dense, else the sorted index.

        ``keep`` (the mask a compaction kept, over the old rows) lets a
        sorted index that stays sorted be compacted in place instead of
        re-sorted.
        """
        sorted_uids, sorted_slots = self._sorted_uids, self._sorted_slots
        self._map = self._sorted_uids = self._sorted_slots = None
        n = self._n
        if n == 0:
            return
        uids = self._uids[:n]
        lo, hi = int(uids.min()), int(uids.max())
        if self._dense(hi - lo + 1):
            self._build_map(lo, hi)
        elif keep is None or sorted_uids is None:
            self._build_index()
        else:
            new_slot = np.cumsum(keep) - 1
            kept = keep[sorted_slots[: keep.size]]
            sorted_uids[:n] = sorted_uids[: keep.size][kept]
            sorted_slots[:n] = new_slot[sorted_slots[: keep.size][kept]]
            self._sorted_uids, self._sorted_slots = sorted_uids, sorted_slots

    def _index_new(self, base: int, new_uids, new_slots) -> None:
        """Merge freshly appended slots into the sorted index."""
        order = np.argsort(new_uids, kind="stable")
        new_uids, new_slots = new_uids[order], new_slots[order]
        if new_uids[0] > self._sorted_uids[base - 1]:
            # Everything sorts after the tail: an amortised append.
            need = base + new_uids.size
            self._sorted_uids = reserve(self._sorted_uids, base, need)
            self._sorted_slots = reserve(self._sorted_slots, base, need)
            self._sorted_uids[base:need] = new_uids
            self._sorted_slots[base:need] = new_slots
            return
        pos = np.searchsorted(self._sorted_uids[:base], new_uids)
        self._sorted_uids = np.insert(self._sorted_uids[:base], pos, new_uids)
        self._sorted_slots = np.insert(self._sorted_slots[:base], pos, new_slots)

    def _reclaim(self) -> None:
        """Retire the rows every owner releases; schedule the next scan."""
        n = self._n
        if self._owners:
            release = np.ones(n, dtype=bool)
            for owner in self._owners:
                release &= owner._releasable(n)
            if release.any():
                self._compact(release)
        # Scans are paid for by growth: the next one runs when the table
        # has doubled, so their cost is amortised O(1) per appended row.
        self._compact_at = max(_MIN_COMPACT_ROWS, 2 * self._n)

    def _compact(self, release: np.ndarray) -> None:
        """Drop the released rows, preserving the order of the rest."""
        n = self._n
        gone = np.flatnonzero(release)
        for owner in self._owners:
            owner._retire(gone)
        keep = ~release
        n_keep = n - gone.size
        self._uids[:n_keep] = self._uids[:n][keep]
        for column in self._columns:
            column.data[..., :n_keep] = column.data[..., :n][..., keep]
            column.data[..., n_keep:n] = column.fill
        self._n = n_keep
        self.n_retired += int(gone.size)
        self._reindex(keep)
