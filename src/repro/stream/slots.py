"""Shared uid → dense-slot table backing the columnar user-state planes.

Several per-user columnar stores need the same mapping: given an int64
array of user ids, find (or create) each user's dense row index so that
statuses, last-report timestamps and privacy-ledger windows can live in
flat numpy arrays instead of per-uid dicts.  :class:`UserSlotTable` is
that mapping, fully vectorized, and it *owns the rows*:

* lookups are one ``np.searchsorted`` over a sorted uid index — no Python
  loop over the batch, which is what keeps ``spend_many`` /
  ``active_mask`` array-speed at 100k+ reporters per round;
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
  sorted index and every hung column.  Surviving users keep their
  relative (first-appearance) order; a retired uid that shows up again is
  simply interned as a fresh arrival.  A round therefore costs what the
  live rows cost, not what every uid ever seen costs;
* steady-state admission has an **identity fast path**: while every
  interned uid equals its own slot (the table is an *identity* mapping —
  the shape :meth:`UserSlotTable.intern` produces for a dense uid
  population, uids ``0..n-1`` interned in order), lookups are a pure
  bounds check with **no** ``searchsorted`` and the sorted index is not
  even built.  The flag degrades
  automatically (and permanently) the first time a non-dense uid arrives
  or a row is retired; the index is then built on the next lookup and
  extended by an amortised append whenever new uids sort after its tail
  (the shape every replay generates).

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
        arr.shape[:-1] + (max(need, cap + cap // 2, 1024),), fill, dtype=arr.dtype
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
        # Sorted secondary index for O(log n) vectorized lookups: built on
        # the first lookup after the identity fast path disarms.
        self._sorted_uids: Optional[np.ndarray] = None  # capacity-padded
        self._sorted_slots: Optional[np.ndarray] = None
        # True while uid == slot for every interned uid (dense 0..n-1
        # population): lookups are then a bounds check, no searchsorted.
        self._identity = True
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
    @property
    def is_identity(self) -> bool:
        """True while every interned uid equals its slot (fast-path armed)."""
        return self._identity

    def lookup(self, user_ids) -> np.ndarray:
        """Slots of ``user_ids``; ``-1`` marks ids the table does not hold."""
        ids = _as_id_array(user_ids)
        if self._n == 0 or ids.size == 0:
            return np.full(ids.shape, -1, dtype=np.int64)
        if self._identity:
            # Pre-registered fast path: uid == slot, so known ids map to
            # themselves and anything outside [0, n) is unseen.
            return np.where((ids >= 0) & (ids < self._n), ids, -1)
        if self._sorted_uids is None:
            self._build_index()
        found, pos = find_sorted(self._sorted_uids[: self._n], ids)
        return np.where(found, self._sorted_slots[pos], -1)

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
        """uids and hung columns (registration order) of the resident rows."""
        n = self._n
        columns = {c.name: c.data[..., :n].ravel() for c in self._columns}
        return {
            "n_retired": self.n_retired, "identity": self._identity,
            "compact_at": self._compact_at, "uids": self._uids[:n], **columns,
        }

    def load_state(self, state: dict) -> None:
        """Fill this table, its owners attached, from :meth:`state`."""
        self._uids, self._identity = state["uids"].copy(), state["identity"] is True
        self._n = n = self._uids.size
        self._sorted_uids = self._sorted_slots = None
        if self._identity:
            bad = (self._uids != np.arange(n)).any()
        else:
            self._build_index()  # sorted, so a repeated uid sits beside itself
            bad = (self._sorted_uids[1:] == self._sorted_uids[:-1]).any()
        if bad:
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
        if self._identity:
            # Identity survives only while the appended uids continue the
            # dense 0..n-1 run; one gap or reordering disarms it.  The
            # sorted index is never read while it is armed, so none is
            # kept: the first lookup after disarming builds it.
            self._identity = bool(np.array_equal(new_uids, new_slots))
        elif self._sorted_uids is not None:
            self._index_new(base, new_uids, new_slots)

    def _build_index(self) -> None:
        n = self._n
        order = np.argsort(self._uids[:n], kind="stable")
        self._sorted_uids = self._uids[:n][order]
        self._sorted_slots = order.astype(np.int64, copy=False)

    def _index_new(self, base: int, new_uids, new_slots) -> None:
        """Merge freshly appended slots into the sorted index."""
        order = np.argsort(new_uids, kind="stable")
        new_uids, new_slots = new_uids[order], new_slots[order]
        if base == 0 or new_uids[0] > self._sorted_uids[base - 1]:
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
        if self._sorted_uids is not None:
            new_slot = np.cumsum(keep) - 1
            kept = keep[self._sorted_slots[:n]]
            self._sorted_uids[:n_keep] = self._sorted_uids[:n][kept]
            self._sorted_slots[:n_keep] = new_slot[self._sorted_slots[:n][kept]]
        self._identity = False
        self._n = n_keep
        self.n_retired += int(gone.size)
