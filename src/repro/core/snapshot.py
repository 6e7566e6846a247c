"""Epoch/snapshot machinery: serve searches while the index mutates.

The paper closes by naming efficient large-scale insert/delete as future
work.  This module supplies the update subsystem the serving layer rests
on, in the classic LSM shape:

* :class:`DeltaBuffer` -- a small in-memory write-side structure.
  Inserts append to a versioned op log (and a live-id map); deletes land
  in a tombstone set.  The frozen index is never touched by a mutation.
* :class:`BaseState` -- one immutable published build of the frozen
  index (partitioning, forest, datastore, transforms, conditioner and
  the Refine operands derived from them) plus pin accounting.  A
  search pins the base it opened with; a background merge waits for
  old pins to drain before declaring the swap complete.
* :class:`IndexSnapshot` -- the ``(frozen base, delta version)`` pair
  one search runs against.  Captured atomically under the index's
  mutation lock, so a search overlapping an insert sees exactly one of
  the two states -- never a torn array.

Deletes of frozen points are *logical*: the row stays in the frozen
structures and every search filters it out (the Plan stage inflates its
Algorithm-4 ``k`` by the tombstone count so Theorem 3's guarantee still
yields ``k`` live candidates).  A rebuild merge compacts them away; an
extend merge carries them forward as permanently dead rows
(``BaseState.dead_rows``) whose ``global_ids`` entry is retired to the
``-1`` sentinel so a reinserted id can coexist with its dead frozen
predecessor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "BaseState",
    "DeltaBuffer",
    "RefineOperands",
    "DeltaView",
    "IndexSnapshot",
    "MergeStats",
    "RecoveryStats",
]


@dataclass(frozen=True)
class DeltaView:
    """Frozen image of a :class:`DeltaBuffer` at one version.

    ``ids`` / ``points`` are the delta inserts *alive* at this version
    (an insert later deleted does not appear; a delete-then-reinsert
    keeps the newest copy), with ``ids`` ascending.  ``tombstones`` is
    every id deleted by an op at or before this version -- a safe
    superset for filtering the frozen side, because any id that was both
    deleted and reinserted through the delta serves from ``ids`` while
    its frozen copy (if any) must stay dead.
    """

    version: int
    ids: np.ndarray
    points: np.ndarray
    tombstones: FrozenSet[int]

    @property
    def n_inserts(self) -> int:
        """Alive delta inserts in this view."""
        return int(self.ids.size)

    @property
    def empty(self) -> bool:
        """True when no op had been applied when the view was taken."""
        return self.version == 0


class DeltaBuffer:
    """Thread-safe versioned op log of unmerged inserts and deletes.

    The version is the number of ops applied; :meth:`view` freezes the
    current ``(alive inserts, tombstones)`` resolution (cached until the
    next op).  Validation -- id liveness, domain checks -- is the
    *index's* job; the buffer only records ops.
    """

    def __init__(self, dimensionality: int) -> None:
        if dimensionality < 1:
            raise InvalidParameterError("dimensionality must be >= 1")
        self.dimensionality = int(dimensionality)
        self._ops: List[Tuple[str, int, Optional[np.ndarray]]] = []
        self._alive: Dict[int, np.ndarray] = {}
        self._tombs: set[int] = set()
        self._view: Optional[DeltaView] = None
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        """Ops applied so far (0 = pristine)."""
        with self._lock:
            return len(self._ops)

    def is_alive(self, point_id: int) -> bool:
        """Does an unmerged insert of this id currently serve?"""
        with self._lock:
            return int(point_id) in self._alive

    def is_tombstoned(self, point_id: int) -> bool:
        """Has this id been deleted since the last merge?"""
        with self._lock:
            return int(point_id) in self._tombs

    def insert(self, point: np.ndarray, point_id: int) -> None:
        """Record an insert (point is copied; id must not be delta-alive)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimensionality,):
            raise InvalidParameterError(
                f"point must have shape ({self.dimensionality},), got {point.shape}"
            )
        pid = int(point_id)
        with self._lock:
            if pid in self._alive:
                raise InvalidParameterError(f"point id {pid} already in delta")
            point = point.copy()
            self._ops.append(("ins", pid, point))
            self._alive[pid] = point
            self._view = None

    def delete(self, point_id: int) -> None:
        """Record a delete: kills a delta-alive copy and/or tombstones
        the frozen copy (liveness is validated by the index)."""
        pid = int(point_id)
        with self._lock:
            self._ops.append(("del", pid, None))
            self._alive.pop(pid, None)
            self._tombs.add(pid)
            self._view = None

    def view(self) -> DeltaView:
        """Immutable resolution of the buffer at its current version."""
        with self._lock:
            if self._view is None:
                ids = np.array(sorted(self._alive), dtype=int)
                points = (
                    np.stack([self._alive[int(pid)] for pid in ids])
                    if ids.size
                    else np.empty((0, self.dimensionality), dtype=float)
                )
                self._view = DeltaView(
                    version=len(self._ops),
                    ids=ids,
                    points=points,
                    tombstones=frozenset(self._tombs),
                )
            return self._view

    def rebase(self, cut_version: int) -> "DeltaBuffer":
        """Fresh buffer replaying only the ops after ``cut_version``.

        Called by the merge after it folded the cut's resolution into a
        new base: ops up to the cut are now frozen state, ops after it
        (including deletes of just-merged inserts) stay pending.
        """
        with self._lock:
            tail = list(self._ops[cut_version:])
        fresh = DeltaBuffer(self.dimensionality)
        for op, pid, point in tail:
            if op == "ins":
                fresh._ops.append((op, pid, point))
                fresh._alive[pid] = point
            else:
                fresh._ops.append((op, pid, None))
                fresh._alive.pop(pid, None)
                fresh._tombs.add(pid)
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"DeltaBuffer(ops={len(self._ops)}, alive={len(self._alive)}, "
                f"tombstones={len(self._tombs)})"
            )


class RefineOperands:
    """What Refine reads of a frozen base that no query changes.

    ``rows`` are the base's points in row order after the refinement
    conditioner (the points themselves when there is none); ``terms``
    are the divergence's
    :meth:`~repro.divergences.base.DecomposableBregmanDivergence.point_terms`
    of those rows.  Conditioning is elementwise and every point term is
    a row reduction, so any row slice or gather of these arrays is
    bitwise what conditioning and reducing that slice or gather would
    give -- which is why a base computes them once when it is published
    and Refine reads them instead of re-deriving them per batch.
    """

    __slots__ = ("rows", "terms")

    def __init__(self, rows: np.ndarray, terms: Tuple[np.ndarray, ...]) -> None:
        self.rows = rows
        self.terms = tuple(terms)

    @classmethod
    def compute(cls, divergence, conditioner, points: np.ndarray) -> "RefineOperands":
        """Condition ``points`` and reduce them to their point terms.

        The terms are reduced in row chunks of about 2^20 elements, so
        the elementwise temporaries stay a few MB whatever the base's
        size; by row independence the result is bitwise the same.
        """
        rows = conditioner.transform(points) if conditioner is not None else points
        chunk = max(1, (1 << 20) // max(1, rows.shape[1]))
        parts = [
            divergence.point_terms(rows[lo : lo + chunk])
            for lo in range(0, max(1, rows.shape[0]), chunk)
        ]
        return cls(rows, tuple(np.concatenate(terms) for terms in zip(*parts)))

    def extended(
        self, divergence, conditioner, new_points: np.ndarray
    ) -> "RefineOperands":
        """These operands with ``new_points``' appended, conditioned
        under the same (reused) conditioner."""
        new = RefineOperands.compute(divergence, conditioner, new_points)
        return RefineOperands(
            np.vstack([self.rows, new.rows]),
            tuple(np.concatenate([a, b]) for a, b in zip(self.terms, new.terms)),
        )


class BaseState:
    """One immutable published frozen-index build, plus pin accounting.

    Every component referenced here is frozen: merges and reshards build
    *new* components and publish a new ``BaseState``; in-flight searches
    keep reading the one they pinned.  ``global_ids`` maps frozen row ->
    external point id (identity until a merge introduces renumbering);
    ``dead_rows`` marks rows an extend merge retired permanently (their
    ``global_ids`` entry is the ``-1`` sentinel, so external-id lookup
    resolves only live rows -- which is what lets a reinserted id merge
    as a new row while its dead predecessor still occupies the old one).
    ``points`` (frozen rows in row order) are made read-only;
    ``refine_operands`` are the :class:`RefineOperands` of ``points``
    under ``refine_conditioner``.
    """

    __slots__ = (
        "epoch",
        "partitioning",
        "n_partitions",
        "forest",
        "datastore",
        "transforms",
        "points",
        "refine_conditioner",
        "refine_operands",
        "global_ids",
        "dead_rows",
        "identity",
        "_live_rows",
        "_sorted_ids",
        "_pins",
        "_pin_lock",
        "_drained",
    )

    def __init__(
        self,
        epoch: int,
        partitioning,
        n_partitions: int,
        forest,
        datastore,
        transforms,
        points: np.ndarray,
        refine_conditioner,
        refine_operands: RefineOperands,
        global_ids: Optional[np.ndarray] = None,
        dead_rows: Optional[np.ndarray] = None,
    ) -> None:
        self.epoch = int(epoch)
        self.partitioning = partitioning
        self.n_partitions = int(n_partitions)
        self.forest = forest
        self.datastore = datastore
        self.transforms = transforms
        points.flags.writeable = False
        self.points = points
        self.refine_conditioner = refine_conditioner
        self.refine_operands = refine_operands
        n = points.shape[0]
        if global_ids is None:
            global_ids = np.arange(n)
        self.global_ids = np.asarray(global_ids, dtype=int)
        if self.global_ids.shape != (n,):
            raise InvalidParameterError("global_ids must map every frozen row")
        self.dead_rows = dead_rows
        self.identity = dead_rows is None and bool(
            np.array_equal(self.global_ids, np.arange(n))
        )
        if self.identity:
            self._live_rows = None
            self._sorted_ids = None
        else:
            live = (
                np.flatnonzero(~dead_rows) if dead_rows is not None else np.arange(n)
            )
            order = np.argsort(self.global_ids[live], kind="stable")
            self._live_rows = live[order]
            self._sorted_ids = self.global_ids[self._live_rows]
        self._pins = 0
        self._pin_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()

    # ------------------------------------------------------------------
    # id mapping
    # ------------------------------------------------------------------

    @property
    def n_frozen(self) -> int:
        """Physical frozen rows (dead rows included)."""
        return int(self.points.shape[0])

    @property
    def n_frozen_dead(self) -> int:
        """Rows permanently retired by earlier extend merges."""
        return int(self.dead_rows.sum()) if self.dead_rows is not None else 0

    def row_of_id(self, point_id: int) -> Optional[int]:
        """Frozen row holding a live external id (``None`` if absent)."""
        pid = int(point_id)
        if self.identity:
            return pid if 0 <= pid < self.n_frozen else None
        pos = int(np.searchsorted(self._sorted_ids, pid))
        if pos < self._sorted_ids.size and self._sorted_ids[pos] == pid:
            return int(self._live_rows[pos])
        return None

    # ------------------------------------------------------------------
    # pin accounting (epoch drain)
    # ------------------------------------------------------------------

    def pin(self) -> None:
        """Register one in-flight search reading this base."""
        with self._pin_lock:
            self._pins += 1
            self._drained.clear()

    def unpin(self) -> None:
        """Release one pin; the last release marks the base drained."""
        with self._pin_lock:
            self._pins -= 1
            if self._pins <= 0:
                self._drained.set()

    @property
    def pins(self) -> int:
        """Currently pinned search scopes."""
        with self._pin_lock:
            return self._pins

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every pinned scope finished (True) or ``timeout``."""
        return self._drained.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BaseState(epoch={self.epoch}, n={self.n_frozen}, "
            f"dead={self.n_frozen_dead}, pins={self.pins})"
        )


class IndexSnapshot:
    """The ``(frozen base, delta view)`` pair one search runs against.

    Captured atomically by :meth:`BrePartitionIndex.snapshot` under the
    mutation lock.  ``dead_mask`` resolves the base's permanently dead
    rows *and* the view's tombstones to frozen rows once, so the Plan
    stage can filter candidates with one boolean gather; ``n_dead`` is
    what Plan inflates its Algorithm-4 ``k`` by (at most that many of
    the guaranteed ``k + n_dead`` candidates can be dead, so at least
    ``k`` live ones survive the filter).
    """

    __slots__ = ("base", "delta", "dead_mask", "n_dead")

    def __init__(self, base: BaseState, delta: DeltaView) -> None:
        self.base = base
        self.delta = delta
        mask = base.dead_rows.copy() if base.dead_rows is not None else None
        if delta.tombstones:
            if mask is None:
                mask = np.zeros(base.n_frozen, dtype=bool)
            for pid in delta.tombstones:
                row = base.row_of_id(pid)
                if row is not None:
                    mask[row] = True
        self.dead_mask = mask
        self.n_dead = int(mask.sum()) if mask is not None else 0

    # components (all frozen; delegate to the pinned base) --------------

    @property
    def partitioning(self):
        return self.base.partitioning

    @property
    def forest(self):
        return self.base.forest

    @property
    def datastore(self):
        return self.base.datastore

    @property
    def transforms(self):
        return self.base.transforms

    @property
    def refine_conditioner(self):
        return self.base.refine_conditioner

    @property
    def epoch(self) -> int:
        return self.base.epoch

    # cardinalities ------------------------------------------------------

    @property
    def n_frozen(self) -> int:
        """Physical frozen rows (dead rows included)."""
        return self.base.n_frozen

    @property
    def n_live(self) -> int:
        """Points a search against this snapshot can return."""
        return self.base.n_frozen - self.n_dead + self.delta.n_inserts

    @property
    def has_delta(self) -> bool:
        """Any unmerged alive inserts to brute-force alongside the frozen side?"""
        return self.delta.n_inserts > 0

    # row-space helpers --------------------------------------------------

    def filter_live(self, rows: np.ndarray) -> np.ndarray:
        """Drop tombstoned/dead frozen rows from a candidate array."""
        if self.dead_mask is None or rows.size == 0:
            return rows
        return rows[~self.dead_mask[rows]]

    def map_rows(self, rows: np.ndarray) -> np.ndarray:
        """External ids of frozen rows (identity until a merge renumbers)."""
        if self.base.identity:
            return rows
        return self.base.global_ids[rows]

    def pin(self) -> None:
        self.base.pin()

    def unpin(self) -> None:
        self.base.unpin()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexSnapshot(epoch={self.base.epoch}, n_frozen={self.n_frozen}, "
            f"n_dead={self.n_dead}, delta={self.delta.n_inserts})"
        )


@dataclass(frozen=True)
class MergeStats:
    """Outcome of one :meth:`BrePartitionIndex.merge` call."""

    #: epoch of the base published by this merge (unchanged on a no-op).
    epoch: int
    #: ``"rebuild"`` or ``"extend"``.
    mode: str
    #: alive delta inserts folded into the new frozen base.
    merged_inserts: int
    #: tombstones resolved at the cut (compacted away by a rebuild,
    #: baked into permanently dead rows by an extend).
    resolved_tombstones: int
    #: physical rows of the new frozen base.
    n_frozen: int
    #: ``True`` when every scope pinned to the old base finished before
    #: ``drain_timeout``; the swap itself is already atomic either way.
    drained: bool
    #: wall-clock seconds spent building and publishing the new base.
    seconds: float
    #: WAL records dropped by post-merge compaction (0 without a WAL).
    wal_records_truncated: int = 0


@dataclass(frozen=True)
class RecoveryStats:
    """Outcome of one :meth:`BrePartitionIndex.recover` call.

    Recovery rebuilds the frozen base from the newest checkpoint (or
    the caller-supplied points when the log predates checkpointing) and
    replays every acknowledged WAL record past the checkpoint's cut into
    a fresh delta buffer.  A torn tail -- the half-written record of a
    crash mid-append -- is truncated, never replayed: the op it would
    have logged was by construction never acknowledged.
    """

    #: path of the write-ahead log that was replayed.
    wal_path: str
    #: ``True`` when a checkpoint sidecar seeded the frozen base.
    used_checkpoint: bool
    #: global op version the checkpoint covers (0 without one).
    checkpoint_version: int
    #: insert records replayed into the delta buffer.
    replayed_inserts: int
    #: delete records replayed into the delta buffer.
    replayed_deletes: int
    #: records skipped because the checkpoint already covers them.
    skipped_ops: int
    #: bytes of torn tail truncated from the log.
    torn_bytes_dropped: int
    #: the recovered index's ``updates_applied`` after replay.
    final_version: int
