"""Structure-of-arrays (SoA) replay kernel behind :mod:`repro.sim.fastpath`.

The reference engine in :mod:`repro.sim.engine` drives the object model one
record at a time, dispatching Python bytecode per access — and, for the
multi-way schemes, per way.  This kernel is the one fast implementation of
the same model.  :func:`replay_l2_soa` avoids that cost by composing two
passes, each timed by its own telemetry span:

1. :func:`functional_pass` (``kernel.pass1``, sequential, minimal): one
   lean Python loop decides hit/miss, victim and eviction for every access
   — the only genuinely order-dependent work — while *deferring*
   everything else, and returns a frozen :class:`FunctionalProduct`.
   Replacement transitions are deferred through the policy's SoA mode
   (see :class:`_FrameState`): timestamp policies collapse to one "last
   touch position" store per access, tree PLRU to a queued way, and
   FIFO/Random apply only their fills.  Unless the policy's victim
   choice reads exposure (LER) or the scheme scrubs, the product does not
   depend on the scheme or on ``p_cell``.
2. Pass 2 (``kernel.pass2``, vectorised), split at the ``p_cell``
   boundary:

   * :func:`exposure_pass` derives everything the access stream alone
     fixes and returns a frozen :class:`ExposureProduct`.  With the
     product's per-access ``(frame, miss, eviction)`` columns known, every
     remaining quantity is closed-form over NumPy arrays.  Per-set read
     ranks turn the exposure windows into differences of a counter sampled
     at consecutive events of the same cache frame; per-frame event
     streams (accesses plus patrol scrubs, sorted by frame then time)
     yield the deferred ``(kind, ones, window)`` check keys, the tracker
     samples, the energy sums, the restore rewrite stream, the final
     per-block counters and the recency ticks without touching Python per
     access.  None of it reads ``p_cell``, the ECC strength or the
     interleaving lanes.
   * :func:`apply_exposure` evaluates the failure probabilities of the
     unique check keys with one
     :meth:`~repro.core.engine.ReliabilityEngine.failure_probabilities`
     call at the engine's parameters, records the checks,
     samples, statistics and restores, and scatters the end state.

Both passes work on the cache's block columns
(:class:`repro.cache.cache.BlockColumns`), never on block objects, and only
over the sets the stream touches: pass 1 gathers their tag/valid/dirty
columns and policy rows, the exposure pass the counters, and the apply step
scatters the final state back, each with one fancy index per column.  Every
per-frame array is sized by the touched frames, numbered locally (slot ``k``
of the touched sets owns frames ``k * associativity + way``).  A replay runs
inside :meth:`~repro.cache.cache.SetAssociativeCache.synced_columns`, so a
set a caller already holds as objects is copied into the columns on entry
and back out on exit; a cold replay builds no block object at all.

Both products, and the CPU level's L1 product (below), are memoised in one
process-local LRU of :data:`KERNEL_MEMO_ENTRIES` entries, for cold starts
only: the substrate is untouched (no set held as objects, tick 0) and every
energy total is 0.0.  The pass-1 product and the policy's end state are
keyed by exactly what pass 1 reads (:func:`_pass1_key`), the exposure
product by that key plus what the exposure pass reads
(:func:`_exposure_key`).  So a ``p_cell`` sweep runs pass 1 once per
distinct cold input and the exposure pass once per scheme; every point runs
only the apply step.  Every warm start (a later segment, a prefix-warmed
cache, one with leakage already charged) bypasses the memo.
:func:`clear_kernel_memo` empties it; the ``kernel.l1_filter``,
``kernel.pass1`` and ``kernel.pass2`` spans report
``memo="hit"|"miss"|"bypass"``.

Bit-identical to the reference loop by construction:

* the per-access ones-count samples are drawn with
  :meth:`repro.core.DataValueProfile.sample_many`, which consumes the
  generator exactly as the per-access ``sample()`` calls would;
* every floating-point accumulator receives the same addends in the same
  order — the per-access addend sequences are reconstructed per accumulator
  and reduced with a seeded ``np.cumsum``, whose accumulation is
  sequential, so the final value is bitwise equal to the scalar loop's;
* the deferred failure probabilities are evaluated once per unique
  ``(kind, ones, window)`` key (packed-key deduplication via
  :func:`repro.reliability.binomial.resolve_unique_keys`) by
  :meth:`repro.core.engine.ReliabilityEngine.failure_probabilities`, the
  function whose memoised scalar form the reference loop looks up; the
  kind is the cache's ``delivery_kind``, or ``WRITEBACK`` for a dirty
  victim's read-out.

The CPU-level entry (:func:`filter_through_l1_soa`) replays each L1 with
:func:`_replay_l1`, which run-length-encodes the stream first: consecutive
references of one L1 to the same block are guaranteed hits after the first,
so each run is one access of the same :func:`functional_pass`, the one
pass 1 of both levels, and a vectorised pass 2 of its own.  The realised L2
stream is merged back in global order for the L2 replay above.  The whole
filter's result is a frozen :class:`L1FilterProduct` (the L2 stream, each
L1's end state over its touched sets, the counter deltas), which
:func:`_apply_l1` writes on a memo miss and hit alike.  It is the memo's
third kind, ``"l1"``: a cold hierarchy (both L1s untouched, every hierarchy
counter 0) is keyed by both L1 geometries and policy states and the CPU
columns (:func:`_l1_key`), and nothing of the L2, so every L2 scheme and
sweep point over one CPU input runs the filter once.

The differential harness in ``tests/sim/test_engine_equivalence.py`` sweeps
this kernel against the reference engine across every scheme, replacement
policy and trace level to enforce all of this field by field.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import suppress
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from ..cache import CacheHierarchy
from ..cache.cache import SetAssociativeCache
from ..core.engine import CONVENTIONAL, REAP, SERIAL, WRITEBACK
from ..core.restore import RestoreCache
from ..core.scrubbing import ScrubbingCache
from ..reliability.binomial import resolve_unique_keys, sequential_float_sum
from ..telemetry import span as telemetry_span

#: Exposure rules of :func:`functional_pass`: how the per-way unchecked-read
#: exposure a victim choice may read (LER) evolves.  It stays zero on an L1,
#: whose blocks never record reads; under the accumulating L2 schemes it
#: grows with every read of the set; under REAP and restore any read resets
#: the whole set; under serial access only a way's own access resets it.
(
    _EXPOSURE_ZERO,
    _EXPOSURE_ACCUMULATES,
    _EXPOSURE_READS_RESET,
    _EXPOSURE_OWN_RESET,
) = range(4)


def _patrol_visit_schedule(
    credit: float, rate: float, count: int
) -> tuple[np.ndarray, float]:
    """Per-access patrol visit counts under the exact credit arithmetic.

    Replicates :meth:`repro.core.scrubbing.ScrubbingCache._advance_scrubber`
    bit for bit: per access one float add of ``rate``, then one visit per
    whole unit of credit.  Subtracting ``1.0`` from a float ``>= 1`` is
    exact, so the post-access credit equals ``fl(credit + rate) - visits``
    computed in one step, and the credit trajectory is a deterministic map
    on the fractional part.  Because the rate is constant, that map cycles
    quickly for typical rates (e.g. period 4 at ``rate=0.25``); the closed
    form detects the cycle and tiles the visit counts instead of iterating
    all ``count`` accesses.

    Returns:
        ``(visits_per_access, final_credit)`` with ``final_credit`` bitwise
        equal to the scalar loop's.
    """
    visits = np.zeros(count, dtype=np.int64)
    if rate == 0.0 or count == 0:
        return visits, credit
    seen: dict[float, int] = {}
    credits: list[float] = []
    index = 0
    current = credit
    while index < count:
        cycle_start = seen.get(current)
        if cycle_start is not None:
            period = index - cycle_start
            pattern = visits[cycle_start:index].copy()
            remaining = count - index
            repeats, tail = divmod(remaining, period)
            if repeats:
                visits[index : index + repeats * period] = np.tile(pattern, repeats)
            if tail:
                visits[count - tail :] = pattern[:tail]
            final = credits[cycle_start + (count - cycle_start) % period]
            return visits, final
        seen[current] = index
        credits.append(current)
        topped = current + rate
        whole = int(topped)  # == floor: credit is never negative
        visits[index] = whole
        current = topped - whole  # exact (see docstring)
        index += 1
    return visits, current


def _patrol_visit_frames(
    visits_per_access: np.ndarray,
    fill_positions: list[int],
    fill_frames: list[int],
    init_valid_frames: np.ndarray,
    cursor: int,
    total_frames: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reconstruct the patrol visit log from the monotone valid-frame sets.

    During a replay frames only ever *become* valid (a fill into a free way;
    evictions replace in place), so the round-robin walk sees a fixed sorted
    valid-frame array between consecutive free fills.  Within such a
    segment, consecutive visits simply walk consecutive valid frames
    cyclically, starting from the first valid frame at or after the cursor —
    one ``searchsorted`` plus modular index arithmetic per segment instead
    of a per-visit Python scan over the whole cache.  Visits finding no
    valid frame (a cold cache) consume credit, record nothing, and leave the
    cursor where it was, exactly like the scalar walk that wraps fully
    around.

    Args:
        visits_per_access: Per-access visit counts from
            :func:`_patrol_visit_schedule`.
        fill_positions: Access positions of free fills, ascending; a fill at
            position ``i`` is visible to that access's own patrol visits.
        fill_frames: The frame each free fill made valid.
        init_valid_frames: Frames valid before the replay (whole cache).
        cursor: Patrol cursor at replay start.
        total_frames: Cache frame count (cursor modulus).

    Returns:
        ``(positions, frames, final_cursor)`` of the recorded visits, in
        chronological order.
    """
    total = int(visits_per_access.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, cursor
    cumulative = np.cumsum(visits_per_access)
    # Access position of the j-th visit overall (0-based j).
    visit_pos = np.searchsorted(
        cumulative, np.arange(1, total + 1, dtype=np.int64), side="left"
    )
    valid = np.sort(np.asarray(init_valid_frames, dtype=np.int64))
    out_positions: list[np.ndarray] = []
    out_frames: list[np.ndarray] = []
    consumed = 0

    def consume(n_visits: int) -> None:
        nonlocal consumed, cursor
        if n_visits <= 0:
            return
        if valid.size:
            start = np.searchsorted(valid, cursor, side="left")
            indices = (start + np.arange(n_visits, dtype=np.int64)) % valid.size
            frames_segment = valid[indices]
            out_positions.append(visit_pos[consumed : consumed + n_visits])
            out_frames.append(frames_segment)
            cursor = (int(frames_segment[-1]) + 1) % total_frames
        consumed += n_visits

    for position, frame in zip(fill_positions, fill_frames):
        # Visits strictly before this fill's access see the old valid set.
        boundary = int(np.searchsorted(visit_pos, position, side="left"))
        consume(boundary - consumed)
        valid = np.insert(valid, np.searchsorted(valid, frame), frame)
    consume(total - consumed)
    if out_frames:
        return np.concatenate(out_positions), np.concatenate(out_frames), cursor
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty, cursor


def _sequential_total(initial: float, values: np.ndarray, counts: np.ndarray) -> float:
    """Left-to-right sum of ``counts`` repeats of each addend, from ``initial``.

    ``values``/``counts`` are (accesses x slots) matrices whose row-major
    order is the exact per-access addend order of the scalar loop; the
    reduction goes through :func:`sequential_float_sum`, whose seeded
    cumulative sum performs the identical sequential float additions.

    The result is a running total, not a delta: float addition does not
    associate, so ``initial + sum`` would round differently.  A stored total
    is therefore exact only for the ``initial`` it was summed from, which is
    why the memo serves exposure products to cold starts only (every energy
    total still 0.0).
    """
    return sequential_float_sum(initial, np.repeat(values.ravel(), counts.ravel()))


def _segment_last_where(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment, the last index where ``flags`` is set (-1 if none).

    ``starts`` are the segment start offsets into ``flags`` (ascending,
    first element 0).
    """
    marked = np.where(flags, np.arange(len(flags), dtype=np.int64), -1)
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.maximum.reduceat(marked, starts)


class _FrameState:
    """Flat pass-1 state of one set-associative cache, over its touched sets.

    The state :func:`functional_pass` keeps for whichever cache level it
    replays: the L2 under its scheme, or an L1 over its run-collapsed stream
    (:func:`_replay_l1`).  The sets a replay touches are gathered up front
    from the substrate's block columns, in ascending set order, by one fancy
    index per column.  Set ``sets[k]`` becomes *slot* ``k`` and owns the
    local frames ``k * associativity + way``; every flat list here is
    indexed by slot or by local frame, and ``frames`` maps a local frame
    back to its global one for the caller's scatter.  All resident lines
    share one dict keyed by the packed (tag, set) address and valued with
    the local frame, so a hit is a single dict probe plus a couple of
    flat-list stores.  Block fields are left to each caller's own scatter.

    Replacement transitions are scheduled by the policy's ``soa_mode``, a
    class constant of each of the five built-in policies (the only ones the
    fast path admits):

    * ``"position"`` (LRU, LER) — the tick advances exactly once per
      reference, so ``pend`` keeps each frame's last touch position; victims
      are chosen over the mixed stored/deferred timestamps
      (``soa_victim_positions``) and :meth:`flush` realises the positions
      of all touched sets at once (``soa_apply_last_positions``) and
      settles the tick (``soa_commit``).
    * ``"ordered"`` (tree PLRU) — transitions touch no policy-global state,
      a fill equals an access and consecutive duplicates are idempotent, so
      ``queues`` keeps each set's touched ways and replays them in order
      (``compact_on_access_batch``) before a victim decision or the flush.
    * ``"fill-only"`` (FIFO, Random) — accesses are no-ops; fills (and
      Random's victim draws) are applied scalar, in trace order.

    Policy rows move in and out as one batched index of the policy's
    ``rows`` array.
    """

    __slots__ = (
        "assoc", "index_bits", "sets", "frames", "policy", "pol_globals",
        "position_mode", "ordered_mode", "tick_base", "tags",
        "valid", "dirty", "pend", "nvalid", "init_nvalid", "rows", "queues",
        "resident",
    )

    def __init__(self, substrate: SetAssociativeCache, sets: np.ndarray) -> None:
        """Gather ``sets`` (ascending set indices) from the substrate's columns."""
        columns = substrate.columns
        policy = substrate.replacement
        self.assoc = assoc = substrate.associativity
        self.index_bits = index_bits = substrate.num_sets.bit_length() - 1
        self.sets = sets.tolist()
        self.frames = frames = substrate.set_frames(sets)
        self.policy = policy
        self.pol_globals = policy.compact_globals()
        self.position_mode = policy.soa_mode == "position"
        self.ordered_mode = policy.soa_mode == "ordered"
        self.tick_base = policy.soa_tick_base() if self.position_mode else 0
        tags = columns.tag[frames]
        valid = columns.valid[frames]
        live = np.flatnonzero(valid)
        keys = (tags[live] << index_bits) | frames[live] // assoc
        self.resident: dict[int, int] = dict(zip(keys.tolist(), live.tolist()))
        self.tags = tags.tolist()
        self.valid = valid.tolist()
        self.dirty = columns.dirty[frames].tolist()
        self.init_nvalid = np.count_nonzero(valid.reshape(-1, assoc), axis=1)
        self.nvalid = self.init_nvalid.tolist()
        self.rows = policy.rows[sets].tolist()
        self.pend = [-1] * len(frames) if self.position_mode else None
        self.queues = [[] for _ in self.sets] if self.ordered_mode else None

    def claim_free(self, slot: int) -> int:
        """Mark a non-full set's first invalid frame valid and return it."""
        valid = self.valid
        frame = slot * self.assoc
        while valid[frame]:
            frame += 1
        valid[frame] = True
        self.nvalid[slot] += 1
        return frame

    def evict(self, slot: int, exposure: list) -> int:
        """Choose a full set's victim frame and drop its line's residency.

        ``exposure`` is the per-way unchecked-read count the policy's
        victim choice may read.  In ``"position"`` mode nothing is flushed:
        the policy picks over the mixed stored and deferred timestamps.
        """
        assoc = self.assoc
        base = slot * assoc
        policy = self.policy
        row = self.rows[slot]
        if self.position_mode:
            frame = base + policy.soa_victim_positions(
                self.pol_globals,
                row,
                self.pend[base : base + assoc],
                self.tick_base,
                exposure,
            )
        else:
            if self.ordered_mode:
                queue = self.queues[slot]
                if queue:
                    policy.compact_on_access_batch(self.pol_globals, row, queue)
                    queue.clear()
            frame = base + policy.compact_victim(self.pol_globals, row, exposure)
        del self.resident[(self.tags[frame] << self.index_bits) | self.sets[slot]]
        return frame

    def flush(self, count: int, run_ends: np.ndarray | None) -> None:
        """Apply the deferred transitions and write the policy rows back.

        ``count`` accesses were replayed; with ``run_ends`` each access was a
        run of references ending before ``run_ends[i]``.
        """
        policy = self.policy
        if self.position_mode:
            # Position mode never mutates the gathered rows.
            rows = policy.rows[self.sets]
            last = np.reshape(self.pend, rows.shape)
            if run_ends is not None:
                # A run's touch is its last reference.  The map is monotone,
                # so no victim choice made over run indices changes.
                last = np.where(last >= 0, run_ends[last] - 1, -1)
                count = int(run_ends[-1])
            policy.soa_apply_last_positions(rows, last, self.tick_base)
            policy.soa_commit(self.tick_base, count)
        else:
            rows = self.rows
            if self.ordered_mode:
                for row, queue in zip(rows, self.queues):
                    if queue:
                        policy.compact_on_access_batch(self.pol_globals, row, queue)
        policy.rows[self.sets] = rows


@dataclass(frozen=True)
class FunctionalProduct:
    """What :func:`functional_pass` decided, as :func:`exposure_pass` reads it.

    Frames are local to the touched sets: ``touched_sets[k]`` owns frames
    ``k * associativity + way`` (see :class:`_FrameState`).  The patrol
    fields are empty (``scrub_state`` is ``None``) without scrubbing.
    """

    frames: np.ndarray  # per access: local frame hit or filled
    miss_positions: np.ndarray  # positions of the misses, ascending
    evicted: np.ndarray  # per access: the miss evicted a valid line
    evict_dirty: np.ndarray  # per access: ... and that line was dirty
    touched_sets: np.ndarray  # per slot: set index, ascending
    init_nvalid: np.ndarray  # per slot: valid ways before the replay
    tags: np.ndarray  # per local frame, after the replay
    valid: np.ndarray
    dirty: np.ndarray
    visit_positions: np.ndarray  # per patrol visit, chronological: position
    visit_frames: np.ndarray  # ... and local frame visited
    scrub_state: tuple | None  # patrol (credit, cursor, scrubbed lines) after


@dataclass(frozen=True)
class ExposureProduct:
    """What :func:`exposure_pass` derived, as :func:`apply_exposure` records it.

    Nothing here depends on ``p_cell``, the ECC strength or the interleaving
    lanes.  Per-frame columns are over the functional product's local frames.
    The energy totals are final values, not deltas (see
    :func:`_sequential_total`).  Optional columns are ``None`` when the
    cache has no tracker or is not a restore cache.
    """

    check_kinds: np.ndarray  # per unique deferred check: delivery kind
    check_ones: np.ndarray  # ... ones count
    check_windows: np.ndarray  # ... probability window
    check_inverse: np.ndarray  # per check, in delivery order: its unique key
    check_exposures: np.ndarray  # ... exposure window recorded with it
    sample_concealed: np.ndarray | None  # per delivery: tracker concealed reads
    sample_ones: np.ndarray | None  # ... and ones count
    concealed: int  # concealed reads to record
    scrub_events: int
    stats: tuple  # (CacheStatistics field, delta) pairs
    energy: tuple  # (EnergyTotals field, final total) pairs
    restore_ones: np.ndarray | None  # restore rewrite stream: ones count per run
    restore_counts: np.ndarray | None  # ... and run length
    ones_count: np.ndarray  # per local frame: final value
    unchecked_reads: np.ndarray  # ... final value
    reads_since_demand: np.ndarray  # ... final value
    total_reads: np.ndarray  # ... gain
    total_concealed_reads: np.ndarray  # ... gain
    total_checks: np.ndarray  # ... gain
    fills: np.ndarray  # ... gain
    tick_offsets: np.ndarray  # ... last tick minus the start tick (0: none)
    tick_scheme: np.ndarray  # ... that tick counts on the scheme's counter


#: The block columns an L1 replay writes, in :class:`L1Product` field order.
_L1_COLUMNS = ("tag", "valid", "dirty", "fills", "last_access_tick")


@dataclass(frozen=True)
class L1Product:
    """What :func:`_replay_l1` leaves in one L1, as :func:`_apply_l1` writes it.

    Block columns are end values over the touched frames (``touched_sets[k]``
    owns frames ``k * associativity + way``), as are the policy rows over
    the touched sets.
    """

    touched_sets: np.ndarray  # per slot: set index, ascending
    tag: np.ndarray  # per touched frame: end value
    valid: np.ndarray
    dirty: np.ndarray
    fills: np.ndarray
    last_access_tick: np.ndarray
    rows: np.ndarray  # per touched set: policy row after the replay
    policy_globals: tuple  # the policy's exported global state after
    tick: int  # the cache's tick after
    stats: tuple  # (CacheStatistics field, delta) pairs


@dataclass(frozen=True)
class L1FilterProduct:
    """What :func:`filter_through_l1_soa` derives from one CPU stream."""

    l2_codes: np.ndarray  # the realised L2 stream: 0 demand read, 1 write-back
    l2_addresses: np.ndarray
    l1i: L1Product
    l1d: L1Product
    stats: tuple  # (HierarchyStatistics field, delta) pairs


#: Entry cap of the kernel memo, over its three kinds (``"l1"``,
#: ``"pass1"``, ``"exposure"``).  A ``p_cell`` sweep over the four schemes
#: keeps six live entries: two pass-1 products (the scrubbing one and
#: everyone else's) and one exposure product per scheme.  A CPU trace under
#: conventional and REAP keeps four: one L1 product, one pass-1 product and
#: two exposure products.
KERNEL_MEMO_ENTRIES = 8


class _MemoEntry(NamedTuple):
    """One memoised cold-start product and the inputs a hit is confirmed on."""

    inputs: tuple  # the input columns, read-only
    value: object  # the product (pass 1: with the policy's end state)


#: Process-local memo, least recently used first, keyed by product kind
#: first.  Threads share it without a lock (a forked worker could inherit
#: one held): each access is one dict call, and a recency bump or eviction
#: that loses a race is skipped.
_kernel_memo: OrderedDict[tuple, _MemoEntry] = OrderedDict()


def clear_kernel_memo() -> None:
    """Forget every memoised kernel product (e.g. before timing the kernel)."""
    _kernel_memo.clear()


def _digest(columns: tuple) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for column in columns:
        digest.update(column.dtype.str.encode())
        digest.update(np.ascontiguousarray(column))
    return digest.digest()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _freeze(product):
    """Mark every array field of a frozen product read-only."""
    for field in fields(product):
        value = getattr(product, field.name)
        if isinstance(value, np.ndarray):
            _read_only(value)
    return product


def _add_deltas(stats, deltas: tuple) -> None:
    """Add a product's ``(field, delta)`` pairs to a statistics record."""
    for name, delta in deltas:
        setattr(stats, name, getattr(stats, name) + delta)


def _memoised(key: tuple | None, held: tuple, fresh: tuple, compute):
    """``compute()``, served from the memo on a repeated cold start.

    ``key`` is ``None`` when the replay is not a cold start.  The inputs are
    ``held`` (read-only arrays the memo already holds) plus ``fresh`` (the
    caller's; a miss keeps one by reference when it is read-only and owns
    its data, and a read-only copy otherwise); a hit is confirmed against
    them, so a digest collision can never serve a wrong product.

    Returns:
        ``(value, inputs, outcome)``: the inputs as the memo holds them, and
        ``outcome`` one of ``"hit"``, ``"miss"`` and ``"bypass"``.
    """
    inputs = held + fresh
    if key is None:
        return compute(), inputs, "bypass"
    entry = _kernel_memo.get(key)
    if entry is not None and all(
        np.array_equal(stored, column) for stored, column in zip(entry.inputs, inputs)
    ):
        # Replays on other threads may evict the entry meanwhile; the entry
        # itself is immutable, so only the recency bump can miss.
        with suppress(KeyError):
            _kernel_memo.move_to_end(key)
        return entry.value, entry.inputs, "hit"
    kept = tuple(
        c if c.flags.owndata and not c.flags.writeable else _read_only(np.array(c))
        for c in fresh
    )
    entry = _kernel_memo[key] = _MemoEntry(held + kept, compute())
    with suppress(KeyError):
        while len(_kernel_memo) > KERNEL_MEMO_ENTRIES:
            _kernel_memo.popitem(last=False)
    return entry.value, entry.inputs, "miss"


def _pass1_key(cache, columns: tuple) -> tuple:
    """Everything :func:`functional_pass` reads from a cold cache.

    The columns enter by digest; a hit is confirmed against the entry's
    stored columns, so a collision can never serve a wrong product.  The
    set count needs no entry of its own: the product is over the touched
    sets, which the decoded set indices name.
    """
    substrate = cache.cache
    policy = substrate.replacement
    return (
        "pass1",
        type(policy),
        substrate.associativity,
        # Plain ticks, or Random's bit-generator state (and with it the seed).
        repr(policy.export_global_state()),
        type(cache) if policy.victim_uses_exposure else None,
        (
            (cache.scrub_rate, cache.patrol_walk_state())
            if type(cache) is ScrubbingCache
            else None
        ),
        _digest(columns),
    )


def _exposure_key(cache, pass1_key: tuple, samples) -> tuple:
    """Everything :func:`exposure_pass` reads beyond pass 1, from a cold cache.

    The samples enter by digest and are confirmed like the columns.  The
    initial block columns, ticks and energy totals are those of a cold
    cache, which the eligibility rule guarantees.
    """
    return (
        "exposure",
        pass1_key,
        type(cache),
        _digest((samples,)),
        cache.count_writeback_checks,
        cache.tracker is not None,
        _energy_constants(cache.energy_model),
    )


def replay_l2_soa(
    cache,
    codes: np.ndarray,
    set_indices: np.ndarray,
    tags: np.ndarray,
) -> None:
    """Drive ``cache`` through the decoded stream with the SoA kernel.

    The cache ends in the exact state the reference per-record loop would
    leave it in.

    Args:
        cache: A fast-path-capable :class:`~repro.core.ProtectedCache`.
        codes: Per-access kind codes (0 read, 1 write).
        set_indices: Per-access set indices.
        tags: Per-access tags.
    """
    count = len(codes)
    if count == 0:
        return
    columns = (codes, set_indices, tags)
    # The one memo eligibility rule, decided before pass 1 mutates the
    # policy: nothing has run yet.  Energy is checked besides the substrate
    # because leakage can be charged to a cache no access has touched.
    cold = cache.cache.untouched() and all(t == 0.0 for t in astuple(cache.energy))
    # One ones-count sample per access, consumed in trace order exactly as
    # the per-access sample() calls of the scalar loops.
    samples = _read_only(np.asarray(cache.data_profile.sample_many(count), np.int64))
    scheme = cache.scheme_name()
    policy = cache.cache.replacement

    def pass1():
        rule, patrol = _l2_pass1_inputs(cache)
        product = _freeze(functional_pass(cache.cache, *columns, rule, patrol))
        # The policy end state a hit re-applies.
        return product, _read_only(policy.rows[product.touched_sets]), tuple(
            policy.export_global_state()
        )

    with cache.cache.synced_columns():
        with telemetry_span("kernel.pass1", scheme=scheme, accesses=count) as timed:
            key = _pass1_key(cache, columns) if cold else None
            (functional, rows, policy_globals), inputs, outcome = _memoised(
                key, (), columns, pass1
            )
            if outcome == "hit":
                # Exactly what _FrameState.flush wrote on the miss.
                policy.rows[functional.touched_sets] = rows
                policy.import_global_state(policy_globals)
            timed.add(memo=outcome)
        with telemetry_span("kernel.pass2", scheme=scheme, accesses=count) as timed:
            exposure, _, outcome = _memoised(
                None if key is None else _exposure_key(cache, key, samples),
                inputs,
                (samples,),
                lambda: exposure_pass(cache, codes, functional, samples),
            )
            apply_exposure(cache, functional, exposure)
            timed.add(memo=outcome)


def _l2_pass1_inputs(cache) -> tuple[int, tuple | None]:
    """What :func:`functional_pass` reads of an L2's protection scheme.

    Returns:
        ``(exposure_rule, patrol)``: the scheme's exposure rule, and the
        patrol scrubber's ``(rate, credit, cursor, scrubbed lines, frames)``
        or ``None`` without one.
    """
    if type(cache) is RestoreCache or cache.delivery_kind == REAP:
        rule = _EXPOSURE_READS_RESET
    elif cache.delivery_kind == CONVENTIONAL:
        rule = _EXPOSURE_ACCUMULATES
    else:
        rule = _EXPOSURE_OWN_RESET
    if type(cache) is ScrubbingCache:
        return rule, (cache.scrub_rate, *cache.patrol_walk_state())
    return rule, None


def functional_pass(
    substrate: SetAssociativeCache,
    codes: np.ndarray,
    set_indices: np.ndarray,
    tags: np.ndarray,
    exposure_rule: int,
    patrol: tuple | None = None,
    run_ends: np.ndarray | None = None,
) -> FunctionalProduct:
    """Pass 1: hit/miss, victim and eviction for every access, in order.

    The only order-dependent work, done by one lean Python loop; replacement
    transitions are deferred and flushed into the policy at the end.  It
    serves every cache level: the L2 under its protection scheme and each
    L1 over its run-collapsed stream (:func:`_replay_l1`).  The scheme
    enters only through the exposure counters a policy's victim choice may
    read (LER) and through the patrol scrubber, so for every other
    combination the product is the same across schemes and ``p_cell``.
    Mutates the replacement policy only: block state is read from the
    substrate's columns (current inside
    :meth:`~repro.cache.cache.SetAssociativeCache.synced_columns`) and
    written by the caller (:func:`apply_exposure` for the L2).

    Args:
        substrate: The cache whose blocks and policy are replayed.
        codes: Per-access write flags (0 read, nonzero write); non-empty.
        set_indices: Per-access set indices.
        tags: Per-access tags.
        exposure_rule: One of the ``_EXPOSURE_*`` rules.
        patrol: The patrol scrubber's state (see :func:`_l2_pass1_inputs`),
            or ``None`` without one.
        run_ends: With each access a run of references to one block: the
            end offset of each run in the reference stream.  The policy then
            ticks once per reference, and a run's touch is its last one.
    """
    count = len(codes)
    assoc = substrate.associativity
    columns = substrate.columns
    scrubbing = patrol is not None
    touched = np.unique(set_indices)
    if scrubbing:
        # The patrol also visits sets the stream does not access: any set
        # holding a valid line.
        touched = np.union1d(touched, substrate.resident_sets())
    state = _FrameState(substrate, touched)
    num_slots = len(touched)
    index_bits = state.index_bits
    policy = state.policy
    pol_globals = state.pol_globals
    pol_fill = policy.compact_on_fill
    uses_exposure = policy.victim_uses_exposure and exposure_rule != _EXPOSURE_ZERO
    position_mode = state.position_mode
    ordered_mode = state.ordered_mode
    tags_l, valid_l, dirty_l, pend_l = state.tags, state.valid, state.dirty, state.pend
    rows, queues = state.rows, state.queues
    resident, nvalid_l = state.resident, state.nvalid
    claim_free, evict = state.claim_free, state.evict

    # Exposure bookkeeping (only when a policy's victim choice reads it):
    # under the accumulating schemes the live unchecked count of a way is
    # the set's read rank minus the rank at the way's last reset; under the
    # self-scrubbing schemes it is the initial exposure until any reset.
    exp_is_rr = exposure_rule == _EXPOSURE_ACCUMULATES
    exp_reads_reset = exposure_rule == _EXPOSURE_READS_RESET
    exp_l = (-columns.unchecked_reads[state.frames]).tolist() if uses_exposure else None
    rr_l = [0] * num_slots if uses_exposure else None
    zeros_exposure = [0] * assoc

    way_arr = [0] * count
    miss_positions: list[int] = []
    evicted_flags: list[bool] = []
    evict_dirty_flags: list[bool] = []
    vis_pos: list[int] = []
    vis_frame: list[int] = []

    if scrubbing:
        scrub_rate, scrub_credit, scrub_cursor, scrubbed_lines, total_frames = patrol
        slot_of = np.full(substrate.num_sets, -1, dtype=np.int64)
        slot_of[touched] = np.arange(num_slots)
    # The patrol scrubber only interacts with the functional replay through
    # the exposure counters some policies' victim choice reads (LER).  For
    # every other policy the patrol rate is constant and the valid-frame set
    # grows monotonically, so the whole visit log has a closed form and is
    # reconstructed vectorised after the loop instead of walking frames
    # per access inside it.
    patrol_inline = scrubbing and uses_exposure
    patrol_closed_form = scrubbing and not uses_exposure
    fill_log_pos: list[int] = []
    fill_log_frame: list[int] = []

    code_list = codes.tolist()
    slot_list = np.searchsorted(touched, set_indices).tolist()
    # Packed (tag, set) keys for the shared residency dict.
    key_list = ((tags << index_bits) | set_indices).tolist()

    def handle_miss(i: int, slot: int, key: int, code: int) -> None:
        """Shared miss path: victim choice, eviction bookkeeping, fill."""
        miss_positions.append(i)
        if nvalid_l[slot] < assoc:
            victim = claim_free(slot)
            evicted_flags.append(False)
            evict_dirty_flags.append(False)
            if patrol_closed_form:
                # Free fills are the only events that grow the patrol's
                # valid-frame set; log them for the closed-form replay.
                fill_log_pos.append(i)
                fill_log_frame.append(victim)
        else:
            exposure = zeros_exposure
            if uses_exposure:
                base = slot * assoc
                if exp_is_rr:
                    rank = rr_l[slot]
                    exposure = [
                        rank - exp_base for exp_base in exp_l[base : base + assoc]
                    ]
                elif not (exp_reads_reset and rr_l[slot] > 0):
                    exposure = [-exp_base for exp_base in exp_l[base : base + assoc]]
            victim = evict(slot, exposure)
            evicted_flags.append(True)
            evict_dirty_flags.append(dirty_l[victim])
        tags_l[victim] = key >> index_bits
        dirty_l[victim] = code != 0
        resident[key] = victim
        way_arr[i] = victim
        if uses_exposure:
            exp_l[victim] = rr_l[slot] if exp_is_rr else 0
        if position_mode:
            pend_l[victim] = i
        elif ordered_mode:
            queues[slot].append(victim - slot * assoc)
        else:
            pol_fill(pol_globals, rows[slot], victim - slot * assoc)

    resident_get = resident.get
    if position_mode and not uses_exposure:
        # The common case (LRU-family policy, no patrol scrubber): the hit
        # path is one dict probe plus two flat stores, with the replacement
        # transition deferred as a last-touch position.
        for i, (key, code) in enumerate(zip(key_list, code_list)):
            hit_frame = resident_get(key)
            if hit_frame is not None:
                way_arr[i] = hit_frame
                pend_l[hit_frame] = i
                if code:
                    dirty_l[hit_frame] = True
            else:
                handle_miss(i, slot_list[i], key, code)
    else:
        if patrol_inline:
            slot_of_l = slot_of.tolist()
        for i, (slot, key, code) in enumerate(zip(slot_list, key_list, code_list)):
            if uses_exposure and code == 0:
                rr_l[slot] += 1
            hit_frame = resident_get(key)
            if hit_frame is not None:
                way_arr[i] = hit_frame
                if code:
                    dirty_l[hit_frame] = True
                if uses_exposure:
                    exp_l[hit_frame] = rr_l[slot] if exp_is_rr else 0
                if position_mode:
                    pend_l[hit_frame] = i
                elif ordered_mode:
                    queues[slot].append(hit_frame - slot * assoc)
            else:
                handle_miss(i, slot, key, code)

            if patrol_inline:
                scrub_credit += scrub_rate
                while scrub_credit >= 1.0:
                    scrub_credit -= 1.0
                    for _ in range(total_frames):
                        s_set, s_way = divmod(scrub_cursor, assoc)
                        scrub_cursor = (scrub_cursor + 1) % total_frames
                        s_slot = slot_of_l[s_set]
                        patrol_frame = s_slot * assoc + s_way
                        if s_slot < 0 or not valid_l[patrol_frame]:
                            continue
                        vis_pos.append(i)
                        vis_frame.append(patrol_frame)
                        scrubbed_lines += 1
                        # A patrol check scrubs the visited way's exposure
                        # (patrol_inline implies uses_exposure).
                        exp_l[patrol_frame] = rr_l[s_slot] if exp_is_rr else 0
                        break

    if patrol_closed_form:
        # Closed-form patrol replay: the constant rate fixes the per-access
        # visit counts (exact credit arithmetic, cycle-detected) and the
        # monotone valid-frame intervals fix which frame each visit lands
        # on; both reconstruct vectorised, bit-identical to the inline walk.
        # The walk runs over global frames.
        visits_per_access, scrub_credit = _patrol_visit_schedule(
            scrub_credit, scrub_rate, count
        )
        vis_pos, visited, scrub_cursor = _patrol_visit_frames(
            visits_per_access,
            fill_log_pos,
            state.frames[fill_log_frame],
            np.flatnonzero(columns.valid),
            scrub_cursor,
            total_frames,
        )
        vis_frame = slot_of[visited // assoc] * assoc + visited % assoc
        scrubbed_lines += len(vis_frame)

    state.flush(count, run_ends)
    miss_idx = np.array(miss_positions, dtype=np.int64)
    evicted = np.zeros(count, dtype=bool)
    evicted[miss_idx] = evicted_flags
    evict_dirty = np.zeros(count, dtype=bool)
    evict_dirty[miss_idx] = evict_dirty_flags
    return FunctionalProduct(
        frames=np.array(way_arr, dtype=np.int64),
        miss_positions=miss_idx,
        evicted=evicted,
        evict_dirty=evict_dirty,
        touched_sets=touched,
        init_nvalid=state.init_nvalid,
        tags=np.array(tags_l, dtype=np.int64),
        valid=np.array(valid_l, dtype=bool),
        dirty=np.array(dirty_l, dtype=bool),
        visit_positions=np.asarray(vis_pos, dtype=np.int64),
        visit_frames=np.asarray(vis_frame, dtype=np.int64),
        scrub_state=(
            (scrub_credit, scrub_cursor, scrubbed_lines) if scrubbing else None
        ),
    )


def _energy_constants(model) -> tuple[float, ...]:
    """The per-event energies :func:`exposure_pass` charges, in its order."""
    write_breakdown = model.write_access_energy()
    return (
        model.tag_lookup_energy_pj(),
        model.way_read_energy_pj(),
        model.ecc_decode_energy_pj(),
        model.mux_energy_pj(),
        write_breakdown.tag_pj,
        write_breakdown.data_array_pj,
        write_breakdown.ecc_pj,
        model.way_write_energy_pj(),
        model.ecc_encode_energy_pj(),
    )


def exposure_pass(
    cache,
    codes: np.ndarray,
    functional: FunctionalProduct,
    samples: np.ndarray,
) -> ExposureProduct:
    """Pass 2, first half: everything the access stream alone fixes.

    With the per-access ``(frame, miss, eviction)`` columns of
    ``functional`` known, every quantity that does not depend on the
    reliability parameters is closed-form over NumPy arrays sized by the
    touched sets: the deferred check keys, tracker samples, statistics,
    energy sums, the restore rewrite stream and the final per-block fields.
    The initial block state is gathered from the substrate's columns.  Reads
    the cache but mutates nothing; :func:`apply_exposure` records the
    product.

    Args:
        cache: The cache :func:`functional_pass` replayed.
        codes: Per-access kind codes (0 read, 1 write).
        functional: The functional pass's product for this stream.
        samples: One ones-count sample per access.
    """
    count = len(codes)
    mode = cache.delivery_kind
    restore = type(cache) is RestoreCache
    scrubbing = type(cache) is ScrubbingCache
    substrate = cache.cache
    assoc = substrate.associativity
    # Sets and frames below are the touched ones, numbered by slot (see
    # FunctionalProduct): ``set_indices`` holds each access's slot.
    num_sets = len(functional.touched_sets)
    num_frames = num_sets * assoc
    totals = cache.energy
    frame = functional.frames
    set_indices = frame // assoc
    evicted = functional.evicted
    evict_dirty = functional.evict_dirty

    is_read = np.asarray(codes) == 0
    miss_mask = np.zeros(count, dtype=bool)
    miss_mask[functional.miss_positions] = True
    hit_mask = ~miss_mask
    delivery = is_read & hit_mask
    write_hit = ~is_read & hit_mask

    # Per-set read ranks: RR[i] = number of reads to set(i) at positions <= i.
    order_by_set = np.argsort(set_indices, kind="stable")
    sorted_read = is_read[order_by_set]
    set_counts = np.bincount(set_indices, minlength=num_sets)
    set_starts = np.concatenate(([0], np.cumsum(set_counts)[:-1]))
    # Sets with no accesses (e.g. materialised only by patrol visits) have
    # out-of-range start offsets; clip them and mask their values out below.
    safe_starts = np.minimum(set_starts, max(count - 1, 0))
    read_cum = np.cumsum(sorted_read)
    seg_base = np.where(
        set_counts > 0, read_cum[safe_starts] - sorted_read[safe_starts], 0
    )
    rank_sorted = read_cum - np.repeat(seg_base, set_counts)
    rr = np.empty(count, dtype=np.int64)
    rr[order_by_set] = rank_sorted
    # Valid-way count seen by each access (before its own fill): the set's
    # initial occupancy plus the free (non-evicting) fills strictly before.
    free_fill_sorted = (miss_mask & ~evicted)[order_by_set].astype(np.int64)
    ff_cum = np.cumsum(free_fill_sorted)
    ff_base = np.where(
        set_counts > 0, ff_cum[safe_starts] - free_fill_sorted[safe_starts], 0
    )
    nvb_sorted = (ff_cum - np.repeat(ff_base, set_counts)) - free_fill_sorted
    nvb = np.empty(count, dtype=np.int64)
    nvb[order_by_set] = nvb_sorted
    nvb += functional.init_nvalid[set_indices]

    reads_per_set = np.bincount(set_indices[is_read], minlength=num_sets)
    # Read positions in (set, position) order, with per-set offsets; the
    # last read of a set is the final entry of its span (-1 when none).
    read_positions = order_by_set[sorted_read]
    read_offsets = np.concatenate(([0], np.cumsum(reads_per_set)))
    if read_positions.size:
        last_read_pos = np.where(
            reads_per_set > 0,
            read_positions[np.maximum(read_offsets[1:] - 1, 0)],
            -1,
        )
    else:
        # No reads at all (possible for short streaming segments): every
        # set's last-read position is the "none" sentinel.
        last_read_pos = np.full(num_sets, -1, dtype=np.int64)

    # Scrub-visit read ranks via one packed searchsorted over read positions
    # sorted by (set, position).
    visits_pos = functional.visit_positions
    visits_frame = functional.visit_frames
    num_visits = len(visits_pos)
    if num_visits:
        visits_set = visits_frame // assoc
        read_keys_sorted = set_indices[read_positions] * (count + 1) + read_positions
        visits_rank = (
            np.searchsorted(
                read_keys_sorted, visits_set * (count + 1) + visits_pos, side="right"
            )
            - read_offsets[visits_set]
        )
    else:
        visits_rank = np.zeros(0, dtype=np.int64)

    # Initial (pre-replay) per-frame state, gathered from the columns.
    columns = substrate.columns
    block_frames = substrate.set_frames(functional.touched_sets)
    init_ones = columns.ones_count[block_frames]
    init_unch = columns.unchecked_reads[block_frames]
    init_rsd = columns.reads_since_demand[block_frames]
    init_valid = columns.valid[block_frames]
    final_valid = functional.valid

    # -- frame-chronological event streams ----------------------------------------
    # Own events: one per access (kind 0 delivery, 1 write hit, 2 fill).
    # Scrub events (kind 3) happen after the access at the same position.
    access_kind = np.where(delivery, 0, np.where(write_hit, 1, 2)).astype(np.int64)
    serial_scheme = mode == SERIAL
    reap_like = restore or mode == REAP
    own_R = np.zeros(count, dtype=np.int64) if serial_scheme else rr
    if num_visits:
        evt_frame = np.concatenate((frame, visits_frame))
        evt_pos = np.concatenate((np.arange(count, dtype=np.int64), visits_pos))
        evt_sub = np.concatenate(
            (np.zeros(count, dtype=np.int64), np.ones(num_visits, dtype=np.int64))
        )
        evt_R = np.concatenate((own_R, visits_rank))
        evt_kind = np.concatenate((access_kind, np.full(num_visits, 3, np.int64)))
        evt_access = np.concatenate(
            (np.arange(count, dtype=np.int64), np.full(num_visits, -1, np.int64))
        )
    else:
        evt_frame, evt_pos, evt_sub = frame, np.arange(count, dtype=np.int64), None
        evt_R, evt_kind, evt_access = own_R, access_kind, evt_pos
    if evt_sub is not None:
        perm = np.lexsort((evt_sub, evt_pos, evt_frame))
    else:
        perm = np.lexsort((evt_pos, evt_frame))
    f_s = evt_frame[perm]
    pos_s = evt_pos[perm]
    R_s = evt_R[perm]
    kind_s = evt_kind[perm]
    ai_s = evt_access[perm]
    num_events = len(f_s)

    new_frame = np.empty(num_events, dtype=bool)
    new_frame[0] = True
    new_frame[1:] = f_s[1:] != f_s[:-1]
    seg_starts = np.flatnonzero(new_frame)
    seg_frames = f_s[seg_starts]
    seg_counts = np.diff(np.concatenate((seg_starts, [num_events])))
    seg_last = seg_starts + seg_counts - 1

    # Window deltas: read rank at each event minus the rank at the previous
    # event of the same frame; the first event of a frame is seeded with the
    # initial exposure so warm-cache windows continue exactly.
    if mode == REAP:
        first_seed = -init_rsd[seg_frames]
    else:
        first_seed = -init_unch[seg_frames]
    prev_R = np.empty(num_events, dtype=np.int64)
    prev_R[1:] = R_s[:-1]
    prev_R[seg_starts] = first_seed
    delta = R_s - prev_R

    # Ones value just before each event (forward-filled setter values).
    setter = (kind_s == 1) | (kind_s == 2)
    setter_ones = np.where(setter, samples[np.maximum(ai_s, 0)], 0)
    setter_idx = np.where(setter, np.arange(num_events, dtype=np.int64), -1)
    ffill_idx = np.maximum.accumulate(setter_idx)
    seg_first_of = np.repeat(seg_starts, seg_counts)
    has_setter = ffill_idx >= seg_first_of
    ones_after = np.where(
        has_setter, setter_ones[np.maximum(ffill_idx, 0)], init_ones[f_s]
    )
    ones_before = np.empty(num_events, dtype=np.int64)
    ones_before[1:] = ones_after[:-1]
    ones_before[seg_starts] = init_ones[seg_frames]

    first_event = new_frame
    # Delivery windows and concealed counts per scheme family.
    if mode == CONVENTIONAL and not restore:
        win_evt = delta
        conc_evt = delta - 1
    elif mode == SERIAL:
        win_evt = delta + 1
        conc_evt = delta
    elif mode == REAP:
        win_evt = delta
        conc_evt = np.where(
            first_event & (R_s == 1) & init_valid[f_s], init_unch[f_s], 0
        )
    else:  # restore
        residual = np.where(
            first_event & (R_s == 1) & init_valid[f_s], init_unch[f_s], 0
        )
        win_evt = residual + 1
        conc_evt = residual

    # Evicted-block exposure at fill events (the fill closes the previous
    # occupant's accumulation window).
    if reap_like:
        evicted_unch_evt = np.where(
            first_event & (R_s == 0) & init_valid[f_s], init_unch[f_s], 0
        )
    else:
        evicted_unch_evt = delta

    # Scatter the event columns back to access order (own events only).
    own_mask_s = kind_s < 3
    own_ai = ai_s[own_mask_s]
    win_acc = np.zeros(count, dtype=np.int64)
    conc_acc = np.zeros(count, dtype=np.int64)
    ones_at_acc = np.zeros(count, dtype=np.int64)
    evicted_unch_acc = np.zeros(count, dtype=np.int64)
    win_acc[own_ai] = win_evt[own_mask_s]
    conc_acc[own_ai] = conc_evt[own_mask_s]
    ones_at_acc[own_ai] = ones_before[own_mask_s]
    evicted_unch_acc[own_ai] = evicted_unch_evt[own_mask_s]

    # -- deferred probability events, statistics and tracker ----------------------
    wb_mask = (
        evicted & evict_dirty & (ones_at_acc > 0)
        if cache.count_writeback_checks
        else np.zeros(count, dtype=bool)
    )
    ef_mask = delivery | wb_mask
    ef_kind = np.where(delivery, mode, WRITEBACK)[ef_mask]
    ef_ones = ones_at_acc[ef_mask]
    ef_pwin = np.where(
        delivery, 1 if serial_scheme else win_acc, evicted_unch_acc + 1
    )[ef_mask]
    ef_cwin = np.where(delivery, win_acc, evicted_unch_acc + 1)[ef_mask]

    (check_kinds, check_ones, check_windows), check_inverse = resolve_unique_keys(
        ef_kind, ef_ones, ef_pwin
    )
    # Reads of resident ways other than a delivering one: concealed under
    # the accumulating schemes, checked and scrubbed under REAP and restore.
    other_reads = int(nvb[is_read].sum() - np.count_nonzero(delivery))
    concealed = other_reads if mode == CONVENTIONAL and not restore else 0
    if reap_like:
        scrub_events = other_reads
    else:
        scrub_events = num_visits if scrubbing else 0
    tracked = cache.tracker is not None

    # -- energy: reconstruct the per-access addend sequences ----------------------
    (
        tag_e, way_e, dec_e, mux_e, wtag_e, wdata_e, wecc_e, way_write_e, enc_e
    ) = _energy_constants(cache.energy_model)

    if mode == REAP:
        ways_read = np.where(is_read, nvb, 0)
        decodes = ways_read
    elif serial_scheme:
        ways_read = np.where(delivery, 1, 0)
        decodes = ways_read
    else:
        ways_read = np.where(is_read, nvb, 0)
        decodes = np.where(delivery, 1, 0)
    data_way_reads = int(ways_read.sum())
    ecc_decodes = int(decodes.sum())

    read_count = is_read.astype(np.int64)
    wh_or_miss = (write_hit | miss_mask).astype(np.int64)
    dirty_evt = evict_dirty.astype(np.int64)
    visit_counts = (
        np.bincount(visits_pos, minlength=count)
        if num_visits
        else np.zeros(count, dtype=np.int64)
    )
    restore_counts = np.where(is_read, nvb, 0) if restore else None

    ones_f = np.ones(count, dtype=float)
    tag_pj = _sequential_total(
        totals.tag_pj,
        np.stack(
            (tag_e * ones_f, wtag_e * ones_f, tag_e * ones_f, tag_e * ones_f), axis=1
        ),
        np.stack((read_count, wh_or_miss, dirty_evt, visit_counts), axis=1),
    )
    data_read_pj = _sequential_total(
        totals.data_read_pj,
        np.stack((ways_read * way_e, way_e * ones_f, way_e * ones_f), axis=1),
        np.stack((read_count, dirty_evt, visit_counts), axis=1),
    )
    if restore:
        data_write_pj = _sequential_total(
            totals.data_write_pj,
            np.stack((way_write_e * ones_f, wdata_e * ones_f), axis=1),
            np.stack((restore_counts, wh_or_miss), axis=1),
        )
        ecc_encode_pj = _sequential_total(
            totals.ecc_encode_pj,
            np.stack((enc_e * ones_f, wecc_e * ones_f), axis=1),
            np.stack((restore_counts, wh_or_miss), axis=1),
        )
    else:
        data_write_pj = _sequential_total(
            totals.data_write_pj, wdata_e * ones_f, wh_or_miss
        )
        ecc_encode_pj = _sequential_total(
            totals.ecc_encode_pj, wecc_e * ones_f, wh_or_miss
        )
    ecc_decode_pj = _sequential_total(
        totals.ecc_decode_pj,
        np.stack((decodes * dec_e, dec_e * ones_f, dec_e * ones_f), axis=1),
        np.stack((read_count, dirty_evt, visit_counts), axis=1),
    )
    mux_pj = _sequential_total(
        totals.mux_pj,
        np.stack((mux_e * ones_f, mux_e * ones_f, mux_e * ones_f), axis=1),
        np.stack((read_count, dirty_evt, visit_counts), axis=1),
    )

    # -- functional statistics ----------------------------------------------------
    num_reads = int(np.count_nonzero(is_read))
    num_deliveries = int(np.count_nonzero(delivery))
    num_write_hits = int(np.count_nonzero(write_hit))
    num_misses = count - num_deliveries - num_write_hits

    # -- final per-frame block state ----------------------------------------------
    # Per-frame aggregates over the event segments.
    last_any = np.full(num_frames, -1, dtype=np.int64)
    last_any[seg_frames] = seg_last
    last_own_seg = _segment_last_where(own_mask_s, seg_starts)
    last_own = np.full(num_frames, -1, dtype=np.int64)
    last_own[seg_frames] = last_own_seg
    first_fill_seg = np.full(len(seg_frames), -1, dtype=np.int64)
    fill_flags = kind_s == 2
    if fill_flags.any():
        first_idx = np.where(
            fill_flags, np.arange(num_events, dtype=np.int64), num_events
        )
        first_fill_seg = np.minimum.reduceat(first_idx, seg_starts)
        first_fill_seg = np.where(first_fill_seg == num_events, -1, first_fill_seg)
    first_fill = np.full(num_frames, -1, dtype=np.int64)
    first_fill[seg_frames] = first_fill_seg

    deliveries_per_frame = np.bincount(frame[delivery], minlength=num_frames)
    fills_per_frame = np.bincount(frame[miss_mask], minlength=num_frames)
    scrubs_per_frame = (
        np.bincount(visits_frame, minlength=num_frames)
        if num_visits
        else np.zeros(num_frames, dtype=np.int64)
    )

    set_of_frame = np.arange(num_frames, dtype=np.int64) // assoc
    r_end = reads_per_set[set_of_frame]
    has_own = last_own >= 0
    has_any = last_any >= 0
    r_at_last_own = np.where(has_own, R_s[np.maximum(last_own, 0)], -init_rsd)
    r_at_last_any = np.where(has_any, R_s[np.maximum(last_any, 0)], -init_unch)
    # Reads counted while the frame was resident: from the start for
    # initially valid frames, from the first fill otherwise.
    valid_from_r = np.where(
        init_valid, 0, np.where(first_fill >= 0, R_s[np.maximum(first_fill, 0)], 0)
    )
    resident_mask = final_valid
    reads_while_valid = np.where(resident_mask, r_end - valid_from_r, 0)

    # Restore: every read rewrites each way resident in its set, in
    # (access, way) order.
    restore_run_ones, restore_run_counts = (
        _restore_runs(
            assoc,
            _EventStreams(
                read_positions,
                read_offsets,
                reads_while_valid,
                valid_from_r,
                f_s,
                pos_s,
                setter,
                setter_ones,
                init_ones,
                frame,
                hit_mask,
            ),
        )
        if restore
        else (None, None)
    )

    # Patrol scrubs on a frame after its last demand (own) event: they keep
    # incrementing reads_since_demand, which only demand events reset.
    if num_visits:
        seg_start_of_frame = np.full(num_frames, 0, dtype=np.int64)
        seg_start_of_frame[seg_frames] = seg_starts
        exclusive_scrubs = np.concatenate(([0], np.cumsum(kind_s == 3)))
        range_low = np.where(has_own, last_own + 1, seg_start_of_frame)
        scrubs_after_own = np.where(
            has_any,
            exclusive_scrubs[last_any + 1] - exclusive_scrubs[range_low],
            0,
        )
    else:
        scrubs_after_own = np.zeros(num_frames, dtype=np.int64)

    final_ones = np.where(
        has_any, ones_after[np.maximum(last_any, 0)], init_ones
    )
    if mode == CONVENTIONAL and not restore:
        final_unch = np.where(resident_mask, r_end - r_at_last_any, init_unch)
        final_rsd = (
            np.where(resident_mask, r_end - r_at_last_own, init_rsd)
            + scrubs_after_own
        )
        reads_gain = reads_while_valid + scrubs_per_frame
        conc_gain = reads_while_valid - deliveries_per_frame
        checks_gain = deliveries_per_frame + scrubs_per_frame
    elif serial_scheme:
        final_unch = np.where(has_own, 0, init_unch)
        final_rsd = np.where(has_own, 0, init_rsd)
        reads_gain = deliveries_per_frame
        conc_gain = np.zeros(num_frames, dtype=np.int64)
        checks_gain = deliveries_per_frame
    else:  # REAP and restore
        touched = has_own | (resident_mask & (reads_while_valid > 0))
        final_unch = np.where(touched, 0, init_unch)
        final_rsd = np.where(resident_mask, r_end - r_at_last_own, init_rsd)
        reads_gain = reads_while_valid
        conc_gain = np.zeros(num_frames, dtype=np.int64)
        checks_gain = reads_while_valid

    # Recency ticks: the last writer wins.  For the accumulating schemes
    # every event on a frame writes a tick (deliveries and patrol scrubs use
    # the scheme counter, write hits and fills the substrate counter); for
    # REAP and restore every set read additionally ticks all resident ways,
    # with own events taking precedence at equal positions because the
    # fill/write happens after the scheme's way loop.  Ticks are kept as
    # offsets from the start tick of the counter they are taken on.
    own_pos = np.where(has_own, pos_s[np.maximum(last_own, 0)], -1)
    own_kind = np.where(has_own, kind_s[np.maximum(last_own, 0)], -1)
    if reap_like:
        first_fill_pos = np.where(
            first_fill >= 0, pos_s[np.maximum(first_fill, 0)], -1
        )
        candidate = last_read_pos[set_of_frame]
        candidate = np.where(
            resident_mask & (candidate >= first_fill_pos), candidate, -1
        )
        own_key = np.where(has_own, own_pos * 2 + 1, -1)
        read_key = np.where(candidate >= 0, candidate * 2, -1)
        use_own = own_key >= read_key
        tick_pos = np.where(use_own, own_pos, candidate)
        tick_scheme_base = np.where(use_own, own_kind == 0, True)
        has_tick = (own_key >= 0) | (read_key >= 0)
    else:
        last_any_kind = np.where(has_any, kind_s[np.maximum(last_any, 0)], -1)
        tick_pos = np.where(has_any, pos_s[np.maximum(last_any, 0)], -1)
        tick_scheme_base = (last_any_kind == 0) | (last_any_kind == 3)
        has_tick = has_any

    return _freeze(
        ExposureProduct(
            check_kinds=check_kinds,
            check_ones=check_ones,
            check_windows=check_windows,
            check_inverse=check_inverse,
            check_exposures=ef_cwin,
            sample_concealed=conc_acc[delivery] if tracked else None,
            sample_ones=ones_at_acc[delivery] if tracked else None,
            concealed=concealed,
            scrub_events=scrub_events,
            stats=(
                ("demand_reads", num_reads),
                ("demand_writes", count - num_reads),
                ("read_hits", num_deliveries),
                ("read_misses", num_reads - num_deliveries),
                ("write_hits", num_write_hits),
                ("write_misses", (count - num_reads) - num_write_hits),
                ("fills", num_misses),
                ("evictions", int(np.count_nonzero(evicted))),
                ("dirty_evictions", int(np.count_nonzero(evict_dirty))),
                ("data_way_reads", data_way_reads),
                ("data_way_writes", num_misses + num_write_hits),
                ("ecc_decodes", ecc_decodes),
                ("tag_comparisons", count * assoc),
            ),
            energy=(
                ("tag_pj", tag_pj),
                ("data_read_pj", data_read_pj),
                ("data_write_pj", data_write_pj),
                ("ecc_encode_pj", ecc_encode_pj),
                ("ecc_decode_pj", ecc_decode_pj),
                ("mux_pj", mux_pj),
            ),
            restore_ones=restore_run_ones,
            restore_counts=restore_run_counts,
            ones_count=final_ones,
            unchecked_reads=final_unch,
            reads_since_demand=final_rsd,
            total_reads=reads_gain,
            total_concealed_reads=conc_gain,
            total_checks=checks_gain,
            fills=fills_per_frame,
            tick_offsets=np.where(has_tick, tick_pos + 1, 0),
            tick_scheme=tick_scheme_base & has_tick,
        )
    )


def apply_exposure(
    cache, functional: FunctionalProduct, exposure: ExposureProduct
) -> None:
    """Pass 2, second half: record ``exposure`` at the engine's parameters.

    Evaluates the failure probability of each unique deferred check key at
    the engine's ``p_cell``, ECC strength and interleaving lanes (the only
    kernel step that reads them), records
    the checks in delivery order, and adds the concealed, scrub, tracker,
    statistics and restore records; then scatters the end state of both
    products back into the touched frames.  A cold-start replay whose
    products come from the memo runs only this step.
    """
    engine = cache.engine
    rel_stats = engine.stats
    probabilities = engine.failure_probabilities(
        exposure.check_kinds, exposure.check_ones, exposure.check_windows
    )
    rel_stats.record_check_array(
        exposure.check_exposures, probabilities[exposure.check_inverse]
    )
    rel_stats.record_concealed(exposure.concealed)
    rel_stats.scrub_events += exposure.scrub_events
    if engine.tracker is not None:
        engine.tracker.record_sample_arrays(
            exposure.sample_concealed, exposure.sample_ones
        )
    if exposure.restore_ones is not None:
        _record_restore_runs(cache, exposure.restore_ones, exposure.restore_counts)
    substrate = cache.cache
    _add_deltas(substrate.stats, exposure.stats)
    totals = cache.energy
    for name, total in exposure.energy:
        setattr(totals, name, total)

    # -- scatter the final state back (touched frames only) -----------------------
    columns = substrate.columns
    block_frames = substrate.set_frames(functional.touched_sets)
    scheme_tick0 = cache._tick  # noqa: SLF001 - engine-internal state sync
    substrate_tick0 = substrate._tick  # noqa: SLF001 - engine-internal state sync
    columns.tag[block_frames] = functional.tags
    columns.valid[block_frames] = functional.valid
    columns.dirty[block_frames] = functional.dirty
    columns.ones_count[block_frames] = exposure.ones_count
    columns.unchecked_reads[block_frames] = exposure.unchecked_reads
    columns.reads_since_demand[block_frames] = exposure.reads_since_demand
    columns.total_reads[block_frames] += exposure.total_reads
    columns.total_concealed_reads[block_frames] += exposure.total_concealed_reads
    columns.total_checks[block_frames] += exposure.total_checks
    columns.fills[block_frames] += exposure.fills
    columns.last_access_tick[block_frames] = np.where(
        exposure.tick_offsets > 0,
        np.where(exposure.tick_scheme, scheme_tick0, substrate_tick0)
        + exposure.tick_offsets,
        columns.last_access_tick[block_frames],
    )

    if functional.scrub_state is not None:
        cache.import_scrub_state(*functional.scrub_state)
    count = len(functional.frames)
    cache._tick = scheme_tick0 + count  # noqa: SLF001 - engine-internal state sync
    substrate._tick = substrate_tick0 + count  # noqa: SLF001


def _replay_l1(
    cache: SetAssociativeCache,
    sub_positions: np.ndarray,
    sets: np.ndarray,
    tags: np.ndarray,
    stores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, L1Product]:
    """Run-collapsed replay of one functional (SRAM) L1 cache.

    Equivalent to :meth:`repro.cache.SetAssociativeCache.access` per record
    (with ``fill_ones_count=0``, as the hierarchy uses it) — same counters,
    same block fields, same replacement transitions — in three steps:

    * **Runs.**  Maximal runs of consecutive same-block references are
      extracted vectorised; every reference after a run's first is a
      guaranteed hit.
    * **Pass 1** is the one :func:`functional_pass`, over one key per run: a
      run writes iff it holds a store, the exposure rule is zero (L1 blocks
      never record reads), and the run ends map the deferred touches back
      to references, so the policy ticks once per reference.
    * **Pass 2** (vectorised) reconstructs every counter and per-block
      field closed-form from the run columns and the functional product:
      hit/miss counters are mask sums, per-frame fill counts a
      ``bincount``, the final recency tick of each frame the last
      tick-updating run that touched it, and each dirty victim's tag the
      tag of the previous fill of its frame.

    Pass 1 leaves the policy in its end state; everything else is returned
    as an :class:`L1Product` for :func:`_apply_l1` to write.

    Args:
        cache: The L1 cache (its policy is mutated; its columns must be
            current, see
            :meth:`~repro.cache.cache.SetAssociativeCache.synced_columns`).
        sub_positions: Global trace positions of this cache's records.
        sets: Per-record set indices.
        tags: Per-record tags.
        stores: Per-record store flags.

    Returns:
        ``(miss_positions, miss_sets, miss_wb_tags, product)`` — the global
        position and set of every missing run's first reference, and the
        evicted dirty victim's tag (-1 when nothing dirty was evicted), in
        stream order; and the cache's end state.
    """
    n = int(len(sub_positions))
    columns = cache.columns
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, _l1_product(
            cache,
            empty,
            *(getattr(columns, name)[empty] for name in _L1_COLUMNS),
            count=0,
            stats=(),
        )

    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (sets[1:] != sets[:-1]) | (tags[1:] != tags[:-1])
    run_starts = np.flatnonzero(change)
    run_ends = np.concatenate((run_starts[1:], [n]))
    store_cum = np.concatenate(([0], np.cumsum(stores)))
    last_store = np.maximum.accumulate(
        np.where(stores, np.arange(n, dtype=np.int64), -1)
    )
    run_sets = sets[run_starts]
    run_tags = tags[run_starts].astype(np.int64)
    n_stores_r = store_cum[run_ends] - store_cum[run_starts]
    last_off_r = last_store[run_ends - 1] - run_starts
    has_store_r = n_stores_r > 0

    functional = functional_pass(
        cache, has_store_r, run_sets, run_tags, _EXPOSURE_ZERO, run_ends=run_ends
    )

    # -- pass 2: vectorised counters and block fields -----------------------------
    run_frame = functional.frames
    miss_idx = functional.miss_positions
    miss_mask = np.zeros(len(run_frame), dtype=bool)
    miss_mask[miss_idx] = True
    frames = cache.set_frames(functional.touched_sets)
    # A victim holds what the previous fill of its frame brought in, or,
    # before any fill, the frame's tag at the start of the replay.
    miss_frames = run_frame[miss_idx]
    by_frame = np.argsort(miss_frames, kind="stable")
    sorted_frames = miss_frames[by_frame]
    previous = np.roll(run_tags[miss_idx][by_frame], 1)
    first_fill = np.ones(len(by_frame), dtype=bool)
    first_fill[1:] = sorted_frames[1:] != sorted_frames[:-1]
    victim_tags = np.empty_like(previous)
    victim_tags[by_frame] = np.where(
        first_fill, columns.tag[frames][sorted_frames], previous
    )
    wb_tags = np.where(functional.evict_dirty[miss_idx], victim_tags, -1)

    demand_writes = int(n_stores_r.sum())
    demand_reads = n - demand_writes
    n_miss = int(miss_idx.size)
    write_misses = int(np.count_nonzero(stores[run_starts][miss_idx]))
    read_misses = n_miss - write_misses
    stats = (
        ("demand_reads", demand_reads),
        ("demand_writes", demand_writes),
        ("read_hits", demand_reads - read_misses),
        ("read_misses", read_misses),
        ("write_hits", demand_writes - write_misses),
        ("write_misses", write_misses),
        ("fills", n_miss),
        ("evictions", int(np.count_nonzero(functional.evicted))),
        ("dirty_evictions", int(np.count_nonzero(functional.evict_dirty))),
        # One data-array write per fill plus one per store, minus the store
        # folded into a write-allocate fill (same arithmetic as the
        # per-access object path, summed instead of accumulated).
        ("data_way_writes", demand_writes + n_miss - write_misses),
        ("tag_comparisons", n * cache.associativity),
    )

    # Final recency tick per frame: the last run that updated it — a fill
    # stamps start+1, a store run stamps the last store's position+1, a
    # store run over a fill overwrites the fill stamp.
    tick0 = cache._tick  # noqa: SLF001 - engine-internal state sync
    ticks = columns.last_access_tick[frames]
    upd = miss_mask | has_store_r
    if upd.any():
        tick_vals = (
            tick0
            + run_starts[upd]
            + np.where(has_store_r[upd], last_off_r[upd] + 1, 1)
        )
        uniq_f, first_idx = np.unique(run_frame[upd][::-1], return_index=True)
        ticks[uniq_f] = tick_vals[::-1][first_idx]

    product = _l1_product(
        cache,
        functional.touched_sets,
        functional.tags,
        functional.valid,
        functional.dirty,
        columns.fills[frames] + np.bincount(miss_frames, minlength=len(frames)),
        ticks,
        count=n,
        stats=stats,
    )
    return sub_positions[run_starts[miss_idx]], run_sets[miss_idx], wb_tags, product


def _l1_product(
    cache: SetAssociativeCache, touched_sets: np.ndarray, *end_columns, count, stats
) -> L1Product:
    """Freeze an L1 replay's end state, with the policy's as pass 1 left it."""
    policy = cache.replacement
    return _freeze(
        L1Product(
            touched_sets,
            *end_columns,
            rows=policy.rows[touched_sets],
            policy_globals=tuple(policy.export_global_state()),
            tick=cache._tick + count,  # noqa: SLF001 - engine-internal state sync
            stats=stats,
        )
    )


def _apply_l1(cache: SetAssociativeCache, product: L1Product) -> None:
    """Write an L1 replay's end state: the one writer on a memo miss and hit."""
    columns = cache.columns
    frames = cache.set_frames(product.touched_sets)
    for name in _L1_COLUMNS:
        getattr(columns, name)[frames] = getattr(product, name)
    policy = cache.replacement
    policy.rows[product.touched_sets] = product.rows
    policy.import_global_state(list(product.policy_globals))
    cache._tick = product.tick  # noqa: SLF001 - engine-internal state sync
    _add_deltas(cache.stats, product.stats)


def _l1_key(hierarchy: CacheHierarchy, columns: tuple) -> tuple:
    """Everything the L1 filter reads from a cold hierarchy.

    Per L1 its geometry and policy state (plain ticks, or Random's
    bit-generator state and with it the seed); the CPU columns enter by
    digest and are confirmed like the pass-1 columns.  Nothing of the L2
    enters: the L1s send it the same stream under every scheme.
    """
    return (
        "l1",
        *(
            (
                cache.config,
                type(cache.replacement),
                repr(cache.replacement.export_global_state()),
            )
            for cache in (hierarchy.l1i, hierarchy.l1d)
        ),
        _digest(columns),
    )


def filter_through_l1_soa(
    hierarchy: CacheHierarchy, codes: np.ndarray, addresses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, str]:
    """Run the CPU stream through the run-collapsed L1 replays.

    A cold hierarchy (both L1s untouched, every hierarchy counter 0) takes
    the whole :class:`L1FilterProduct` from the kernel memo when it has
    filtered the same CPU columns through the same L1s before; every other
    start bypasses it.  Either way the product is written by the same
    :func:`_apply_l1` calls.

    Args:
        hierarchy: The cache hierarchy whose L1s are replayed (mutated).
        codes: Per-record CPU kind codes (0 ifetch, 1 load, 2 store).
        addresses: Per-record addresses.

    Returns:
        ``(l2_codes, l2_addresses, outcome)`` — code 0 demand read, 1
        write-back, in the exact order the reference hierarchy would issue
        them to the L2 (read-only arrays); and the memo outcome, one of
        ``"hit"``, ``"miss"`` and ``"bypass"``.
    """
    l1i, l1d = hierarchy.l1i, hierarchy.l1d
    columns = (codes, addresses)
    cold = (
        l1i.untouched()
        and l1d.untouched()
        and not any(astuple(hierarchy.stats))
    )
    with l1i.synced_columns(), l1d.synced_columns():
        product, _, outcome = _memoised(
            _l1_key(hierarchy, columns) if cold else None,
            (),
            columns,
            lambda: _l1_filter_pass(hierarchy, codes, addresses),
        )
        _apply_l1(l1i, product.l1i)
        _apply_l1(l1d, product.l1d)
    _add_deltas(hierarchy.stats, product.stats)
    return product.l2_codes, product.l2_addresses, outcome


def _l1_filter_pass(
    hierarchy: CacheHierarchy, codes: np.ndarray, addresses: np.ndarray
) -> L1FilterProduct:
    """Replay both L1s (policies only) and merge their L2 streams."""
    l1i, l1d = hierarchy.l1i, hierarchy.l1d
    is_ifetch = codes == 0
    i_batch = l1i.mapper.decompose_batch(addresses[is_ifetch])
    d_batch = l1d.mapper.decompose_batch(addresses[~is_ifetch])
    d_config = l1d.config
    d_offset_bits = d_config.offset_bits
    d_tag_shift = d_offset_bits + d_config.index_bits

    i_positions = np.flatnonzero(is_ifetch)
    d_positions = np.flatnonzero(~is_ifetch)
    instruction_fetches = int(i_positions.size)
    d_codes = codes[d_positions]
    d_stores = d_codes == 2
    data_writes = int(np.count_nonzero(d_stores))
    data_reads = int(d_positions.size) - data_writes

    i_pos, _, i_wb_tag, i_product = _replay_l1(
        l1i,
        i_positions,
        i_batch.indices,
        i_batch.tags,
        np.zeros(i_positions.size, dtype=bool),
    )
    d_pos, d_sets, d_wb_tag, d_product = _replay_l1(
        l1d, d_positions, d_batch.indices, d_batch.tags, d_stores
    )
    # Only the data side can evict dirty lines (the instruction stream
    # never stores), which the assert pins down.
    assert not i_wb_tag.size or int(i_wb_tag.max()) < 0, "L1I emitted a write-back"

    # Compose write-back addresses with the L1D geometry, then merge the
    # two miss streams back into global order (each is already ascending).
    d_wb = np.where(
        d_wb_tag >= 0,
        (d_wb_tag << d_tag_shift) | (d_sets.astype(np.int64) << d_offset_bits),
        -1,
    )
    miss_pos = np.concatenate((i_pos, d_pos))
    miss_wb = np.concatenate((np.full(i_pos.size, -1, dtype=np.int64), d_wb))
    order = np.argsort(miss_pos, kind="stable")
    pos_o = miss_pos[order]
    wb_o = miss_wb[order]
    has_wb = wb_o >= 0
    l2_reads = int(pos_o.size)
    l2_writebacks = int(np.count_nonzero(has_wb))
    # Each miss emits its demand read, immediately followed by its
    # write-back when one exists: slot = rank + write-backs seen so far.
    out_idx = np.arange(l2_reads, dtype=np.int64) + (np.cumsum(has_wb) - has_wb)
    l2_codes = np.zeros(l2_reads + l2_writebacks, dtype=np.int8)
    l2_addresses = np.empty(l2_reads + l2_writebacks, dtype=np.int64)
    l2_addresses[out_idx] = addresses[pos_o]
    wb_slots = out_idx[has_wb] + 1
    l2_codes[wb_slots] = 1
    l2_addresses[wb_slots] = wb_o[has_wb]

    return _freeze(
        L1FilterProduct(
            l2_codes=l2_codes,
            l2_addresses=l2_addresses,
            l1i=i_product,
            l1d=d_product,
            stats=(
                ("instruction_fetches", instruction_fetches),
                ("data_reads", data_reads),
                ("data_writes", data_writes),
                ("l2_reads", l2_reads),
                ("l2_writebacks", l2_writebacks),
            ),
        )
    )


class _EventStreams(NamedTuple):
    """The pass-2 columns :func:`_restore_runs` rebuilds its stream from."""

    read_positions: np.ndarray  # read positions sorted by (set, position)
    read_offsets: np.ndarray  # per-set offsets into read_positions
    pair_counts: np.ndarray  # per frame: reads of its set while resident
    start_rank: np.ndarray  # per frame: set read rank when it became resident
    f_s: np.ndarray  # frame-chronological events: frame
    pos_s: np.ndarray  # ... access position
    setter: np.ndarray  # ... whether the event sets the ones count
    setter_ones: np.ndarray  # ... the ones count it sets
    init_ones: np.ndarray  # per frame: ones count before the replay
    frame: np.ndarray  # per access: frame hit or filled
    hit_mask: np.ndarray  # per access: hit


def _restore_runs(
    assoc: int, streams: _EventStreams
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Rebuild the restore scheme's per-(read, way) rewrite stream.

    Every demand read restores all currently valid ways of its set — the
    non-hit ways in ascending order, then the hit way.  The reference loop
    accounts one restore per such way; this reconstructs the ones counts of
    the exact same sequence from the frame event streams, run-length
    encoded, for :func:`_record_restore_runs` to cost.

    Returns:
        ``(ones, counts)`` per run of equal ones counts, in stream order, or
        ``(None, None)`` when no read restores anything.
    """
    (
        read_positions,
        read_offsets,
        pair_counts,
        start_rank,
        f_s,
        pos_s,
        setter,
        setter_ones,
        init_ones,
        frame,
        hit_mask,
    ) = streams
    total_pairs = int(pair_counts.sum())
    if total_pairs == 0:
        return None, None
    count = len(frame)
    frames_idx = np.flatnonzero(pair_counts > 0)
    counts_nz = pair_counts[frames_idx]
    starts_flat = read_offsets[frames_idx // assoc] + start_rank[frames_idx]
    setter_sel = np.flatnonzero(setter)
    setter_keys = (
        f_s[setter_sel] * (2 * count + 2) + pos_s[setter_sel] * 2
        if setter_sel.size
        else None
    )

    # Single-value fast path: when every ones count a restore could observe
    # — a frame's initial value (only reachable before its first setter
    # event) or any setter event's value — is one and the same, the whole
    # rewrite stream collapses to a single (ones, total_pairs) run and none
    # of the per-pair arrays are needed.  This is the common case: the
    # default data profile installs a constant ones count everywhere.
    first_pos = read_positions[starts_flat]
    if setter_keys is not None:
        query0 = frames_idx * (2 * count + 2) + first_pos * 2
        found0 = np.searchsorted(setter_keys, query0, side="left") - 1
        found0_frame = np.where(
            found0 >= 0, f_s[setter_sel[np.maximum(found0, 0)]], -1
        )
        fallback0 = found0_frame != frames_idx
        candidates = np.concatenate(
            (init_ones[frames_idx[fallback0]], setter_ones[setter_sel])
        )
    else:
        candidates = init_ones[frames_idx]
    unique_candidates = np.unique(candidates)
    if unique_candidates.size == 1:
        return unique_candidates, np.array([total_pairs], dtype=np.int64)

    excl = np.concatenate(([0], np.cumsum(counts_nz)[:-1]))
    ragged = np.arange(total_pairs, dtype=np.int64) - np.repeat(excl, counts_nz)
    pair_read_idx = np.repeat(starts_flat, counts_nz) + ragged
    pair_pos = read_positions[pair_read_idx]
    pair_frame = np.repeat(frames_idx, counts_nz)
    pair_way = pair_frame % assoc

    # Ones value of the frame at the read position: the last setter event
    # strictly before the read (the miss-path fill happens after the
    # restore pass of the same access).
    if setter_keys is not None:
        query = pair_frame * (2 * count + 2) + pair_pos * 2
        found = np.searchsorted(setter_keys, query, side="left") - 1
        found_frame = np.where(found >= 0, f_s[setter_sel[np.maximum(found, 0)]], -1)
        pair_ones = np.where(
            found_frame == pair_frame,
            setter_ones[setter_sel[np.maximum(found, 0)]],
            init_ones[pair_frame],
        )
    else:
        pair_ones = init_ones[pair_frame]

    # Exact loop order: by access position, non-hit ways ascending, hit last.
    pair_hit = (frame[pair_pos] == pair_frame) & hit_mask[pair_pos]
    order = np.lexsort((pair_way, pair_hit, pair_pos))
    ordered_ones = pair_ones[order]
    change = np.empty(total_pairs, dtype=bool)
    change[0] = True
    change[1:] = ordered_ones[1:] != ordered_ones[:-1]
    run_starts = np.flatnonzero(change)
    return ordered_ones[run_starts], np.diff(np.concatenate((run_starts, [total_pairs])))


def _record_restore_runs(cache, ones: np.ndarray, counts: np.ndarray) -> None:
    """Cost a run-length-encoded restore stream at the cache's write-error model.

    Each distinct ones count is costed once.  Consecutive equal
    probabilities fold through the bit-identical chunked accumulator, so
    long stretches of one data value cost O(runs) instead of O(restores);
    short mean runs would make the per-run folding slower than the flat
    array, so those are recorded expanded.
    """
    restore_model = cache.write_error_model
    unique_ones, inverse = np.unique(ones, return_inverse=True)
    unique_probs = np.array(
        [restore_model.block_write_failure_probability(int(value)) for value in unique_ones],
        dtype=float,
    )
    run_probs = unique_probs[inverse.reshape(-1)]
    if len(counts) * 4 <= int(counts.sum()):
        cache.record_restore_runs(run_probs, counts)
    else:
        cache.record_restore_array(np.repeat(run_probs, counts))
