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
2. :func:`reliability_pass` (``kernel.pass2``, vectorised): with the
   product's per-access ``(frame, miss, eviction)`` columns known, every
   remaining quantity is closed-form over NumPy arrays.  Per-set read ranks
   turn the exposure windows into differences of a counter sampled at
   consecutive events of the same cache frame; per-frame event streams
   (accesses plus patrol scrubs, sorted by frame then time) yield the
   delivery windows, the evicted-block exposures, the final per-block
   counters and the recency ticks without touching Python per access.

Pass 1 is memoised at its one call site, :func:`replay_l2_soa`, for cold
starts only (:func:`memoised_functional_pass`): when the substrate is still
untouched (no set materialised, tick 0), the product and the policy's end
state are looked up by exactly what pass 1 reads — the policy class, the
geometry, the policy's global state (ticks, Random's generator), the
decoded columns (by digest, confirmed by exact equality), the scheme class
and mode when LER's victim choice reads exposure, and the patrol rate and
walk state under scrubbing.  So the schemes and ``p_cell`` points of a
sweep replay pass 1 once per distinct cold input.  Every warm start (a
later segment, a prefix-warmed cache) bypasses the memo.  The memo is
process-local and holds :data:`PASS1_MEMO_ENTRIES` entries; the
``kernel.pass1`` span reports ``memo="hit"|"miss"|"bypass"``.

Bit-identical to the reference loop by construction:

* the per-access ones-count samples are drawn with
  :meth:`repro.core.DataValueProfile.sample_many`, which consumes the
  generator exactly as the per-access ``sample()`` calls would;
* every floating-point accumulator receives the same addends in the same
  order — the per-access addend sequences are reconstructed per accumulator
  and reduced with a seeded ``np.cumsum``, whose accumulation is
  sequential, so the final value is bitwise equal to the scalar loop's;
* the deferred failure probabilities are evaluated once per unique key
  (packed-key deduplication via
  :func:`repro.reliability.binomial.resolve_unique_keys`) with vectorised
  binomial functions that are element-for-element identical to the scalar
  ones the reference engine memoises.

The CPU-level entry (:func:`filter_through_l1_soa`) replays each L1 with
:func:`_replay_l1`, which additionally run-length-encodes the stream:
consecutive references of one L1 to the same block are guaranteed hits
after the first, so each run costs one Python iteration instead of one per
record.  The realised L2 stream is merged back in global order for the L2
replay above.  Both functional loops keep their per-set state in one shared
core, :class:`_FrameState`: flat frame-indexed lists, lazy set
materialisation, the free-way scan, victim selection and the final policy
flush.

The differential harness in ``tests/sim/test_engine_equivalence.py`` sweeps
this kernel against the reference engine across every scheme, replacement
policy and trace level to enforce all of this field by field.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from ..cache import CacheHierarchy
from ..cache.cache import SetAssociativeCache
from ..core.restore import RestoreCache
from ..core.scrubbing import ScrubbingCache
from ..reliability.binomial import (
    accumulated_failure_probabilities,
    block_failure_probabilities,
    reap_failure_probabilities,
    resolve_unique_keys,
    sequential_float_sum,
)
from ..telemetry import span as telemetry_span

#: Delivery-kind codes; :data:`repro.sim.fastpath._SCHEME_MODES` maps each
#: scheme to one of the first three.
_CONVENTIONAL, _REAP, _SERIAL, _WRITEBACK = 0, 1, 2, 3

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


def _initial_valid_frames(substrate, num_sets: int, assoc: int) -> np.ndarray:
    """Frames holding a valid block before the replay, across the whole cache.

    Unmaterialised substrate sets are all-invalid by construction and are
    skipped without materialising them (:meth:`SetAssociativeCache.peek_set`).
    """
    frames = []
    for set_index in range(num_sets):
        cache_set = substrate.peek_set(set_index)
        if cache_set is None:
            continue
        base = set_index * assoc
        for way, block in enumerate(cache_set.blocks):
            if block.valid:
                frames.append(base + way)
    return np.asarray(frames, dtype=np.int64)


def _sequential_total(initial: float, values: np.ndarray, counts: np.ndarray) -> float:
    """Left-to-right sum of ``counts`` repeats of each addend, from ``initial``.

    ``values``/``counts`` are (accesses x slots) matrices whose row-major
    order is the exact per-access addend order of the scalar loop; the
    reduction goes through :func:`sequential_float_sum`, whose seeded
    cumulative sum performs the identical sequential float additions.
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


def resolve_probability_keys(
    engine, kinds: np.ndarray, ones: np.ndarray, windows: np.ndarray
) -> np.ndarray:
    """Evaluate deferred failure probabilities for aligned key columns.

    The unique ``(kind, ones, window)`` keys are deduplicated with the
    packed-key helper and evaluated once each with the vectorised binomial
    math (falling back to the engine's memoised scalar lookups for
    multi-lane REAP, whose expression differs), then scattered back.
    """
    if len(kinds) == 0:
        return np.zeros(0, dtype=float)
    (u_kinds, u_ones, u_windows), inverse = resolve_unique_keys(kinds, ones, windows)
    p_cell = engine.p_cell
    correctable = engine.correctable_errors
    lanes = engine.interleaving_lanes
    unique_probs = np.zeros(len(u_kinds), dtype=float)

    nonzero = u_ones > 0
    if lanes > 1:
        lane_ones = np.maximum(1, np.round(u_ones / lanes)).astype(np.int64)
    else:
        lane_ones = u_ones

    for kind_code in (_CONVENTIONAL, _SERIAL, _WRITEBACK):
        mask = (u_kinds == kind_code) & nonzero
        if not mask.any():
            continue
        if kind_code == _WRITEBACK:
            # Write-back checks use the raw Eq. (3) tail, with no lane
            # adjustment (mirroring ProtectedCache._handle_eviction).
            unique_probs[mask] = accumulated_failure_probabilities(
                p_cell, u_ones[mask], u_windows[mask], correctable
            )
        else:
            if kind_code == _CONVENTIONAL:
                per_lane = accumulated_failure_probabilities(
                    p_cell, lane_ones[mask], u_windows[mask], correctable
                )
            else:
                per_lane = block_failure_probabilities(
                    p_cell, lane_ones[mask], correctable
                )
            unique_probs[mask] = (
                np.minimum(1.0, lanes * per_lane) if lanes > 1 else per_lane
            )

    reap_mask = (u_kinds == _REAP) & nonzero
    if reap_mask.any():
        if lanes == 1:
            unique_probs[reap_mask] = reap_failure_probabilities(
                p_cell, u_ones[reap_mask], u_windows[reap_mask], correctable
            )
        else:
            # The multi-lane REAP expression goes through the engine's
            # memoised per-key scalar path; unique keys keep this cheap.
            for index in np.flatnonzero(reap_mask):
                unique_probs[index] = engine.reap_probability(
                    int(u_ones[index]), int(u_windows[index])
                )

    return unique_probs[inverse]


class _FrameState:
    """Flat, frame-indexed pass-1 state of one set-associative cache.

    The core both functional replays share (:func:`functional_pass` for the
    L2 and :func:`_replay_l1`).  Per-set state lives in flat Python lists
    indexed by frame id (``set * associativity + way``), copied in lazily
    per touched set by :meth:`materialise`.  All resident lines share one
    dict keyed by the packed (tag, set) address and valued with the frame
    id, so a hit is a single dict probe plus a couple of flat-list stores.
    Block fields are left to each caller's own write-back.

    Replacement transitions are scheduled by the policy's ``soa_mode``, a
    class constant of each of the five built-in policies (the only ones the
    fast path admits):

    * ``"position"`` (LRU, LER) — the tick advances exactly once per access,
      so ``pend`` keeps each frame's last touch position; victims are chosen
      over the mixed stored/deferred timestamps
      (``soa_victim_positions``) and :meth:`flush` realises the positions
      (``soa_apply_last_positions``) and settles the tick (``soa_commit``).
    * ``"ordered"`` (tree PLRU) — transitions touch no policy-global state,
      a fill equals an access and consecutive duplicates are idempotent, so
      ``queues`` keeps each set's touched ways and replays them in order
      (``compact_on_access_batch``) before a victim decision or the flush.
    * ``"fill-only"`` (FIFO, Random) — accesses are no-ops; fills (and
      Random's victim draws) are applied scalar, in trace order.

    The policy's ``victim_uses_exposure`` (only LER's is true) says whether
    its victim choice reads the per-way unchecked-read exposure; when it is
    false the callers skip tracking live exposures.
    """

    __slots__ = (
        "substrate", "assoc", "index_bits", "num_frames", "policy", "pol_globals",
        "uses_exposure", "position_mode", "ordered_mode", "tick_base", "tags",
        "valid", "dirty", "pend", "nvalid", "init_nvalid", "materialised",
        "rows", "queues", "touched_sets", "resident",
    )

    def __init__(self, substrate: SetAssociativeCache) -> None:
        num_sets = substrate.num_sets
        policy = substrate.replacement
        self.substrate = substrate
        self.assoc = substrate.associativity
        self.index_bits = num_sets.bit_length() - 1
        self.num_frames = num_frames = num_sets * self.assoc
        self.policy = policy
        self.pol_globals = policy.compact_globals()
        self.uses_exposure = policy.victim_uses_exposure
        self.position_mode = policy.soa_mode == "position"
        self.ordered_mode = policy.soa_mode == "ordered"
        self.tick_base = policy.soa_tick_base() if self.position_mode else 0
        self.tags = [0] * num_frames
        self.valid = [False] * num_frames
        self.dirty = [False] * num_frames
        self.pend = [-1] * num_frames if self.position_mode else None
        self.nvalid = [0] * num_sets
        self.init_nvalid = [0] * num_sets
        self.materialised = [False] * num_sets
        self.rows: list = [None] * num_sets
        self.queues: list | None = [None] * num_sets if self.ordered_mode else None
        self.touched_sets: list[int] = []
        self.resident: dict[int, int] = {}

    def materialise(self, set_index: int) -> list:
        """Copy one set's lines and policy row in; returns its blocks."""
        blocks = self.substrate.cache_set(set_index).blocks
        base = set_index * self.assoc
        tags, valid, dirty = self.tags, self.valid, self.dirty
        resident, index_bits = self.resident, self.index_bits
        nvalid = 0
        for way, block in enumerate(blocks):
            f = base + way
            tags[f] = block.tag
            if block.valid:
                valid[f] = True
                resident[(block.tag << index_bits) | set_index] = f
                nvalid += 1
            dirty[f] = block.dirty
        self.nvalid[set_index] = self.init_nvalid[set_index] = nvalid
        self.rows[set_index] = self.policy.export_set_state(set_index)
        if self.ordered_mode:
            self.queues[set_index] = []
        self.materialised[set_index] = True
        self.touched_sets.append(set_index)
        return blocks

    def claim_free(self, set_index: int) -> int:
        """Mark a non-full set's first invalid frame valid and return it."""
        valid = self.valid
        frame = set_index * self.assoc
        while valid[frame]:
            frame += 1
        valid[frame] = True
        self.nvalid[set_index] += 1
        return frame

    def evict(self, set_index: int, exposure: list) -> int:
        """Choose a full set's victim frame and drop its line's residency.

        ``exposure`` is the per-way unchecked-read count the policy's
        victim choice may read.  In ``"position"`` mode nothing is flushed:
        the policy picks over the mixed stored and deferred timestamps.
        """
        assoc = self.assoc
        base = set_index * assoc
        policy = self.policy
        row = self.rows[set_index]
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
                queue = self.queues[set_index]
                if queue:
                    policy.compact_on_access_batch(self.pol_globals, row, queue)
                    queue.clear()
            frame = base + policy.compact_victim(self.pol_globals, row, exposure)
        del self.resident[(self.tags[frame] << self.index_bits) | set_index]
        return frame

    def flush(self, num_accesses: int) -> None:
        """Apply the deferred transitions and write the policy state back."""
        policy = self.policy
        assoc = self.assoc
        rows, pend, queues = self.rows, self.pend, self.queues
        for set_index in self.touched_sets:
            row = rows[set_index]
            if self.position_mode:
                base = set_index * assoc
                policy.soa_apply_last_positions(
                    row, pend[base : base + assoc], self.tick_base
                )
            elif self.ordered_mode and queues[set_index]:
                policy.compact_on_access_batch(self.pol_globals, row, queues[set_index])
            policy.import_set_state(set_index, row)
        if self.position_mode:
            policy.soa_commit(self.tick_base, num_accesses)


@dataclass(frozen=True)
class FunctionalProduct:
    """What :func:`functional_pass` decided, as :func:`reliability_pass` reads it.

    The per-frame columns are meaningful on the touched sets only; the
    patrol fields are empty (``scrub_state`` is ``None``) without scrubbing.
    """

    frames: np.ndarray  # per access: frame id hit or filled
    miss_positions: np.ndarray  # positions of the misses, ascending
    evicted: np.ndarray  # per access: the miss evicted a valid line
    evict_dirty: np.ndarray  # per access: ... and that line was dirty
    init_nvalid: np.ndarray  # per set: valid ways before the replay
    touched_sets: list  # materialised sets, in materialisation order
    tags: list  # per frame, after the replay
    valid: list
    dirty: list
    visit_positions: np.ndarray  # per patrol visit, chronological: position
    visit_frames: np.ndarray  # ... and frame visited
    scrub_state: tuple | None  # patrol (credit, cursor, scrubbed lines) after


#: Entry cap of the pass-1 memo; a ``p_cell`` sweep keeps two live entries
#: (the scrubbing product and everyone else's).
PASS1_MEMO_ENTRIES = 4


class _Pass1Entry(NamedTuple):
    """One memoised cold-start pass 1: its input columns and end state."""

    columns: tuple  # read-only copies of (codes, set_indices, tags)
    product: FunctionalProduct  # read-only arrays, tuple lists
    rows: np.ndarray  # policy row per touched set (product order), after the flush
    policy_globals: tuple  # export_global_state() after the flush


#: Process-local memo, least recently used first.  Threads share it without a
#: lock (a forked worker could inherit one held): each access is one dict
#: call, and a recency bump or eviction that loses a race is skipped.
_pass1_memo: OrderedDict[tuple, _Pass1Entry] = OrderedDict()


def clear_pass1_memo() -> None:
    """Forget every memoised pass-1 product (e.g. before timing the kernel)."""
    _pass1_memo.clear()


def _pass1_key(cache, scheme_mode: int, columns: tuple) -> tuple:
    """Everything :func:`functional_pass` reads from a cold cache.

    The columns enter by digest; a hit is confirmed against the entry's
    stored columns, so a collision can never serve a wrong product.
    """
    substrate = cache.cache
    policy = substrate.replacement
    digest = hashlib.blake2b(digest_size=16)
    for column in columns:
        digest.update(column.dtype.str.encode())
        digest.update(np.ascontiguousarray(column))
    return (
        type(policy),
        substrate.num_sets,
        substrate.associativity,
        # Plain ticks, or Random's bit-generator state (and with it the seed).
        repr(policy.export_global_state()),
        (type(cache), scheme_mode) if policy.victim_uses_exposure else None,
        (
            (cache.scrub_rate, cache.patrol_walk_state())
            if type(cache) is ScrubbingCache
            else None
        ),
        digest.digest(),
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def memoised_functional_pass(
    cache, codes: np.ndarray, set_indices: np.ndarray, tags: np.ndarray, scheme_mode: int
) -> tuple[FunctionalProduct, str]:
    """:func:`functional_pass`, served from the memo on a repeated cold start.

    A cache that is :meth:`~repro.cache.cache.SetAssociativeCache.untouched`
    starts pass 1 from nothing but the key of :func:`_pass1_key`, so its
    product and end policy state can be shared by every replay of the same
    columns: across schemes (unless the victim choice reads exposure) and
    across ``p_cell``.  A hit re-applies the stored policy rows and globals,
    exactly what :meth:`_FrameState.flush` would have written; the shared
    product is read-only, and pass 2 materialises the sets it touches.  A
    warm cache always runs pass 1.

    Returns:
        ``(product, outcome)`` with ``outcome`` one of ``"hit"``, ``"miss"``
        and ``"bypass"`` (not a cold start).
    """
    substrate = cache.cache
    if not substrate.untouched():
        return functional_pass(cache, codes, set_indices, tags, scheme_mode), "bypass"
    policy = substrate.replacement
    columns = (codes, set_indices, tags)
    key = _pass1_key(cache, scheme_mode, columns)
    entry = _pass1_memo.get(key)
    if entry is not None and all(
        np.array_equal(stored, column) for stored, column in zip(entry.columns, columns)
    ):
        # Replays on other threads may evict the entry meanwhile; the entry
        # itself is immutable, so only the recency bump can miss.
        with suppress(KeyError):
            _pass1_memo.move_to_end(key)
        for set_index, row in zip(entry.product.touched_sets, entry.rows):
            policy.import_set_state(set_index, row)
        policy.import_global_state(entry.policy_globals)
        return entry.product, "hit"
    product = functional_pass(cache, codes, set_indices, tags, scheme_mode)
    for field in fields(product):
        value = getattr(product, field.name)
        if isinstance(value, np.ndarray):
            _read_only(value)
    product = replace(
        product,
        touched_sets=tuple(product.touched_sets),
        tags=tuple(product.tags),
        valid=tuple(product.valid),
        dirty=tuple(product.dirty),
    )
    _pass1_memo[key] = _Pass1Entry(
        columns=tuple(_read_only(np.array(column)) for column in columns),
        product=product,
        rows=_read_only(
            np.array(
                [policy.export_set_state(s) for s in product.touched_sets],
                dtype=np.int64,
            )
        ),
        policy_globals=tuple(policy.export_global_state()),
    )
    with suppress(KeyError):
        while len(_pass1_memo) > PASS1_MEMO_ENTRIES:
            _pass1_memo.popitem(last=False)
    return product, "miss"


def replay_l2_soa(
    cache,
    codes: np.ndarray,
    set_indices: np.ndarray,
    tags: np.ndarray,
    scheme_mode: int,
) -> None:
    """Drive ``cache`` through the decoded stream with the SoA kernel.

    The cache ends in the exact state the reference per-record loop would
    leave it in.

    Args:
        cache: A fast-path-capable :class:`~repro.core.ProtectedCache`.
        codes: Per-access kind codes (0 read, 1 write).
        set_indices: Per-access set indices.
        tags: Per-access tags.
        scheme_mode: The scheme's delivery-kind code (see
            :data:`repro.sim.fastpath._SCHEME_MODES`).
    """
    count = len(codes)
    if count == 0:
        return
    # One ones-count sample per access, consumed in trace order exactly as
    # the per-access sample() calls of the scalar loops.
    samples = np.asarray(cache.data_profile.sample_many(count), dtype=np.int64)
    scheme = cache.scheme_name()
    with telemetry_span("kernel.pass1", scheme=scheme, accesses=count) as timed:
        functional, outcome = memoised_functional_pass(
            cache, codes, set_indices, tags, scheme_mode
        )
        timed.add(memo=outcome)
    with telemetry_span("kernel.pass2", scheme=scheme, accesses=count):
        reliability_pass(cache, codes, set_indices, scheme_mode, functional, samples)


def functional_pass(
    cache,
    codes: np.ndarray,
    set_indices: np.ndarray,
    tags: np.ndarray,
    scheme_mode: int,
) -> FunctionalProduct:
    """Pass 1: hit/miss, victim and eviction for every access, in order.

    The only order-dependent work, done by one lean Python loop; replacement
    transitions are deferred and flushed into the policy at the end.  The
    scheme enters only through the exposure counters a policy's victim
    choice may read (LER) and through the patrol scrubber, so for every
    other combination the product is the same across schemes and
    ``p_cell``.  Mutates the replacement policy and materialises the touched
    sets, but leaves block fields to :func:`reliability_pass`.

    Args are as for :func:`replay_l2_soa`; ``codes`` must be non-empty.
    """
    count = len(codes)
    state = _FrameState(cache.cache)
    substrate = state.substrate
    assoc = state.assoc
    index_bits = state.index_bits
    num_sets = substrate.num_sets
    policy = state.policy
    pol_globals = state.pol_globals
    pol_fill = policy.compact_on_fill
    uses_exposure = state.uses_exposure
    position_mode = state.position_mode
    ordered_mode = state.ordered_mode
    tags_l, valid_l, dirty_l, pend_l = state.tags, state.valid, state.dirty, state.pend
    materialised, rows, queues = state.materialised, state.rows, state.queues
    resident, nvalid_l = state.resident, state.nvalid
    claim_free, evict = state.claim_free, state.evict
    restore = type(cache) is RestoreCache
    scrubbing = type(cache) is ScrubbingCache

    # Exposure bookkeeping (only when a policy's victim choice reads it):
    # under the accumulating schemes the live unchecked count of a way is
    # the set's read rank minus the rank at the way's last reset; under the
    # self-scrubbing schemes it is the initial exposure until any reset.
    exp_is_rr = scheme_mode == _CONVENTIONAL and not restore
    exp_reads_reset = restore or scheme_mode == _REAP
    exp_l = [0] * state.num_frames if uses_exposure else None
    rr_l = [0] * num_sets if uses_exposure else None
    zeros_exposure = [0] * assoc
    if uses_exposure:

        def materialise(set_index: int) -> None:
            base = set_index * assoc
            for way, block in enumerate(state.materialise(set_index)):
                exp_l[base + way] = -block.unchecked_reads

    else:
        materialise = state.materialise

    way_arr = [0] * count
    miss_positions: list[int] = []
    evicted_flags: list[bool] = []
    evict_dirty_flags: list[bool] = []
    vis_pos: list[int] = []
    vis_frame: list[int] = []

    if scrubbing:
        scrub_rate = cache.scrub_rate
        scrub_credit, scrub_cursor, scrubbed_lines, total_frames = (
            cache.patrol_walk_state()
        )
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
    set_list = set_indices.tolist()
    # Packed (tag, set) keys for the shared residency dict.
    key_list = ((tags << index_bits) | set_indices).tolist()

    def handle_miss(i: int, set_index: int, key: int, code: int) -> None:
        """Shared miss path: victim choice, eviction bookkeeping, fill."""
        miss_positions.append(i)
        if nvalid_l[set_index] < assoc:
            victim = claim_free(set_index)
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
                base = set_index * assoc
                if exp_is_rr:
                    rank = rr_l[set_index]
                    exposure = [
                        rank - exp_base for exp_base in exp_l[base : base + assoc]
                    ]
                elif not (exp_reads_reset and rr_l[set_index] > 0):
                    exposure = [-exp_base for exp_base in exp_l[base : base + assoc]]
            victim = evict(set_index, exposure)
            evicted_flags.append(True)
            evict_dirty_flags.append(dirty_l[victim])
        tags_l[victim] = key >> index_bits
        dirty_l[victim] = code != 0
        resident[key] = victim
        way_arr[i] = victim
        if uses_exposure:
            exp_l[victim] = rr_l[set_index] if exp_is_rr else 0
        if position_mode:
            pend_l[victim] = i
        elif ordered_mode:
            queues[set_index].append(victim - set_index * assoc)
        else:
            pol_fill(pol_globals, rows[set_index], victim - set_index * assoc)

    resident_get = resident.get
    if position_mode and not uses_exposure:
        # The common case (LRU-family policy, no patrol scrubber): the hit
        # path is one dict probe plus two flat stores, with the replacement
        # transition deferred as a last-touch position.  All touched sets
        # are materialised up front so the loop never branches on it.
        for set_index in np.flatnonzero(
            np.bincount(set_indices, minlength=num_sets)
        ).tolist():
            materialise(set_index)
        for i, (key, code) in enumerate(zip(key_list, code_list)):
            hit_frame = resident_get(key)
            if hit_frame is not None:
                way_arr[i] = hit_frame
                pend_l[hit_frame] = i
                if code:
                    dirty_l[hit_frame] = True
            else:
                handle_miss(i, set_list[i], key, code)
    else:
        for i, (set_index, key, code) in enumerate(
            zip(set_list, key_list, code_list)
        ):
            if not materialised[set_index]:
                materialise(set_index)
            if uses_exposure and code == 0:
                rr_l[set_index] += 1
            hit_frame = resident_get(key)
            if hit_frame is not None:
                way_arr[i] = hit_frame
                if code:
                    dirty_l[hit_frame] = True
                if uses_exposure:
                    exp_l[hit_frame] = rr_l[set_index] if exp_is_rr else 0
                if position_mode:
                    pend_l[hit_frame] = i
                elif ordered_mode:
                    queues[set_index].append(hit_frame - set_index * assoc)
            else:
                handle_miss(i, set_index, key, code)

            if patrol_inline:
                scrub_credit += scrub_rate
                while scrub_credit >= 1.0:
                    scrub_credit -= 1.0
                    for _ in range(total_frames):
                        patrol_frame = scrub_cursor
                        scrub_cursor = (scrub_cursor + 1) % total_frames
                        s_set, s_way = divmod(patrol_frame, assoc)
                        if materialised[s_set]:
                            s_valid = valid_l[patrol_frame]
                        else:
                            s_valid = (
                                substrate.cache_set(s_set).blocks[s_way].valid
                            )
                            if s_valid:
                                materialise(s_set)
                        if not s_valid:
                            continue
                        vis_pos.append(i)
                        vis_frame.append(patrol_frame)
                        scrubbed_lines += 1
                        # A patrol check scrubs the visited way's exposure
                        # (patrol_inline implies uses_exposure).
                        exp_l[patrol_frame] = rr_l[s_set] if exp_is_rr else 0
                        break

    if patrol_closed_form:
        # Closed-form patrol replay: the constant rate fixes the per-access
        # visit counts (exact credit arithmetic, cycle-detected) and the
        # monotone valid-frame intervals fix which frame each visit lands
        # on; both reconstruct vectorised, bit-identical to the inline walk.
        visits_per_access, scrub_credit = _patrol_visit_schedule(
            scrub_credit, scrub_rate, count
        )
        vis_pos, vis_frame, scrub_cursor = _patrol_visit_frames(
            visits_per_access,
            fill_log_pos,
            fill_log_frame,
            _initial_valid_frames(substrate, num_sets, assoc),
            scrub_cursor,
            total_frames,
        )
        scrubbed_lines += len(vis_frame)
        # Patrol-visited sets join the touched set for pass 2's write-back,
        # exactly as the inline walk materialises them on first visit.
        for set_index in np.unique(vis_frame // assoc).tolist():
            if not materialised[set_index]:
                materialise(set_index)

    state.flush(count)
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
        init_nvalid=np.asarray(state.init_nvalid, dtype=np.int64),
        touched_sets=state.touched_sets,
        tags=tags_l,
        valid=valid_l,
        dirty=dirty_l,
        visit_positions=np.asarray(vis_pos, dtype=np.int64),
        visit_frames=np.asarray(vis_frame, dtype=np.int64),
        scrub_state=(
            (scrub_credit, scrub_cursor, scrubbed_lines) if scrubbing else None
        ),
    )


def reliability_pass(
    cache,
    codes: np.ndarray,
    set_indices: np.ndarray,
    scheme_mode: int,
    functional: FunctionalProduct,
    samples: np.ndarray,
) -> None:
    """Pass 2: vectorised reliability, energy and block state.

    With the per-access ``(frame, miss, eviction)`` columns of
    ``functional`` known, every remaining quantity is closed-form over NumPy
    arrays: statistics, tracker samples, deferred failure probabilities,
    energy sums and the final per-block fields, all folded back into
    ``cache``.

    Args:
        cache: The cache :func:`functional_pass` replayed.
        codes: Per-access kind codes (0 read, 1 write).
        set_indices: Per-access set indices.
        scheme_mode: The scheme's delivery-kind code.
        functional: The functional pass's product for this stream.
        samples: One ones-count sample per access.
    """
    count = len(codes)
    restore = type(cache) is RestoreCache
    scrubbing = type(cache) is ScrubbingCache
    substrate = cache.cache
    assoc = substrate.associativity
    num_sets = substrate.num_sets
    num_frames = num_sets * assoc
    engine = cache.engine
    rel_stats = engine.stats
    stats = substrate.stats
    totals = cache.energy
    frame = functional.frames
    evicted = functional.evicted
    evict_dirty = functional.evict_dirty
    touched_sets = functional.touched_sets
    tags_l, valid_l, dirty_l = functional.tags, functional.valid, functional.dirty

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

    # Initial (pre-replay) per-frame state, read from the untouched blocks.
    init_ones = np.zeros(num_frames, dtype=np.int64)
    init_unch = np.zeros(num_frames, dtype=np.int64)
    init_rsd = np.zeros(num_frames, dtype=np.int64)
    init_reads = np.zeros(num_frames, dtype=np.int64)
    init_conc = np.zeros(num_frames, dtype=np.int64)
    init_checks = np.zeros(num_frames, dtype=np.int64)
    init_fills = np.zeros(num_frames, dtype=np.int64)
    init_tick = np.zeros(num_frames, dtype=np.int64)
    init_valid = np.zeros(num_frames, dtype=bool)
    final_valid = np.zeros(num_frames, dtype=bool)
    for set_index in touched_sets:
        base = set_index * assoc
        blocks = substrate.cache_set(set_index).blocks
        for way_index, block in enumerate(blocks):
            f = base + way_index
            init_ones[f] = block.ones_count
            init_unch[f] = block.unchecked_reads
            init_rsd[f] = block.reads_since_demand
            init_reads[f] = block.total_reads
            init_conc[f] = block.total_concealed_reads
            init_checks[f] = block.total_checks
            init_fills[f] = block.fills
            init_tick[f] = block.last_access_tick
            init_valid[f] = block.valid
            final_valid[f] = valid_l[f]

    # -- frame-chronological event streams ----------------------------------------
    # Own events: one per access (kind 0 delivery, 1 write hit, 2 fill).
    # Scrub events (kind 3) happen after the access at the same position.
    access_kind = np.where(delivery, 0, np.where(write_hit, 1, 2)).astype(np.int64)
    serial_scheme = scheme_mode == _SERIAL
    reap_like = restore or scheme_mode == _REAP
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
    if scheme_mode == _REAP:
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
    if scheme_mode == _CONVENTIONAL and not restore:
        win_evt = delta
        conc_evt = delta - 1
    elif scheme_mode == _SERIAL:
        win_evt = delta + 1
        conc_evt = delta
    elif scheme_mode == _REAP:
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
    delivery_kind = (
        _REAP
        if scheme_mode == _REAP
        else (_SERIAL if serial_scheme else _CONVENTIONAL)
    )
    ef_mask = delivery | wb_mask
    ef_kind = np.where(delivery, delivery_kind, _WRITEBACK)[ef_mask]
    ef_ones = ones_at_acc[ef_mask]
    ef_pwin = np.where(
        delivery, 1 if serial_scheme else win_acc, evicted_unch_acc + 1
    )[ef_mask]
    ef_cwin = np.where(delivery, win_acc, evicted_unch_acc + 1)[ef_mask]

    probabilities = resolve_probability_keys(engine, ef_kind, ef_ones, ef_pwin)
    rel_stats.record_check_array(ef_cwin, probabilities)
    if scheme_mode == _CONVENTIONAL and not restore:
        concealed_events = int(nvb[is_read].sum() - np.count_nonzero(delivery))
        rel_stats.record_concealed(concealed_events)
    if reap_like:
        rel_stats.scrub_events += int(
            nvb[is_read].sum() - np.count_nonzero(delivery)
        )
    elif scrubbing:
        rel_stats.scrub_events += num_visits
    tracker = engine.tracker
    if tracker is not None:
        tracker.record_sample_arrays(conc_acc[delivery], ones_at_acc[delivery])

    # -- energy: reconstruct the per-access addend sequences ----------------------
    model = cache.energy_model
    tag_e = model.tag_lookup_energy_pj()
    way_e = model.way_read_energy_pj()
    dec_e = model.ecc_decode_energy_pj()
    mux_e = model.mux_energy_pj()
    write_breakdown = model.write_access_energy()
    wtag_e = write_breakdown.tag_pj
    wdata_e = write_breakdown.data_array_pj
    wecc_e = write_breakdown.ecc_pj
    way_write_e = model.way_write_energy_pj()
    enc_e = model.ecc_encode_energy_pj()

    if scheme_mode == _REAP:
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
    totals.tag_pj = _sequential_total(
        totals.tag_pj,
        np.stack(
            (tag_e * ones_f, wtag_e * ones_f, tag_e * ones_f, tag_e * ones_f), axis=1
        ),
        np.stack((read_count, wh_or_miss, dirty_evt, visit_counts), axis=1),
    )
    totals.data_read_pj = _sequential_total(
        totals.data_read_pj,
        np.stack((ways_read * way_e, way_e * ones_f, way_e * ones_f), axis=1),
        np.stack((read_count, dirty_evt, visit_counts), axis=1),
    )
    if restore:
        totals.data_write_pj = _sequential_total(
            totals.data_write_pj,
            np.stack((way_write_e * ones_f, wdata_e * ones_f), axis=1),
            np.stack((restore_counts, wh_or_miss), axis=1),
        )
        totals.ecc_encode_pj = _sequential_total(
            totals.ecc_encode_pj,
            np.stack((enc_e * ones_f, wecc_e * ones_f), axis=1),
            np.stack((restore_counts, wh_or_miss), axis=1),
        )
    else:
        totals.data_write_pj = _sequential_total(
            totals.data_write_pj, wdata_e * ones_f, wh_or_miss
        )
        totals.ecc_encode_pj = _sequential_total(
            totals.ecc_encode_pj, wecc_e * ones_f, wh_or_miss
        )
    totals.ecc_decode_pj = _sequential_total(
        totals.ecc_decode_pj,
        np.stack((decodes * dec_e, dec_e * ones_f, dec_e * ones_f), axis=1),
        np.stack((read_count, dirty_evt, visit_counts), axis=1),
    )
    totals.mux_pj = _sequential_total(
        totals.mux_pj,
        np.stack((mux_e * ones_f, mux_e * ones_f, mux_e * ones_f), axis=1),
        np.stack((read_count, dirty_evt, visit_counts), axis=1),
    )

    # -- functional statistics ----------------------------------------------------
    num_reads = int(np.count_nonzero(is_read))
    num_deliveries = int(np.count_nonzero(delivery))
    num_write_hits = int(np.count_nonzero(write_hit))
    num_misses = count - num_deliveries - num_write_hits
    stats.demand_reads += num_reads
    stats.demand_writes += count - num_reads
    stats.read_hits += num_deliveries
    stats.read_misses += num_reads - num_deliveries
    stats.write_hits += num_write_hits
    stats.write_misses += (count - num_reads) - num_write_hits
    stats.fills += num_misses
    stats.evictions += int(np.count_nonzero(evicted))
    stats.dirty_evictions += int(np.count_nonzero(evict_dirty))
    stats.data_way_reads += data_way_reads
    stats.data_way_writes += num_misses + num_write_hits
    stats.ecc_decodes += ecc_decodes
    stats.tag_comparisons += count * assoc

    # -- final per-frame block state ----------------------------------------------
    scheme_tick0 = cache._tick  # noqa: SLF001 - engine-internal state sync
    substrate_tick0 = substrate._tick  # noqa: SLF001 - engine-internal state sync

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
    if restore:
        _record_restores(
            cache,
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
    if scheme_mode == _CONVENTIONAL and not restore:
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
    # fill/write happens after the scheme's way loop.
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
    final_tick = np.where(
        has_tick,
        np.where(tick_scheme_base, scheme_tick0, substrate_tick0) + tick_pos + 1,
        init_tick,
    )

    # -- write everything back (touched frames only) ------------------------------
    touched_arr = np.asarray(touched_sets, dtype=np.int64)
    touched_frames = np.repeat(touched_arr * assoc, assoc) + np.tile(
        np.arange(assoc, dtype=np.int64), len(touched_sets)
    )
    final_ones_l = final_ones[touched_frames].tolist()
    final_unch_l = final_unch[touched_frames].tolist()
    final_rsd_l = final_rsd[touched_frames].tolist()
    reads_l = (init_reads + reads_gain)[touched_frames].tolist()
    conc_l = (init_conc + conc_gain)[touched_frames].tolist()
    checks_l = (init_checks + checks_gain)[touched_frames].tolist()
    fills_l = (init_fills + fills_per_frame)[touched_frames].tolist()
    tick_l = final_tick[touched_frames].tolist()
    for touch_index, set_index in enumerate(touched_sets):
        base = set_index * assoc
        compact_base = touch_index * assoc
        blocks = substrate.cache_set(set_index).blocks
        for way_index, block in enumerate(blocks):
            f = compact_base + way_index
            block.tag = tags_l[base + way_index]
            block.valid = valid_l[base + way_index]
            block.dirty = dirty_l[base + way_index]
            block.ones_count = final_ones_l[f]
            block.unchecked_reads = final_unch_l[f]
            block.reads_since_demand = final_rsd_l[f]
            block.total_reads = reads_l[f]
            block.total_concealed_reads = conc_l[f]
            block.total_checks = checks_l[f]
            block.fills = fills_l[f]
            block.last_access_tick = tick_l[f]

    if scrubbing:
        cache.import_scrub_state(*functional.scrub_state)
    cache._tick = scheme_tick0 + count  # noqa: SLF001 - engine-internal state sync
    substrate._tick = substrate_tick0 + count  # noqa: SLF001


def _replay_l1(
    cache: SetAssociativeCache,
    sub_positions: np.ndarray,
    sets: np.ndarray,
    tags: np.ndarray,
    stores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-pass, run-length-aware replay of one functional (SRAM) L1 cache.

    Equivalent to :meth:`repro.cache.SetAssociativeCache.access` per record
    (with ``fill_ones_count=0``, as the hierarchy uses it) — same counters,
    same block fields, same replacement transitions — but mirrors the L2
    kernel's pass split over the shared :class:`_FrameState` core:

    * **Pass 1** (sequential) extracts runs of consecutive same-block
      references vectorised, then walks them with a lean loop that resolves
      only the genuinely order-dependent work — residency, victim choice
      and eviction bookkeeping — while deferring replacement transitions
      through the policy's SoA protocol.  A hit run costs one dict probe
      plus one flat store.
    * **Pass 2** (vectorised) reconstructs every counter and per-block
      field closed-form from the run columns: hit/miss counters are mask
      sums, per-frame fill counts a ``bincount``, and the final recency
      tick of each frame the last tick-updating run that touched it.

    Bit-identical to a per-run loop: pass 1 performs the identical policy
    calls at the identical points in the stream, and every pass-2 quantity
    is an integer reconstruction of the same arithmetic.

    Args:
        cache: The L1 cache (mutated in place).
        sub_positions: Global trace positions of this cache's records.
        sets: Per-record set indices.
        tags: Per-record tags.
        stores: Per-record store flags.

    Returns:
        ``(miss_positions, miss_sets, miss_wb_tags)`` — the global position
        and set of every missing run's first reference, and the evicted
        dirty victim's tag (-1 when nothing dirty was evicted), in stream
        order.
    """
    n = int(len(sub_positions))
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty

    # Run extraction: maximal runs of consecutive same-(set, tag)
    # references collapse to one pass-1 iteration each.
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
    n_stores_r = store_cum[run_ends] - store_cum[run_starts]
    last_off_r = last_store[run_ends - 1] - run_starts
    first_store_r = stores[run_starts]

    # -- pass 1: functional replay of the runs ------------------------------------
    state = _FrameState(cache)
    assoc = state.assoc
    index_bits = state.index_bits
    keys = (tags[run_starts].astype(np.int64) << index_bits) | run_sets
    for set_index in np.unique(run_sets).tolist():
        state.materialise(set_index)

    key_list = keys.tolist()
    ends_l = run_ends.tolist()
    nst_l = n_stores_r.tolist()
    sets_l = run_sets.tolist()
    first_store_l = first_store_r.tolist()
    way_l = [0] * len(key_list)
    miss_runs: list[int] = []
    miss_wb: list[int] = []
    evictions = 0

    tags_f, valid_f, dirty_f, pend_f = state.tags, state.valid, state.dirty, state.pend
    rows, queues, nvalid_f = state.rows, state.queues, state.nvalid
    resident = state.resident
    resident_get = resident.get
    claim_free, evict = state.claim_free, state.evict
    # The L1s never record reads on their blocks, so the per-way
    # unchecked-read exposure seen by victim selection is always zero.
    zeros = [0] * assoc

    def handle_miss(r: int, key: int) -> int:
        """Shared miss path: victim choice, eviction bookkeeping, fill."""
        nonlocal evictions
        set_index = sets_l[r]
        wb_tag = -1
        if nvalid_f[set_index] < assoc:
            frame = claim_free(set_index)
        else:
            frame = evict(set_index, zeros)
            evictions += 1
            if dirty_f[frame]:
                wb_tag = tags_f[frame]
        tags_f[frame] = key >> index_bits
        # Write-allocate: an incoming store dirties the fresh line.
        dirty_f[frame] = bool(first_store_l[r])
        resident[key] = frame
        way_l[r] = frame
        miss_runs.append(r)
        miss_wb.append(wb_tag)
        return frame

    if state.position_mode:
        # The common case (LRU-family policy): a hit run is one dict
        # probe plus one deferred last-touch position store.
        for r, (key, end, nst) in enumerate(zip(key_list, ends_l, nst_l)):
            frame = resident_get(key)
            if frame is None:
                frame = handle_miss(r, key)
            else:
                way_l[r] = frame
            pend_f[frame] = end - 1
            if nst:
                dirty_f[frame] = True
    else:
        pol_globals = state.pol_globals
        pol_fill = state.policy.compact_on_fill
        ordered_mode = state.ordered_mode
        for r, (key, nst) in enumerate(zip(key_list, nst_l)):
            frame = resident_get(key)
            hit = frame is not None
            if not hit:
                frame = handle_miss(r, key)
            else:
                way_l[r] = frame
            if nst:
                dirty_f[frame] = True
            set_index = sets_l[r]
            way = frame - set_index * assoc
            if ordered_mode:
                queue = queues[set_index]
                if not queue or queue[-1] != way:
                    queue.append(way)
            elif not hit:
                pol_fill(pol_globals, rows[set_index], way)
    state.flush(n)

    # -- pass 2: vectorised counters and block fields -----------------------------
    run_frame = np.array(way_l, dtype=np.int64)
    miss_idx = np.array(miss_runs, dtype=np.int64)
    wb_tags = np.array(miss_wb, dtype=np.int64)
    miss_mask = np.zeros(len(run_frame), dtype=bool)
    miss_mask[miss_idx] = True
    demand_writes = int(n_stores_r.sum())
    demand_reads = n - demand_writes
    n_miss = int(miss_idx.size)
    write_misses = int(np.count_nonzero(first_store_r[miss_idx]))
    read_misses = n_miss - write_misses
    stats = cache.stats
    stats.demand_reads += demand_reads
    stats.demand_writes += demand_writes
    stats.read_hits += demand_reads - read_misses
    stats.read_misses += read_misses
    stats.write_hits += demand_writes - write_misses
    stats.write_misses += write_misses
    stats.fills += n_miss
    stats.evictions += evictions
    stats.dirty_evictions += int(np.count_nonzero(wb_tags >= 0))
    # One data-array write per fill plus one per store, minus the store
    # folded into a write-allocate fill (same arithmetic as the per-access
    # object path, summed instead of accumulated).
    stats.data_way_writes += demand_writes + n_miss - write_misses
    stats.tag_comparisons += n * assoc
    fills_l = np.bincount(run_frame[miss_mask], minlength=state.num_frames).tolist()

    # Final recency tick per frame: the last run that updated it — a fill
    # stamps start+1, a store run stamps the last store's position+1, a
    # store run over a fill overwrites the fill stamp.
    tick0 = cache._tick  # noqa: SLF001 - engine-internal state sync
    tick_map: dict[int, int] = {}
    has_store_r = n_stores_r > 0
    upd = miss_mask | has_store_r
    if upd.any():
        tick_vals = (
            tick0
            + run_starts[upd]
            + np.where(has_store_r[upd], last_off_r[upd] + 1, 1)
        )
        uniq_f, first_idx = np.unique(run_frame[upd][::-1], return_index=True)
        tick_map = dict(zip(uniq_f.tolist(), tick_vals[::-1][first_idx].tolist()))

    for set_index in state.touched_sets:
        base = set_index * assoc
        for way, block in enumerate(cache.cache_set(set_index).blocks):
            f = base + way
            block.tag = tags_f[f]
            block.valid = valid_f[f]
            block.dirty = dirty_f[f]
            block.fills += fills_l[f]
            tick = tick_map.get(f)
            if tick is not None:
                block.last_access_tick = tick
    cache._tick = tick0 + n  # noqa: SLF001 - engine-internal state sync
    return sub_positions[run_starts[miss_idx]], run_sets[miss_idx], wb_tags


def filter_through_l1_soa(
    hierarchy: CacheHierarchy, codes: np.ndarray, addresses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the CPU stream through run-length-encoded two-pass L1 models.

    Args:
        hierarchy: The cache hierarchy whose L1s are replayed (mutated).
        codes: Per-record CPU kind codes (0 ifetch, 1 load, 2 store).
        addresses: Per-record addresses.

    Returns:
        ``(l2_codes, l2_addresses)`` arrays — code 0 demand read, 1
        write-back, in the exact order the reference hierarchy would issue
        them to the L2.
    """
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

    i_pos, _, i_wb_tag = _replay_l1(
        l1i,
        i_positions,
        i_batch.indices,
        i_batch.tags,
        np.zeros(i_positions.size, dtype=bool),
    )
    d_pos, d_sets, d_wb_tag = _replay_l1(
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

    stats = hierarchy.stats
    stats.instruction_fetches += instruction_fetches
    stats.data_reads += data_reads
    stats.data_writes += data_writes
    stats.l2_reads += l2_reads
    stats.l2_writebacks += l2_writebacks
    return l2_codes, l2_addresses


class _EventStreams(NamedTuple):
    """The pass-2 columns :func:`_record_restores` rebuilds its stream from."""

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


def _record_restores(cache, streams: _EventStreams) -> None:
    """Rebuild the restore scheme's per-(read, way) rewrite stream.

    Every demand read restores all currently valid ways of its set — the
    non-hit ways in ascending order, then the hit way.  The reference loop
    accounts one restore per such way; this reconstructs the exact same
    sequence from the frame event streams and records the write-failure
    probabilities in one batch.
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
        return
    count = len(frame)
    assoc = cache.cache.associativity
    restore_model = cache.write_error_model
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
    # rewrite stream collapses to a single (probability, total_pairs) run
    # and none of the per-pair arrays are needed.  This is the common case:
    # the default data profile installs a constant ones count everywhere.
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
        probability = restore_model.block_write_failure_probability(
            int(unique_candidates[0])
        )
        cache.record_restore_runs([probability], [total_pairs])
        return

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

    unique_ones, inverse = np.unique(ordered_ones, return_inverse=True)
    unique_probs = np.array(
        [
            restore_model.block_write_failure_probability(int(ones))
            for ones in unique_ones
        ],
        dtype=float,
    )
    flat_inverse = inverse.reshape(-1)

    # Run-length encode the ordered stream: consecutive equal probabilities
    # fold through the bit-identical chunked accumulator, so long stretches
    # of one data value cost O(runs) instead of O(pairs).  Short mean runs
    # would make the per-run folding slower than the flat array, so fall
    # back when the encoding does not compress.
    change = np.empty(total_pairs, dtype=bool)
    change[0] = True
    change[1:] = flat_inverse[1:] != flat_inverse[:-1]
    run_starts = np.flatnonzero(change)
    if run_starts.size * 4 <= total_pairs:
        run_counts = np.diff(np.concatenate((run_starts, [total_pairs])))
        cache.record_restore_runs(unique_probs[flat_inverse[run_starts]], run_counts)
    else:
        cache.record_restore_array(unique_probs[flat_inverse])
