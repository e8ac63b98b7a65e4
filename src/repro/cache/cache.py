"""Protection-agnostic set-associative cache model.

:class:`SetAssociativeCache` implements the functional behaviour every scheme
shares — lookup, replacement, fills, write-back bookkeeping, statistics — and
exposes the per-set block state so the read-path / reliability layer in
:mod:`repro.core` can apply the scheme-specific concealed-read accounting on
top of it.

The data content of blocks is abstracted to a *ones count* (how many cells
store '1'), which is all the unidirectional read-disturbance model needs.
The ones count of newly installed or overwritten blocks is supplied by the
caller (normally sampled by the reliability engine from a configured data
profile).

Block state has two homes.  Every set starts in :class:`BlockColumns`:
frame-indexed NumPy columns, one per :class:`~repro.cache.block.CacheBlock`
field.  The first object access to a set (:meth:`SetAssociativeCache.cache_set`,
and with it :meth:`~SetAssociativeCache.access` and
:meth:`~SetAssociativeCache.blocks_in_set`) builds the set's
:class:`CacheSet` from its column values; from then on those objects hold the
set and its columns go stale.  The batched kernel in :mod:`repro.sim.soa`
works on the columns alone, inside :meth:`SetAssociativeCache.synced_columns`,
so a cold replay builds no block object at all.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..config import CacheLevelConfig, WritePolicy
from ..errors import CacheError
from .address import AddressMapper, DecomposedAddress
from .block import CacheBlock
from .cache_set import CacheSet
from .replacement import ReplacementPolicy, build_replacement_policy
from .statistics import CacheStatistics


@dataclass(frozen=True)
class EvictedBlock:
    """Description of a block that was evicted to make room for a fill.

    Attributes:
        tag: Tag of the evicted block.
        set_index: Set it was evicted from.
        way: Way it occupied.
        dirty: Whether it must be written back to the next level.
        ones_count: Ones count of its data (for write-back energy/reliability).
        unchecked_reads: Disturbance exposure it had accumulated when evicted.
    """

    tag: int
    set_index: int
    way: int
    dirty: bool
    ones_count: int
    unchecked_reads: int


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one demand access to the cache.

    Attributes:
        address: The decomposed request address.
        is_write: Whether the access was a store.
        hit: Whether the lookup hit.
        way: The way that served the access (hit way or fill way).
        evicted: The block evicted by the fill, if any.
        filled: Whether a new block was installed.
    """

    address: DecomposedAddress
    is_write: bool
    hit: bool
    way: int
    evicted: EvictedBlock | None
    filled: bool

    @property
    def set_index(self) -> int:
        """Set index of the access."""
        return self.address.index


class BlockColumns(NamedTuple):
    """Per-block state as frame-indexed columns (frame = set * ways + way).

    One column per :class:`~repro.cache.block.CacheBlock` field, in field
    order, so ``CacheBlock(*row)`` rebuilds a block from one frame's values.
    """

    tag: np.ndarray
    valid: np.ndarray
    dirty: np.ndarray
    ones_count: np.ndarray
    unchecked_reads: np.ndarray
    reads_since_demand: np.ndarray
    total_reads: np.ndarray
    total_concealed_reads: np.ndarray
    total_checks: np.ndarray
    fills: np.ndarray
    last_access_tick: np.ndarray


class SetAssociativeCache:
    """Functional model of one set-associative cache level."""

    def __init__(self, config: CacheLevelConfig, seed: int = 1) -> None:
        """Create an empty cache with the given geometry.

        Args:
            config: Cache geometry and policies.
            seed: Seed used by stochastic replacement policies.
        """
        self._config = config
        self._mapper = AddressMapper(config)
        # Every set starts in the columns (all-invalid, zero counters); the
        # first object access to a set builds its blocks from them and moves
        # it into ``_sets``.  Large geometries would otherwise pay tens of
        # thousands of block constructions per cache even when a workload
        # touches a few dozen sets, and the batched kernel gathers and
        # scatters columns instead of walking objects.
        num_frames = config.num_sets * config.associativity
        flags = ("valid", "dirty")
        self._columns = BlockColumns(
            *(
                np.zeros(num_frames, dtype=bool if name in flags else np.int64)
                for name in BlockColumns._fields
            )
        )
        self._sets: dict[int, CacheSet] = {}
        self._replacement: ReplacementPolicy = build_replacement_policy(
            config.replacement, config.num_sets, config.associativity, seed=seed
        )
        self._stats = CacheStatistics()
        self._tick = 0

    # -- introspection ---------------------------------------------------------

    @property
    def config(self) -> CacheLevelConfig:
        """Cache geometry and policies."""
        return self._config

    @property
    def mapper(self) -> AddressMapper:
        """The address mapper of this cache."""
        return self._mapper

    @property
    def stats(self) -> CacheStatistics:
        """Counters collected so far."""
        return self._stats

    @property
    def replacement(self) -> ReplacementPolicy:
        """The replacement policy instance driving victim selection."""
        return self._replacement

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._config.num_sets

    @property
    def associativity(self) -> int:
        """Ways per set."""
        return self._config.associativity

    @property
    def columns(self) -> BlockColumns:
        """The block columns, current for every set no :class:`CacheSet` holds.

        Use :meth:`synced_columns` to read or write any set's state here.
        """
        return self._columns

    def cache_set(self, index: int) -> CacheSet:
        """Return the set at ``index``, building its blocks on first access."""
        cache_set = self._sets.get(index)
        if cache_set is None:
            if not 0 <= index < self._config.num_sets:
                raise CacheError(f"set index {index} out of range")
            frames = self.set_frames(index)
            rows = zip(*(column[frames].tolist() for column in self._columns))
            cache_set = self._sets[index] = CacheSet([CacheBlock(*row) for row in rows])
        return cache_set

    def set_frames(self, sets) -> np.ndarray:
        """Frame ids of ``sets`` (one index or many), set-major."""
        assoc = self._config.associativity
        first_frames = np.asarray(sets, dtype=np.int64).reshape(-1, 1) * assoc
        return (first_frames + np.arange(assoc)).ravel()

    @contextmanager
    def synced_columns(self) -> Iterator[BlockColumns]:
        """The columns with every object-held set copied in, and back out after.

        For batched replays that read and write block state as columns: a
        :class:`~repro.cache.block.CacheBlock` a caller holds across the
        replay shows its result afterwards.  Nothing is copied back if the
        body raises.
        """
        columns = self._columns
        held = [block for held_set in self._sets.values() for block in held_set.blocks]
        frames = self.set_frames(list(self._sets))
        for name, column in zip(BlockColumns._fields, columns):
            column[frames] = [getattr(block, name) for block in held]
        yield columns
        for name, column in zip(BlockColumns._fields, columns):
            for block, value in zip(held, column[frames].tolist()):
                setattr(block, name, value)

    def untouched(self) -> bool:
        """``True`` while the cache is as built: tick 0 and no set held as objects."""
        return self._tick == 0 and not self._sets

    def blocks_in_set(self, index: int) -> list[CacheBlock]:
        """Return the blocks of the set at ``index``."""
        return self.cache_set(index).blocks

    def contains(self, address: int) -> bool:
        """``True`` when the block containing ``address`` is resident."""
        decomposed = self._mapper.decompose(address)
        cache_set = self._sets.get(decomposed.index)
        if cache_set is not None:
            return cache_set.lookup(decomposed.tag) is not None
        frames = self.set_frames(decomposed.index)
        columns = self._columns
        matches = columns.valid[frames] & (columns.tag[frames] == decomposed.tag)
        return bool(matches.any())

    def occupancy(self) -> int:
        """Total number of valid blocks."""
        unheld = np.ones(self.num_sets, dtype=bool)
        unheld[list(self._sets)] = False
        column_valid = self._columns.valid.reshape(self.num_sets, -1)[unheld]
        held = sum(cache_set.occupancy() for cache_set in self._sets.values())
        return held + int(np.count_nonzero(column_valid))

    # -- access path -----------------------------------------------------------

    def access(
        self, address: int, is_write: bool, fill_ones_count: int = 0
    ) -> AccessResult:
        """Perform one demand access.

        On a miss a victim is chosen, evicted (reported in the result), and a
        new block is installed with ``fill_ones_count`` ones.  On a write hit
        the block is marked dirty and its ones count replaced by
        ``fill_ones_count``.

        The method performs *functional* bookkeeping only; concealed-read
        accounting and ECC checking are applied by the protection schemes in
        :mod:`repro.core`, which observe the returned :class:`AccessResult`
        and the per-set block state.

        Args:
            address: Physical byte address of the request.
            is_write: ``True`` for a store.
            fill_ones_count: Ones count of the data installed on a miss or
                written on a store.

        Returns:
            An :class:`AccessResult` describing what happened.
        """
        self._tick += 1
        decomposed = self._mapper.decompose(address)
        target_set = self.cache_set(decomposed.index)
        way = target_set.lookup(decomposed.tag)

        # Every access drives all tag comparators of the set.
        self._stats.tag_comparisons += self._config.associativity

        if is_write:
            self._stats.demand_writes += 1
        else:
            self._stats.demand_reads += 1

        if way is not None:
            if is_write:
                self._stats.write_hits += 1
                target_set.block(way).record_write(fill_ones_count, tick=self._tick)
                self._stats.data_way_writes += 1
            else:
                self._stats.read_hits += 1
            self._replacement.on_access(decomposed.index, way)
            return AccessResult(
                address=decomposed,
                is_write=is_write,
                hit=True,
                way=way,
                evicted=None,
                filled=False,
            )

        # Miss path: choose a victim, evict, fill.
        if is_write:
            self._stats.write_misses += 1
        else:
            self._stats.read_misses += 1

        victim_way = self._replacement.victim(decomposed.index, target_set.blocks)
        victim_block = target_set.block(victim_way)
        evicted: EvictedBlock | None = None
        if victim_block.valid:
            evicted = EvictedBlock(
                tag=victim_block.tag,
                set_index=decomposed.index,
                way=victim_way,
                dirty=victim_block.dirty,
                ones_count=victim_block.ones_count,
                unchecked_reads=victim_block.unchecked_reads,
            )
            self._stats.evictions += 1
            if victim_block.dirty:
                self._stats.dirty_evictions += 1

        victim_block.fill(decomposed.tag, fill_ones_count, tick=self._tick)
        self._stats.fills += 1
        self._stats.data_way_writes += 1
        if is_write:
            # Write-allocate: the incoming store dirties the freshly filled line.
            victim_block.record_write(fill_ones_count, tick=self._tick)
        self._replacement.on_fill(decomposed.index, victim_way)

        return AccessResult(
            address=decomposed,
            is_write=is_write,
            hit=False,
            way=victim_way,
            evicted=evicted,
            filled=True,
        )

    def invalidate_all(self) -> None:
        """Invalidate every block (used between experiment phases)."""
        for cache_set in self._sets.values():
            for block in cache_set.blocks:
                block.invalidate()
        columns = self._columns
        columns.valid[:] = columns.dirty[:] = False
        columns.unchecked_reads[:] = columns.reads_since_demand[:] = 0

    def resident_sets(self) -> np.ndarray:
        """Indices of the sets holding at least one valid block, ascending."""
        held = self._sets
        valid = self._columns.valid.reshape(self.num_sets, -1)
        resident = [s for s in np.flatnonzero(valid.any(1)).tolist() if s not in held]
        resident += [s for s, cache_set in held.items() if cache_set.occupancy()]
        return np.array(sorted(resident), dtype=np.int64)

    def resident_blocks(self) -> list[tuple[int, int, CacheBlock]]:
        """All valid blocks as (set_index, way, block) triples.

        Builds the objects of every set holding a valid block.
        """
        return [
            (set_index, way, block)
            for set_index in self.resident_sets().tolist()
            for way, block in enumerate(self.cache_set(set_index).blocks)
            if block.valid
        ]

    @property
    def write_policy(self) -> WritePolicy:
        """Write policy of this cache level."""
        return self._config.write_policy
