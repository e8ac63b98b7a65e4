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
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # Sets are materialised on first touch: an untouched set is
        # indistinguishable from a freshly built all-invalid one, and large
        # geometries would otherwise pay tens of thousands of block
        # constructions per cache even when a workload touches a few dozen
        # sets.
        self._sets: list[CacheSet | None] = [None] * config.num_sets
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

    def cache_set(self, index: int) -> CacheSet:
        """Return the set at ``index`` (materialising it on first touch)."""
        if not 0 <= index < len(self._sets):
            raise CacheError(f"set index {index} out of range")
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = CacheSet(self._config.associativity)
        return cache_set

    def peek_set(self, index: int) -> CacheSet | None:
        """Set at ``index`` if already materialised, ``None`` otherwise.

        Unlike :meth:`cache_set` this never materialises: an untouched set
        is all-invalid by construction, so callers scanning for resident
        blocks (like the batched engines' patrol replay) can skip it
        without paying for its block objects.
        """
        if not 0 <= index < len(self._sets):
            raise CacheError(f"set index {index} out of range")
        return self._sets[index]

    def untouched(self) -> bool:
        """``True`` while the cache is as built: tick 0 and no set materialised."""
        return self._tick == 0 and self._sets.count(None) == len(self._sets)

    def blocks_in_set(self, index: int) -> list[CacheBlock]:
        """Return the blocks of the set at ``index``."""
        return self.cache_set(index).blocks

    def contains(self, address: int) -> bool:
        """``True`` when the block containing ``address`` is resident."""
        decomposed = self._mapper.decompose(address)
        return self.cache_set(decomposed.index).lookup(decomposed.tag) is not None

    def occupancy(self) -> int:
        """Total number of valid blocks."""
        return sum(s.occupancy() for s in self._sets if s is not None)

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
        for cache_set in self._sets:
            if cache_set is None:
                continue
            for block in cache_set.blocks:
                block.invalidate()

    def resident_blocks(self) -> list[tuple[int, int, CacheBlock]]:
        """All valid blocks as (set_index, way, block) triples."""
        resident = []
        for set_index, cache_set in enumerate(self._sets):
            if cache_set is None:
                continue
            for way, block in enumerate(cache_set.blocks):
                if block.valid:
                    resident.append((set_index, way, block))
        return resident

    @property
    def write_policy(self) -> WritePolicy:
        """Write policy of this cache level."""
        return self._config.write_policy
