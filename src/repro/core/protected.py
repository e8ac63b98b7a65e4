"""Protected L2 cache: the common machinery of all protection schemes.

:class:`ProtectedCache` composes the functional cache substrate
(:class:`repro.cache.SetAssociativeCache`), a read-path organisation, the ECC
scheme, the reliability engine, and the energy accountant into a single
object implementing the :class:`repro.cache.NextLevel` protocol — i.e. it can
be plugged directly under the :class:`repro.cache.CacheHierarchy` front end
or driven with a raw L2 access stream.

Concrete schemes (conventional, REAP, serial, restore, scrubbing) differ
in their read-path mode and in the closed form a demand delivery pays, which
each declares once as its ``delivery_kind`` class constant (see
:mod:`repro.core.engine`).
"""

from __future__ import annotations

import abc
from dataclasses import replace

from ..cache import SetAssociativeCache
from ..cache.cache_set import CacheSet
from ..cache.readpath import ReadPathEvents, build_read_path
from ..cache.statistics import CacheStatistics, ReliabilityStatistics
from ..config import CacheLevelConfig, MTJConfig, ReadPathMode
from ..ecc import ECCScheme, build_ecc_scheme
from ..energy import EnergyAccountant, EnergyTotals, NVSimLikeModel
from ..errors import ConfigurationError
from ..mram import ReadDisturbanceModel
from ..reliability import AccumulationTracker, MTTFResult
from .data_profile import DataValueProfile
from .engine import WRITEBACK, DeliveryOutcome, ReliabilityEngine


class ProtectedCache(abc.ABC):
    """Base class of the ECC-protected STT-MRAM L2 cache models."""

    #: The engine's delivery-kind code of a demand delivery
    #: (:data:`repro.core.engine.CONVENTIONAL`, ``REAP`` or ``SERIAL``).
    delivery_kind: int

    def __init__(
        self,
        config: CacheLevelConfig,
        mtj: MTJConfig | None = None,
        p_cell: float | None = None,
        data_profile: DataValueProfile | None = None,
        seed: int = 1,
        track_accumulation: bool = True,
        count_writeback_checks: bool = False,
    ) -> None:
        """Create a protected cache.

        Args:
            config: L2 geometry and ECC configuration.  The ``read_path``
                field is overridden by the concrete scheme.
            mtj: MTJ operating point; used to derive the per-read disturbance
                probability when ``p_cell`` is not given.
            p_cell: Per-read, per-cell disturbance probability override
                (handy for pinning experiments to e.g. 1e-8).
            data_profile: Ones-count sampler for filled/written blocks.
            seed: Seed forwarded to the substrate and the data profile.
            track_accumulation: Record per-delivery samples for Fig. 3.
            count_writeback_checks: Also charge the reliability model for the
                read-out of dirty blocks evicted toward memory.
        """
        self._scheme_config = replace(config, read_path=self.read_path_mode())
        self._cache = SetAssociativeCache(self._scheme_config, seed=seed)
        self._read_path = build_read_path(
            self.read_path_mode(), config.associativity
        )
        self._ecc: ECCScheme = build_ecc_scheme(config.ecc, config.block_size_bits)
        mtj = mtj or MTJConfig()
        if p_cell is None:
            p_cell = ReadDisturbanceModel(mtj).per_read_probability
        self._mtj = mtj
        self._engine = ReliabilityEngine(
            p_cell=p_cell,
            correctable_errors=self._ecc.correctable_errors,
            track_accumulation=track_accumulation,
            interleaving_lanes=getattr(self._ecc, "degree", 1),
        )
        self._data_profile = data_profile or DataValueProfile(
            block_bits=config.block_size_bits, seed=seed
        )
        self._energy_model = NVSimLikeModel(self._scheme_config, self._ecc)
        self._energy = EnergyAccountant(self._energy_model)
        self._count_writeback_checks = count_writeback_checks
        self._tick = 0

    # -- scheme identity -----------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def read_path_mode(cls) -> ReadPathMode:
        """Read-path organisation used by the scheme."""

    @classmethod
    @abc.abstractmethod
    def scheme_name(cls) -> str:
        """Short human-readable scheme name."""

    # -- introspection ----------------------------------------------------------------

    @property
    def config(self) -> CacheLevelConfig:
        """Effective cache configuration (read path set by the scheme)."""
        return self._scheme_config

    @property
    def cache(self) -> SetAssociativeCache:
        """The underlying functional cache."""
        return self._cache

    @property
    def ecc(self) -> ECCScheme:
        """The block ECC scheme."""
        return self._ecc

    @property
    def engine(self) -> ReliabilityEngine:
        """The reliability engine."""
        return self._engine

    @property
    def p_cell(self) -> float:
        """Per-read, per-cell disturbance probability in use."""
        return self._engine.p_cell

    @property
    def stats(self) -> CacheStatistics:
        """Functional cache statistics."""
        return self._cache.stats

    @property
    def reliability(self) -> ReliabilityStatistics:
        """Reliability statistics."""
        return self._engine.stats

    @property
    def tracker(self) -> AccumulationTracker | None:
        """Per-delivery accumulation samples (``None`` when disabled)."""
        return self._engine.tracker

    @property
    def energy(self) -> EnergyTotals:
        """Accumulated energy totals."""
        return self._energy.totals

    @property
    def energy_accountant(self) -> EnergyAccountant:
        """The event-by-event energy accountant."""
        return self._energy

    @property
    def data_profile(self) -> DataValueProfile:
        """The ones-count sampler used for fills and overwrites."""
        return self._data_profile

    @property
    def count_writeback_checks(self) -> bool:
        """Whether dirty-eviction read-outs are charged to the reliability model."""
        return self._count_writeback_checks

    def add_leakage(self, seconds: float) -> None:
        """Add leakage energy for ``seconds`` of simulated time.

        Public hook used by the simulation engines after a trace has run, so
        drivers never need to reach into the internal accountant.

        Raises:
            ConfigurationError: if ``seconds`` is negative.
        """
        self._energy.add_leakage(seconds)

    @property
    def energy_model(self) -> NVSimLikeModel:
        """The per-event energy/area model."""
        return self._energy_model

    @property
    def expected_failures(self) -> float:
        """Total expected uncorrectable deliveries so far."""
        return self._engine.expected_failures

    def mttf(self, simulated_time_s: float) -> MTTFResult:
        """MTTF result for a simulated interval of the given length."""
        return MTTFResult(
            expected_failures=self.expected_failures,
            simulated_time_s=simulated_time_s,
            num_accesses=self._engine.stats.checked_reads,
        )

    def read_hit_latency_ns(self) -> float:
        """Read-hit latency of the scheme's read-path organisation."""
        return self._energy_model.read_hit_latency_ns(self.read_path_mode())

    # -- NextLevel protocol ---------------------------------------------------------------

    def read(self, address: int) -> DeliveryOutcome | None:
        """Handle a demand read of the block containing ``address``.

        Returns:
            The delivery outcome on a hit, or ``None`` on a miss (the missing
            block is fetched from memory and installed; its first delivery
            happens on a later hit).
        """
        self._tick += 1
        decomposed = self._cache.mapper.decompose(address)
        cache_set = self._cache.cache_set(decomposed.index)
        valid_ways = cache_set.valid_ways()
        hit_way = cache_set.lookup(decomposed.tag)

        if hit_way is not None:
            events = self._read_path.read_events(hit_way, valid_ways)
        else:
            events = self._read_path.miss_events(valid_ways)

        outcome = self._apply_read_reliability(cache_set, hit_way, events)
        self._energy.record_read_access(events.ways_read, events.ecc_decodes)
        self._cache.stats.data_way_reads += events.ways_read
        self._cache.stats.ecc_decodes += events.ecc_decodes

        result = self._cache.access(
            address, is_write=False, fill_ones_count=self._data_profile.sample()
        )
        if result.filled:
            self._energy.record_fill()
            self._handle_eviction(result)
        return outcome

    def write(self, address: int) -> None:
        """Handle a write (store write-back from the L1) of a block."""
        self._tick += 1
        result = self._cache.access(
            address, is_write=True, fill_ones_count=self._data_profile.sample()
        )
        self._energy.record_write_access()
        if result.filled:
            self._handle_eviction(result)

    # -- internals ----------------------------------------------------------------------------

    def _apply_read_reliability(
        self, cache_set: CacheSet, hit_way: int | None, events: ReadPathEvents
    ) -> DeliveryOutcome | None:
        """Charge concealed / checked / delivered reads for one access."""
        outcome: DeliveryOutcome | None = None
        for way in events.concealed_ways:
            self._engine.on_concealed_read(cache_set.block(way))
        for way in events.checked_ways:
            block = cache_set.block(way)
            if hit_way is not None and way == hit_way:
                outcome = self._deliver(block)
            else:
                self._engine.on_scrub_read(block, tick=self._tick)
        return outcome

    def _deliver(self, block) -> DeliveryOutcome:
        """Charge the reliability model for a demand delivery of ``block``."""
        return self._engine.on_delivery(block, self.delivery_kind, tick=self._tick)

    def _handle_eviction(self, result) -> None:
        """Account the write-back of a dirty victim toward memory."""
        evicted = result.evicted
        if evicted is None or not evicted.dirty:
            return
        # Reading the victim out of the array costs one way read and one
        # decode in every scheme (the write-back path always checks ECC).
        self._energy.record_read_access(ways_read=1, ecc_decodes=1)
        if self._count_writeback_checks and evicted.ones_count > 0:
            window = evicted.unchecked_reads + 1
            probability = self._engine.failure_probability(
                WRITEBACK, evicted.ones_count, window
            )
            self._engine.stats.record_check(window, probability)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"{type(self).__name__}(config={self._scheme_config.name}, "
            f"p_cell={self.p_cell:.3e}, ecc={self._ecc.name})"
        )
