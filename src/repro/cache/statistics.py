"""Counters collected by the cache models.

Two kinds of statistics are kept:

* :class:`CacheStatistics` — the usual hit/miss/eviction counters of a cache
  level, plus the event counts the energy model needs (how many data ways
  were read per access, how many ECC decodes were performed, how many tag
  comparisons happened).
* :class:`ReliabilityStatistics` — the accumulation-specific counters used by
  the reliability engine (checked reads, concealed reads, expected failures).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStatistics:
    """Hit/miss and energy-relevant event counters for one cache level."""

    demand_reads: int = 0
    demand_writes: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    data_way_reads: int = 0
    data_way_writes: int = 0
    ecc_decodes: int = 0
    ecc_encodes: int = 0
    tag_comparisons: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses (reads + writes)."""
        return self.demand_reads + self.demand_writes

    @property
    def hits(self) -> int:
        """Total demand hits."""
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        """Total demand misses."""
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Demand hit rate (0.0 when no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Demand miss rate (0.0 when no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def read_fraction(self) -> float:
        """Fraction of demand accesses that are reads."""
        if self.accesses == 0:
            return 0.0
        return self.demand_reads / self.accesses

    @property
    def average_ways_read_per_read(self) -> float:
        """Average number of data ways read per demand read access."""
        if self.demand_reads == 0:
            return 0.0
        return self.data_way_reads / self.demand_reads

    @property
    def average_decodes_per_read(self) -> float:
        """Average number of ECC decodes per demand read access."""
        if self.demand_reads == 0:
            return 0.0
        return self.ecc_decodes / self.demand_reads

    def merge(self, other: "CacheStatistics") -> "CacheStatistics":
        """Return a new statistics object with the counters summed."""
        merged = CacheStatistics()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def as_dict(self) -> dict[str, float]:
        """Counters plus derived rates as a flat dictionary."""
        data: dict[str, float] = dict(vars(self))
        data.update(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            hit_rate=self.hit_rate,
            miss_rate=self.miss_rate,
            read_fraction=self.read_fraction,
            average_ways_read_per_read=self.average_ways_read_per_read,
            average_decodes_per_read=self.average_decodes_per_read,
        )
        return data


@dataclass
class ReliabilityStatistics:
    """Accumulation and failure-probability counters for one protected cache."""

    checked_reads: int = 0
    concealed_reads: int = 0
    scrub_events: int = 0
    expected_failures: float = 0.0
    max_accumulated_reads: int = 0
    accumulated_reads_sum: int = 0

    @property
    def mean_accumulated_reads(self) -> float:
        """Average exposure (reads since last check) seen at check time."""
        if self.checked_reads == 0:
            return 0.0
        return self.accumulated_reads_sum / self.checked_reads

    @property
    def failure_probability_per_check(self) -> float:
        """Average uncorrectable-error probability per checked read."""
        if self.checked_reads == 0:
            return 0.0
        return self.expected_failures / self.checked_reads

    def record_check(self, exposure: int, failure_probability: float) -> None:
        """Record one ECC-checked delivery.

        Args:
            exposure: Reads accumulated since the previous check (>= 1).
            failure_probability: Uncorrectable-error probability of this
                delivery.
        """
        self.checked_reads += 1
        self.accumulated_reads_sum += exposure
        self.max_accumulated_reads = max(self.max_accumulated_reads, exposure)
        self.expected_failures += failure_probability

    def record_check_array(self, exposures, failure_probabilities) -> None:
        """Record many ECC-checked deliveries from aligned NumPy arrays.

        Totals match calling :meth:`record_check` once per event in order:
        the integer counters sum exactly, and the expected-failure
        accumulator reproduces the same left-to-right float additions via
        :func:`repro.reliability.binomial.sequential_float_sum`.

        Args:
            exposures: Per-check exposure windows (int array), in delivery
                order.
            failure_probabilities: Per-check uncorrectable probabilities
                (float array), aligned with ``exposures``.
        """
        import numpy as np

        from ..reliability.binomial import sequential_float_sum

        exposures = np.asarray(exposures, dtype=np.int64)
        if exposures.size == 0:
            return
        self.checked_reads += int(exposures.size)
        self.accumulated_reads_sum += int(exposures.sum())
        self.max_accumulated_reads = max(
            self.max_accumulated_reads, int(exposures.max())
        )
        self.expected_failures = sequential_float_sum(
            self.expected_failures, failure_probabilities
        )

    def record_concealed(self, count: int = 1) -> None:
        """Record concealed (unchecked) reads."""
        self.concealed_reads += count

    def as_dict(self) -> dict[str, float]:
        """Counters plus derived values as a flat dictionary."""
        data: dict[str, float] = dict(vars(self))
        data.update(
            mean_accumulated_reads=self.mean_accumulated_reads,
            failure_probability_per_check=self.failure_probability_per_check,
        )
        return data
