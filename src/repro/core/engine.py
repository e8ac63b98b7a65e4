"""Reliability engine: turns block exposures into failure probabilities.

The engine is the glue between the cache substrate and the reliability math:
the protection schemes report which blocks were read concealed, checked, or
delivered, and the engine

* applies the closed form of the delivery's kind (Eq. 3 for a conventional
  delivery's accumulated reads, Eq. 6 for a REAP delivery window, Eq. 2 for
  a serial access's single checked read),
* accumulates the expected-failure total that the MTTF metric needs, and
* feeds the :class:`~repro.reliability.AccumulationTracker` that the Fig. 3
  characterisation uses.

Each scheme class names its delivery kind once, as its ``delivery_kind``
class constant, and :meth:`ReliabilityEngine.failure_probabilities` is the
one function that turns ``(kind, ones, window)`` check keys into
probabilities, interleaving lanes included, for both simulation engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cache.block import CacheBlock
from ..cache.statistics import ReliabilityStatistics
from ..errors import ConfigurationError
from ..reliability import AccumulationTracker
from ..reliability.binomial import (
    accumulated_failure_probabilities,
    block_failure_probabilities,
)

#: Delivery-kind codes: the closed form an ECC check pays.  Each scheme's
#: ``delivery_kind`` is one of the first three; a dirty victim read out
#: toward memory is checked as :data:`WRITEBACK`.
CONVENTIONAL, REAP, SERIAL, WRITEBACK = 0, 1, 2, 3


@dataclass(frozen=True)
class DeliveryOutcome:
    """Reliability outcome of one demand delivery.

    Attributes:
        failure_probability: Probability the delivered data was uncorrectable.
        concealed_reads: Concealed reads the line had accumulated (Fig. 3 x-axis).
        demand_window: Total reads since the previous delivery (Eq. 6's ``N``).
        ones_count: Ones count of the delivered block.
    """

    failure_probability: float
    concealed_reads: int
    demand_window: int
    ones_count: int


class ReliabilityEngine:
    """Tracks disturbance exposure and expected failures for one cache."""

    def __init__(
        self,
        p_cell: float,
        correctable_errors: int = 1,
        track_accumulation: bool = True,
        interleaving_lanes: int = 1,
    ) -> None:
        """Create an engine.

        Args:
            p_cell: Per-read, per-cell disturbance probability (corrected
                Eq. 1, usually taken from
                :class:`repro.mram.ReadDisturbanceModel`).
            correctable_errors: ECC correction capability ``t`` per codeword.
            track_accumulation: Whether to record per-delivery samples for
                the Fig. 3 histogram (adds memory proportional to the number
                of demand reads).
            interleaving_lanes: Number of independent codewords a block is
                interleaved into.  With ``L`` lanes the disturbances of a
                block spread evenly across the lanes, so the block fails when
                *any* lane exceeds its own correction capability; the engine
                uses the union bound
                ``L * P[Binomial(trials / L, p) > t]``.
        """
        if not 0.0 <= p_cell <= 1.0:
            raise ConfigurationError("p_cell must be in [0, 1]")
        if correctable_errors < 0:
            raise ConfigurationError("correctable_errors must be non-negative")
        if interleaving_lanes < 1:
            raise ConfigurationError("interleaving_lanes must be >= 1")
        self._p_cell = p_cell
        self._correctable = correctable_errors
        self._lanes = interleaving_lanes
        self._stats = ReliabilityStatistics()
        self._tracker = AccumulationTracker() if track_accumulation else None
        # Failure probabilities depend only on (kind, ones, window); memoise
        # them so long traces do not pay a scipy tail computation per delivery.
        self._probabilities: dict[tuple[int, int, int], float] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def p_cell(self) -> float:
        """Per-read, per-cell disturbance probability."""
        return self._p_cell

    @property
    def correctable_errors(self) -> int:
        """ECC correction capability."""
        return self._correctable

    @property
    def interleaving_lanes(self) -> int:
        """Number of independent codewords a block is interleaved into."""
        return self._lanes

    @property
    def stats(self) -> ReliabilityStatistics:
        """Aggregated reliability counters."""
        return self._stats

    @property
    def tracker(self) -> AccumulationTracker | None:
        """Per-delivery accumulation samples (``None`` when tracking is off)."""
        return self._tracker

    @property
    def expected_failures(self) -> float:
        """Total expected uncorrectable deliveries so far."""
        return self._stats.expected_failures

    # -- event handlers ----------------------------------------------------------

    def on_concealed_read(self, block: CacheBlock) -> None:
        """A way was speculatively read without an ECC check."""
        block.record_concealed_read()
        self._stats.record_concealed()

    def on_scrub_read(self, block: CacheBlock, tick: int = 0) -> None:
        """A way was read and ECC-checked without being delivered (REAP).

        The check scrubs any accumulated disturbance but does not, by itself,
        constitute a delivery, so no failure probability is charged here; the
        exposure is folded into the next delivery through Eq. (6).
        """
        block.record_checked_read(demand=False, tick=tick)
        self._stats.scrub_events += 1

    def on_delivery(self, block: CacheBlock, kind: int, tick: int = 0) -> DeliveryOutcome:
        """A demand read delivered ``block``; charge the closed form of ``kind``.

        ``kind`` is the scheme's :data:`CONVENTIONAL`, :data:`REAP` or
        :data:`SERIAL` code.  A conventional delivery pays for the reads since
        the last check (Eq. 3), a REAP delivery for the reads since the last
        delivery, each of them checked (Eq. 6), and a serial delivery for one
        checked read (Eq. 2).
        """
        exposure = block.record_checked_read(demand=True, tick=tick)
        window = exposure.demand_window if kind == REAP else exposure.unchecked_window
        ones = block.ones_count
        probability = self.failure_probability(
            kind, ones, 1 if kind == SERIAL else window
        )
        self._stats.record_check(window, probability)
        concealed = exposure.unchecked_window - 1
        if self._tracker is not None:
            self._tracker.record(concealed, ones)
        return DeliveryOutcome(
            failure_probability=probability,
            concealed_reads=concealed,
            demand_window=exposure.demand_window,
            ones_count=ones,
        )

    # -- failure probabilities -----------------------------------------------------

    def failure_probabilities(self, kinds, ones, windows) -> np.ndarray:
        """Failure probabilities of aligned ``(kind, ones, window)`` check keys.

        The one place the closed forms and the interleaving-lane rule are
        written; the fast kernel calls it once per replay over its unique
        check keys, and :meth:`failure_probability` per key for the
        reference loop.

        * :data:`CONVENTIONAL`: Eq. (3) over ``window`` unchecked reads;
        * :data:`SERIAL`: Eq. (2), one checked read (``window`` is ignored);
        * :data:`REAP`: Eq. (6), ``window`` independently checked reads,
          ``-expm1(window * log1p(-single))`` over the Eq. (2) probability;
        * :data:`WRITEBACK`: Eq. (3) over ``window`` reads, with no lane
          adjustment.

        A block with no '1' cells never fails.  With ``L`` interleaving lanes
        each lane holds ``max(1, round(ones / L))`` of the ones and the block
        fails when any lane does; a delivery's Eq. (2)/(3) probability is the
        union bound ``min(1, L * q)`` over one lane's probability ``q``.

        Model limit: the union bound is tight while ``q`` is small and
        overstates the bit-true rate once lanes fail often.  With
        ``InterleavedSECDEDCode(64, degree=4)`` at ``p_cell = 3e-3`` after 32
        unchecked reads it reads 0.987 averaged over random data, against
        0.717 from :class:`~repro.reliability.FaultInjectionCampaign` (2000
        lifetimes, seed 1; 99.9% Clopper-Pearson interval [0.682, 0.749]).
        It stays as it is: changing it would change stored results.
        """
        kinds = np.asarray(kinds, dtype=np.int64)
        ones = np.asarray(ones, dtype=np.int64)
        windows = np.asarray(windows, dtype=np.int64)
        p_cell, correctable, lanes = self._p_cell, self._correctable, self._lanes
        probabilities = np.zeros(len(kinds), dtype=float)
        nonzero = ones > 0
        lane_ones = np.maximum(1, np.round(ones / lanes)).astype(np.int64)

        mask = nonzero & (kinds == WRITEBACK)
        if mask.any():
            probabilities[mask] = accumulated_failure_probabilities(
                p_cell, ones[mask], windows[mask], correctable
            )
        mask = nonzero & (kinds == CONVENTIONAL)
        if mask.any():
            probabilities[mask] = np.minimum(
                1.0,
                lanes
                * accumulated_failure_probabilities(
                    p_cell, lane_ones[mask], windows[mask], correctable
                ),
            )
        mask = nonzero & ((kinds == SERIAL) | (kinds == REAP))
        if mask.any():
            per_lane = block_failure_probabilities(p_cell, lane_ones[mask], correctable)
            single = np.minimum(1.0, lanes * per_lane)
            # Per entry through ``math``, as the scalar Eq. (6) evaluates it.
            reap_windows = windows[mask]
            for index in np.flatnonzero(kinds[mask] == REAP):
                tail = float(single[index])
                single[index] = (
                    1.0
                    if tail >= 1.0
                    else -math.expm1(int(reap_windows[index]) * math.log1p(-tail))
                )
            probabilities[mask] = single
        return probabilities

    def failure_probability(self, kind: int, ones: int, window: int) -> float:
        """One key of :meth:`failure_probabilities`, memoised (the reference loop's)."""
        key = (kind, ones, window)
        cached = self._probabilities.get(key)
        if cached is None:
            cached = float(self.failure_probabilities([kind], [ones], [window])[0])
            self._probabilities[key] = cached
        return cached
