"""Concealed-read accumulation tracking and the Fig. 3 histogram.

The paper's Fig. 3 plots, for one workload:

* x-axis: the number of concealed reads a line had suffered when it was
  finally demand-read (and therefore ECC-checked);
* primary y-axis: how often that count occurred, normalised to the number of
  demand reads that found *zero* concealed reads;
* secondary y-axis: the contribution of each count to the total cache
  failure rate, i.e. frequency x per-access failure probability at that
  count.

:class:`AccumulationTracker` collects (concealed-read count, ones count)
samples from the cache simulation; :class:`ConcealedReadHistogram` turns them
into exactly those two curves.

Every demand read resolves through one closed form.  A read that found
``concealed`` concealed reads exposed its ``ones`` '1' cells to
``N = concealed + 1`` reads before the ECC check, so its uncorrectable-error
probability is Eq. (3), ``P[X >= t + 1]`` with ``X ~ Binomial(N * ones, p)``.
Eq. (3) with ``N = 1`` is Eq. (2), and a block with no '1' cells (zero
trials) never fails, so no case needs its own branch.  The histogram
evaluates that tail once per *distinct* trial count through
:func:`~repro.reliability.binomial.binomial_tail_ge_array` (element-identical
to the scalar oracle) and memoises the per-read array, so one panel makes one
binomial pass however many of its curves it draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from .binomial import binomial_tail_ge_array


@dataclass
class AccessSample:
    """One demand read observed by the tracker.

    Attributes:
        concealed_reads: Number of concealed reads the line experienced since
            its previous ECC check.
        ones_count: Number of '1' cells in the line at the time of the read.
    """

    concealed_reads: int
    ones_count: int


class AccumulationTracker:
    """Collects per-demand-read concealed-read counts during a simulation.

    The samples are held as two parallel integer columns (a structure of
    arrays) so that batched recording and the histogram maths never build a
    Python object per demand read; :attr:`samples` materialises the classic
    :class:`AccessSample` view on demand.
    """

    __slots__ = ("_concealed", "_ones")

    def __init__(self) -> None:
        self._concealed: list[int] = []
        self._ones: list[int] = []

    @property
    def samples(self) -> list[AccessSample]:
        """The recorded demand reads as :class:`AccessSample` objects."""
        return [
            AccessSample(concealed, ones)
            for concealed, ones in zip(self._concealed, self._ones)
        ]

    def record(self, concealed_reads: int, ones_count: int) -> None:
        """Record one demand read.

        Args:
            concealed_reads: Concealed reads accumulated since the last check.
            ones_count: Number of '1' cells in the block.
        """
        if concealed_reads < 0:
            raise ConfigurationError("concealed_reads must be non-negative")
        if ones_count < 0:
            raise ConfigurationError("ones_count must be non-negative")
        self._concealed.append(concealed_reads)
        self._ones.append(ones_count)

    def record_sample_arrays(
        self, concealed_reads: np.ndarray, ones_counts: np.ndarray
    ) -> None:
        """Record many demand reads from integer arrays (no per-sample objects).

        Same samples as repeated :meth:`record`; used by the
        structure-of-arrays kernel, whose delivery columns are already NumPy
        arrays.

        Raises:
            ConfigurationError: if the arrays disagree in length or any entry
                is negative.
        """
        concealed = np.asarray(concealed_reads, dtype=np.int64)
        ones = np.asarray(ones_counts, dtype=np.int64)
        if concealed.shape != ones.shape:
            raise ConfigurationError(
                "concealed_reads and ones_counts must have the same length"
            )
        if concealed.size == 0:
            return
        if int(concealed.min()) < 0:
            raise ConfigurationError("concealed_reads must be non-negative")
        if int(ones.min()) < 0:
            raise ConfigurationError("ones_count must be non-negative")
        self._concealed.extend(concealed.tolist())
        self._ones.extend(ones.tolist())

    def __len__(self) -> int:
        return len(self._concealed)

    @property
    def max_concealed_reads(self) -> int:
        """Largest concealed-read count observed (0 when empty)."""
        if not self._concealed:
            return 0
        return max(self._concealed)

    @property
    def mean_concealed_reads(self) -> float:
        """Average concealed-read count per demand read (0.0 when empty)."""
        if not self._concealed:
            return 0.0
        return float(np.mean(self._concealed))

    def counts(self) -> np.ndarray:
        """Array of concealed-read counts, one entry per demand read."""
        return np.array(self._concealed, dtype=np.int64)

    def ones(self) -> np.ndarray:
        """Array of ones counts, aligned with :meth:`counts`."""
        return np.array(self._ones, dtype=np.int64)


@dataclass(frozen=True)
class HistogramBin:
    """One bin of the Fig. 3 histogram.

    Attributes:
        concealed_reads: Representative concealed-read count of the bin
            (bin centre for aggregated bins, exact value otherwise).
        accesses: Number of demand reads that fell into the bin.
        normalized_frequency: ``accesses`` scaled so the zero-concealed-read
            bin equals 100 (the paper's normalisation).
        failure_rate: Sum of per-access uncorrectable-error probabilities of
            the accesses in the bin.
    """

    concealed_reads: float
    accesses: int
    normalized_frequency: float
    failure_rate: float


class ConcealedReadHistogram:
    """Builds the two Fig. 3 curves from tracker samples."""

    def __init__(
        self,
        tracker: AccumulationTracker,
        p_cell: float,
        correctable: int = 1,
        num_bins: int = 40,
    ) -> None:
        """Create the histogram.

        Args:
            tracker: Samples collected during a simulation.
            p_cell: Per-read, per-cell disturbance probability.
            correctable: ECC correction capability.
            num_bins: Number of bins used to aggregate the concealed-read axis.
        """
        if len(tracker) == 0:
            raise AnalysisError("cannot build a histogram from zero samples")
        if not 0.0 <= p_cell <= 1.0:
            raise ConfigurationError("p_cell must be in [0, 1]")
        if correctable < 0:
            raise ConfigurationError("correctable must be non-negative")
        if num_bins < 1:
            raise ConfigurationError("num_bins must be >= 1")
        self._tracker = tracker
        self._p_cell = p_cell
        self._correctable = correctable
        self._num_bins = num_bins
        self._probabilities: np.ndarray | None = None

    def per_access_failure_probabilities(self) -> np.ndarray:
        """Uncorrectable-error probability of each recorded demand read.

        Entry ``i`` is ``P[X >= correctable + 1]`` with
        ``X ~ Binomial((concealed_i + 1) * ones_i, p_cell)``: Eq. (3), which
        is Eq. (2) when ``concealed_i == 0`` and 0.0 when ``ones_i == 0``.
        The tail is evaluated once per distinct trial count and scattered
        back, so the values equal the scalar Eq. (2)/(3) functions exactly.

        The array is memoised until the tracker grows (it is append-only,
        so its length identifies its contents) and returned read-only so
        callers cannot corrupt the memo.
        """
        memo = self._probabilities
        if memo is not None and len(memo) == len(self._tracker):
            return memo
        trials = (self._tracker.counts() + 1) * self._tracker.ones()
        unique_trials, inverse = np.unique(trials, return_inverse=True)
        tails = binomial_tail_ge_array(
            unique_trials, self._p_cell, self._correctable + 1
        )
        probabilities = tails[inverse]
        probabilities.flags.writeable = False
        self._probabilities = probabilities
        return probabilities

    def total_failure_rate(self) -> float:
        """Sum of per-access failure probabilities (expected failures)."""
        return float(self.per_access_failure_probabilities().sum())

    def bins(self) -> list[HistogramBin]:
        """Aggregate samples into bins along the concealed-read axis."""
        counts = self._tracker.counts()
        probabilities = self.per_access_failure_probabilities()
        max_count = int(counts.max())

        if max_count <= self._num_bins:
            edges = np.arange(max_count + 2) - 0.5
        else:
            # Keep the zero-concealed-read accesses in a bin of their own so
            # the paper's normalisation reference survives aggregation.
            tail_edges = np.linspace(0.5, max_count + 0.5, self._num_bins)
            edges = np.concatenate([[-0.5], tail_edges])

        bin_index = np.digitize(counts, edges) - 1
        bin_index = np.clip(bin_index, 0, len(edges) - 2)

        raw: list[tuple[float, int, float]] = []
        for b in range(len(edges) - 1):
            mask = bin_index == b
            accesses = int(mask.sum())
            if accesses == 0:
                continue
            centre = float(counts[mask].mean())
            failure = float(probabilities[mask].sum())
            raw.append((centre, accesses, failure))

        # The paper scales frequencies so reads with no concealed read map to
        # 100; when no such read exists the lowest observed bin is the
        # reference instead.
        raw.sort(key=lambda item: item[0])
        reference = raw[0][1]
        return [
            HistogramBin(
                concealed_reads=centre,
                accesses=accesses,
                normalized_frequency=100.0 * accesses / reference,
                failure_rate=failure,
            )
            for centre, accesses, failure in raw
        ]

    def dominant_bin(self) -> HistogramBin:
        """The bin contributing the most to the total failure rate."""
        return max(self.bins(), key=lambda b: b.failure_rate)

    def tail_dominance_ratio(self, split_fraction: float = 0.5) -> float:
        """Failure-rate share of the high-concealed-read half of the axis.

        The paper's observation is that rare, high-count accesses dominate
        the failure rate; this ratio quantifies it: the fraction of the total
        failure rate produced by accesses whose concealed-read count exceeds
        ``split_fraction * max_count``.
        """
        if not 0.0 < split_fraction < 1.0:
            raise ConfigurationError("split_fraction must be in (0, 1)")
        counts = self._tracker.counts()
        probabilities = self.per_access_failure_probabilities()
        threshold = split_fraction * counts.max()
        total = probabilities.sum()
        if total == 0.0:
            return 0.0
        return float(probabilities[counts > threshold].sum() / total)
