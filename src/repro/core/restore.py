"""Disruptive-read-and-restore baseline (paper references [14], [15]).

The architecture-level mitigation the paper positions itself against: after
every read, the sensed value is written back into the line, so disturbance
cannot accumulate.  The price the paper highlights is twofold:

* every read now also performs a (full-line) write, which lengthens the
  access and burns STT-MRAM write energy on each of the ``k`` speculatively
  read ways; and
* every restore is an extra write *opportunity to fail* — the scheme trades
  read-disturbance accumulation for write-failure exposure.

The model here keeps the parallel read path (restores are applied to all
speculatively read ways), charges restore writes to the energy accountant,
accumulates the restore write-failure probability as additional expected
failures, and — like REAP — prevents read-disturbance accumulation.
"""

from __future__ import annotations

from ..cache.cache_set import CacheSet
from ..cache.readpath import ReadPathEvents
from ..config import CacheLevelConfig, MTJConfig, ReadPathMode
from ..mram import WriteErrorModel
from .data_profile import DataValueProfile
from .engine import DeliveryOutcome
from .protected import ProtectedCache


class RestoreCache(ProtectedCache):
    """Parallel-access cache that restores every way after every read."""

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
        """Create the restore baseline; see :class:`ProtectedCache` for arguments."""
        super().__init__(
            config=config,
            mtj=mtj,
            p_cell=p_cell,
            data_profile=data_profile,
            seed=seed,
            track_accumulation=track_accumulation,
            count_writeback_checks=count_writeback_checks,
        )
        self._write_error_model = WriteErrorModel(self._mtj)
        self._restore_expected_failures = 0.0
        self._restore_count = 0

    @classmethod
    def read_path_mode(cls) -> ReadPathMode:
        """Parallel access (the restores are an add-on to the data path)."""
        return ReadPathMode.PARALLEL

    @classmethod
    def scheme_name(cls) -> str:
        """Scheme name used in reports and figures."""
        return "restore"

    # -- scheme-specific behaviour ------------------------------------------------

    @property
    def restore_count(self) -> int:
        """Total line restores performed."""
        return self._restore_count

    @property
    def restore_expected_failures(self) -> float:
        """Expected failures contributed by restore write errors."""
        return self._restore_expected_failures

    @property
    def write_error_model(self):
        """The MTJ write-error model costing each restore."""
        return self._write_error_model

    def record_restore_array(self, failure_probabilities) -> None:
        """Record many line restores from a float array of probabilities.

        Energy is charged separately.  Counter totals match per-restore
        :meth:`_account_restore` accounting: one restore per probability,
        and the expected-failure accumulator reproduces the identical
        left-to-right additions via
        :func:`repro.reliability.binomial.sequential_float_sum`, so the
        structure-of-arrays kernel stays bit-identical to the per-restore
        loop.
        """
        from ..reliability.binomial import sequential_float_sum

        self._restore_expected_failures = sequential_float_sum(
            self._restore_expected_failures, failure_probabilities
        )
        self._restore_count += len(failure_probabilities)

    def record_restore_runs(
        self, failure_probabilities, counts, _chunk: int = 1 << 16
    ) -> None:
        """Record run-length-encoded line restores.

        Equivalent to :meth:`record_restore_array` over
        ``np.repeat(failure_probabilities, counts)`` — the identical
        left-to-right float additions, since a chunked sequential sum
        composes exactly — without ever materialising the expanded array.
        This is what lets the structure-of-arrays kernel collapse the
        restore scheme's per-(read, way) rewrite stream, whose expansion
        dominated its pass-2 allocations, into runs of equal probability.

        Args:
            failure_probabilities: Per-run write-failure probabilities.
            counts: Per-run repeat counts, aligned with the probabilities.
        """
        import numpy as np

        from ..reliability.binomial import sequential_float_sum

        acc = self._restore_expected_failures
        total = 0
        for probability, count in zip(
            np.asarray(failure_probabilities, dtype=float).tolist(),
            np.asarray(counts, dtype=np.int64).tolist(),
        ):
            if count <= 0:
                continue
            total += count
            remaining = count
            while remaining > 0:
                take = remaining if remaining < _chunk else _chunk
                acc = sequential_float_sum(acc, np.full(take, probability))
                remaining -= take
        self._restore_expected_failures = acc
        self._restore_count += total

    @property
    def expected_failures(self) -> float:
        """Read-path failures plus restore write-failure exposure."""
        return self._engine.expected_failures + self._restore_expected_failures

    def _deliver(self, block) -> DeliveryOutcome:
        """Deliveries see no accumulation because every read was restored."""
        return self._engine.on_conventional_delivery(block, tick=self._tick)

    def _apply_read_reliability(
        self, cache_set: CacheSet, hit_way: int | None, events: ReadPathEvents
    ) -> DeliveryOutcome | None:
        """Restore every way that the parallel access touched.

        The restore rewrites the sensed (correct) value, so instead of
        recording concealed reads we record checked-but-not-delivered reads
        (which reset the accumulation counters), charge the restore write
        energy, and accumulate the write-failure probability of rewriting the
        line's '1' cells.
        """
        outcome: DeliveryOutcome | None = None
        touched_ways = tuple(events.concealed_ways) + tuple(events.checked_ways)
        for way in touched_ways:
            block = cache_set.block(way)
            if hit_way is not None and way == hit_way:
                outcome = self._deliver(block)
            else:
                self._engine.on_scrub_read(block, tick=self._tick)
            self._account_restore(block)
        return outcome

    def _account_restore(self, block) -> None:
        self._restore_count += 1
        self._energy.record_scrub()
        self._restore_expected_failures += (
            self._write_error_model.block_write_failure_probability(block.ones_count)
        )
