"""Tests for the disruptive-read-and-restore baseline."""

from types import SimpleNamespace

import pytest

from repro.cache import AddressMapper
from repro.config import CacheLevelConfig
from repro.core import DataValueProfile, ProtectionScheme, build_protected_cache


def small_l2():
    return CacheLevelConfig(
        name="L2",
        size_bytes=64 * 1024,
        associativity=8,
        block_size_bytes=64,
        technology="stt-mram",
    )


def make(scheme):
    return build_protected_cache(
        scheme,
        small_l2(),
        p_cell=1e-8,
        data_profile=DataValueProfile.constant(100),
        seed=1,
    )


@pytest.fixture
def addresses():
    mapper = AddressMapper(small_l2())
    return mapper.compose(1, 3), mapper.compose(2, 3)


class TestRestoreBehaviour:
    def test_no_accumulation(self, addresses):
        victim, aggressor = addresses
        cache = make(ProtectionScheme.RESTORE)
        cache.read(victim)
        cache.read(aggressor)
        for _ in range(30):
            cache.read(aggressor)
        outcome = cache.read(victim)
        assert outcome.concealed_reads == 0

    def test_restores_are_counted(self, addresses):
        victim, aggressor = addresses
        cache = make(ProtectionScheme.RESTORE)
        cache.read(victim)
        cache.read(aggressor)
        cache.read(aggressor)
        assert cache.restore_count > 0

    def test_restore_write_failures_add_exposure(self, addresses):
        victim, aggressor = addresses
        cache = make(ProtectionScheme.RESTORE)
        cache.read(victim)
        for _ in range(50):
            cache.read(aggressor)
        assert cache.restore_expected_failures > 0
        assert cache.expected_failures >= cache.restore_expected_failures

    def test_restore_energy_far_exceeds_reap(self, addresses):
        """Restoring every way on every read burns STT-MRAM write energy that
        dwarfs REAP's extra decoder activations — the reason the paper rejects
        this mitigation family."""
        victim, aggressor = addresses
        restore = make(ProtectionScheme.RESTORE)
        reap = make(ProtectionScheme.REAP)
        for cache in (restore, reap):
            cache.read(victim)
            for _ in range(50):
                cache.read(aggressor)
        assert restore.energy.dynamic_pj > 2.0 * reap.energy.dynamic_pj

    def test_restore_read_reliability_not_worse_than_reap(self, addresses):
        """Both schemes eliminate read-disturbance accumulation.  Restore's
        read-path exposure is bounded by REAP's (whose Eq. (6) window also
        covers checked speculative reads); restore then adds write-failure
        exposure on top, tracked separately."""
        victim, aggressor = addresses
        restore = make(ProtectionScheme.RESTORE)
        reap = make(ProtectionScheme.REAP)
        for cache in (restore, reap):
            cache.read(victim)
            for _ in range(50):
                cache.read(aggressor)
            cache.read(victim)
        assert restore.engine.expected_failures <= reap.engine.expected_failures * (1 + 1e-9)


class TestRecordRestoreArray:
    def make_cache(self):
        return build_protected_cache(
            ProtectionScheme.RESTORE,
            small_l2(),
            p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
        )

    def test_matches_per_restore_accounting(self):
        import numpy as np

        ones_counts = (100, 90, 100, 7)
        per_restore = self.make_cache()
        for ones in ones_counts:
            per_restore._account_restore(SimpleNamespace(ones_count=ones))
        by_array = self.make_cache()
        by_array.record_restore_array(
            np.array(
                [
                    by_array.write_error_model.block_write_failure_probability(ones)
                    for ones in ones_counts
                ]
            )
        )
        assert by_array.restore_count == per_restore.restore_count == 4
        assert by_array.restore_expected_failures == per_restore.restore_expected_failures

    def test_empty_array_is_a_no_op(self):
        import numpy as np

        cache = self.make_cache()
        cache.record_restore_array(np.array([]))
        assert cache.restore_count == 0
        assert cache.restore_expected_failures == 0.0


class TestRecordRestoreRuns:
    """Run-length-encoded restore recording must match the expanded array."""

    def make_cache(self):
        return build_protected_cache(
            ProtectionScheme.RESTORE,
            small_l2(),
            p_cell=1e-8,
            data_profile=DataValueProfile.constant(100),
        )

    def test_matches_record_restore_array_over_repeat(self):
        import numpy as np

        probabilities = np.array([1e-9, 3e-9, 1e-9, 7e-10])
        counts = np.array([5, 1, 12, 3], dtype=np.int64)
        by_runs = self.make_cache()
        by_array = self.make_cache()
        by_runs.record_restore_runs(probabilities, counts)
        by_array.record_restore_array(np.repeat(probabilities, counts))
        assert by_runs.restore_count == by_array.restore_count == int(counts.sum())
        # Bit-identical, not approximately equal: the chunked sequential sum
        # must reproduce the identical left-to-right additions.
        assert by_runs.restore_expected_failures == by_array.restore_expected_failures

    def test_chunk_boundaries_do_not_change_the_sum(self):
        import numpy as np

        probabilities = np.array([2e-9, 5e-9])
        counts = np.array([10, 7], dtype=np.int64)
        reference = self.make_cache()
        reference.record_restore_runs(probabilities, counts)
        for chunk in (1, 3, 10, 16, 17, 1 << 16):
            cache = self.make_cache()
            cache.record_restore_runs(probabilities, counts, _chunk=chunk)
            assert cache.restore_count == reference.restore_count
            assert (
                cache.restore_expected_failures
                == reference.restore_expected_failures
            )

    def test_zero_and_negative_counts_are_skipped(self):
        import numpy as np

        cache = self.make_cache()
        cache.record_restore_runs(
            np.array([1e-9, 2e-9, 3e-9]), np.array([0, 4, -2], dtype=np.int64)
        )
        assert cache.restore_count == 4
        expected = self.make_cache()
        expected.record_restore_array(np.full(4, 2e-9))
        assert cache.restore_expected_failures == expected.restore_expected_failures

    def test_empty_runs_are_a_no_op(self):
        import numpy as np

        cache = self.make_cache()
        cache.record_restore_runs(np.zeros(0), np.zeros(0, dtype=np.int64))
        assert cache.restore_count == 0
        assert cache.restore_expected_failures == 0.0
