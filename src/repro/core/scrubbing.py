"""Patrol-scrubbing baseline: a conventional cache plus a background scrubber.

A natural alternative to REAP that keeps the single-decoder read path intact:
a patrol scrubber walks the cache in the background, reading one line at a
time through the ECC decoder and writing back the corrected value.  Scrubbing
*bounds* the accumulation window (a line can accumulate at most the number of
concealed reads that fit between two scrub visits) but does not eliminate it,
and the scrubber itself consumes read/decode energy proportional to its rate.

This scheme is an extension beyond the paper's own evaluation; it is used by
the ablation benches to show that even an aggressive scrubber sits between
the conventional cache and REAP on reliability while adding an energy cost
REAP does not pay.
"""

from __future__ import annotations

from ..config import CacheLevelConfig, MTJConfig, ReadPathMode
from ..errors import ConfigurationError
from .data_profile import DataValueProfile
from .engine import CONVENTIONAL, DeliveryOutcome
from .protected import ProtectedCache


class ScrubbingCache(ProtectedCache):
    """Conventional parallel-access cache with a round-robin patrol scrubber."""

    #: Deliveries pay for whatever accumulation survived between scrubs.
    delivery_kind = CONVENTIONAL

    def __init__(
        self,
        config: CacheLevelConfig,
        mtj: MTJConfig | None = None,
        p_cell: float | None = None,
        data_profile: DataValueProfile | None = None,
        seed: int = 1,
        track_accumulation: bool = True,
        count_writeback_checks: bool = False,
        scrub_lines_per_access: float = 1.0,
    ) -> None:
        """Create the scrubbing baseline.

        Args:
            scrub_lines_per_access: How many resident lines the patrol
                scrubber visits per demand access (fractional rates are
                accumulated; e.g. ``0.25`` scrubs one line every four
                accesses).  Higher rates bound accumulation more tightly but
                cost proportionally more read/decode energy.

        See :class:`ProtectedCache` for the remaining arguments.
        """
        if scrub_lines_per_access < 0:
            raise ConfigurationError("scrub_lines_per_access must be non-negative")
        super().__init__(
            config=config,
            mtj=mtj,
            p_cell=p_cell,
            data_profile=data_profile,
            seed=seed,
            track_accumulation=track_accumulation,
            count_writeback_checks=count_writeback_checks,
        )
        self._scrub_rate = scrub_lines_per_access
        self._scrub_credit = 0.0
        self._scrub_cursor = 0
        self._scrubbed_lines = 0

    @classmethod
    def read_path_mode(cls) -> ReadPathMode:
        """The demand path is the conventional parallel organisation."""
        return ReadPathMode.PARALLEL

    @classmethod
    def scheme_name(cls) -> str:
        """Scheme name used in reports and figures."""
        return "scrubbing"

    # -- scheme-specific behaviour ------------------------------------------------

    @property
    def scrub_rate(self) -> float:
        """Configured scrub rate in lines per demand access."""
        return self._scrub_rate

    @property
    def scrubbed_lines(self) -> int:
        """Total patrol-scrub visits performed."""
        return self._scrubbed_lines

    def export_scrub_state(self) -> tuple[float, int, int]:
        """Snapshot the patrol state as ``(credit, cursor, scrubbed_lines)``.

        Public hook for the batched engines in :mod:`repro.sim.fastpath` and
        :mod:`repro.sim.soa`, which advance the patrol scrubber inside their
        replay loops and hand the state back with :meth:`import_scrub_state`.
        """
        return self._scrub_credit, self._scrub_cursor, self._scrubbed_lines

    def patrol_walk_state(self) -> tuple[float, int, int, int]:
        """Everything an engine-side patrol replay needs to start walking.

        Returns:
            ``(credit, cursor, scrubbed_lines, total_frames)`` — the exported
            patrol state plus the frame count of the round-robin walk.  The
            credit arithmetic the replay must reproduce is exactly
            :meth:`_advance_scrubber`'s: add :attr:`scrub_rate` once per
            demand access, then visit (and decrement) while the credit is at
            least one line.
        """
        credit, cursor, scrubbed = self.export_scrub_state()
        return credit, cursor, scrubbed, self._cache.num_sets * self._cache.associativity

    def import_scrub_state(
        self, credit: float, cursor: int, scrubbed_lines: int
    ) -> None:
        """Restore a patrol-state snapshot taken by :meth:`export_scrub_state`.

        Raises:
            ConfigurationError: if any component is out of range.
        """
        total_frames = self._cache.num_sets * self._cache.associativity
        if credit < 0:
            raise ConfigurationError("scrub credit must be non-negative")
        if not 0 <= cursor < total_frames:
            raise ConfigurationError(f"scrub cursor {cursor} out of range")
        if scrubbed_lines < 0:
            raise ConfigurationError("scrubbed_lines must be non-negative")
        self._scrub_credit = credit
        self._scrub_cursor = cursor
        self._scrubbed_lines = scrubbed_lines

    def read(self, address: int) -> DeliveryOutcome | None:
        """Demand read followed by the patrol scrubber's share of work."""
        outcome = super().read(address)
        self._advance_scrubber()
        return outcome

    def write(self, address: int) -> None:
        """Demand write followed by the patrol scrubber's share of work."""
        super().write(address)
        self._advance_scrubber()

    # -- internals -----------------------------------------------------------------

    def _advance_scrubber(self) -> None:
        self._scrub_credit += self._scrub_rate
        while self._scrub_credit >= 1.0:
            self._scrub_credit -= 1.0
            self._scrub_one_line()

    def _scrub_one_line(self) -> None:
        """Visit the next resident line in set/way round-robin order."""
        total_frames = self._cache.num_sets * self._cache.associativity
        for _ in range(total_frames):
            frame = self._scrub_cursor
            self._scrub_cursor = (self._scrub_cursor + 1) % total_frames
            set_index, way = divmod(frame, self._cache.associativity)
            block = self._cache.cache_set(set_index).block(way)
            if block.valid:
                self._engine.on_scrub_read(block, tick=self._tick)
                self._energy.record_read_access(ways_read=1, ecc_decodes=1)
                self._scrubbed_lines += 1
                return
