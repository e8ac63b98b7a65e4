"""REAP-cache: the paper's proposed scheme (Fig. 4).

REAP keeps the parallel (fast) access of the conventional cache but swaps the
MUX and the ECC decoder in the read path, replicating the decoder once per
way.  Every speculative way read is therefore ECC-checked and scrubbed the
moment it happens, so read disturbance can never accumulate across accesses:
a delivery after ``N`` reads behaves like ``N`` independently-checked single
reads (Eq. 6) instead of one check of ``N`` accumulated reads (Eq. 3).

The cost is ``k-1`` extra decoder activations per read access and ``k-1``
extra decoder instances — the <1% area and ~2.7% dynamic-energy overheads the
paper reports — while the access latency does not grow because decoding now
overlaps the tag comparison.
"""

from __future__ import annotations

from ..config import ReadPathMode
from .engine import REAP
from .protected import ProtectedCache


class REAPCache(ProtectedCache):
    """Read Error Accumulation Preventer cache (the paper's contribution)."""

    #: Demand deliveries span individually-checked reads only (Eq. 6).
    delivery_kind = REAP

    @classmethod
    def read_path_mode(cls) -> ReadPathMode:
        """Parallel access with one decoder per way, before the MUX."""
        return ReadPathMode.REAP

    @classmethod
    def scheme_name(cls) -> str:
        """Scheme name used in reports and figures."""
        return "reap"
