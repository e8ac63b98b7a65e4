"""Serial (tag-first) cache: the alternative the paper rejects on performance.

Section IV lists two ways to avoid concealed reads; the first — "reading a
data line after completion of tag comparison operation" — eliminates the
speculative reads entirely but serialises the tag and data accesses, which
"removes the performance benefit of cache parallel access and significantly
increases the cache access time".  The scheme is included so experiments can
show that it matches REAP's reliability while paying the latency cost REAP
avoids.
"""

from __future__ import annotations

from ..config import ReadPathMode
from .engine import SERIAL
from .protected import ProtectedCache


class SerialAccessCache(ProtectedCache):
    """Tag-comparison-first cache with no speculative data reads."""

    #: Every delivery is a single, immediately-checked read (Eq. 2).
    delivery_kind = SERIAL

    @classmethod
    def read_path_mode(cls) -> ReadPathMode:
        """Serial access: only the hitting way is ever read."""
        return ReadPathMode.SERIAL

    @classmethod
    def scheme_name(cls) -> str:
        """Scheme name used in reports and figures."""
        return "serial"
