"""A single cache set: a small collection of ways with tag lookup."""

from __future__ import annotations

from ..errors import CacheError
from .block import CacheBlock


class CacheSet:
    """The blocks of one set of a set-associative cache."""

    def __init__(self, blocks: list[CacheBlock]) -> None:
        if not blocks:
            raise CacheError("a set needs at least one way")
        self._blocks = blocks

    @property
    def associativity(self) -> int:
        """Number of ways in the set."""
        return len(self._blocks)

    @property
    def blocks(self) -> list[CacheBlock]:
        """The blocks of the set, indexed by way."""
        return self._blocks

    def block(self, way: int) -> CacheBlock:
        """Return the block in the given way."""
        if not 0 <= way < len(self._blocks):
            raise CacheError(f"way {way} out of range")
        return self._blocks[way]

    def lookup(self, tag: int) -> int | None:
        """Return the way holding ``tag``, or ``None`` on a miss."""
        for way, block in enumerate(self._blocks):
            if block.matches(tag):
                return way
        return None

    def valid_ways(self) -> list[int]:
        """Ways currently holding valid blocks."""
        return [way for way, block in enumerate(self._blocks) if block.valid]

    def occupancy(self) -> int:
        """Number of valid blocks in the set."""
        return sum(1 for block in self._blocks if block.valid)

    def is_full(self) -> bool:
        """``True`` when every way holds a valid block."""
        return self.occupancy() == len(self._blocks)
