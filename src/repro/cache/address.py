"""Physical-address decomposition into tag / set-index / block-offset fields.

This mirrors step 1 of the paper's Fig. 2 / Fig. 4 read sequence: the index
part of the incoming address selects the target set, the tag part is compared
against the stored tags of all ways, and the offset selects bytes within the
block (the offset plays no role in the reliability model but is preserved for
completeness and for trace round-tripping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CacheLevelConfig
from ..errors import AddressError


@dataclass(frozen=True)
class DecomposedAddress:
    """An address split into its cache-indexing fields.

    Attributes:
        tag: Tag field (upper address bits).
        index: Set index.
        offset: Byte offset within the block.
        block_address: The address with the offset bits cleared.
    """

    tag: int
    index: int
    offset: int
    block_address: int


@dataclass(frozen=True)
class DecomposedAddressBatch:
    """Many addresses split into their cache-indexing fields, as arrays.

    Attributes:
        tags: Tag field of each address.
        indices: Set index of each address.
        offsets: Byte offset of each address.
        block_addresses: Each address with the offset bits cleared.
    """

    tags: np.ndarray
    indices: np.ndarray
    offsets: np.ndarray
    block_addresses: np.ndarray

    def __len__(self) -> int:
        return len(self.tags)


class AddressMapper:
    """Maps physical addresses to (tag, index, offset) for one cache level."""

    def __init__(self, config: CacheLevelConfig) -> None:
        """Create a mapper for the given cache geometry."""
        self._config = config
        self._offset_bits = config.offset_bits
        self._index_bits = config.index_bits
        self._offset_mask = (1 << self._offset_bits) - 1
        self._index_mask = (1 << self._index_bits) - 1
        self._tag_limit = 1 << config.tag_bits
        self._num_sets = config.num_sets
        self._max_address = (1 << config.address_bits) - 1

    @property
    def config(self) -> CacheLevelConfig:
        """The cache geometry this mapper serves."""
        return self._config

    @property
    def num_sets(self) -> int:
        """Number of sets addressable by the index field."""
        return self._num_sets

    def decompose(self, address: int) -> DecomposedAddress:
        """Split an address into tag / index / offset.

        Args:
            address: Physical byte address.

        Raises:
            AddressError: if the address is negative or wider than the
                configured address width.
        """
        if address < 0:
            raise AddressError(f"address must be non-negative, got {address}")
        if address > self._max_address:
            raise AddressError(
                f"address {address:#x} exceeds the {self._config.address_bits}-bit "
                "address space"
            )
        offset = address & self._offset_mask
        index = (address >> self._offset_bits) & self._index_mask
        tag = address >> (self._offset_bits + self._index_bits)
        block_address = address & ~self._offset_mask
        return DecomposedAddress(
            tag=tag, index=index, offset=offset, block_address=block_address
        )

    def decompose_batch(self, addresses) -> DecomposedAddressBatch:
        """Split many addresses into tag / index / offset arrays at once.

        Accepts any integer sequence or array; all field extractions are
        vectorised, and each output entry equals the corresponding
        :meth:`decompose` result field-for-field.

        Raises:
            AddressError: if any address is negative or wider than the
                configured address width (checked before any extraction, so
                the batch either fully decomposes or fails as a whole).
        """
        try:
            array = np.asarray(addresses, dtype=np.int64)
        except OverflowError as exc:
            raise AddressError(
                f"address exceeds the {self._config.address_bits}-bit address space"
            ) from exc
        if array.size:
            lowest = int(array.min())
            if lowest < 0:
                raise AddressError(f"address must be non-negative, got {lowest}")
            highest = int(array.max())
            if highest > self._max_address:
                raise AddressError(
                    f"address {highest:#x} exceeds the "
                    f"{self._config.address_bits}-bit address space"
                )
        offsets = array & self._offset_mask
        indices = (array >> self._offset_bits) & self._index_mask
        tags = array >> (self._offset_bits + self._index_bits)
        block_addresses = array & ~np.int64(self._offset_mask)
        return DecomposedAddressBatch(
            tags=tags, indices=indices, offsets=offsets, block_addresses=block_addresses
        )

    def compose(self, tag: int, index: int, offset: int = 0) -> int:
        """Rebuild a physical address from its fields.

        Raises:
            AddressError: if any field is out of range for the geometry.
        """
        if tag < 0 or tag >= self._tag_limit:
            raise AddressError(f"tag {tag} out of range")
        if index < 0 or index >= self._num_sets:
            raise AddressError(f"index {index} out of range")
        if offset < 0 or offset > self._offset_mask:
            raise AddressError(f"offset {offset} out of range")
        return (
            (tag << (self._offset_bits + self._index_bits))
            | (index << self._offset_bits)
            | offset
        )

    def block_address(self, address: int) -> int:
        """Return the address of the block containing ``address``."""
        return self.decompose(address).block_address

    def set_index(self, address: int) -> int:
        """Return the set index selected by ``address``."""
        return self.decompose(address).index
