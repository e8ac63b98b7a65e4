"""L2-level trace generation from SPEC workload profiles.

The generator materialises a :class:`~repro.workloads.trace.Trace` of L2
reads and write-backs whose *per-set access sequences* reproduce the
behaviour a profile describes.  Concealed-read accumulation is entirely a
per-set phenomenon (every parallel access to a set adds one concealed read to
each other resident way), so the generator works set by set:

* **Stable sets** hold a handful of hot lines that are re-read constantly
  (small concealed-read counts) plus one or two cold lines that are re-read
  only after a log-normally distributed number of intervening set accesses —
  these produce the heavy tails of Fig. 3 and the large REAP gains of Fig. 5.
* **Churn sets** mix streaming misses (brand-new blocks) with short-distance
  re-reads, producing fills, evictions and small concealed-read counts.

Per-set streams are generated independently and then interleaved by a
weighted random merge; the interleaving does not change any per-set order, so
the reliability behaviour is exactly the union of the per-set behaviours
while the global trace still looks like a realistic mixed access stream.

The generator is columnar: each set's stream is a pair of NumPy columns (an
int8 kind code indexing :data:`~repro.workloads.trace.KIND_ORDER` and an
int64 tag), addresses are composed per set with one vectorised shift-or, and
the merged columns become a column-backed trace through
:meth:`Trace.from_columns` — no per-access :class:`TraceRecord` is built
unless a caller asks for ``trace.records``.  Stable-set hot-line runs draw
their write decisions in one batch between cold re-reads; a batch of ``n``
uniforms is the same stream as ``n`` scalar draws, so the RNG is consumed in
exactly the same order as a record-at-a-time loop would consume it, and
``Trace.content_hash()`` of every generated trace is pinned by a golden
table in the test suite.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..config import CacheLevelConfig
from ..errors import ConfigurationError, TraceError
from .spec_profiles import SPECWorkloadProfile
from .trace import KIND_ORDER, AccessKind, Trace

_READ = KIND_ORDER.index(AccessKind.L2_READ)
_WRITE = KIND_ORDER.index(AccessKind.L2_WRITE)


class _SetStreamBuilder:
    """Builds the ``(kind code, tag)`` columns of one cache set's stream."""

    def __init__(
        self,
        tag_bits: int,
        set_index: int,
        profile: SPECWorkloadProfile,
        rng: np.random.Generator,
    ) -> None:
        self._tag_bits = tag_bits
        self._max_tag = (1 << tag_bits) - 1
        self._set_index = set_index
        self._profile = profile
        self._rng = rng
        self._next_fresh_tag = 1  # tag 0 is reserved for hot/cold lines' base
        self._live_tags: set[int] = set()

    def _fresh_tag(self) -> int:
        """Next unused tag, skipping tags that are still live on wraparound.

        Tags 1..max_tag are issued round-robin; a tag registered through
        :meth:`_claim_tag` (hot/cold lines, churn reuse-window residents)
        is never re-issued while it is live, so very long streams cannot
        silently alias two distinct lines onto one address.
        """
        max_tag = self._max_tag
        if len(self._live_tags) >= max_tag:
            raise TraceError(
                f"tag space exhausted for set {self._set_index}: all {max_tag} "
                f"usable tags ({self._tag_bits} tag bits, tag 0 "
                "reserved) are live"
            )
        tag = self._next_fresh_tag
        while tag in self._live_tags:
            tag += 1
            if tag > max_tag:
                tag = 1
        self._next_fresh_tag = tag + 1
        if self._next_fresh_tag > max_tag:
            self._next_fresh_tag = 1
        return tag

    def _claim_tag(self) -> int:
        """Draw a fresh tag and keep it live (excluded from reuse)."""
        tag = self._fresh_tag()
        self._live_tags.add(tag)
        return tag

    def _release_tag(self, tag: int) -> None:
        self._live_tags.discard(tag)

    def stable_stream(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Stream for a stable set: hot re-reads plus scheduled cold re-reads.

        Sampled cold gaps are capped at half the per-set stream length so that
        short calibration runs still exercise the cold re-read mechanism; the
        observed concealed-read tail therefore grows with trace length, just
        as the paper's tails grow with the simulated instruction count.

        Returns the ``(kind code, tag)`` columns of the stream.
        """
        profile = self._profile
        gap_cap = max(length // 2, 1)
        hot_tags = [self._claim_tag() for _ in range(profile.hot_lines_per_set)]
        cold_tags = [self._claim_tag() for _ in range(profile.cold_lines_per_set)]
        # Install the resident lines up front so later accesses hit.
        resident = hot_tags + cold_tags
        size = max(length, len(resident))
        kinds = np.full(size, _READ, dtype=np.int8)
        tags = np.empty(size, dtype=np.int64)
        tags[: len(resident)] = resident
        position = len(resident)

        # Schedule the next re-read time (in set accesses) of each cold line.
        cold_next = [position + min(self._sample_gap(), gap_cap) for _ in cold_tags]

        hot_column = np.array(hot_tags, dtype=np.int64)
        hot_cursor = 0
        while position < length:
            due_at = min(cold_next, default=length)
            if due_at <= position:
                index = next(i for i, when in enumerate(cold_next) if when <= position)
                tags[position] = cold_tags[index]
                position += 1
                cold_next[index] = position + min(self._sample_gap(), gap_cap)
                continue
            # Hot lines, round-robin, until the next cold re-read falls due.
            end = min(due_at, length)
            run = end - position
            writes = self._rng.random(run) < profile.write_fraction
            kinds[position:end][writes] = _WRITE
            cursor = np.arange(hot_cursor, hot_cursor + run) % len(hot_tags)
            tags[position:end] = hot_column[cursor]
            hot_cursor += run
            position = end
        return kinds[:length], tags[:length]

    def churn_stream(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Stream for a churn set: streaming misses plus short-distance reuse.

        Returns the ``(kind code, tag)`` columns of the stream.
        """
        profile = self._profile
        random = self._rng.random
        integers = self._rng.integers
        write_fraction = profile.write_fraction
        miss_fraction = profile.churn_miss_fraction
        window_size = profile.churn_reuse_window
        # The reuse window, plus how many times each tag occurs in it.
        recent: deque[int] = deque()
        in_window: dict[int, int] = {}
        writes = [False] * length
        tags = [0] * length
        for position in range(length):
            writes[position] = random() < write_fraction
            if not recent or random() < miss_fraction:
                tag = self._claim_tag()
            else:
                # Same draw as ``rng.choice(recent)``.
                tag = recent[integers(len(recent))]
            tags[position] = tag
            recent.append(tag)
            in_window[tag] = in_window.get(tag, 0) + 1
            if len(recent) > window_size:
                expired = recent.popleft()
                remaining = in_window[expired] - 1
                if remaining:
                    in_window[expired] = remaining
                else:
                    del in_window[expired]
                    self._release_tag(expired)
        kinds = np.where(writes, _WRITE, _READ).astype(np.int8)
        return kinds, np.array(tags, dtype=np.int64)

    def _sample_gap(self) -> int:
        profile = self._profile
        if profile.cold_gap_sigma == 0.0:
            gap = profile.cold_gap_median
        else:
            gap = self._rng.lognormal(
                mean=np.log(profile.cold_gap_median), sigma=profile.cold_gap_sigma
            )
        return max(int(round(gap)), 1)


def generate_l2_trace(
    profile: SPECWorkloadProfile,
    config: CacheLevelConfig,
    num_accesses: int = 200_000,
    seed: int = 1,
) -> Trace:
    """Generate an L2-level trace for one SPEC-named profile.

    Args:
        profile: The workload profile.
        config: Geometry of the L2 the trace will drive (used to compose
            addresses that land in the intended sets).
        num_accesses: Total number of L2 accesses to generate.
        seed: Random seed; the same (profile, config, num_accesses, seed)
            always yields the same trace.

    Returns:
        A column-backed :class:`Trace` (see :meth:`Trace.from_columns`) of
        ``L2_READ`` / ``L2_WRITE`` accesses.

    Raises:
        TraceError: if ``num_accesses`` is not positive.
        ConfigurationError: if the profile needs more sets than the cache has.
    """
    if num_accesses <= 0:
        raise TraceError("num_accesses must be positive")
    total_sets_needed = profile.num_stable_sets + profile.num_churn_sets
    if total_sets_needed > config.num_sets:
        raise ConfigurationError(
            f"profile {profile.name!r} needs {total_sets_needed} sets but the cache "
            f"has only {config.num_sets}"
        )

    rng = np.random.default_rng(seed)
    chosen_sets = rng.choice(config.num_sets, size=total_sets_needed, replace=False)
    stable_sets = [int(s) for s in chosen_sets[: profile.num_stable_sets]]
    churn_sets = [int(s) for s in chosen_sets[profile.num_stable_sets :]]

    # Split the access budget between the stable and churn populations.
    stable_budget = int(round(num_accesses * profile.stable_traffic_share))
    churn_budget = num_accesses - stable_budget

    offset_bits = config.offset_bits
    tag_shift = offset_bits + config.index_bits
    tag_bits = config.tag_bits
    kind_streams: list[np.ndarray] = []
    address_streams: list[np.ndarray] = []
    for sets, budget, stable in (
        (stable_sets, stable_budget, True),
        (churn_sets, churn_budget, False),
    ):
        if not sets or budget <= 0:
            continue
        per_set = _split_budget(budget, len(sets), rng)
        for set_index, length in zip(sets, per_set):
            if length == 0:
                continue
            builder = _SetStreamBuilder(tag_bits, set_index, profile, rng)
            stream = builder.stable_stream if stable else builder.churn_stream
            kinds, tags = stream(length)
            kind_streams.append(kinds)
            address_streams.append((tags << tag_shift) | (set_index << offset_bits))

    kinds, addresses = _weighted_merge(kind_streams, address_streams, rng)
    return Trace.from_columns(profile.name, kinds, addresses)


def _split_budget(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Split ``total`` accesses roughly evenly over ``parts`` sets."""
    if parts <= 0:
        return []
    base = total // parts
    remainder = total - base * parts
    budgets = [base] * parts
    for index in rng.choice(parts, size=remainder, replace=False):
        budgets[int(index)] += 1
    return budgets


def _weighted_merge(
    kind_streams: list[np.ndarray],
    address_streams: list[np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly interleave several column streams, preserving each one's order.

    A uniformly random interleaving is drawn by shuffling the multiset of
    stream identifiers (one entry per access); the ``j``-th occurrence of a
    stream's identifier takes that stream's ``j``-th access.  A stable sort
    of the shuffled identifiers lists every stream's slots in order, which
    is exactly where the concatenated streams land.
    """
    lengths = [len(stream) for stream in kind_streams]
    order = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    rng.shuffle(order)
    slots = np.argsort(order, kind="stable")
    kinds = np.empty(len(order), dtype=np.int8)
    addresses = np.empty(len(order), dtype=np.int64)
    if lengths:
        kinds[slots] = np.concatenate(kind_streams)
        addresses[slots] = np.concatenate(address_streams)
    return kinds, addresses
