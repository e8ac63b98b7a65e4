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
the merged columns become the trace through :meth:`Trace.from_columns` —
no per-access :class:`TraceRecord` is built.  Stable-set hot-line runs draw
their write decisions in one batch between cold re-reads; a batch of ``n``
uniforms is the same stream as ``n`` scalar draws.

Churn sets are emulated, not looped.  :meth:`_SetStreamBuilder.churn_stream`
makes one ``random()`` or ``integers(n)`` call per draw; the churn sets of a
trace consume the generator back to back, so :func:`_churn_streams` draws
one block of raw PCG64 words for all of them (refilled every
:data:`_BLOCK_ACCESSES` accesses) and reproduces numpy's draws from it:

* ``random()`` is ``(word >> 11) * 2**-53``, so every word's write and miss
  flags come from one vectorised compare;
* ``integers(n)`` is Lemire's bounded draw over 32-bit halves (a word's low
  half, its high half buffered for the next 32-bit draw); a short
  Python-int walk (:func:`_walk_churn`) finds which words are which;
* a claim's tag is the next fresh tag, and a hit copies an earlier
  position's tag, found by pointer jumping.

The columns, the builders' tag state and the generator's state afterwards
are bit-identical to the loop's.  The loop still runs a stream whose fresh
tags could wrap (:func:`_emulable`), as on a 3-tag-bit geometry.
``Trace.content_hash()`` of every generated trace is pinned by a golden
table in the test suite.

numpy does not promise a stable stream across releases (NEP 19).
``tests/workloads/test_generator.py`` pins the emulated draws against the
installed numpy's ``Generator.random``/``integers`` and names the numpy
version when they differ.  A numpy that changes them would make the
emulation and the loop disagree, so the fix is one of two: pin numpy below
that release, or update the emulation to the new draws and rebuild the
golden tables, which changes every stored result and artifact key.
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

        This loop defines the stream; :func:`_churn_streams` reproduces it
        from raw words wherever :func:`_emulable` allows.

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
        populated = [(s, length) for s, length in zip(sets, per_set) if length]
        builders = [_SetStreamBuilder(tag_bits, s, profile, rng) for s, _ in populated]
        lengths = [length for _, length in populated]
        if stable:
            streams = [b.stable_stream(n) for b, n in zip(builders, lengths)]
        else:
            streams = _churn_streams(builders, lengths, rng)
        for (set_index, _), (kinds, tags) in zip(populated, streams):
            kind_streams.append(kinds)
            address_streams.append((tags << tag_shift) | (set_index << offset_bits))

    kinds, addresses = _weighted_merge(kind_streams, address_streams, rng)
    return Trace.from_columns(profile.name, kinds, addresses)


#: The double ``Generator.random()`` makes of a raw word's top 53 bits.
_DOUBLE_UNIT = 2.0**-53
_UINT32_MASK = 0xFFFFFFFF
#: Raw words a churn block draws beyond three per access, for Lemire
#: rejections (each has probability below ``n / 2**32``).
_BLOCK_SLACK = 64
#: Most churn accesses one raw block serves, so the block's memory stays
#: bounded on long traces.
_BLOCK_ACCESSES = 1 << 14


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random()`` makes of raw PCG64 words."""
    return (words >> np.uint64(11)) * _DOUBLE_UNIT


def _next_uint32(
    words: list[int], i: int, has_uint32: int, uinteger: int
) -> tuple[int, int, int, int]:
    """PCG64's 32-bit draw over raw words.

    It takes the buffered high half if there is one, else the low half of
    ``words[i]``, buffering its high half.  Returns the value, the next
    word index and the buffer left behind.
    """
    if has_uint32:
        return uinteger, i, 0, uinteger
    word = words[i]
    return word & _UINT32_MASK, i + 1, 1, word >> 32


def _lemire_redraw(
    n: int, m: int, words: list[int], i: int, has_uint32: int, uinteger: int
) -> tuple[int, int, int, int]:
    """Finish numpy's Lemire draw of ``integers(n)`` from its first product.

    ``integers(n)`` for ``2 <= n < 2**32`` takes ``m = u * n`` of a 32-bit
    draw ``u`` and returns ``m >> 32``; a draw whose leftover
    ``m mod 2**32`` is below ``(2**32 - n) % n`` is rejected and redrawn.
    Returns the accepted product, the next word index and the buffer.
    """
    threshold = ((1 << 32) - n) % n
    while m & _UINT32_MASK < threshold:
        u, i, has_uint32, uinteger = _next_uint32(words, i, has_uint32, uinteger)
        m = u * n
    return m, i, has_uint32, uinteger


def _walk_churn(
    words: list[int],
    misses: list[bool],
    lengths: list[int],
    window: int,
    has_uint32: int,
    uinteger: int,
) -> tuple[list[int], list[int], int, int, int]:
    """Replay the RNG calls of back-to-back churn streams over raw words.

    This is :meth:`_SetStreamBuilder.churn_stream`'s draw order.  Position
    0 of a stream draws one double, its write flag; its empty window always
    claims.  Every later position ``p`` draws its write double, then its
    miss double (``misses[i]``: word ``i`` read as a double is below the
    miss fraction), and a hit then draws ``integers(n)`` with
    ``n = min(p, window)``.

    Positions are numbered across all the streams.  Returns the position
    whose tag each position carries (itself for a claim), the position of
    each word taken by a 32-bit draw, then the words consumed and the uint32
    buffer left behind.  Raises ``IndexError`` if the words run out.
    """
    sources = list(range(sum(lengths)))
    drawn: list[int] = []
    i = 0
    first = 0
    for length in lengths:
        i += 1
        for g in range(first + 1, first + length):
            if misses[i + 1]:
                i += 2
                continue
            i += 2
            n = g - first
            if n > window:
                n = window
            if n == 1:
                sources[g] = g - 1
                continue
            if has_uint32:  # _next_uint32, inlined
                has_uint32 = 0
                u = uinteger
            else:
                word = words[i]
                i += 1
                drawn.append(g)
                u = word & _UINT32_MASK
                uinteger = word >> 32
                has_uint32 = 1
            m = u * n
            if m & _UINT32_MASK < n:
                before = i
                m, i, has_uint32, uinteger = _lemire_redraw(
                    n, m, words, i, has_uint32, uinteger
                )
                drawn += [g] * (i - before)
            sources[g] = g - n + (m >> 32)
        first += length
    return sources, drawn, i, has_uint32, uinteger


def _churn_streams(
    builders: list[_SetStreamBuilder], lengths: list[int], rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``builder.churn_stream(length)`` for each pair in turn, from raw blocks.

    The builders share one profile and draw from ``rng``, a PCG64
    generator as :func:`generate_l2_trace` makes.

    Consecutive streams that :func:`_emulable` admits are generated together
    by :func:`_emulate_churn` from one raw block (at most
    :data:`_BLOCK_ACCESSES` accesses each); any other stream runs the loop.
    Either way the columns, the builders' tag state and ``rng``'s state
    afterwards are those of the calls in turn.
    """
    streams: list[tuple[np.ndarray, np.ndarray]] = []
    start = 0
    while start < len(builders):
        stop, accesses = start, 0
        while (
            stop < len(builders)
            and _emulable(builders[stop], lengths[stop])
            and (stop == start or accesses + lengths[stop] <= _BLOCK_ACCESSES)
        ):
            accesses += lengths[stop]
            stop += 1
        if stop == start:
            streams.append(builders[start].churn_stream(lengths[start]))
            start += 1
        else:
            streams += _emulate_churn(builders[start:stop], lengths[start:stop], rng)
            start = stop
    return streams


def _emulable(builder: _SetStreamBuilder, length: int) -> bool:
    """Whether a churn stream's fresh tags are simply the next ``length`` ones.

    That holds when no tag is live and the counter cannot wrap to skip one.
    The emulation also needs a window that numpy bounds by Lemire's 32-bit
    draw.
    """
    return (
        not builder._live_tags
        and 0 < length <= builder._max_tag - builder._next_fresh_tag
        and builder._profile.churn_reuse_window <= _UINT32_MASK
    )


def _emulate_churn(
    builders: list[_SetStreamBuilder], lengths: list[int], rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Back-to-back churn streams from one raw block, bit-identical to the loop.

    The write and miss flags of every word come from one vectorised compare;
    :func:`_walk_churn` finds which words are which.  A claim's tag is the
    builder's next fresh tag plus its rank among the stream's claims, and a
    hit copies the tag of an earlier position, so pointer jumping from each
    hit to the claim it copies resolves every tag.  The bit generator is
    then put where the calls in turn would leave it.
    """
    profile = builders[0]._profile
    window = profile.churn_reuse_window
    bit_generator = rng.bit_generator
    entry = bit_generator.state
    words = bit_generator.random_raw(3 * sum(lengths) + _BLOCK_SLACK)
    uniforms = _uniforms(words)
    bit_generator.state = entry
    try:
        sources, drawn, consumed, has_uint32, uinteger = _walk_churn(
            words.tolist(),
            (uniforms < profile.churn_miss_fraction).tolist(),
            lengths,
            window,
            entry["has_uint32"],
            entry["uinteger"],
        )
    except IndexError:  # rejections outran the slack: replay through the loop
        return [b.churn_stream(n) for b, n in zip(builders, lengths)]
    bit_generator.advance(consumed)
    state = bit_generator.state
    state.update(has_uint32=has_uint32, uinteger=uinteger)
    bit_generator.state = state

    # A position's first word is its write draw: words before it are one
    # per stream start, two per later position, plus the 32-bit draws'.
    ends = np.cumsum(lengths)
    starts = ends - lengths
    taken = np.full(len(sources), 2, dtype=np.int64)
    taken[starts] = 1
    taken += np.bincount(np.array(drawn, dtype=np.int64), minlength=len(sources))
    write_words = np.cumsum(taken) - taken
    writes = (uniforms < profile.write_fraction)[write_words]
    kinds = np.where(writes, _WRITE, _READ).astype(np.int8)
    parents = np.array(sources, dtype=np.int64)
    claims = parents == np.arange(len(parents))
    while True:
        jumped = parents[parents]
        if np.array_equal(jumped, parents):
            break
        parents = jumped
    ranks = np.cumsum(claims)  # position 0 of every stream is a claim
    first_tags = np.array([b._next_fresh_tag for b in builders], dtype=np.int64)
    offsets = first_tags - ranks[starts]
    tags = (ranks + np.repeat(offsets, lengths))[parents]

    streams = []
    for builder, start, end, offset in zip(builders, starts, ends, offsets):
        stream_tags = tags[start:end]
        builder._next_fresh_tag = int(ranks[end - 1] + offset) + 1
        builder._live_tags = set(stream_tags[-window:].tolist())
        streams.append((kinds[start:end], stream_tags))
    return streams


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
