"""Cross-job artifact cache for decoded traces.

Campaigns that sweep MTJ/ECC parameters over a fixed workload mix re-derive
the same expensive input in every job: the synthetic L2 trace is
regenerated record by record.  That derivation is a pure function of a
small recipe, so this module persists it once per worker machine in a
content-hash-keyed, mmap-backed cache.  It holds two kinds of trace, both
stored in the binary chunked trace format (:mod:`repro.workloads.streams`):

* **Generated L2 traces**, keyed by the generator's recipe (profile, L2
  address geometry, length, seed).
* **Binary mirrors of text trace files**, keyed by the file's identity, so
  a text trace is converted once per edit and every job replays the mirror.

A hit serves a zero-copy :class:`~repro.workloads.streams.BinaryTraceSource`,
which the engines replay through the segmented path that is bit-identical
to whole-trace replay, so results are byte-identical with the cache cold,
warm, or disabled.

Concurrency and failure semantics mirror the campaign result stores:
artifacts are published with :func:`repro._files.publish` (a unique
temporary file in the cache directory, fsynced and renamed into place), so
racing writers each leave a complete file and the last one wins (both
compute identical bytes for one key).  A truncated or corrupt artifact
reads as a miss and is recomputed (and rewritten, healing the entry); an
unwritable cache directory degrades to uncached operation with a single
deduplicated warning per directory.

The cache location is an operational knob — CLI ``--artifact-cache`` or the
``REPRO_ARTIFACT_CACHE`` environment variable — and never enters job
identity: :class:`~repro.campaign.spec.JobSpec` keys and experiment
settings are unchanged by it.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Any

from .._files import publish
from ..errors import TraceError
from ..telemetry import emit_counter
from .generator import generate_l2_trace
from .streams import BinaryTraceSource, BinaryTraceWriter, TraceSource

#: Environment override for the cache directory (CLI flags take precedence
#: where a flag exists; workers resolve the environment first so a machine
#: can force its own location or disable caching outright).
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"

#: Spellings that explicitly disable the cache.
_DISABLED = frozenset({"", "0", "off", "none", "disabled"})

#: Recipe schema version; bump when a key payload or artifact layout changes.
_SCHEMA = 1

#: Cache directories already warned about (unwritable → degrade once).
_warned_roots: set[str] = set()


def _reset_warned_roots() -> None:
    """Forget which cache directories have warned (test hook)."""
    _warned_roots.clear()


def _recipe_hash(payload: Any) -> str:
    # Lazy import: the campaign package imports the sim stack, which imports
    # this package — resolving at call time keeps module import acyclic
    # while reusing the one canonical hashing implementation.
    from ..campaign.hashing import content_hash

    return content_hash(payload)


def _emit(outcome: str, nbytes: int = 0) -> None:
    # The field is named ``artifact`` (not ``kind``) because emitted fields
    # merge into the event envelope, whose ``kind`` key is the event kind.
    emit_counter("cache.artifact", artifact="trace", outcome=outcome, bytes=nbytes)


class ArtifactCache:
    """A content-addressed on-disk cache of derived workload artifacts.

    Instances are cheap; every operation degrades to a miss (never an
    exception) when the underlying directory misbehaves, so a worker with a
    broken cache computes exactly what an uncached worker would.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache({str(self.root)!r})"

    @classmethod
    def resolve(
        cls, spec: "ArtifactCache | str | Path | None" = None
    ) -> "ArtifactCache | None":
        """Resolve a cache from an explicit spec or the environment.

        An explicit ``spec`` wins; otherwise ``REPRO_ARTIFACT_CACHE`` is
        consulted.  The disabling spellings (empty, ``0``, ``off``,
        ``none``, ``disabled``) return ``None`` so either channel can turn
        caching off explicitly.
        """
        if isinstance(spec, cls):
            return spec
        if spec is None:
            spec = os.environ.get(ARTIFACT_CACHE_ENV)
        if spec is None or str(spec).strip().lower() in _DISABLED:
            return None
        return cls(spec)

    # -- low-level storage ------------------------------------------------------

    def _publish(self, path: Path, write_to) -> bool:
        """Publish an artifact (:func:`repro._files.publish`); degrade
        (with one warning) on failure.

        Racing writers both succeed — artifact content is a pure function
        of the key, so whichever rename lands last publishes the same bytes.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            publish(path, write_to)
            return True
        except OSError as exc:
            self._warn_unwritable(exc)
            return False

    def _warn_unwritable(self, exc: Exception) -> None:
        root_key = str(self.root)
        if root_key in _warned_roots:
            return
        _warned_roots.add(root_key)
        warnings.warn(
            f"artifact cache at {root_key} is not writable ({exc}); "
            "continuing uncached",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- decoded L2 traces ------------------------------------------------------

    def trace_key(self, profile, config, num_accesses: int, seed: int) -> str:
        """Recipe key of a generated L2 trace.

        The key spans exactly the inputs :func:`generate_l2_trace` reads:
        the profile fields and the address geometry of the target L2.  ECC,
        MTJ and read-path settings are deliberately excluded, so sweeping
        them hits one shared trace artifact.
        """
        return _recipe_hash(
            {
                "schema": _SCHEMA,
                "kind": "l2-trace",
                "profile": asdict(profile),
                "geometry": {
                    "size_bytes": config.size_bytes,
                    "associativity": config.associativity,
                    "block_size_bytes": config.block_size_bytes,
                    "address_bits": config.address_bits,
                },
                "num_accesses": num_accesses,
                "seed": seed,
            }
        )

    def _trace_path(self, key: str) -> Path:
        return self.root / "traces" / f"{key}.reaptrc"

    def _open_trace(self, path: Path) -> BinaryTraceSource | None:
        try:
            if not path.is_file():
                _emit("miss")
                return None
            source = BinaryTraceSource(path)
        except (TraceError, OSError, ValueError):
            # Truncated or corrupt artifact: treat as a miss; the recompute
            # below rewrites (heals) the entry atomically.
            _emit("error")
            return None
        _emit("hit", nbytes=path.stat().st_size)
        return source

    def l2_trace(self, profile, config, num_accesses: int, seed: int):
        """A cached trace source for the recipe, generating on miss.

        Returns a :class:`BinaryTraceSource` on a hit (replayed through the
        bit-identical segmented path) or the freshly generated in-memory
        :class:`Trace` on a miss, after persisting it for the next job.
        """
        key = self.trace_key(profile, config, num_accesses, seed)
        path = self._trace_path(key)
        source = self._open_trace(path)
        if source is not None:
            return source
        trace = generate_l2_trace(profile, config, num_accesses, seed=seed)
        kinds, addresses = trace.decoded()

        def write_to(tmp: str) -> None:
            with BinaryTraceWriter(tmp, trace.name) as writer:
                writer.append(kinds, addresses)

        if self._publish(path, write_to):
            _emit("store", nbytes=path.stat().st_size)
        return trace

    def binary_text_trace(self, path: str | Path, source: TraceSource):
        """A binary-format mirror of a text trace file, converted once.

        Keyed by the file's identity (absolute path, size, mtime): editing
        the file invalidates the entry.  ``source`` is read only on a miss,
        to convert it.  On any cache failure the original ``source`` is
        returned unchanged.
        """
        try:
            stat = Path(path).stat()
            key = _recipe_hash(
                {
                    "schema": _SCHEMA,
                    "kind": "text-trace",
                    "path": str(Path(path).resolve()),
                    "size": stat.st_size,
                    "mtime_ns": stat.st_mtime_ns,
                }
            )
        except OSError:
            return source
        cache_path = self._trace_path(key)
        cached = self._open_trace(cache_path)
        if cached is not None:
            return cached

        def write_to(tmp: str) -> None:
            with BinaryTraceWriter(tmp, source.name) as writer:
                for kinds, addresses in source.segments():
                    writer.append(kinds, addresses)

        if not self._publish(cache_path, write_to):
            return source
        _emit("store", nbytes=cache_path.stat().st_size)
        # Opened uncounted: serving a fresh conversion is not a hit.
        with contextlib.suppress(TraceError, OSError, ValueError):
            return BinaryTraceSource(cache_path)
        return source
