"""Sharded JSONL result store: one file per key prefix, concurrent-safe.

A :class:`ShardedResultStore` is a directory holding

* ``store.json`` — a tiny manifest (``{"schema": 1, "shard_width": 2}``)
  that marks the directory as a sharded store and fixes the prefix width;
* ``shard-<prefix>.jsonl`` — one append-only JSONL file per key prefix,
  holding exactly the records :class:`~repro.campaign.store.ResultStore`
  would hold, in the same canonical byte form.

Keys are SHA-256 content hashes, so prefix sharding spreads entries
uniformly; with the default width of 2 a store fans out over up to 256
files.  Sharding buys two things over the single-file store:

* **Concurrent writers.** Every append is a single ``O_APPEND`` write of a
  whole line, and writers of different jobs usually land on different
  files, so several campaign processes (or several coordinators on a
  shared filesystem) can fill one store simultaneously.  The manifest and
  compacted shards are published through :func:`repro._files.publish`
  (a unique temporary file per writer), so processes that create or
  compact one store at once all succeed; a compaction re-reads each shard
  under the append lock, so it keeps what other writers appended.
* **Cheap merging.** Two stores filled on different machines merge
  shard-by-shard (:func:`repro.campaign.tools.merge_stores`); after
  :meth:`compact`, equal stores are byte-identical file-by-file.

The store implements the exact :class:`ResultStore` interface, so every
campaign/report/CLI entry point accepts either interchangeably.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import CampaignError
from .hashing import canonical_json
from .spec import SCHEMA_VERSION
from .store import BaseResultStore, _compact_file, _write_lines, load_jsonl_records

#: Manifest file marking a directory as a sharded store.
MANIFEST_NAME = "store.json"

#: Coordinator checkpoint file kept beside the shards (not a shard itself:
#: the shard glob only matches ``shard-*.jsonl``).
CHECKPOINT_NAME = "coordinator-checkpoint.json"

#: Default number of leading key hex digits used as the shard name.
DEFAULT_SHARD_WIDTH = 2

_SHARD_PREFIX = "shard-"
_SHARD_SUFFIX = ".jsonl"


class ShardedResultStore(BaseResultStore):
    """Directory-of-shards JSONL store of completed campaign jobs.

    Args:
        path: Store directory; created (with parents and manifest) when it
            does not exist yet.
        shard_width: Number of leading key hex digits per shard file, fixed
            at creation time.  Reopening an existing store reads the width
            from its manifest; passing a conflicting explicit width raises.
    """

    def __init__(self, path: str | Path, shard_width: int | None = None) -> None:
        super().__init__()
        self._path = Path(path)
        if self._path.exists() and not self._path.is_dir():
            raise CampaignError(
                f"sharded store path {self._path} exists and is not a directory "
                "(use ResultStore for single-file stores)"
            )
        manifest_path = self._path / MANIFEST_NAME
        if manifest_path.exists():
            manifest = self._read_manifest(manifest_path)
            stored_width = manifest["shard_width"]
            if shard_width is not None and shard_width != stored_width:
                raise CampaignError(
                    f"store {self._path} was created with shard_width="
                    f"{stored_width}, cannot reopen with {shard_width}"
                )
            self._shard_width = stored_width
        else:
            if self._path.exists() and any(self._shard_files()):
                raise CampaignError(
                    f"{self._path} holds shard files but no {MANIFEST_NAME} "
                    "manifest; refusing to guess the shard width"
                )
            self._shard_width = (
                DEFAULT_SHARD_WIDTH if shard_width is None else shard_width
            )
            if not 1 <= self._shard_width <= 8:
                raise CampaignError("shard_width must be between 1 and 8")
            self._path.mkdir(parents=True, exist_ok=True)
            manifest = {"schema": SCHEMA_VERSION, "shard_width": self._shard_width}
            _write_lines(manifest_path, [canonical_json(manifest)])
        self._load()

    def _read_manifest(self, manifest_path: Path) -> dict:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        # ValueError covers bad UTF-8, bad JSON and over-long integers.
        except (OSError, ValueError, RecursionError) as exc:
            raise CampaignError(f"unreadable store manifest {manifest_path}: {exc}") from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema") != SCHEMA_VERSION
            or not isinstance(manifest.get("shard_width"), int)
        ):
            raise CampaignError(
                f"store manifest {manifest_path} is malformed or written by "
                "an incompatible version"
            )
        return manifest

    def _shard_files(self) -> list[Path]:
        return sorted(
            p
            for p in self._path.glob(f"{_SHARD_PREFIX}*{_SHARD_SUFFIX}")
            if p.is_file()
        )

    def _load(self) -> None:
        self._lines.clear()
        for shard in self._shard_files():
            load_jsonl_records(shard, self._lines)

    # -- layout ----------------------------------------------------------------

    @property
    def path(self) -> Path:
        """Store directory."""
        return self._path

    @property
    def checkpoint_path(self) -> Path:
        """Where a coordinator serving this store checkpoints its queue."""
        return self._path / CHECKPOINT_NAME

    @property
    def shard_width(self) -> int:
        """Number of leading key hex digits per shard."""
        return self._shard_width

    def shard_name(self, key: str) -> str:
        """Shard file name holding entries whose keys share ``key``'s prefix."""
        return f"{_SHARD_PREFIX}{key[: self._shard_width]}{_SHARD_SUFFIX}"

    def _shard_path(self, key: str) -> Path:
        return self._path / self.shard_name(key)

    def shard_paths(self) -> list[Path]:
        """Existing shard files, sorted by name."""
        return self._shard_files()

    # -- maintenance -----------------------------------------------------------

    def refresh(self) -> int:
        """Re-scan the shard files and return the number of new entries.

        Concurrent writers append entries this process has not seen;
        refreshing folds them in (the in-memory map is rebuilt, so repaired
        or compacted shards are also picked up).
        """
        before = len(self._lines)
        self._load()
        return len(self._lines) - before

    def compact(self) -> None:
        """Rewrite every shard with entries sorted by key.

        After compaction two stores with equal entries and equal shard
        width are byte-identical file-by-file — the comparison the
        distributed end-to-end test performs.
        """
        by_shard: dict[str, dict[str, str]] = {
            shard.name: {} for shard in self._shard_files()
        }
        for key, line in self._lines.items():
            by_shard.setdefault(self.shard_name(key), {})[key] = line
        merged: dict[str, str] = {}
        for name, lines in sorted(by_shard.items()):
            merged.update(_compact_file(self._path / name, lines, remove_empty=True))
        self._lines = merged
