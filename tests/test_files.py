"""Tests for the atomic file publishing helper."""

import os
from pathlib import Path

import pytest

from repro._files import publish


def test_publishes_through_a_unique_temp_file_fsynced_before_the_rename(
    tmp_path, monkeypatch
):
    target = tmp_path / "store.jsonl"
    target.write_text("old\n")
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    temps = []

    def write_to(tmp):
        temps.append(Path(tmp))
        Path(tmp).write_text("new\n")

    publish(target, write_to)
    (tmp,) = temps
    assert tmp.parent == tmp_path
    assert tmp.name.startswith("store.jsonl.") and tmp.name.endswith(".tmp")
    # The temp file itself is synced, and only then renamed over the target.
    inode = target.stat().st_ino
    assert calls == [("fsync", inode), ("replace", inode)]
    assert target.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [target]


def test_a_failing_write_removes_the_temp_file_and_keeps_the_old_one(tmp_path):
    target = tmp_path / "checkpoint.json"
    target.write_text("old")

    def write_to(tmp):
        Path(tmp).write_text("partial")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        publish(target, write_to)
    assert target.read_text() == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_a_failing_rename_removes_the_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        publish(tmp_path / "artifact", lambda tmp: Path(tmp).write_bytes(b"x"))
    assert list(tmp_path.iterdir()) == []
