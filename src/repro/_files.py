"""Atomic whole-file publishing: the one way the package rewrites a file."""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Callable


def publish(path: str | Path, write_to: Callable[[str], object]) -> None:
    """Replace ``path`` with the file ``write_to`` writes, atomically.

    ``write_to(tmp)`` must leave the complete new content at ``tmp``, a
    fresh ``mkstemp`` file in ``path``'s directory (``<name>.XXXX.tmp``), so
    racing publishers never share a temporary file.  The file is fsynced
    and renamed over ``path``: readers see the old file or the whole new
    one, never a partial write.  If anything raises, the temporary file is
    removed and the exception propagates.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        try:
            write_to(tmp)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
