"""Whole-file replacement, the one way the package writes a file."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path, mode="w", **open_kwargs):
    """Open a sibling ``.tmp`` of ``path``, in a directory made if missing,
    and yield it for writing; when the block ends without error, rename it
    over ``path`` with ``os.replace``.

    A write that raises part way leaves the previous ``path`` whole, and the
    ``.tmp`` is removed whether or not the block succeeds. Nothing is flushed
    to disk (no ``fsync``): a write survives a crash of the process, not a
    power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
