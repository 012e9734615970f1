"""Durable KV snapshot for live sites.

:class:`FileBackedStore` persists the *checkpointed* (durable) state of
a :class:`~repro.db.kv.KVStore` to a JSON file, mirroring what the
simulator models in memory: the volatile working state dies with the
process; the durable snapshot is what a restarted process reloads, and
local recovery (``repro.db.recovery``) rebuilds the working state from
that snapshot plus the stable log.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

from repro.errors import StorageError
from repro.db.kv import KVStore


class FileBackedStore(KVStore):
    """A KV store whose durable snapshot lives in a JSON file."""

    def __init__(self, path: Path | str, fsync: bool = True) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # A stale ``.tmp`` is the residue of a kill inside the
        # checkpoint's write-then-rename window (torn mid-write, or
        # complete but never renamed). Either way the checkpoint did
        # not happen: recovery must load exactly one snapshot — the
        # last renamed one — so the leftover is discarded here rather
        # than left to confuse a later restart or be half-overwritten
        # by the next checkpoint's kill window.
        stale_tmp = self._path.with_suffix(self._path.suffix + ".tmp")
        if stale_tmp.exists():
            stale_tmp.unlink()
        initial: Optional[dict[str, Any]] = None
        if self._path.exists():
            try:
                initial = json.loads(self._path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError) as exc:
                raise StorageError(f"cannot load store snapshot {self._path}: {exc}")
            if not isinstance(initial, dict):
                raise StorageError(
                    f"store snapshot {self._path} is not a JSON object"
                )
        super().__init__(initial)

    @property
    def path(self) -> Path:
        return self._path

    def checkpoint(self, state: dict[str, Any]) -> None:
        """Persist ``state`` durably (atomic tmp + rename + fsync).

        A ``state`` equal to the durable snapshot already on disk
        writes nothing: a sweep that follows no new commit costs no
        fsync.
        """
        if state == self._durable:
            return
        tmp_path = self._path.with_suffix(self._path.suffix + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            json.dump(state, tmp, sort_keys=True)
            tmp.flush()
            if self._fsync:
                os.fsync(tmp.fileno())
        os.replace(tmp_path, self._path)
        if self._fsync:
            dir_fd = os.open(self._path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        super().checkpoint(state)
