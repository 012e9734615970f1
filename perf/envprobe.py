"""Environment probe: the unit costs that travel with every result."""

from __future__ import annotations

import asyncio
import os
import platform
import statistics
import time
from pathlib import Path


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``/proc/mounts``)."""
    resolved = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8")
    except OSError:
        return fstype
    for line in mounts.splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, parts[2]
    return fstype


def fsync_probe_ms(data_dir: Path, writes: int = 200, size: int = 4096) -> float:
    """Median wall ms of one ``size``-byte append + fsync in ``data_dir``."""
    data_dir.mkdir(parents=True, exist_ok=True)
    path = data_dir / "fsync.probe"
    block = b"\0" * size
    samples = []
    try:
        with open(path, "ab") as out:
            for _ in range(writes):
                start = time.perf_counter()
                out.write(block)
                out.flush()
                os.fsync(out.fileno())
                samples.append(time.perf_counter() - start)
    finally:
        path.unlink(missing_ok=True)
    return statistics.median(samples) * 1e3


def sleep_overshoot_ms(sleeps: int = 50, duration: float = 0.001) -> float:
    """Median ms by which ``asyncio.sleep(duration)`` returns late: the
    quantum every scaled protocol timer is rounded up to."""

    async def measure() -> list[float]:
        loop = asyncio.get_running_loop()
        late = []
        for _ in range(sleeps):
            start = loop.time()
            await asyncio.sleep(duration)
            late.append(loop.time() - start - duration)
        return late

    return statistics.median(asyncio.run(measure())) * 1e3


def probe(data_dir: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "data_dir_fs": filesystem_of(data_dir),
        "storage.fsync_probe_ms": fsync_probe_ms(data_dir),
        "runtime.sleep_overshoot_ms": sleep_overshoot_ms(),
    }
