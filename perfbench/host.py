"""The host record printed with every result.

The benchmark runs on small shared machines, so every timing carries the
core count, the cache sizes and the load average around the run. All of it
is read from files; nothing is started.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
        elif level == "1" and kind == "Data" and size:
            caches["L1d"] = size
    return caches


def _git_commit(root: Path) -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code when git does not."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kernelbench").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def record(kb, seed: int, root: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_avg_start": os.getloadavg(),
        "clock_resolution_ms": kb.pipeline.clock_resolution_ms(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
