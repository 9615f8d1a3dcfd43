"""Where the benchmark runs: the source tree, the host stamp, memory.

Records are compared only like with like, so each carries the commit,
a digest of the source it ran, and a host fingerprint built from the CPU
model, the CPU count and the Python and numpy versions.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run inputs, stores, records and spans (git-ignored).
WORK = ROOT / ".perfbench"


class SourceTreeMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path.

    The benchmark measures the source next to it, never an installed
    copy, so a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_stamp() -> dict:
    """CPU model, CPU count, Python and numpy versions, and their digest."""
    import numpy

    stamp = {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    canonical = "|".join(f"{key}={stamp[key]}" for key in sorted(stamp))
    stamp["fingerprint"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return stamp


def commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of every Python file under ``src`` (identifies the code
    measured even where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Largest RSS of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
