"""Machine and environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git directly; the benchmark may run in
    an export that is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest(root: Path) -> str:
    """SHA-256 over the library sources, naming the code under test even
    where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas() -> dict:
    import numpy as np

    info = {"blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name", "unknown")}
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    libs = glob.glob(pattern)
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    get_config = getattr(lib, "scipy_openblas_get_config64_", None)
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get_config is not None:
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info["openblas_config"] = get_config().decode()
    if get_threads is not None:
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        info["openblas_threads"] = get_threads()
    return info


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **_openblas(),
        "executable": sys.executable,
    }
