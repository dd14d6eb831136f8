"""A record of the machine and software a run measured, read without side
effects: the BLAS thread variables are reported, never set."""

from __future__ import annotations

import ctypes
import importlib.metadata
import os
import platform
from pathlib import Path

import numpy as np

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cgroup_cpu_quota() -> float | None:
    """CPUs allowed by the cgroup quota, or None when there is no quota."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2:
        quota, _, period = v2.partition(" ")
        return None if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period and int(quota) > 0:
        return int(quota) / int(period)
    return None


def _blas() -> dict:
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # the thread count comes from the BLAS library numpy has loaded
    libs = [
        line.split()[-1]
        for line in (_read("/proc/self/maps") or "").splitlines()
        if "blas" in line.lower() and ".so" in line
    ]
    for lib_path in dict.fromkeys(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from its files."""
    git = root / ".git"
    head = _read(str(git / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(git / ref))
    if commit:
        return commit
    for line in (_read(str(git / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_record(root: Path) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cgroup_cpu_quota": _cgroup_cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(root),
    }
