"""The environment record stored with every benchmark result."""

from __future__ import annotations

import ctypes
import importlib
import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Size of each cache level of cpu0, as the kernel reports it."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas(np) -> dict:
    """BLAS library numpy was built against and the thread count it runs
    with. The count comes from the loaded OpenBLAS itself when it is one,
    otherwise from the usual environment variables."""
    info = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["vendor"] = deps["blas"]["name"]
        info["version"] = deps["blas"].get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads64_", "openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                info["threads_from"] = symbol
                return info
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            info["threads"] = int(os.environ[var])
            info["threads_from"] = var
            break
    return info


def _numba_imports() -> bool:
    try:
        importlib.import_module("numba")
    except ImportError:
        return False
    return True


def record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "numba_imports": _numba_imports(),
        "igbs_numba_env": os.environ.get("IGBS_NUMBA"),
    }


if __name__ == "__main__":
    import json

    print(json.dumps(record(), indent=2, sort_keys=True))
