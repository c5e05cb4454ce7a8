"""Process bootstrap and the machine description recorded with every result.

`bootstrap()` must run before numpy is imported: it pins the BLAS and
OpenMP pools to one thread and puts the checkout's `src/` first on the
import path, so the benchmark always measures the source tree it sits in.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Seconds reference_task() takes on an uncontended core of the Xeon host
# the benchmark was tuned on; the end-to-end times are scaled to that speed.
REFERENCE_S = 0.007

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    pass


def bootstrap() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qembed" / "__init__.py").is_file():
        raise MissingSource(f"no qembed package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def reference_task() -> None:
    """Fixed work that shares no code with qembed: pure-Python arithmetic
    and dict stores, then small numpy ops on a 2-amplitude state, the two
    kinds of work a qembed sample-step is made of. How much longer it takes
    than REFERENCE_S shows how much other tenants slow this core."""
    import numpy as np

    total, table = 0, {}
    for i in range(40000):
        total += (i * 7) % 13
        table[i & 255] = total
    state = np.array([1.0 + 0j, 0j])
    gate = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    for _ in range(1000):
        state = gate @ state * np.exp(0.1j)
        float(np.abs(state[0]) ** 2)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        size = _read(f"{base}/index{index}/size")
        if level in ("2", "3") and kind in ("Unified", "Data") and size:
            sizes[f"L{level}"] = size
    return sizes


def describe() -> dict:
    """Hardware and software context; call after numpy is importable."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
