"""What a result was measured on: machine, numpy/BLAS, native kernel state.

The native kernel variant and the dedup calibration verdict are per-process
choices that change which code path runs, so every result carries them.
"""

from __future__ import annotations

import os
import platform


def _cpuinfo() -> tuple[str, list[str]]:
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    return model, flags


def machine() -> dict:
    import numpy as np

    model, flags = _cpuinfo()
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags": " ".join(flags),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def ready() -> dict:
    """Import ``repro``, load + self-test the native kernel and run the dedup
    calibration: the lazy set-up a process pays before its first match."""
    from repro.ann import engine, native

    kernel = native.get_kernel()
    return {
        "native_loaded": kernel is not None,
        "native_variant": native.kernel_variant(),
        "native_disabled_reason": native.disabled_reason,
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE"),
        "dedup_native_preferred": bool(engine.dedup_native_preferred()),
    }
