"""Runtime-compiled native ANN kernel (optional, byte-identical, self-tested).

The pure-Python ANN hot loops spend most of their wall clock on per-step
numpy dispatch overhead (tiny fancy-index gathers, matvecs over a handful of
rows, heap bookkeeping), not on arithmetic. This module compiles
``repro/ann/_ann_kernel.c`` with the system C compiler at first use and runs
those loops natively — the HNSW insert/search traversals *and* the shared
CSR re-rank the LSH backend funnels through
(:func:`repro.ann.engine.rerank_csr`) — calling the *same* OpenBLAS
``cblas_sgemv`` / ``cblas_sdot`` routines numpy dispatches to, resolved by
``dlopen``-ing the shared library bundled inside the installed numpy itself,
so every distance comes out bit-for-bit identical to the numpy path.

Safety model: the kernel is only enabled after a load-time **self-test**
builds, extends and queries small HNSW *and* LSH indexes through both paths
(both metrics, probe-neighbour variants, duplicate rows, all-miss queries),
runs the radix dedup against ``np.unique``, and byte-compares the graphs
and results. Any environment where the toolchain, BLAS symbols, or
bit-identity assumptions do not hold silently falls back to the pure-Python
implementations — same outputs, just slower.
Set ``REPRO_NATIVE=0`` to force the fallback, ``REPRO_NATIVE=require`` to
make unavailability a hard error.

Two kernel variants exist: ``scalar`` (plain ``-O2``) and ``avx2``
(``-mavx2 -mfma -ffp-contract=off``, SkylakeX-exact SIMD micro-kernels for
the short-segment distance dispatch).  ``REPRO_NATIVE_VARIANT=auto`` (the
default) tries AVX2 when numpy's CPU probe reports AVX2+FMA3 and falls back
to scalar if the variant's own byte-identity self-test fails;
``scalar`` / ``avx2`` pin a variant explicitly.  Compiled objects are cached
keyed on (source digest, compiler, flags, cpu-feature set), so flag toggles
or cross-machine copies can never serve a stale or wrong-ISA binary.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import subprocess
import tempfile
import threading

_SOURCE = os.path.join(os.path.dirname(__file__), "_ann_kernel.c")

#: why the kernel is unavailable (diagnostics; None while undetermined/loaded)
disabled_reason: str | None = None

_kernel: "NativeKernel | None" = None
_loaded = False
_probing: "NativeKernel | None" = None  # handed to the self-test's re-entrant calls
_load_lock = threading.RLock()

_SYMBOL_PAIRS = (
    ("scipy_cblas_sgemv64_", "scipy_cblas_sdot64_"),
    ("cblas_sgemv64_", "cblas_sdot64_"),
)


class NativeKernel:
    """ctypes handle to the compiled kernel, with the BLAS pointers installed."""

    def __init__(self, lib: ctypes.CDLL, blas: ctypes.CDLL, variant: str = "scalar") -> None:
        self._lib = lib
        self._blas = blas  # keep the BLAS handle alive
        self.variant = variant
        i64, i32, vp = ctypes.c_int64, ctypes.c_int, ctypes.c_void_p
        pvp = ctypes.POINTER(vp)
        lib.ann_set_blas.argtypes = [vp, vp]
        lib.ann_set_blas.restype = None
        lib.ann_kernel_variant.argtypes = []
        lib.ann_kernel_variant.restype = i32
        lib.hnsw_build.argtypes = [
            vp, vp, i64, i32, i32, pvp, pvp, pvp, vp, i64, i64,
            vp, i64, i64, vp, vp, vp, vp,
        ]
        lib.hnsw_build.restype = i32
        lib.hnsw_query.argtypes = [
            vp, vp, i64, i32, i32, pvp, pvp, pvp, vp, i64, i64,
            vp, vp, i64, i64, i64, i64, i64, vp, vp,
        ]
        lib.hnsw_query.restype = i32
        lib.ann_rerank_csr.argtypes = [
            vp, vp, i64, i32, vp, vp, i64, vp, vp, i64, vp, vp,
        ]
        lib.ann_rerank_csr.restype = i32
        lib.ann_dedup_i64.argtypes = [vp, i64]
        lib.ann_dedup_i64.restype = i64
        self.build = lib.hnsw_build
        self.query = lib.hnsw_query
        self.rerank = lib.ann_rerank_csr
        self.dedup = lib.ann_dedup_i64
        if int(lib.ann_kernel_variant()) != (1 if variant == "avx2" else 0):
            raise OSError(f"compiled object does not match requested variant {variant!r}")

    @staticmethod
    def pointer_array(arrays: list) -> "ctypes.Array[ctypes.c_void_p]":
        """Pack per-layer numpy arrays into a C array of data pointers."""
        return (ctypes.c_void_p * len(arrays))(*[a.ctypes.data for a in arrays])


def _blas_library_candidates() -> list[str]:
    import numpy as np

    candidates: list[str] = []
    numpy_dir = os.path.dirname(np.__file__)
    for root in (
        os.path.join(os.path.dirname(numpy_dir), "numpy.libs"),
        os.path.join(numpy_dir, ".libs"),
    ):
        candidates.extend(sorted(glob.glob(os.path.join(root, "*openblas*.so*"))))
    try:  # scipy's bundled copy is the same build; acceptable fallback
        import scipy  # noqa: F401

        scipy_dir = os.path.dirname(scipy.__file__)
        for root in (
            os.path.join(os.path.dirname(scipy_dir), "scipy_openblas64", "lib"),
            os.path.join(os.path.dirname(scipy_dir), "scipy.libs"),
        ):
            candidates.extend(sorted(glob.glob(os.path.join(root, "*openblas*.so*"))))
    except ImportError:  # pragma: no cover - scipy is a hard dep of this repo
        pass
    return candidates


def _resolve_blas() -> tuple[ctypes.CDLL, int, int] | None:
    """dlopen numpy's bundled OpenBLAS and resolve ILP64 sgemv/sdot pointers."""
    for path in _blas_library_candidates():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sgemv_name, sdot_name in _SYMBOL_PAIRS:
            try:
                sgemv = ctypes.cast(getattr(lib, sgemv_name), ctypes.c_void_p).value
                sdot = ctypes.cast(getattr(lib, sdot_name), ctypes.c_void_p).value
            except AttributeError:
                continue
            if sgemv and sdot:
                return lib, sgemv, sdot
    return None


def _build_directory() -> str:
    """A writable, private directory for compiled kernels.

    Prefers the package directory; the fallback must NOT be a world-shared
    path with predictable filenames (another local user could pre-plant a
    malicious .so that ``ctypes.CDLL`` would load), so it is a per-user
    0o700 directory whose ownership and permissions are verified, with a
    fresh per-process ``mkdtemp`` as the last resort.
    """
    package_dir = os.path.join(os.path.dirname(_SOURCE), "_native_build")
    try:
        os.makedirs(package_dir, exist_ok=True)
        probe = os.path.join(package_dir, f".write-probe-{os.getpid()}")
        with open(probe, "w"):
            pass
        os.remove(probe)
        return package_dir
    except OSError:
        pass
    uid = getattr(os, "getuid", lambda: "user")()
    private_dir = os.path.join(tempfile.gettempdir(), f"repro-native-build-{uid}")
    try:
        os.makedirs(private_dir, mode=0o700, exist_ok=True)
        stat = os.stat(private_dir)
        owner_ok = not hasattr(os, "getuid") or stat.st_uid == os.getuid()
        if owner_ok and (stat.st_mode & 0o077) == 0:
            return private_dir
    except OSError:
        pass
    return tempfile.mkdtemp(prefix="repro-native-build-")  # 0o700, per process


#: per-variant compiler flags.  The AVX2 variant pins -ffp-contract=off so the
#: compiler cannot fuse the micro-kernels' scalar tails into FMAs — every FMA
#: in that build is an explicit intrinsic, matching OpenBLAS's code exactly.
_VARIANT_FLAGS: dict[str, tuple[str, ...]] = {
    "scalar": ("-O2",),
    "avx2": ("-O2", "-mavx2", "-mfma", "-ffp-contract=off", "-DANN_VARIANT_AVX2"),
}


def _cpu_features() -> dict:
    """numpy's runtime CPU-feature map (empty when the probe is unavailable)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        try:  # numpy 1.x layout
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return {}
    return dict(__cpu_features__)


def _cpu_supports_avx2() -> bool:
    features = _cpu_features()
    return bool(features.get("AVX2")) and bool(features.get("FMA3"))


def _compile_kernel(variant: str) -> ctypes.CDLL:
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    compiler = os.environ.get("CC", "gcc")
    flags = _VARIANT_FLAGS[variant]
    # Cache key = (source, compiler, flags, cpu-feature set): toggling
    # SIMD flags or moving a cached .so across machines can never
    # serve a stale or wrong-ISA kernel.
    enabled_features = sorted(name for name, on in _cpu_features().items() if on)
    hasher = hashlib.sha256(source)
    hasher.update(repr((compiler, flags, enabled_features)).encode())
    digest = hasher.hexdigest()[:16]
    build_dir = _build_directory()
    out_path = os.path.join(build_dir, f"ann_kernel-{variant}-{digest}.so")
    if not os.path.exists(out_path):
        tmp_path = f"{out_path}.{os.getpid()}.tmp"
        try:
            completed = subprocess.run(
                [compiler, *flags, "-shared", "-fPIC", "-o", tmp_path, _SOURCE, "-lm"],
                capture_output=True,
                text=True,
            )
            if completed.returncode != 0:
                stderr = (completed.stderr or "").strip()
                raise OSError(
                    f"{compiler} exited with status {completed.returncode}"
                    + (f": {stderr[-2000:]}" if stderr else "")
                )
            os.replace(tmp_path, out_path)  # atomic under concurrent loaders
        except BaseException:
            # A failed compile (or replace) must not strand the temp object
            # file next to the cache entry.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    return ctypes.CDLL(out_path)


def _hnsw_pair_error(vectors, queries, metric: str, split: int, ks=(1, 5),
                     label: str = "", **kwargs) -> str | None:
    """Byte-compare a python-path vs native-path HNSW build/extend/query pair."""
    import numpy as np

    from .hnsw import HNSWIndex

    tag = f"{metric}{label}"
    python_index = HNSWIndex(metric=metric, **kwargs)
    python_index._use_native = False
    python_index.build(vectors[:split]).extend(vectors[split:])
    native_index = HNSWIndex(metric=metric, **kwargs)
    native_index._use_native = True
    native_index.build(vectors[:split]).extend(vectors[split:])
    n = vectors.shape[0]
    if python_index._max_level != native_index._max_level or (
        python_index._entry_point != native_index._entry_point
    ):
        return f"{tag}: entry point diverged"
    for layer in range(python_index._max_level + 1):
        if not np.array_equal(
            python_index._layer_neighbors[layer][:n], native_index._layer_neighbors[layer][:n]
        ) or not np.array_equal(
            python_index._layer_dists[layer][:n], native_index._layer_dists[layer][:n]
        ) or list(python_index._layer_degrees[layer][:n]) != list(
            native_index._layer_degrees[layer][:n]
        ):
            return f"{tag}: graph layer {layer} diverged"
    for k in ks:
        p_idx, p_dist = python_index.query(queries, k)
        n_idx, n_dist = native_index.query(queries, k)
        if not np.array_equal(p_idx, n_idx) or p_dist.tobytes() != n_dist.tobytes():
            return f"{tag}: query (k={k}) diverged"
    return None


def _self_test() -> str | None:
    """Build/extend/query small indexes through both paths; return error or None."""
    import numpy as np

    from .lsh import LSHIndex

    rng = np.random.default_rng(1234)
    vectors = rng.normal(size=(160, 32)).astype(np.float32)
    vectors[17] = vectors[3]  # exercise exact ties
    queries = vectors[:30]
    base_kwargs = dict(max_degree=6, ef_construction=30, ef_search=20, seed=7)
    for metric in ("cosine", "euclidean"):
        error = _hnsw_pair_error(vectors, queries, metric, 120, **base_kwargs)
        if error is not None:
            return error
    # Dimension sweep beyond the main case: d=72 stays inside the AVX2
    # micro-kernel envelope (d % 4 == 0) at a different tail shape, d=37
    # exercises the d % 4 != 0 BLAS fall-through alongside the sdot path.
    extra_kwargs = dict(max_degree=5, ef_construction=24, ef_search=16, seed=3)
    for d, metric in ((72, "cosine"), (72, "euclidean"), (37, "cosine")):
        extra = rng.normal(size=(90, d)).astype(np.float32)
        error = _hnsw_pair_error(extra, extra[:10], metric, 70, ks=(1, 4),
                                 label=f" d={d}", **extra_kwargs)
        if error is not None:
            return error
    # LSH probe + re-rank: duplicate rows (exact distance ties), probe
    # variants, and far-away all-miss queries all byte-compare through the
    # shared CSR re-rank.
    lsh_queries = np.concatenate([vectors[:20], -100.0 * vectors[:4]])
    for metric in ("cosine", "euclidean"):
        for probe_neighbors in (True, False):
            index = LSHIndex(
                metric=metric, num_tables=3, num_bits=6,
                probe_neighbors=probe_neighbors, seed=11,
            ).build(vectors)
            index._use_native = False
            p_idx, p_dist = index.query(lsh_queries, 5)
            index._use_native = True
            n_idx, n_dist = index.query(lsh_queries, 5)
            if not np.array_equal(p_idx, n_idx) or p_dist.tobytes() != n_dist.tobytes():
                return f"{metric}: LSH re-rank (probe_neighbors={probe_neighbors}) diverged"
    # Radix dedup: the native sorted-unique must match numpy's on duplicate-
    # heavy, single-value, and large-key streams (all non-negative).
    from . import engine

    dedup_cases = [
        rng.integers(0, 40, size=257).astype(np.int64),
        np.zeros(31, dtype=np.int64),
        rng.integers(0, np.int64(2) ** 62, size=300, dtype=np.int64),
        np.array([5], dtype=np.int64),
    ]
    for case in dedup_cases:
        expected = np.unique(case)
        got = engine.dedup_sorted_keys(case.copy(), use_native=True)
        if not np.array_equal(got, expected):
            return "radix dedup diverged from sorted unique"
    return None


def kernel_variant() -> str | None:
    """Active kernel variant (``"scalar"`` / ``"avx2"``), or None when disabled.

    Cache keys that must distinguish compiled-kernel generations (e.g. the
    on-disk build cache) should use this tag rather than re-deriving CPU
    features themselves.
    """
    kernel = get_kernel()
    return None if kernel is None else kernel.variant


def get_kernel() -> NativeKernel | None:
    """Compiled + self-tested kernel, or ``None`` with :data:`disabled_reason` set.

    Thread-safe: the verified kernel is published only after the self-test
    passes, and concurrent first callers block on the load lock (re-entrant,
    because the self-test itself builds native-path indexes through here —
    those same-thread calls receive the probation kernel via ``_probing``).

    ``REPRO_NATIVE=require`` turns the silent fallback into a hard
    ``RuntimeError`` — use it in CI on toolchain-equipped runners so a
    compile or byte-identity regression fails loudly instead of quietly
    costing the native speedup.
    """
    kernel = _load_kernel()
    if kernel is None and os.environ.get("REPRO_NATIVE", "").lower() == "require":
        raise RuntimeError(f"native kernel required but unavailable: {disabled_reason}")
    return kernel


def _load_kernel() -> NativeKernel | None:
    global _kernel, _loaded, _probing, disabled_reason
    if _loaded:
        return _kernel
    with _load_lock:
        if _loaded:
            return _kernel
        if _probing is not None:  # re-entrant self-test call, same thread
            return _probing
        if os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false"):
            disabled_reason = "disabled via REPRO_NATIVE"
            _loaded = True
            return None
        resolved = _resolve_blas()
        if resolved is None:
            disabled_reason = "no ILP64 OpenBLAS with cblas_sgemv/cblas_sdot found"
            _loaded = True
            return None
        blas, sgemv, sdot = resolved
        requested = os.environ.get("REPRO_NATIVE_VARIANT", "auto").lower()
        if requested == "avx2":
            variants = ["avx2"]
        elif requested == "scalar":
            variants = ["scalar"]
        else:  # auto: try AVX2 where the CPU has it, honest-fallback to scalar
            variants = (["avx2"] if _cpu_supports_avx2() else []) + ["scalar"]
        errors: list[str] = []
        for variant in variants:
            try:
                lib = _compile_kernel(variant)
                kernel = NativeKernel(lib, blas, variant=variant)
                lib.ann_set_blas(sgemv, sdot)
            except Exception as error:  # toolchain, loader, or symbol failures
                errors.append(f"{variant}: kernel load failed: {error}")
                continue
            _probing = kernel
            try:
                error = _self_test()
            except Exception as exc:  # a crash counts as a failed self-test
                error = f"self-test raised {exc!r}"
            finally:
                _probing = None
            if error is not None:
                # A non-bit-equal variant is rejected, never served; the next
                # (scalar) variant gets its own compile + self-test pass.
                errors.append(f"{variant}: byte-identity self-test failed: {error}")
                continue
            disabled_reason = None
            _kernel = kernel
            _loaded = True
            return _kernel
        disabled_reason = "; ".join(errors) or "no kernel variant available"
        _loaded = True
        return None
