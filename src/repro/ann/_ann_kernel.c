/* Native ANN kernel: HNSW insert/search loops plus the shared exact
 * re-rank used by the LSH backend.
 *
 * This file is compiled at runtime by repro/ann/native.py (plain `gcc -O2
 * -shared -fPIC`, no build system) and drives the same algorithms as the
 * pure-Python indexes — bit for bit.  The byte-identity argument:
 *
 *  - Every distance evaluation calls the *same* OpenBLAS routines the numpy
 *    path calls, through function pointers resolved from numpy's own bundled
 *    shared library: `cblas_sgemv` (row-major, NoTrans) for >= 2 rows and
 *    `cblas_sdot` for a single row, mirroring numpy's dispatch for
 *    `(k, d) @ (d,)`.  The surrounding float32 arithmetic (1 - sim, clip,
 *    q² + n² - 2p, sqrt) is a fixed sequence of individually-rounded IEEE
 *    ops identical to the numpy ufunc chain.
 *  - The best-first search pops candidates in a strict total order
 *    ((distance, node) lexicographic — node ids are unique), so heap
 *    *content* after any push/pop sequence is implementation-independent;
 *    Python's heapq and the binary heap below produce identical result sets.
 *  - Neighbour selection sorts by the same strict total order, and the
 *    overflow prune replicates `np.argsort(kind="stable")` with a stable
 *    insertion sort.
 *  - The CSR re-rank (`ann_rerank_csr`) selects top-k per query segment in
 *    ascending (distance, segment position) order, NaN distances last —
 *    candidate positions are unique and the comparator classifies NaN
 *    explicitly, so it is a strict total order (no qsort UB on NaN) and the
 *    result matches `np.argsort(dists, kind="stable")[:k]` exactly,
 *    including numpy's NaN-last placement.
 *
 * The Python wrapper verifies all of this empirically at load time (build +
 * query + re-rank byte-comparison against the pure-Python paths) and refuses
 * to enable the kernel otherwise; `tests/ann/` re-checks it on every run.
 *
 * ANN_VARIANT_AVX2 (same contract): compiled as a second shared object with
 * `-mavx2 -mfma -ffp-contract=off`; the short-segment sgemv/sdot BLAS calls
 * are replaced by micro-kernels replicating the exact FMA and reduction order
 * of OpenBLAS's SkylakeX kernels (bit-equal, gated by the load-time
 * self-test; shapes outside the verified envelope fall through to the BLAS
 * function pointers).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef ANN_VARIANT_AVX2
#include <immintrin.h>
#endif

typedef int64_t blasint;

/* CBLAS constants (values fixed by the CBLAS standard). */
#define CBLAS_ROW_MAJOR 101
#define CBLAS_NO_TRANS 111

typedef void (*sgemv_fn_t)(int order, int trans, blasint m, blasint n, float alpha,
                           const float *a, blasint lda, const float *x, blasint incx,
                           float beta, float *y, blasint incy);
typedef float (*sdot_fn_t)(blasint n, const float *x, blasint incx, const float *y,
                           blasint incy);

static sgemv_fn_t sgemv_fn = 0;
static sdot_fn_t sdot_fn = 0;

void ann_set_blas(void *sgemv_ptr, void *sdot_ptr) {
    sgemv_fn = (sgemv_fn_t)sgemv_ptr;
    sdot_fn = (sdot_fn_t)sdot_ptr;
}

/* 0 = scalar build, 1 = AVX2 build — lets the loader tag caches honestly. */
int ann_kernel_variant(void) {
#ifdef ANN_VARIANT_AVX2
    return 1;
#else
    return 0;
#endif
}

#ifdef ANN_VARIANT_AVX2
/* ------------------------------------------------- AVX2 micro-kernels
 *
 * Bit-exact emulations of OpenBLAS's SkylakeX `sdot_k` / `sgemv_t` kernels
 * (inc == 1, row-major, alpha == 1, beta == 0), derived from disassembly of
 * numpy's bundled libscipy_openblas64_.  They exist to skip the BLAS call
 * overhead on the short gather segments this kernel feeds; the dispatch in
 * `base_row_distances` only uses them inside the envelope the emulation was
 * verified on and falls back to the real BLAS pointers elsewhere.  This
 * translation unit is compiled with `-ffp-contract=off` so the compiler
 * cannot fuse the scalar tail ops — every FMA below is explicit. */

static float sdot_sky(int64_t n, const float *x, const float *y) {
    int64_t n1 = n & ~(int64_t)31;
    double sum1 = 0.0;
    if (n1) {
        __m256 al0 = _mm256_setzero_ps(), ah0 = _mm256_setzero_ps();
        __m256 al1 = _mm256_setzero_ps(), ah1 = _mm256_setzero_ps();
        __m256 al2 = _mm256_setzero_ps(), ah2 = _mm256_setzero_ps();
        __m256 al3 = _mm256_setzero_ps(), ah3 = _mm256_setzero_ps();
        int64_t i = 0;
        int64_t n64 = n & ~(int64_t)63;
        for (; i < n64; i += 64) {
            al0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), al0);
            ah0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8), _mm256_loadu_ps(y + i + 8), ah0);
            al1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16), _mm256_loadu_ps(y + i + 16), al1);
            ah1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24), _mm256_loadu_ps(y + i + 24), ah1);
            al2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 32), _mm256_loadu_ps(y + i + 32), al2);
            ah2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 40), _mm256_loadu_ps(y + i + 40), ah2);
            al3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 48), _mm256_loadu_ps(y + i + 48), al3);
            ah3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 56), _mm256_loadu_ps(y + i + 56), ah3);
        }
        /* zmm -> ymm fold: lane j + lane j+8 */
        __m256 v0 = _mm256_add_ps(al0, ah0);
        __m256 v1 = _mm256_add_ps(al1, ah1);
        __m256 v2 = _mm256_add_ps(al2, ah2);
        __m256 v3 = _mm256_add_ps(al3, ah3);
        /* one optional 32-wide chunk continuing in the folded accumulators */
        for (; i < n1; i += 32) {
            v0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), v0);
            v1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8), _mm256_loadu_ps(y + i + 8), v1);
            v2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16), _mm256_loadu_ps(y + i + 16), v2);
            v3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24), _mm256_loadu_ps(y + i + 24), v3);
        }
        __m256 s = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(v0, v1), v2), v3);
        __m128 t = _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1));
        t = _mm_hadd_ps(t, t);
        t = _mm_hadd_ps(t, t);
        sum1 = (double)_mm_cvtss_f32(t);
    }
    double sum0 = 0.0;
    for (int64_t i = n1; i < n; i++) {
        float p = x[i] * y[i];
        sum0 += (double)p;
    }
    return (float)(sum1 + sum0);
}

static void kernel_4x4(int64_t n, const float *a0, const float *a1,
                       const float *a2, const float *a3, const float *x,
                       float *yb) {
    __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
    int64_t i = 0, rem = n;
    if (rem & 4) {
        __m128 xv = _mm_loadu_ps(x + i);
        c0 = _mm256_insertf128_ps(c0, _mm_fmadd_ps(_mm_loadu_ps(a0 + i), xv, _mm256_castps256_ps128(c0)), 0);
        c1 = _mm256_insertf128_ps(c1, _mm_fmadd_ps(_mm_loadu_ps(a1 + i), xv, _mm256_castps256_ps128(c1)), 0);
        c2 = _mm256_insertf128_ps(c2, _mm_fmadd_ps(_mm_loadu_ps(a2 + i), xv, _mm256_castps256_ps128(c2)), 0);
        c3 = _mm256_insertf128_ps(c3, _mm_fmadd_ps(_mm_loadu_ps(a3 + i), xv, _mm256_castps256_ps128(c3)), 0);
        i += 4; rem -= 4;
    }
    if (rem & 8) {
        __m256 xv = _mm256_loadu_ps(x + i);
        c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + i), xv, c0);
        c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + i), xv, c1);
        c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + i), xv, c2);
        c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + i), xv, c3);
        i += 8; rem -= 8;
    }
    while (rem) {
        __m256 xlo = _mm256_loadu_ps(x + i);
        __m256 xhi = _mm256_loadu_ps(x + i + 8);
        c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + i), xlo, c0);
        c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + i + 8), xhi, c0);
        c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + i), xlo, c1);
        c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + i + 8), xhi, c1);
        c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + i), xlo, c2);
        c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + i + 8), xhi, c2);
        c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + i), xlo, c3);
        c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + i + 8), xhi, c3);
        i += 16; rem -= 16;
    }
    __m128 t0 = _mm_add_ps(_mm256_extractf128_ps(c0, 1), _mm256_castps256_ps128(c0));
    __m128 t1 = _mm_add_ps(_mm256_extractf128_ps(c1, 1), _mm256_castps256_ps128(c1));
    __m128 t2 = _mm_add_ps(_mm256_extractf128_ps(c2, 1), _mm256_castps256_ps128(c2));
    __m128 t3 = _mm_add_ps(_mm256_extractf128_ps(c3, 1), _mm256_castps256_ps128(c3));
    t0 = _mm_hadd_ps(t0, t0); t0 = _mm_hadd_ps(t0, t0);
    t1 = _mm_hadd_ps(t1, t1); t1 = _mm_hadd_ps(t1, t1);
    t2 = _mm_hadd_ps(t2, t2); t2 = _mm_hadd_ps(t2, t2);
    t3 = _mm_hadd_ps(t3, t3); t3 = _mm_hadd_ps(t3, t3);
    yb[0] = _mm_cvtss_f32(t0);
    yb[1] = _mm_cvtss_f32(t1);
    yb[2] = _mm_cvtss_f32(t2);
    yb[3] = _mm_cvtss_f32(t3);
}

static void kernel_4x2(int64_t n, const float *a0, const float *a1,
                       const float *x, float *yb) {
    __m128 c0 = _mm_setzero_ps(), c1 = _mm_setzero_ps();
    int64_t i = 0, rem = n;
    if (rem & 4) {
        __m128 xv = _mm_loadu_ps(x + i);
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_loadu_ps(a0 + i), xv));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_loadu_ps(a1 + i), xv));
        i += 4; rem -= 4;
    }
    while (rem) {
        __m128 xv0 = _mm_loadu_ps(x + i);
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_loadu_ps(a0 + i), xv0));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_loadu_ps(a1 + i), xv0));
        __m128 xv1 = _mm_loadu_ps(x + i + 4);
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_loadu_ps(a0 + i + 4), xv1));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_loadu_ps(a1 + i + 4), xv1));
        i += 8; rem -= 8;
    }
    c0 = _mm_hadd_ps(c0, c0); c0 = _mm_hadd_ps(c0, c0);
    c1 = _mm_hadd_ps(c1, c1); c1 = _mm_hadd_ps(c1, c1);
    yb[0] = _mm_cvtss_f32(c0);
    yb[1] = _mm_cvtss_f32(c1);
}

static void kernel_4x1(int64_t n, const float *a, const float *x, float *yb) {
    __m128 ce = _mm_setzero_ps(), co = _mm_setzero_ps();
    int64_t i = 0, rem = n;
    if (rem & 4) {
        ce = _mm_add_ps(ce, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(x + i)));
        i += 4; rem -= 4;
    }
    while (rem) {
        ce = _mm_add_ps(ce, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(x + i)));
        co = _mm_add_ps(co, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(x + i + 4)));
        i += 8; rem -= 8;
    }
    ce = _mm_add_ps(ce, co);
    ce = _mm_hadd_ps(ce, ce); ce = _mm_hadd_ps(ce, ce);
    yb[0] = _mm_cvtss_f32(ce);
}

/* Row-major k x d (contiguous, lda == d), alpha == 1, beta == 0:
 * out[j] = dot(row_j, x).  Requires d % 4 == 0, 8 < d <= 4096, k >= 1.
 * `+ 0.0f` launders -0.0f to +0.0f exactly as the OpenBLAS epilogue does. */
static void sgemv_sky(int64_t k, int64_t d, const float *a, const float *x, float *out) {
    int64_t j = 0;
    int64_t n1 = k >> 2;
    float yb[4];
    for (int64_t g = 0; g < n1; g++) {
        const float *base = a + 4 * g * d;
        kernel_4x4(d, base, base + d, base + 2 * d, base + 3 * d, x, yb);
        out[4 * g] = yb[0] + 0.0f;
        out[4 * g + 1] = yb[1] + 0.0f;
        out[4 * g + 2] = yb[2] + 0.0f;
        out[4 * g + 3] = yb[3] + 0.0f;
    }
    j = 4 * n1;
    if (k & 2) {
        kernel_4x2(d, a + j * d, a + (j + 1) * d, x, yb);
        out[j] = yb[0] + 0.0f;
        out[j + 1] = yb[1] + 0.0f;
        j += 2;
    }
    if (k & 1) {
        kernel_4x1(d, a + j * d, x, yb);
        out[j] = yb[0] + 0.0f;
    }
}
#endif /* ANN_VARIANT_AVX2 */

/* ------------------------------------------------------------------ state */

#define METRIC_COSINE 0
#define METRIC_EUCLIDEAN 1

typedef struct {
    const float *base;     /* (n, d) normed rows (cosine) or raw rows (euclidean) */
    const float *sq_norms; /* (n,) squared norms, euclidean only */
    int64_t d;
    int metric;
    int num_layers;
    int64_t **neighbors; /* per layer: (n, cap) int64 */
    float **dists;       /* per layer: (n, cap) float32 */
    int64_t **degrees;   /* per layer: (n,) int64 */
    const int64_t *caps; /* per layer capacity */
    int64_t max_degree;
} graph_t;

typedef struct {
    float dist;
    int64_t node;
} item_t;

/* (dist, node) lexicographic — the order of Python's (distance, node) tuples. */
static inline int lt_min(item_t a, item_t b) {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
}
/* order of Python's (-distance, node) tuples: larger distance first, node tiebreak. */
static inline int lt_max(item_t a, item_t b) {
    return a.dist > b.dist || (a.dist == b.dist && a.node < b.node);
}

#define HEAP_OPS(NAME, LT)                                                              \
    static void NAME##_push(item_t *heap, int64_t *size, item_t value) {                \
        int64_t pos = (*size)++;                                                        \
        heap[pos] = value;                                                              \
        while (pos > 0) {                                                               \
            int64_t parent = (pos - 1) >> 1;                                            \
            if (LT(heap[pos], heap[parent])) {                                          \
                item_t tmp = heap[parent];                                              \
                heap[parent] = heap[pos];                                               \
                heap[pos] = tmp;                                                        \
                pos = parent;                                                           \
            } else {                                                                    \
                break;                                                                  \
            }                                                                           \
        }                                                                               \
    }                                                                                   \
    static item_t NAME##_pop(item_t *heap, int64_t *size) {                             \
        item_t top = heap[0];                                                           \
        item_t last = heap[--(*size)];                                                  \
        int64_t pos = 0;                                                                \
        for (;;) {                                                                      \
            int64_t child = 2 * pos + 1;                                                \
            if (child >= *size) break;                                                  \
            if (child + 1 < *size && LT(heap[child + 1], heap[child])) child += 1;      \
            if (LT(heap[child], last)) {                                                \
                heap[pos] = heap[child];                                                \
                pos = child;                                                            \
            } else {                                                                    \
                break;                                                                  \
            }                                                                           \
        }                                                                               \
        heap[pos] = last;                                                               \
        return top;                                                                     \
    }

HEAP_OPS(minheap, lt_min)
HEAP_OPS(maxheap, lt_max)

/* ----------------------------------------------------------- distances */

/* distances from the prepared query to base[rows], replicating
 * PreparedVectors.row_distances (including numpy's k == 1 sdot dispatch).
 * Shared by the HNSW traversal and the CSR re-rank entry point, so the
 * byte-identity argument is carried in one place. */
static void base_row_distances(const float *base, const float *sq_norms, int64_t d,
                               int metric, const float *query, float query_sq,
                               const int64_t *rows, int64_t k, float *gather,
                               float *out) {
    for (int64_t i = 0; i < k; i++) {
        memcpy(gather + i * d, base + rows[i] * d, (size_t)d * sizeof(float));
    }
    if (k == 1) {
#ifdef ANN_VARIANT_AVX2
        if (d <= 4096) {
            out[0] = sdot_sky(d, gather, query);
        } else
#endif
        out[0] = sdot_fn(d, gather, 1, query, 1);
    } else {
#ifdef ANN_VARIANT_AVX2
        if (k <= 256 && d > 8 && d <= 4096 && (d & 3) == 0) {
            sgemv_sky(k, d, gather, query, out);
        } else
#endif
        sgemv_fn(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, k, d, 1.0f, gather, d, query, 1, 0.0f,
                 out, 1);
    }
    /* Clip via "replace only when strictly out of range" so NaN passes
     * through untouched, exactly like np.maximum / np.clip on the numpy
     * path (fmaxf-style branches would map NaN to the bound instead). */
    if (metric == METRIC_COSINE) {
        for (int64_t i = 0; i < k; i++) {
            float x = 1.0f - out[i];
            if (x < 0.0f) x = 0.0f;
            if (x > 2.0f) x = 2.0f;
            out[i] = x;
        }
    } else {
        for (int64_t i = 0; i < k; i++) {
            float sq = (query_sq + sq_norms[rows[i]]) - 2.0f * out[i];
            if (sq < 0.0f) sq = 0.0f;
            out[i] = sqrtf(sq);
        }
    }
}

static void row_distances(const graph_t *g, const float *query, float query_sq,
                          const int64_t *rows, int64_t k, float *gather, float *out) {
    base_row_distances(g->base, g->sq_norms, g->d, g->metric, query, query_sq, rows, k,
                       gather, out);
}

/* ------------------------------------------------------------- traversal */

typedef struct {
    item_t *cand;    /* min-heap scratch */
    item_t *result;  /* max-heap scratch */
    item_t *found;   /* search output buffer (>= ef entries) */
    int64_t *fresh;  /* unvisited-neighbour ids, cap entries */
    float *gather;   /* (cap, d) gather buffer */
    float *dist;     /* cap distances */
    int64_t *stamps; /* (n,) visit epochs */
} scratch_t;

static int64_t search_layer(const graph_t *g, const float *query, float query_sq,
                            const item_t *entries, int64_t num_entries, int64_t ef,
                            int layer, int64_t epoch, scratch_t *s) {
    const int64_t cap = g->caps[layer];
    const int64_t *neighbors_table = g->neighbors[layer];
    const float *dists_table = (const float *)g->dists[layer];
    const int64_t *degrees = g->degrees[layer];
    (void)dists_table;
    int64_t cand_size = 0, res_size = 0;
    for (int64_t i = 0; i < num_entries; i++) {
        s->stamps[entries[i].node] = epoch;
    }
    for (int64_t i = 0; i < num_entries; i++) {
        minheap_push(s->cand, &cand_size, entries[i]);
        maxheap_push(s->result, &res_size, entries[i]);
    }
    while (cand_size > 0) {
        item_t current = minheap_pop(s->cand, &cand_size);
        float worst = res_size > 0 ? s->result[0].dist : INFINITY;
        if (current.dist > worst && res_size >= ef) break;
        int64_t degree = degrees[current.node];
        if (degree == 0) continue;
        const int64_t *row = neighbors_table + current.node * cap;
        int64_t num_fresh = 0;
        for (int64_t j = 0; j < degree; j++) {
            int64_t neighbor = row[j];
            if (s->stamps[neighbor] != epoch) {
                s->stamps[neighbor] = epoch;
                s->fresh[num_fresh++] = neighbor;
            }
        }
        if (num_fresh == 0) continue;
        row_distances(g, query, query_sq, s->fresh, num_fresh, s->gather, s->dist);
        int res_full = res_size >= ef;
        float worst0 = res_size > 0 ? s->result[0].dist : INFINITY;
        for (int64_t j = 0; j < num_fresh; j++) {
            float nd = s->dist[j];
            if (res_full && !(nd < worst0)) continue;
            worst = res_size > 0 ? s->result[0].dist : INFINITY;
            if (res_size < ef || nd < worst) {
                item_t it = {nd, s->fresh[j]};
                minheap_push(s->cand, &cand_size, it);
                maxheap_push(s->result, &res_size, it);
                if (res_size > ef) maxheap_pop(s->result, &res_size);
            }
        }
    }
    memcpy(s->found, s->result, (size_t)res_size * sizeof(item_t));
    return res_size;
}

static void greedy_descent(const graph_t *g, const float *query, float query_sq,
                           int64_t *entry, float *entry_dist, int64_t top,
                           int64_t bottom, scratch_t *s) {
    for (int64_t layer = top; layer > bottom; layer--) {
        const int64_t cap = g->caps[layer];
        const int64_t *neighbors_table = g->neighbors[layer];
        const int64_t *degrees = g->degrees[layer];
        int changed = 1;
        while (changed) {
            changed = 0;
            int64_t degree = degrees[*entry];
            if (degree == 0) break;
            const int64_t *row = neighbors_table + *entry * cap;
            row_distances(g, query, query_sq, row, degree, s->gather, s->dist);
            int64_t best = 0;
            for (int64_t j = 1; j < degree; j++) {
                if (s->dist[j] < s->dist[best]) best = j;
            }
            if (s->dist[best] < *entry_dist) {
                *entry = row[best];
                *entry_dist = s->dist[best];
                changed = 1;
            }
        }
    }
}

/* -------------------------------------------------------------- insertion */

static int cmp_items_asc(const void *pa, const void *pb) {
    const item_t *a = (const item_t *)pa;
    const item_t *b = (const item_t *)pb;
    if (a->dist < b->dist) return -1;
    if (a->dist > b->dist) return 1;
    if (a->node < b->node) return -1;
    if (a->node > b->node) return 1;
    return 0;
}

/* Keep the m closest links of an overfull neighbour row, replicating
 * np.argsort(dists[:degree], kind="stable")[:m]. */
static void prune_row(int64_t *neighbors, float *dists, int64_t degree, int64_t m,
                      int64_t *idx_buf, int64_t *node_buf, float *dist_buf) {
    for (int64_t i = 0; i < degree; i++) idx_buf[i] = i;
    for (int64_t i = 1; i < degree; i++) { /* stable insertion sort by distance */
        int64_t key = idx_buf[i];
        float key_dist = dists[key];
        int64_t j = i - 1;
        while (j >= 0 && dists[idx_buf[j]] > key_dist) {
            idx_buf[j + 1] = idx_buf[j];
            j--;
        }
        idx_buf[j + 1] = key;
    }
    for (int64_t i = 0; i < m; i++) {
        node_buf[i] = neighbors[idx_buf[i]];
        dist_buf[i] = dists[idx_buf[i]];
    }
    memcpy(neighbors, node_buf, (size_t)m * sizeof(int64_t));
    memcpy(dists, dist_buf, (size_t)m * sizeof(float));
}

static void connect(graph_t *g, int64_t node, const item_t *selected, int64_t count,
                    int layer, int64_t m, int64_t *idx_buf, int64_t *node_buf,
                    float *dist_buf) {
    const int64_t cap = g->caps[layer];
    int64_t *neighbors_table = g->neighbors[layer];
    float *dists_table = g->dists[layer];
    int64_t *degrees = g->degrees[layer];
    for (int64_t slot = 0; slot < count; slot++) {
        neighbors_table[node * cap + slot] = selected[slot].node;
        dists_table[node * cap + slot] = selected[slot].dist;
    }
    degrees[node] = count;
    for (int64_t i = 0; i < count; i++) {
        int64_t neighbor = selected[i].node;
        int64_t degree = degrees[neighbor];
        neighbors_table[neighbor * cap + degree] = node;
        dists_table[neighbor * cap + degree] = selected[i].dist;
        degree += 1;
        if (degree > m) {
            prune_row(neighbors_table + neighbor * cap, dists_table + neighbor * cap,
                      degree, m, idx_buf, node_buf, dist_buf);
            degree = m;
        }
        degrees[neighbor] = degree;
    }
}

static void scratch_free(scratch_t *s) {
    if (!s) return;
    free(s->cand);
    free(s->result);
    free(s->found);
    free(s->fresh);
    free(s->gather);
    free(s->dist);
    free(s->stamps);
    free(s);
}

static scratch_t *scratch_alloc(int64_t n_total, int64_t ef, int64_t cap_max, int64_t d) {
    scratch_t *s = (scratch_t *)calloc(1, sizeof(scratch_t));
    if (!s) return 0;
    int64_t heap_cap = n_total + ef + 8;
    s->cand = (item_t *)malloc((size_t)heap_cap * sizeof(item_t));
    s->result = (item_t *)malloc((size_t)(ef + 2) * sizeof(item_t));
    s->found = (item_t *)malloc((size_t)(ef + 2) * sizeof(item_t));
    s->fresh = (int64_t *)malloc((size_t)cap_max * sizeof(int64_t));
    s->gather = (float *)malloc((size_t)(cap_max * d) * sizeof(float));
    s->dist = (float *)malloc((size_t)cap_max * sizeof(float));
    s->stamps = (int64_t *)calloc((size_t)n_total, sizeof(int64_t));
    if (!s->cand || !s->result || !s->found || !s->fresh || !s->gather || !s->dist ||
        !s->stamps) {
        scratch_free(s); /* the Python caller falls back and keeps running */
        return 0;
    }
    return s;
}

/* One full insert: greedy descent to the node's level, then a best-first
 * search and connect on every layer from there down to 0. */
static void insert_node(graph_t *g, int64_t node, int64_t level, const float *query,
                        float query_sq, int64_t ef_construction, scratch_t *s,
                        item_t *selected, item_t *entry_points, int64_t *idx_buf,
                        int64_t *node_buf, float *dist_buf, int64_t *entry,
                        int64_t *max_level, int64_t *epoch) {
    int64_t current = *entry;
    float current_dist;
    row_distances(g, query, query_sq, &current, 1, s->gather, &current_dist);
    greedy_descent(g, query, query_sq, &current, &current_dist, *max_level, level, s);
    int64_t num_entry = 1;
    entry_points[0].dist = current_dist;
    entry_points[0].node = current;
    int64_t top = level < *max_level ? level : *max_level;
    for (int64_t layer = top; layer >= 0; layer--) {
        *epoch += 1;
        int64_t num_found = search_layer(g, query, query_sq, entry_points, num_entry,
                                         ef_construction, (int)layer, *epoch, s);
        int64_t m = layer == 0 ? g->max_degree * 2 : g->max_degree;
        int64_t num_selected = num_found < m ? num_found : m;
        memcpy(selected, s->found, (size_t)num_found * sizeof(item_t));
        qsort(selected, (size_t)num_found, sizeof(item_t), cmp_items_asc);
        connect(g, node, selected, num_selected, (int)layer, m, idx_buf, node_buf,
                dist_buf);
        memcpy(entry_points, s->found, (size_t)num_found * sizeof(item_t));
        num_entry = num_found;
    }
    if (level > *max_level) {
        *max_level = level;
        *entry = node;
    }
}

/* Insert nodes [start, n_total); returns 0 on success, -1 on allocation
 * failure (in which case no state was modified for the failing call). */
int hnsw_build(const float *base, const float *sq_norms, int64_t d, int metric,
               int num_layers, int64_t **neighbors, float **dists, int64_t **degrees,
               const int64_t *caps, int64_t max_degree, int64_t ef_construction,
               const int64_t *levels, int64_t start, int64_t n_total,
               const float *prepared_queries, const float *query_sqs,
               int64_t *entry_io, int64_t *max_level_io) {
    graph_t g = {base, sq_norms, d, metric, num_layers, neighbors,
                 dists, degrees, caps, max_degree};
    int64_t cap_max = caps[0];
    for (int l = 1; l < num_layers; l++) {
        if (caps[l] > cap_max) cap_max = caps[l];
    }
    scratch_t *s = scratch_alloc(n_total, ef_construction, cap_max, d);
    if (!s) return -1;
    int64_t select_cap = ef_construction + 2;
    item_t *selected = (item_t *)malloc((size_t)select_cap * sizeof(item_t));
    item_t *entry_points = (item_t *)malloc((size_t)select_cap * sizeof(item_t));
    int64_t *idx_buf = (int64_t *)malloc((size_t)(cap_max + 2) * sizeof(int64_t));
    int64_t *node_buf = (int64_t *)malloc((size_t)(cap_max + 2) * sizeof(int64_t));
    float *dist_buf = (float *)malloc((size_t)(cap_max + 2) * sizeof(float));
    if (!selected || !entry_points || !idx_buf || !node_buf || !dist_buf) {
        free(selected);
        free(entry_points);
        free(idx_buf);
        free(node_buf);
        free(dist_buf);
        scratch_free(s);
        return -1;
    }
    int64_t entry = *entry_io;
    int64_t max_level = *max_level_io;
    int64_t epoch = 0;
    int64_t node = start;
    while (node < n_total && entry < 0) { /* first node of an empty graph */
        entry = node;
        max_level = levels[node];
        node++;
    }
    for (; node < n_total; node++) {
        insert_node(&g, node, levels[node], prepared_queries + (node - start) * d,
                    query_sqs[node - start], ef_construction, s, selected, entry_points,
                    idx_buf, node_buf, dist_buf, &entry, &max_level, &epoch);
    }
    *entry_io = entry;
    *max_level_io = max_level;
    free(selected);
    free(entry_points);
    free(idx_buf);
    free(node_buf);
    free(dist_buf);
    scratch_free(s);
    return 0;
}

/* Batched top-k query over a built graph; fills (num_queries, k) outputs.
 * Each row is an independent traversal from the entry point (its entry
 * distance included), so a row's answer never depends on the batch. */
int hnsw_query(const float *base, const float *sq_norms, int64_t d, int metric,
               int num_layers, int64_t **neighbors, float **dists, int64_t **degrees,
               const int64_t *caps, int64_t max_degree, int64_t n_total,
               const float *prepared_queries, const float *query_sqs,
               int64_t num_queries, int64_t ef, int64_t k,
               int64_t entry, int64_t max_level, int64_t *out_indices,
               double *out_distances) {
    graph_t g = {base, sq_norms, d, metric, num_layers, neighbors,
                 dists, degrees, caps, max_degree};
    int64_t cap_max = caps[0];
    for (int l = 1; l < num_layers; l++) {
        if (caps[l] > cap_max) cap_max = caps[l];
    }
    scratch_t *s = scratch_alloc(n_total, ef, cap_max, d);
    if (!s) return -1;
    for (int64_t row = 0; row < num_queries; row++) {
        const float *query = prepared_queries + row * d;
        float query_sq = query_sqs[row];
        int64_t current = entry;
        float current_dist;
        row_distances(&g, query, query_sq, &current, 1, s->gather, &current_dist);
        greedy_descent(&g, query, query_sq, &current, &current_dist, max_level, 0, s);
        item_t start_item = {current_dist, current};
        int64_t num_found =
            search_layer(&g, query, query_sq, &start_item, 1, ef, 0, row + 1, s);
        qsort(s->found, (size_t)num_found, sizeof(item_t), cmp_items_asc);
        int64_t count = num_found < k ? num_found : k;
        for (int64_t j = 0; j < count; j++) {
            out_indices[row * k + j] = s->found[j].node;
            out_distances[row * k + j] = (double)s->found[j].dist;
        }
        for (int64_t j = count; j < k; j++) {
            out_indices[row * k + j] = -1;
            out_distances[row * k + j] = INFINITY;
        }
    }
    scratch_free(s);
    return 0;
}

/* ------------------------------------------------------- shared re-rank */

/* Ascending (distance, position) with NaN distances last — the order of
 * np.argsort(dists, kind="stable") over a segment whose positions are the
 * node ids. cmp_items_asc alone is intransitive when NaN is present (NaN
 * compares "equal" to everything under <), which would be undefined
 * behaviour for qsort; classifying NaN explicitly restores a strict total
 * order. Among NaNs the position tie-break reproduces the stable sort's
 * original-order placement. */
static int cmp_rerank_items(const void *pa, const void *pb) {
    const item_t *a = (const item_t *)pa;
    const item_t *b = (const item_t *)pb;
    int a_nan = isnan(a->dist);
    int b_nan = isnan(b->dist);
    if (a_nan != b_nan) return a_nan ? 1 : -1;
    if (!a_nan) {
        if (a->dist < b->dist) return -1;
        if (a->dist > b->dist) return 1;
    }
    if (a->node < b->node) return -1;
    if (a->node > b->node) return 1;
    return 0;
}

/* Exact re-rank of a flat CSR (query -> candidates) stream: for every query
 * segment, gather the candidate rows, evaluate exact distances through the
 * same sgemv/sdot dispatch as PreparedVectors.row_distances, and emit the
 * top-k in ascending (distance, segment position) order.  Output arrays must
 * be pre-filled with -1 / inf by the caller; empty segments are skipped.
 * Returns 0 on success, -1 on allocation failure (outputs untouched, the
 * Python caller falls back to the byte-identical numpy path). */
int ann_rerank_csr(const float *base, const float *sq_norms, int64_t d, int metric,
                   const int64_t *candidates, const int64_t *offsets,
                   int64_t num_queries, const float *prepared_queries,
                   const float *query_sqs, int64_t k, int64_t *out_indices,
                   double *out_distances) {
    int64_t max_c = 0;
    for (int64_t q = 0; q < num_queries; q++) {
        int64_t c = offsets[q + 1] - offsets[q];
        if (c > max_c) max_c = c;
    }
    if (max_c == 0) return 0;
    float *gather = (float *)malloc((size_t)(max_c * d) * sizeof(float));
    float *dist = (float *)malloc((size_t)max_c * sizeof(float));
    item_t *items = (item_t *)malloc((size_t)max_c * sizeof(item_t));
    if (!gather || !dist || !items) {
        free(gather);
        free(dist);
        free(items);
        return -1;
    }
    for (int64_t q = 0; q < num_queries; q++) {
        int64_t c = offsets[q + 1] - offsets[q];
        if (c == 0) continue;
        const int64_t *segment = candidates + offsets[q];
        base_row_distances(base, sq_norms, d, metric, prepared_queries + q * d,
                           query_sqs[q], segment, c, gather, dist);
        for (int64_t j = 0; j < c; j++) {
            items[j].dist = dist[j];
            items[j].node = j; /* segment position — the stable tie-break */
        }
        qsort(items, (size_t)c, sizeof(item_t), cmp_rerank_items);
        int64_t count = c < k ? c : k;
        for (int64_t j = 0; j < count; j++) {
            out_indices[q * k + j] = segment[items[j].node];
            out_distances[q * k + j] = (double)items[j].dist;
        }
    }
    free(gather);
    free(dist);
    free(items);
    return 0;
}

/* ------------------------------------------------------------------ dedup */

/* Sorted dedup of a NON-NEGATIVE int64 key stream, in place.
 *
 * LSD radix sort — four counting passes over 16-bit digits (a pass whose
 * digit is constant across the stream is skipped, which prunes most of the
 * work for LSH keys, whose high bits are far below 2^48) — followed by one
 * linear dedup scan.  For non-negative keys the unsigned radix order equals
 * the signed order, so the surviving prefix is exactly what
 * `np.sort` + neighbour-mask (and therefore `np.unique`) produces: the
 * sorted unique set is algorithm-independent.
 *
 * Returns the deduplicated count (keys[0..count) hold the result), or -1 on
 * allocation failure with `keys` untouched so the caller can fall back to
 * the numpy path. */
int64_t ann_dedup_i64(int64_t *keys, int64_t n) {
    if (n < 0) return -1;
    if (n <= 1) return n;
    uint64_t *tmp = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    int64_t *counts = (int64_t *)malloc((size_t)65536 * sizeof(int64_t));
    if (!tmp || !counts) {
        free(tmp);
        free(counts);
        return -1;
    }
    uint64_t *src = (uint64_t *)keys;
    uint64_t *dst = tmp;
    for (int shift = 0; shift < 64; shift += 16) {
        memset(counts, 0, (size_t)65536 * sizeof(int64_t));
        for (int64_t i = 0; i < n; i++) counts[(src[i] >> shift) & 0xffff]++;
        if (counts[(src[0] >> shift) & 0xffff] == n) continue; /* constant digit */
        int64_t total = 0;
        for (int64_t b = 0; b < 65536; b++) {
            int64_t c = counts[b];
            counts[b] = total;
            total += c;
        }
        for (int64_t i = 0; i < n; i++) dst[counts[(src[i] >> shift) & 0xffff]++] = src[i];
        uint64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != (uint64_t *)keys) memcpy(keys, src, (size_t)n * sizeof(uint64_t));
    int64_t count = 1;
    for (int64_t i = 1; i < n; i++) {
        if (keys[i] != keys[count - 1]) keys[count++] = keys[i];
    }
    free(tmp);
    free(counts);
    return count;
}
