/* hdagg_native.c — compiled tier of the inspector backend registry.
 *
 * Plain C99, no Python.h: the library is loaded through ctypes
 * (repro.core.backends.native) and compiled with a stock gcc
 * (repro.core.backends.build), so environments without build tooling
 * simply run the numpy tier.
 *
 * Covers the two stages that dominate inspector wall time on mesh
 * matrices: LBP wavefront coarsening (hd_wavefronts + hd_lbp) and DAG
 * coarsening with group costs (hd_coarsen).
 *
 * BIT-IDENTITY CONTRACT: every float produced here must equal the numpy
 * tier's scalar LBP walk (repro.core.lbp) ulp for ulp, on every input.
 * That pins four things:
 *   - component costs: each union-find root carries its component's cost
 *     sum, and a union adds the absorbed root's sum into the surviving
 *     (smaller) root.  Unions run in the same sequence as the Python walk:
 *     new vertices in wavefront order, in-edge sources ascending, only
 *     sources inside the range;
 *   - summation order elsewhere: pairwise_sum() replicates numpy's
 *     pairwise reduction (sequential < 8, 8-way unrolled <= 128, recursive
 *     halving above with the split rounded down to a multiple of 8), which
 *     repro.core.pgp.pairwise_sum replays on Python floats;
 *   - first-fit packing applies loads in item order with the same
 *     adaptive-target expression;
 *   - PGP is 1 - (pairwise sum / p) / max, clamped at 0.
 * The accumulated PGP of Lines 36-38 is computed by the Python wrapper from
 * the loads written here.  Compile with -ffp-contract=off (no FMA
 * contraction) and without -ffast-math (no reassociation); build.py
 * enforces both.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* ------------------------------------------------------------------ */
/* numpy-identical pairwise summation                                  */
/* ------------------------------------------------------------------ */
static double pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* pgp(loads): max(0, 1 - mean/max), 0 for empty or all-zero loads */
static double pgp_of(const double *loads, i64 p)
{
    if (p == 0)
        return 0.0;
    double mx = loads[0];
    for (i64 i = 1; i < p; i++)
        if (loads[i] > mx)
            mx = loads[i];
    if (mx <= 0.0)
        return 0.0;
    double mean = pairwise_sum(loads, p) / (double)p;
    double v = 1.0 - mean / mx;
    return v > 0.0 ? v : 0.0;
}

/* first-fit pack with the running "first unbalanced bin" pointer */
static void first_fit(const double *costs, i64 k, i64 p, i64 *assign, double *loads)
{
    for (i64 b = 0; b < p; b++)
        loads[b] = 0.0;
    double total = pairwise_sum(costs, k);
    i64 b = 0;
    double committed = 0.0;
    for (i64 j = 0; j < k; j++) {
        while (b < p && loads[b] >= (total - committed) / (double)(p - b)) {
            committed += loads[b];
            b++;
        }
        i64 placed;
        if (b < p) {
            placed = b;
        } else { /* every bin full: overflow to the first least-loaded bin */
            placed = 0;
            for (i64 t = 1; t < p; t++)
                if (loads[t] < loads[placed])
                    placed = t;
        }
        loads[placed] += costs[j];
        assign[j] = placed;
    }
}

/* ------------------------------------------------------------------ */
/* hd_wavefronts: longest-path levels + (level, id)-sorted order       */
/* ------------------------------------------------------------------ */
/* returns 0 ok, 1 cycle, 2 allocation failure */
int hd_wavefronts(i64 n, const i64 *indptr, const i64 *indices,
                  i64 *level, i64 *order, i64 *wptr, i64 *n_levels_out)
{
    if (n == 0) {
        wptr[0] = 0;
        *n_levels_out = 0;
        return 0;
    }
    i64 *indeg = calloc((size_t)n, sizeof(i64));
    i64 *queue = malloc((size_t)n * sizeof(i64));
    if (!indeg || !queue) {
        free(indeg);
        free(queue);
        return 2;
    }
    i64 m = indptr[n];
    for (i64 e = 0; e < m; e++)
        indeg[indices[e]]++;
    i64 head = 0, tail = 0;
    for (i64 v = 0; v < n; v++) {
        level[v] = 0;
        if (indeg[v] == 0)
            queue[tail++] = v;
    }
    if (tail == 0) {
        free(indeg);
        free(queue);
        return 1; /* no source vertex */
    }
    i64 seen = 0;
    while (head < tail) {
        i64 v = queue[head++];
        seen++;
        i64 lv = level[v];
        for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
            i64 c = indices[e];
            if (level[c] < lv + 1)
                level[c] = lv + 1;
            if (--indeg[c] == 0)
                queue[tail++] = c;
        }
    }
    free(queue);
    if (seen != n) {
        free(indeg);
        return 1;
    }
    i64 n_levels = 0;
    for (i64 v = 0; v < n; v++)
        if (level[v] + 1 > n_levels)
            n_levels = level[v] + 1;
    /* counting sort by level, ids ascending within each level */
    i64 *fill = indeg; /* reuse */
    memset(fill, 0, (size_t)n * sizeof(i64));
    for (i64 v = 0; v < n; v++)
        fill[level[v]]++;
    wptr[0] = 0;
    for (i64 k = 0; k < n_levels; k++)
        wptr[k + 1] = wptr[k] + fill[k];
    for (i64 k = 0; k < n_levels; k++)
        fill[k] = wptr[k];
    for (i64 v = 0; v < n; v++)
        order[fill[level[v]]++] = v;
    free(indeg);
    *n_levels_out = n_levels;
    return 0;
}

/* ------------------------------------------------------------------ */
/* hd_lbp: the LBP decision walk over precomputed wavefronts           */
/* ------------------------------------------------------------------ */

/* union-find, root == component minimum */
static i64 uf_find(i64 *parent, i64 x)
{
    i64 r = x;
    while (parent[r] != r)
        r = parent[r];
    while (parent[x] != r) {
        i64 nx = parent[x];
        parent[x] = r;
        x = nx;
    }
    return r;
}

/* the smaller root absorbs the larger one and its cost sum */
static void uf_union(i64 *parent, double *csum, i64 a, i64 b)
{
    i64 ra = uf_find(parent, a);
    i64 rb = uf_find(parent, b);
    if (ra == rb)
        return;
    if (ra > rb) {
        i64 t = ra;
        ra = rb;
        rb = t;
    }
    parent[rb] = ra;
    csum[ra] += csum[rb];
}

typedef struct {
    i64 lo, hi;
    i64 m;       /* vertices in range */
    i64 ncomp;   /* connected components */
    i64 *sv;     /* verts sorted by (component root, id); capacity n */
    i64 *sizes;  /* per-component member count; capacity n */
    i64 *assign; /* per-component bin; capacity n */
    double *loads; /* per-bin load; capacity p */
} cand_t;

typedef struct {
    i64 n, p;
    const i64 *order;
    const i64 *wptr;
    const i64 *level;
    const i64 *in_ptr;
    const i64 *in_idx;
    i64 *parent;
    double *csum;  /* per-root component cost sum */
    double *ccost; /* per-component costs, capacity n */
    const double *cost;
    i64 lo, hi;
} walk_t;

static int cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* union the in-edges of the vertices of wavefronts [wlo, whi) whose
 * source lies inside the active range (level >= w->lo) */
static void walk_union_incoming(walk_t *w, i64 wlo, i64 whi)
{
    const i64 *order = w->order;
    for (i64 t = w->wptr[wlo]; t < w->wptr[whi]; t++) {
        i64 v = order[t];
        w->parent[v] = v;
        w->csum[v] = w->cost[v];
    }
    for (i64 t = w->wptr[wlo]; t < w->wptr[whi]; t++) {
        i64 v = order[t];
        for (i64 e = w->in_ptr[v]; e < w->in_ptr[v + 1]; e++) {
            i64 s = w->in_idx[e];
            if (w->level[s] >= w->lo)
                uf_union(w->parent, w->csum, s, v);
        }
    }
}

static void walk_seed(walk_t *w, i64 lo, i64 hi)
{
    w->lo = lo;
    w->hi = hi;
    walk_union_incoming(w, lo, hi);
}

static void walk_extend(walk_t *w, i64 new_hi)
{
    i64 old_hi = w->hi;
    w->hi = new_hi;
    walk_union_incoming(w, old_hi, new_hi);
}

/* evaluate the current range into `c`; returns pgp(loads) */
static double walk_candidate(walk_t *w, cand_t *c)
{
    i64 a = w->wptr[w->lo], b = w->wptr[w->hi];
    i64 m = b - a;
    c->lo = w->lo;
    c->hi = w->hi;
    c->m = m;
    /* key = root * n + vert: one sort orders by (component, id); roots are
     * component minima, so components come out ordered by smallest member */
    for (i64 t = 0; t < m; t++) {
        i64 v = w->order[a + t];
        c->sv[t] = uf_find(w->parent, v) * w->n + v;
    }
    qsort(c->sv, (size_t)m, sizeof(i64), cmp_i64);
    i64 ncomp = 0;
    i64 prev_root = -1;
    for (i64 t = 0; t < m; t++) {
        i64 root = c->sv[t] / w->n;
        c->sv[t] -= root * w->n;
        if (root != prev_root) {
            w->ccost[ncomp] = w->csum[root];
            c->sizes[ncomp] = t; /* component start; converted to size below */
            ncomp++;
            prev_root = root;
        }
    }
    for (i64 k = 0; k < ncomp; k++) {
        i64 end = (k + 1 < ncomp) ? c->sizes[k + 1] : m;
        c->sizes[k] = end - c->sizes[k];
    }
    c->ncomp = ncomp;
    first_fit(w->ccost, ncomp, w->p, c->assign, c->loads);
    return pgp_of(c->loads, w->p);
}

/* returns 0 ok, 2 allocation failure.  All output arrays are allocated by
 * the caller: cw_lo n_levels, cw_ptr n_levels+1, the vertex/component
 * payloads n, loads n_levels*p, dec_* n_levels-1.  Coarsened wavefront i
 * starts at wave cw_lo[i] and owns components cw_ptr[i]:cw_ptr[i+1]; the
 * vertices of all components are written back to back. */
int hd_lbp(i64 n, const i64 *indptr, const i64 *indices,
           const double *cost, i64 p, double epsilon,
           const i64 *level, const i64 *order, const i64 *wptr, i64 n_levels,
           i64 *cw_lo, i64 *cw_ptr, i64 *vertices,
           i64 *sizes, i64 *comp_bin, double *loads,
           double *dec_pgp, uint8_t *dec_merged, i64 *n_cw_out)
{
    *n_cw_out = 0;
    if (n_levels == 0)
        return 0;
    i64 m_edges = indptr[n];
    /* in-edge CSR (sources ascending per vertex, as in DAG.in_idx) */
    i64 *in_ptr = calloc((size_t)n + 1, sizeof(i64));
    i64 *in_idx = malloc((size_t)(m_edges > 0 ? m_edges : 1) * sizeof(i64));
    i64 *parent = malloc((size_t)n * sizeof(i64));
    i64 *fill = malloc((size_t)n * sizeof(i64));
    double *csum = malloc((size_t)n * sizeof(double));
    double *ccost = malloc((size_t)n * sizeof(double));
    i64 *buf_i = malloc((size_t)(6 * n) * sizeof(i64));
    double *buf_d = malloc((size_t)(2 * p) * sizeof(double));
    if (!in_ptr || !in_idx || !parent || !fill || !csum || !ccost || !buf_i || !buf_d) {
        free(in_ptr); free(in_idx); free(parent); free(fill);
        free(csum); free(ccost); free(buf_i); free(buf_d);
        return 2;
    }
    for (i64 e = 0; e < m_edges; e++)
        in_ptr[indices[e] + 1]++;
    for (i64 v = 0; v < n; v++)
        in_ptr[v + 1] += in_ptr[v];
    memcpy(fill, in_ptr, (size_t)n * sizeof(i64));
    for (i64 v = 0; v < n; v++)
        for (i64 e = indptr[v]; e < indptr[v + 1]; e++)
            in_idx[fill[indices[e]]++] = v;

    cand_t prev = {0, 0, 0, 0, buf_i, buf_i + n, buf_i + 2 * n, buf_d};
    cand_t cand = {0, 0, 0, 0, buf_i + 3 * n, buf_i + 4 * n, buf_i + 5 * n, buf_d + p};
    walk_t w = {n, p, order, wptr, level, in_ptr, in_idx,
                parent, csum, ccost, cost, 0, 0};

    i64 n_cw = 0;
    i64 vofs = 0, cofs = 0;
    cw_ptr[0] = 0;

#define EMIT(cp)                                                          \
    do {                                                                  \
        cw_lo[n_cw] = (cp)->lo;                                           \
        memcpy(vertices + vofs, (cp)->sv, (size_t)(cp)->m * sizeof(i64)); \
        vofs += (cp)->m;                                                  \
        memcpy(sizes + cofs, (cp)->sizes, (size_t)(cp)->ncomp * sizeof(i64)); \
        memcpy(comp_bin + cofs, (cp)->assign, (size_t)(cp)->ncomp * sizeof(i64)); \
        cofs += (cp)->ncomp;                                              \
        cw_ptr[n_cw + 1] = cofs;                                          \
        memcpy(loads + n_cw * p, (cp)->loads, (size_t)p * sizeof(double)); \
        n_cw++;                                                           \
    } while (0)

    walk_seed(&w, 0, 1);
    walk_candidate(&w, &prev);
    for (i64 i = 1; i < n_levels; i++) {
        walk_extend(&w, i + 1);
        double score = walk_candidate(&w, &cand);
        dec_pgp[i - 1] = score;
        if (score > epsilon) {
            dec_merged[i - 1] = 0;
            EMIT(&prev);
            walk_seed(&w, i, i + 1); /* cut before the wave that broke balance */
            walk_candidate(&w, &prev);
        } else {
            dec_merged[i - 1] = 1;
            cand_t tmp = prev;
            prev = cand;
            cand = tmp;
        }
    }
    EMIT(&prev);
#undef EMIT
    *n_cw_out = n_cw;

    free(in_ptr); free(in_idx); free(parent); free(fill);
    free(csum); free(ccost); free(buf_i); free(buf_d);
    return 0;
}

/* ------------------------------------------------------------------ */
/* hd_coarsen: G'' construction + per-group costs                      */
/* ------------------------------------------------------------------ */
/* Sorted-unique cross-group edges (lexicographic (gs, gd), matching
 * np.unique over edge pairs) and group costs accumulated in vertex order
 * (matching np.add.at).  out_indices must hold n_edges(g) entries.
 * Returns 0 ok, 2 allocation failure. */
int hd_coarsen(i64 n, const i64 *indptr, const i64 *indices,
               const i64 *labels, i64 n_groups, const double *cost,
               i64 *out_indptr, i64 *out_indices, i64 *out_nedges,
               double *group_cost)
{
    for (i64 g = 0; g < n_groups; g++)
        group_cost[g] = 0.0;
    for (i64 v = 0; v < n; v++)
        group_cost[labels[v]] += cost[v];

    i64 m = indptr[n];
    i64 cap = m > 0 ? m : 1;
    i64 *src_a = malloc((size_t)cap * sizeof(i64));
    i64 *dst_a = malloc((size_t)cap * sizeof(i64));
    i64 *src_b = malloc((size_t)cap * sizeof(i64));
    i64 *dst_b = malloc((size_t)cap * sizeof(i64));
    i64 *count = calloc((size_t)(n_groups > 0 ? n_groups : 1), sizeof(i64));
    if (!src_a || !dst_a || !src_b || !dst_b || !count) {
        free(src_a); free(dst_a); free(src_b); free(dst_b); free(count);
        return 2;
    }
    i64 k = 0;
    for (i64 v = 0; v < n; v++) {
        i64 gs = labels[v];
        for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
            i64 gd = labels[indices[e]];
            if (gs != gd) {
                src_a[k] = gs;
                dst_a[k] = gd;
                k++;
            }
        }
    }
    /* LSD radix by group id: stable pass on dst, then on src */
    for (i64 e = 0; e < k; e++)
        count[dst_a[e]]++;
    i64 run = 0;
    for (i64 g = 0; g < n_groups; g++) {
        i64 c = count[g];
        count[g] = run;
        run += c;
    }
    for (i64 e = 0; e < k; e++) {
        i64 pos = count[dst_a[e]]++;
        src_b[pos] = src_a[e];
        dst_b[pos] = dst_a[e];
    }
    memset(count, 0, (size_t)(n_groups > 0 ? n_groups : 1) * sizeof(i64));
    for (i64 e = 0; e < k; e++)
        count[src_b[e]]++;
    run = 0;
    for (i64 g = 0; g < n_groups; g++) {
        i64 c = count[g];
        count[g] = run;
        run += c;
    }
    for (i64 e = 0; e < k; e++) {
        i64 pos = count[src_b[e]]++;
        src_a[pos] = src_b[e];
        dst_a[pos] = dst_b[e];
    }
    /* dedup + CSR */
    for (i64 g = 0; g <= n_groups; g++)
        out_indptr[g] = 0;
    i64 mm = 0;
    for (i64 e = 0; e < k; e++) {
        if (mm > 0 && src_a[e] == src_a[mm - 1] && dst_a[e] == dst_a[mm - 1])
            continue;
        src_a[mm] = src_a[e];
        dst_a[mm] = dst_a[e];
        mm++;
    }
    for (i64 e = 0; e < mm; e++) {
        out_indices[e] = dst_a[e];
        out_indptr[src_a[e] + 1]++;
    }
    for (i64 g = 0; g < n_groups; g++)
        out_indptr[g + 1] += out_indptr[g];
    *out_nedges = mm;
    free(src_a); free(dst_a); free(src_b); free(dst_b); free(count);
    return 0;
}
