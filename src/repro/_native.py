"""The repo's one native module: a C source built once per process.

Five routines live in one shared object, compiled with the system C
compiler on first use and bound through :mod:`ctypes`:

* ``predict_raw`` — the GBDT scoring kernel behind
  :class:`repro.gbdt.CompiledPredictor` (branchless fixed-depth walk,
  several interleaved rows to hide load latency);
* ``ssp_augment`` — the augmentation loop of
  :func:`repro.flow.solve_min_cost_flow`: the Python loop's statements
  around an indexed heap where that loop pushes duplicates, finishing
  the same nodes in the same order (see :mod:`repro.flow.ssp` for why
  the two are bit-identical);
* ``grow_tree`` — one whole leaf-wise tree of
  :func:`repro.gbdt.tree.grow_tree`: root and child sums (numpy's
  pairwise summation), the per-leaf histogram build and split scan (the
  additions, in the order, of the numpy search it stands in for, see
  ``_find_best_split`` there, less the features a leaf's parent found in
  one bin), the best-first queue and the stable row partition of the
  reference loop in ``_grow``;
* ``tracker_gather`` — the cost and gap columns of a
  :meth:`repro.features.FeatureTracker.features_batch` probe window:
  the subtractions over the arena's stored times that the numpy gather
  makes, row by row, in-window repeats included;
* ``tracker_record`` — a run of deferred
  :meth:`~repro.features.FeatureTracker.update` records written to the
  arena in request order.

:func:`load` returns the process-wide handle, or ``None`` when there is
no toolchain (``cc`` missing, a sandboxed tempdir, a failed or timed-out
compile) or ``REPRO_GBDT_NO_CC`` is set; every caller keeps a
pure-Python/numpy path for that case.  ctypes releases the GIL around
each call, so a trainer thread inside any routine does not hold the
request thread, and :func:`fan_out` / :func:`start` can share work with
idle cores.  The source is compiled with ``-ffp-contract=off``: no fused
multiply-add may change a float the Python reference would have rounded
twice.
"""

from __future__ import annotations

import ctypes
import itertools
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .obs import get_registry

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Native", "Shared", "all_below", "fan_out", "load", "reservation", "start"]

logger = logging.getLogger("repro.native")

#: Environment switch forcing every fallback path (useful for the
#: fallbacks' own tests and for machines without a C toolchain).
_NO_CC_ENV = "REPRO_GBDT_NO_CC"

#: Interleaved rows per ``predict_raw`` iteration: enough independent
#: dependency chains to hide node-table load latency without spilling
#: registers.
_LANES = 8

#: Seconds the one compiler call may take.  It runs under ``_lock``, so
#: without a bound a wedged ``cc`` would hang the first fit, the first
#: label solve and the request thread's first prediction together.
_CC_TIMEOUT_SECONDS = 60.0

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    double threshold;
    int32_t feature;
    int32_t kids[2];
    int32_t pad;
    double value;
} Node;

#define LANES %(lanes)d

void predict_raw(const double *X, long n, long d,
                 const Node *nodes, const int32_t *roots,
                 const int32_t *depths, long n_trees,
                 double init_score, double *out)
{
    long i = 0;
    for (; i + LANES <= n; i += LANES) {
        const double *x[LANES];
        double acc[LANES];
        int32_t cur[LANES];
        for (int l = 0; l < LANES; l++) {
            x[l] = X + (i + l) * d;
            acc[l] = init_score;
        }
        for (long t = 0; t < n_trees; t++) {
            const int32_t root = roots[t];
            const int32_t depth = depths[t];
            for (int l = 0; l < LANES; l++)
                cur[l] = root;
            for (int32_t k = 0; k < depth; k++)
                for (int l = 0; l < LANES; l++) {
                    const Node *nd = nodes + cur[l];
                    cur[l] = nd->kids[x[l][nd->feature] > nd->threshold];
                }
            for (int l = 0; l < LANES; l++)
                acc[l] += nodes[cur[l]].value;
        }
        for (int l = 0; l < LANES; l++)
            out[i + l] = acc[l];
    }
    for (; i < n; i++) {
        const double *x = X + i * d;
        double acc = init_score;
        for (long t = 0; t < n_trees; t++) {
            int32_t cur = roots[t];
            for (int32_t k = 0, depth = depths[t]; k < depth; k++) {
                const Node *nd = nodes + cur;
                cur = nd->kids[x[nd->feature] > nd->threshold];
            }
            acc += nodes[cur].value;
        }
        out[i] = acc;
    }
}

/* Heap entries are ordered lexicographically on (dist, node), the order
   Python gives (d, u) tuples.  That order is total, so the pop sequence
   does not depend on the heap's internal layout. */
#define HEAP_LESS(da, ua, db, ub) ((da) < (db) || ((da) == (db) && (ua) < (ub)))

/* Successive-shortest-path augmentation over a CSR residual graph.
   `scratch` holds 5 * n_total eight-byte slots.  The heap is indexed:
   a node occupies at most one slot, pos[v] (-1 = not yet reached), its
   key is dist[v], and a relaxation sifts it up from where it is.  The
   reference's heapq instead pushes a second (d, v) pair and skips the
   stale one when it surfaces; both pop the least (dist, node) among the
   reached, unfinished nodes, so both finish the nodes in one order.
   Returns the supply that could not be routed (0 = solved); stores the
   routed cost in *total_cost and the path count in *augmentations. */
int64_t ssp_augment(int64_t n_total, int64_t n_arcs,
                    int64_t source, int64_t sink,
                    const int64_t *adj_start, const int64_t *adj_arcs,
                    const int64_t *arc_to, const int64_t *arc_tail,
                    int64_t *arc_cap, const double *arc_cost,
                    double *potential, int64_t remaining,
                    double *total_cost, int64_t *augmentations,
                    void *scratch)
{
    double *dist = (double *)scratch;
    int64_t *heap = (int64_t *)(dist + n_total);
    int64_t *pos = heap + n_total;
    int64_t *parent_arc = pos + n_total;
    int64_t *visited = parent_arc + n_total;
    double cost_sum = 0.0;
    int64_t paths = 0;
    (void)n_arcs;

    while (remaining > 0) {
        for (int64_t v = 0; v < n_total; v++) {
            dist[v] = INFINITY;
            pos[v] = -1;
            parent_arc[v] = -1;
            visited[v] = 0;
        }
        dist[source] = 0.0;
        heap[0] = source;
        pos[source] = 0;
        int64_t size = 1;
        while (size > 0) {
            const int64_t u = heap[0];
            const double d = dist[u];
            size--;
            if (size > 0) {
                /* as heapq pops: the hole at the root sinks to a leaf
                   along the lesser children (one comparison a level),
                   then the last entry rises from there */
                const int64_t lu = heap[size];
                const double ld = dist[lu];
                int64_t p = 0;
                for (;;) {
                    int64_t kid = 2 * p + 1;
                    if (kid >= size)
                        break;
                    if (kid + 1 < size
                        && HEAP_LESS(dist[heap[kid + 1]], heap[kid + 1],
                                     dist[heap[kid]], heap[kid]))
                        kid++;
                    const int64_t ku = heap[kid];
                    heap[p] = ku;
                    pos[ku] = p;
                    p = kid;
                }
                while (p > 0) {
                    const int64_t up = (p - 1) / 2;
                    const int64_t hu = heap[up];
                    if (!HEAP_LESS(ld, lu, dist[hu], hu))
                        break;
                    heap[p] = hu;
                    pos[hu] = p;
                    p = up;
                }
                heap[p] = lu;
                pos[lu] = p;
            }
            visited[u] = 1;
            const double pot_u = potential[u];
            for (int64_t k = adj_start[u]; k < adj_start[u + 1]; k++) {
                const int64_t arc = adj_arcs[k];
                if (arc_cap[arc] <= 0)
                    continue;
                const int64_t v = arc_to[arc];
                if (visited[v])
                    continue;
                const double nd = ((d + arc_cost[arc]) + pot_u) - potential[v];
                if (nd < dist[v] - 1e-12) {
                    dist[v] = nd;
                    parent_arc[v] = arc;
                    /* decrease-key: up from the node's own slot */
                    int64_t p = pos[v];
                    if (p < 0)
                        p = size++;
                    while (p > 0) {
                        const int64_t up = (p - 1) / 2;
                        const int64_t hu = heap[up];
                        if (!HEAP_LESS(nd, v, dist[hu], hu))
                            break;
                        heap[p] = hu;
                        pos[hu] = p;
                        p = up;
                    }
                    heap[p] = v;
                    pos[v] = p;
                }
            }
        }
        if (dist[sink] == INFINITY)
            break;

        for (int64_t v = 0; v < n_total; v++)
            if (visited[v])
                potential[v] += dist[v];

        int64_t bottleneck = remaining;
        for (int64_t v = sink; v != source; v = arc_tail[parent_arc[v]])
            if (arc_cap[parent_arc[v]] < bottleneck)
                bottleneck = arc_cap[parent_arc[v]];

        for (int64_t v = sink; v != source; v = arc_tail[parent_arc[v]]) {
            const int64_t arc = parent_arc[v];
            arc_cap[arc] -= bottleneck;
            arc_cap[arc ^ 1] += bottleneck;
            cost_sum += (double)bottleneck * arc_cost[arc];
        }
        remaining -= bottleneck;
        paths++;
    }
    *total_cost = cost_sum;
    *augmentations = paths;
    return remaining;
}

typedef struct {
    double grad;
    double hess;
    int64_t count;
} Cell;

/* Best split of one leaf.  Candidate feature `s` is column features[s]
   of the row-major uint8 matrix `binned` and owns histogram cells
   [offsets[s], offsets[s + 1]) of `scratch`, one per bin; behind the
   histogram `scratch` holds 3 * n_features more eight-byte slots.  A
   cell sums its rows in `rows` order and a feature's bins are
   prefix-summed left to right: the additions numpy's bincount and cumsum
   make, in their order.  `candidates` (NULL = all) flags the features to
   look at, and `splittable` (NULL = not wanted) receives that flag per
   feature for this leaf's children: set where the leaf's rows occupy two
   bins or more.  A feature with one occupied bin has no cell with rows
   on both sides, here or in any subset of these rows, so with
   min_data >= 1 skipping it changes no histogram that is read and no
   gain that competes.  Returns slot * 256 + bin of the first strictly
   greatest gain above `min_gain`, or -1, and stores that gain in
   *best_gain.  Out of line, as is pairwise_sum: called once a search
   (a node), inlining them buys no time and makes the build slower. */
__attribute__((noinline))
static int64_t hist_best_split(const uint8_t *binned, int64_t n_cols,
                        const int64_t *rows, int64_t n_rows,
                        const int64_t *features, const int64_t *offsets,
                        int64_t n_features,
                        const double *grad, const double *hess,
                        double grad_sum, double hess_sum,
                        double parent_score, int64_t min_data,
                        double min_hess, double lam, double min_gain,
                        void *scratch, double *best_gain,
                        const uint8_t *candidates, uint8_t *splittable)
{
    Cell *hist = (Cell *)scratch;
    int64_t *slot = (int64_t *)(hist + offsets[n_features]);
    int64_t *col = slot + n_features;
    int64_t *off = col + n_features;
    int64_t n_active = 0;
    for (int64_t s = 0; s < n_features; s++) {
        if (candidates && !candidates[s])
            continue;
        slot[n_active] = s;
        col[n_active] = features[s];
        off[n_active] = offsets[s];
        n_active++;
        memset(hist + offsets[s], 0,
               (size_t)(offsets[s + 1] - offsets[s]) * sizeof(Cell));
    }
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t i = rows[r];
        const uint8_t *row = binned + i * n_cols;
        const double g = grad[i];
        const double h = hess[i];
        for (int64_t a = 0; a < n_active; a++) {
            Cell *cell = hist + off[a] + row[col[a]];
            cell->grad += g;
            cell->hess += h;
            cell->count++;
        }
    }
    if (splittable)
        memset(splittable, 0, (size_t)n_features);

    int64_t best = -1;
    double best_so_far = min_gain;
    for (int64_t a = 0; a < n_active; a++) {
        const int64_t s = slot[a];
        const Cell *cells = hist + off[a];
        /* The last bin sends nothing right: not a split point. */
        const int64_t last = offsets[s + 1] - offsets[s] - 1;
        if (splittable) {
            int64_t b = 0;
            while (b < last && cells[b].count == 0)
                b++;
            splittable[s] = cells[b].count < n_rows;
        }
        /* 0.0 + x is x: a cell starts at +0.0 and so is never -0.0. */
        double g_left = 0.0;
        double h_left = 0.0;
        int64_t c_left = 0;
        double feature_gain = best_so_far;
        int64_t feature_bin = -1;
        for (int64_t b = 0; b < last; b++) {
            g_left += cells[b].grad;
            h_left += cells[b].hess;
            c_left += cells[b].count;
            if (c_left < min_data)
                continue;
            if (c_left > n_rows - min_data)
                break;  /* counts only grow: no later bin qualifies */
            const double g_right = grad_sum - g_left;
            const double h_right = hess_sum - h_left;
            double gain = g_left * g_left / (h_left + lam)
                          + g_right * g_right / (h_right + lam)
                          - parent_score;
            if (!(h_left >= min_hess && h_right >= min_hess))
                gain = -INFINITY;
            if (gain != gain) {
                /* A NaN gain (0/0) takes its whole feature out. */
                feature_bin = -1;
                break;
            }
            if (gain > feature_gain) {
                feature_gain = gain;
                feature_bin = b;
            }
        }
        if (feature_bin >= 0) {
            best_so_far = feature_gain;
            best = s * 256 + feature_bin;
        }
    }
    *best_gain = best_so_far;
    return best;
}

/* float(values[rows].sum()): numpy's pairwise summation of the gathered
   values (PW_BLOCKSIZE 128, eight accumulators), which one add.reduce
   over a contiguous float64 array makes in a single inner-loop call,
   added to the reduction's +0.0 start. */
__attribute__((noinline))
static double pairwise_sum(const double *values, const int64_t *rows,
                           int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += values[rows[i]];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = values[rows[j]];
        for (i = 8; i < n - (n %% 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += values[rows[i + j]];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += values[rows[i]];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 %% 8;
    return pairwise_sum(values, rows, n2)
           + pairwise_sum(values, rows + n2, n - n2);
}

/* Python's x ** 2 is libm's pow(|x|, 2), which need not round as x * x
   does; called through a pointer the compiler may not fold into x * x. */
static double (*volatile py_pow)(double, double) = pow;

typedef struct {
    double key;  /* -gain */
    int64_t counter;
    int64_t node;
} Entry;

#define ENTRY_LESS(a, b) \
    ((a).key < (b).key || ((a).key == (b).key && (a).counter < (b).counter))

/* Node k is nodes[k * N_INTS ..] and sums[k * N_FLOATS ..]. */
enum { N_FEATURE, N_BIN, N_LEFT, N_RIGHT, N_START, N_COUNT, N_INTS };
enum { S_GAIN, S_GRAD, S_HESS, N_FLOATS };

/* One leaf-wise tree: the reference loop of repro.gbdt.tree._grow in one
   call.  `rows` holds the sample's rows on entry and, on return, every
   node's rows at [start, start + count), children in their parent's
   order.  Nodes come in the order the loop makes them, room for
   2 * num_leaves - 1: (feature, bin, left, right, start, count; feature
   -1 = leaf) and (split gain, grad sum, hess sum).  A leaf is searched
   when its depth is below max_depth (< 0 = no cap) and, below the root,
   when it is wide enough for two children and the tree may still grow;
   the leaves that found a split queue on (-gain, counter), a total
   order, so taking the least entry pops what heapq pops.  With `inherit`
   a leaf's children search only the features it held in two bins or
   more (see hist_best_split).  stats receives the number of searches,
   of those given candidate flags and of those writing flags.  Returns
   the node count, or -1 when the work space cannot be allocated. */
int64_t grow_tree(const uint8_t *binned, int64_t n_cols,
                  int64_t *rows, int64_t n_rows,
                  const int64_t *features, const int64_t *offsets,
                  int64_t n_features,
                  const double *grad, const double *hess,
                  int64_t num_leaves, int64_t max_depth, int64_t min_data,
                  double min_hess, double lam, double min_gain,
                  int64_t inherit, void *scratch,
                  int64_t *nodes, double *sums, int64_t *stats)
{
    const int64_t capacity = num_leaves > 1 ? 2 * num_leaves - 1 : 1;
    const int64_t n_flags = inherit ? capacity * n_features : 0;
    /* per node: a queue entry, depth, best cell and best gain */
    char *work = malloc((size_t)(capacity * (int64_t)(sizeof(Entry) + 24)
                                 + n_rows * 8 + n_flags + 1));
    if (!work)
        return -1;
    Entry *queue = (Entry *)work;
    int64_t *depth = (int64_t *)(queue + capacity);
    int64_t *best = depth + capacity;
    double *best_gain = (double *)(best + capacity);
    int64_t *right_rows = (int64_t *)(best_gain + capacity);
    uint8_t *flags = inherit ? (uint8_t *)(right_rows + n_rows) : NULL;
    int64_t n_nodes = 0, n_leaves = 1, n_queued = 0, counter = 0;
    int64_t parent = -1, start = 0, n_left = n_rows;
    stats[0] = stats[1] = stats[2] = 0;

    /* A round makes the root, or the two children of the last split,
       searches those that could be split in turn, then pops that leaf. */
    for (;;) {
        const int64_t first = n_nodes;
        const int64_t d = parent < 0 ? 0 : depth[parent] + 1;
        const int64_t n_made = parent < 0 ? 1 : 2;
        for (int64_t k = first; k < first + n_made; k++) {
            int64_t *nd = nodes + k * N_INTS;
            double *sm = sums + k * N_FLOATS;
            const int64_t at = k == first ? start : start + n_left;
            const int64_t n = k == first
                ? n_left : nodes[parent * N_INTS + N_COUNT] - n_left;
            nd[N_FEATURE] = -1;
            nd[N_BIN] = 0;
            nd[N_LEFT] = nd[N_RIGHT] = -1;
            nd[N_START] = at;
            nd[N_COUNT] = n;
            sm[S_GAIN] = 0.0;
            sm[S_GRAD] = 0.0 + pairwise_sum(grad, rows + at, n);
            sm[S_HESS] = 0.0 + pairwise_sum(hess, rows + at, n);
            depth[k] = d;
        }
        n_nodes += n_made;
        const int capped = max_depth >= 0 && d >= max_depth;
        for (int64_t k = first; k < n_nodes && !capped; k++) {
            const int64_t *nd = nodes + k * N_INTS;
            const double gs = sums[k * N_FLOATS + S_GRAD];
            const double hs = sums[k * N_FLOATS + S_HESS];
            if (parent >= 0
                && !(nd[N_COUNT] >= 2 * min_data && n_leaves < num_leaves))
                continue;
            const uint8_t *candidates =
                flags && parent >= 0 ? flags + parent * n_features : NULL;
            uint8_t *splittable = flags ? flags + k * n_features : NULL;
            stats[0]++;
            stats[1] += candidates != NULL;
            stats[2] += splittable != NULL;
            best[k] = hist_best_split(
                binned, n_cols, rows + nd[N_START], nd[N_COUNT], features,
                offsets, n_features, grad, hess, gs, hs,
                py_pow(fabs(gs), 2.0) / (hs + lam), min_data, min_hess, lam,
                min_gain, scratch, &best_gain[k], candidates, splittable);
            if (best[k] >= 0)
                queue[n_queued++] = (Entry){-best_gain[k], counter++, k};
        }

        int64_t k = -1;
        while (k < 0 && n_queued > 0 && n_leaves < num_leaves) {
            int64_t least = 0;
            for (int64_t q = 1; q < n_queued; q++)
                if (ENTRY_LESS(queue[q], queue[least]))
                    least = q;
            k = queue[least].node;
            queue[least] = queue[--n_queued];

            /* stable partition: lefts in place, rights through a buffer */
            const int64_t f = features[best[k] / 256];
            const int64_t b = best[k] %% 256;
            int64_t *seg = rows + nodes[k * N_INTS + N_START];
            int64_t n_right = 0;
            n_left = 0;
            for (int64_t i = 0; i < nodes[k * N_INTS + N_COUNT]; i++) {
                const int64_t r = seg[i];
                if (binned[r * n_cols + f] <= b)
                    seg[n_left++] = r;
                else
                    right_rows[n_right++] = r;
            }
            memcpy(seg + n_left, right_rows, (size_t)n_right * sizeof(int64_t));
            if (n_left == 0 || n_right == 0)
                k = -1;
        }
        if (k < 0)
            break;
        int64_t *nd = nodes + k * N_INTS;
        nd[N_FEATURE] = features[best[k] / 256];
        nd[N_BIN] = best[k] %% 256;
        nd[N_LEFT] = n_nodes;
        nd[N_RIGHT] = n_nodes + 1;
        sums[k * N_FLOATS + S_GAIN] = best_gain[k];
        n_leaves++;
        parent = k;
        start = nd[N_START];
    }
    free(work);
    return n_nodes;
}

/* Cost and gap columns of a probe window (`X` is n x n_features,
   row-major; columns 0 and 2 are the caller's).  Row i takes them from
   the same object's previous in-window row previous[i] (shifted one
   gap), else from arena row rows[i] (the ring walked backwards from its
   head, `missing` past the recorded requests), else — rows[i] < 0, an
   unseen object — from costs[i] and `missing`.  `previous` may be NULL
   (no in-window repeats).  Subtractions and copies only. */
void tracker_gather(int64_t n, int64_t n_gaps, int64_t n_features,
                    const int64_t *rows, const int64_t *previous,
                    const double *times, const double *costs,
                    const double *slab, const int64_t *seen,
                    const double *last_cost, double missing, double *X)
{
    const int64_t n_slots = n_gaps + 1;
    for (int64_t i = 0; i < n; i++) {
        double *out = X + i * n_features;
        double *gaps = out + 3;
        const int64_t p = previous ? previous[i] : -1;
        const int64_t r = rows[i];
        if (p >= 0) {
            const double *before = X + p * n_features + 3;
            out[1] = costs[p];
            gaps[0] = times[i] - times[p];
            for (int64_t k = 1; k < n_gaps; k++)
                gaps[k] = before[k - 1];
        } else if (r >= 0) {
            const double *ring = slab + r * n_slots;
            const int64_t m = seen[r] < n_gaps ? seen[r] : n_gaps;
            int64_t slot = seen[r] %% n_slots;  /* the head: next write */
            double newer = times[i];
            out[1] = last_cost[r];
            for (int64_t k = 0; k < m; k++) {
                slot = slot ? slot - 1 : n_slots - 1;
                gaps[k] = newer - ring[slot];
                newer = ring[slot];
            }
            for (int64_t k = m; k < n_gaps; k++)
                gaps[k] = missing;
        } else {
            out[1] = costs[i];
            for (int64_t k = 0; k < n_gaps; k++)
                gaps[k] = missing;
        }
    }
}

/* Record a run of requests in order: request i stores times[i] at the
   ring head of arena row rows[i], advances the head and overwrites the
   row's last cost.  In-run repeats and a ring that wraps inside the run
   are the same three stores. */
void tracker_record(int64_t n, int64_t n_slots, const int64_t *rows,
                    const double *times, const double *costs,
                    double *slab, int64_t *seen, double *last_cost)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t r = rows[i];
        slab[r * n_slots + seen[r] %% n_slots] = times[i];
        seen[r]++;
        last_cost[r] = costs[i];
    }
}
""" % {"lanes": _LANES}


class Native:
    """The loaded shared object's five entry points.

    Array arguments are declared ``void*`` so callers can pass the plain
    integer addresses from ``ndarray.ctypes.data`` — this skips the
    ``data_as``/``cast`` machinery, which costs more than a single-row
    tree walk.  Callers own dtype, contiguity and bounds.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.predict_raw = lib.predict_raw
        self.predict_raw.restype = None
        self.predict_raw.argtypes = [
            ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_long, ctypes.c_double, ctypes.c_void_p,
        ]
        self.ssp_augment = lib.ssp_augment
        self.ssp_augment.restype = ctypes.c_int64
        self.ssp_augment.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64),
            ctypes.c_void_p,
        ]
        self.grow_tree = lib.grow_tree
        self.grow_tree.restype = ctypes.c_int64
        self.grow_tree.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_double, ctypes.c_double,
            ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]
        self.tracker_gather = lib.tracker_gather
        self.tracker_gather.restype = None
        self.tracker_gather.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p,
        ]
        self.tracker_record = lib.tracker_record
        self.tracker_record.restype = None
        self.tracker_record.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]


def all_below(indices: np.ndarray, bound: int) -> bool:
    """True when every index lies in ``[0, bound)`` — the bounds check a
    caller owes a routine that will dereference ``indices`` unchecked."""
    return indices.size == 0 or (
        int(indices.min()) >= 0 and int(indices.max()) < bound
    )


#: Process-wide handle: None = not attempted, False = unavailable (don't
#: retry), Native = ready.  Guarded by a lock because the first load may
#: race between the trainer thread and the request loop.
_state: Native | bool | None = None
_lock = threading.Lock()


def _build() -> Native | bool:
    """Compile and load the shared object; False when that cannot be done."""
    if os.environ.get(_NO_CC_ENV):
        logger.info("%s set; using the pure-Python/numpy paths", _NO_CC_ENV)
        return False
    build_dir = None
    try:
        build_dir = tempfile.mkdtemp(prefix="repro-native-")
        source_path = os.path.join(build_dir, "repro_native.c")
        lib_path = os.path.join(build_dir, "repro_native.so")
        with open(source_path, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            ["cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared",
             "-o", lib_path, source_path, "-lm"],
            check=True,
            capture_output=True,
            timeout=_CC_TIMEOUT_SECONDS,
        )
        return Native(ctypes.CDLL(lib_path))
    except (OSError, subprocess.SubprocessError) as exc:
        # Missing `cc`, a sandboxed tempdir, a failed or timed-out compile:
        # every caller still works on its fallback path, just slower.
        logger.warning(
            "could not build the native module (%s); falling back to the "
            "pure-Python/numpy paths",
            type(exc).__name__,
        )
        return False
    finally:
        # The mapping outlives the file: once CDLL has mapped the object
        # (or the build has failed) nothing needs the directory.
        if build_dir is not None:
            shutil.rmtree(build_dir, ignore_errors=True)


def load() -> Native | None:
    """The process-wide native handle, building it on first call."""
    global _state
    state = _state
    if state is None:
        with _lock:
            state = _state
            if state is None:
                started = perf_counter()
                state = _build()
                _state = state
                if state:
                    registry = get_registry()
                    if registry.enabled:
                        registry.histogram("gbdt.kernel_build_seconds").observe(
                            perf_counter() - started
                        )
    return state if isinstance(state, Native) else None


#: ``reservation.cores``, per thread: cores left to work beside it (each
#: training job sets it: 1 beside a serving thread, else 0).
reservation = threading.local()
_pool: ThreadPoolExecutor | None = None  # a forked child makes its own
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _claim(fn, items, claims, results, errors) -> None:
    """Run items off the shared counter (``next`` is atomic) to its end."""
    for i in itertools.takewhile(len(items).__gt__, claims):
        try:
            results[i] = fn(items[i])
        # Kept for ``Shared.result``, which raises it once all started items end.
        # lint: ignore-next-line[rob-broad-except, rob-silent-degrade]
        except Exception as exc:
            errors[i] = exc


class Shared:
    """``fn`` over ``items``, offered to up to ``wanted`` pool threads (none
    with the module off, on a pool thread, or past ``cores - 1 -
    reservation.cores``).  ``result()`` claims what no helper did, cancels
    helpers that never started, waits for the rest, and returns the results
    in order or raises the lowest failing index's exception."""

    def __init__(self, fn: Callable[[Any], Any], items: list, wanted: int) -> None:
        global _pool
        self.work = work = (fn, items, itertools.count(), [None] * len(items), {})
        cores = len(os.sched_getaffinity(0)) - 1
        wanted = min(wanted, cores - getattr(reservation, "cores", 0))
        if load() is None or threading.current_thread().name.startswith("repro-helper"):
            wanted = 0
        with _lock:
            if wanted > 0 and _pool is None:
                _pool = ThreadPoolExecutor(cores, "repro-helper")
        self.helpers = [_pool.submit(_claim, *work) for _ in range(wanted)]

    def result(self) -> list:
        _claim(*self.work)
        for future in self.helpers:
            if not future.cancel():
                future.result()
        *_, results, errors = self.work
        if errors:
            raise errors[min(errors)]
        return results


def fan_out(fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
    """``[fn(item) for item in items]``, shared with idle cores (:class:`Shared`)."""
    items = list(items)
    return Shared(fn, items, len(items) - 1).result()


def start(fn: Callable[..., Any], *args: Any) -> Shared:
    """``fn(*args)`` begun on a free pool thread; ``result()`` is ``[fn(*args)]``."""
    return Shared(lambda _: fn(*args), [None], 1)
