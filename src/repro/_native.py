"""The repo's one native module: a C source built once per machine.

Its routines, compiled with the system C compiler on first use into one
CPython extension module (multi-phase init, no module state), kept in a
per-user build cache that later processes load without compiling:

* ``predict_raw`` — the GBDT scoring kernel behind
  :class:`repro.gbdt.CompiledPredictor` (branchless fixed-depth walk
  over the predictor's byte slab, read in place; a batch walks eight
  rows as interleaved chains and a lone row eight trees, to hide load
  latency), bound as a batch (``predict_raw``, which can also write
  ``-|score|`` for the logistic link that ``logistic`` finishes) and as
  one row (``predict_row``);
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
* ``tracker_row`` and ``tracker_gather`` — one
  :meth:`repro.features.FeatureTracker.features` row, and the cost and
  gap columns of a :meth:`~repro.features.FeatureTracker.features_batch`
  probe window: the subtractions over the arena's stored times that the
  numpy row and gather make, by one ring walk, in-window repeats
  included.  ``tracker_row`` can record the request after reading its
  row, which is :meth:`~repro.features.FeatureTracker.advance`.
  ``tracker_gather`` takes the window's object list and the tracker's
  object → row dict and resolves the ids itself, in one pass before the
  walk: each id's arena row through the dict, each in-window repeat's
  previous position through a hash table local to the call, and the
  rows column the record window keeps;
* ``tracker_map`` and ``tracker_record`` — the decided records of a
  :meth:`~repro.features.FeatureTracker.features_window` window: the
  objects the probe did not know given rows in first-occurrence order,
  inserted into the same dict (all or nothing), then the run written to
  the arena in request order.

Each entry point is a ``METH_FASTCALL`` wrapper that takes the numpy
arrays (and, for scoring, the model's bytes) themselves through the
buffer protocol and checks, before its routine writes anything, each
array's element type, C-contiguity and writability and every length and
index the routine dereferences — for a model slab, its header (magic,
exact length, a node, alignment, roots) — ``ValueError`` otherwise; the
binding at the end of :data:`_SOURCE` lists them.  The two that read
Python objects take only an exact ``list`` of exact ``int`` ids in
int64 and an exact ``dict``, so no ``__index__``, ``__hash__`` or
``__eq__`` of a caller's type runs mid-pass.  :func:`load` returns
the process-wide module, or ``None`` when there is no toolchain (``cc``
or ``Python.h`` missing, a sandboxed tempdir, a failed or timed-out
compile) or ``REPRO_GBDT_NO_CC`` is set; every caller keeps a
pure-Python/numpy path for that case.  The
wrappers of ``predict_raw``, ``grow_tree`` and ``ssp_augment`` release
the GIL around the routine, so a trainer thread inside one does not hold
the request thread, and :func:`fan_out` / :func:`start` can share work
with idle cores.  The source is compiled with ``-ffp-contract=off``: no
fused multiply-add may change a float the Python reference would have
rounded twice.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import platform
import shutil
import stat
import threading
from time import perf_counter
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .obs import get_registry

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

__all__ = ["Native", "Shared", "all_below", "fan_out", "load", "reservation", "start"]

logger = logging.getLogger("repro.native")

#: Environment switch forcing every fallback path (useful for the
#: fallbacks' own tests and for machines without a C toolchain).
_NO_CC_ENV = "REPRO_GBDT_NO_CC"

#: Interleaved chains per ``predict_raw`` step — rows of a batch, or
#: trees of a lone row: enough independent dependency chains to hide
#: node-table load latency without spilling registers.
_LANES = 8

#: Seconds the one compiler call may take.  It runs under ``_lock``, so
#: without a bound a wedged ``cc`` would hang the first fit, the first
#: label solve and the request thread's first prediction together.
_CC_TIMEOUT_SECONDS = 60.0

#: What ``cc`` is given besides the paths and ``-lm`` (part of the cache key).
_FLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]

#: The routines, each called by its wrapper in :data:`_SOURCE`.
_KERNELS = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* A model slab read in place (repro.gbdt.compiled.CompiledPredictor's
   bytes): roots and depths, one each per tree, and the node table. */
typedef struct {
    long n_trees, n_features;
    const int32_t *roots, *depths;
    const Node *nodes;
    double init_score;
} Model;

#define LANES %(lanes)d

static void predict_raw(const double *X, long n, const Model *m, double *out)
{
    const Node *nodes = m->nodes;
    const int32_t *roots = m->roots, *depths = m->depths;
    const long d = m->n_features, n_trees = m->n_trees;
    long i = 0;
    for (; i + LANES <= n; i += LANES) {
        const double *x[LANES];
        double acc[LANES];
        int32_t cur[LANES];
        for (int l = 0; l < LANES; l++) {
            x[l] = X + (i + l) * d;
            acc[l] = m->init_score;
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
    /* A lone row (one call, or a batch's tail) walks LANES trees at a
       time as interleaved chains, all to the deepest one's depth (a leaf
       steps to itself), and adds their leaves in tree order. */
    for (; i < n; i++) {
        const double *x = X + i * d;
        double acc = m->init_score;
        long t = 0;
        for (; t + LANES <= n_trees; t += LANES) {
            int32_t cur[LANES], depth = 0;
            for (int l = 0; l < LANES; l++) {
                cur[l] = roots[t + l];
                depth = depths[t + l] > depth ? depths[t + l] : depth;
            }
            for (int32_t k = 0; k < depth; k++)
                for (int l = 0; l < LANES; l++) {
                    const Node *nd = nodes + cur[l];
                    cur[l] = nd->kids[x[nd->feature] > nd->threshold];
                }
            for (int l = 0; l < LANES; l++)
                acc += nodes[cur[l]].value;
        }
        for (; t < n_trees; t++) {
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
static int64_t ssp_augment(int64_t n_total, int64_t source, int64_t sink,
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
    if (splittable && n_features > 0)
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
static int64_t grow_tree(const uint8_t *binned, int64_t n_cols,
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

/* The gaps of one arena row from `now`: its ring (n_gaps + 1 slots,
   `seen` requests recorded) walked backwards from the head, newest
   first, `missing` past the recorded requests. */
static inline void ring_gaps(const double *ring, int64_t seen, int64_t n_gaps,
                             double now, double missing, double *gaps)
{
    const int64_t n_slots = n_gaps + 1;
    const int64_t m = seen < n_gaps ? seen : n_gaps;
    int64_t slot = seen %% n_slots;  /* the head: next write */
    for (int64_t k = 0; k < m; k++) {
        slot = slot ? slot - 1 : n_slots - 1;
        gaps[k] = now - ring[slot];
        now = ring[slot];
    }
    for (int64_t k = m; k < n_gaps; k++)
        gaps[k] = missing;
}

/* Cost and gap columns of a probe window (`X` is n x n_features,
   row-major; columns 0 and 2 are the caller's).  Row i takes them from
   the same object's previous in-window row previous[i] >= 0 (shifted
   one gap), else from arena row rows[i] (ring_gaps), else — rows[i] < 0,
   an unseen object — from costs[i] and `missing`.  Subtractions and
   copies only. */
static void tracker_gather(int64_t n, int64_t n_gaps, int64_t n_features,
                           const int64_t *rows, const int64_t *previous,
                           const double *times, const double *costs,
                           const double *slab, const int64_t *seen,
                           const double *last_cost, double missing, double *X)
{
    for (int64_t i = 0; i < n; i++) {
        double *out = X + i * n_features;
        double *gaps = out + 3;
        const int64_t p = previous[i];
        const int64_t r = rows[i];
        if (p >= 0) {
            const double *before = X + p * n_features + 3;
            out[1] = costs[p];
            gaps[0] = times[i] - times[p];
            for (int64_t k = 1; k < n_gaps; k++)
                gaps[k] = before[k - 1];
        } else if (r >= 0) {
            out[1] = last_cost[r];
            ring_gaps(slab + r * (n_gaps + 1), seen[r], n_gaps, times[i],
                      missing, gaps);
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
static void tracker_record(int64_t n, int64_t n_slots, const int64_t *rows,
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

/* A hash table local to one call: object id -> the value stored under
   it, a window position or an arena row (`at` < 0: an empty slot). */
typedef struct {
    int64_t id, at;
} Slot;

/* A table for up to n ids, every slot empty, of a power-of-two size at
   least 2n (so a probe ends at an empty slot); NULL without memory. */
static Slot *new_table(int64_t n, uint64_t *mask)
{
    uint64_t size = 8;
    while (size < 2 * (uint64_t)n)
        size *= 2;
    Slot *table = malloc(size * sizeof(Slot));
    if (table)
        memset(table, 0xff, size * sizeof(Slot));  /* every `at` -1 */
    *mask = size - 1;
    return table;
}

/* The slot holding `id`, else the empty slot where it would go. */
static Slot *slot_of(Slot *table, uint64_t mask, int64_t id)
{
    uint64_t s = (uint64_t)id * 0x9E3779B97F4A7C15u;
    for (s = (s ^ s >> 32) & mask; table[s].at >= 0 && table[s].id != id;
         s = (s + 1) & mask)
        ;
    return table + s;
}
""" % {"lanes": _LANES}

#: What ``cc`` compiles: the routines and their CPython binding.
_SOURCE = _KERNELS + r"""
/* ---- the CPython binding ----------------------------------------------
   One METH_FASTCALL wrapper per routine.  Arrays arrive through the
   buffer protocol; a wrapper checks each one's element format,
   C-contiguity and writability, then every length and every index its
   routine dereferences, and raises ValueError before the routine writes
   anything.  Each view it took is released on every path. */

#define COUNT(v) ((v)->len / (v)->itemsize)
#define AT(v, type, i) (((const type *)(v)->buf)[i])
/* Bound on capacities, supplies and min_data: sums of two stay in int64. */
#define HALF_RANGE ((int64_t)1 << 62)
/* Refuse the call, before any write, unless `ok`. */
#define REQUIRE(ok, message) \
    do { if (!(ok)) { PyErr_SetString(PyExc_ValueError, message); goto done; } } while (0)

/* The views one call holds, released together: room for the most
   arrays one entry point takes (grow_tree's ten). */
typedef struct {
    Py_buffer view[10];
    int n;
} Held;

static void release(Held *held)
{
    while (held->n > 0)
        PyBuffer_Release(&held->view[--held->n]);
}

static const char KINDS[] = "dqiB";
static const char *const KIND_NAME[] = {"float64", "int64", "int32", "uint8"};

/* Whether a view's elements are of array letter `kind` (see parse). */
static int kind_is(const Py_buffer *v, char kind)
{
    const char *f = v->format ? v->format : "B";
    if (*f == '@' || *f == '=' || (PY_LITTLE_ENDIAN && *f == '<'))
        f++;
    if (!f[0] || f[1])
        return 0;
    switch (kind) {
    case 'd': return f[0] == 'd' && v->itemsize == 8;
    case 'q': return (f[0] == 'q' || f[0] == 'l') && v->itemsize == 8;
    case 'i': return (f[0] == 'i' || f[0] == 'l') && v->itemsize == 4;
    default: return f[0] == 'B' && v->itemsize == 1;
    }
}

/* A call's arguments by `spec`, one letter each, into the next pointer
   of `out`: d q i B — a C-contiguous array (a held Py_buffer *) of
   float64, int64, int32 or uint8 (any bytes object), upper case D Q one the
   routine writes, and after '?' None (NULL) too; l — an int64; f — a
   double; O — any object (a borrowed PyObject *, its type the
   wrapper's to check).  0 with an exception set otherwise: ValueError
   for a buffer of the wrong kind, layout or writability. */
static int parse(const char *name, PyObject *const *args, Py_ssize_t nargs,
                 const char *spec, Held *held, void *const *out)
{
    Py_ssize_t wanted = (Py_ssize_t)strlen(spec);
    for (const char *c = spec; *c; c++)
        wanted -= *c == '?';
    if (nargs != wanted) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                     name, wanted, nargs);
        return 0;
    }
    for (Py_ssize_t k = 0; *spec; spec++, k++) {
        const int optional = *spec == '?';
        spec += optional;
        PyObject *obj = args[k];
        if (*spec == 'l') {
            int64_t *value = out[k];
            *value = PyLong_AsLongLong(obj);
            if (*value == -1 && PyErr_Occurred())
                return 0;
            continue;
        }
        if (*spec == 'f') {
            double *value = out[k];
            *value = PyFloat_AsDouble(obj);
            if (*value == -1.0 && PyErr_Occurred())
                return 0;
            continue;
        }
        if (*spec == 'O') {
            *(PyObject **)out[k] = obj;
            continue;
        }
        Py_buffer **array = out[k];
        *array = NULL;
        if (optional && obj == Py_None)
            continue;
        const int written = *spec == 'D' || *spec == 'Q';
        Py_buffer *v = &held->view[held->n];
        if (PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                               | (written ? PyBUF_WRITABLE : 0)) < 0) {
            if (!PyErr_ExceptionMatches(PyExc_TypeError)) {
                PyObject *type, *value, *trace;
                PyErr_Fetch(&type, &value, &trace);
                PyErr_Format(PyExc_ValueError, "%s argument %zd: %S", name,
                             k, value ? value : Py_None);
                Py_XDECREF(type);
                Py_XDECREF(value);
                Py_XDECREF(trace);
            }
            return 0;
        }
        held->n++;
        const char kind = written ? *spec + ('a' - 'A') : *spec;
        if (!kind_is(v, kind)) {
            PyErr_Format(PyExc_ValueError, "%s argument %zd must be a "
                         "C-contiguous %s array", name, k,
                         KIND_NAME[strchr(KINDS, kind) - KINDS]);
            return 0;
        }
        *array = v;
    }
    return 1;
}

/* Every value in [low, bound). */
static int all_in(const int64_t *values, Py_ssize_t n, int64_t low,
                  int64_t bound)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (values[i] < low || values[i] >= bound)
            return 0;
    return 1;
}

/* The model in `slab`, the bytes of CompiledPredictor.to_bytes(): a
   32-byte header (magic, n_trees u32, n_features u32, n_nodes u64,
   init_score f8, little-endian), roots and depths (int32, n_trees each)
   and the node table.  NULL when it can be walked, else why not.  The
   table's own links (children, and features below n_features) are the
   predictor's invariant, checked once where it is made
   (repro.gbdt.compiled.CompiledPredictor). */
static const char *slab_model(const Py_buffer *slab, Model *m)
{
    const char *base = slab->buf;
    const uint64_t len = (uint64_t)slab->len;
    uint32_t n_trees, n_features;
    uint64_t n_nodes;
    if (!PY_LITTLE_ENDIAN || len < 32 || memcmp(base, "LFOSLAB1", 8))
        return "slab must start with the LFOSLAB1 magic";
    memcpy(&n_trees, base + 8, 4);
    memcpy(&n_features, base + 12, 4);
    memcpy(&n_nodes, base + 16, 8);
    memcpy(&m->init_score, base + 24, 8);
    const uint64_t tables = 32 + 8 * (uint64_t)n_trees;
    if (len < tables || (len - tables) % sizeof(Node)
        || (len - tables) / sizeof(Node) != n_nodes)
        return "slab must be 32 + 8 n_trees + 32 n_nodes bytes long";
    if (n_nodes < 1 || n_features < 1)
        return "slab must hold a node and a feature";
    if ((uintptr_t)(base + tables) % 8)
        return "slab's node table must be 8-byte aligned";
    m->n_trees = n_trees;
    m->n_features = n_features;
    m->roots = (const int32_t *)(base + 32);
    m->depths = m->roots + n_trees;
    m->nodes = (const Node *)(base + tables);
    for (long t = 0; t < m->n_trees; t++)
        if (m->roots[t] < 0 || (uint64_t)m->roots[t] >= n_nodes)
            return "slab's roots must lie in its node table";
    return NULL;
}

/* predict_raw(X, slab, out, neg): the pre-link score of each of the
   len(out) rows of X (n_features each) into out, and -|score| into neg
   unless it is None. */
static PyObject *py_predict_raw(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    Py_buffer *X, *slab, *out, *neg;
    Model m;
    const char *bad;
    if (!parse("predict_raw", args, nargs, "dBD?D", &held,
               (void *[]){&X, &slab, &out, &neg}))
        goto done;
    const Py_ssize_t n = COUNT(out);
    REQUIRE(!(bad = slab_model(slab, &m)), bad);
    REQUIRE(COUNT(X) % m.n_features == 0 && COUNT(X) / m.n_features == n,
            "X must hold len(out) rows of n_features");
    REQUIRE(!neg || COUNT(neg) == n, "neg must be as long as out");
    double *raw = out->buf, *negated = neg ? neg->buf : NULL;
    Py_BEGIN_ALLOW_THREADS
    predict_raw(X->buf, n, &m, raw);
    for (Py_ssize_t i = 0; negated && i < n; i++)
        negated[i] = -fabs(raw[i]);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

/* predict_row(x, slab) -> float: one row's pre-link score.  The walk is
   shorter than a hand-off of the GIL, so the GIL stays held. */
static PyObject *py_predict_row(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    Py_buffer *x, *slab;
    Model m;
    const char *bad;
    double raw;
    if (!parse("predict_row", args, nargs, "dB", &held,
               (void *[]){&x, &slab}))
        goto done;
    REQUIRE(!(bad = slab_model(slab, &m)), bad);
    REQUIRE(COUNT(x) == m.n_features, "x must hold n_features");
    predict_raw(x->buf, 1, &m, &raw);
    result = PyFloat_FromDouble(raw);
done:
    release(&held);
    return result;
}

/* logistic(raw, e): e holds exp(-|raw|) and receives the logistic link
   of raw, repro.gbdt.losses.sigmoid's expressions over the same e. */
static PyObject *py_logistic(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    Py_buffer *raw, *e;
    if (!parse("logistic", args, nargs, "dD", &held, (void *[]){&raw, &e}))
        goto done;
    REQUIRE(COUNT(raw) == COUNT(e), "raw and e differ in length");
    double *p = e->buf;
    for (Py_ssize_t i = 0; i < COUNT(e); i++) {
        const double denominator = 1.0 + p[i];
        p[i] = AT(raw, double, i) >= 0 ? 1.0 / denominator : p[i] / denominator;
    }
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

/* ssp_augment(source, sink, adj_start, adj_arcs, arc_to, arc_tail,
   arc_cap, arc_cost, potential, remaining) -> (stranded, cost, paths).
   Besides the ranges, every arc in node u's adjacency must leave u: the
   path walk back from the sink follows arc_tail. */
static PyObject *py_ssp_augment(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    void *scratch = NULL;
    Py_buffer *adj_start, *adj_arcs, *arc_to, *arc_tail, *arc_cap;
    Py_buffer *arc_cost, *potential;
    int64_t source, sink, remaining;
    if (!parse("ssp_augment", args, nargs, "llqqqqQdDl", &held,
               (void *[]){&source, &sink, &adj_start, &adj_arcs, &arc_to,
                          &arc_tail, &arc_cap, &arc_cost, &potential,
                          &remaining}))
        goto done;
    const int64_t n_total = COUNT(potential), n_arcs = COUNT(arc_cap);
    const int64_t *start = adj_start->buf, *arcs = adj_arcs->buf;
    REQUIRE(COUNT(adj_start) == n_total + 1 && start[0] == 0
            && start[n_total] == COUNT(adj_arcs),
            "adj_start must run from 0 to len(adj_arcs) over the nodes");
    for (int64_t u = 0; u < n_total; u++)
        REQUIRE(start[u] <= start[u + 1], "adj_start must not decrease");
    REQUIRE(n_arcs % 2 == 0 && COUNT(arc_to) == n_arcs
            && COUNT(arc_tail) == n_arcs && COUNT(arc_cost) == n_arcs,
            "arc tables must hold one entry per arc, in residual pairs");
    REQUIRE(all_in(arc_to->buf, n_arcs, 0, n_total)
            && all_in(arc_tail->buf, n_arcs, 0, n_total)
            && all_in(&source, 1, 0, n_total) && all_in(&sink, 1, 0, n_total),
            "an arc endpoint outside the network");
    REQUIRE(all_in(arcs, COUNT(adj_arcs), 0, n_arcs),
            "an adjacency entry outside the arc tables");
    for (int64_t u = 0; u < n_total; u++)
        for (int64_t k = start[u]; k < start[u + 1]; k++)
            REQUIRE(AT(arc_tail, int64_t, arcs[k]) == u,
                    "an adjacency entry that does not leave its node");
    REQUIRE(all_in(arc_cap->buf, n_arcs, 0, HALF_RANGE)
            && all_in(&remaining, 1, 0, HALF_RANGE),
            "capacities and supply must lie in [0, 2**62)");
    if (!(scratch = malloc((size_t)(5 * n_total + 1) * 8))) {
        PyErr_NoMemory();
        goto done;
    }
    double cost;
    int64_t paths, stranded;
    Py_BEGIN_ALLOW_THREADS
    stranded = ssp_augment(n_total, source, sink, start, arcs, arc_to->buf,
                           arc_tail->buf, arc_cap->buf, arc_cost->buf,
                           potential->buf, remaining, &cost, &paths, scratch);
    Py_END_ALLOW_THREADS
    result = Py_BuildValue("(LdL)", (long long)stranded, cost,
                           (long long)paths);
done:
    free(scratch);
    release(&held);
    return result;
}

/* grow_tree(binned, rows, features, offsets, grad, hess, num_leaves,
   max_depth, min_data, min_hess, lam, min_gain, inherit, scratch, nodes,
   sums, stats) -> node count.  Feature s owns histogram cells
   [offsets[s], offsets[s + 1]), one per bin: each bin the rows hold in
   column features[s] must be below that width. */
static PyObject *py_grow_tree(PyObject *module, PyObject *const *args,
                              Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    uint8_t *top = NULL;
    Py_buffer *binned, *rows, *features, *offsets, *grad, *hess;
    Py_buffer *scratch, *nodes, *sums, *stats;
    int64_t num_leaves, max_depth, min_data, inherit;
    double min_hess, lam, min_gain;
    if (!parse("grow_tree", args, nargs, "BQqqddlllffflDQDQ", &held,
               (void *[]){&binned, &rows, &features, &offsets, &grad, &hess,
                          &num_leaves, &max_depth, &min_data, &min_hess,
                          &lam, &min_gain, &inherit, &scratch, &nodes, &sums,
                          &stats}))
        goto done;
    REQUIRE(binned->ndim == 2, "binned must be a 2-D array");
    const int64_t n_samples = binned->shape[0], n_cols = binned->shape[1];
    const int64_t n_rows = COUNT(rows), n_features = COUNT(features);
    const int64_t *row = rows->buf, *feature = features->buf;
    const int64_t *offset = offsets->buf;
    REQUIRE(COUNT(grad) == n_samples && COUNT(hess) == n_samples,
            "grad and hess must hold one value per sample");
    REQUIRE(all_in(row, n_rows, 0, n_samples), "a sample row outside binned");
    REQUIRE(all_in(feature, n_features, 0, n_cols), "a feature outside binned");
    REQUIRE(COUNT(offsets) == n_features + 1 && offset[0] == 0,
            "offsets must run from 0 over the features");
    for (int64_t s = 0; s < n_features; s++)
        REQUIRE(offset[s + 1] - offset[s] >= 1 && offset[s + 1] - offset[s] <= 256,
                "a feature must own 1 to 256 histogram cells");
    REQUIRE(COUNT(scratch) >= 3 * (offset[n_features] + n_features),
            "scratch is too small for the histogram");
    REQUIRE(nodes->ndim == 2 && nodes->shape[0] >= 1 && nodes->shape[1] == N_INTS
            && sums->ndim == 2 && sums->shape[1] == N_FLOATS
            && sums->shape[0] == nodes->shape[0]
            && num_leaves <= (nodes->shape[0] + 1) / 2 && COUNT(stats) == 3,
            "nodes, sums and stats must have room for the whole tree");
    REQUIRE(min_data >= -HALF_RANGE && min_data <= HALF_RANGE,
            "min_data must lie in [-2**62, 2**62]");
    /* the largest bin of each column over the rows, against its width */
    if (!(top = calloc((size_t)n_cols + 1, 1))) {
        PyErr_NoMemory();
        goto done;
    }
    const uint8_t *matrix = binned->buf;
    for (int64_t r = 0; r < n_rows; r++) {
        const uint8_t *values = matrix + row[r] * n_cols;
        for (int64_t c = 0; c < n_cols; c++)
            top[c] = values[c] > top[c] ? values[c] : top[c];
    }
    for (int64_t s = 0; s < n_features; s++)
        REQUIRE(top[feature[s]] < offset[s + 1] - offset[s],
                "a bin at or past its feature's histogram width");
    int64_t n_nodes;
    Py_BEGIN_ALLOW_THREADS
    n_nodes = grow_tree(matrix, n_cols, rows->buf, n_rows, feature, offset,
                        n_features, grad->buf, hess->buf, num_leaves,
                        max_depth, min_data, min_hess, lam, min_gain,
                        inherit, scratch->buf, nodes->buf, sums->buf,
                        stats->buf);
    Py_END_ALLOW_THREADS
    result = n_nodes < 0 ? PyErr_NoMemory() : PyLong_FromLongLong(n_nodes);
done:
    free(top);
    release(&held);
    return result;
}

/* A tracker's arena — a (capacity, n_gaps + 1) slab of request times,
   capacity request counts and last costs — and `n` of its rows, each
   in [low, capacity) with a count >= 0. */
static int arena_ok(const Py_buffer *slab, const Py_buffer *seen,
                    const Py_buffer *last_cost, const int64_t *rows,
                    Py_ssize_t n, int64_t low)
{
    if (slab->ndim != 2 || slab->shape[1] < 1 || COUNT(seen) != slab->shape[0]
        || COUNT(last_cost) != slab->shape[0]) {
        PyErr_SetString(PyExc_ValueError, "the arena must be a (capacity, "
                        "n_gaps + 1) slab with capacity counts and costs");
        return 0;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (rows[i] < low || rows[i] >= COUNT(seen)
            || (rows[i] >= 0 && AT(seen, int64_t, rows[i]) < 0)) {
            PyErr_SetString(PyExc_ValueError, "tracked row outside the arena");
            return 0;
        }
    return 1;
}

/* Item i of list `list`.  PyList_GET_ITEM is not used: its assert, in
   a build without NDEBUG, would put the path of the compiled file into
   the module, whose bytes the build cache must reproduce. */
#define LIST_ITEM(list, i) (((PyListObject *)(list))->ob_item[i])

/* The int64 value of object id `obj`: an exact int, so that no
   __index__, __hash__ or __eq__ of the caller's runs mid-pass, in int64
   as repro.cluster.wire ships ids.  0 with ValueError otherwise. */
static int object_id(PyObject *obj, int64_t *id)
{
    int overflow = 1;
    *id = PyLong_CheckExact(obj) ? PyLong_AsLongLongAndOverflow(obj, &overflow)
                                 : 0;
    if (overflow)
        PyErr_SetString(PyExc_ValueError, "an object id must be an int in int64");
    return !overflow;
}

/* The arena row the dict rows_of maps `obj` to, an exact int in
   [0, bound); -1 when it maps none, -2 with an exception set otherwise.
   The caller holds a reference to `obj`: a key of another type may run
   Python code to compare. */
static int64_t row_of(PyObject *rows_of, PyObject *obj, int64_t bound)
{
    PyObject *value = PyDict_GetItemWithError(rows_of, obj);
    if (!value)
        return PyErr_Occurred() ? -2 : -1;
    int overflow = 1;
    long long row = -1;
    if (PyLong_CheckExact(value))
        row = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (!overflow && row >= 0 && row < bound)
        return row;
    PyErr_SetString(PyExc_ValueError, "tracked row outside the arena");
    return -2;
}

/* tracker_gather(objs, rows_of, rows, times, costs, slab, seen,
   last_cost, missing, X): the window's ids, a list of ints, resolved in
   one pass — a repeat's previous position in the window from a table
   local to the call (it shares that position's row), any other id's
   arena row from the dict rows_of (-1 = unmapped) — and the rows
   written to `rows`, then tracker_gather. */
static PyObject *py_tracker_gather(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL, *objs, *rows_of;
    Py_buffer *rows, *times, *costs, *slab, *seen, *last_cost, *X;
    Slot *table = NULL;
    int64_t *found = NULL;
    double missing;
    if (!parse("tracker_gather", args, nargs, "OOQdddqdfD", &held,
               (void *[]){&objs, &rows_of, &rows, &times, &costs, &slab,
                          &seen, &last_cost, &missing, &X})
        || !arena_ok(slab, seen, last_cost, NULL, 0, -1))
        goto done;
    REQUIRE(PyList_CheckExact(objs), "objs must be a list");
    REQUIRE(PyDict_CheckExact(rows_of), "rows_of must be a dict");
    const Py_ssize_t n = PyList_GET_SIZE(objs);
    const int64_t n_gaps = slab->shape[1] - 1;
    REQUIRE(COUNT(rows) == n && COUNT(times) == n && COUNT(costs) == n,
            "request columns differ in length");
    REQUIRE(X->ndim == 2 && X->shape[0] == n && X->shape[1] == n_gaps + 3,
            "X must be a (len(objs), n_gaps + 3) matrix");
    uint64_t mask;
    if (!(table = new_table(n, &mask))
        || !(found = malloc(2 * (size_t)n * sizeof(int64_t) + 1))) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *previous = found + n;
    for (Py_ssize_t i = 0; i < n; i++) {
        REQUIRE(PyList_GET_SIZE(objs) == n, "objs changed during the call");
        PyObject *obj = LIST_ITEM(objs, i);
        int64_t id;
        if (!object_id(obj, &id))
            goto done;
        Slot *slot = slot_of(table, mask, id);
        previous[i] = slot->at;
        slot->id = id;
        slot->at = i;
        if (previous[i] >= 0) {
            found[i] = found[previous[i]];
            continue;
        }
        Py_INCREF(obj);
        found[i] = row_of(rows_of, obj, COUNT(seen));
        Py_DECREF(obj);
        if (found[i] < -1)
            goto done;
    }
    if (!arena_ok(slab, seen, last_cost, found, n, -1))
        goto done;
    memcpy(rows->buf, found, (size_t)n * sizeof(int64_t));
    tracker_gather(n, n_gaps, n_gaps + 3, found, previous, times->buf,
                   costs->buf, slab->buf, seen->buf, last_cost->buf, missing,
                   X->buf);
    result = Py_NewRef(Py_None);
done:
    free(table);
    free(found);
    release(&held);
    return result;
}

/* tracker_map(objs, start, rows, rows_of, next_row) -> next_row: the rows
   of the run objs[start:start + len(rows)] of a record window that the
   probe left -1 (unmapped then), mapped: through the dict rows_of to a
   row in [0, next_row), or, for an object it still does not map, to the
   next row from next_row on, inserted into rows_of in first-occurrence
   order.  All or nothing: on an error the keys it inserted are removed
   and `rows` is as it was.  Returns the row after the last handed out. */
static PyObject *py_tracker_map(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL, *objs, *rows_of, **inserted = NULL;
    Py_ssize_t n_inserted = 0;
    Py_buffer *rows;
    Slot *table = NULL;
    int64_t start, next_row, *mapped = NULL;
    if (!parse("tracker_map", args, nargs, "OlQOl", &held,
               (void *[]){&objs, &start, &rows, &rows_of, &next_row}))
        goto done;
    REQUIRE(PyList_CheckExact(objs), "objs must be a list");
    REQUIRE(PyDict_CheckExact(rows_of), "rows_of must be a dict");
    const Py_ssize_t n = COUNT(rows);
    REQUIRE(start >= 0 && start <= PyList_GET_SIZE(objs) - n,
            "rows must pair with objs[start:start + len(rows)]");
    REQUIRE(next_row >= 0 && next_row <= HALF_RANGE,
            "next_row must lie in [0, 2**62]");
    uint64_t mask;
    if (!(table = new_table(n, &mask))
        || !(mapped = malloc((size_t)n * sizeof(int64_t) + 1))
        || !(inserted = malloc((size_t)n * sizeof(PyObject *) + 1))) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(mapped, rows->buf, (size_t)n * sizeof(int64_t));
    int64_t row = next_row;
    for (Py_ssize_t k = 0; k < n; k++) {
        if (mapped[k] >= 0)
            continue;
        REQUIRE(PyList_GET_SIZE(objs) >= start + n,
                "objs changed during the call");
        PyObject *obj = LIST_ITEM(objs, start + k);
        int64_t id;
        if (!object_id(obj, &id))
            goto done;
        Slot *slot = slot_of(table, mask, id);
        if (slot->at >= 0) {
            mapped[k] = slot->at;
            continue;
        }
        Py_INCREF(obj);
        if ((mapped[k] = row_of(rows_of, obj, next_row)) == -1) {
            PyObject *value = PyLong_FromLongLong(row);
            const int failed = !value || PyDict_SetItem(rows_of, obj, value) < 0;
            Py_XDECREF(value);
            if (failed) {
                Py_DECREF(obj);
                goto done;
            }
            inserted[n_inserted++] = obj;  /* keeps the reference */
            mapped[k] = row++;
        } else {
            Py_DECREF(obj);
            if (mapped[k] < -1)
                goto done;
        }
        slot->id = id;
        slot->at = mapped[k];
    }
    memcpy(rows->buf, mapped, (size_t)n * sizeof(int64_t));
    result = PyLong_FromLongLong(row);
done:
    if (!result && n_inserted) {
        PyObject *type, *value, *trace;
        PyErr_Fetch(&type, &value, &trace);
        for (Py_ssize_t m = 0; m < n_inserted; m++)
            if (PyDict_DelItem(rows_of, inserted[m]) < 0)
                PyErr_Clear();
        PyErr_Restore(type, value, trace);
    }
    for (Py_ssize_t m = 0; m < n_inserted; m++)
        Py_DECREF(inserted[m]);
    free(inserted);
    free(mapped);
    free(table);
    release(&held);
    return result;
}

/* tracker_record(rows, times, costs, slab, seen, last_cost) */
static PyObject *py_tracker_record(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    Py_buffer *rows, *times, *costs, *slab, *seen, *last_cost;
    if (!parse("tracker_record", args, nargs, "qddDQD", &held,
               (void *[]){&rows, &times, &costs, &slab, &seen, &last_cost})
        || !arena_ok(slab, seen, last_cost, rows->buf, COUNT(rows), 0))
        goto done;
    REQUIRE(COUNT(times) == COUNT(rows) && COUNT(costs) == COUNT(rows),
            "request columns differ in length");
    tracker_record(COUNT(rows), slab->shape[1], rows->buf, times->buf,
                   costs->buf, slab->buf, seen->buf, last_cost->buf);
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

/* tracker_row(vec, slab, seen, last_cost, row, record, time, size,
   cost, free_bytes, missing): one request's feature row — size, cost,
   free bytes, then the gaps of arena row `row` (ring_gaps, as the
   gather), or `cost` and `missing` for row -1, an unseen object — and
   then, unless `record` is -1, the request recorded into arena row
   `record` (tracker_record's stores, after the row read the state
   before them). */
static PyObject *py_tracker_row(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    Py_buffer *vec, *slab, *seen, *last_cost;
    int64_t rows[2];
    double time, size, cost, free_bytes, missing;
    if (!parse("tracker_row", args, nargs, "DDQDllfffff", &held,
               (void *[]){&vec, &slab, &seen, &last_cost, &rows[0], &rows[1],
                          &time, &size, &cost, &free_bytes, &missing})
        || !arena_ok(slab, seen, last_cost, rows, 2, -1))
        goto done;
    const int64_t row = rows[0], record = rows[1];
    const int64_t n_gaps = slab->shape[1] - 1;
    REQUIRE(COUNT(vec) == n_gaps + 3, "vec must hold n_gaps + 3 features");
    double *out = vec->buf;
    out[0] = size;
    out[1] = row < 0 ? cost : AT(last_cost, double, row);
    out[2] = free_bytes;
    if (row >= 0)
        ring_gaps((const double *)slab->buf + row * (n_gaps + 1),
                  AT(seen, int64_t, row), n_gaps, time, missing, out + 3);
    else
        for (int64_t k = 0; k < n_gaps; k++)
            out[3 + k] = missing;
    if (record >= 0)
        tracker_record(1, n_gaps + 1, &record, &time, &cost, slab->buf,
                       seen->buf, last_cost->buf);
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

#define ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}
static PyMethodDef methods[] = {
    ENTRY(predict_raw), ENTRY(predict_row), ENTRY(logistic),
    ENTRY(ssp_augment), ENTRY(grow_tree), ENTRY(tracker_gather),
    ENTRY(tracker_map), ENTRY(tracker_record), ENTRY(tracker_row),
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT, "repro_native", NULL, 0, methods, slots,
    NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit_repro_native(void)
{
    return PyModuleDef_Init(&definition);
}
"""


#: The loaded extension module: the entry points are its functions,
#: ``predict_raw``, ``predict_row``, ``logistic``, ``ssp_augment``,
#: ``grow_tree``, ``tracker_gather``, ``tracker_map``, ``tracker_record``
#: and ``tracker_row``, each taking the arrays themselves (the two
#: tracker resolvers also the object list and the object → row dict; see
#: the binding at the end of :data:`_SOURCE` for the arguments and checks).
Native = ModuleType

#: The extension's name: ``PyInit_<name>`` in :data:`_SOURCE`.
_MODULE = "repro_native"


def all_below(indices: np.ndarray, bound: int) -> bool:
    """True when every index lies in ``[0, bound)``."""
    return indices.size == 0 or (
        int(indices.min()) >= 0 and int(indices.max()) < bound
    )


#: Process-wide handle: None = not attempted, False = unavailable (don't
#: retry), Native = ready.  Guarded by a lock because the first load may
#: race between the trainer thread and the request loop.
_state: Native | bool | None = None
_lock = threading.Lock()


def _interpreter() -> tuple[str, str]:
    """This interpreter's extension suffix and C header directory: an
    object built against one interpreter's headers loads into that one."""
    import sysconfig  # only a load needs it: ~2 ms, once a process

    return sysconfig.get_config_var("EXT_SUFFIX"), sysconfig.get_paths()["include"]


def _has_headers(include: str) -> bool:
    return os.path.isfile(os.path.join(include, "Python.h"))


def _import(path: str) -> Native:
    """The extension at ``path``, loaded and initialised (not entered in
    ``sys.modules``: each build is its own module object)."""
    from importlib.machinery import ExtensionFileLoader, ModuleSpec

    loader = ExtensionFileLoader(_MODULE, path)
    module = loader.create_module(ModuleSpec(_MODULE, loader, origin=path))
    loader.exec_module(module)
    return module


def _build(entry: str | None = None) -> Native | bool:
    """Compile and load the extension; False when that cannot be done.
    Built in a fresh tempdir, beside ``entry`` when given (see :func:`_cached`),
    then sealed with its own sha256 and renamed onto that cache entry."""
    if os.environ.get(_NO_CC_ENV):
        logger.info("%s set; using the pure-Python/numpy paths", _NO_CC_ENV)
        return False
    include = _interpreter()[1]
    if not _has_headers(include):
        logger.warning(
            "could not build the native module (no Python.h in %s); falling "
            "back to the pure-Python/numpy paths",
            include,
        )
        return False
    import subprocess  # only a build needs these; a cache hit never does
    import tempfile

    build_dir = None
    try:
        where = entry and os.path.dirname(entry)
        build_dir = tempfile.mkdtemp(prefix="repro-native-", dir=where)
        source_path = os.path.join(build_dir, "repro_native.c")
        lib_path = os.path.join(build_dir, "repro_native.so")
        with open(source_path, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            ["cc", *_FLAGS, f"-I{include}", "-o", lib_path, source_path, "-lm"],
            check=True,
            capture_output=True,
            timeout=_CC_TIMEOUT_SECONDS,
        )
        if entry:
            with open(lib_path, "rb+") as handle:
                handle.write(hashlib.sha256(handle.read()).digest())
            os.chmod(lib_path, 0o700)
            # Atomic: racing processes each map one whole object.
            os.replace(lib_path, lib_path := entry)
        return _import(lib_path)
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        # Missing `cc`, a sandboxed tempdir, a failed or timed-out compile:
        # every caller still works on its fallback path, just slower.
        logger.warning(
            "could not build the native module (%s); falling back to the "
            "pure-Python/numpy paths",
            type(exc).__name__,
        )
        return False
    finally:
        # The mapping outlives the file: once the object is loaded (or
        # the build has failed) nothing needs the directory.
        if build_dir is not None:
            shutil.rmtree(build_dir, ignore_errors=True)


def _private(info: os.stat_result, kind: Callable[[int], bool], mask: int) -> bool:
    """An lstat result of the right kind, owned by this user, no ``mask`` bits."""
    return kind(info.st_mode) and info.st_uid == os.getuid() and not info.st_mode & mask


def _cached() -> Native | str | None:
    """The object from the per-user build cache, or the entry to build.

    The entry is ``${XDG_CACHE_HOME:-~/.cache}/repro-native/<key>.so``,
    keyed by the source, the flags, the compiler binary, the machine and
    the interpreter (extension suffix and header directory), and trusted
    only when the directory (no group/other bits) and the entry (a
    regular file nobody else can write) are this user's.  An
    entry that does not end in the sha256 of the bytes before it (a
    truncated object would crash ``dlopen``) is built over.  None, with a
    warning, when the cache cannot be trusted or used.
    """
    if os.environ.get(_NO_CC_ENV) or not (compiler := shutil.which("cc")):
        return None  # _build says why, before anything touches the disk
    suffix, include = _interpreter()
    if not _has_headers(include):
        return None  # as for no `cc`
    try:
        info = os.stat(compiler := os.path.realpath(compiler))
        key = repr((_SOURCE, _FLAGS, compiler, info.st_size, info.st_mtime_ns,
                    platform.machine(), suffix, include))
        root = os.path.expanduser(os.environ.get("XDG_CACHE_HOME") or "~/.cache")
        root = os.path.join(root, "repro-native")
        os.makedirs(root, mode=0o700, exist_ok=True)
        entry = os.path.join(root, hashlib.sha256(key.encode()).hexdigest() + ".so")
        found = os.lstat(entry) if os.path.lexists(entry) else None
        if not _private(os.lstat(root), stat.S_ISDIR, 0o077) or (
            found and not _private(found, stat.S_ISREG, 0o022)
        ):
            raise PermissionError(f"{root} is not private to this user")
        if found:
            with open(entry, "rb") as handle:
                body = handle.read()
            if hashlib.sha256(body[:-32]).digest() == body[-32:]:
                return _import(entry)
        if not os.access(root, os.W_OK):
            raise PermissionError(f"{root} is read-only and has no entry")
        return entry
    except (OSError, ImportError) as exc:
        logger.warning(
            "native build cache unusable (%s); building in a temporary directory",
            exc,
        )
        return None


def load() -> Native | None:
    """The process-wide native handle: on first call, from the build cache
    (see :func:`_cached`) or else compiled in a tempdir."""
    global _state
    state = _state
    if state is None:
        with _lock:
            state = _state
            if state is None:
                started = perf_counter()
                state = _cached()
                if not isinstance(state, Native):
                    state = _build(state)
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
        # lint: ignore-next-line[rob-broad-except]
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
                from concurrent.futures import ThreadPoolExecutor

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
