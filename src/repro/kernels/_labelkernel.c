/* Native kernels of repro.kernels: the frozen query stores, and the hot
 * loops of index maintenance.
 *
 * Two capsule types are exported for the query side:
 *
 * 1. "repro.kernels.labelstore" -- an H2H-family label store: the arena of
 *    one H2HLabels instance, which is the CSR distance/position arrays plus
 *    the flattened Euler-tour LCA arrays of its tree decomposition:
 *
 *      comp[r]        component id of row r (forest support),
 *      first[r]       first Euler-tour position of row r,
 *      logs[i]        floor(log2(i)) lookup for the sparse-table RMQ,
 *      tbl_flat/off   sparse-table levels, entries packed as depth<<shift|row
 *                     so the range-minimum over depths is an integer minimum,
 *      pos_indptr/..  CSR of the per-node hub positions X(v).pos,
 *      dis_indptr/..  CSR of the per-row distance arrays X(v).dis.
 *
 *    query(rs, rt) performs exactly the reference Python arithmetic -- LCA
 *    via RMQ, then min over i in pos[lca] of dis_s[i] + dis_t[i] -- so
 *    results are bit-identical to H2HLabels.query.  one_to_many/query_pairs
 *    loop the same body in C over caller-provided int64 row buffers, writing
 *    into a float64 output buffer: one call per batch, no per-query Python.
 *    query_ids is the batch plane's entry: it takes the vertex ids
 *    themselves, int32 as they come off the wire or int64, and maps each to
 *    its row through the store's id map (a dense remap, or sorted ids
 *    searched by bisection), checks it and answers, in the same call; the
 *    first id with no row stops it and its position is returned.
 *    search_query_ids is the same for a search graph.
 *
 * 2. "repro.kernels.searchgraph" -- a CSR adjacency (graph snapshot or
 *    CH-style upward shortcut arrays) for the Dijkstra-family searches:
 *
 *      ids[r]         original vertex id of row r (heap tie-break key),
 *      indptr[r]..    CSR of the adjacency rows (neighbor rows + weights),
 *      parent[r]      elimination-tree parent of row r, computed at build
 *                     when the rows form one (see tree_parents).
 *
 *    Two search bodies.  The graph-snapshot searches are literal ports of
 *    repro.algorithms.dijkstra.bidijkstra / dijkstra_one_to_many: heaps are
 *    keyed by (distance, original id) exactly like heapq's (dist, vertex)
 *    tuples, rows relax neighbours in CSR order (the adjacency-dict
 *    iteration order), and every float operation is the same float64
 *    add/compare -- so the pop sequence, the relaxation sequence and
 *    therefore the returned distances are bit-identical to the Python
 *    searches.  The CH query (repro.hierarchy.ch.ch_bidirectional_query)
 *    runs over an elimination tree instead: a contraction's upward graph is
 *    chordal, so a row's upward search space is its ancestor chain and the
 *    query walks two chains with no heap (see search_tree).  It evaluates
 *    the same min-of-float-sums the upward Dijkstra settles, so it too is
 *    bit-identical to the reference.  A CH query over rows that fail the
 *    check is a ValueError.
 *
 * Neither capsule copies its arrays: buffers are borrowed via the buffer
 * protocol (views held for the capsule's lifetime), so the kernels execute
 * directly over the owning store's arena -- including mmap-backed arenas
 * shared across repro.cluster shard processes.
 *
 * 3. "repro.kernels.distancecache" -- the serving engine's epoch-exact LRU
 *    distance cache (repro.serving.cache.EpochDistanceCache): a hash table
 *    over an LRU list of (min id, max id) -> (distance, epoch) entries,
 *    probed and filled a batch per call (cache_probe / cache_fill); the
 *    misses of a probe are answered between the two calls.
 *
 * The maintenance kernels take no capsule.  update_labels is the H2H
 * family's whole top-down label pass (H2HLabels.update_top_down, and
 * build) over the flat rows of a label arena: the tree in row space, the
 * dis / pos CSR, each position slot's shortcut, and the seed rows.  It
 * writes only the dis_data buffer it is handed -- the labels' copy-on-write
 * buffer, so a store wrapping an earlier one is untouched -- and checks
 * every index it will follow before its first write.  update_slots is the
 * shortcut pass of every contraction (DCH, the H2H family, the PSP
 * partitions and overlay, PostMHL, TOAIN) -- at build, seeded with every
 * row, and after every batch -- the same way, over flat arrays
 * (repro.treedec.slots): shortcut weights in the shortcut store's CSR slot
 * order, each slot's graph weight, and a CSR of int32 supporter slot pairs.
 * It also reports what it did -- the changed slots, the rows a row mask kept
 * it from visiting, and its work counters -- so no caller re-derives them.
 *
 * The build entries give update_slots its topology.  eliminate runs the
 * symbolic (tiered) minimum-degree elimination, or follows an explicit
 * order, over a graph's own CSR arrays with sorted-array merges, no
 * weights: the order of eliminate in tests/oracles/slots.py and its rows.
 * eliminate_slots lays those rows out as a SlotContraction's arrays -- the
 * slot topology, each slot's graph weight and the supporter CSR -- so a
 * build runs no per-vertex Python here.  Both check every input
 * before their first write; their Python twins (eliminate and
 * supporter_slots in tests/oracles/slots.py) are the differential oracle.
 *
 * Every entry reads and writes only buffers (borrowed through the buffer
 * protocol, directly or via a capsule) and scalar row arguments: none walks
 * a Python dict or list.  The search entries (search_query, search_query_ids
 * in both modes, search_one_to_many) run their loops without the GIL: every
 * check, scratch allocation and Python-API call happens with it held, and a
 * failure inside the loop is recorded there and raised once the GIL is back.
 * Each search-graph capsule guards its scratch with its own lock (see
 * SearchGraph).  Every other entry -- the label queries, the distance-cache
 * entries and every maintenance pass -- holds the GIL throughout, which
 * orders a cache's callers.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* The CH search kernels start on a cache-line boundary, so code added or
 * removed before them (or a C-API import more or less in the PLT) does not
 * move their loops' alignment. */
#if defined(__GNUC__)
#define SEARCH_ALIGN __attribute__((aligned(64)))
#else
#define SEARCH_ALIGN
#endif

/* The tree query's relaxation loop (tree_relax) is a handful of
 * instructions run for thousands of arcs a query, and gcc's -O2 does not
 * unroll it. */
#if defined(__GNUC__) && !defined(__clang__)
#define TREE_UNROLL _Pragma("GCC unroll 4")
#else
#define TREE_UNROLL
#endif

static const char *LABEL_CAPSULE = "repro.kernels.labelstore";
static const char *SEARCH_CAPSULE = "repro.kernels.searchgraph";

/* ------------------------------------------------------------------ */
/* Borrowed-buffer helpers                                            */
/* ------------------------------------------------------------------ */

/* Borrow a C-contiguous buffer of 8-byte items; on success the view must be
 * released by the caller's destructor. */
static int borrow_buffer(PyObject *obj, Py_buffer *view, const void **data,
                         Py_ssize_t *count) {
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS) < 0) {
        return -1;
    }
    if (view->itemsize != 8) {
        PyBuffer_Release(view);
        view->obj = NULL;
        PyErr_SetString(PyExc_TypeError, "kernel buffers must have 8-byte items");
        return -1;
    }
    *data = view->buf;
    *count = view->len / view->itemsize;
    return 0;
}

static void release_views(Py_buffer *views, int count) {
    for (int i = 0; i < count; i++) {
        if (views[i].obj != NULL) {
            PyBuffer_Release(&views[i]);
            views[i].obj = NULL;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Label store                                                        */
/* ------------------------------------------------------------------ */

enum { L_COMP, L_FIRST, L_LOGS, L_TBL_FLAT, L_TBL_OFF,
       L_POS_INDPTR, L_POS_DATA, L_DIS_INDPTR, L_DIS_DATA, L_NVIEWS };

typedef struct {
    int64_t n;
    int64_t mask;
    Py_buffer views[L_NVIEWS];
    const int64_t *comp;
    const int64_t *first;
    const int64_t *logs;
    const int64_t *tbl_flat;
    const int64_t *tbl_off;
    const int64_t *pos_indptr;
    const int64_t *pos_data;
    const int64_t *dis_indptr;
    const double *dis_data;
} LabelStore;

static void label_destructor(PyObject *capsule) {
    LabelStore *st = (LabelStore *)PyCapsule_GetPointer(capsule, LABEL_CAPSULE);
    if (st != NULL) {
        release_views(st->views, L_NVIEWS);
        free(st);
    }
}

static PyObject *label_build(PyObject *self, PyObject *args) {
    PyObject *objs[L_NVIEWS];
    long long mask;
    (void)self;
    if (!PyArg_ParseTuple(args, "LOOOOOOOOO", &mask, &objs[L_COMP],
                          &objs[L_FIRST], &objs[L_LOGS], &objs[L_TBL_FLAT],
                          &objs[L_TBL_OFF], &objs[L_POS_INDPTR],
                          &objs[L_POS_DATA], &objs[L_DIS_INDPTR],
                          &objs[L_DIS_DATA])) {
        return NULL;
    }
    LabelStore *st = (LabelStore *)calloc(1, sizeof(LabelStore));
    if (st == NULL) {
        return PyErr_NoMemory();
    }
    st->mask = (int64_t)mask;
    const void *ptrs[L_NVIEWS];
    Py_ssize_t counts[L_NVIEWS];
    for (int i = 0; i < L_NVIEWS; i++) {
        if (borrow_buffer(objs[i], &st->views[i], &ptrs[i], &counts[i]) < 0) {
            release_views(st->views, i);
            free(st);
            return NULL;
        }
    }
    st->n = counts[L_COMP];
    st->comp = (const int64_t *)ptrs[L_COMP];
    st->first = (const int64_t *)ptrs[L_FIRST];
    st->logs = (const int64_t *)ptrs[L_LOGS];
    st->tbl_flat = (const int64_t *)ptrs[L_TBL_FLAT];
    st->tbl_off = (const int64_t *)ptrs[L_TBL_OFF];
    st->pos_indptr = (const int64_t *)ptrs[L_POS_INDPTR];
    st->pos_data = (const int64_t *)ptrs[L_POS_DATA];
    st->dis_indptr = (const int64_t *)ptrs[L_DIS_INDPTR];
    st->dis_data = (const double *)ptrs[L_DIS_DATA];
    if (counts[L_FIRST] != st->n || counts[L_POS_INDPTR] != st->n + 1 ||
        counts[L_DIS_INDPTR] != st->n + 1) {
        release_views(st->views, L_NVIEWS);
        free(st);
        PyErr_SetString(PyExc_ValueError, "label-store arrays have inconsistent lengths");
        return NULL;
    }
    PyObject *capsule = PyCapsule_New(st, LABEL_CAPSULE, label_destructor);
    if (capsule == NULL) {
        release_views(st->views, L_NVIEWS);
        free(st);
    }
    return capsule;
}

/* The shared query body: assumes 0 <= rs, rt < n and rs != rt. */
static inline double label_query_rows(const LabelStore *st, int64_t rs, int64_t rt) {
    if (st->comp[rs] != st->comp[rt]) {
        return Py_HUGE_VAL;
    }
    int64_t fs = st->first[rs];
    int64_t ft = st->first[rt];
    if (fs > ft) {
        int64_t tmp = fs;
        fs = ft;
        ft = tmp;
    }
    int64_t k = st->logs[ft - fs + 1];
    const int64_t *rowk = st->tbl_flat + st->tbl_off[k];
    int64_t a = rowk[fs];
    int64_t b = rowk[ft - ((int64_t)1 << k) + 1];
    if (b < a) {
        a = b;
    }
    int64_t lca_row = a & st->mask;
    const double *ds = st->dis_data + st->dis_indptr[rs];
    const double *dt = st->dis_data + st->dis_indptr[rt];
    const int64_t *p = st->pos_data + st->pos_indptr[lca_row];
    const int64_t *pe = st->pos_data + st->pos_indptr[lca_row + 1];
    double best = Py_HUGE_VAL;
    for (; p < pe; p++) {
        double c = ds[*p] + dt[*p];
        if (c < best) {
            best = c;
        }
    }
    return best;
}

static LabelStore *label_from_arg(PyObject *arg) {
    return (LabelStore *)PyCapsule_GetPointer(arg, LABEL_CAPSULE);
}

static PyObject *label_query(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "query(store, rs, rt) takes 3 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    long rt = PyLong_AsLong(args[2]);
    if ((rs == -1 || rt == -1) && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= st->n || rt < 0 || rt >= st->n) {
        PyErr_SetString(PyExc_IndexError, "label-store row out of range");
        return NULL;
    }
    if (rs == rt) {
        return PyFloat_FromDouble(0.0);
    }
    return PyFloat_FromDouble(label_query_rows(st, rs, rt));
}

/* Fetch matching (t_rows int64, out float64 writable) buffers. */
static int pair_buffers(PyObject *rows_obj, PyObject *out_obj, Py_buffer *rows,
                        Py_buffer *out) {
    if (PyObject_GetBuffer(rows_obj, rows, PyBUF_C_CONTIGUOUS) < 0) {
        return -1;
    }
    if (PyObject_GetBuffer(out_obj, out, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(rows);
        return -1;
    }
    if (rows->itemsize != 8 || out->itemsize != 8 || rows->len != out->len) {
        PyBuffer_Release(rows);
        PyBuffer_Release(out);
        PyErr_SetString(PyExc_TypeError, "row/out must be matching 8-byte buffers");
        return -1;
    }
    return 0;
}

/* one_to_many(store, rs, t_rows_int64_buffer, out_float64_buffer) */
static PyObject *label_one_to_many(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "one_to_many(store, rs, t_rows, out) takes 4 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    if (rs == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= st->n) {
        PyErr_SetString(PyExc_IndexError, "label-store row out of range");
        return NULL;
    }
    Py_buffer t_view, out_view;
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        return NULL;
    }
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = t_view.len / 8;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rt = t_rows[i];
        if (rt < 0 || rt >= st->n) {
            PyBuffer_Release(&t_view);
            PyBuffer_Release(&out_view);
            PyErr_SetString(PyExc_IndexError, "label-store row out of range");
            return NULL;
        }
        out[i] = (rt == rs) ? 0.0 : label_query_rows(st, rs, rt);
    }
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    Py_RETURN_NONE;
}

/* query_pairs(store, s_rows_int64_buffer, t_rows_int64_buffer, out_float64_buffer) */
static PyObject *label_query_pairs(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "query_pairs(store, s_rows, t_rows, out) takes 4 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    Py_buffer s_view, t_view, out_view;
    if (PyObject_GetBuffer(args[1], &s_view, PyBUF_C_CONTIGUOUS) < 0) {
        return NULL;
    }
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        PyBuffer_Release(&s_view);
        return NULL;
    }
    if (s_view.itemsize != 8 || s_view.len != t_view.len) {
        PyBuffer_Release(&s_view);
        PyBuffer_Release(&t_view);
        PyBuffer_Release(&out_view);
        PyErr_SetString(PyExc_TypeError,
                        "s_rows/t_rows/out must be matching 8-byte buffers");
        return NULL;
    }
    const int64_t *s_rows = (const int64_t *)s_view.buf;
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = s_view.len / 8;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rs = s_rows[i];
        int64_t rt = t_rows[i];
        if (rs < 0 || rs >= st->n || rt < 0 || rt >= st->n) {
            PyBuffer_Release(&s_view);
            PyBuffer_Release(&t_view);
            PyBuffer_Release(&out_view);
            PyErr_SetString(PyExc_IndexError, "label-store row out of range");
            return NULL;
        }
        out[i] = (rs == rt) ? 0.0 : label_query_rows(st, rs, rt);
    }
    PyBuffer_Release(&s_view);
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Id maps: vertex ids, as they come off the wire, to store rows       */
/* ------------------------------------------------------------------ */

/* A store's id -> row map (repro.kernels.arena.build_remap): one int64
 * buffer, either a dense remap, remap[id] the row of id or -1 (1-D), or,
 * where the id space is too sparse for one, the sorted ids over their rows
 * (2 x n), searched by binary search. */
typedef struct {
    const int64_t *keys;
    const int64_t *rows; /* NULL for a dense remap */
    Py_ssize_t n;
} IdMap;

/* Borrow a C-contiguous buffer of signed integers: int32 or int64 vertex ids,
 * or, with `wide` set, int64 only; a TypeError otherwise. */
static int borrow_ints(PyObject *obj, Py_buffer *view, int wide, int writable) {
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        return -1;
    }
    const char *format = view->format != NULL ? view->format : "B";
    if (*format == '<' || *format == '=' || *format == '@') {
        format++;
    }
    char c = format[0];
    int ok = c != '\0' && format[1] == '\0' &&
             (c == 'i' || c == 'l' || c == 'q' || c == 'n') &&
             (view->itemsize == 8 || (view->itemsize == 4 && !wide));
    if (!ok) {
        PyBuffer_Release(view);
        view->obj = NULL;
        PyErr_SetString(PyExc_TypeError,
                        "vertex ids are int32 or int64 buffers; id maps and rows int64");
        return -1;
    }
    return 0;
}

static int borrow_idmap(PyObject *obj, Py_buffer *view, IdMap *map) {
    if (borrow_ints(obj, view, 1, 0) < 0) {
        return -1;
    }
    map->keys = (const int64_t *)view->buf;
    if (view->ndim == 1) {
        map->rows = NULL;
        map->n = view->shape[0];
        return 0;
    }
    if (view->ndim == 2 && view->shape[0] == 2) {
        map->n = view->shape[1];
        map->rows = map->keys + map->n;
        return 0;
    }
    PyBuffer_Release(view);
    view->obj = NULL;
    PyErr_SetString(PyExc_TypeError, "an id map is a 1-D remap or 2 x n sorted ids over rows");
    return -1;
}

static inline int64_t read_id(const Py_buffer *ids, Py_ssize_t i) {
    return ids->itemsize == 4 ? (int64_t)((const int32_t *)ids->buf)[i]
                              : ((const int64_t *)ids->buf)[i];
}

/* The row of `id`, or -1 when the map has none. */
static inline int64_t idmap_row(const IdMap *map, int64_t id) {
    if (map->rows == NULL) {
        return (id >= 0 && id < map->n) ? map->keys[id] : -1;
    }
    Py_ssize_t lo = 0, hi = map->n;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (map->keys[mid] < id) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return (lo < map->n && map->keys[lo] == id) ? map->rows[lo] : -1;
}

/* map_ids(ids, idmap, rows) -> position of the first id with no row, or -1.
 * Writes the row of every id before it into rows (int64, one per id), or
 * only checks when rows is None. */
static PyObject *map_ids(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "map_ids(ids, idmap, rows) takes 3 arguments");
        return NULL;
    }
    Py_buffer views[3] = {{0}};
    IdMap map;
    if (borrow_ints(args[0], &views[0], 0, 0) < 0 ||
        borrow_idmap(args[1], &views[1], &map) < 0 ||
        (args[2] != Py_None && borrow_ints(args[2], &views[2], 1, 1) < 0)) {
        release_views(views, 3);
        return NULL;
    }
    Py_ssize_t m = views[0].len / views[0].itemsize;
    int64_t *rows = views[2].obj != NULL ? (int64_t *)views[2].buf : NULL;
    if (rows != NULL && views[2].len / 8 != m) {
        release_views(views, 3);
        PyErr_SetString(PyExc_ValueError, "rows must hold one int64 per id");
        return NULL;
    }
    Py_ssize_t missing = -1;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t row = idmap_row(&map, read_id(&views[0], i));
        if (row < 0) {
            missing = i;
            break;
        }
        if (rows != NULL) {
            rows[i] = row;
        }
    }
    release_views(views, 3);
    return PyLong_FromSsize_t(missing);
}

/* Borrow a batch call's (ids, idmap, out): 2k int32 / int64 ids, sources and
 * targets interleaved, and k writable float64 answers.  0, or -1 with the
 * views released and a TypeError / ValueError set. */
static int borrow_batch(PyObject *const *args, Py_buffer *views, IdMap *map) {
    if (borrow_ints(args[0], &views[0], 0, 0) < 0 || borrow_idmap(args[1], &views[1], map) < 0 ||
        PyObject_GetBuffer(args[2], &views[2], PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0) {
        release_views(views, 3);
        return -1;
    }
    Py_ssize_t m = views[0].len / views[0].itemsize;
    if (views[2].itemsize != 8 || m % 2 != 0 || views[2].len / 8 != m / 2) {
        release_views(views, 3);
        PyErr_SetString(PyExc_ValueError,
                        "a batch is 2k interleaved ids and k float64 answers");
        return -1;
    }
    return 0;
}

/* query_ids(store, ids, idmap, out) -> position of the first id with no row,
 * or -1: the label store's batch plane in one call.  Every id is mapped and
 * checked and every pair answered, in pair order; at the first id with no
 * row (source before target) the call stops and returns its position, so
 * out is complete only on -1.  A row the map names past the store is an
 * IndexError. */
static PyObject *label_query_ids(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "query_ids(store, ids, idmap, out) takes 4 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    Py_buffer views[3] = {{0}};
    IdMap map;
    if (borrow_batch(args + 1, views, &map) < 0) {
        return NULL;
    }
    double *out = (double *)views[2].buf;
    Py_ssize_t m = views[0].len / views[0].itemsize;
    Py_ssize_t missing = -1;
    for (Py_ssize_t i = 0; i < m; i += 2) {
        int64_t rs = idmap_row(&map, read_id(&views[0], i));
        if (rs < 0) {
            missing = i;
            break;
        }
        int64_t rt = idmap_row(&map, read_id(&views[0], i + 1));
        if (rt < 0) {
            missing = i + 1;
            break;
        }
        if (rs >= st->n || rt >= st->n) {
            release_views(views, 3);
            PyErr_SetString(PyExc_IndexError, "label-store row out of range");
            return NULL;
        }
        out[i / 2] = (rs == rt) ? 0.0 : label_query_rows(st, rs, rt);
    }
    release_views(views, 3);
    return PyLong_FromSsize_t(missing);
}

/* ------------------------------------------------------------------ */
/* Epoch-exact LRU distance cache                                     */
/* ------------------------------------------------------------------ */

/* The table of repro.serving.cache.EpochDistanceCache: (min id, max id) ->
 * (distance, epoch), at most `capacity` entries, evicted least recently
 * used first.  A probe at an epoch other than the entry's is a stale-epoch
 * rejection and drops the entry.  The five counters are CacheStats'.
 *
 * The entries live in one array of `capacity`, allocated with the cache,
 * linked from the least to the most recently used; the unused ones form a
 * free list.  A hash table of int32 entry slots finds them (open
 * addressing, linear probing, backward-shift deletion): a power of two at
 * least twice the capacity, so at most half full, and int32 slots bound the
 * capacity by CACHE_MAX_CAPACITY.
 *
 * Every entry touches a table with the GIL held and calls nothing that can
 * release it, so the GIL orders them and the table has no lock of its own. */

static const char *CACHE_CAPSULE = "repro.kernels.distancecache";

#define CACHE_MAX_CAPACITY ((Py_ssize_t)1 << 30)
#define CACHE_NONE ((int32_t)-1)

typedef struct {
    int64_t lo, hi;
    double dist;
    int64_t epoch;
    /* Neighbours in LRU order, CACHE_NONE at either end; `newer` also links
     * the free entries. */
    int32_t older, newer;
} CacheEntry;

enum { C_SIZE, C_HITS, C_MISSES, C_STALE, C_INVALIDATED, C_EVICTIONS, C_NSTATS };

typedef struct {
    Py_ssize_t capacity;
    Py_ssize_t size;      /* live entries */
    CacheEntry *entries;  /* `capacity` of them */
    int32_t *table;       /* mask + 1 slots: an entry, or CACHE_NONE */
    size_t mask;
    int32_t oldest, newest, free;
    int64_t hits, misses, stale, invalidated, evictions;
} DistanceCache;

static void cache_free(DistanceCache *c) {
    if (c != NULL) {
        free(c->entries);
        free(c->table);
        free(c);
    }
}

static void cache_destructor(PyObject *capsule) {
    cache_free((DistanceCache *)PyCapsule_GetPointer(capsule, CACHE_CAPSULE));
}

static DistanceCache *cache_from_arg(PyObject *arg) {
    return (DistanceCache *)PyCapsule_GetPointer(arg, CACHE_CAPSULE);
}

static inline size_t cache_home(const DistanceCache *c, int64_t lo, int64_t hi) {
    uint64_t h = ((uint64_t)lo * 0x9E3779B97F4A7C15ull) ^ (uint64_t)hi;
    h *= 0xC2B2AE3D27D4EB4Full;
    return (size_t)(h ^ (h >> 32)) & c->mask;
}

/* The slot holding (lo, hi), or the empty slot where it would go. */
static inline size_t cache_slot(const DistanceCache *c, int64_t lo, int64_t hi) {
    size_t i = cache_home(c, lo, hi);
    for (;;) {
        int32_t e = c->table[i];
        if (e == CACHE_NONE || (c->entries[e].lo == lo && c->entries[e].hi == hi)) {
            return i;
        }
        i = (i + 1) & c->mask;
    }
}

static inline void cache_unlink(DistanceCache *c, int32_t e) {
    CacheEntry *x = &c->entries[e];
    if (x->older != CACHE_NONE) {
        c->entries[x->older].newer = x->newer;
    } else {
        c->oldest = x->newer;
    }
    if (x->newer != CACHE_NONE) {
        c->entries[x->newer].older = x->older;
    } else {
        c->newest = x->older;
    }
}

static inline void cache_make_newest(DistanceCache *c, int32_t e) {
    CacheEntry *x = &c->entries[e];
    x->older = c->newest;
    x->newer = CACHE_NONE;
    if (c->newest != CACHE_NONE) {
        c->entries[c->newest].newer = e;
    } else {
        c->oldest = e;
    }
    c->newest = e;
}

/* Drop the entry in slot i: off the LRU list onto the free list, and the
 * probe runs after it shifted back so no lookup stops short. */
static void cache_remove(DistanceCache *c, size_t i) {
    int32_t e = c->table[i];
    cache_unlink(c, e);
    c->entries[e].newer = c->free;
    c->free = e;
    c->size--;
    for (size_t j = (i + 1) & c->mask; c->table[j] != CACHE_NONE; j = (j + 1) & c->mask) {
        const CacheEntry *x = &c->entries[c->table[j]];
        /* The entry in j may fill the hole at i when i lies on its probe run,
         * from its home slot to j. */
        if (((j - cache_home(c, x->lo, x->hi)) & c->mask) >= ((j - i) & c->mask)) {
            c->table[i] = c->table[j];
            i = j;
        }
    }
    c->table[i] = CACHE_NONE;
}

/* Drop every entry: an empty table, every entry on the free list. */
static void cache_clear(DistanceCache *c) {
    memset(c->table, 0xff, (c->mask + 1) * sizeof(int32_t)); /* every slot CACHE_NONE */
    for (Py_ssize_t e = 0; e < c->capacity; e++) {
        c->entries[e].newer = e + 1 < c->capacity ? (int32_t)(e + 1) : CACHE_NONE;
    }
    c->free = 0;
    c->oldest = c->newest = CACHE_NONE;
    c->size = 0;
}

/* 1 with *dist set when (s, t) is cached at `epoch`, and it becomes the most
 * recently used entry; 0 otherwise, dropping an entry of another epoch.
 * The caller counts hits and misses. */
static inline int cache_get(DistanceCache *c, int64_t s, int64_t t, int64_t epoch,
                            double *dist) {
    int64_t lo = s <= t ? s : t, hi = s <= t ? t : s;
    size_t i = cache_slot(c, lo, hi);
    int32_t e = c->table[i];
    if (e == CACHE_NONE) {
        return 0;
    }
    if (c->entries[e].epoch != epoch) {
        cache_remove(c, i);
        c->stale++;
        return 0;
    }
    if (e != c->newest) {
        cache_unlink(c, e);
        cache_make_newest(c, e);
    }
    *dist = c->entries[e].dist;
    return 1;
}

/* Insert or overwrite (s, t) as the most recently used entry; at capacity a
 * new key first evicts the least recently used one, which leaves what the
 * insert-then-evict of an OrderedDict leaves. */
static void cache_put(DistanceCache *c, int64_t s, int64_t t, double dist, int64_t epoch) {
    int64_t lo = s <= t ? s : t, hi = s <= t ? t : s;
    int32_t e = c->table[cache_slot(c, lo, hi)];
    if (e != CACHE_NONE) {
        cache_unlink(c, e);
    } else {
        if (c->size == c->capacity) {
            const CacheEntry *old = &c->entries[c->oldest];
            cache_remove(c, cache_slot(c, old->lo, old->hi));
            c->evictions++;
        }
        e = c->free;
        c->free = c->entries[e].newer;
        c->entries[e].lo = lo;
        c->entries[e].hi = hi;
        c->table[cache_slot(c, lo, hi)] = e;
        c->size++;
    }
    c->entries[e].dist = dist;
    c->entries[e].epoch = epoch;
    cache_make_newest(c, e);
}

/* cache_new(capacity) -> cache capsule.  A capacity below 1 or past
 * CACHE_MAX_CAPACITY is a ValueError, before anything is allocated. */
static PyObject *cache_new(PyObject *self, PyObject *arg) {
    (void)self;
    Py_ssize_t capacity = PyLong_AsSsize_t(arg);
    if (capacity < 1 || capacity > CACHE_MAX_CAPACITY) {
        /* Replaces the OverflowError of an int past Py_ssize_t. */
        PyErr_SetString(PyExc_ValueError, "cache capacity must be an int in 1 .. 2**30");
        return NULL;
    }
    size_t slots = 2;
    while (slots < 2 * (size_t)capacity) {
        slots <<= 1;
    }
    DistanceCache *c = (DistanceCache *)calloc(1, sizeof(DistanceCache));
    if (c != NULL) {
        c->entries = (CacheEntry *)malloc((size_t)capacity * sizeof(CacheEntry));
        c->table = (int32_t *)malloc(slots * sizeof(int32_t));
    }
    if (c == NULL || c->entries == NULL || c->table == NULL) {
        cache_free(c);
        return PyErr_NoMemory();
    }
    c->capacity = capacity;
    c->mask = slots - 1;
    cache_clear(c);
    PyObject *capsule = PyCapsule_New(c, CACHE_CAPSULE, cache_destructor);
    if (capsule == NULL) {
        cache_free(c);
    }
    return capsule;
}

/* Borrow a cache call's (ids, out, stages): 2k int32 / int64 ids, sources
 * and targets interleaved, k writable float64 distances and, unless
 * stages_obj is None, k writable uint8 stage ids.  0, or -1 with the views
 * released and a TypeError / ValueError set. */
static int borrow_answers(PyObject *ids_obj, PyObject *out_obj, PyObject *stages_obj,
                          Py_buffer *views) {
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE;
    if (borrow_ints(ids_obj, &views[0], 0, 0) < 0 ||
        PyObject_GetBuffer(out_obj, &views[1], flags) < 0 ||
        (stages_obj != Py_None && PyObject_GetBuffer(stages_obj, &views[2], flags) < 0)) {
        release_views(views, 3);
        return -1;
    }
    Py_ssize_t k = views[0].len / views[0].itemsize / 2;
    if (views[0].len / views[0].itemsize != 2 * k || views[1].itemsize != 8 ||
        views[1].len != 8 * k ||
        (views[2].obj != NULL && (views[2].itemsize != 1 || views[2].len != k))) {
        release_views(views, 3);
        PyErr_SetString(PyExc_ValueError,
                        "a cache batch is 2k interleaved ids, k float64 distances "
                        "and k uint8 stages");
        return -1;
    }
    return 0;
}

/* cache_probe(cache, ids, epoch, out, stages) -> hits.  Pair i found at
 * `epoch` gets out[i] and stages[i] = 0; every other pair stages[i] = 1,
 * its out[i] untouched.  Pairs are probed in order, so a batch leaves the
 * entries, their order and the counters as one probe per pair would. */
static PyObject *cache_probe(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "cache_probe(cache, ids, epoch, out, stages) takes 5 arguments");
        return NULL;
    }
    DistanceCache *c = cache_from_arg(args[0]);
    if (c == NULL) {
        return NULL;
    }
    long epoch = PyLong_AsLong(args[2]);
    if (epoch == -1 && PyErr_Occurred()) {
        return NULL;
    }
    Py_buffer views[3] = {{0}};
    if (args[4] == Py_None) {
        PyErr_SetString(PyExc_TypeError, "cache_probe needs a stages buffer");
        return NULL;
    }
    if (borrow_answers(args[1], args[3], args[4], views) < 0) {
        return NULL;
    }
    double *out = (double *)views[1].buf;
    uint8_t *stages = (uint8_t *)views[2].buf;
    Py_ssize_t k = views[1].len / 8, hits = 0;
    for (Py_ssize_t i = 0; i < k; i++) {
        int hit = cache_get(c, read_id(&views[0], 2 * i), read_id(&views[0], 2 * i + 1),
                            epoch, &out[i]);
        stages[i] = (uint8_t)!hit;
        hits += hit;
    }
    c->hits += hits;
    c->misses += k - hits;
    release_views(views, 3);
    return PyLong_FromSsize_t(hits);
}

/* cache_fill(cache, ids, out, stages, epoch) -> None: every pair, in order,
 * or with stages only those whose stage is not 0 (the ones a probe missed),
 * cached with its out distance at `epoch`. */
static PyObject *cache_fill(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "cache_fill(cache, ids, out, stages, epoch) takes 5 arguments");
        return NULL;
    }
    DistanceCache *c = cache_from_arg(args[0]);
    if (c == NULL) {
        return NULL;
    }
    long epoch = PyLong_AsLong(args[4]);
    if (epoch == -1 && PyErr_Occurred()) {
        return NULL;
    }
    Py_buffer views[3] = {{0}};
    if (borrow_answers(args[1], args[2], args[3], views) < 0) {
        return NULL;
    }
    const double *out = (const double *)views[1].buf;
    const uint8_t *stages = (const uint8_t *)views[2].buf;
    Py_ssize_t k = views[1].len / 8;
    for (Py_ssize_t i = 0; i < k; i++) {
        if (stages == NULL || stages[i] != 0) {
            cache_put(c, read_id(&views[0], 2 * i), read_id(&views[0], 2 * i + 1), out[i],
                      epoch);
        }
    }
    release_views(views, 3);
    Py_INCREF(Py_None);
    return Py_None;
}

/* cache_invalidate(cache) -> how many entries were dropped (all of them). */
static PyObject *cache_invalidate(PyObject *self, PyObject *arg) {
    (void)self;
    DistanceCache *c = cache_from_arg(arg);
    if (c == NULL) {
        return NULL;
    }
    Py_ssize_t count = c->size;
    cache_clear(c);
    c->invalidated += count;
    return PyLong_FromSsize_t(count);
}

/* cache_contains(cache, source, target) -> whether the pair has an entry, of
 * any epoch; the LRU order and the counters stay as they are. */
static PyObject *cache_contains(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "cache_contains(cache, source, target) takes 3 arguments");
        return NULL;
    }
    DistanceCache *c = cache_from_arg(args[0]);
    if (c == NULL) {
        return NULL;
    }
    long s = PyLong_AsLong(args[1]);
    if (s == -1 && PyErr_Occurred()) {
        return NULL;
    }
    long t = PyLong_AsLong(args[2]);
    if (t == -1 && PyErr_Occurred()) {
        return NULL;
    }
    int64_t lo = s <= t ? s : t, hi = s <= t ? t : s;
    return PyBool_FromLong(c->table[cache_slot(c, lo, hi)] != CACHE_NONE);
}

/* cache_stats(cache, out) -> None: writes size, hits, misses, stale
 * rejections, invalidated and evictions into six int64s. */
static PyObject *cache_stats(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "cache_stats(cache, out) takes 2 arguments");
        return NULL;
    }
    DistanceCache *c = cache_from_arg(args[0]);
    if (c == NULL) {
        return NULL;
    }
    Py_buffer view;
    if (borrow_ints(args[1], &view, 1, 1) < 0) {
        return NULL;
    }
    if (view.len != C_NSTATS * 8) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, "cache_stats writes six int64 counters");
        return NULL;
    }
    int64_t *out = (int64_t *)view.buf;
    out[C_SIZE] = c->size;
    out[C_HITS] = c->hits;
    out[C_MISSES] = c->misses;
    out[C_STALE] = c->stale;
    out[C_INVALIDATED] = c->invalidated;
    out[C_EVICTIONS] = c->evictions;
    PyBuffer_Release(&view);
    Py_INCREF(Py_None);
    return Py_None;
}

/* ------------------------------------------------------------------ */
/* CSR search graph                                                   */
/* ------------------------------------------------------------------ */

/* Heap entries mirror heapq's (distance, original-vertex-id) tuples; the row
 * rides along so relaxation never maps ids back to rows. */
typedef struct {
    double dist;
    int64_t id;
    int64_t row;
} HeapEntry;

typedef struct {
    HeapEntry *items;
    Py_ssize_t size;
    Py_ssize_t cap;
} Heap;

static inline int heap_less(const HeapEntry *a, const HeapEntry *b) {
    if (a->dist != b->dist) {
        return a->dist < b->dist;
    }
    return a->id < b->id;
}

static int heap_push(Heap *heap, double dist, int64_t id, int64_t row) {
    if (heap->size == heap->cap) {
        Py_ssize_t cap = heap->cap ? heap->cap * 2 : 256;
        HeapEntry *items = (HeapEntry *)realloc(heap->items,
                                                (size_t)cap * sizeof(HeapEntry));
        if (items == NULL) {
            return -1;
        }
        heap->items = items;
        heap->cap = cap;
    }
    Py_ssize_t i = heap->size++;
    HeapEntry entry = {dist, id, row};
    while (i > 0) {
        Py_ssize_t parent = (i - 1) / 2;
        if (!heap_less(&entry, &heap->items[parent])) {
            break;
        }
        heap->items[i] = heap->items[parent];
        i = parent;
    }
    heap->items[i] = entry;
    return 0;
}

static HeapEntry heap_pop(Heap *heap) {
    HeapEntry top = heap->items[0];
    HeapEntry last = heap->items[--heap->size];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= heap->size) {
            break;
        }
        if (child + 1 < heap->size &&
            heap_less(&heap->items[child + 1], &heap->items[child])) {
            child++;
        }
        if (!heap_less(&heap->items[child], &last)) {
            break;
        }
        heap->items[i] = heap->items[child];
        i = child;
    }
    heap->items[i] = last;
    return top;
}

enum { S_IDS, S_INDPTR, S_INDICES, S_WEIGHTS, S_NVIEWS };

typedef struct {
    int64_t n;
    Py_buffer views[S_NVIEWS];
    const int64_t *ids;
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    /* Elimination tree of the rows (see tree_parents), or NULL when the rows
     * do not form one: parent[r] is the lowest upward neighbour of row r, -1
     * at a root. */
    int64_t *parent;
    /* Reusable per-query scratch (validity tracked by query stamps, so a new
     * query never pays an O(n) reset).  A search runs without the GIL, so the
     * scratch is guarded by `lock` (search_enter / search_leave), held for the
     * whole GIL-free part of one entry.  The arrays themselves are allocated
     * with the GIL held and before the lock is taken: a pointer is NULL only
     * while no search has ever used it, and once set it stays until
     * search_free. */
    PyThread_type_lock lock;
    int64_t stamp;
    int64_t *dist_stamp_f, *dist_stamp_b;
    int64_t *settled_stamp_f, *settled_stamp_b;
    double *dist_f, *dist_b;
    double *settled_val;
    Heap heap_f, heap_b;
    /* Tree-query scratch: +inf everywhere between queries (each query resets
     * the two ancestor chains it wrote). */
    double *tree_f, *tree_b;
} SearchGraph;

static void search_free_scratch(SearchGraph *g) {
    free(g->dist_stamp_f);
    free(g->dist_stamp_b);
    free(g->settled_stamp_f);
    free(g->settled_stamp_b);
    free(g->dist_f);
    free(g->dist_b);
    free(g->settled_val);
    g->dist_stamp_f = g->dist_stamp_b = NULL;
    g->settled_stamp_f = g->settled_stamp_b = NULL;
    g->dist_f = g->dist_b = g->settled_val = NULL;
}

static void search_free(SearchGraph *g) {
    release_views(g->views, S_NVIEWS);
    search_free_scratch(g);
    free(g->heap_f.items);
    free(g->heap_b.items);
    free(g->parent);
    free(g->tree_f);
    free(g->tree_b);
    if (g->lock != NULL) {
        PyThread_free_lock(g->lock);
    }
    free(g);
}

static void search_destructor(PyObject *capsule) {
    SearchGraph *g = (SearchGraph *)PyCapsule_GetPointer(capsule, SEARCH_CAPSULE);
    if (g != NULL) {
        search_free(g);
    }
}

/* The elimination-tree check, O(n + m).  The rows form an elimination tree
 * when (1) every arc goes to a later row, and (2) with parent[v] the lowest
 * upward neighbour of v, up(v) \ {parent[v]} is a subset of up(parent[v]).
 * By induction every upward neighbour of v is then an ancestor of v -- the
 * upward graph is chordal, as a contraction with full fill leaves it -- so the
 * upward search space of a row is exactly its ancestor chain.  Condition (2)
 * is checked one parent at a time: up(p) is stamped into a scratch row once,
 * then each child's row is looked up in it, so every row is scanned at most
 * twice.  Returns 1 and sets g->parent when both hold, 0 when they do not,
 * -1 (MemoryError set) when scratch allocation fails. */
static int tree_parents(SearchGraph *g) {
    int64_t n = g->n;
    size_t cells = (size_t)(n > 0 ? n : 1);
    int64_t *parent = (int64_t *)malloc(cells * sizeof(int64_t));
    /* first_child / next_sibling lists and the stamp row, one allocation. */
    int64_t *work = (int64_t *)malloc(3 * cells * sizeof(int64_t));
    if (parent == NULL || work == NULL) {
        free(parent);
        free(work);
        PyErr_NoMemory();
        return -1;
    }
    int64_t *first_child = work, *next_sibling = work + cells, *stamp = work + 2 * cells;
    int tree = 1;
    for (int64_t v = 0; v < n; v++) {
        first_child[v] = -1;
        stamp[v] = -1;
    }
    for (int64_t v = n - 1; v >= 0 && tree; v--) {
        int64_t p = -1;
        for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++) {
            int64_t u = g->indices[e];
            if (u <= v) {
                tree = 0;
                break;
            }
            if (p < 0 || u < p) {
                p = u;
            }
        }
        parent[v] = p;
        if (p >= 0) {
            next_sibling[v] = first_child[p];
            first_child[p] = v;
        }
    }
    for (int64_t p = 0; p < n && tree; p++) {
        if (first_child[p] < 0) {
            continue;
        }
        for (int64_t e = g->indptr[p]; e < g->indptr[p + 1]; e++) {
            stamp[g->indices[e]] = p;
        }
        for (int64_t c = first_child[p]; c >= 0 && tree; c = next_sibling[c]) {
            for (int64_t e = g->indptr[c]; e < g->indptr[c + 1]; e++) {
                int64_t u = g->indices[e];
                if (u != p && stamp[u] != p) {
                    tree = 0;
                    break;
                }
            }
        }
    }
    free(work);
    if (tree) {
        g->parent = parent;
    } else {
        free(parent);
    }
    return tree;
}

/* search_build(ids, indptr, indices, weights) -> graph capsule */
static PyObject *search_build(PyObject *self, PyObject *args) {
    PyObject *objs[S_NVIEWS];
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOO", &objs[S_IDS], &objs[S_INDPTR],
                          &objs[S_INDICES], &objs[S_WEIGHTS])) {
        return NULL;
    }
    SearchGraph *g = (SearchGraph *)calloc(1, sizeof(SearchGraph));
    if (g == NULL) {
        return PyErr_NoMemory();
    }
    const void *ptrs[S_NVIEWS];
    Py_ssize_t counts[S_NVIEWS];
    for (int i = 0; i < S_NVIEWS; i++) {
        if (borrow_buffer(objs[i], &g->views[i], &ptrs[i], &counts[i]) < 0) {
            release_views(g->views, i);
            free(g);
            return NULL;
        }
    }
    g->n = counts[S_IDS];
    g->ids = (const int64_t *)ptrs[S_IDS];
    g->indptr = (const int64_t *)ptrs[S_INDPTR];
    g->indices = (const int64_t *)ptrs[S_INDICES];
    g->weights = (const double *)ptrs[S_WEIGHTS];
    /* indptr starts at 0, never falls and ends at len(indices), so every row
     * that tree_parents and the searches walk lies inside indices. */
    int valid = counts[S_INDPTR] == g->n + 1 &&
                counts[S_INDICES] == counts[S_WEIGHTS] &&
                g->indptr[0] == 0 && g->indptr[g->n] == counts[S_INDICES];
    for (int64_t v = 0; valid && v < g->n; v++) {
        valid = g->indptr[v] <= g->indptr[v + 1];
    }
    if (valid) {
        for (int64_t e = 0; e < counts[S_INDICES]; e++) {
            if (g->indices[e] < 0 || g->indices[e] >= g->n) {
                valid = 0;
                break;
            }
        }
    }
    if (!valid) {
        search_free(g);
        PyErr_SetString(PyExc_ValueError, "search-graph CSR arrays are inconsistent");
        return NULL;
    }
    g->lock = PyThread_allocate_lock();
    if (g->lock == NULL) {
        search_free(g);
        return PyErr_NoMemory();
    }
    if (tree_parents(g) < 0) {
        search_free(g);
        return NULL;
    }
    PyObject *capsule = PyCapsule_New(g, SEARCH_CAPSULE, search_destructor);
    if (capsule == NULL) {
        search_free(g);
    }
    return capsule;
}

static SearchGraph *search_from_arg(PyObject *arg) {
    return (SearchGraph *)PyCapsule_GetPointer(arg, SEARCH_CAPSULE);
}

/* Heap-search scratch, allocated on first use.  All or nothing: a failed
 * allocation frees and NULLs every array, so the next call retries instead
 * of finding some arrays set and dereferencing the NULL ones. */
static int search_scratch(SearchGraph *g) {
    if (g->dist_stamp_f != NULL) {
        return 0;
    }
    size_t n = (size_t)(g->n > 0 ? g->n : 1);
    g->dist_stamp_f = (int64_t *)calloc(n, sizeof(int64_t));
    g->dist_stamp_b = (int64_t *)calloc(n, sizeof(int64_t));
    g->settled_stamp_f = (int64_t *)calloc(n, sizeof(int64_t));
    g->settled_stamp_b = (int64_t *)calloc(n, sizeof(int64_t));
    g->dist_f = (double *)malloc(n * sizeof(double));
    g->dist_b = (double *)malloc(n * sizeof(double));
    g->settled_val = (double *)malloc(n * sizeof(double));
    if (g->dist_stamp_f == NULL || g->dist_stamp_b == NULL ||
        g->settled_stamp_f == NULL || g->settled_stamp_b == NULL ||
        g->dist_f == NULL || g->dist_b == NULL || g->settled_val == NULL) {
        search_free_scratch(g);
        PyErr_NoMemory();
        return -1;
    }
    g->stamp = 0;
    return 0;
}

/* Tree-query scratch, the same all-or-nothing rule: both rows or neither. */
static int tree_scratch(SearchGraph *g) {
    if (g->tree_f != NULL) {
        return 0;
    }
    size_t n = (size_t)(g->n > 0 ? g->n : 1);
    g->tree_f = (double *)malloc(n * sizeof(double));
    g->tree_b = (double *)malloc(n * sizeof(double));
    if (g->tree_f == NULL || g->tree_b == NULL) {
        free(g->tree_f);
        free(g->tree_b);
        g->tree_f = g->tree_b = NULL;
        PyErr_NoMemory();
        return -1;
    }
    for (size_t r = 0; r < n; r++) {
        g->tree_f[r] = Py_HUGE_VAL;
        g->tree_b[r] = Py_HUGE_VAL;
    }
    return 0;
}

/* Relax the upward arcs of row v at distance d into dist[].  The min is
 * stored unconditionally: a conditional store may not be turned into an
 * unconditional one by the compiler, so `if (nd < dist[u]) dist[u] = nd`
 * compiles to a compare and a jump around the store, which mispredicts
 * often (it depends on the data at every arc); this form compiles to minsd
 * and one store, with the same sums and the same minimum.  Unrolling it 4x
 * (TREE_UNROLL) took another ~25% off the 80x80 DCH query (DESIGN.md
 * section 7). */
static inline void tree_relax(const SearchGraph *g, double *dist, int64_t v, double d) {
    const int64_t *nbr = g->indices + g->indptr[v];
    const int64_t *nbr_end = g->indices + g->indptr[v + 1];
    const double *wgt = g->weights + g->indptr[v];
    TREE_UNROLL
    for (; nbr < nbr_end; nbr++, wgt++) {
        double nd = d + *wgt;
        double old = dist[*nbr];
        dist[*nbr] = nd < old ? nd : old;
    }
}

/* Elimination-tree CH query (the query of Customizable Contraction
 * Hierarchies): the upward search space of a row is its ancestor chain, so
 * no priority queue is needed.  Walking a chain bottom-up evaluates each
 * f[v] = min_u fl(f[u] + w(u, v)) over the same arcs, in the same DAG order,
 * that the upward Dijkstra of ch_bidirectional_query settles, and the answer
 * is min_v fl(f[v] + b[v]) over the common ancestors -- the value that
 * search's pruned candidates reduce to, bit for bit (fl(a + w) >= a for
 * w >= 0, so a row skipped at distance >= best cannot lower best).  Rows are
 * reset to +inf as soon as they are read, so both chains are clean when the
 * query returns.  Nearly all of a query's time is tree_relax's arcs (two
 * chains of up to ~32 k at 80x80), relaxed by a branch-free min: see
 * there.  Runs without the GIL, under the scratch lock, over the scratch
 * tree_scratch allocated; it cannot fail. */
SEARCH_ALIGN static double search_tree(SearchGraph *g, int64_t rs, int64_t rt) {
    if (rs == rt) {
        return 0.0;
    }
    const int64_t *parent = g->parent;
    double *f = g->tree_f;
    double *b = g->tree_b;
    f[rs] = 0.0;
    b[rt] = 0.0;
    /* Step the lower of the two chains until they meet. */
    int64_t x = rs, y = rt;
    while (x != y) {
        int64_t *low = x < y ? &x : &y;
        double *dist = x < y ? f : b;
        int64_t v = *low;
        double d = dist[v];
        dist[v] = Py_HUGE_VAL;
        if (d < Py_HUGE_VAL) {
            tree_relax(g, dist, v, d);
        }
        *low = parent[v];
        if (*low < 0) {
            /* Different trees of the forest: clear what the other chain
             * wrote (every row it can still reach is above it). */
            for (int64_t r = x < 0 ? y : x; r >= 0; r = parent[r]) {
                f[r] = b[r] = Py_HUGE_VAL;
            }
            return Py_HUGE_VAL;
        }
    }
    /* The common ancestors, from the meeting row to the root. */
    double best = Py_HUGE_VAL;
    for (int64_t v = x; v >= 0; v = parent[v]) {
        double fv = f[v], bv = b[v];
        f[v] = b[v] = Py_HUGE_VAL;
        double candidate = fv + bv;
        if (candidate < best) {
            best = candidate;
        }
        if (fv < best) {
            tree_relax(g, f, v, fv);
        }
        if (bv < best) {
            tree_relax(g, b, v, bv);
        }
    }
    return best;
}

/* What a search loop records when it fails without the GIL; search_raise
 * turns it into a Python error once the GIL is back.  SEARCH_NO_MEMORY is a
 * heap_push whose realloc fails: tests/test_kernels.py reaches it in a child
 * process that caps its own address space (RLIMIT_AS) before a search that
 * must grow the heap (TestSearchesReleaseTheGIL). */
enum { SEARCH_OK = 0, SEARCH_NO_MEMORY, SEARCH_ROW_RANGE };

/* Bidirectional Dijkstra (GraphSnapshot.bidijkstra), a literal port of the
 * Python reference: same alternation, same lazy deletion, same float
 * arithmetic, and the same stop rule, best <= top_f + top_b.  Runs without
 * the GIL, under the scratch lock, over the scratch search_scratch
 * allocated; sets *failed to SEARCH_NO_MEMORY when a heap cannot grow. */
static double search_bidirectional(SearchGraph *g, int64_t rs, int64_t rt,
                                   int *failed) {
    if (rs == rt) {
        return 0.0;
    }
    int64_t stamp = ++g->stamp;
    Heap *hf = &g->heap_f;
    Heap *hb = &g->heap_b;
    hf->size = 0;
    hb->size = 0;
    g->dist_f[rs] = 0.0;
    g->dist_stamp_f[rs] = stamp;
    g->dist_b[rt] = 0.0;
    g->dist_stamp_b[rt] = stamp;
    if (heap_push(hf, 0.0, g->ids[rs], rs) < 0 ||
        heap_push(hb, 0.0, g->ids[rt], rt) < 0) {
        *failed = SEARCH_NO_MEMORY;
        return 0.0;
    }
    double best = Py_HUGE_VAL;
    while (hf->size > 0 || hb->size > 0) {
        double top_f = hf->size ? hf->items[0].dist : Py_HUGE_VAL;
        double top_b = hb->size ? hb->items[0].dist : Py_HUGE_VAL;
        if (best <= top_f + top_b) {
            break;
        }
        int forward = top_f <= top_b && hf->size > 0;
        if (!forward && hb->size == 0) {
            break;
        }
        Heap *heap = forward ? hf : hb;
        int64_t *settled_stamp = forward ? g->settled_stamp_f : g->settled_stamp_b;
        int64_t *dist_stamp = forward ? g->dist_stamp_f : g->dist_stamp_b;
        double *dist = forward ? g->dist_f : g->dist_b;
        int64_t *other_dist_stamp = forward ? g->dist_stamp_b : g->dist_stamp_f;
        double *other_dist = forward ? g->dist_b : g->dist_f;
        HeapEntry top = heap_pop(heap);
        int64_t v = top.row;
        if (settled_stamp[v] == stamp) {
            continue;
        }
        settled_stamp[v] = stamp;
        if (other_dist_stamp[v] == stamp) {
            double candidate = top.dist + other_dist[v];
            if (candidate < best) {
                best = candidate;
            }
        }
        const int64_t *nbr = g->indices + g->indptr[v];
        const int64_t *nbr_end = g->indices + g->indptr[v + 1];
        const double *wgt = g->weights + g->indptr[v];
        for (; nbr < nbr_end; nbr++, wgt++) {
            int64_t u = *nbr;
            double nd = top.dist + *wgt;
            double du = (dist_stamp[u] == stamp) ? dist[u] : Py_HUGE_VAL;
            if (nd < du) {
                dist[u] = nd;
                dist_stamp[u] = stamp;
                if (heap_push(heap, nd, g->ids[u], u) < 0) {
                    *failed = SEARCH_NO_MEMORY;
                    return 0.0;
                }
                if (other_dist_stamp[u] == stamp) {
                    double candidate = nd + other_dist[u];
                    if (candidate < best) {
                        best = candidate;
                    }
                }
            }
        }
    }
    return best;
}

/* One pair: ch_mode 1 is the CH query (ShortcutStore), which walks the two
 * ancestor chains; ch_mode 0 is the bidirectional Dijkstra (GraphSnapshot).
 * *failed is written only on failure. */
static inline double search_pair(SearchGraph *g, int64_t rs, int64_t rt,
                                 int ch_mode, int *failed) {
    if (ch_mode) {
        return search_tree(g, rs, rt);
    }
    return search_bidirectional(g, rs, rt, failed);
}

/* A CH query needs the elimination tree: 0, or -1 with ValueError set. */
static int check_ch_mode(const SearchGraph *g, long ch_mode) {
    if (ch_mode && g->parent == NULL) {
        PyErr_SetString(PyExc_ValueError,
                        "CH query over rows that do not form an elimination tree");
        return -1;
    }
    return 0;
}

static inline int row_out_of_range(const SearchGraph *g, int64_t r) {
    return r < 0 || r >= g->n;
}

/* Every row of a caller's array in range, checked with the GIL held: 0, or
 * -1 with IndexError set. */
static int check_rows(const SearchGraph *g, const int64_t *rows, Py_ssize_t m) {
    for (Py_ssize_t i = 0; i < m; i++) {
        if (row_out_of_range(g, rows[i])) {
            PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
            return -1;
        }
    }
    return 0;
}

/* A caller's row read once, by a GIL-free loop: the array may be written by
 * another thread meanwhile, so the loop checks the value it read, not a
 * reload of it. */
static inline int64_t read_row(const int64_t *rows, Py_ssize_t i) {
    return ((const volatile int64_t *)rows)[i];
}

/* The scratch a search of this mode uses, allocated with the GIL held: 0, or
 * -1 with MemoryError set. */
static int search_prepare(SearchGraph *g, int ch_mode) {
    return ch_mode ? tree_scratch(g) : search_scratch(g);
}

/* Take g's scratch lock and release the GIL; returns the thread state
 * search_leave restores.  Called with the GIL held.  The lock is first tried
 * without blocking, and waited for only once the GIL is released; and
 * search_leave drops the lock before it waits for the GIL.  So no thread
 * waits for a scratch lock while it holds the GIL, nor for the GIL while it
 * holds a scratch lock. */
static PyThreadState *search_enter(SearchGraph *g) {
    int locked = PyThread_acquire_lock(g->lock, NOWAIT_LOCK);
    PyThreadState *state = PyEval_SaveThread();
    if (!locked) {
        PyThread_acquire_lock(g->lock, WAIT_LOCK);
    }
    return state;
}

static void search_leave(SearchGraph *g, PyThreadState *state) {
    PyThread_release_lock(g->lock);
    PyEval_RestoreThread(state);
}

/* The typed error for what a GIL-free loop recorded; the GIL is held. */
static PyObject *search_raise(int failed) {
    if (failed == SEARCH_NO_MEMORY) {
        return PyErr_NoMemory();
    }
    PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
    return NULL;
}

/* is_tree(graph) -> whether the rows form an elimination tree */
static PyObject *search_is_tree(PyObject *self, PyObject *arg) {
    (void)self;
    SearchGraph *g = search_from_arg(arg);
    if (g == NULL) {
        return NULL;
    }
    return PyBool_FromLong(g->parent != NULL);
}

/* bidijkstra(graph, rs, rt, ch_mode) -> distance */
static PyObject *search_query(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "search(graph, rs, rt, ch_mode) takes 4 arguments");
        return NULL;
    }
    SearchGraph *g = search_from_arg(args[0]);
    if (g == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    long rt = PyLong_AsLong(args[2]);
    long ch_mode = PyLong_AsLong(args[3]);
    if ((rs == -1 || rt == -1 || ch_mode == -1) && PyErr_Occurred()) {
        return NULL;
    }
    if (check_ch_mode(g, ch_mode) < 0) {
        return NULL;
    }
    if (rs < 0 || rs >= g->n || rt < 0 || rt >= g->n) {
        PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
        return NULL;
    }
    if (search_prepare(g, ch_mode != 0) < 0) {
        return NULL;
    }
    int failed = SEARCH_OK;
    PyThreadState *state = search_enter(g);
    double result = search_pair(g, rs, rt, ch_mode != 0, &failed);
    search_leave(g, state);
    if (failed) {
        return search_raise(failed);
    }
    return PyFloat_FromDouble(result);
}

/* search_query_ids(graph, ids, idmap, out, ch_mode) -> position of the first
 * id with no row, or -1: query_ids for a search graph.  The ids are mapped
 * into a private row buffer with the GIL held (so no other thread can change
 * them under the loop), then the pairs are searched without it. */
SEARCH_ALIGN static PyObject *search_query_ids(PyObject *self, PyObject *const *args,
                                               Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "search_query_ids(graph, ids, idmap, out, ch_mode) takes 5 arguments");
        return NULL;
    }
    SearchGraph *g = search_from_arg(args[0]);
    if (g == NULL) {
        return NULL;
    }
    long ch_mode = PyLong_AsLong(args[4]);
    if ((ch_mode == -1 && PyErr_Occurred()) || check_ch_mode(g, ch_mode) < 0) {
        return NULL;
    }
    Py_buffer views[3] = {{0}};
    IdMap map;
    if (borrow_batch(args + 1, views, &map) < 0) {
        return NULL;
    }
    double *out = (double *)views[2].buf;
    Py_ssize_t m = views[0].len / views[0].itemsize;
    int64_t *rows = (int64_t *)malloc((m > 0 ? m : 1) * sizeof(int64_t));
    PyObject *result = NULL;
    Py_ssize_t missing = -1;
    if (rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        rows[i] = idmap_row(&map, read_id(&views[0], i));
        if (rows[i] < 0) {
            missing = i;
            break;
        }
    }
    if (missing < 0) {
        if (check_rows(g, rows, m) < 0 || search_prepare(g, ch_mode != 0) < 0) {
            goto done;
        }
        int failed = SEARCH_OK;
        PyThreadState *state = search_enter(g);
        for (Py_ssize_t i = 0; i < m && !failed; i += 2) {
            out[i / 2] = search_pair(g, rows[i], rows[i + 1], ch_mode != 0, &failed);
        }
        search_leave(g, state);
        if (failed) {
            search_raise(failed);
            goto done;
        }
    }
    result = PyLong_FromSsize_t(missing);
done:
    free(rows);
    release_views(views, 3);
    return result;
}

/* The truncated Dijkstra of search_one_to_many, without the GIL and under the
 * scratch lock: SEARCH_OK, or what failed. */
static int search_truncated(SearchGraph *g, int64_t rs, const int64_t *t_rows,
                            double *out, Py_ssize_t m) {
    int64_t stamp = ++g->stamp;
    /* dist_stamp_b doubles as the "is a pending target" marker. */
    int64_t remaining = 0;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rt = read_row(t_rows, i);
        if (row_out_of_range(g, rt)) {
            return SEARCH_ROW_RANGE;
        }
        if (g->dist_stamp_b[rt] != stamp) {
            g->dist_stamp_b[rt] = stamp;
            remaining++;
        }
    }
    Heap *heap = &g->heap_f;
    heap->size = 0;
    g->dist_f[rs] = 0.0;
    g->dist_stamp_f[rs] = stamp;
    if (heap_push(heap, 0.0, g->ids[rs], rs) < 0) {
        return SEARCH_NO_MEMORY;
    }
    while (heap->size > 0) {
        HeapEntry top = heap_pop(heap);
        int64_t v = top.row;
        if (g->settled_stamp_f[v] == stamp) {
            continue;
        }
        g->settled_stamp_f[v] = stamp;
        g->settled_val[v] = top.dist;
        if (g->dist_stamp_b[v] == stamp) {
            g->dist_stamp_b[v] = stamp - 1; /* discard from remaining */
            if (--remaining == 0) {
                break;
            }
        }
        const int64_t *nbr = g->indices + g->indptr[v];
        const int64_t *nbr_end = g->indices + g->indptr[v + 1];
        const double *wgt = g->weights + g->indptr[v];
        for (; nbr < nbr_end; nbr++, wgt++) {
            int64_t u = *nbr;
            double nd = top.dist + *wgt;
            double du = (g->dist_stamp_f[u] == stamp) ? g->dist_f[u] : Py_HUGE_VAL;
            if (nd < du) {
                g->dist_f[u] = nd;
                g->dist_stamp_f[u] = stamp;
                if (heap_push(heap, nd, g->ids[u], u) < 0) {
                    return SEARCH_NO_MEMORY;
                }
            }
        }
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rt = read_row(t_rows, i);
        if (row_out_of_range(g, rt)) {
            return SEARCH_ROW_RANGE;
        }
        out[i] = (g->settled_stamp_f[rt] == stamp) ? g->settled_val[rt] : Py_HUGE_VAL;
    }
    return SEARCH_OK;
}

/* one_to_many(graph, rs, t_rows, out): one truncated Dijkstra from rs -- a
 * literal port of repro.algorithms.dijkstra.dijkstra_one_to_many.  Settle-time
 * distances are recorded separately so the output matches the reference's
 * `settled` dict byte for byte. */
static PyObject *search_one_to_many(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "one_to_many(graph, rs, t_rows, out) takes 4 arguments");
        return NULL;
    }
    SearchGraph *g = search_from_arg(args[0]);
    if (g == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    if (rs == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= g->n) {
        PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
        return NULL;
    }
    Py_buffer t_view, out_view;
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        return NULL;
    }
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = t_view.len / 8;
    PyObject *result = NULL;
    if (check_rows(g, t_rows, m) == 0 && search_scratch(g) == 0) {
        PyThreadState *state = search_enter(g);
        int failed = search_truncated(g, rs, t_rows, out, m);
        search_leave(g, state);
        if (failed) {
            search_raise(failed);
        } else {
            Py_INCREF(Py_None);
            result = Py_None;
        }
    }
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    return result;
}

/* ------------------------------------------------------------------ */
/* Slot maintenance (flat shortcut weights, supporter slot pairs)     */
/* ------------------------------------------------------------------ */

/* Borrow a C-contiguous buffer of `itemsize`-byte items, floats ('d') or
 * signed integers ('i') by `kind`, writable when asked; a TypeError
 * otherwise. */
static int borrow_typed(PyObject *obj, Py_buffer *view, char kind, Py_ssize_t itemsize,
                        int writable) {
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        return -1;
    }
    const char *format = view->format != NULL ? view->format : "B";
    if (*format == '<' || *format == '=' || *format == '@') {
        format++;
    }
    char c = format[0];
    int ok = view->itemsize == itemsize && c != '\0' && format[1] == '\0' &&
             (kind == 'd' ? c == 'd'
                          : c == 'b' || c == 'h' || c == 'i' || c == 'l' || c == 'q' || c == 'n');
    if (!ok) {
        PyBuffer_Release(view);
        view->obj = NULL;
        PyErr_SetString(PyExc_TypeError,
                        "maintenance buffers are float64 values, int32 supporter slots, "
                        "int8 masks and int64 offsets / rows");
        return -1;
    }
    return 0;
}

/* Whether some slots[k], lo <= k < hi, lies outside [0, limit): eight
 * independent flags per block (a fixed-width body the compiler turns into
 * vector compares; the scan of every supporter record is most of a pass's
 * checks), then the tail. */
static inline int32_t slot_out_of_range(const int32_t *slots, int64_t lo, int64_t hi,
                                        int32_t limit) {
    int32_t flags[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t k = lo;
    for (; k + 8 <= hi; k += 8) {
        for (int j = 0; j < 8; j++) {
            flags[j] |= (slots[k + j] < 0) | (slots[k + j] >= limit);
        }
    }
    for (; k < hi; k++) {
        flags[0] |= (slots[k] < 0) | (slots[k] >= limit);
    }
    int32_t any = 0;
    for (int j = 0; j < 8; j++) {
        any |= flags[j];
    }
    return any;
}

/* The shape checks of update_slots, all before its first write: lengths
 * agree (the row mask and the escaped rows hold 0 or n entries, the changed
 * flags m, the counters 3; m below 2^31, all int32 slots can name), both
 * offset arrays start at 0 and are monotone,
 * every row's columns lie above the row and below n, every supporter slot
 * lies in a row below its target slot's row, every seed is a row.  0, or -1
 * with a ValueError set. */
static int check_slots(const int64_t *indptr, Py_ssize_t n_indptr, const int64_t *indices,
                       Py_ssize_t m, Py_ssize_t n_base, Py_ssize_t n_weights,
                       const int64_t *sup_indptr, Py_ssize_t n_sup_indptr,
                       const int32_t *sup_slots, Py_ssize_t n_sup_slots,
                       const int64_t *seeds, Py_ssize_t n_seeds, Py_ssize_t n_mask,
                       Py_ssize_t n_escaped, Py_ssize_t n_changed, Py_ssize_t n_counts) {
    const char *error = NULL;
    Py_ssize_t n = n_indptr - 1;
    if (n_indptr < 1 || n_base != m || n_weights != m || n_sup_indptr != m + 1 ||
        n_sup_slots % 2 != 0 || indptr[0] != 0 || indptr[n] != m ||
        sup_indptr[0] != 0 || sup_indptr[m] != n_sup_slots / 2 ||
        (n_mask != 0 && n_mask != n) || (n_escaped != 0 && n_escaped != n) ||
        n_changed != m || n_counts != 3 || m > INT32_MAX) {
        error = "slot array lengths disagree";
        goto done;
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        if (indptr[r] > indptr[r + 1]) {
            error = "row offsets are not monotone";
            goto done;
        }
    }
    for (Py_ssize_t s = 0; s < m; s++) {
        if (sup_indptr[s] > sup_indptr[s + 1]) {
            error = "supporter offsets are not monotone";
            goto done;
        }
    }
    /* Row r's slots, and their supporter records, are contiguous: each
     * range is checked with one branch-free reduction. */
    for (Py_ssize_t r = 0; r < n; r++) {
        int bad = 0;
        for (int64_t s = indptr[r]; s < indptr[r + 1]; s++) {
            bad |= (uint64_t)indices[s] - (uint64_t)(r + 1) >= (uint64_t)(n - r - 1);
        }
        if (bad) {
            error = "a slot's column is not a row above its own";
            goto done;
        }
        bad |= slot_out_of_range(sup_slots, 2 * sup_indptr[indptr[r]],
                                 2 * sup_indptr[indptr[r + 1]], (int32_t)indptr[r]);
        if (bad) {
            error = "a supporter slot is not in a row below its target's row";
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < n_seeds; i++) {
        if (seeds[i] < 0 || seeds[i] >= n) {
            error = "a seed is not a row";
            goto done;
        }
    }
done:
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
        return -1;
    }
    return 0;
}

/* Queue row r: dirty when the mask admits it (or there is none), else
 * recorded as escaped (when the caller collects escaped rows). */
static inline void mark_row(uint8_t *dirty, const int8_t *mask, Py_ssize_t n_mask,
                            int8_t *escaped, Py_ssize_t n_escaped, int64_t r) {
    if (n_mask == 0 || mask[r]) {
        dirty[r] = 1;
    } else if (n_escaped != 0) {
        escaped[r] = 1;
    }
}

/* update_slots(indptr, indices, base, sup_indptr, sup_slots, weights, seeds,
 *              mask, escaped, changed, counts) -> None
 *
 * Bottom-up shortcut maintenance over flat arrays (the shortcut pass of
 * every contraction).  Row r owns slots indptr[r]..indptr[r+1]; slot s holds
 * the shortcut from row r up to row indices[s], its graph weight base[s]
 * (inf for a non-edge) and the supporter pairs sup_slots[2k], sup_slots[2k+1]
 * for k in sup_indptr[s]..sup_indptr[s+1]: the two slots of a lower row x
 * whose sum is the shortcut's value through x.  Rows are visited in
 * ascending order from a bitmap seeded with `seeds`; every slot of a dirty
 * row becomes base min its supporter sums -- the float64 adds and `<` of a
 * fresh contraction, so values are bit-identical to one -- and a changed
 * slot (r, c) marks the owner of every pair (c, w) over r's other columns
 * w: min(c, w), always a row above r.
 *
 * A non-empty int8 `mask` (n entries) confines the pass: a seed or a marked
 * row the mask excludes is not visited but flagged in `escaped` (n entries,
 * or none to drop it) -- PostMHL's per-partition passes, whose escaped rows
 * seed the overlay pass.  Outputs accumulate, so one set of them can span a
 * batch's passes: changed[s] is set for every slot whose value changed,
 * escaped[r] for every excluded row, and counts[] gains the rows recomputed,
 * the supporter records relaxed and the slots changed.  Nothing else is
 * written: the caller passes the next epoch's weights, so a store over the
 * previous copy stays as it was.  Every input is checked first (see
 * check_slots); a failed check is a ValueError with nothing written.
 *
 * It returns None and raises with fixed messages on purpose: each C-API
 * function this file imports adds a PLT entry that moves every function
 * compiled after it, and moving the CH search code by 48 bytes made
 * the CH batch search ~7% slower on a 2-core Xeon VM.  Since the tree query
 * relaxes branch-free (tree_relax), 64 bytes of padding before search_tree,
 * and search_tree moved to 32 bytes past a cache line, left the 80x80 DCH
 * query at 16-19 us against 17-18 us (best of 5 runs of 20 k pairs, four
 * rounds, same VM): within noise.  Keep new code free of new imports
 * anyway, or re-measure the search kernels (the id entries' one import,
 * PyLong_FromSsize_t: 2 000 80x80 DCH pairs read 10.3-11.2 us/pair before
 * it, 10.3-10.6 after). */
static PyObject *update_slots(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    enum { U_INDPTR, U_INDICES, U_BASE, U_SUP_INDPTR, U_SUP_SLOTS, U_WEIGHTS, U_SEEDS,
           U_MASK, U_ESCAPED, U_CHANGED, U_COUNTS, U_NVIEWS };
    static const char kinds[U_NVIEWS] = {'i', 'i', 'd', 'i', 'i', 'd', 'i',
                                         'i', 'i', 'i', 'i'};
    static const Py_ssize_t sizes[U_NVIEWS] = {8, 8, 8, 8, 4, 8, 8, 1, 1, 1, 8};
    Py_buffer views[U_NVIEWS];
    Py_ssize_t counts[U_NVIEWS];
    PyObject *result = NULL;
    uint8_t *dirty = NULL;
    (void)self;
    if (nargs != U_NVIEWS) {
        PyErr_SetString(PyExc_TypeError,
                        "update_slots(indptr, indices, base, sup_indptr, sup_slots, "
                        "weights, seeds, mask, escaped, changed, counts) takes 11 arguments");
        return NULL;
    }
    memset(views, 0, sizeof(views));
    for (int i = 0; i < U_NVIEWS; i++) {
        int writable = i == U_WEIGHTS || i >= U_ESCAPED;
        if (borrow_typed(args[i], &views[i], kinds[i], sizes[i], writable) < 0) {
            goto done;
        }
        counts[i] = views[i].len / sizes[i];
    }
    const int64_t *indptr = (const int64_t *)views[U_INDPTR].buf;
    const int64_t *indices = (const int64_t *)views[U_INDICES].buf;
    const double *base = (const double *)views[U_BASE].buf;
    const int64_t *sup_indptr = (const int64_t *)views[U_SUP_INDPTR].buf;
    const int32_t *sup_slots = (const int32_t *)views[U_SUP_SLOTS].buf;
    double *weights = (double *)views[U_WEIGHTS].buf;
    const int64_t *seeds = (const int64_t *)views[U_SEEDS].buf;
    const int8_t *mask = (const int8_t *)views[U_MASK].buf;
    int8_t *escaped = (int8_t *)views[U_ESCAPED].buf;
    int8_t *changed = (int8_t *)views[U_CHANGED].buf;
    int64_t *work = (int64_t *)views[U_COUNTS].buf;
    Py_ssize_t n_mask = counts[U_MASK], n_escaped = counts[U_ESCAPED];
    if (check_slots(indptr, counts[U_INDPTR], indices, counts[U_INDICES], counts[U_BASE],
                    counts[U_WEIGHTS], sup_indptr, counts[U_SUP_INDPTR], sup_slots,
                    counts[U_SUP_SLOTS], seeds, counts[U_SEEDS], n_mask, n_escaped,
                    counts[U_CHANGED], counts[U_COUNTS]) < 0) {
        goto done;
    }
    Py_ssize_t n = counts[U_INDPTR] - 1;
    dirty = (uint8_t *)calloc((size_t)(n > 0 ? n : 1), 1);
    if (dirty == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t first = n;
    for (Py_ssize_t i = 0; i < counts[U_SEEDS]; i++) {
        mark_row(dirty, mask, n_mask, escaped, n_escaped, seeds[i]);
        if (seeds[i] < first) {
            first = seeds[i];
        }
    }
    for (int64_t r = first; r < n; r++) {
        if (!dirty[r]) {
            continue;
        }
        int64_t top = -1; /* highest column among the row's changed slots */
        work[0]++;
        work[1] += sup_indptr[indptr[r + 1]] - sup_indptr[indptr[r]];
        for (int64_t s = indptr[r]; s < indptr[r + 1]; s++) {
            double value = base[s];
            for (int64_t k = 2 * sup_indptr[s]; k < 2 * sup_indptr[s + 1]; k += 2) {
                double candidate = weights[sup_slots[k]] + weights[sup_slots[k + 1]];
                if (candidate < value) {
                    value = candidate;
                }
            }
            if (value != weights[s]) {
                weights[s] = value;
                changed[s] = 1;
                work[2]++;
                if (indices[s] > top) {
                    top = indices[s];
                }
            }
        }
        if (top < 0) {
            continue;
        }
        /* Pairs (c, w) of changed columns c: owner w for every column w
         * below the highest changed one, and that column itself when the
         * row has a column above it. */
        int above = 0;
        for (int64_t s = indptr[r]; s < indptr[r + 1]; s++) {
            if (indices[s] < top) {
                mark_row(dirty, mask, n_mask, escaped, n_escaped, indices[s]);
            } else if (indices[s] > top) {
                above = 1;
            }
        }
        if (above) {
            mark_row(dirty, mask, n_mask, escaped, n_escaped, top);
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    free(dirty);
    release_views(views, U_NVIEWS);
    return result;
}

/* ------------------------------------------------------------------ */
/* Label maintenance (flat dis rows, the DH2H top-down phase)         */
/* ------------------------------------------------------------------ */

/* update_labels' arguments: buffers, then the column range. */
enum { A_PARENT, A_DEPTH, A_CHILD_INDPTR, A_CHILD_ROWS, A_DIS_INDPTR, A_POS_INDPTR,
       A_POS_DATA, A_SC, A_DIS_DATA, A_SEEDS, A_ALLOWED, A_CHANGED, A_COUNTS, A_LO, A_HI,
       A_NARGS, A_NBUF = A_LO };

/* The shape checks of update_labels, all before its first write: lengths
 * agree; roots have depth 0 and parent -1, every other row's parent is a
 * row one level up; every child row is in range and names its parent; each
 * offset array starts at 0 and is monotone (dis_indptr's rows are exactly
 * depth + 1 wide); each position row ends at the row's own column and its
 * other entries are columns above it; every seed is a row; the allowed mask
 * is empty or one byte per row; 0 <= lo <= hi <= the widest row.  Sets the
 * widest row and the longest position row; 0, or -1 with a ValueError. */
static int check_labels(const Py_ssize_t *len, const int64_t *parent, const int64_t *depth,
                        const int64_t *child_indptr, const int64_t *child_rows,
                        const int64_t *dis_indptr, const int64_t *pos_indptr,
                        const int64_t *pos_data, const int64_t *seeds, Py_ssize_t lo,
                        Py_ssize_t hi, Py_ssize_t *width, Py_ssize_t *max_row) {
    const char *error = NULL;
    Py_ssize_t n = len[A_PARENT];
    if (len[A_DEPTH] != n || len[A_CHILD_INDPTR] != n + 1 || len[A_DIS_INDPTR] != n + 1 ||
        len[A_POS_INDPTR] != n + 1 || len[A_SC] != len[A_POS_DATA] ||
        len[A_CHANGED] != n || len[A_COUNTS] != 3 ||
        (len[A_ALLOWED] != 0 && len[A_ALLOWED] != n) || child_indptr[0] != 0 ||
        child_indptr[n] != len[A_CHILD_ROWS] || dis_indptr[0] != 0 ||
        dis_indptr[n] != len[A_DIS_DATA] || pos_indptr[0] != 0 ||
        pos_indptr[n] != len[A_POS_DATA]) {
        error = "label array lengths disagree";
        goto done;
    }
    *width = *max_row = 0;
    for (Py_ssize_t r = 0; r < n; r++) {
        int64_t p = parent[r];
        if (depth[r] < 0 || depth[r] >= n ||
            (p < 0 ? p != -1 || depth[r] != 0
                   : p >= n || depth[r] == 0 || depth[p] != depth[r] - 1)) {
            error = "a row's parent or depth is out of range";
            goto done;
        }
        if (dis_indptr[r + 1] - dis_indptr[r] != depth[r] + 1) {
            error = "dis offsets do not match the ancestor depths";
            goto done;
        }
        if (child_indptr[r] > child_indptr[r + 1] || pos_indptr[r] >= pos_indptr[r + 1]) {
            error = "child or position offsets are not monotone";
            goto done;
        }
        if (depth[r] + 1 > *width) {
            *width = depth[r] + 1;
        }
        if (pos_indptr[r + 1] - pos_indptr[r] > *max_row) {
            *max_row = pos_indptr[r + 1] - pos_indptr[r];
        }
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        int bad = 0;
        for (int64_t k = child_indptr[r]; k < child_indptr[r + 1]; k++) {
            bad |= (uint64_t)child_rows[k] >= (uint64_t)n || parent[child_rows[k]] != r;
        }
        if (bad) {
            error = "a child row is out of range or names another parent";
            goto done;
        }
        int64_t last = pos_indptr[r + 1] - 1;
        for (int64_t k = pos_indptr[r]; k < last; k++) {
            bad |= (uint64_t)pos_data[k] >= (uint64_t)depth[r];
        }
        if (bad || pos_data[last] != depth[r]) {
            error = "a position is not a column of its row";
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < len[A_SEEDS]; i++) {
        if (seeds[i] < 0 || seeds[i] >= n) {
            error = "a seed is not a row";
            goto done;
        }
    }
    if (lo < 0 || lo > hi || hi > *width) {
        error = "the column range is not inside the widest row";
    }
done:
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
        return -1;
    }
    return 0;
}

/* update_labels(parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr,
 *               pos_data, sc, dis_data, seeds, allowed, changed, counts, lo, hi)
 *     -> None
 *
 * One whole top-down label update (H2HLabels.update_top_down) over the flat
 * rows of a label arena: dis_data[dis_indptr[r]..] holds row r's distances
 * to its depth[r] + 1 ancestors (root first), pos_data[pos_indptr[r]..]
 * the columns of its tree neighbours X(r).N in contraction order and then
 * its own, and sc (aligned with pos_data) the shortcut to each neighbour.
 * A neighbour at column px is the ancestor at depth px.
 *
 * The seed rows (those the allowed mask, when not empty, admits) are where
 * the shortcuts changed; a seed with no seed among its proper ancestors is
 * a branch root, and the pass visits each branch root's subtree top-down
 * through allowed children.  A visited row is recomputed when it is a seed
 * or an ancestor changed, over its columns [lo, min(hi, depth + 1)): per
 * neighbour at px, columns above px relax against the neighbour's own row,
 * columns from px down against each ancestor's entry for it; the row's own
 * column is 0.0.  The minimum over those candidates does not depend on
 * the order they are read in, so the values equal the dict-of-list
 * recurrence (the oracle the tests keep) bit for bit.  A row whose
 * recomputed columns differ from the stored ones is written, flagged in
 * `changed` (one byte per row), and makes its children recompute.  counts
 * receives the rows recomputed, the columns recomputed and the columns
 * changed.
 *
 * Only dis_data, changed and counts are written; dis_data is the caller's
 * copy-on-write buffer, so a label store over an earlier one is untouched.
 * Every index is checked first (check_labels), so a failed check writes
 * nothing.  Like update_slots it returns None and imports nothing new (see
 * the placement note there). */
static PyObject *update_labels(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_buffer views[A_NBUF];
    Py_ssize_t len[A_NBUF];
    PyObject *result = NULL;
    uint8_t *scratch = NULL;
    (void)self;
    if (nargs != A_NARGS) {
        PyErr_SetString(PyExc_TypeError,
                        "update_labels(parent, depth, child_indptr, child_rows, dis_indptr, "
                        "pos_indptr, pos_data, sc, dis_data, seeds, allowed, changed, counts, "
                        "lo, hi) takes 15 arguments");
        return NULL;
    }
    memset(views, 0, sizeof(views));
    for (int a = 0; a < A_NBUF; a++) {
        int bytes = a == A_ALLOWED || a == A_CHANGED;
        int floats = a == A_SC || a == A_DIS_DATA;
        if (borrow_typed(args[a], &views[a], floats ? 'd' : 'i', bytes ? 1 : 8,
                         a == A_DIS_DATA || a == A_CHANGED || a == A_COUNTS) < 0) {
            goto done;
        }
        len[a] = views[a].len / (bytes ? 1 : 8);
    }
    Py_ssize_t lo = PyLong_AsSsize_t(args[A_LO]);
    Py_ssize_t hi = PyLong_AsSsize_t(args[A_HI]);
    if ((lo == -1 || hi == -1) && PyErr_Occurred()) {
        goto done;
    }
    const int64_t *parent = (const int64_t *)views[A_PARENT].buf;
    const int64_t *depth = (const int64_t *)views[A_DEPTH].buf;
    const int64_t *child_indptr = (const int64_t *)views[A_CHILD_INDPTR].buf;
    const int64_t *child_rows = (const int64_t *)views[A_CHILD_ROWS].buf;
    const int64_t *dis_indptr = (const int64_t *)views[A_DIS_INDPTR].buf;
    const int64_t *pos_indptr = (const int64_t *)views[A_POS_INDPTR].buf;
    const int64_t *pos_data = (const int64_t *)views[A_POS_DATA].buf;
    const double *sc = (const double *)views[A_SC].buf;
    double *dis = (double *)views[A_DIS_DATA].buf;
    const int64_t *seeds = (const int64_t *)views[A_SEEDS].buf;
    const int8_t *allowed = len[A_ALLOWED] ? (const int8_t *)views[A_ALLOWED].buf : NULL;
    int8_t *changed = (int8_t *)views[A_CHANGED].buf;
    int64_t *out = (int64_t *)views[A_COUNTS].buf;
    Py_ssize_t n = len[A_PARENT], width = 0, max_row = 0;
    if (check_labels(len, parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr,
                     pos_data, seeds, lo, hi, &width, &max_row) < 0) {
        goto done;
    }
    /* One allocation: order / stack / ancestor starts / a row's neighbour
     * columns (int64), a new row and a row's neighbour shortcuts (float64),
     * seed marks and flags (bytes). */
    size_t n1 = (size_t)n + 1, w1 = (size_t)width + 1, k1 = (size_t)max_row + 1;
    scratch = (uint8_t *)calloc(1, (2 * n1 + 2 * w1 + 2 * k1) * 8 + 2 * n1);
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *order = (int64_t *)scratch, *stack = order + n1, *start = stack + n1;
    int64_t *nb_px = start + w1;
    double *row_new = (double *)(nb_px + k1), *nb_sc = row_new + w1;
    uint8_t *seed = (uint8_t *)(nb_sc + k1), *flag = seed + n1;
    for (Py_ssize_t i = 0; i < len[A_SEEDS]; i++) {
        if (allowed == NULL || allowed[seeds[i]]) {
            seed[seeds[i]] = 1;
        }
    }
    /* The branch roots' subtrees, top-down (flag marks the roots taken). */
    Py_ssize_t visits = 0;
    for (Py_ssize_t i = 0; i < len[A_SEEDS]; i++) {
        int64_t root = seeds[i], p = parent[root];
        if (!seed[root] || flag[root]) {
            continue;
        }
        while (p >= 0 && !seed[p]) {
            p = parent[p];
        }
        if (p >= 0) {
            continue;
        }
        flag[root] = 1;
        Py_ssize_t top = 0;
        stack[top++] = root;
        while (top > 0) {
            int64_t r = stack[--top];
            order[visits++] = r;
            for (int64_t k = child_indptr[r]; k < child_indptr[r + 1]; k++) {
                if (allowed == NULL || allowed[child_rows[k]]) {
                    stack[top++] = child_rows[k];
                }
            }
        }
    }
    memset(changed, 0, (size_t)n);
    memset(flag, 0, n1);
    out[0] = out[1] = out[2] = 0;
    for (Py_ssize_t i = 0; i < visits; i++) {
        int64_t r = order[i], p = parent[r];
        /* A branch root's parent is never visited: its flag stays 0. */
        uint8_t ancestor_changed = p >= 0 ? flag[p] : 0;
        flag[r] = ancestor_changed;
        if (!seed[r] && !ancestor_changed) {
            continue;
        }
        int64_t m = depth[r] + 1, a = lo, b = hi < m ? hi : m;
        out[0]++;
        if (a >= b) {
            continue;
        }
        for (int64_t d = m - 1, x = r; d >= 0; d--, x = parent[x]) {
            start[d] = dis_indptr[x];
        }
        /* The row's neighbours by column (insertion sort). */
        int64_t k0 = pos_indptr[r], nk = pos_indptr[r + 1] - 1 - k0;
        for (int64_t i = 0; i < nk; i++) {
            int64_t px = pos_data[k0 + i], at = i;
            for (; at > 0 && nb_px[at - 1] > px; at--) {
                nb_px[at] = nb_px[at - 1];
                nb_sc[at] = nb_sc[at - 1];
            }
            nb_px[at] = px;
            nb_sc[at] = sc[k0 + i];
        }
        for (int64_t j = a; j < b; j++) {
            row_new[j] = Py_HUGE_VAL;
        }
        /* Columns above a neighbour at px: its own row, contiguous. */
        for (int64_t i = 0; i < nk; i++) {
            const double *x_row = dis + start[nb_px[i]];
            double s = nb_sc[i];
            int64_t end = nb_px[i] < b ? nb_px[i] : b;
            for (int64_t j = a; j < end; j++) {
                double candidate = s + x_row[j];
                row_new[j] = candidate < row_new[j] ? candidate : row_new[j];
            }
        }
        /* Columns from px down: one ancestor row at a time, its entries for
         * the neighbours at or above it. */
        int64_t end = m - 1 < b ? m - 1 : b, above = 0;
        for (int64_t j = a; j < end; j++) {
            while (above < nk && nb_px[above] <= j) {
                above++;
            }
            const double *anc_row = dis + start[j];
            double best = row_new[j];
            for (int64_t i = 0; i < above; i++) {
                double candidate = nb_sc[i] + anc_row[nb_px[i]];
                best = candidate < best ? candidate : best;
            }
            row_new[j] = best;
        }
        if (b == m) {
            row_new[m - 1] = 0.0;
        }
        double *row = dis + start[m - 1];
        int64_t moved = 0;
        for (int64_t j = a; j < b; j++) {
            if (row_new[j] != row[j]) {
                row[j] = row_new[j];
                moved++;
            }
        }
        out[1] += b - a;
        out[2] += moved;
        if (moved) {
            changed[r] = 1;
            flag[r] = 1;
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    free(scratch);
    release_views(views, A_NBUF);
    return result;
}

/* ------------------------------------------------------------------ */
/* Symbolic elimination (order, slot topology, supporter CSR)         */
/* ------------------------------------------------------------------ */

static const char *ELIMINATION_CAPSULE = "repro.kernels.elimination";

/* One graph's elimination, between eliminate and eliminate_slots.  Vertices
 * are named by key: the rank of their id among the graph's ids, so ascending
 * key is ascending id.  Round i's row, rows[i], holds its columns' keys
 * ascending (row_ptr[i+1] - row_ptr[i] of them); slot s is graph edge
 * col_edge[s] (an index into orig_key / edge_w, the graph's rows in key
 * space), or -1 for fill-in.  Nothing is block-copied: a copy loop the
 * compiler turns into memcpy would import it (see update_slots on
 * imports). */
typedef struct {
    int64_t n;
    int64_t m;
    int64_t records;
    int64_t *rank;     /* n: the round of each key */
    int64_t *row_ptr;  /* n + 1 */
    int64_t **rows;    /* n */
    int64_t *col_edge; /* m */
    int64_t *orig_key; /* edges */
    double *edge_w;    /* edges */
} Elimination;

static void elimination_free(Elimination *el) {
    if (el != NULL) {
        for (int64_t i = 0; el->rows != NULL && i < el->n; i++) {
            free(el->rows[i]);
        }
        free(el->rows);
        free(el->rank);
        free(el->row_ptr);
        free(el->col_edge);
        free(el->orig_key);
        free(el->edge_w);
        free(el);
    }
}

static void elimination_destructor(PyObject *capsule) {
    elimination_free((Elimination *)PyCapsule_GetPointer(capsule, ELIMINATION_CAPSULE));
}

/* Sort idx[0..count) stably by val[idx[i]]: a bottom-up merge sort through
 * tmp (count entries).  Returns the buffer that holds the result, idx or
 * tmp. */
static int64_t *sort_by_value(int64_t *idx, int64_t *tmp, int64_t count, const int64_t *val) {
    int64_t *src = idx, *dst = tmp;
    for (int64_t width = 1; width < count; width *= 2) {
        for (int64_t lo = 0; lo < count; lo += 2 * width) {
            int64_t mid = lo + width < count ? lo + width : count;
            int64_t hi = lo + 2 * width < count ? lo + 2 * width : count;
            int64_t a = lo, b = mid, k = lo;
            while (a < mid && b < hi) {
                dst[k++] = val[src[b]] < val[src[a]] ? src[b++] : src[a++];
            }
            while (a < mid) {
                dst[k++] = src[a++];
            }
            while (b < hi) {
                dst[k++] = src[b++];
            }
        }
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    return src;
}

/* The position of `key` in the ascending keys[lo..hi), or -1. */
static int64_t find_key(const int64_t *keys, int64_t lo, int64_t hi, int64_t key) {
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (keys[mid] < key) {
            lo = mid + 1;
        } else if (keys[mid] > key) {
            hi = mid;
        } else {
            return mid;
        }
    }
    return -1;
}

/* The minimum-degree priority: (tier, current degree, key), all distinct. */
typedef struct {
    int64_t *heap; /* keys */
    int64_t *at;   /* each key's heap position */
    int64_t size;
    const int64_t *tier;
    const int64_t *degree;
} DegreeHeap;

static inline int degree_less(const DegreeHeap *h, int64_t a, int64_t b) {
    if (h->tier[a] != h->tier[b]) {
        return h->tier[a] < h->tier[b];
    }
    if (h->degree[a] != h->degree[b]) {
        return h->degree[a] < h->degree[b];
    }
    return a < b;
}

static inline void degree_place(DegreeHeap *h, int64_t i, int64_t key) {
    h->heap[i] = key;
    h->at[key] = i;
}

/* Move the key at position i down below any smaller child. */
static void degree_sift_down(DegreeHeap *h, int64_t i) {
    int64_t key = h->heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= h->size) {
            break;
        }
        if (child + 1 < h->size && degree_less(h, h->heap[child + 1], h->heap[child])) {
            child++;
        }
        if (!degree_less(h, h->heap[child], key)) {
            break;
        }
        degree_place(h, i, h->heap[child]);
        i = child;
    }
    degree_place(h, i, key);
}

/* Restore the heap around position i after its key's priority moved
 * either way. */
static void degree_sift(DegreeHeap *h, int64_t i) {
    int64_t key = h->heap[i];
    while (i > 0 && degree_less(h, key, h->heap[(i - 1) / 2])) {
        degree_place(h, i, h->heap[(i - 1) / 2]);
        i = (i - 1) / 2;
    }
    degree_place(h, i, key);
    degree_sift_down(h, i);
}

static int64_t degree_pop(DegreeHeap *h) {
    int64_t top = h->heap[0];
    h->size--;
    if (h->size > 0) {
        degree_place(h, 0, h->heap[h->size]);
        degree_sift_down(h, 0);
    }
    return top;
}

/* `buf` (items of `item` bytes, *cap of them) grown to hold `need`: the
 * same buffer when it already does, a larger one (never none), or NULL
 * when out of memory (`buf` is then still the caller's). */
static void *grow(void *buf, int64_t *cap, int64_t need, size_t item) {
    if (buf != NULL && need <= *cap) {
        return buf;
    }
    int64_t next = *cap * 2 > need ? *cap * 2 : need > 0 ? need : 1;
    void *grown = realloc(buf, (size_t)next * item);
    if (grown != NULL) {
        *cap = next;
    }
    return grown;
}

/* The shape checks of eliminate that need no sort: lengths agree (the
 * tiers and the order hold 0 or n entries, the sizes 2), n >= 1, the row
 * offsets start at 0, end at the edge count and are monotone, and every
 * neighbour is another row.  NULL, or the ValueError's message. */
static const char *check_graph(const int64_t *indptr, Py_ssize_t n_indptr, Py_ssize_t n_ids,
                               const int64_t *positions, Py_ssize_t n_edges,
                               Py_ssize_t n_weights, Py_ssize_t n_tiers, Py_ssize_t n_order,
                               Py_ssize_t n_out_order, Py_ssize_t n_sizes) {
    Py_ssize_t n = n_ids;
    if (n < 1) {
        return "cannot contract an empty graph";
    }
    if (n_indptr != n + 1 || n_weights != n_edges || (n_tiers != 0 && n_tiers != n) ||
        (n_order != 0 && n_order != n) || n_out_order != n || n_sizes != 2 ||
        indptr[0] != 0 || indptr[n] != n_edges) {
        return "graph array lengths disagree";
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        if (indptr[r] > indptr[r + 1]) {
            return "row offsets are not monotone";
        }
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        for (int64_t e = indptr[r]; e < indptr[r + 1]; e++) {
            if (positions[e] < 0 || positions[e] >= n || positions[e] == r) {
                return "a neighbour is not another row";
            }
        }
    }
    return NULL;
}

/* eliminate(ids, indptr, positions, weights, tiers, order, out_order, sizes)
 *     -> elimination capsule
 *
 * The symbolic elimination of a graph given as its CSR (Graph's arrays: row
 * r is vertex ids[r], its neighbours' rows are positions[indptr[r]..
 * indptr[r+1]], with weights[...]), the port of tests/oracles/slots.py's eliminate.
 * With an explicit `order` (n vertex ids) round i eliminates order[i]; with
 * none, each round eliminates the remaining vertex of least (tier, current
 * degree, id) -- tiers[r] per row, all 0 when `tiers` is empty -- which is
 * the vertex eliminate's lazy heap pops, so the order is the same.  A round
 * keeps the vertex's remaining neighbours, ascending by id, as its row and
 * joins them pairwise: one sorted-array merge into each neighbour's row.
 *
 * It writes the order's ids into out_order (n entries) and [slots,
 * supporter records] into sizes, and returns the rows in a capsule that
 * eliminate_slots lays out.  Every input is checked first (check_graph,
 * then: ids distinct, no row names a neighbour twice, every edge in both its
 * rows, the order a permutation of the ids, fewer than 2^31 slots); a
 * failed check is a ValueError with nothing written. */
static PyObject *eliminate(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    enum { E_IDS, E_INDPTR, E_POSITIONS, E_WEIGHTS, E_TIERS, E_ORDER, E_OUT_ORDER, E_SIZES,
           E_NVIEWS };
    Py_buffer views[E_NVIEWS];
    Py_ssize_t len[E_NVIEWS];
    PyObject *result = NULL;
    const char *error = NULL;
    Elimination *el = NULL;
    int64_t *scratch = NULL, **adj = NULL, *spare = NULL;
    Py_ssize_t n = 0;
    (void)self;
    if (nargs != E_NVIEWS) {
        PyErr_SetString(PyExc_TypeError,
                        "eliminate(ids, indptr, positions, weights, tiers, order, out_order, "
                        "sizes) takes 8 arguments");
        return NULL;
    }
    memset(views, 0, sizeof(views));
    for (int i = 0; i < E_NVIEWS; i++) {
        if (borrow_typed(args[i], &views[i], i == E_WEIGHTS ? 'd' : 'i', 8,
                         i >= E_OUT_ORDER) < 0) {
            goto done;
        }
        len[i] = views[i].len / 8;
    }
    const int64_t *ids = (const int64_t *)views[E_IDS].buf;
    const int64_t *indptr = (const int64_t *)views[E_INDPTR].buf;
    const int64_t *positions = (const int64_t *)views[E_POSITIONS].buf;
    const double *weights = (const double *)views[E_WEIGHTS].buf;
    const int64_t *tiers = (const int64_t *)views[E_TIERS].buf;
    const int64_t *order = (const int64_t *)views[E_ORDER].buf;
    n = len[E_IDS];
    Py_ssize_t n_edges = len[E_POSITIONS];
    error = check_graph(indptr, len[E_INDPTR], n, positions, n_edges, len[E_WEIGHTS],
                        len[E_TIERS], len[E_ORDER], len[E_OUT_ORDER], len[E_SIZES]);
    if (error != NULL) {
        goto done;
    }
    /* One int64 block, carved into n + 1-entry arrays and edge arrays. */
    enum { K_KEY_OF, K_BY_ID, K_ID_TMP, K_KEY_ID, K_TIER, K_DEGREE, K_HEAP, K_AT, K_CAP,
           K_ROUNDS, K_ORIG_PTR, K_N };
    size_t width = (size_t)n + 1, edges = n_edges > 0 ? (size_t)n_edges : 1;
    scratch = (int64_t *)malloc((K_N * width + 3 * edges) * sizeof(int64_t));
    el = (Elimination *)calloc(1, sizeof(Elimination));
    adj = (int64_t **)calloc((size_t)n, sizeof(int64_t *));
    if (scratch == NULL || el == NULL || adj == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *key_of = scratch + K_KEY_OF * width, *tier = scratch + K_TIER * width;
    int64_t *degree = scratch + K_DEGREE * width, *heap = scratch + K_HEAP * width;
    int64_t *at = scratch + K_AT * width, *cap = scratch + K_CAP * width;
    int64_t *rounds = scratch + K_ROUNDS * width, *orig_ptr = scratch + K_ORIG_PTR * width;
    int64_t *key_id = scratch + K_KEY_ID * width;
    int64_t *edge_key = scratch + K_N * width, *edge_ids = edge_key + edges;
    int64_t *edge_tmp = edge_ids + edges;
    el->n = n;
    el->rank = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    el->row_ptr = (int64_t *)calloc(width, sizeof(int64_t));
    el->rows = (int64_t **)calloc((size_t)n, sizeof(int64_t *));
    el->edge_w = (double *)malloc(edges * sizeof(double));
    el->orig_key = (int64_t *)malloc(edges * sizeof(int64_t));
    if (el->rank == NULL || el->row_ptr == NULL || el->rows == NULL || el->edge_w == NULL ||
        el->orig_key == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *orig_key = el->orig_key;
    /* Keys: the rows sorted by id, by_id[k] being key k's row. */
    int64_t *by_id = scratch + K_BY_ID * width;
    for (Py_ssize_t r = 0; r < n; r++) {
        by_id[r] = r;
    }
    by_id = sort_by_value(by_id, scratch + K_ID_TMP * width, n, ids);
    for (Py_ssize_t k = 0; k < n; k++) {
        key_id[k] = ids[by_id[k]];
        if (k > 0 && key_id[k] == key_id[k - 1]) {
            error = "vertex ids are not distinct";
            goto done;
        }
        key_of[by_id[k]] = k;
    }
    /* The graph in key space: each key's neighbours ascending, with their
     * weights, and the working graph's rows, a copy of them. */
    for (Py_ssize_t e = 0; e < n_edges; e++) {
        edge_key[e] = key_of[positions[e]];
    }
    orig_ptr[0] = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        int64_t r = by_id[k], lo = orig_ptr[k], d = indptr[r + 1] - indptr[r];
        orig_ptr[k + 1] = lo + d;
        for (int64_t i = 0; i < d; i++) {
            edge_ids[lo + i] = indptr[r] + i;
        }
        const int64_t *sorted = sort_by_value(edge_ids + lo, edge_tmp + lo, d, edge_key);
        cap[k] = d > 0 ? d : 1;
        adj[k] = (int64_t *)malloc((size_t)cap[k] * sizeof(int64_t));
        if (adj[k] == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        for (int64_t i = 0; i < d; i++) {
            orig_key[lo + i] = adj[k][i] = edge_key[sorted[i]];
            el->edge_w[lo + i] = weights[sorted[i]];
            if (i > 0 && orig_key[lo + i] == orig_key[lo + i - 1]) {
                error = "a row names a neighbour twice";
                goto done;
            }
        }
        degree[k] = d;
        tier[k] = len[E_TIERS] != 0 ? tiers[r] : 0;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        for (int64_t e = orig_ptr[k]; e < orig_ptr[k + 1]; e++) {
            int64_t j = orig_key[e];
            if (find_key(orig_key, orig_ptr[j], orig_ptr[j + 1], k) < 0) {
                error = "the adjacency is not symmetric";
                goto done;
            }
        }
    }
    if (len[E_ORDER] != 0) {
        for (Py_ssize_t k = 0; k < n; k++) {
            at[k] = 0; /* named yet (the heap is not used) */
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            int64_t key = find_key(key_id, 0, n, order[i]);
            if (key < 0) {
                error = "the order names a vertex outside the graph";
                goto done;
            }
            if (at[key]) {
                error = "the order names a vertex twice";
                goto done;
            }
            at[key] = 1;
            rounds[i] = key;
        }
    }
    DegreeHeap pq = {heap, at, 0, tier, degree};
    if (len[E_ORDER] == 0) {
        for (Py_ssize_t k = 0; k < n; k++) {
            degree_place(&pq, pq.size++, k);
        }
        for (int64_t i = n / 2 - 1; i >= 0; i--) {
            degree_sift_down(&pq, i);
        }
    }
    int64_t m = 0, edge_cap = 0, spare_cap = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t v = len[E_ORDER] != 0 ? rounds[i] : degree_pop(&pq);
        const int64_t *row = adj[v];
        int64_t d = degree[v];
        rounds[i] = v;
        el->rank[v] = i;
        el->rows[i] = adj[v];
        adj[v] = NULL;
        if (m + d > INT32_MAX) {
            error = "the shortcuts overflow the int32 supporter slots";
            goto done;
        }
        int64_t *col_edge = (int64_t *)grow(el->col_edge, &edge_cap, m + d, sizeof(int64_t));
        if (col_edge == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        el->col_edge = col_edge;
        /* Each slot's graph edge: the row walked against v's graph
         * neighbours, both ascending. */
        for (int64_t s = 0, e = orig_ptr[v]; s < d; s++) {
            while (e < orig_ptr[v + 1] && orig_key[e] < row[s]) {
                e++;
            }
            col_edge[m + s] = e < orig_ptr[v + 1] && orig_key[e] == row[s] ? e : -1;
        }
        m += d;
        el->row_ptr[i + 1] = m;
        el->records += d * (d - 1) / 2;
        /* Fill-in: every neighbour u's row becomes its union with v's, less
         * u and v, merged into the spare buffer, which then swaps with u's. */
        for (int64_t s = 0; s < d; s++) {
            int64_t u = row[s], a = 0, b = 0, k = 0, du = degree[u];
            const int64_t *own = adj[u];
            int64_t *merged = (int64_t *)grow(spare, &spare_cap, du + d, sizeof(int64_t));
            if (merged == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            while (a < du || b < d) {
                int64_t x;
                if (b == d || (a < du && own[a] < row[b])) {
                    x = own[a++];
                } else if (a == du || row[b] < own[a]) {
                    x = row[b++];
                } else {
                    x = own[a++];
                    b++;
                }
                if (x != u && x != v) {
                    merged[k++] = x;
                }
            }
            spare = adj[u];
            adj[u] = merged;
            int64_t swap = cap[u];
            cap[u] = spare_cap;
            spare_cap = swap;
            degree[u] = k;
            if (len[E_ORDER] == 0) {
                degree_sift(&pq, at[u]);
            }
        }
    }
    el->m = m;
    result = PyCapsule_New(el, ELIMINATION_CAPSULE, elimination_destructor);
    if (result == NULL) {
        goto done;
    }
    int64_t *out_order = (int64_t *)views[E_OUT_ORDER].buf;
    int64_t *sizes = (int64_t *)views[E_SIZES].buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        out_order[i] = key_id[rounds[i]];
    }
    sizes[0] = m;
    sizes[1] = el->records;
    el = NULL; /* the capsule's */
done:
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
    }
    for (Py_ssize_t k = 0; adj != NULL && k < n; k++) {
        free(adj[k]);
    }
    free(adj);
    free(spare);
    free(scratch);
    elimination_free(el);
    release_views(views, E_NVIEWS);
    return result;
}

/* eliminate_slots(elimination, indptr, indices, base, sup_indptr, sup_slots)
 *     -> None
 *
 * Lays out an eliminate capsule's rows as a SlotContraction's arrays:
 * indptr (n + 1) and indices (slots, each a column's round) as in the
 * shortcut store, base (each slot's graph weight, inf for fill-in), and the
 * supporter CSR of supporter_slots in tests/oracles/slots.py -- sup_indptr
 * (slots + 1) and the int32 slot pairs sup_slots (2 x records).  Row x
 * supports every pair of its slots: for columns c < c' (by round) the
 * target is the slot of c' in row c and the pair is (x's slot of c, x's
 * slot of c').  Records are grouped by target slot, supporters in ascending
 * row: a counting sort, one walk to count and one to place.  Every length is
 * checked before the first write (a ValueError). */
static PyObject *eliminate_slots(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    enum { T_INDPTR, T_INDICES, T_BASE, T_SUP_INDPTR, T_SUP_SLOTS, T_NVIEWS };
    static const char kinds[T_NVIEWS] = {'i', 'i', 'd', 'i', 'i'};
    static const Py_ssize_t sizes[T_NVIEWS] = {8, 8, 8, 8, 4};
    Py_buffer views[T_NVIEWS];
    Py_ssize_t len[T_NVIEWS];
    PyObject *result = NULL;
    int64_t *scratch = NULL;
    (void)self;
    if (nargs != T_NVIEWS + 1) {
        PyErr_SetString(PyExc_TypeError,
                        "eliminate_slots(elimination, indptr, indices, base, sup_indptr, "
                        "sup_slots) takes 6 arguments");
        return NULL;
    }
    const Elimination *el =
        (const Elimination *)PyCapsule_GetPointer(args[0], ELIMINATION_CAPSULE);
    if (el == NULL) {
        return NULL;
    }
    memset(views, 0, sizeof(views));
    for (int i = 0; i < T_NVIEWS; i++) {
        if (borrow_typed(args[i + 1], &views[i], kinds[i], sizes[i], 1) < 0) {
            goto done;
        }
        len[i] = views[i].len / sizes[i];
    }
    int64_t n = el->n, m = el->m;
    if (len[T_INDPTR] != n + 1 || len[T_INDICES] != m || len[T_BASE] != m ||
        len[T_SUP_INDPTR] != m + 1 || len[T_SUP_SLOTS] != 2 * el->records) {
        PyErr_SetString(PyExc_ValueError, "slot array lengths disagree");
        goto done;
    }
    /* cursor and slot_row (m each), by_column (m), by_column_ptr (n + 1),
     * slot_of and seen (n each). */
    scratch = (int64_t *)malloc(((size_t)3 * m + 3 * (size_t)n + 1) * sizeof(int64_t));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *cursor = scratch, *slot_row = cursor + m, *by_column = slot_row + m;
    int64_t *by_column_ptr = by_column + m, *slot_of = by_column_ptr + n + 1;
    int64_t *seen = slot_of + n;
    int64_t *indptr = (int64_t *)views[T_INDPTR].buf;
    int64_t *indices = (int64_t *)views[T_INDICES].buf;
    double *base = (double *)views[T_BASE].buf;
    int64_t *sup_indptr = (int64_t *)views[T_SUP_INDPTR].buf;
    int32_t *sup_slots = (int32_t *)views[T_SUP_SLOTS].buf;
    const int64_t *row_ptr = el->row_ptr;
    indptr[0] = 0;
    for (int64_t x = 0; x < n; x++) {
        const int64_t *row = el->rows[x];
        int64_t lo = row_ptr[x], d = row_ptr[x + 1] - lo;
        for (int64_t j = 0; j < d; j++) {
            int64_t e = el->col_edge[lo + j];
            indices[lo + j] = el->rank[row[j]];
            base[lo + j] = e >= 0 ? el->edge_w[e] : Py_HUGE_VAL;
            slot_row[lo + j] = x;
        }
        indptr[x + 1] = lo + d;
    }
    /* Row c's slots are the targets of the pairs (a, b) of every row x
     * with a's column c and b's above it; x's other columns above c are
     * all c's columns (closure).  So the supporters are laid out target
     * row by target row: the rows x listing c (by_column, ascending x)
     * found through a transpose of the slots, each b's target found
     * through c's slot of each key (slot_of, valid where seen == c); one
     * walk counts each target's records, a second places them. */
    for (int64_t c = 0; c <= n; c++) {
        by_column_ptr[c] = 0;
    }
    for (int64_t s = 0; s < m; s++) {
        by_column_ptr[indices[s] + 1]++;
    }
    for (int64_t c = 0; c < n; c++) {
        by_column_ptr[c + 1] += by_column_ptr[c];
        slot_of[c] = by_column_ptr[c]; /* the transpose's fill cursor, here */
        seen[c] = -1;
    }
    for (int64_t a = 0; a < m; a++) {
        by_column[slot_of[indices[a]]++] = a;
    }
    sup_indptr[0] = 0;
    for (int64_t c = 0; c < n; c++) {
        const int64_t *keys = el->rows[c];
        int64_t lo = row_ptr[c], hi = row_ptr[c + 1];
        for (int64_t t = lo; t < hi; t++) {
            slot_of[keys[t - lo]] = t;
            seen[keys[t - lo]] = c;
            cursor[t] = 0;
        }
        for (int pass = 0; pass < 2; pass++) {
            for (int64_t k = by_column_ptr[c]; k < by_column_ptr[c + 1]; k++) {
                int64_t a = by_column[k], x = slot_row[a];
                const int64_t *row = el->rows[x];
                for (int64_t b = row_ptr[x]; b < row_ptr[x + 1]; b++) {
                    int64_t key = row[b - row_ptr[x]];
                    if (indices[b] <= c) {
                        continue;
                    }
                    if (seen[key] != c) {
                        PyErr_SetString(PyExc_ValueError,
                                        "contraction rows are not closed under fill-in");
                        goto done;
                    }
                    int64_t t = slot_of[key];
                    if (pass == 1) {
                        sup_slots[2 * cursor[t]] = (int32_t)a;
                        sup_slots[2 * cursor[t] + 1] = (int32_t)b;
                    }
                    cursor[t]++;
                }
            }
            if (pass == 0) {
                for (int64_t t = lo; t < hi; t++) {
                    sup_indptr[t + 1] = sup_indptr[t] + cursor[t];
                    cursor[t] = sup_indptr[t];
                }
                if (sup_indptr[hi] > el->records) {
                    PyErr_SetString(PyExc_ValueError,
                                    "contraction rows are not closed under fill-in");
                    goto done;
                }
            }
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    free(scratch);
    release_views(views, T_NVIEWS);
    return result;
}

static PyMethodDef methods[] = {
    {"build", label_build, METH_VARARGS,
     "build(mask, comp, first, logs, tbl_flat, tbl_off, pos_indptr, pos_data, "
     "dis_indptr, dis_data) -> label-store capsule (buffers borrowed, not copied)"},
    {"query", (PyCFunction)label_query, METH_FASTCALL,
     "query(store, rs, rt) -> distance"},
    {"one_to_many", (PyCFunction)label_one_to_many, METH_FASTCALL,
     "one_to_many(store, rs, t_rows, out) -> None (fills out)"},
    {"query_pairs", (PyCFunction)label_query_pairs, METH_FASTCALL,
     "query_pairs(store, s_rows, t_rows, out) -> None (fills out)"},
    {"map_ids", (PyCFunction)map_ids, METH_FASTCALL,
     "map_ids(ids, idmap, rows) -> position of the first id with no row, or -1 "
     "(fills rows unless None)"},
    {"query_ids", (PyCFunction)label_query_ids, METH_FASTCALL,
     "query_ids(store, ids, idmap, out) -> position of the first id with no row, "
     "or -1 (ids interleave sources and targets; fills out)"},
    {"search_build", search_build, METH_VARARGS,
     "search_build(ids, indptr, indices, weights) -> CSR search-graph capsule "
     "(buffers borrowed, not copied)"},
    {"search_is_tree", search_is_tree, METH_O,
     "search_is_tree(graph) -> True when CH queries walk the elimination tree"},
    {"search_query", (PyCFunction)search_query, METH_FASTCALL,
     "search_query(graph, rs, rt, ch_mode) -> bidirectional-search distance"},
    {"search_query_ids", (PyCFunction)search_query_ids, METH_FASTCALL,
     "search_query_ids(graph, ids, idmap, out, ch_mode) -> position of the first id "
     "with no row, or -1 (ids interleave sources and targets; fills out)"},
    {"cache_new", cache_new, METH_O,
     "cache_new(capacity) -> epoch-exact LRU distance-cache capsule"},
    {"cache_probe", (PyCFunction)cache_probe, METH_FASTCALL,
     "cache_probe(cache, ids, epoch, out, stages) -> hits (fills out for hits; stages: "
     "0 hit, 1 miss)"},
    {"cache_fill", (PyCFunction)cache_fill, METH_FASTCALL,
     "cache_fill(cache, ids, out, stages, epoch) -> None (caches the pairs whose stage "
     "is not 0, or every pair when stages is None)"},
    {"cache_invalidate", cache_invalidate, METH_O,
     "cache_invalidate(cache) -> number of entries dropped"},
    {"cache_contains", (PyCFunction)cache_contains, METH_FASTCALL,
     "cache_contains(cache, source, target) -> whether the pair has an entry"},
    {"cache_stats", (PyCFunction)cache_stats, METH_FASTCALL,
     "cache_stats(cache, out) -> None (size, hits, misses, stale rejections, invalidated, "
     "evictions as six int64)"},
    {"search_one_to_many", (PyCFunction)search_one_to_many, METH_FASTCALL,
     "search_one_to_many(graph, rs, t_rows, out) -> None (truncated Dijkstra)"},
    {"update_slots", (PyCFunction)update_slots, METH_FASTCALL,
     "update_slots(indptr, indices, base, sup_indptr, sup_slots, weights, seeds, mask, "
     "escaped, changed, counts) -> None (bottom-up pass from the seed rows; writes "
     "weights, escaped, changed, counts)"},
    {"update_labels", (PyCFunction)update_labels, METH_FASTCALL,
     "update_labels(parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, "
     "pos_data, sc, dis_data, seeds, allowed, changed, counts, lo, hi) -> None "
     "(top-down label pass from the seed rows; writes dis_data, changed, counts)"},
    {"eliminate", (PyCFunction)eliminate, METH_FASTCALL,
     "eliminate(ids, indptr, positions, weights, tiers, order, out_order, sizes) -> "
     "elimination capsule (symbolic elimination of a graph CSR; writes out_order, sizes)"},
    {"eliminate_slots", (PyCFunction)eliminate_slots, METH_FASTCALL,
     "eliminate_slots(elimination, indptr, indices, base, sup_indptr, sup_slots) -> None "
     "(the slot topology, graph weights and supporter CSR of an elimination)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_labelkernel", NULL, -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__labelkernel(void) { return PyModule_Create(&moduledef); }
