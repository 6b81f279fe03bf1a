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
 * The maintenance kernels take no capsule.  update_labels is the H2H
 * family's whole top-down label pass (H2HLabels.update_top_down, and
 * build) over the flat rows of a label arena: the tree in row space, the
 * dis / pos CSR, each position slot's shortcut, and the seed rows.  It
 * writes only the dis_data buffer it is handed -- the labels' copy-on-write
 * buffer, so a store wrapping an earlier one is untouched -- and checks
 * every index it will follow before its first write.  update_slots is
 * DCH's whole shortcut pass, the same way, over flat arrays
 * (repro.treedec.slots): shortcut weights in the shortcut store's CSR slot
 * order, each slot's graph weight, and a CSR of int32 supporter slot pairs.
 *
 * shortcut_row (mde.recompute_shortcut over one vertex's whole row, the
 * shortcut phase of the H2H family and the PSP indexes) and recompute_row
 * (one label row over dict-of-list containers: the path the label phase
 * ran before its rows were flat, kept as the container oracle the
 * differential tests check update_labels against) walk *live* Python
 * containers -- the contraction's shortcut and supporter dicts, a dis dict,
 * the tree's depth map.  They only read: each returns a fresh list.
 * Containers another layer filled are not trusted -- types, depths, row
 * lengths and list sizes are checked (the sizes again after any lookup that
 * may have run Python), a missing key is the KeyError the Python loop
 * raises -- and lookups honour a dict subclass's __getitem__ (see
 * container_get), so a snapshot-loaded LazyDict materialises exactly as it
 * does under the pure loops, which stay in place as the fallback and as the
 * oracle the differential tests compare against.
 *
 * gather_rows is the value half of a refreeze: weight-only updates keep
 * every store's layout (the shortcut set, the graph's CSR), so a new
 * epoch's shortcut store or graph snapshot copies the previous epoch's
 * layout arrays and gathers only its values from the live rows, in one pass
 * that also checks each row against the layout (counts, and for dict rows
 * the keys in iteration order).  A mismatch is a ValueError and the caller
 * rebuilds the layout; dict rows are read under container_get's rule.
 * Label stores and DCH's store gather nothing: they wrap the arena their
 * update pass wrote.  The label pass uses it for its input instead: each
 * pass gathers its seed rows' shortcut dicts into its shortcut array.
 *
 * No function releases the GIL; concurrent Python threads therefore
 * serialize around the shared per-capsule scratch space by construction, and
 * the maintenance kernels see the containers under the same exclusion the
 * pure loops do.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

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
     * query never pays an O(n) reset).  Guarded by the GIL. */
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
    int valid = counts[S_INDPTR] == g->n + 1 &&
                counts[S_INDICES] == counts[S_WEIGHTS] &&
                (g->n == 0 || g->indptr[g->n] == counts[S_INDICES]);
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

/* Relax the upward arcs of row v at distance d into dist[]. */
static inline void tree_relax(const SearchGraph *g, double *dist, int64_t v, double d) {
    const int64_t *nbr = g->indices + g->indptr[v];
    const int64_t *nbr_end = g->indices + g->indptr[v + 1];
    const double *wgt = g->weights + g->indptr[v];
    for (; nbr < nbr_end; nbr++, wgt++) {
        double nd = d + *wgt;
        if (nd < dist[*nbr]) {
            dist[*nbr] = nd;
        }
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
 * query returns. */
static double search_tree(SearchGraph *g, int64_t rs, int64_t rt, int *failed) {
    *failed = 0;
    if (rs == rt) {
        return 0.0;
    }
    if (tree_scratch(g) < 0) {
        *failed = 1;
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

/* Bidirectional Dijkstra (GraphSnapshot.bidijkstra), a literal port of the
 * Python reference: same alternation, same lazy deletion, same float
 * arithmetic, and the same stop rule, best <= top_f + top_b. */
static double search_bidirectional(SearchGraph *g, int64_t rs, int64_t rt,
                                   int *failed) {
    *failed = 0;
    if (rs == rt) {
        return 0.0;
    }
    if (search_scratch(g) < 0) {
        *failed = 1;
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
        PyErr_NoMemory();
        *failed = 1;
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
                    PyErr_NoMemory();
                    *failed = 1;
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
 * ancestor chains; ch_mode 0 is the bidirectional Dijkstra (GraphSnapshot). */
static inline double search_pair(SearchGraph *g, int64_t rs, int64_t rt,
                                 int ch_mode, int *failed) {
    if (ch_mode) {
        return search_tree(g, rs, rt, failed);
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
    int failed;
    double result = search_pair(g, rs, rt, ch_mode != 0, &failed);
    if (failed) {
        return NULL;
    }
    return PyFloat_FromDouble(result);
}

/* query_pairs(graph, s_rows, t_rows, out, ch_mode): the scalar search looped
 * in C -- identical per-pair results, no per-pair Python. */
static PyObject *search_query_pairs(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "query_pairs(graph, s_rows, t_rows, out, ch_mode) takes 5 arguments");
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
    int failed = 0;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rs = s_rows[i];
        int64_t rt = t_rows[i];
        if (rs < 0 || rs >= g->n || rt < 0 || rt >= g->n) {
            PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
            failed = 1;
            break;
        }
        out[i] = search_pair(g, rs, rt, ch_mode != 0, &failed);
        if (failed) {
            break;
        }
    }
    PyBuffer_Release(&s_view);
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
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
    int failed = 0;
    if (search_scratch(g) < 0) {
        failed = 1;
    }
    if (!failed) {
        int64_t stamp = ++g->stamp;
        /* dist_stamp_b doubles as the "is a pending target" marker. */
        int64_t remaining = 0;
        for (Py_ssize_t i = 0; i < m; i++) {
            int64_t rt = t_rows[i];
            if (rt < 0 || rt >= g->n) {
                PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
                failed = 1;
                break;
            }
            if (g->dist_stamp_b[rt] != stamp) {
                g->dist_stamp_b[rt] = stamp;
                remaining++;
            }
        }
        if (!failed) {
            Heap *heap = &g->heap_f;
            heap->size = 0;
            g->dist_f[rs] = 0.0;
            g->dist_stamp_f[rs] = stamp;
            if (heap_push(heap, 0.0, g->ids[rs], rs) < 0) {
                PyErr_NoMemory();
                failed = 1;
            }
            while (!failed && heap->size > 0) {
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
                    double du = (g->dist_stamp_f[u] == stamp) ? g->dist_f[u]
                                                              : Py_HUGE_VAL;
                    if (nd < du) {
                        g->dist_f[u] = nd;
                        g->dist_stamp_f[u] = stamp;
                        if (heap_push(heap, nd, g->ids[u], u) < 0) {
                            PyErr_NoMemory();
                            failed = 1;
                            break;
                        }
                    }
                }
            }
            if (!failed) {
                for (Py_ssize_t i = 0; i < m; i++) {
                    int64_t rt = t_rows[i];
                    out[i] = (g->settled_stamp_f[rt] == stamp) ? g->settled_val[rt]
                                                               : Py_HUGE_VAL;
                }
            }
        }
    }
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Maintenance kernels (over the live Python containers)              */
/* ------------------------------------------------------------------ */

/* container[key] as a new reference.  PyDict_GetItem* reads a dict's raw
 * storage, which skips a subclass's __getitem__ -- an unmaterialised
 * store.codec.LazyDict would read as empty -- so the fast path is taken only
 * when the type's mp_subscript is dict's own (plain dicts, and a LazyDict
 * once its loader has run and swapped its class); anything else goes through
 * PyObject_GetItem.  A missing key raises KeyError, or with `missing_ok`
 * returns NULL with no exception set (dict.get semantics). */
static PyObject *container_get(PyObject *container, PyObject *key, int missing_ok) {
    PyMappingMethods *mapping = Py_TYPE(container)->tp_as_mapping;
    if (PyDict_Check(container) && mapping != NULL &&
        mapping->mp_subscript == PyDict_Type.tp_as_mapping->mp_subscript) {
        PyObject *value = PyDict_GetItemWithError(container, key);
        if (value != NULL) {
            Py_INCREF(value);
        } else if (!missing_ok && !PyErr_Occurred()) {
            PyErr_SetObject(PyExc_KeyError, key);
        }
        return value;
    }
    PyObject *value = PyObject_GetItem(container, key);
    if (value == NULL && missing_ok && PyErr_ExceptionMatches(PyExc_KeyError)) {
        PyErr_Clear();
    }
    return value;
}

/* float(obj): exact floats inline, anything else (int weights) through
 * PyFloat_AsDouble.  Int inputs are thereby normalised: both kernels return
 * floats where the pure rung's `sc + d` would stay an int of the same value
 * (Graph stores float weights, so no index reaches this).  Returns -1 with
 * an exception set on failure. */
static inline int as_double(PyObject *obj, double *out) {
    if (PyFloat_CheckExact(obj)) {
        *out = PyFloat_AS_DOUBLE(obj);
        return 0;
    }
    Py_INCREF(obj);
    *out = PyFloat_AsDouble(obj);
    Py_DECREF(obj);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* float(row[j]); the bound is re-checked on every read because a non-float
 * entry's __float__ may run Python that resizes the row. */
static inline int row_entry(PyObject *row, Py_ssize_t j, double *out) {
    if (j >= PyList_GET_SIZE(row)) {
        PyErr_SetString(PyExc_ValueError, "distance array shorter than its depth");
        return -1;
    }
    return as_double(PyList_GET_ITEM(row, j), out);
}

/* dis[vertex] as a new reference, checked to be a list of at least `need`
 * entries (exactly `need` when `exact`). */
static PyObject *distance_row(PyObject *dis, PyObject *vertex, Py_ssize_t need,
                              int exact) {
    PyObject *row = container_get(dis, vertex, 0);
    if (row == NULL) {
        return NULL;
    }
    if (!PyList_Check(row)) {
        PyErr_SetString(PyExc_TypeError, "distance arrays must be lists");
    } else if (exact ? PyList_GET_SIZE(row) != need : PyList_GET_SIZE(row) < need) {
        PyErr_SetString(PyExc_ValueError,
                        "distance array length does not match its vertex's depth");
    } else {
        return row;
    }
    Py_DECREF(row);
    return NULL;
}

/* sc_row[x] and depth[x] of one neighbour, the depth checked to lie strictly
 * above a vertex whose ancestor chain has m entries. */
static int neighbour_inputs(PyObject *sc_row, PyObject *depth, PyObject *x,
                            Py_ssize_t m, double *sc, Py_ssize_t *px) {
    PyObject *sc_obj = container_get(sc_row, x, 0);
    if (sc_obj == NULL) {
        return -1;
    }
    int status = as_double(sc_obj, sc);
    Py_DECREF(sc_obj);
    if (status < 0) {
        return -1;
    }
    PyObject *px_obj = container_get(depth, x, 0);
    if (px_obj == NULL) {
        return -1;
    }
    *px = PyLong_AsSsize_t(px_obj);
    Py_DECREF(px_obj);
    if (*px == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (*px < 0 || *px >= m - 1) {
        PyErr_SetString(PyExc_ValueError,
                        "neighbour depth outside the vertex's ancestor chain");
        return -1;
    }
    return 0;
}

/* A fresh list of the n floats in values. */
static PyObject *float_list(const double *values, Py_ssize_t n) {
    PyObject *list = PyList_New(n);
    if (list == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyFloat_FromDouble(values[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* recompute_row(dis, anc, neighbors, sc_row, depth) -> list
 *
 * One H2H distance row over dict-of-list containers (the container oracle
 * of update_labels, see the file header) for the vertex whose ancestor chain
 * is `anc` (m entries, the vertex itself last): per neighbour x at depth px,
 * columns j < px relax against sc_row[x] + dis[x][j], columns px <= j < m-1
 * against sc_row[x] + dis[anc[j]][px]; column m-1 is 0.0.  Same candidates,
 * same float64 add and `<` as the Python loop.  Nothing is written to any
 * argument; the caller stores the returned list. */
static PyObject *maintain_recompute_row(PyObject *self, PyObject *const *args,
                                        Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "recompute_row(dis, anc, neighbors, sc_row, depth) takes 5 arguments");
        return NULL;
    }
    PyObject *dis = args[0], *anc = args[1], *neighbors = args[2];
    PyObject *sc_row = args[3], *depth = args[4];
    if (!PyList_Check(anc) || !PyList_Check(neighbors)) {
        PyErr_SetString(PyExc_TypeError, "anc and neighbors must be lists");
        return NULL;
    }
    Py_ssize_t m = PyList_GET_SIZE(anc);
    if (m < 1) {
        PyErr_SetString(PyExc_ValueError, "anc must hold at least the vertex itself");
        return NULL;
    }
    double *best = (double *)malloc((size_t)m * sizeof(double));
    /* dis[anc[j]], fetched on first use and owned until return. */
    PyObject **anc_rows = (PyObject **)calloc((size_t)m, sizeof(PyObject *));
    PyObject *result = NULL;
    if (best == NULL || anc_rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < m; j++) {
        best[j] = Py_HUGE_VAL;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(neighbors); i++) {
        PyObject *x = PyList_GET_ITEM(neighbors, i);
        double sc, d;
        Py_ssize_t px;
        Py_INCREF(x);
        PyObject *row = neighbour_inputs(sc_row, depth, x, m, &sc, &px) < 0
                            ? NULL
                            : distance_row(dis, x, px, 0);
        Py_DECREF(x);
        if (row == NULL) {
            goto done;
        }
        for (Py_ssize_t j = 0; j < px; j++) {
            if (row_entry(row, j, &d) < 0) {
                Py_DECREF(row);
                goto done;
            }
            double candidate = sc + d;
            if (candidate < best[j]) {
                best[j] = candidate;
            }
        }
        Py_DECREF(row);
        for (Py_ssize_t j = px; j < m - 1; j++) {
            if (anc_rows[j] == NULL) {
                if (PyList_GET_SIZE(anc) != m) {
                    PyErr_SetString(PyExc_ValueError, "anc changed size during the call");
                    goto done;
                }
                PyObject *ancestor = PyList_GET_ITEM(anc, j);
                Py_INCREF(ancestor);
                anc_rows[j] = distance_row(dis, ancestor, j + 1, 1);
                Py_DECREF(ancestor);
                if (anc_rows[j] == NULL) {
                    goto done;
                }
            }
            if (row_entry(anc_rows[j], px, &d) < 0) {
                goto done;
            }
            double candidate = sc + d;
            if (candidate < best[j]) {
                best[j] = candidate;
            }
        }
    }
    best[m - 1] = 0.0;
    result = float_list(best, m);
done:
    if (anc_rows != NULL) {
        for (Py_ssize_t j = 0; j < m; j++) {
            Py_XDECREF(anc_rows[j]);
        }
    }
    free(anc_rows);
    free(best);
    return result;
}

/* *value = min(*value, row[v] + row[u]) over row = shortcuts[x] for every
 * supporter x in sup; a row missing either endpoint contributes nothing
 * (the Python loop's row.get(., inf)). */
static int relax_supporters(PyObject *shortcuts, PyObject *sup, PyObject *v,
                            PyObject *u, double *value) {
    if (!PyList_Check(sup)) {
        PyErr_SetString(PyExc_TypeError, "supporter records must be lists");
        return -1;
    }
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(sup); k++) {
        PyObject *x = PyList_GET_ITEM(sup, k);
        Py_INCREF(x);
        PyObject *row = container_get(shortcuts, x, 0);
        Py_DECREF(x);
        if (row == NULL) {
            return -1;
        }
        if (!PyDict_Check(row)) {
            Py_DECREF(row);
            PyErr_SetString(PyExc_TypeError, "shortcut rows must be dicts");
            return -1;
        }
        PyObject *a = container_get(row, v, 1);
        PyObject *b = a != NULL ? container_get(row, u, 1) : NULL;
        Py_DECREF(row);
        int status = 0;
        if (b != NULL) {
            double da, db;
            if (as_double(a, &da) < 0 || as_double(b, &db) < 0) {
                status = -1;
            } else if (da + db < *value) {
                *value = da + db;
            }
        } else if (PyErr_Occurred()) {
            status = -1;
        }
        Py_XDECREF(a);
        Py_XDECREF(b);
        if (status < 0) {
            return -1;
        }
    }
    return 0;
}

/* mde.recompute_shortcut(v, u): the graph weight `base` relaxed over the
 * supporters of the canonical pair (min(v, u), max(v, u)). */
static int shortcut_entry(PyObject *shortcuts, PyObject *supporters, PyObject *v,
                          PyObject *u, PyObject *base, double *value) {
    if (as_double(base, value) < 0) {
        return -1;
    }
    int v_first = PyObject_RichCompareBool(v, u, Py_LT);
    if (v_first < 0) {
        return -1;
    }
    PyObject *key = v_first ? PyTuple_Pack(2, v, u) : PyTuple_Pack(2, u, v);
    if (key == NULL) {
        return -1;
    }
    PyObject *sup = container_get(supporters, key, 1);
    Py_DECREF(key);
    if (sup == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    int status = relax_supporters(shortcuts, sup, v, u, value);
    Py_DECREF(sup);
    return status;
}

/* shortcut_row(shortcuts, supporters, v, neighbors, base_weights) -> list
 *
 * mde.recompute_shortcut for every u in X(v).N in one call: entry i starts
 * from base_weights[i] (the current graph weight of (v, neighbors[i]), inf
 * when it is no edge).  Nothing is written; the caller compares the result
 * against shortcuts[v] and stores what changed. */
static PyObject *maintain_shortcut_row(PyObject *self, PyObject *const *args,
                                       Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "shortcut_row(shortcuts, supporters, v, neighbors, base_weights) "
                        "takes 5 arguments");
        return NULL;
    }
    PyObject *shortcuts = args[0], *supporters = args[1], *v = args[2];
    PyObject *neighbors = args[3], *base = args[4];
    if (!PyList_Check(neighbors) || !PyList_Check(base)) {
        PyErr_SetString(PyExc_TypeError, "neighbors and base_weights must be lists");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(neighbors);
    if (PyList_GET_SIZE(base) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "neighbors and base_weights must have equal lengths");
        return NULL;
    }
    double *values = (double *)malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (values == NULL) {
        return PyErr_NoMemory();
    }
    PyObject *result = NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        /* The previous entry's lookups may have run Python. */
        if (PyList_GET_SIZE(neighbors) != n || PyList_GET_SIZE(base) != n) {
            PyErr_SetString(PyExc_ValueError, "neighbors changed size during the call");
            goto done;
        }
        PyObject *u = PyList_GET_ITEM(neighbors, i);
        Py_INCREF(u);
        int status = shortcut_entry(shortcuts, supporters, v, u,
                                    PyList_GET_ITEM(base, i), &values[i]);
        Py_DECREF(u);
        if (status < 0) {
            goto done;
        }
    }
    result = float_list(values, n);
done:
    free(values);
    return result;
}

/* ------------------------------------------------------------------ */
/* Refreeze gather (live rows into a previous epoch's CSR layout)     */
/* ------------------------------------------------------------------ */

/* Replace a pending TypeError / OverflowError (a key or value of the wrong
 * kind) with the ValueError every gather mismatch raises. */
static void as_mismatch(const char *message) {
    if (PyErr_ExceptionMatches(PyExc_TypeError) ||
        PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, message);
    }
}

/* The layout row of `key` under `remap` (a dense int64 id -> row buffer, or
 * a dict); -1 with a ValueError set when the key has no row. */
static int64_t remapped_row(PyObject *remap, const int64_t *dense,
                            Py_ssize_t dense_n, PyObject *key) {
    PyObject *value = NULL;
    int64_t row = -1;
    if (dense != NULL) {
        long long id = PyLong_AsLongLong(key);
        if (id == -1 && PyErr_Occurred()) {
            as_mismatch("row key is not a vertex id");
            return -1;
        }
        row = (id >= 0 && id < dense_n) ? dense[id] : -1;
    } else {
        value = container_get(remap, key, 1);
        if (value == NULL) {
            if (PyErr_Occurred()) {
                return -1;
            }
        } else {
            row = PyLong_AsLongLong(value);
            Py_DECREF(value);
            if (row == -1 && PyErr_Occurred()) {
                as_mismatch("remap value is not a row");
                return -1;
            }
        }
    }
    if (row < 0) {
        PyErr_SetString(PyExc_ValueError, "row key is not in the layout");
    }
    return row;
}

/* out[lo:hi] = the values of one dict row, whose keys mapped through the
 * remap must be indices[lo:hi] in iteration order. */
static int gather_dict_row(PyObject *row, PyObject *remap, const int64_t *dense,
                           Py_ssize_t dense_n, const int64_t *indices,
                           double *out, int64_t lo, int64_t hi) {
    PyObject *items = NULL;
    PyMappingMethods *mapping = Py_TYPE(row)->tp_as_mapping;
    if (mapping == NULL ||
        mapping->mp_subscript != PyDict_Type.tp_as_mapping->mp_subscript) {
        /* A dict subclass with its own __getitem__ (an unmaterialised
         * LazyDict): its raw storage may be empty, so read items(). */
        items = PyMapping_Items(row);
        if (items == NULL) {
            return -1;
        }
        if (PyList_GET_SIZE(items) != hi - lo) {
            Py_DECREF(items);
            PyErr_SetString(PyExc_ValueError, "row length differs from the layout");
            return -1;
        }
    } else if (PyDict_GET_SIZE(row) != hi - lo) {
        PyErr_SetString(PyExc_ValueError, "row length differs from the layout");
        return -1;
    }
    Py_ssize_t pos = 0;
    int status = 0;
    for (int64_t j = lo; j < hi; j++) {
        PyObject *key, *value;
        if (items != NULL) {
            PyObject *item = PyList_GET_ITEM(items, j - lo);
            if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 2) {
                PyErr_SetString(PyExc_ValueError, "row items must be pairs");
                status = -1;
                break;
            }
            key = PyTuple_GET_ITEM(item, 0);
            value = PyTuple_GET_ITEM(item, 1);
        } else if (!PyDict_Next(row, &pos, &key, &value)) {
            PyErr_SetString(PyExc_ValueError, "row changed size during the gather");
            status = -1;
            break;
        }
        Py_INCREF(key);
        Py_INCREF(value);
        int64_t r = remapped_row(remap, dense, dense_n, key);
        if (r >= 0 && r != indices[j]) {
            PyErr_SetString(PyExc_ValueError, "row keys differ from the layout");
            r = -1;
        }
        if (r >= 0 && as_double(value, &out[j]) < 0) {
            as_mismatch("row entry is not a number");
            r = -1;
        }
        Py_DECREF(key);
        Py_DECREF(value);
        if (r < 0) {
            status = -1;
            break;
        }
    }
    /* A value's __float__ may have run Python that resized the row. */
    if (status == 0 && items == NULL && PyDict_GET_SIZE(row) != hi - lo) {
        PyErr_SetString(PyExc_ValueError, "row changed size during the gather");
        status = -1;
    }
    Py_XDECREF(items);
    return status;
}

/* out[lo:hi] = the entries of one list row of exactly hi - lo items. */
static int gather_list_row(PyObject *row, double *out, int64_t lo, int64_t hi) {
    if (PyList_GET_SIZE(row) != hi - lo) {
        PyErr_SetString(PyExc_ValueError, "row length differs from the layout");
        return -1;
    }
    for (int64_t j = lo; j < hi; j++) {
        /* row_entry re-checks the bound: __float__ may resize the row. */
        if (row_entry(row, (Py_ssize_t)(j - lo), &out[j]) < 0) {
            as_mismatch("row entry is not a number");
            return -1;
        }
    }
    return 0;
}

/* gather_rows(rows, indptr, out[, remap, indices]) -> None
 *
 * Writes the values of rows[r] into out[indptr[r]:indptr[r+1]]: the value
 * half of a CSR store refrozen into a previous epoch's layout.  List rows
 * must hold exactly the layout's count; dict rows (which need remap and
 * indices) exactly that many items, whose keys mapped through remap (a dense
 * int64 id -> row buffer, -1 for no row, or a dict) equal indices[j] in
 * iteration order.  Any mismatch -- a count, a key, the order, a value that
 * is no number, a row of another type -- is a ValueError, and `out` is then
 * partly written: the caller discards it and rebuilds the layout.  Nothing
 * but `out` is written. */
static PyObject *gather_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    enum { G_INDPTR, G_OUT, G_REMAP, G_INDICES, G_NVIEWS };
    Py_buffer views[G_NVIEWS];
    const void *ptr;
    Py_ssize_t n, n_indptr, n_out, n_remap = 0, n_indices = 0;
    const int64_t *indptr, *dense = NULL, *indices = NULL;
    double *out;
    PyObject *rows, *remap = nargs == 5 ? args[3] : NULL, *result = NULL;
    (void)self;
    if (nargs != 3 && nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "gather_rows(rows, indptr, out[, remap, indices]) takes 3 or 5 "
                        "arguments");
        return NULL;
    }
    memset(views, 0, sizeof(views));
    rows = PySequence_Fast(args[0], "rows must be a sequence");
    if (rows == NULL) {
        return NULL;
    }
    if (borrow_buffer(args[1], &views[G_INDPTR], &ptr, &n_indptr) < 0) {
        goto done;
    }
    indptr = (const int64_t *)ptr;
    if (PyObject_GetBuffer(args[2], &views[G_OUT], PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0) {
        goto done;
    }
    if (views[G_OUT].itemsize != 8) {
        PyErr_SetString(PyExc_TypeError, "out must be a float64 buffer");
        goto done;
    }
    out = (double *)views[G_OUT].buf;
    n_out = views[G_OUT].len / 8;
    if (remap != NULL) {
        if (PyObject_CheckBuffer(remap)) {
            if (borrow_buffer(remap, &views[G_REMAP], &ptr, &n_remap) < 0) {
                goto done;
            }
            dense = (const int64_t *)ptr;
        } else if (!PyDict_Check(remap)) {
            PyErr_SetString(PyExc_TypeError, "remap must be an int64 buffer or a dict");
            goto done;
        }
        if (borrow_buffer(args[4], &views[G_INDICES], &ptr, &n_indices) < 0) {
            goto done;
        }
        indices = (const int64_t *)ptr;
        if (n_indices != n_out) {
            PyErr_SetString(PyExc_ValueError, "indices and out must have equal lengths");
            goto done;
        }
    }
    n = PySequence_Fast_GET_SIZE(rows);
    if (n_indptr != n + 1 || indptr[0] != 0 || indptr[n] != n_out) {
        PyErr_SetString(PyExc_ValueError, "row count differs from the layout");
        goto done;
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        int64_t lo = indptr[r], hi = indptr[r + 1];
        int status;
        /* A previous row's __float__ may have run Python that resized a
         * list `rows`; the item array is fetched again each row. */
        if (PySequence_Fast_GET_SIZE(rows) != n) {
            PyErr_SetString(PyExc_ValueError, "rows changed size during the gather");
            goto done;
        }
        if (lo > hi || hi > n_out) {
            PyErr_SetString(PyExc_ValueError, "layout offsets are not monotone");
            goto done;
        }
        PyObject *row = PySequence_Fast_GET_ITEM(rows, r);
        Py_INCREF(row);
        if (PyDict_Check(row) && remap != NULL) {
            status = gather_dict_row(row, remap, dense, n_remap, indices, out, lo, hi);
        } else if (PyList_Check(row) && remap == NULL) {
            status = gather_list_row(row, out, lo, hi);
        } else {
            PyErr_SetString(PyExc_ValueError,
                            remap != NULL ? "keyed rows must be dicts"
                                          : "unkeyed rows must be lists");
            status = -1;
        }
        Py_DECREF(row);
        if (status < 0) {
            goto done;
        }
    }
    result = Py_None;
    Py_INCREF(result);
done:
    release_views(views, G_NVIEWS);
    Py_DECREF(rows);
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

/* The shape checks of update_slots, all before its first write: lengths
 * agree, both offset arrays start at 0 and are monotone, every row's
 * columns lie above the row and below n, every supporter slot lies in a row
 * below its target slot's row, every seed is a row.  0, or -1 with a
 * ValueError set. */
static int check_slots(const int64_t *indptr, Py_ssize_t n_indptr, const int64_t *indices,
                       Py_ssize_t m, Py_ssize_t n_base, Py_ssize_t n_weights,
                       const int64_t *sup_indptr, Py_ssize_t n_sup_indptr,
                       const int32_t *sup_slots, Py_ssize_t n_sup_slots,
                       const int64_t *seeds, Py_ssize_t n_seeds) {
    const char *error = NULL;
    Py_ssize_t n = n_indptr - 1;
    if (n_indptr < 1 || n_base != m || n_weights != m || n_sup_indptr != m + 1 ||
        n_sup_slots % 2 != 0 || indptr[0] != 0 || indptr[n] != m ||
        sup_indptr[0] != 0 || sup_indptr[m] != n_sup_slots / 2) {
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
        uint64_t limit = (uint64_t)indptr[r];
        for (int64_t k = 2 * sup_indptr[indptr[r]]; k < 2 * sup_indptr[indptr[r + 1]]; k++) {
            bad |= (uint64_t)(int64_t)sup_slots[k] >= limit;
        }
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

/* update_slots(indptr, indices, base, sup_indptr, sup_slots, weights, seeds)
 *     -> None
 *
 * Bottom-up shortcut maintenance over flat arrays (the pass DCH runs per
 * update batch).  Row r owns slots indptr[r]..indptr[r+1]; slot s holds the
 * shortcut from row r up to row indices[s], its graph weight base[s] (inf
 * for a non-edge) and the supporter pairs sup_slots[2k], sup_slots[2k+1]
 * for k in sup_indptr[s]..sup_indptr[s+1]: the two slots of a lower row x
 * whose sum is the shortcut's value through x.  Rows are visited in
 * ascending order from a bitmap seeded with `seeds`; every slot of a dirty
 * row becomes base min its supporter sums -- the float64 adds and `<` of
 * mde.recompute_shortcut, so values are bit-identical to the dict path --
 * and a changed slot (r, c) marks the owner of every pair (c, w) over r's
 * other columns w: min(c, w), always a row above r.  Only `weights` is
 * written: the caller passes the next epoch's copy, so a store over the
 * previous copy stays as it was.  Every input is checked first (see
 * check_slots); a failed check is a ValueError with nothing written.
 *
 * It returns None and raises with fixed messages on purpose: each C-API
 * function this file imports adds a PLT entry that moves every function
 * compiled after it, and moving the CH search code by 48 bytes made
 * search_query_pairs ~7% slower on a 2-core Xeon VM.  Keep new code free of
 * new imports, or re-measure the search kernels. */
static PyObject *update_slots(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    enum { U_INDPTR, U_INDICES, U_BASE, U_SUP_INDPTR, U_SUP_SLOTS, U_WEIGHTS, U_SEEDS,
           U_NVIEWS };
    static const char kinds[U_NVIEWS] = {'i', 'i', 'd', 'i', 'i', 'd', 'i'};
    static const Py_ssize_t sizes[U_NVIEWS] = {8, 8, 8, 8, 4, 8, 8};
    Py_buffer views[U_NVIEWS];
    Py_ssize_t counts[U_NVIEWS];
    PyObject *result = NULL;
    uint8_t *dirty = NULL;
    (void)self;
    if (nargs != U_NVIEWS) {
        PyErr_SetString(PyExc_TypeError,
                        "update_slots(indptr, indices, base, sup_indptr, sup_slots, "
                        "weights, seeds) takes 7 arguments");
        return NULL;
    }
    memset(views, 0, sizeof(views));
    for (int i = 0; i < U_NVIEWS; i++) {
        if (borrow_typed(args[i], &views[i], kinds[i], sizes[i], i == U_WEIGHTS) < 0) {
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
    if (check_slots(indptr, counts[U_INDPTR], indices, counts[U_INDICES], counts[U_BASE],
                    counts[U_WEIGHTS], sup_indptr, counts[U_SUP_INDPTR], sup_slots,
                    counts[U_SUP_SLOTS], seeds, counts[U_SEEDS]) < 0) {
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
        dirty[seeds[i]] = 1;
        if (seeds[i] < first) {
            first = seeds[i];
        }
    }
    for (int64_t r = first; r < n; r++) {
        if (!dirty[r]) {
            continue;
        }
        int64_t top = -1; /* highest column among the row's changed slots */
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
                dirty[indices[s]] = 1;
            } else if (indices[s] > top) {
                above = 1;
            }
        }
        if (above) {
            dirty[top] = 1;
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
 * column is 0.0.  Those are the candidates, the float64 adds and the `<` of
 * recompute_row, whose minimum does not depend on the order they are read
 * in, so the values are bit-identical to the container path.  A row whose
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
    {"search_build", search_build, METH_VARARGS,
     "search_build(ids, indptr, indices, weights) -> CSR search-graph capsule "
     "(buffers borrowed, not copied)"},
    {"search_is_tree", search_is_tree, METH_O,
     "search_is_tree(graph) -> True when CH queries walk the elimination tree"},
    {"search_query", (PyCFunction)search_query, METH_FASTCALL,
     "search_query(graph, rs, rt, ch_mode) -> bidirectional-search distance"},
    {"search_query_pairs", (PyCFunction)search_query_pairs, METH_FASTCALL,
     "search_query_pairs(graph, s_rows, t_rows, out, ch_mode) -> None (fills out)"},
    {"search_one_to_many", (PyCFunction)search_one_to_many, METH_FASTCALL,
     "search_one_to_many(graph, rs, t_rows, out) -> None (truncated Dijkstra)"},
    {"gather_rows", (PyCFunction)gather_rows, METH_FASTCALL,
     "gather_rows(rows, indptr, out[, remap, indices]) -> None (fills out with the "
     "rows' values in a fixed CSR layout; ValueError on any mismatch)"},
    {"recompute_row", (PyCFunction)maintain_recompute_row, METH_FASTCALL,
     "recompute_row(dis, anc, neighbors, sc_row, depth) -> H2H distance array "
     "of the vertex at the end of anc (inputs untouched)"},
    {"shortcut_row", (PyCFunction)maintain_shortcut_row, METH_FASTCALL,
     "shortcut_row(shortcuts, supporters, v, neighbors, base_weights) -> "
     "recomputed sc(v, u) for every u in neighbors (inputs untouched)"},
    {"update_slots", (PyCFunction)update_slots, METH_FASTCALL,
     "update_slots(indptr, indices, base, sup_indptr, sup_slots, weights, seeds) -> "
     "None (bottom-up pass from the seed rows; writes only weights)"},
    {"update_labels", (PyCFunction)update_labels, METH_FASTCALL,
     "update_labels(parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, "
     "pos_data, sc, dis_data, seeds, allowed, changed, counts, lo, hi) -> None "
     "(top-down label pass from the seed rows; writes dis_data, changed, counts)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_labelkernel", NULL, -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__labelkernel(void) { return PyModule_Create(&moduledef); }
