/* Packed replay engine for the repro timing interleaver.
 *
 * This is a transcription of ``TimingInterleaver._run_fast``
 * (src/repro/trace/interleave.py) into C: the chunk-drain inner loop,
 * the process scheduler (the ``(time, seq, pid)`` heap with its fused
 * push-and-pop preemption), and the snoopy miss path of
 * ``CoherenceController`` (src/repro/core/coherence.py: ``read_miss``,
 * ``write_line``, ``_snoop_downgrade``, ``_invalidate_remote``,
 * ``_install``).  It works on the python model's own storage: raw
 * ``int64_t*`` views of the ``array('q')`` tag/state/bank tables, and
 * the in-flight dicts, lost-line sets, write-buffer heaps, scheduler
 * heap and ``_Process`` objects through the C API.  Everything here must
 * stay observably identical to the python loop -- the differential
 * verifier diffs fingerprints and error messages.
 *
 * Protocol: ``setup(plan)`` parses the plan tuple into a context capsule
 * with all buffers acquired once; ``drain(ctx)`` runs the scheduler
 * until python is needed and returns
 *
 *   0  the heap is empty (end of run, or every process blocked);
 *   1  process ``regs[0]`` needs its generator resumed (it has no
 *      chunk yet, or just exhausted one);
 *   2  process ``regs[0]`` reached lock/barrier opcode ``regs[1]`` with
 *      operands ``regs[2]``, ``regs[3]``; ``process.time`` is current.
 *
 * and the wrapper (engine/native.py) runs that python step and calls
 * ``drain`` again.  ``release(ctx)`` drops the buffer views.
 *
 * State contract: whenever control is in python (a return from
 * ``drain``, an ``ifetch`` callback, an exception) the python-visible
 * state equals what ``_run_fast`` holds at the same point.  Process
 * fields are written exactly where ``_run_fast`` writes them.  The bus
 * fields, the interleaver's ``_seq`` and the statistics the python miss
 * path updates eagerly are cached here and synced at every crossing
 * (``sync_out`` / ``sync_in``); the hit-path deltas that ``_run_fast``
 * itself defers are flushed by the wrapper at the end, like its
 * ``finally``.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Exported as ``ABI_VERSION``; engine/native.py refuses any other. */
#define NATIVE_ABI "4"

#define OP_READ 1
#define OP_WRITE 2
#define OP_COMPUTE 3
#define OP_IFETCH 4
#define OP_LOCK_ACQ 5
#define OP_LOCK_REL 6
#define OP_BARRIER 7
#define OP_ENQUEUE 8
#define OP_DEQUEUE 9
#define OP_READ_SPAN 10
#define OP_WRITE_SPAN 11

/* repro.core.cache line states */
#define ST_INVALID 0
#define ST_SHARED 1
#define ST_MODIFIED 2
#define ST_EXCLUSIVE 3

#define STATUS_DONE 0
#define STATUS_ADVANCE 1
#define STATUS_SYNC 2

#define NO_LIMIT 0x7fffffffffffffffLL

static PyObject *g_deque = NULL;      /* collections.deque */
static PyObject *s_append = NULL;
static PyObject *s_popleft = NULL;
static PyObject *s_seq;
static PyObject *s_busy_until, *s_transactions, *s_busy_cycles;
static PyObject *s_write_stall_cycles;

/* SccStats counters the python miss path bumps as it goes. */
enum {
    M_READS, M_READ_MISSES, M_WRITES, M_WRITE_MISSES, M_UPGRADES,
    M_INV_SENT, M_INV_RECEIVED, M_INTERVENTIONS, M_WRITEBACKS,
    M_EVICTIONS, M_COHERENCE_READ_MISSES, M_BUS_WAIT, M_COUNT
};
static const char *const m_names[M_COUNT] = {
    "reads", "read_misses", "writes", "write_misses", "upgrades",
    "invalidations_sent", "invalidations_received", "interventions",
    "writebacks", "evictions", "coherence_read_misses",
    "bus_wait_cycles",
};
static PyObject *s_m[M_COUNT];

/* The ``_Process`` fields the scheduler reads and writes. */
enum { F_TIME, F_CHUNK, F_CHUNK_POS, F_CHUNK_SUB, F_IN_HEAP, F_BLOCKED,
       F_COUNT };
static const char *const f_names[F_COUNT] = {
    "time", "chunk", "chunk_pos", "chunk_sub", "in_heap", "blocked",
};
static PyObject *s_f[F_COUNT];

/* Where the next ``drain`` call picks up. */
#define RESUME_OUTER 0     /* pop the heap */
#define RESUME_ADVANCE 1   /* ``cur`` was handed to its generator */
#define RESUME_SYNC 2      /* ``cur`` ran a lock/barrier handler */

typedef struct {
    PyObject *plan;           /* strong ref; keeps every borrowed ptr alive */
    int n_cl;
    int nproc;
    int released;
    long long idx_mask, tag_shift, num_lines, line_shift, nbanks;
    long long bank_cycle, wb_depth, iline_shift, limit;
    long long bus_occ, upg_occ, mem_lat;
    int stall_on_writes, icache_mode, mesi;
    /* per cluster */
    long long **cl_states, **cl_tags, **cl_bank_free;
    PyObject **cl_inflight, **cl_lost, **cl_stats, **cl_icn, **cl_wbufs;
    /* per processor */
    long long *proc_cluster;
    PyObject **procs;         /* _Process by pid (Py_None: unregistered) */
    PyMemberDef *fields[F_COUNT];  /* their __slots__ */
    PyObject **chunk_obj;     /* chunk whose view is held in chunk_view */
    Py_buffer *chunk_view;
    long long **ic_states, **ic_tags;
    long long *ic_mask, *ic_shift;
    /* deltas _run_fast defers to its ``finally`` (flushed by the
     * wrapper) */
    long long *d_reads, *d_writes, *d_conf, *d_wbuf;
    long long *d_refs, *d_busy, *d_stall, *d_finish, *d_icfetch, *misc;
    long long *regs;          /* out: pid, op, arg1, arg2 */
    PyObject *interleaver, *heap, *bus, *ifetch, *queues;
    /* python state cached between crossings (sync_in / sync_out) */
    long long seq, bus_until, bus_tx, bus_busy;
    long long *m;             /* n_cl x M_COUNT stat deltas */
    long long *m_wstall;      /* n_cl interconnect write_stall_cycles */
    int seq_dirty, bus_dirty, m_dirty;
    /* scheduler position between drain calls */
    int resume;
    long long cur, i;         /* process, and its position after a sync */
    unsigned long polls;
    Py_buffer *views;
    int nviews;
} Ctx;

static const char CTX_NAME[] = "repro.trace.engine._native.ctx";

/* ---------------------------------------------------------------- utils */

static long long *
acquire_ll(Ctx *ctx, PyObject *obj)
{
    Py_buffer *view = &ctx->views[ctx->nviews];
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE) < 0)
        return NULL;
    ctx->nviews++;
    return (long long *)view->buf;
}

static int
get_ll_item(PyObject *seq, Py_ssize_t i, long long *out)
{
    PyObject *obj = PySequence_GetItem(seq, i);
    if (!obj)
        return -1;
    *out = PyLong_AsLongLong(obj);
    Py_DECREF(obj);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
get_attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (!v)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
set_attr_ll(PyObject *obj, PyObject *name, long long val)
{
    PyObject *v = PyLong_FromLongLong(val);
    if (!v)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

/* ``obj.name += delta`` */
static int
add_attr_ll(PyObject *obj, PyObject *name, long long delta)
{
    long long v;
    if (get_attr_ll(obj, name, &v) < 0)
        return -1;
    return set_attr_ll(obj, name, v + delta);
}

/* Process fields go straight through the ``__slots__`` member
 * definitions (PyMember_GetOne/SetOne): several per process switch,
 * without attribute lookup. */

static PyObject *
pf_get(Ctx *ctx, PyObject *proc, int f)
{
    return PyMember_GetOne((const char *)proc, ctx->fields[f]);
}

static int
pf_set(Ctx *ctx, PyObject *proc, int f, PyObject *v)
{
    return PyMember_SetOne((char *)proc, ctx->fields[f], v);
}

static int
pf_get_ll(Ctx *ctx, PyObject *proc, int f, long long *out)
{
    PyObject *v = pf_get(ctx, proc, f);
    if (!v)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
pf_set_ll(Ctx *ctx, PyObject *proc, int f, long long val)
{
    PyObject *v = PyLong_FromLongLong(val);
    if (!v)
        return -1;
    int r = pf_set(ctx, proc, f, v);
    Py_DECREF(v);
    return r;
}

static int
pf_get_bool(Ctx *ctx, PyObject *proc, int f)
{
    PyObject *v = pf_get(ctx, proc, f);
    if (!v)
        return -1;
    int r = PyObject_IsTrue(v);
    Py_DECREF(v);
    return r;
}

/* The slot definitions of the processes' one type (``_Process``). */
static int
resolve_fields(Ctx *ctx)
{
    PyTypeObject *type = NULL;
    for (int p = 0; p < ctx->nproc; p++) {
        PyObject *proc = ctx->procs[p];
        if (proc == Py_None)
            continue;
        if (type && Py_TYPE(proc) != type)
            goto bad;
        type = Py_TYPE(proc);
    }
    if (!type)
        goto bad;
    for (int f = 0; f < F_COUNT; f++) {
        PyObject *descr = PyObject_GetAttr((PyObject *)type, s_f[f]);
        if (!descr)
            return -1;
        int ok = Py_IS_TYPE(descr, &PyMemberDescr_Type);
        ctx->fields[f] = ok ? ((PyMemberDescrObject *)descr)->d_member
                            : NULL;
        Py_DECREF(descr);     /* the type's dict keeps it alive */
        if (!ok || ctx->fields[f]->type != T_OBJECT_EX
            || (ctx->fields[f]->flags & READONLY))
            goto bad;
    }
    return 0;
bad:
    PyErr_SetString(PyExc_TypeError,
                    "processes must share one type with writable "
                    "__slots__ fields");
    return -1;
}

/* ------------------------------------------------------------- heapq */

/* Exact transcriptions of heapq's ``_siftdown``/``_siftup``, so every
 * heap -- the scheduler's ``(time, seq, pid)`` tuples and the
 * write-buffer ints -- has the very layout the python loop would leave.
 * Items are only permuted, so references move without refcounting.
 * Scheduler keys are ``(time, seq)``: seq is unique, so the pid never
 * takes part in a comparison. */

typedef struct {
    long long a, b;
} HKey;

static int
hkey(PyObject *item, int tuple, HKey *k)
{
    if (tuple) {
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) < 3) {
            PyErr_SetString(PyExc_TypeError,
                            "scheduler heap entries must be 3-tuples");
            return -1;
        }
        k->a = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 0));
        k->b = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 1));
    }
    else {
        k->a = PyLong_AsLongLong(item);
        k->b = 0;
    }
    if ((k->a == -1 || k->b == -1) && PyErr_Occurred())
        return -1;
    return 0;
}

static inline int
hkey_lt(const HKey *x, const HKey *y)
{
    return x->a < y->a || (x->a == y->a && x->b < y->b);
}

static int
h_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos, int tuple)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    HKey nk, pk;
    if (hkey(newitem, tuple, &nk) < 0)
        return -1;
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        if (hkey(parent, tuple, &pk) < 0)
            return -1;
        if (hkey_lt(&nk, &pk)) {
            PyList_SET_ITEM(heap, pos, parent);
            pos = parentpos;
            continue;
        }
        break;
    }
    PyList_SET_ITEM(heap, pos, newitem);
    return 0;
}

static int
h_siftup(PyObject *heap, Py_ssize_t pos, int tuple)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_ssize_t childpos = 2 * pos + 1;
    HKey ck, rk;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            if (hkey(PyList_GET_ITEM(heap, childpos), tuple, &ck) < 0
                || hkey(PyList_GET_ITEM(heap, rightpos), tuple, &rk) < 0)
                return -1;
            if (!hkey_lt(&ck, &rk))
                childpos = rightpos;
        }
        PyList_SET_ITEM(heap, pos, PyList_GET_ITEM(heap, childpos));
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SET_ITEM(heap, pos, newitem);
    return h_siftdown(heap, startpos, pos, tuple);
}

/* heapq.heappush; steals ``item``. */
static int
h_push(PyObject *heap, PyObject *item, int tuple)
{
    int r = PyList_Append(heap, item);
    Py_DECREF(item);
    if (r < 0)
        return -1;
    return h_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1, tuple);
}

/* heapq.heappop on a non-empty heap; returns a new reference. */
static PyObject *
h_pop(PyObject *heap, int tuple)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *ret = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);     /* our ref moves into the list */
    if (h_siftup(heap, 0, tuple) < 0) {
        Py_DECREF(ret);
        return NULL;
    }
    return ret;
}

/* heapq.heappushpop; steals ``item``, returns a new reference. */
static PyObject *
h_pushpop(PyObject *heap, PyObject *item, int tuple)
{
    if (PyList_GET_SIZE(heap) == 0)
        return item;
    HKey top, k;
    if (hkey(PyList_GET_ITEM(heap, 0), tuple, &top) < 0
        || hkey(item, tuple, &k) < 0) {
        Py_DECREF(item);
        return NULL;
    }
    if (!hkey_lt(&top, &k))
        return item;
    PyObject *ret = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, item);
    if (h_siftup(heap, 0, tuple) < 0) {
        Py_DECREF(ret);
        return NULL;
    }
    return ret;
}

/* Write-buffer heaps (used by the fused ladder too). */

static int
wb_heappush(PyObject *heap, long long val)
{
    PyObject *obj = PyLong_FromLongLong(val);
    if (!obj)
        return -1;
    return h_push(heap, obj, 0);
}

static long long
wb_heappop(PyObject *heap, int *err)
{
    PyObject *obj = h_pop(heap, 0);
    if (!obj) {
        *err = 1;
        return 0;
    }
    long long v = PyLong_AsLongLong(obj);
    Py_DECREF(obj);
    if (v == -1 && PyErr_Occurred())
        *err = 1;
    return v;
}

/* --------------------------------------------------------- sync points */

/* Push the cached python state out before control enters python. */
static int
sync_out(Ctx *ctx)
{
    if (ctx->seq_dirty) {
        if (set_attr_ll(ctx->interleaver, s_seq, ctx->seq) < 0)
            return -1;
        ctx->seq_dirty = 0;
    }
    if (ctx->bus_dirty) {
        if (set_attr_ll(ctx->bus, s_busy_until, ctx->bus_until) < 0
            || set_attr_ll(ctx->bus, s_transactions, ctx->bus_tx) < 0
            || set_attr_ll(ctx->bus, s_busy_cycles, ctx->bus_busy) < 0)
            return -1;
        ctx->bus_dirty = 0;
    }
    if (ctx->m_dirty) {
        for (int c = 0; c < ctx->n_cl; c++) {
            long long *m = ctx->m + (Py_ssize_t)c * M_COUNT;
            for (int k = 0; k < M_COUNT; k++) {
                if (m[k]) {
                    if (add_attr_ll(ctx->cl_stats[c], s_m[k], m[k]) < 0)
                        return -1;
                    m[k] = 0;
                }
            }
            if (ctx->m_wstall[c]) {
                if (add_attr_ll(ctx->cl_icn[c], s_write_stall_cycles,
                                ctx->m_wstall[c]) < 0)
                    return -1;
                ctx->m_wstall[c] = 0;
            }
        }
        ctx->m_dirty = 0;
    }
    return 0;
}

/* Re-read what python may have changed while it had control. */
static int
sync_in(Ctx *ctx)
{
    if (get_attr_ll(ctx->interleaver, s_seq, &ctx->seq) < 0
        || get_attr_ll(ctx->bus, s_busy_until, &ctx->bus_until) < 0
        || get_attr_ll(ctx->bus, s_transactions, &ctx->bus_tx) < 0
        || get_attr_ll(ctx->bus, s_busy_cycles, &ctx->bus_busy) < 0)
        return -1;
    return 0;
}

/* sync_out on an error path, keeping the pending exception. */
static void
sync_out_on_error(Ctx *ctx)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (sync_out(ctx) < 0)
        PyErr_Clear();
    PyErr_Restore(type, value, tb);
}

/* ------------------------------------------------- bus and write buffer */

/* SnoopyBus.acquire minus the probe: returns the grant cycle. */
static inline long long
bus_acquire(Ctx *ctx, long long now, long long occupancy)
{
    long long grant = ctx->bus_until > now ? ctx->bus_until : now;
    ctx->bus_until = grant + occupancy;
    ctx->bus_tx++;
    ctx->bus_busy += occupancy;
    ctx->bus_dirty = 1;
    return grant;
}

/* BankInterconnect.reserve_write_slot minus the probe. */
static long long
c_reserve(Ctx *ctx, long long cl, long long bank, long long now,
          long long retire, int *err)
{
    PyObject *buf = PyList_GET_ITEM(ctx->cl_wbufs[cl], bank);
    while (PyList_GET_SIZE(buf) > 0) {
        long long top = PyLong_AsLongLong(PyList_GET_ITEM(buf, 0));
        if (top == -1 && PyErr_Occurred()) {
            *err = 1;
            return 0;
        }
        if (top > now)
            break;
        wb_heappop(buf, err);
        if (*err)
            return 0;
    }
    long long stall = 0;
    if (PyList_GET_SIZE(buf) >= ctx->wb_depth) {
        long long oldest = wb_heappop(buf, err);
        if (*err)
            return 0;
        stall = oldest - now;
        if (stall < 0)
            stall = 0;
        if (stall) {
            ctx->m_wstall[cl] += stall;
            ctx->m_dirty = 1;
        }
    }
    long long push = now + stall;
    if (retire > push)
        push = retire;
    if (wb_heappush(buf, push) < 0) {
        *err = 1;
        return 0;
    }
    return stall;
}

/* ------------------------------------------------ in-flight fill maps */

static long long
inflight_done(PyObject *infl, long long line, long long start, int *err)
{
    if (PyDict_GET_SIZE(infl) == 0)
        return start + 1;
    PyObject *key = PyLong_FromLongLong(line);
    if (!key) {
        *err = 1;
        return 0;
    }
    PyObject *val = PyDict_GetItemWithError(infl, key);
    long long done = start + 1;
    if (val) {
        long long ready = PyLong_AsLongLong(val);
        if (ready == -1 && PyErr_Occurred()) {
            Py_DECREF(key);
            *err = 1;
            return 0;
        }
        if (ready <= start) {
            if (PyDict_DelItem(infl, key) < 0) {
                Py_DECREF(key);
                *err = 1;
                return 0;
            }
        }
        else {
            done = ready + 1;
        }
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(key);
        *err = 1;
        return 0;
    }
    Py_DECREF(key);
    return done;
}

/* SharedClusterCache.drop_inflight */
static int
drop_inflight(PyObject *infl, PyObject *key)
{
    if (PyDict_GET_SIZE(infl) == 0)
        return 0;
    int has = PyDict_Contains(infl, key);
    if (has <= 0)
        return has;
    return PyDict_DelItem(infl, key);
}

/* ------------------------------------------------------ snoopy miss path */

/* CoherenceController._install: place ``line`` (``key``) in cluster
 * ``cl``'s array, time its fill, and retire any victim. */
static int
c_install(Ctx *ctx, long long cl, PyObject *key, long long line,
          long long state, long long start, long long ready)
{
    long long idx = line & ctx->idx_mask;
    long long tag = line >> ctx->tag_shift;
    long long *states = ctx->cl_states[cl];
    long long *tags = ctx->cl_tags[cl];
    long long old = states[idx];
    int victim = old != ST_INVALID && tags[idx] != tag;
    long long victim_line = tags[idx] * ctx->num_lines + idx;
    tags[idx] = tag;
    states[idx] = state;
    PyObject *pready = PyLong_FromLongLong(ready);
    if (!pready)
        return -1;
    int r = PyDict_SetItem(ctx->cl_inflight[cl], key, pready);
    Py_DECREF(pready);
    if (r < 0)
        return -1;
    if (victim) {
        PyObject *vkey = PyLong_FromLongLong(victim_line);
        if (!vkey)
            return -1;
        r = drop_inflight(ctx->cl_inflight[cl], vkey);
        Py_DECREF(vkey);
        if (r < 0)
            return -1;
        long long *m = ctx->m + cl * M_COUNT;
        m[M_EVICTIONS]++;
        if (old == ST_MODIFIED) {
            /* The write-back occupies the bus from the *request* time;
             * nobody waits on it (see coherence._install). */
            m[M_WRITEBACKS]++;
            bus_acquire(ctx, start, ctx->bus_occ);
        }
    }
    return 0;
}

/* CoherenceController._snoop_downgrade: 1 if a remote SCC held the
 * line, 0 if none did. */
static int
c_snoop_downgrade(Ctx *ctx, long long cl, long long line)
{
    long long idx = line & ctx->idx_mask;
    long long tag = line >> ctx->tag_shift;
    int held = 0;
    for (int o = 0; o < ctx->n_cl; o++) {
        if (o == cl)
            continue;
        long long *states = ctx->cl_states[o];
        long long state = states[idx];
        if (state == ST_INVALID || ctx->cl_tags[o][idx] != tag)
            continue;
        held = 1;
        if (state == ST_MODIFIED) {
            states[idx] = ST_SHARED;
            ctx->m[cl * M_COUNT + M_INTERVENTIONS]++;
        }
        else if (state == ST_EXCLUSIVE) {
            states[idx] = ST_SHARED;
        }
    }
    return held;
}

/* CoherenceController._invalidate_remote */
static int
c_invalidate_remote(Ctx *ctx, long long cl, PyObject *key, long long line)
{
    long long idx = line & ctx->idx_mask;
    long long tag = line >> ctx->tag_shift;
    long long killed = 0;
    for (int o = 0; o < ctx->n_cl; o++) {
        if (o == cl)
            continue;
        /* Dropped unconditionally: a fill snatched mid-flight leaves no
         * resident copy, but its stale entry could satisfy a later miss
         * to another tag on the same index. */
        if (drop_inflight(ctx->cl_inflight[o], key) < 0)
            return -1;
        long long *states = ctx->cl_states[o];
        if (states[idx] != ST_INVALID && ctx->cl_tags[o][idx] == tag) {
            states[idx] = ST_INVALID;
            if (PySet_Add(ctx->cl_lost[o], key) < 0)
                return -1;
            ctx->m[o * M_COUNT + M_INV_RECEIVED]++;
            killed++;
        }
    }
    ctx->m[cl * M_COUNT + M_INV_SENT] += killed;
    return 0;
}

/* SharedClusterCache.consume_lost: 1 if the line was lost to a remote
 * invalidation (and forgets it), else 0. */
static inline int
consume_lost(PyObject *lost, PyObject *key)
{
    if (PySet_GET_SIZE(lost) == 0)
        return 0;
    return PySet_Discard(lost, key);
}

/* CoherenceController.read_miss: returns the completion cycle. */
static long long
c_read_miss(Ctx *ctx, long long cl, long long line, long long start,
            int *err)
{
    PyObject *key = PyLong_FromLongLong(line);
    if (!key) {
        *err = 1;
        return 0;
    }
    long long *m = ctx->m + cl * M_COUNT;
    ctx->m_dirty = 1;
    m[M_READS]++;
    m[M_READ_MISSES]++;
    int lost = consume_lost(ctx->cl_lost[cl], key);
    if (lost < 0)
        goto fail;
    if (lost)
        m[M_COHERENCE_READ_MISSES]++;
    long long grant = bus_acquire(ctx, start, ctx->bus_occ);
    m[M_BUS_WAIT] += grant - start;
    long long done = grant + ctx->mem_lat;
    long long state = ST_SHARED;
    if (!c_snoop_downgrade(ctx, cl, line) && ctx->mesi)
        state = ST_EXCLUSIVE;
    if (c_install(ctx, cl, key, line, state, start, done) < 0)
        goto fail;
    Py_DECREF(key);
    return done + 1;
fail:
    Py_DECREF(key);
    *err = 1;
    return 0;
}

/* CoherenceController.write_line for everything but a MODIFIED or
 * EXCLUSIVE hit (handled inline): the upgrade of a SHARED copy, or a
 * write miss. */
static int
c_write_line(Ctx *ctx, long long cl, long long line, long long start,
             long long *complete, long long *retire)
{
    PyObject *key = PyLong_FromLongLong(line);
    if (!key)
        return -1;
    long long idx = line & ctx->idx_mask;
    long long *states = ctx->cl_states[cl];
    long long *m = ctx->m + cl * M_COUNT;
    ctx->m_dirty = 1;
    m[M_WRITES]++;
    if (states[idx] == ST_SHARED
        && ctx->cl_tags[cl][idx] == (line >> ctx->tag_shift)) {
        /* Upgrade: broadcast an invalidation; the store drains from the
         * write buffer, so the processor continues after one cycle. */
        m[M_UPGRADES]++;
        long long grant = bus_acquire(ctx, start, ctx->upg_occ);
        if (c_invalidate_remote(ctx, cl, key, line) < 0)
            goto fail;
        states[idx] = ST_MODIFIED;
        *complete = start + 1;
        *retire = grant + ctx->upg_occ;
    }
    else {
        m[M_WRITE_MISSES]++;
        if (consume_lost(ctx->cl_lost[cl], key) < 0)
            goto fail;
        long long grant = bus_acquire(ctx, start, ctx->bus_occ);
        m[M_BUS_WAIT] += grant - start;
        long long done = grant + ctx->mem_lat;
        if (c_invalidate_remote(ctx, cl, key, line) < 0)
            goto fail;
        if (c_install(ctx, cl, key, line, ST_MODIFIED, start, done) < 0)
            goto fail;
        *complete = start + 1;
        *retire = done;
    }
    Py_DECREF(key);
    return 0;
fail:
    Py_DECREF(key);
    return -1;
}

/* ------------------------------------------------------------- ifetch */

/* MultiprocessorSystem.ifetch, in python: it may refill over the bus. */
static long long
call_ifetch(Ctx *ctx, long long pid, long long addr, long long count,
            long long time, int *err)
{
    if (sync_out(ctx) < 0) {
        *err = 1;
        return 0;
    }
    PyObject *res = PyObject_CallFunction(ctx->ifetch, "LLLL", pid, addr,
                                          count, time);
    if (!res) {
        *err = 1;
        return 0;
    }
    long long v = PyLong_AsLongLong(res);
    Py_DECREF(res);
    if ((v == -1 && PyErr_Occurred()) || sync_in(ctx) < 0) {
        *err = 1;
        return 0;
    }
    return v;
}

/* ---------------------------------------------------------- data access */

/* One read/write reference; mirrors the python data-event body. */
static int
do_access(Ctx *ctx, long long cl, long long pid, int is_read,
          long long addr, long long *time_io)
{
    long long time = *time_io;
    long long line = addr >> ctx->line_shift;
    long long bank = line % ctx->nbanks;   /* python %: floored */
    if (bank < 0)
        bank += ctx->nbanks;
    long long *bank_free = ctx->cl_bank_free[cl];
    long long free_t = bank_free[bank];
    long long start;
    if (free_t > time) {
        ctx->d_conf[cl] += free_t - time;
        start = free_t;
    }
    else {
        start = time;
    }
    bank_free[bank] = start + ctx->bank_cycle;
    long long idx = line & ctx->idx_mask;
    long long *states = ctx->cl_states[cl];
    long long *tags = ctx->cl_tags[cl];
    long long done;
    int err = 0;
    if (is_read) {
        if (states[idx] && tags[idx] == (line >> ctx->tag_shift)) {
            ctx->d_reads[cl]++;
            done = inflight_done(ctx->cl_inflight[cl], line, start, &err);
        }
        else {
            done = c_read_miss(ctx, cl, line, start, &err);
        }
        if (err)
            return -1;
    }
    else {
        if (states[idx] >= ST_MODIFIED
            && tags[idx] == (line >> ctx->tag_shift)) {
            /* MODIFIED write hit, or the MESI silent E -> M upgrade. */
            states[idx] = ST_MODIFIED;
            ctx->d_writes[cl]++;
            done = inflight_done(ctx->cl_inflight[cl], line, start, &err);
            if (err)
                return -1;
            if (!ctx->stall_on_writes) {
                long long stall =
                    c_reserve(ctx, cl, bank, done, done, &err);
                if (err)
                    return -1;
                ctx->d_wbuf[cl] += stall;
                done += stall;
            }
        }
        else {
            long long complete, retire;
            if (c_write_line(ctx, cl, line, start, &complete, &retire) < 0)
                return -1;
            done = complete;
            if (ctx->stall_on_writes) {
                if (retire > done)
                    done = retire;
            }
            else {
                long long stall =
                    c_reserve(ctx, cl, bank, done, retire, &err);
                if (err)
                    return -1;
                ctx->d_wbuf[cl] += stall;
                done += stall;
            }
        }
    }
    ctx->d_refs[pid]++;
    ctx->d_busy[pid]++;
    ctx->d_stall[pid] += done - time - 1;
    ctx->d_finish[pid] = done;
    *time_io = done;
    return 0;
}

/* ------------------------------------------------------------ processes */

static void
drop_chunk_view(Ctx *ctx, long long pid)
{
    if (ctx->chunk_obj[pid]) {
        PyBuffer_Release(&ctx->chunk_view[pid]);
        ctx->chunk_obj[pid] = NULL;
    }
}

/* Switch to process ``pid`` the way _run_fast does: 0 if it has no
 * chunk (its generator must run), 1 with ``*i``/``*sub``/``*time``
 * loaded, -1 on error.  Chunk views are cached per process while the
 * chunk object stays the same (the view keeps it alive, so identity
 * cannot be recycled under us). */
static int
load_process(Ctx *ctx, long long pid, long long *i, long long *sub,
             long long *time)
{
    PyObject *proc = ctx->procs[pid];
    PyObject *chunk = pf_get(ctx, proc, F_CHUNK);
    if (!chunk)
        return -1;
    if (chunk == Py_None) {
        Py_DECREF(chunk);
        return 0;
    }
    if (ctx->chunk_obj[pid] != chunk) {
        drop_chunk_view(ctx, pid);
        Py_buffer *view = &ctx->chunk_view[pid];
        if (PyObject_GetBuffer(chunk, view, PyBUF_FORMAT) < 0) {
            Py_DECREF(chunk);
            return -1;
        }
        if (view->itemsize != 8 || !view->format
            || strcmp(view->format, "q") != 0) {
            PyBuffer_Release(view);
            Py_DECREF(chunk);
            PyErr_SetString(PyExc_TypeError,
                            "packed chunks must be array('q')");
            return -1;
        }
        ctx->chunk_obj[pid] = chunk;
    }
    Py_DECREF(chunk);
    if (pf_get_ll(ctx, proc, F_CHUNK_POS, i) < 0
        || pf_get_ll(ctx, proc, F_CHUNK_SUB, sub) < 0
        || pf_get_ll(ctx, proc, F_TIME, time) < 0)
        return -1;
    return 1;
}

/* ``process.time, .chunk_pos, .chunk_sub = time, i, sub`` */
static int
store_process(Ctx *ctx, PyObject *proc, long long time, long long i,
              long long sub)
{
    if (pf_set_ll(ctx, proc, F_TIME, time) < 0
        || pf_set_ll(ctx, proc, F_CHUNK_POS, i) < 0
        || pf_set_ll(ctx, proc, F_CHUNK_SUB, sub) < 0)
        return -1;
    return 0;
}

/* The pid of a popped scheduler entry (a new reference, consumed), or
 * -1 with an exception set. */
static long long
heap_pid(Ctx *ctx, PyObject *item)
{
    if (!item)
        return -1;
    long long pid = -1;
    if (PyTuple_Check(item) && PyTuple_GET_SIZE(item) == 3)
        pid = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 2));
    Py_DECREF(item);
    if (pid == -1 && PyErr_Occurred())
        return -1;
    if (pid < 0 || pid >= ctx->nproc || ctx->procs[pid] == Py_None) {
        PyErr_Format(PyExc_RuntimeError,
                     "scheduler heap names unknown process %lld", pid);
        return -1;
    }
    return pid;
}

static int
heap_top(Ctx *ctx, long long *next_time)
{
    if (PyList_GET_SIZE(ctx->heap) == 0) {
        *next_time = NO_LIMIT;
        return 0;
    }
    HKey k;
    if (hkey(PyList_GET_ITEM(ctx->heap, 0), 1, &k) < 0)
        return -1;
    *next_time = k.a;
    return 0;
}

/* ------------------------------------------------------------ lifecycle */

static void
ctx_free_arrays(Ctx *ctx)
{
    PyMem_Free(ctx->views);
    PyMem_Free(ctx->cl_states);
    PyMem_Free(ctx->cl_inflight);
    PyMem_Free(ctx->procs);
    PyMem_Free(ctx->chunk_view);
    PyMem_Free(ctx->ic_states);
    PyMem_Free(ctx->ic_mask);
    PyMem_Free(ctx->m);
}

static void
ctx_release(Ctx *ctx)
{
    if (ctx->released)
        return;
    ctx->released = 1;
    for (int p = 0; p < ctx->nproc; p++)
        drop_chunk_view(ctx, p);
    for (int i = 0; i < ctx->nviews; i++)
        PyBuffer_Release(&ctx->views[i]);
    ctx->nviews = 0;
    Py_CLEAR(ctx->plan);
}

static void
ctx_destructor(PyObject *capsule)
{
    Ctx *ctx = (Ctx *)PyCapsule_GetPointer(capsule, CTX_NAME);
    if (!ctx)
        return;
    ctx_release(ctx);
    ctx_free_arrays(ctx);
    PyMem_Free(ctx);
}

/* plan = (per_cluster, objects, scal, ic_tuple, deltas, regs)
 *   per_cluster[c] = (states, tags, bank_free, inflight, lost_lines,
 *                     stats, interconnect, write_buffers)
 *   objects = (interleaver, heap, bus, processes_by_pid, proc_cluster,
 *              ifetch, queues)
 *   scal = array('q', [idx_mask, tag_shift, line_shift, nbanks,
 *                      bank_cycle, stall_on_writes, wb_depth,
 *                      icache_mode, iline_shift, limit, bus_occupancy,
 *                      upgrade_bus_occupancy, memory_latency, mesi])
 */
#define N_SCAL 14

static PyObject *
native_setup(PyObject *self, PyObject *plan)
{
    (void)self;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 6) {
        PyErr_SetString(PyExc_TypeError, "plan must be a 6-tuple");
        return NULL;
    }
    PyObject *per_cluster = PyTuple_GET_ITEM(plan, 0);
    PyObject *objects = PyTuple_GET_ITEM(plan, 1);
    PyObject *scal = PyTuple_GET_ITEM(plan, 2);
    PyObject *ic_tuple = PyTuple_GET_ITEM(plan, 3);
    PyObject *deltas = PyTuple_GET_ITEM(plan, 4);
    PyObject *regs = PyTuple_GET_ITEM(plan, 5);
    if (!PyTuple_Check(per_cluster) || !PyTuple_Check(objects)
        || PyTuple_GET_SIZE(objects) != 7 || !PyTuple_Check(ic_tuple)
        || !PyTuple_Check(deltas) || PyTuple_GET_SIZE(deltas) != 10
        || !PyTuple_Check(PyTuple_GET_ITEM(objects, 3))
        || !PyList_Check(PyTuple_GET_ITEM(objects, 1))) {
        PyErr_SetString(PyExc_TypeError, "malformed drain plan");
        return NULL;
    }
    PyObject *procs = PyTuple_GET_ITEM(objects, 3);

    Ctx *ctx = PyMem_Calloc(1, sizeof(Ctx));
    if (!ctx)
        return PyErr_NoMemory();
    ctx->n_cl = (int)PyTuple_GET_SIZE(per_cluster);
    ctx->nproc = (int)PyTuple_GET_SIZE(procs);
    int n_cl = ctx->n_cl > 0 ? ctx->n_cl : 1;
    int np = ctx->nproc > 0 ? ctx->nproc : 1;

    int max_views = 3 * n_cl + 2 * np + 16;
    ctx->views = PyMem_Calloc(max_views, sizeof(Py_buffer));
    ctx->cl_states = PyMem_Calloc(3 * n_cl, sizeof(long long *));
    ctx->cl_inflight = PyMem_Calloc(5 * n_cl, sizeof(PyObject *));
    ctx->procs = PyMem_Calloc(2 * np, sizeof(PyObject *));
    ctx->chunk_view = PyMem_Calloc(np, sizeof(Py_buffer));
    ctx->ic_states = PyMem_Calloc(2 * np, sizeof(long long *));
    ctx->ic_mask = PyMem_Calloc(2 * np, sizeof(long long));
    ctx->m = PyMem_Calloc((M_COUNT + 1) * n_cl, sizeof(long long));
    if (!ctx->views || !ctx->cl_states || !ctx->cl_inflight
        || !ctx->procs || !ctx->chunk_view || !ctx->ic_states
        || !ctx->ic_mask || !ctx->m) {
        ctx_free_arrays(ctx);
        PyMem_Free(ctx);
        return PyErr_NoMemory();
    }
    ctx->cl_tags = ctx->cl_states + n_cl;
    ctx->cl_bank_free = ctx->cl_states + 2 * n_cl;
    ctx->cl_lost = ctx->cl_inflight + n_cl;
    ctx->cl_stats = ctx->cl_inflight + 2 * n_cl;
    ctx->cl_icn = ctx->cl_inflight + 3 * n_cl;
    ctx->cl_wbufs = ctx->cl_inflight + 4 * n_cl;
    ctx->chunk_obj = ctx->procs + np;
    ctx->ic_tags = ctx->ic_states + np;
    ctx->ic_shift = ctx->ic_mask + np;
    ctx->m_wstall = ctx->m + M_COUNT * n_cl;
    ctx->resume = RESUME_OUTER;
    ctx->cur = -1;

    ctx->plan = plan;
    Py_INCREF(plan);

    long long sc[N_SCAL];
    for (Py_ssize_t k = 0; k < N_SCAL; k++) {
        if (get_ll_item(scal, k, &sc[k]) < 0)
            goto fail;
    }
    ctx->idx_mask = sc[0];
    ctx->tag_shift = sc[1];
    ctx->num_lines = sc[0] + 1;
    ctx->line_shift = sc[2];
    ctx->nbanks = sc[3];
    ctx->bank_cycle = sc[4];
    ctx->stall_on_writes = (int)sc[5];
    ctx->wb_depth = sc[6];
    ctx->icache_mode = (int)sc[7];
    ctx->iline_shift = sc[8];
    ctx->limit = sc[9];
    ctx->bus_occ = sc[10];
    ctx->upg_occ = sc[11];
    ctx->mem_lat = sc[12];
    ctx->mesi = (int)sc[13];

    for (int c = 0; c < ctx->n_cl; c++) {
        PyObject *entry = PyTuple_GET_ITEM(per_cluster, c);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 8) {
            PyErr_SetString(PyExc_TypeError, "malformed cluster plan");
            goto fail;
        }
        if (!(ctx->cl_states[c] =
                  acquire_ll(ctx, PyTuple_GET_ITEM(entry, 0))))
            goto fail;
        if (!(ctx->cl_tags[c] =
                  acquire_ll(ctx, PyTuple_GET_ITEM(entry, 1))))
            goto fail;
        if (!(ctx->cl_bank_free[c] =
                  acquire_ll(ctx, PyTuple_GET_ITEM(entry, 2))))
            goto fail;
        ctx->cl_inflight[c] = PyTuple_GET_ITEM(entry, 3);
        ctx->cl_lost[c] = PyTuple_GET_ITEM(entry, 4);
        ctx->cl_stats[c] = PyTuple_GET_ITEM(entry, 5);
        ctx->cl_icn[c] = PyTuple_GET_ITEM(entry, 6);
        ctx->cl_wbufs[c] = PyTuple_GET_ITEM(entry, 7);
        if (!PyDict_Check(ctx->cl_inflight[c])
            || !PySet_Check(ctx->cl_lost[c])
            || !PyList_Check(ctx->cl_wbufs[c])
            || PyList_GET_SIZE(ctx->cl_wbufs[c]) < ctx->nbanks) {
            PyErr_SetString(PyExc_TypeError, "malformed cluster plan");
            goto fail;
        }
    }
    ctx->interleaver = PyTuple_GET_ITEM(objects, 0);
    ctx->heap = PyTuple_GET_ITEM(objects, 1);
    ctx->bus = PyTuple_GET_ITEM(objects, 2);
    for (int p = 0; p < ctx->nproc; p++)
        ctx->procs[p] = PyTuple_GET_ITEM(procs, p);
    if (resolve_fields(ctx) < 0)
        goto fail;
    if (!(ctx->proc_cluster =
              acquire_ll(ctx, PyTuple_GET_ITEM(objects, 4))))
        goto fail;
    ctx->ifetch = PyTuple_GET_ITEM(objects, 5);
    ctx->queues = PyTuple_GET_ITEM(objects, 6);

    for (Py_ssize_t p = 0; p < PyTuple_GET_SIZE(ic_tuple)
                           && p < ctx->nproc; p++) {
        PyObject *entry = PyTuple_GET_ITEM(ic_tuple, p);
        if (!(ctx->ic_states[p] =
                  acquire_ll(ctx, PyTuple_GET_ITEM(entry, 0))))
            goto fail;
        if (!(ctx->ic_tags[p] =
                  acquire_ll(ctx, PyTuple_GET_ITEM(entry, 1))))
            goto fail;
        if (get_ll_item(entry, 2, &ctx->ic_mask[p]) < 0)
            goto fail;
        if (get_ll_item(entry, 3, &ctx->ic_shift[p]) < 0)
            goto fail;
    }

    long long **dptr[10] = {
        &ctx->d_reads, &ctx->d_writes, &ctx->d_conf, &ctx->d_wbuf,
        &ctx->d_refs, &ctx->d_busy, &ctx->d_stall, &ctx->d_finish,
        &ctx->d_icfetch, &ctx->misc,
    };
    for (int k = 0; k < 10; k++) {
        if (!(*dptr[k] = acquire_ll(ctx, PyTuple_GET_ITEM(deltas, k))))
            goto fail;
    }
    if (!(ctx->regs = acquire_ll(ctx, regs)))
        goto fail;

    PyObject *capsule = PyCapsule_New(ctx, CTX_NAME, ctx_destructor);
    if (!capsule)
        goto fail;
    return capsule;

fail:
    ctx_release(ctx);
    ctx_free_arrays(ctx);
    PyMem_Free(ctx);
    return NULL;
}

static PyObject *
native_release(PyObject *self, PyObject *capsule)
{
    (void)self;
    Ctx *ctx = (Ctx *)PyCapsule_GetPointer(capsule, CTX_NAME);
    if (!ctx)
        return NULL;
    ctx_release(ctx);
    Py_RETURN_NONE;
}

/* --------------------------------------------------------------- drain */

static PyObject *
native_drain(PyObject *self, PyObject *capsule)
{
    (void)self;
    Ctx *ctx = (Ctx *)PyCapsule_GetPointer(capsule, CTX_NAME);
    if (!ctx)
        return NULL;
    if (ctx->released) {
        PyErr_SetString(PyExc_RuntimeError, "drain on released context");
        return NULL;
    }
    if (sync_in(ctx) < 0)
        return NULL;

    long long *regs = ctx->regs;
    long long *misc = ctx->misc;
    long long limit = ctx->limit;
    long long pid = ctx->cur;
    long long i = ctx->i;
    long long sub = 0;
    long long time = 0;
    long long next_time = NO_LIMIT;
    long long cl = 0;
    const long long *data = NULL;
    long long end = 0;
    PyObject *proc = NULL;
    int status, r;

    if (ctx->resume == RESUME_ADVANCE) {
        proc = ctx->procs[pid];
        r = load_process(ctx, pid, &i, &sub, &time);
        if (r < 0)
            goto fail;
        if (r == 0)
            goto outer;
        goto enter;
    }
    if (ctx->resume == RESUME_SYNC) {
        /* Back from a lock/barrier handler: _run_fast's post-handler
         * checks, with ``i`` already past the opcode. */
        proc = ctx->procs[pid];
        if (pf_get_ll(ctx, proc, F_TIME, &time) < 0)
            goto fail;
        int blocked = pf_get_bool(ctx, proc, F_BLOCKED);
        int in_heap = blocked ? 0 : pf_get_bool(ctx, proc, F_IN_HEAP);
        if (blocked < 0 || in_heap < 0)
            goto fail;
        if (blocked || in_heap) {
            if (store_process(ctx, proc, time, i, 0) < 0)
                goto fail;
            goto outer;
        }
        if (heap_top(ctx, &next_time) < 0)
            goto fail;
        cl = ctx->proc_cluster[pid];
        data = (const long long *)ctx->chunk_view[pid].buf;
        end = (long long)(ctx->chunk_view[pid].len / 8);
        if (time > next_time) {
            if (store_process(ctx, proc, time, i, 0) < 0)
                goto fail;
            goto switch_out;
        }
        goto run;
    }

outer:
    if (PyList_GET_SIZE(ctx->heap) == 0) {
        ctx->resume = RESUME_OUTER;
        status = STATUS_DONE;
        goto out;
    }
    if ((pid = heap_pid(ctx, h_pop(ctx->heap, 1))) < 0)
        goto fail;
    proc = ctx->procs[pid];
    if (pf_set(ctx, proc, F_IN_HEAP, Py_False) < 0)
        goto fail;
    r = load_process(ctx, pid, &i, &sub, &time);
    if (r < 0)
        goto fail;
    if (r == 0)
        goto advance;

enter:
    cl = ctx->proc_cluster[pid];
    data = (const long long *)ctx->chunk_view[pid].buf;
    end = (long long)(ctx->chunk_view[pid].len / 8);
    if (heap_top(ctx, &next_time) < 0)
        goto fail;

run:
    while (i < end) {
        /* Long stretches never cross into python: keep Ctrl-C alive. */
        if ((++ctx->polls & 0xffff) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        long long op = data[i];
        if (op == OP_READ || op == OP_WRITE || op == OP_COMPUTE) {
            if (time > limit)
                goto limit_exceeded;
            if (i + 2 > end)
                goto truncated;
            long long operand = data[i + 1];
            i += 2;
            misc[0]++;
            if (op == OP_COMPUTE) {
                if (operand) {
                    ctx->d_busy[pid] += operand;
                    time += operand;
                    if (time > next_time)
                        goto preempt;
                }
                continue;
            }
            if (do_access(ctx, cl, pid, op == OP_READ, operand,
                          &time) < 0)
                goto fail;
            if (time > next_time)
                goto preempt;
        }
        else if (op == OP_READ_SPAN || op == OP_WRITE_SPAN) {
            if (i + 4 > end)
                goto truncated;
            long long base = data[i + 1];
            long long size = data[i + 2];
            long long stride = data[i + 3];
            if (size > 0 && stride <= 0) {
                /* The element loop would never end; fail like an
                 * unknown opcode (and like _run_fast). */
                if (time > limit)
                    goto limit_exceeded;
                misc[0]++;
                if (pf_set_ll(ctx, proc, F_TIME, time) < 0)
                    goto fail;
                PyErr_Format(PyExc_ValueError,
                             "non-positive span stride at %lld", i);
                goto fail;
            }
            long long offset = sub;
            sub = 0;
            int preempted = 0;
            int is_read = op == OP_READ_SPAN;
            while (offset < size) {
                if (time > limit)
                    goto limit_exceeded;
                misc[0]++;
                if (do_access(ctx, cl, pid, is_read, base + offset,
                              &time) < 0)
                    goto fail;
                offset += stride;
                if (time > next_time) {
                    preempted = 1;
                    break;
                }
            }
            if (offset >= size)
                i += 4;
            else
                sub = offset;
            if (preempted)
                goto preempt;
        }
        else if (op == OP_IFETCH) {
            if (time > limit)
                goto limit_exceeded;
            misc[0]++;
            if (i + 3 > end)
                goto truncated;
            long long count = data[i + 2];
            if (ctx->icache_mode == 0) {
                ctx->d_busy[pid] += count;
                time += count;
            }
            else if (ctx->icache_mode == 1) {
                long long addr = data[i + 1];
                long long iline_no = addr >> ctx->iline_shift;
                long long ilast =
                    (addr + count * 4 - 1) >> ctx->iline_shift;
                long long *istates = ctx->ic_states[pid];
                long long *itags = ctx->ic_tags[pid];
                long long imask = ctx->ic_mask[pid];
                long long ishift = ctx->ic_shift[pid];
                while (iline_no <= ilast) {
                    long long idxi = iline_no & imask;
                    if (istates[idxi]
                        && itags[idxi] == (iline_no >> ishift))
                        iline_no++;
                    else
                        break;
                }
                if (iline_no > ilast) {
                    /* Every line resident: no installs, no bus. */
                    ctx->d_icfetch[pid] +=
                        ilast - (addr >> ctx->iline_shift) + 1;
                    ctx->d_busy[pid] += count;
                    time += count;
                }
                else {
                    int err = 0;
                    time = call_ifetch(ctx, pid, addr, count, time, &err);
                    if (err)
                        goto fail;
                }
            }
            else {
                int err = 0;
                time = call_ifetch(ctx, pid, data[i + 1], count, time,
                                   &err);
                if (err)
                    goto fail;
            }
            i += 3;
            if (time > next_time)
                goto preempt;
        }
        else if (op == OP_ENQUEUE) {
            if (time > limit)
                goto limit_exceeded;
            misc[0]++;
            if (i + 3 > end)
                goto truncated;
            PyObject *key = PyLong_FromLongLong(data[i + 1]);
            if (!key)
                goto fail;
            PyObject *q = PyDict_GetItemWithError(ctx->queues, key);
            if (q) {
                Py_INCREF(q);
            }
            else {
                if (PyErr_Occurred()) {
                    Py_DECREF(key);
                    goto fail;
                }
                q = PyObject_CallNoArgs(g_deque);
                if (!q || PyDict_SetItem(ctx->queues, key, q) < 0) {
                    Py_XDECREF(q);
                    Py_DECREF(key);
                    goto fail;
                }
            }
            Py_DECREF(key);
            PyObject *item = PyLong_FromLongLong(data[i + 2]);
            PyObject *res = item ? PyObject_CallMethodObjArgs(
                q, s_append, item, NULL) : NULL;
            Py_XDECREF(item);
            Py_DECREF(q);
            if (!res)
                goto fail;
            Py_DECREF(res);
            i += 3;
        }
        else if (op == OP_DEQUEUE) {
            if (time > limit)
                goto limit_exceeded;
            misc[0]++;
            if (i + 2 > end)
                goto truncated;
            /* Replay-only: the recorded stream already took the branch,
             * so the item is popped and discarded. */
            PyObject *key = PyLong_FromLongLong(data[i + 1]);
            if (!key)
                goto fail;
            PyObject *q = PyDict_GetItemWithError(ctx->queues, key);
            Py_DECREF(key);
            if (!q && PyErr_Occurred())
                goto fail;
            if (q) {
                int truthy = PyObject_IsTrue(q);
                if (truthy < 0)
                    goto fail;
                if (truthy) {
                    PyObject *res = PyObject_CallMethodObjArgs(
                        q, s_popleft, NULL);
                    if (!res)
                        goto fail;
                    Py_DECREF(res);
                }
            }
            i += 2;
        }
        else {
            /* Synchronization opcode: python runs the handler. */
            if (time > limit)
                goto limit_exceeded;
            misc[0]++;
            if (pf_set_ll(ctx, proc, F_TIME, time) < 0)
                goto fail;
            long long width = op == OP_BARRIER ? 3 : 2;
            if (op != OP_LOCK_ACQ && op != OP_LOCK_REL && op != OP_BARRIER) {
                PyErr_Format(PyExc_ValueError,
                             "unknown packed opcode %lld at %lld", op, i);
                goto fail;
            }
            if (i + width > end)
                goto truncated;
            regs[0] = pid;
            regs[1] = op;
            regs[2] = data[i + 1];
            regs[3] = op == OP_BARRIER ? data[i + 2] : 0;
            i += width;
            ctx->cur = pid;
            ctx->resume = RESUME_SYNC;
            status = STATUS_SYNC;
            goto out;
        }
    }
    /* Chunk exhausted: the generator resumes; it may hand back another
     * chunk for the same process. */
    if (store_process(ctx, proc, time, 0, 0) < 0
        || pf_set(ctx, proc, F_CHUNK, Py_None) < 0)
        goto fail;
    drop_chunk_view(ctx, pid);

advance:
    ctx->cur = pid;
    ctx->resume = RESUME_ADVANCE;
    regs[0] = pid;
    status = STATUS_ADVANCE;
    goto out;

preempt:
    if (store_process(ctx, proc, time, i, sub) < 0)
        goto fail;

switch_out:
    /* Preempted by the heap top.  Because time exceeds the cached top,
     * the pushed entry cannot be the one that comes back out, so push
     * and pop fuse into one sift. */
    ctx->seq++;
    ctx->seq_dirty = 1;
    if (pf_set(ctx, proc, F_IN_HEAP, Py_True) < 0)
        goto fail;
    {
        PyObject *entry = PyTuple_New(3);
        if (!entry)
            goto fail;
        long long key[3] = {time, ctx->seq, pid};
        for (int k = 0; k < 3; k++) {
            PyObject *v = PyLong_FromLongLong(key[k]);
            if (!v) {
                Py_DECREF(entry);
                goto fail;
            }
            PyTuple_SET_ITEM(entry, k, v);
        }
        if ((pid = heap_pid(ctx, h_pushpop(ctx->heap, entry, 1))) < 0)
            goto fail;
    }
    proc = ctx->procs[pid];
    if (pf_set(ctx, proc, F_IN_HEAP, Py_False) < 0)
        goto fail;
    r = load_process(ctx, pid, &i, &sub, &time);
    if (r < 0)
        goto fail;
    if (r == 0)
        goto advance;
    goto enter;

out:
    ctx->i = i;
    if (sync_out(ctx) < 0)
        return NULL;
    return PyLong_FromLong(status);

truncated:
    PyErr_SetString(PyExc_IndexError, "array index out of range");
    goto fail;
limit_exceeded:
    PyErr_Format(PyExc_RuntimeError, "simulation exceeded %lld cycles",
                 limit);
fail:
    sync_out_on_error(ctx);
    return NULL;
}


/* ==================================================================== */
/* Fused multi-configuration ladder (repro.trace.multiconfig)           */
/* ==================================================================== */

/* Transcription of ``multiconfig._fused_pass``: one pass over a
 * single-process tape driving every rung of an SCC ladder at once.
 * Per-size timing is a skew against the shared base clock; hits with no
 * live fill/write-buffer window anywhere (``hot_n == 0``) cost a single
 * smallest-size tag probe.  The wrapper
 * (``multiconfig._fused_pass_native``) owns plan construction, the
 * python-side synchronization handlers (status 2), and the statistics
 * flush; every array here is ``array('q')`` storage it allocated.
 *
 * Exactness is inherited from the python engine line by line: the same
 * fold of the shared clock into per-size finish times, the same
 * hot-window bookkeeping, the same write-buffer heap arithmetic (the
 * per-size heaps are python lists shared with the flush).  A
 * non-positive span stride raises ValueError exactly like the decoded
 * tiers instead of spinning (the ladder has no cycle limit to bail it
 * out).
 */


#define LSTATUS_DONE 0
#define LSTATUS_SYNC 2

typedef struct {
    PyObject *plan;
    int n_sizes;
    int released;
    long long line_shift, nbanks, occ, up_occ, mem_lat, ic_lat, wb_depth;
    long long install_state, model_icache, il_shift, ic_mask, ic_shift;
    long long **s_states, **s_tags;
    long long *s_mask, *s_shift;
    PyObject **inflight, **wbufs;
    long long *skew, *fin, *folded, *fill_live, *wb_live, *hot;
    long long *bus_busy, *bus_tx, *bus_cyc;
    long long *d_rmiss, *d_wmiss, *d_upg, *d_evict, *d_wb, *d_wbuf;
    long long *d_bus_wait, *d_stall, *d_ic;
    long long *ic_states, *ic_tags;
    long long *regs;    /* i, base, uref, ev, n_reads, n_writes, u_busy,
                           hot_n, ic_misses, ic_fetch_lines */
    Py_buffer *views;
    int nviews;
} LCtx;

static const char LCTX_NAME[] = "repro.trace.engine._native.ladder";

static long long *
l_acquire(LCtx *ctx, PyObject *obj)
{
    Py_buffer *view = &ctx->views[ctx->nviews];
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE) < 0)
        return NULL;
    ctx->nviews++;
    return (long long *)view->buf;
}

/* Fold the shared clock into rung ``s`` and return its local time. */
static inline long long
l_fold(LCtx *c, int s, long long base, long long uref)
{
    long long sk = c->skew[s];
    if (uref > c->folded[s]) {
        long long f = uref + sk;
        if (f > c->fin[s])
            c->fin[s] = f;
    }
    c->folded[s] = uref;
    return base + sk;
}

static inline void
l_update_hot(LCtx *c, int s, long long done, long long *hot_n)
{
    if (c->fill_live[s] > done || c->wb_live[s] > done) {
        if (!c->hot[s]) {
            c->hot[s] = 1;
            (*hot_n)++;
        }
    }
    else if (c->hot[s]) {
        c->hot[s] = 0;
        (*hot_n)--;
    }
}

/* ``inflight[s].pop(key, None)`` guarded by ``if inflight[s]:``. */
static int
l_inflight_pop(PyObject *infl, long long key)
{
    if (PyDict_GET_SIZE(infl) == 0)
        return 0;
    PyObject *k = PyLong_FromLongLong(key);
    if (!k)
        return -1;
    PyObject *v = PyDict_GetItemWithError(infl, k);
    if (v) {
        if (PyDict_DelItem(infl, k) < 0) {
            Py_DECREF(k);
            return -1;
        }
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(k);
        return -1;
    }
    Py_DECREF(k);
    return 0;
}

/* ``inflight[s][line] = fetch_done`` */
static int
l_inflight_set(PyObject *infl, long long line, long long fetch_done)
{
    PyObject *k = PyLong_FromLongLong(line);
    PyObject *v = k ? PyLong_FromLongLong(fetch_done) : NULL;
    if (!k || !v) {
        Py_XDECREF(k);
        Py_XDECREF(v);
        return -1;
    }
    int rc = PyDict_SetItem(infl, k, v);
    Py_DECREF(k);
    Py_DECREF(v);
    return rc;
}

/* ``inflight[s].get(line)`` with the hot-hit resolution: delete stale
 * entries, otherwise return the fill-adjusted completion. */
static long long
l_inflight_hit(PyObject *infl, long long line, long long t, long long done,
               int *err)
{
    PyObject *k = PyLong_FromLongLong(line);
    if (!k) {
        *err = 1;
        return 0;
    }
    PyObject *v = PyDict_GetItemWithError(infl, k);
    if (v) {
        long long ready = PyLong_AsLongLong(v);
        if (ready == -1 && PyErr_Occurred()) {
            Py_DECREF(k);
            *err = 1;
            return 0;
        }
        if (ready <= t) {
            if (PyDict_DelItem(infl, k) < 0) {
                Py_DECREF(k);
                *err = 1;
                return 0;
            }
        }
        else {
            done = ready + 1;
        }
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(k);
        *err = 1;
        return 0;
    }
    Py_DECREF(k);
    return done;
}

/* ``reserve()`` on rung ``s``: c_reserve arithmetic over the rung's
 * write-buffer heaps plus the live-window watermark. */
static long long
l_reserve(LCtx *ctx, int s, long long bank, long long now,
          long long retire, int *err)
{
    PyObject *buf = PyList_GET_ITEM(ctx->wbufs[s], bank);
    while (PyList_GET_SIZE(buf) > 0) {
        long long top = PyLong_AsLongLong(PyList_GET_ITEM(buf, 0));
        if (top == -1 && PyErr_Occurred()) {
            *err = 1;
            return 0;
        }
        if (top > now)
            break;
        wb_heappop(buf, err);
        if (*err)
            return 0;
    }
    long long stall = 0;
    if (PyList_GET_SIZE(buf) >= ctx->wb_depth) {
        long long oldest = wb_heappop(buf, err);
        if (*err)
            return 0;
        if (oldest > now)
            stall = oldest - now;
    }
    long long push = now + stall;
    if (retire > push)
        push = retire;
    if (wb_heappush(buf, push) < 0) {
        *err = 1;
        return 0;
    }
    if (push > ctx->wb_live[s])
        ctx->wb_live[s] = push;
    return stall;
}

/* Per-size processing for a read that is not uniformly quiet. */
static int
l_slow_read(LCtx *c, long long line, long long base, long long uref,
            long long *hot_n)
{
    int s = 0;
    int n = c->n_sizes;
    for (; s < n; s++) {                    /* misses: ladder prefix */
        long long *states = c->s_states[s];
        long long index = line & c->s_mask[s];
        long long tag = line >> c->s_shift[s];
        if (states[index] && c->s_tags[s][index] == tag)
            break;
        long long t = l_fold(c, s, base, uref);
        c->d_rmiss[s]++;
        long long grant = c->bus_busy[s];
        if (grant < t)
            grant = t;
        c->bus_busy[s] = grant + c->occ;
        c->bus_tx[s]++;
        c->bus_cyc[s] += c->occ;
        c->d_bus_wait[s] += grant - t;
        long long done = grant + c->mem_lat;
        long long old = states[index];
        if (old) {                          /* tag differs: eviction */
            c->d_evict[s]++;
            if (old == ST_MODIFIED) {
                c->d_wb[s]++;
                c->bus_busy[s] += c->occ;
                c->bus_tx[s]++;
                c->bus_cyc[s] += c->occ;
            }
            if (l_inflight_pop(c->inflight[s],
                               (c->s_tags[s][index] << c->s_shift[s])
                               | index) < 0)
                return -1;
        }
        c->s_tags[s][index] = tag;
        states[index] = c->install_state;
        long long ret = done + 1;
        c->d_stall[s] += ret - t - 1;
        c->fin[s] = ret;
        c->skew[s] = ret - base - 1;
        l_update_hot(c, s, ret, hot_n);
    }
    if (*hot_n) {                           /* hits inside live windows */
        for (; s < n; s++) {
            if (!c->hot[s])
                continue;
            long long t = l_fold(c, s, base, uref);
            long long done = t + 1;
            if (c->fill_live[s] > t) {
                int err = 0;
                done = l_inflight_hit(c->inflight[s], line, t, done, &err);
                if (err)
                    return -1;
            }
            c->d_stall[s] += done - t - 1;
            c->fin[s] = done;
            c->skew[s] = done - base - 1;
            if (c->fill_live[s] <= done && c->wb_live[s] <= done) {
                c->hot[s] = 0;
                (*hot_n)--;
            }
        }
    }
    return 0;
}

/* Per-size processing for a write that is not uniformly quiet. */
static int
l_slow_write(LCtx *c, long long line, long long bank, long long base,
             long long uref, long long *hot_n)
{
    int s = 0;
    int n = c->n_sizes;
    int err = 0;
    for (; s < n; s++) {                    /* misses: ladder prefix */
        long long *states = c->s_states[s];
        long long index = line & c->s_mask[s];
        long long tag = line >> c->s_shift[s];
        if (states[index] && c->s_tags[s][index] == tag)
            break;
        long long t = l_fold(c, s, base, uref);
        c->d_wmiss[s]++;
        long long grant = c->bus_busy[s];
        if (grant < t)
            grant = t;
        c->bus_busy[s] = grant + c->occ;
        c->bus_tx[s]++;
        c->bus_cyc[s] += c->occ;
        c->d_bus_wait[s] += grant - t;
        long long fetch_done = grant + c->mem_lat;
        long long old = states[index];
        if (old) {
            c->d_evict[s]++;
            if (old == ST_MODIFIED) {
                c->d_wb[s]++;
                c->bus_busy[s] += c->occ;
                c->bus_tx[s]++;
                c->bus_cyc[s] += c->occ;
            }
            if (l_inflight_pop(c->inflight[s],
                               (c->s_tags[s][index] << c->s_shift[s])
                               | index) < 0)
                return -1;
        }
        c->s_tags[s][index] = tag;
        states[index] = ST_MODIFIED;
        if (l_inflight_set(c->inflight[s], line, fetch_done) < 0)
            return -1;
        if (fetch_done > c->fill_live[s])
            c->fill_live[s] = fetch_done;
        long long complete = t + 1;
        long long stall = l_reserve(c, s, bank, complete, fetch_done,
                                    &err);
        if (err)
            return -1;
        c->d_wbuf[s] += stall;
        long long done = complete + stall;
        c->d_stall[s] += done - t - 1;
        c->fin[s] = done;
        c->skew[s] = done - base - 1;
        l_update_hot(c, s, done, hot_n);
    }
    for (; s < n; s++) {                    /* resident sizes */
        long long *states = c->s_states[s];
        long long index = line & c->s_mask[s];
        long long state = states[index];
        if (state == ST_SHARED) {           /* upgrade broadcast */
            long long t = l_fold(c, s, base, uref);
            c->d_upg[s]++;
            long long grant = c->bus_busy[s];
            if (grant < t)
                grant = t;
            c->bus_busy[s] = grant + c->up_occ;
            c->bus_tx[s]++;
            c->bus_cyc[s] += c->up_occ;
            states[index] = ST_MODIFIED;
            long long complete = t + 1;
            long long stall = l_reserve(c, s, bank, complete,
                                        grant + c->up_occ, &err);
            if (err)
                return -1;
            c->d_wbuf[s] += stall;
            long long done = complete + stall;
            c->d_stall[s] += done - t - 1;
            c->fin[s] = done;
            c->skew[s] = done - base - 1;
            l_update_hot(c, s, done, hot_n);
        }
        else {
            if (state != ST_MODIFIED)       /* MESI silent E -> M */
                states[index] = ST_MODIFIED;
            if (c->hot[s]) {
                long long t = l_fold(c, s, base, uref);
                long long done = t + 1;
                if (c->fill_live[s] > t) {
                    done = l_inflight_hit(c->inflight[s], line, t, done,
                                          &err);
                    if (err)
                        return -1;
                }
                if (c->wb_live[s] > done) {
                    long long stall = l_reserve(c, s, bank, done, done,
                                                &err);
                    if (err)
                        return -1;
                    c->d_wbuf[s] += stall;
                    done += stall;
                }
                c->d_stall[s] += done - t - 1;
                c->fin[s] = done;
                c->skew[s] = done - base - 1;
                if (c->fill_live[s] <= done && c->wb_live[s] <= done) {
                    c->hot[s] = 0;
                    (*hot_n)--;
                }
            }
        }
    }
    return 0;
}

static void
lctx_release(LCtx *ctx)
{
    if (ctx->released)
        return;
    ctx->released = 1;
    for (int i = 0; i < ctx->nviews; i++)
        PyBuffer_Release(&ctx->views[i]);
    ctx->nviews = 0;
    Py_CLEAR(ctx->plan);
}

static void
lctx_destructor(PyObject *capsule)
{
    LCtx *ctx = (LCtx *)PyCapsule_GetPointer(capsule, LCTX_NAME);
    if (!ctx)
        return;
    lctx_release(ctx);
    PyMem_Free(ctx->views);
    PyMem_Free(ctx->s_states);
    PyMem_Free(ctx->s_mask);
    PyMem_Free(ctx->inflight);
    PyMem_Free(ctx);
}

/* plan: (per_size, scal, state, deltas, ic, regs)
 *   per_size -- tuple per rung: (states, tags, index_mask, tag_shift,
 *               inflight dict, write-buffer list-of-heaps)
 *   scal     -- array('q'): line_shift, nbanks, occ, up_occ, mem_lat,
 *               ic_lat, wb_depth, install_state, model_icache, il_shift,
 *               ic_mask, ic_shift
 *   state    -- tuple of array('q') per-size arrays: skew, fin, folded,
 *               fill_live, wb_live, hot, bus_busy, bus_tx, bus_cyc
 *   deltas   -- tuple of array('q') per-size arrays: d_rmiss, d_wmiss,
 *               d_upg, d_evict, d_wb, d_wbuf, d_bus_wait, d_stall, d_ic
 *   ic       -- (ic_states, ic_tags) array('q') pair, or () when the
 *               icache is unmodelled
 *   regs     -- array('q'): i, base, uref, ev, n_reads, n_writes,
 *               u_busy, hot_n, ic_misses, ic_fetch_lines
 */
static PyObject *
native_ladder_setup(PyObject *self, PyObject *plan)
{
    (void)self;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 6) {
        PyErr_SetString(PyExc_TypeError, "ladder plan must be a 6-tuple");
        return NULL;
    }
    PyObject *per_size = PyTuple_GET_ITEM(plan, 0);
    PyObject *scal = PyTuple_GET_ITEM(plan, 1);
    PyObject *state = PyTuple_GET_ITEM(plan, 2);
    PyObject *deltas = PyTuple_GET_ITEM(plan, 3);
    PyObject *ic = PyTuple_GET_ITEM(plan, 4);
    PyObject *regs = PyTuple_GET_ITEM(plan, 5);

    LCtx *ctx = PyMem_Calloc(1, sizeof(LCtx));
    if (!ctx)
        return PyErr_NoMemory();
    ctx->n_sizes = (int)PyTuple_GET_SIZE(per_size);

    int max_views = 2 * ctx->n_sizes + 9 + 9 + 2 + 1;
    ctx->views = PyMem_Calloc(max_views, sizeof(Py_buffer));
    ctx->s_states = PyMem_Calloc(2 * ctx->n_sizes, sizeof(long long *));
    ctx->s_mask = PyMem_Calloc(2 * ctx->n_sizes, sizeof(long long));
    ctx->inflight = PyMem_Calloc(2 * ctx->n_sizes, sizeof(PyObject *));
    if (!ctx->views || !ctx->s_states || !ctx->s_mask || !ctx->inflight) {
        PyMem_Free(ctx->views);
        PyMem_Free(ctx->s_states);
        PyMem_Free(ctx->s_mask);
        PyMem_Free(ctx->inflight);
        PyMem_Free(ctx);
        return PyErr_NoMemory();
    }
    ctx->s_tags = ctx->s_states + ctx->n_sizes;
    ctx->s_shift = ctx->s_mask + ctx->n_sizes;
    ctx->wbufs = ctx->inflight + ctx->n_sizes;

    ctx->plan = plan;
    Py_INCREF(plan);

    long long sc[12];
    for (Py_ssize_t k = 0; k < 12; k++) {
        if (get_ll_item(scal, k, &sc[k]) < 0)
            goto fail;
    }
    ctx->line_shift = sc[0];
    ctx->nbanks = sc[1];
    ctx->occ = sc[2];
    ctx->up_occ = sc[3];
    ctx->mem_lat = sc[4];
    ctx->ic_lat = sc[5];
    ctx->wb_depth = sc[6];
    ctx->install_state = sc[7];
    ctx->model_icache = sc[8];
    ctx->il_shift = sc[9];
    ctx->ic_mask = sc[10];
    ctx->ic_shift = sc[11];

    for (int s = 0; s < ctx->n_sizes; s++) {
        PyObject *entry = PyTuple_GET_ITEM(per_size, s);
        if (!(ctx->s_states[s] =
                  l_acquire(ctx, PyTuple_GET_ITEM(entry, 0))))
            goto fail;
        if (!(ctx->s_tags[s] =
                  l_acquire(ctx, PyTuple_GET_ITEM(entry, 1))))
            goto fail;
        if (get_ll_item(entry, 2, &ctx->s_mask[s]) < 0)
            goto fail;
        if (get_ll_item(entry, 3, &ctx->s_shift[s]) < 0)
            goto fail;
        ctx->inflight[s] = PyTuple_GET_ITEM(entry, 4);
        ctx->wbufs[s] = PyTuple_GET_ITEM(entry, 5);
    }

    long long **sptr[9] = {
        &ctx->skew, &ctx->fin, &ctx->folded, &ctx->fill_live,
        &ctx->wb_live, &ctx->hot, &ctx->bus_busy, &ctx->bus_tx,
        &ctx->bus_cyc,
    };
    for (int k = 0; k < 9; k++) {
        if (!(*sptr[k] = l_acquire(ctx, PyTuple_GET_ITEM(state, k))))
            goto fail;
    }
    long long **dptr[9] = {
        &ctx->d_rmiss, &ctx->d_wmiss, &ctx->d_upg, &ctx->d_evict,
        &ctx->d_wb, &ctx->d_wbuf, &ctx->d_bus_wait, &ctx->d_stall,
        &ctx->d_ic,
    };
    for (int k = 0; k < 9; k++) {
        if (!(*dptr[k] = l_acquire(ctx, PyTuple_GET_ITEM(deltas, k))))
            goto fail;
    }
    if (ctx->model_icache) {
        if (!(ctx->ic_states = l_acquire(ctx, PyTuple_GET_ITEM(ic, 0))))
            goto fail;
        if (!(ctx->ic_tags = l_acquire(ctx, PyTuple_GET_ITEM(ic, 1))))
            goto fail;
    }
    if (!(ctx->regs = l_acquire(ctx, regs)))
        goto fail;

    PyObject *capsule = PyCapsule_New(ctx, LCTX_NAME, lctx_destructor);
    if (!capsule)
        goto fail;
    return capsule;

fail:
    lctx_release(ctx);
    PyMem_Free(ctx->views);
    PyMem_Free(ctx->s_states);
    PyMem_Free(ctx->s_mask);
    PyMem_Free(ctx->inflight);
    PyMem_Free(ctx);
    return NULL;
}

static PyObject *
native_ladder_release(PyObject *self, PyObject *capsule)
{
    (void)self;
    LCtx *ctx = (LCtx *)PyCapsule_GetPointer(capsule, LCTX_NAME);
    if (!ctx)
        return NULL;
    lctx_release(ctx);
    Py_RETURN_NONE;
}

static PyObject *
native_ladder_drain(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *capsule, *chunk;
    if (!PyArg_ParseTuple(args, "OO", &capsule, &chunk))
        return NULL;
    LCtx *ctx = (LCtx *)PyCapsule_GetPointer(capsule, LCTX_NAME);
    if (!ctx)
        return NULL;
    if (ctx->released) {
        PyErr_SetString(PyExc_RuntimeError, "drain on released context");
        return NULL;
    }
    Py_buffer cview;
    if (PyObject_GetBuffer(chunk, &cview, PyBUF_SIMPLE) < 0)
        return NULL;
    const long long *data = (const long long *)cview.buf;
    long long end = (long long)(cview.len / 8);

    long long *regs = ctx->regs;
    long long i = regs[0];
    long long base = regs[1];
    long long uref = regs[2];
    long long ev = regs[3];
    long long n_reads = regs[4];
    long long n_writes = regs[5];
    long long u_busy = regs[6];
    long long hot_n = regs[7];
    long long ic_misses = regs[8];
    long long ic_fetch_lines = regs[9];
    long long line_shift = ctx->line_shift;
    long long nbanks = ctx->nbanks;
    long long mask0 = ctx->s_mask[0];
    long long shift0 = ctx->s_shift[0];
    long long *states0 = ctx->s_states[0];
    long long *tags0 = ctx->s_tags[0];
    int status = LSTATUS_DONE;

    while (i < end) {
        long long op = data[i];
        if (op == OP_READ) {
            long long line = data[i + 1] >> line_shift;
            i += 2;
            ev++;
            long long index = line & mask0;
            if (!(hot_n == 0 && states0[index]
                  && tags0[index] == (line >> shift0))) {
                if (l_slow_read(ctx, line, base, uref, &hot_n) < 0)
                    goto fail;
            }
            n_reads++;
            base++;
            uref = base;
        }
        else if (op == OP_WRITE) {
            long long line = data[i + 1] >> line_shift;
            i += 2;
            ev++;
            long long index = line & mask0;
            if (!(hot_n == 0 && states0[index] == ST_MODIFIED
                  && tags0[index] == (line >> shift0))) {
                long long bank = line % nbanks;
                if (bank < 0)
                    bank += nbanks;
                if (l_slow_write(ctx, line, bank, base, uref, &hot_n) < 0)
                    goto fail;
            }
            n_writes++;
            base++;
            uref = base;
        }
        else if (op == OP_COMPUTE) {
            long long cycles = data[i + 1];
            i += 2;
            ev++;
            if (cycles) {
                u_busy += cycles;
                base += cycles;
            }
        }
        else if (op == OP_IFETCH) {
            long long count = data[i + 2];
            ev++;
            if (!ctx->model_icache) {
                u_busy += count;
                base += count;
                i += 3;
                continue;
            }
            long long addr = data[i + 1];
            i += 3;
            long long first = addr >> ctx->il_shift;
            long long last =
                (addr + count * 4 - 1) >> ctx->il_shift;
            long long *ic_states = ctx->ic_states;
            long long *ic_tags = ctx->ic_tags;
            long long ic_mask = ctx->ic_mask;
            long long ic_shift = ctx->ic_shift;
            long long ln = first;
            while (ln <= last) {
                long long ii = ln & ic_mask;
                if (ic_states[ii] && ic_tags[ii] == (ln >> ic_shift))
                    ln++;
                else
                    break;
            }
            if (ln > last) {
                /* Every line resident: no refills at any size. */
                ic_fetch_lines += last - first + 1;
                u_busy += count;
                base += count;
                continue;
            }
            long long misses = 0;
            for (ln = first; ln <= last; ln++) {
                ic_fetch_lines++;
                long long ii = ln & ic_mask;
                if (!(ic_states[ii]
                      && ic_tags[ii] == (ln >> ic_shift))) {
                    ic_tags[ii] = ln >> ic_shift;
                    ic_states[ii] = ST_SHARED;
                    misses++;
                }
            }
            ic_misses += misses;
            for (int s = 0; s < ctx->n_sizes; s++) {
                long long t = l_fold(ctx, s, base, uref);
                long long stall = 0;
                long long busy = ctx->bus_busy[s];
                for (long long m = 0; m < misses; m++) {
                    long long request = t + stall;
                    if (busy < request)
                        busy = request;
                    busy += ctx->occ;
                    stall = busy - ctx->occ + ctx->ic_lat - t;
                }
                ctx->bus_busy[s] = busy;
                ctx->bus_tx[s] += misses;
                ctx->bus_cyc[s] += misses * ctx->occ;
                ctx->d_ic[s] += stall;
                ctx->skew[s] += stall;
                long long t_new = t + count + stall;
                l_update_hot(ctx, s, t_new, &hot_n);
            }
            u_busy += count;
            base += count;
        }
        else if (op == OP_READ_SPAN || op == OP_WRITE_SPAN) {
            long long span_base = data[i + 1];
            long long size = data[i + 2];
            long long stride = data[i + 3];
            if (size > 0 && stride <= 0) {
                /* The scalar loop would spin forever; fail like the
                 * decoded tiers do (error parity for the differ). */
                PyErr_Format(PyExc_ValueError,
                             "non-positive span stride at %lld", i);
                goto fail;
            }
            i += 4;
            int is_read = op == OP_READ_SPAN;
            long long offset = 0;
            while (offset < size) {
                ev++;
                long long line = (span_base + offset) >> line_shift;
                long long index = line & mask0;
                if (is_read) {
                    if (!(hot_n == 0 && states0[index]
                          && tags0[index] == (line >> shift0))) {
                        if (l_slow_read(ctx, line, base, uref,
                                        &hot_n) < 0)
                            goto fail;
                    }
                    n_reads++;
                }
                else {
                    if (!(hot_n == 0 && states0[index] == ST_MODIFIED
                          && tags0[index] == (line >> shift0))) {
                        long long bank = line % nbanks;
                        if (bank < 0)
                            bank += nbanks;
                        if (l_slow_write(ctx, line, bank, base, uref,
                                         &hot_n) < 0)
                            goto fail;
                    }
                    n_writes++;
                }
                base++;
                uref = base;
                offset += stride;
            }
        }
        else {
            /* Queue, synchronization or unknown opcode: python side. */
            status = LSTATUS_SYNC;
            break;
        }
    }

    regs[0] = i;
    regs[1] = base;
    regs[2] = uref;
    regs[3] = ev;
    regs[4] = n_reads;
    regs[5] = n_writes;
    regs[6] = u_busy;
    regs[7] = hot_n;
    regs[8] = ic_misses;
    regs[9] = ic_fetch_lines;
    PyBuffer_Release(&cview);
    return PyLong_FromLong(status);

fail:
    regs[0] = i;
    regs[1] = base;
    regs[2] = uref;
    regs[3] = ev;
    regs[4] = n_reads;
    regs[5] = n_writes;
    regs[6] = u_busy;
    regs[7] = hot_n;
    regs[8] = ic_misses;
    regs[9] = ic_fetch_lines;
    PyBuffer_Release(&cview);
    return NULL;
}

/* ==================================================================== */
/* Row-profile kernels (repro.model.profile)                            */
/* ==================================================================== */

/* The per-reference work of ``build_row_profile``, transcribed from the
 * python reference in src/repro/model/profile.py:
 *
 *   p_extract    ``extract_process``: one walk over a packed stream,
 *                spans expanded, the row-constant icache model inline;
 *   p_merge      ``merge_refs``: normalized-position merge, ordered by
 *                ``(taken / length as double, input index)``;
 *   p_histogram  ``_histogram_of``: Bennett-Kruskal stack distances over
 *                a Fenwick tree, bucketed like ``bucket_floor``;
 *   p_ladder     ``coherence_ladder``: inclusion-chained direct-mapped
 *                tag ladder with cross-cluster write-invalidates;
 *   p_sharing    ``_sharing_summary``: writer sets, inter-process reuse
 *                and per-cluster exposure.
 *
 * A reference is one int64 code, ``(line_id << (pbits + 1)) | (proc
 * index << 1) | is_write``, where ``line_id`` numbers distinct lines in
 * order of extraction; no python object is made per reference.  The
 * wrapper (``profile._native_parts``) turns the few counters returned
 * here into the profile payload, which must serialize byte-identically
 * to the python builder's: errors are raised with the python code's
 * exception types at the same opcode, merge keys are the same doubles,
 * exposure terms are the same correctly rounded quotients added in the
 * same order (first touch of each line in the merged stream).
 */

/* One bucket per distance below 128, then 8 per octave up to 2^62. */
#define P_EXACT 128
#define P_NBUCKETS (P_EXACT + 8 * 56)

typedef struct {
    long long *v;
    Py_ssize_t n, cap;
} PVec;

static int
pvec_grow(PVec *a)
{
    Py_ssize_t cap = a->cap ? 2 * a->cap : 1024;
    long long *v = PyMem_Realloc(a->v, (size_t)cap * sizeof(long long));
    if (!v) {
        PyErr_NoMemory();
        return -1;
    }
    a->v = v;
    a->cap = cap;
    return 0;
}

static inline int
pvec_push(PVec *a, long long x)
{
    if (a->n == a->cap && pvec_grow(a) < 0)
        return -1;
    a->v[a->n++] = x;
    return 0;
}

/* Line -> dense id, ids in first-insertion order (open addressing). */
typedef struct {
    long long *keys, *ids;
    size_t mask;
    int shift;
    PVec lines;     /* id -> line */
} PLineIds;

static inline size_t
p_slot(const PLineIds *m, long long line)
{
    return (size_t)(((unsigned long long)line * 0x9E3779B97F4A7C15ULL)
                    >> m->shift) & m->mask;
}

static int
p_ids_resize(PLineIds *m, int bits)
{
    size_t cap = (size_t)1 << bits;
    long long *keys = PyMem_Malloc(cap * sizeof(long long));
    long long *ids = PyMem_Malloc(cap * sizeof(long long));
    if (!keys || !ids) {
        PyMem_Free(keys);
        PyMem_Free(ids);
        PyErr_NoMemory();
        return -1;
    }
    memset(ids, 0xff, cap * sizeof(long long));
    PyMem_Free(m->keys);
    PyMem_Free(m->ids);
    m->keys = keys;
    m->ids = ids;
    m->mask = cap - 1;
    m->shift = 64 - bits;
    for (Py_ssize_t id = 0; id < m->lines.n; id++) {
        size_t s = p_slot(m, m->lines.v[id]);
        while (ids[s] >= 0)
            s = (s + 1) & m->mask;
        keys[s] = m->lines.v[id];
        ids[s] = id;
    }
    return 0;
}

static inline long long
p_line_id(PLineIds *m, long long line)
{
    size_t s = p_slot(m, line);
    for (;;) {
        long long id = m->ids[s];
        if (id < 0)
            break;
        if (m->keys[s] == line)
            return id;
        s = (s + 1) & m->mask;
    }
    long long id = m->lines.n;
    if (pvec_push(&m->lines, line) < 0)
        return -1;
    if ((size_t)m->lines.n * 2 > m->mask + 1) {
        if (p_ids_resize(m, 64 - m->shift + 1) < 0)
            return -1;
    }
    else {
        m->keys[s] = line;
        m->ids[s] = id;
    }
    return id;
}

/* Python's ``a // b`` (floor division), b != 0. */
static inline __int128
p_floordiv(__int128 a, __int128 b)
{
    __int128 q = a / b;
    if (q * b != a && ((a < 0) != (b < 0)))
        q--;
    return q;
}

enum {
    PS_READS, PS_WRITES, PS_INSTRUCTIONS, PS_COMPUTE, PS_LOCKS,
    PS_BARRIERS, PS_EVENTS, PS_ICACHE, PS_COUNT
};

typedef struct {
    int code_shift;             /* pbits + 1 */
    long long line_shift;
    long long ilines;           /* 0: icache unmodelled */
    long long iline_size;
    int iline_shift;            /* log2(iline_size), or -1 */
    long long *itags;
    PLineIds ids;
} PRowCtx;

static int
p_ref(PRowCtx *r, PVec *out, long long tag, long long addr)
{
    long long id = p_line_id(&r->ids, addr >> r->line_shift);
    if (id < 0)
        return -1;
    if (id >> (62 - r->code_shift)) {
        PyErr_SetString(PyExc_OverflowError, "too many distinct lines");
        return -1;
    }
    return pvec_push(out, (id << r->code_shift) | tag);
}

static int
p_truncated(void)
{
    PyErr_SetString(PyExc_IndexError, "array index out of range");
    return -1;
}

/* extract_process over one packed stream; ``tag`` is the reference
 * code's low bits for this process (its index, shifted, write bit 0). */
static int
p_extract(PRowCtx *r, const long long *data, Py_ssize_t end,
          long long tag, PVec *out, long long *sum)
{
    long long *itags = r->itags;
    if (itags) {
        for (long long k = 0; k < r->ilines; k++)
            itags[k] = -1;
    }
    long long imask = r->ilines - 1;
    Py_ssize_t i = 0;
    while (i < end) {
        long long op = data[i];
        if (op == OP_READ || op == OP_WRITE) {
            if (i + 1 >= end)
                return p_truncated();
            if (p_ref(r, out, tag | (op == OP_WRITE), data[i + 1]) < 0)
                return -1;
            sum[op == OP_WRITE ? PS_WRITES : PS_READS]++;
            sum[PS_EVENTS]++;
            i += 2;
        }
        else if (op == OP_IFETCH) {
            if (i + 2 >= end)
                return p_truncated();
            long long count = data[i + 2];
            sum[PS_INSTRUCTIONS] += count;
            sum[PS_EVENTS]++;
            if (itags) {
                long long addr = data[i + 1], first, last;
                __int128 end_byte = (__int128)addr + (__int128)count * 4 - 1;
                if (r->iline_shift >= 0 && end_byte <= LLONG_MAX
                    && end_byte >= LLONG_MIN) {
                    first = addr >> r->iline_shift;
                    last = (long long)end_byte >> r->iline_shift;
                }
                else {
                    first = (long long)p_floordiv(addr, r->iline_size);
                    last = (long long)p_floordiv(end_byte, r->iline_size);
                }
                for (long long line = first; line <= last; line++) {
                    long long *slot = &itags[line & imask];
                    if (*slot != line) {
                        *slot = line;
                        sum[PS_ICACHE]++;
                    }
                }
            }
            i += 3;
        }
        else if (op == OP_COMPUTE) {
            if (i + 1 >= end)
                return p_truncated();
            sum[PS_COMPUTE] += data[i + 1];
            sum[PS_EVENTS]++;
            i += 2;
        }
        else if (op == OP_READ_SPAN || op == OP_WRITE_SPAN) {
            if (i + 3 >= end)
                return p_truncated();
            long long base = data[i + 1];
            long long size = data[i + 2];
            long long stride = data[i + 3];
            if (size > 0 && stride <= 0) {
                PyErr_Format(PyExc_ValueError,
                             "non-positive span stride at %zd", i);
                return -1;
            }
            if (stride == 0) {
                PyErr_SetString(PyExc_ValueError,
                                "range() arg 3 must not be zero");
                return -1;
            }
            /* len(range(0, size, stride)) */
            __int128 n = 0;
            if (stride > 0 && size > 0)
                n = ((__int128)size - 1) / stride + 1;
            else if (stride < 0 && size < 0)
                n = (-(__int128)size - 1) / -(__int128)stride + 1;
            long long w = tag | (op == OP_WRITE_SPAN);
            for (__int128 k = 0; k < n; k++) {
                __int128 addr = (__int128)base + k * stride;
                if (addr > LLONG_MAX || addr < LLONG_MIN) {
                    PyErr_Format(PyExc_OverflowError,
                                 "span address overflows int64 at %zd", i);
                    return -1;
                }
                if (p_ref(r, out, w, (long long)addr) < 0)
                    return -1;
            }
            sum[op == OP_WRITE_SPAN ? PS_WRITES : PS_READS] += (long long)n;
            sum[PS_EVENTS] += (long long)p_floordiv(
                (__int128)size + stride - 1, stride);
            i += 4;
        }
        else if (op == OP_LOCK_ACQ || op == OP_LOCK_REL) {
            sum[PS_LOCKS]++;
            sum[PS_EVENTS]++;
            i += 2;
        }
        else if (op == OP_BARRIER) {
            sum[PS_BARRIERS]++;
            sum[PS_EVENTS]++;
            i += 3;
        }
        else if (op == OP_ENQUEUE) {
            sum[PS_EVENTS]++;
            i += 3;
        }
        else if (op == OP_DEQUEUE) {
            sum[PS_EVENTS]++;
            i += 2;
        }
        else {
            PyErr_Format(PyExc_ValueError,
                         "unknown packed opcode %lld at word %zd", op, i);
            return -1;
        }
    }
    return 0;
}

/* merge_refs: each step takes the next code of the input least far
 * through its own stream, ties to the lower input index -- the order of
 * python's heap of ``(taken / length, index)`` tuples. */
static int
p_merge(PVec *const *in, int k, PVec *out)
{
    int live = 0;
    PVec *single = NULL;
    Py_ssize_t total = 0;
    for (int s = 0; s < k; s++) {
        if (in[s]->n) {
            live++;
            single = in[s];
            total += in[s]->n;
        }
    }
    out->n = 0;
    if (total == 0)
        return 0;
    out->v = PyMem_Malloc((size_t)total * sizeof(long long));
    if (!out->v) {
        PyErr_NoMemory();
        return -1;
    }
    out->cap = total;
    if (live == 1) {
        memcpy(out->v, single->v, (size_t)total * sizeof(long long));
        out->n = total;
        return 0;
    }
    int *heap = PyMem_Malloc((size_t)live * sizeof(int));
    PVec **seq = PyMem_Malloc((size_t)live * sizeof(PVec *));
    Py_ssize_t *pos = PyMem_Calloc((size_t)live, sizeof(Py_ssize_t));
    double *key = PyMem_Calloc((size_t)live, sizeof(double));
    if (!heap || !seq || !pos || !key) {
        PyMem_Free(heap);
        PyMem_Free(seq);
        PyMem_Free(pos);
        PyMem_Free(key);
        PyErr_NoMemory();
        return -1;
    }
    int m = 0;
    for (int s = 0; s < k; s++) {
        if (in[s]->n) {
            seq[m] = in[s];
            heap[m] = m;    /* all keys 0.0: index order is a heap */
            m++;
        }
    }
#define P_LESS(a, b) (key[a] < key[b] || (key[a] == key[b] && (a) < (b)))
    long long *dst = out->v;
    while (m) {
        int top = heap[0];
        PVec *from = seq[top];
        dst[out->n++] = from->v[pos[top]++];
        if (pos[top] < from->n)
            key[top] = (double)pos[top] / (double)from->n;
        else
            heap[0] = heap[--m];
        /* sift the root down */
        int hole = 0, item = heap[0];
        for (;;) {
            int child = 2 * hole + 1;
            if (child >= m)
                break;
            if (child + 1 < m && P_LESS(heap[child + 1], heap[child]))
                child++;
            if (!P_LESS(heap[child], item))
                break;
            heap[hole] = heap[child];
            hole = child;
        }
        if (m)
            heap[hole] = item;
    }
#undef P_LESS
    PyMem_Free(heap);
    PyMem_Free(seq);
    PyMem_Free(pos);
    PyMem_Free(key);
    return 0;
}

static inline int
p_bucket(long long d)
{
    if (d < P_EXACT)
        return (int)d;
    int octave = 63 - __builtin_clzll((unsigned long long)d);
    long long sub = (d - (1LL << octave)) >> (octave - 3);
    return P_EXACT + (octave - 7) * 8 + (int)sub;
}

static long long
p_bucket_floor(int b)
{
    if (b < P_EXACT)
        return b;
    int octave = 7 + (b - P_EXACT) / 8;
    long long sub = (b - P_EXACT) % 8;
    return (1LL << octave) + (sub << (octave - 3));
}

/* Bennett-Kruskal over ``codes``: ``last`` (one slot per line id) and
 * ``tree`` (n + 1 slots) are scratch; ``hist`` is P_NBUCKETS read/write
 * pairs plus the cold pair at the end, all zeroed here. */
static void
p_histogram(const PVec *codes, int code_shift, Py_ssize_t nlines,
            long long *last, long long *tree, long long *hist)
{
    Py_ssize_t n = codes->n;
    memset(last, 0xff, (size_t)nlines * sizeof(long long));
    memset(tree, 0, (size_t)(n + 1) * sizeof(long long));
    memset(hist, 0, (size_t)(P_NBUCKETS + 1) * 2 * sizeof(long long));
    for (Py_ssize_t position = 0; position < n; position++) {
        long long code = codes->v[position];
        long long id = code >> code_shift;
        int w = (int)(code & 1);
        long long previous = last[id];
        if (previous < 0) {
            hist[2 * P_NBUCKETS + w]++;
        }
        else {
            /* distinct lines touched strictly after ``previous``:
             * marks in (previous, position) */
            long long marks = 0;
            for (Py_ssize_t j = position; j > 0; j -= j & -j)
                marks += tree[j];
            for (Py_ssize_t j = previous + 1; j > 0; j -= j & -j)
                marks -= tree[j];
            hist[2 * p_bucket(marks) + w]++;
            for (Py_ssize_t j = previous + 1; j <= n; j += j & -j)
                tree[j]--;
        }
        for (Py_ssize_t j = position + 1; j <= n; j += j & -j)
            tree[j]++;
        last[id] = position;
    }
}

/* ``(cold_reads, cold_writes, [[floor, reads, writes], ...])`` */
static PyObject *
p_histogram_object(const long long *hist)
{
    PyObject *buckets = PyList_New(0);
    if (!buckets)
        return NULL;
    for (int b = 0; b < P_NBUCKETS; b++) {
        if (!hist[2 * b] && !hist[2 * b + 1])
            continue;
        PyObject *entry = Py_BuildValue("[LLL]", p_bucket_floor(b),
                                        hist[2 * b], hist[2 * b + 1]);
        if (!entry || PyList_Append(buckets, entry) < 0) {
            Py_XDECREF(entry);
            Py_DECREF(buckets);
            return NULL;
        }
        Py_DECREF(entry);
    }
    return Py_BuildValue("(LLN)", hist[2 * P_NBUCKETS],
                         hist[2 * P_NBUCKETS + 1], buckets);
}

/* A tuple of ``n`` ints. */
static PyObject *
p_tuple_ll(const long long *v, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    for (Py_ssize_t k = 0; tuple && k < n; k++) {
        PyObject *item = PyLong_FromLongLong(v[k]);
        if (!item)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, k, item);
    }
    return tuple;
}

/* coherence_ladder over the globally merged codes.  Returns a tuple per
 * rung: (read_misses, write_misses, invalidations, per-process read
 * misses, per-process write misses), the last two indexed by process
 * index. */
static PyObject *
p_ladder(const PVec *codes, const PRowCtx *r, const long long *cluster_of,
         long long clusters, Py_ssize_t nprocs, const long long *tracked,
         Py_ssize_t rungs)
{
    for (Py_ssize_t k = 0; k < rungs; k++) {
        long long count = tracked[k];
        if (count < 1 || (count & (count - 1))) {
            PyErr_SetString(PyExc_ValueError,
                            "tracked line counts must be powers of two");
            return NULL;
        }
    }
    for (Py_ssize_t k = 1; k < rungs; k++) {
        if (tracked[k] < tracked[k - 1]) {
            PyErr_SetString(PyExc_ValueError,
                            "tracked line counts must be ascending");
            return NULL;
        }
    }
    if (rungs == 0) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    long long slots = 0;
    for (Py_ssize_t k = 0; k < rungs; k++)
        slots += tracked[k];
    long long *offset = PyMem_Malloc((size_t)rungs * 2 * sizeof(long long));
    int *shift = PyMem_Malloc((size_t)rungs * sizeof(int));
    long long *tags = PyMem_Malloc(
        (size_t)(clusters * slots) * sizeof(long long));
    long long *counts = PyMem_Calloc(
        (size_t)(rungs * (3 + 2 * nprocs)), sizeof(long long));
    PyObject *result = NULL;
    if (!offset || !shift || !tags || !counts) {
        PyErr_NoMemory();
        goto done;
    }
    memset(tags, 0xff, (size_t)(clusters * slots) * sizeof(long long));
    long long *mask = offset + rungs;
    long long at = 0;
    for (Py_ssize_t k = 0; k < rungs; k++) {
        offset[k] = at;
        mask[k] = tracked[k] - 1;
        shift[k] = 63 - __builtin_clzll((unsigned long long)tracked[k]);
        at += tracked[k];
    }
    /* per rung: read misses, write misses, invalidations, then read
     * misses per process, then write misses per process */
    long long stride = 3 + 2 * nprocs;
    int code_shift = r->code_shift;
    long long pmask = (1LL << (code_shift - 1)) - 1;
    const long long *id_line = r->ids.lines.v;
    for (Py_ssize_t p = 0; p < codes->n; p++) {
        long long code = codes->v[p];
        long long proc = (code >> 1) & pmask;
        int w = (int)(code & 1);
        long long line = id_line[code >> code_shift];
        long long cluster = cluster_of[proc];
        long long *own = tags + cluster * slots;
        if (own[line & mask[0]] != line >> shift[0]) {
            for (Py_ssize_t k = 0; k < rungs; k++) {
                long long *slot = own + offset[k] + (line & mask[k]);
                long long tag = line >> shift[k];
                if (*slot == tag)
                    break;
                *slot = tag;
                long long *entry = counts + k * stride;
                entry[w]++;
                entry[3 + w * nprocs + proc]++;
            }
        }
        if (w && clusters > 1) {
            for (long long other = 0; other < clusters; other++) {
                if (other == cluster)
                    continue;
                long long *remote = tags + other * slots;
                for (Py_ssize_t k = 0; k < rungs; k++) {
                    long long *slot = remote + offset[k] + (line & mask[k]);
                    if (*slot == line >> shift[k]) {
                        *slot = -1;
                        counts[k * stride + 2]++;
                    }
                }
            }
        }
    }
    result = PyTuple_New(rungs);
    if (!result)
        goto done;
    for (Py_ssize_t k = 0; k < rungs; k++) {
        long long *entry = counts + k * stride;
        PyObject *reads = p_tuple_ll(entry + 3, nprocs);
        PyObject *writes = p_tuple_ll(entry + 3 + nprocs, nprocs);
        PyObject *item = NULL;
        if (reads && writes)
            item = Py_BuildValue("(LLLOO)", entry[0], entry[1], entry[2],
                                 reads, writes);
        Py_XDECREF(reads);
        Py_XDECREF(writes);
        if (!item) {
            Py_CLEAR(result);
            goto done;
        }
        PyTuple_SET_ITEM(result, k, item);
    }
done:
    PyMem_Free(offset);
    PyMem_Free(shift);
    PyMem_Free(tags);
    PyMem_Free(counts);
    return result;
}

/* ``reads * remote_writes / (remote_writes + local)`` as python's
 * correctly rounded int / int. */
static int
p_true_divide(long long num_a, long long num_b, long long den, double *out)
{
    __int128 num = (__int128)num_a * num_b;
    const __int128 exact = (__int128)1 << 53;
    if (num < exact && den < exact) {
        *out = (double)(long long)num / (double)den;
        return 0;
    }
    PyObject *a = PyLong_FromLongLong(num_a);
    PyObject *b = PyLong_FromLongLong(num_b);
    PyObject *d = PyLong_FromLongLong(den);
    PyObject *n = a && b ? PyNumber_Multiply(a, b) : NULL;
    PyObject *q = n && d ? PyNumber_TrueDivide(n, d) : NULL;
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(d);
    Py_XDECREF(n);
    if (!q)
        return -1;
    *out = PyFloat_AsDouble(q);
    Py_DECREF(q);
    return 0;
}

/* One cluster's (reads, writes) of one line; a line's entries form a
 * list through ``next``. */
typedef struct {
    long long cluster, next, counts[2];
} PClusterCount;

/* _sharing_summary over the globally merged codes.  Returns
 * (shared_lines, writer-set sizes counted per size 0..nprocs,
 * interprocess_reuses, exposure per cluster).  Each cluster's exposure
 * gains at most one term per line, so only the order of lines decides
 * the float sums: first touch in the merged stream (``order``), as in
 * the python dict.  A line's own cluster list is newest first. */
static PyObject *
p_sharing(const PVec *codes, const PRowCtx *r, const long long *cluster_of,
          long long clusters, Py_ssize_t nprocs)
{
    Py_ssize_t nlines = r->ids.lines.n;
    int code_shift = r->code_shift;
    long long pmask = (1LL << (code_shift - 1)) - 1;
    Py_ssize_t words = (nprocs + 63) / 64;
    unsigned long long *writers = PyMem_Calloc(
        (size_t)(nlines * words) + 1, sizeof(unsigned long long));
    long long *last = PyMem_Malloc((size_t)(nlines + 1) * sizeof(long long));
    long long *head = NULL, *order = NULL;
    PClusterCount *nodes = NULL;
    long long *set_sizes = PyMem_Calloc((size_t)nprocs + 1,
                                        sizeof(long long));
    double *exposure = PyMem_Calloc((size_t)clusters + 1, sizeof(double));
    PyObject *result = NULL;
    Py_ssize_t nnodes = 0, nodes_cap = 0, norder = 0;
    long long reuses = 0, shared = 0;
    if (!writers || !last || !set_sizes || !exposure)
        goto nomem;
    memset(last, 0xff, (size_t)(nlines + 1) * sizeof(long long));
    if (clusters > 1) {
        head = PyMem_Malloc((size_t)(nlines + 1) * sizeof(long long));
        order = PyMem_Malloc((size_t)(nlines + 1) * sizeof(long long));
        if (!head || !order)
            goto nomem;
        memset(head, 0xff, (size_t)(nlines + 1) * sizeof(long long));
    }
    for (Py_ssize_t p = 0; p < codes->n; p++) {
        long long code = codes->v[p];
        long long id = code >> code_shift;
        long long proc = (code >> 1) & pmask;
        int w = (int)(code & 1);
        if (w)
            writers[id * words + proc / 64] |= 1ULL << (proc % 64);
        if (last[id] >= 0 && last[id] != proc)
            reuses++;
        last[id] = proc;
        if (clusters > 1) {
            long long cluster = cluster_of[proc];
            long long node = head[id];
            if (node < 0)
                order[norder++] = id;
            while (node >= 0 && nodes[node].cluster != cluster)
                node = nodes[node].next;
            if (node < 0) {
                if (nnodes == nodes_cap) {
                    Py_ssize_t cap = nodes_cap ? 2 * nodes_cap : 1024;
                    PClusterCount *grown = PyMem_Realloc(
                        nodes, (size_t)cap * sizeof(PClusterCount));
                    if (!grown)
                        goto nomem;
                    nodes = grown;
                    nodes_cap = cap;
                }
                nodes[nnodes] = (PClusterCount){cluster, head[id], {0, 0}};
                head[id] = node = nnodes++;
            }
            nodes[node].counts[w]++;
        }
    }
    for (Py_ssize_t id = 0; id < nlines; id++) {
        long long size = 0, any = 0;
        for (Py_ssize_t k = 0; k < words; k++) {
            any |= writers[id * words + k] != 0;
            size += __builtin_popcountll(writers[id * words + k]);
        }
        if (any)
            set_sizes[size]++;
    }
    for (Py_ssize_t k = 0; k < norder; k++) {
        long long id = order[k];
        long long first = head[id];
        if (nodes[first].next < 0)
            continue;
        shared++;
        long long total_writes = 0;
        for (long long n = first; n >= 0; n = nodes[n].next)
            total_writes += nodes[n].counts[1];
        for (long long n = first; n >= 0; n = nodes[n].next) {
            long long reads = nodes[n].counts[0];
            long long writes = nodes[n].counts[1];
            long long remote_writes = total_writes - writes;
            if (remote_writes && reads) {
                double term;
                if (p_true_divide(reads, remote_writes,
                                  remote_writes + reads + writes,
                                  &term) < 0)
                    goto done;
                exposure[nodes[n].cluster] += term;
            }
        }
    }
    {
        PyObject *sizes = p_tuple_ll(set_sizes, nprocs + 1);
        PyObject *expo = PyTuple_New(clusters);
        for (long long c = 0; expo && c < clusters; c++) {
            PyObject *v = PyFloat_FromDouble(exposure[c]);
            if (!v)
                Py_CLEAR(expo);
            else
                PyTuple_SET_ITEM(expo, c, v);
        }
        if (sizes && expo)
            result = Py_BuildValue("(LOLO)", shared, sizes, reuses, expo);
        Py_XDECREF(sizes);
        Py_XDECREF(expo);
    }
    goto done;
nomem:
    PyErr_NoMemory();
done:
    PyMem_Free(writers);
    PyMem_Free(last);
    PyMem_Free(head);
    PyMem_Free(order);
    PyMem_Free(nodes);
    PyMem_Free(set_sizes);
    PyMem_Free(exposure);
    return result;
}

/* plan = (streams, cluster_of, scal, tracked)
 *   streams    -- tuple of int64 buffers, one per process, in ascending
 *                 process-id order (the process index)
 *   cluster_of -- array('q'): ``proc // procs_per_cluster`` per index
 *   scal       -- array('q'): line_shift, clusters, icache lines (0 when
 *                 the icache is unmodelled), icache line size
 *   tracked    -- array('q'): the ladder's SCC line counts
 * Returns (summaries, process histograms, cluster histograms, ladder,
 * sharing); see p_histogram_object, p_ladder and p_sharing.  A summary
 * is the 8-tuple of ``extract_process``'s counters in payload order.
 */
static PyObject *
native_profile_row(PyObject *self, PyObject *plan)
{
    (void)self;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 4
        || !PyTuple_Check(PyTuple_GET_ITEM(plan, 0))) {
        PyErr_SetString(PyExc_TypeError,
                        "profile plan must be (streams, cluster_of, "
                        "scal, tracked)");
        return NULL;
    }
    PyObject *streams = PyTuple_GET_ITEM(plan, 0);
    Py_ssize_t nprocs = PyTuple_GET_SIZE(streams);
    PyObject *result = NULL;
    Py_buffer views[3];
    int nviews = 0;
    for (int k = 0; k < 3; k++) {
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(plan, k + 1), &views[k],
                               PyBUF_SIMPLE) < 0)
            goto release;
        nviews++;
    }
    const long long *cluster_of = views[0].buf;
    const long long *scal = views[1].buf;
    const long long *tracked = views[2].buf;
    Py_ssize_t rungs = views[2].len / (Py_ssize_t)sizeof(long long);
    if (views[0].len != nprocs * (Py_ssize_t)sizeof(long long)
        || views[1].len != 4 * (Py_ssize_t)sizeof(long long)) {
        PyErr_SetString(PyExc_ValueError, "malformed profile plan");
        goto release;
    }
    long long clusters = scal[1];

    PRowCtx r;
    memset(&r, 0, sizeof(r));
    int pbits = 0;
    while (((Py_ssize_t)1 << pbits) < nprocs)
        pbits++;
    r.code_shift = pbits + 1;
    r.line_shift = scal[0];
    r.ilines = scal[2];
    r.iline_size = scal[3];
    r.iline_shift = -1;
    if (r.iline_size > 0 && !(r.iline_size & (r.iline_size - 1)))
        r.iline_shift = 63 - __builtin_clzll((unsigned long long)r.iline_size);
    PyObject *summaries = NULL, *proc_hists = NULL;
    PyObject *cluster_hists = NULL, *ladder = NULL, *sharing = NULL;
    PVec *refs = PyMem_Calloc((size_t)nprocs + 1, sizeof(PVec));
    PVec *merged = PyMem_Calloc((size_t)clusters + 1, sizeof(PVec));
    PVec **inputs = PyMem_Calloc((size_t)(nprocs + clusters) + 1,
                                 sizeof(PVec *));
    PVec global = {NULL, 0, 0};
    long long *sum = PyMem_Calloc((size_t)nprocs * PS_COUNT + 1,
                                  sizeof(long long));
    long long *last = NULL, *tree = NULL, *hist = NULL;
    if (!refs || !merged || !inputs || !sum)
        goto nomem;
    if (r.ilines > 0) {
        r.itags = PyMem_Malloc((size_t)r.ilines * sizeof(long long));
        if (!r.itags)
            goto nomem;
    }
    if (p_ids_resize(&r.ids, 12) < 0)
        goto done;

    /* extract_process, per process */
    for (Py_ssize_t q = 0; q < nprocs; q++) {
        Py_buffer view;
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(streams, q), &view,
                               PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
            goto done;
        int rc;
        if (view.itemsize != 8 || !view.format
            || (strcmp(view.format, "q") && strcmp(view.format, "l"))) {
            PyErr_SetString(PyExc_TypeError,
                            "packed streams must be int64 buffers");
            rc = -1;
        }
        else
            rc = p_extract(&r, view.buf, view.len / 8, (long long)q << 1,
                           &refs[q], sum + q * PS_COUNT);
        PyBuffer_Release(&view);
        if (rc < 0)
            goto done;
    }
    if (!(summaries = PyTuple_New(nprocs)))
        goto done;
    for (Py_ssize_t q = 0; q < nprocs; q++) {
        long long *s = sum + q * PS_COUNT;
        PyObject *item = Py_BuildValue("(LLLLLLLL)", s[0], s[1], s[2],
                                       s[3], s[4], s[5], s[6], s[7]);
        if (!item)
            goto done;
        PyTuple_SET_ITEM(summaries, q, item);
    }

    /* histograms of each process's own stream */
    Py_ssize_t nlines = r.ids.lines.n, total = 0;
    for (Py_ssize_t q = 0; q < nprocs; q++)
        total += refs[q].n;
    last = PyMem_Malloc((size_t)nlines * sizeof(long long) + 1);
    tree = PyMem_Malloc((size_t)(total + 1) * sizeof(long long));
    hist = PyMem_Malloc((size_t)(P_NBUCKETS + 1) * 2 * sizeof(long long));
    if (!last || !tree || !hist)
        goto nomem;
    if (!(proc_hists = PyTuple_New(nprocs)))
        goto done;
    for (Py_ssize_t q = 0; q < nprocs; q++) {
        p_histogram(&refs[q], r.code_shift, nlines, last, tree, hist);
        PyObject *item = p_histogram_object(hist);
        if (!item)
            goto done;
        PyTuple_SET_ITEM(proc_hists, q, item);
    }

    /* per-cluster merges (what each shared cache sees) */
    if (!(cluster_hists = PyTuple_New(clusters)))
        goto done;
    for (long long c = 0; c < clusters; c++) {
        int members = 0;
        for (Py_ssize_t q = 0; q < nprocs; q++) {
            if (cluster_of[q] == c)
                inputs[members++] = &refs[q];
        }
        if (p_merge(inputs, members, &merged[c]) < 0)
            goto done;
        p_histogram(&merged[c], r.code_shift, nlines, last, tree, hist);
        PyObject *item = p_histogram_object(hist);
        if (!item)
            goto done;
        PyTuple_SET_ITEM(cluster_hists, c, item);
    }
    for (Py_ssize_t q = 0; q < nprocs; q++) {
        PyMem_Free(refs[q].v);
        refs[q].v = NULL;
    }
    for (long long c = 0; c < clusters; c++)
        inputs[c] = &merged[c];
    if (p_merge(inputs, (int)clusters, &global) < 0)
        goto done;
    for (long long c = 0; c < clusters; c++) {
        PyMem_Free(merged[c].v);
        merged[c].v = NULL;
    }

    if (!(ladder = p_ladder(&global, &r, cluster_of, clusters, nprocs,
                            tracked, rungs)))
        goto done;
    if (!(sharing = p_sharing(&global, &r, cluster_of, clusters, nprocs)))
        goto done;
    result = PyTuple_Pack(5, summaries, proc_hists, cluster_hists, ladder,
                          sharing);
    goto done;
nomem:
    PyErr_NoMemory();
done:
    Py_XDECREF(summaries);
    Py_XDECREF(proc_hists);
    Py_XDECREF(cluster_hists);
    Py_XDECREF(ladder);
    Py_XDECREF(sharing);
    if (refs) {
        for (Py_ssize_t q = 0; q < nprocs; q++)
            PyMem_Free(refs[q].v);
    }
    if (merged) {
        for (long long c = 0; c < clusters; c++)
            PyMem_Free(merged[c].v);
    }
    PyMem_Free(refs);
    PyMem_Free(merged);
    PyMem_Free(inputs);
    PyMem_Free(global.v);
    PyMem_Free(sum);
    PyMem_Free(last);
    PyMem_Free(tree);
    PyMem_Free(hist);
    PyMem_Free(r.itags);
    PyMem_Free(r.ids.keys);
    PyMem_Free(r.ids.ids);
    PyMem_Free(r.ids.lines.v);
release:
    for (int k = 0; k < nviews; k++)
        PyBuffer_Release(&views[k]);
    return result;
}

/* --------------------------------------------------------------- module */

static PyMethodDef methods[] = {
    {"setup", native_setup, METH_O,
     "Parse a drain plan into a context capsule."},
    {"drain", native_drain, METH_O,
     "Run the scheduler until python is needed; returns 0/1/2 "
     "(done/advance/sync)."},
    {"release", native_release, METH_O,
     "Release the buffer views held by a context."},
    {"ladder_setup", native_ladder_setup, METH_O,
     "Parse a fused-ladder plan into a context capsule."},
    {"ladder_drain", native_ladder_drain, METH_VARARGS,
     "Run the fused ladder over packed events; returns 0/2."},
    {"ladder_release", native_ladder_release, METH_O,
     "Release the buffer views held by a ladder context."},
    {"profile_row", native_profile_row, METH_O,
     "Reduce one row's packed streams to the analytical profile's "
     "counters."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_native",
    "C replay engine for the packed timing interleaver.", -1, methods,
    NULL, NULL, NULL, NULL,
};

static int
intern_all(void)
{
    struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&s_append, "append"}, {&s_popleft, "popleft"},
        {&s_seq, "_seq"}, {&s_busy_until, "_busy_until"},
        {&s_transactions, "transactions"},
        {&s_busy_cycles, "busy_cycles"},
        {&s_write_stall_cycles, "write_stall_cycles"},
    };
    for (size_t k = 0; k < sizeof(names) / sizeof(names[0]); k++) {
        if (!(*names[k].slot = PyUnicode_InternFromString(names[k].name)))
            return -1;
    }
    for (int k = 0; k < M_COUNT; k++) {
        if (!(s_m[k] = PyUnicode_InternFromString(m_names[k])))
            return -1;
    }
    for (int f = 0; f < F_COUNT; f++) {
        if (!(s_f[f] = PyUnicode_InternFromString(f_names[f])))
            return -1;
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *collections = PyImport_ImportModule("collections");
    if (!collections)
        return NULL;
    g_deque = PyObject_GetAttrString(collections, "deque");
    Py_DECREF(collections);
    if (!g_deque || intern_all() < 0)
        return NULL;
    PyObject *module = PyModule_Create(&moduledef);
    if (!module)
        return NULL;
    if (PyModule_AddStringConstant(module, "ABI_VERSION", NATIVE_ABI) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
