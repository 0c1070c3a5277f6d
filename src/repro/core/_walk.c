/* The two backfilling queue walks, compiled as the CPython extension
 * ``_walk``.
 *
 * ``repro_conservative_walk`` is a line-for-line port of
 * ``_ReservationPlan.place`` in ``repro/schedulers/disciplines.py``;
 * ``repro_easy_walk`` ports the blocked-head phase of
 * ``EasyBackfill.select_indexed`` there.  Both port the profile queries
 * they call (``AvailabilityProfile.fits_at_origin``, ``allocate``,
 * ``reserve_from_origin``, ``free_at`` and ``_first_fit`` in
 * ``repro/core/profile.py``).  The Python walks are the reference: every
 * comparison and every float addition below is the one Python performs, in
 * the same order, so the started jobs, the planned starts and the profile
 * left behind are the same bits.  Build with ``-ffp-contract=off`` and
 * without fast-math; ``repro.core.native`` does.
 *
 * The walks themselves are plain C99 on plain buffers.  The two entry
 * points at the end (``conservative_walk`` and ``easy_walk``) are all that
 * knows Python: with the GIL held, they copy the profile's segment lists
 * into scratch, read the queue's columns in place through the buffer
 * protocol, and check every input before a pointer is read.  Every loop is
 * bounded by the segment count or the queue length, the scratch has room
 * for every insert before the first, and a walk never reads or writes past
 * a buffer, even on a malformed profile.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision (no x87 excess precision)"
#endif

/* Stand-in duration for zero-runtime estimates (disciplines.py). */
#define ZERO_RUNTIME_EPSILON 1e-9
/* Projected remainder of an overrunning job; EASY's reservation clamp
 * (profile.py ``_OVERRUN_EPSILON``). */
#define OVERRUN_EPSILON 1.0
/* Sentinel wider than any machine: the suffix minimum past the queue. */
#define NO_JOB ((int64_t)1 << 60)

/* Return codes; the walk names the position of the job at fault (the
 * conservative walk in ``out[3]``, the EASY walk in ``frame->at``). */
#define WALK_OK 0
#define WALK_WIDER_THAN_MACHINE (-1)
#define WALK_PROFILE_TOO_LOW (-2)
#define WALK_NO_ROOM (-3)
#define WALK_OVERCOMMITTED (-4)

/* AvailabilityProfile.fits_at_origin */
static int fits_at_origin(const double *times, const int64_t *levels,
                          int64_t segments, int64_t nodes, double duration)
{
    double end = times[0] + duration;
    int64_t i = 0;
    while (levels[i] >= nodes) {
        ++i;
        if (i == segments || times[i] >= end)
            return 1;
    }
    return 0;
}

static void insert(double *times, int64_t *levels, int64_t *segments,
                   int64_t at, double time, int64_t level)
{
    int64_t tail = *segments - at;
    memmove(times + at + 1, times + at, (size_t)tail * sizeof *times);
    memmove(levels + at + 1, levels + at, (size_t)tail * sizeof *levels);
    times[at] = time;
    levels[at] = level;
    ++*segments;
}

/* bisect.bisect_right: the first index whose time is above ``x``. */
static int64_t bisect_right(const double *times, int64_t segments, double x)
{
    int64_t lo = 0, hi = segments, mid;
    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        if (x < times[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* _first_fit from the origin segment: the start, and the two segment
 * indices the scan ended on (``*lo`` holds the start, ``*hi`` is the first
 * index at or past the window's end, or ``segments``).  Returns
 * WALK_PROFILE_TOO_LOW when no segment is wide enough (impossible on a
 * well-formed profile, whose last level is the whole machine). */
static int first_fit(const double *times, const int64_t *levels,
                     int64_t segments, int64_t nodes, double duration,
                     double *start, int64_t *lo_out, int64_t *hi_out)
{
    double start_at = times[0];
    double candidate, end;
    int64_t lo = 0, hi;

    for (;;) {
        while (levels[lo] < nodes) {
            if (++lo == segments)
                return WALK_PROFILE_TOO_LOW;
        }
        candidate = times[lo] > start_at ? times[lo] : start_at;
        end = candidate + duration;
        for (hi = lo + 1; hi < segments; ++hi) {
            if (times[hi] >= end || levels[hi] < nodes)
                break;
        }
        if (hi == segments || times[hi] >= end)
            break;
        lo = hi;
    }
    *start = candidate;
    *lo_out = lo;
    *hi_out = hi;
    return WALK_OK;
}

/* AvailabilityProfile.allocate(nodes, duration) with ``after=None``: the
 * fused first fit and reservation.  The caller guarantees room for two
 * inserts. */
static int allocate(double *times, int64_t *levels, int64_t *segments,
                    int64_t nodes, double duration, double *start)
{
    double candidate, end;
    int64_t lo, hi, i;
    int code = first_fit(times, levels, *segments, nodes, duration,
                         &candidate, &lo, &hi);

    if (code != WALK_OK)
        return code;
    *start = candidate;
    end = candidate + duration;
    if (end == candidate) {
        /* A duration the float sum absorbs reserves nothing; reserve()
         * leaves the start breakpoint behind (_ensure_breakpoint). */
        if (times[lo] != candidate)
            insert(times, levels, segments, lo + 1, candidate, levels[lo]);
        return WALK_OK;
    }
    /* Split the far edge first, so ``lo`` still names the start segment. */
    if (hi == *segments || times[hi] != end)
        insert(times, levels, segments, hi, end, levels[hi - 1]);
    if (times[lo] != candidate) {
        ++lo;
        insert(times, levels, segments, lo, candidate, levels[lo - 1]);
        ++hi;
    }
    for (i = lo; i < hi; ++i)
        levels[i] -= nodes;
    return WALK_OK;
}

/* A job EASY starts now, reserved the way ``_reserve_from_now`` does:
 * AvailabilityProfile.reserve_from_origin with a non-positive estimate
 * clamped to the overrun epsilon.  The caller guarantees room for one
 * insert.  WALK_OVERCOMMITTED when the origin segment lacks the nodes. */
static int reserve_from_now(double *times, int64_t *levels, int64_t *segments,
                            int64_t nodes, double estimate)
{
    double end = times[0] + (estimate > 0 ? estimate : OVERRUN_EPSILON);
    int64_t hi, i;

    if (levels[0] < nodes)
        return WALK_OVERCOMMITTED;
    hi = bisect_right(times, *segments, end);
    if (times[hi - 1] == end)
        --hi;
    else
        insert(times, levels, segments, hi, end, levels[hi - 1]);
    for (i = 0; i < hi; ++i)
        levels[i] -= nodes;
    return WALK_OK;
}

/* EASY's shadow time and extra nodes for a head ``nodes`` wide with the
 * raw ``estimate``: AvailabilityProfile.earliest_start, then free_at. */
static int shadow_of(const double *times, const int64_t *levels,
                     int64_t segments, int64_t nodes, double estimate,
                     double *shadow, int64_t *extra)
{
    int64_t lo, hi;
    int code = first_fit(times, levels, segments, nodes, estimate, shadow,
                         &lo, &hi);

    if (code == WALK_OK)
        *extra = levels[bisect_right(times, segments, *shadow) - 1] - nodes;
    return code;
}

/* _ReservationPlan.place over the queue tail ``nodes``/``estimates``
 * (``count`` jobs, the first one at tail position 0).
 *
 * ``times``/``levels`` hold the plan profile's ``segments`` steps and have
 * room for ``capacity``; ``ints`` and ``floats`` are scratch of at least
 * ``2 * count + 1`` entries each.  On return:
 *   out[0]  segments of the profile after the walk;
 *   out[1]  jobs placed (the walk stopped before tail position out[1]);
 *   out[2]  jobs started; their tail positions are ``ints[0 .. out[2])``;
 *   out[3]  on an error, the tail position of the job that caused it.
 * The planned starts of the placed jobs that did not start are
 * ``floats[0 .. out[1] - out[2])``, in queue order. */
static int64_t repro_conservative_walk(double *times, int64_t *levels,
                                       int64_t segments, int64_t capacity,
                                       int64_t total_nodes,
                                       const int64_t *nodes,
                                       const double *estimates, int64_t count,
                                       double now, int64_t free_nodes,
                                       int64_t *ints, double *floats,
                                       int64_t *out)
{
    /* Suffix arrays after the outputs: ints/floats [count, 2 * count]. */
    int64_t *suffix_min = ints + count;
    double *shortest = floats + count;
    int64_t i, n_started = 0, n_planned = 0;
    double start;
    int code;

    out[0] = segments;
    out[1] = 0;
    out[2] = 0;
    out[3] = -1;
    if (segments < 1 || segments > capacity || count < 0)
        return WALK_NO_ROOM;

    suffix_min[count] = NO_JOB;
    shortest[count] = INFINITY;
    for (i = count - 1; i >= 0; --i) {
        int64_t width = nodes[i];
        int64_t narrower = suffix_min[i + 1];
        double shorter = shortest[i + 1];
        suffix_min[i] = width < narrower ? width : narrower;
        if (width <= free_nodes) {
            double est = estimates[i];
            if (est < ZERO_RUNTIME_EPSILON)
                est = ZERO_RUNTIME_EPSILON;
            if (est < shorter)
                shorter = est;
        }
        shortest[i] = shorter;
    }

    for (i = 0; i < count; ++i) {
        int64_t narrowest = suffix_min[i];
        int64_t width;
        double est;
        if (free_nodes < narrowest
            || !fits_at_origin(times, levels, segments, narrowest, shortest[i]))
            break;
        width = nodes[i];
        est = estimates[i];
        if (est < ZERO_RUNTIME_EPSILON)
            est = ZERO_RUNTIME_EPSILON;
        if (width > total_nodes) {
            out[3] = i;
            code = WALK_WIDER_THAN_MACHINE;
            goto done;
        }
        if (capacity - segments < 2) {
            out[3] = i;
            code = WALK_NO_ROOM;
            goto done;
        }
        code = allocate(times, levels, &segments, width, est, &start);
        if (code != WALK_OK) {
            out[3] = i;
            goto done;
        }
        if (start <= now) {
            ints[n_started++] = i;
            free_nodes -= width;
        } else {
            floats[n_planned++] = start;
        }
    }
    code = WALK_OK;
done:
    out[0] = segments;
    out[1] = i;
    out[2] = n_started;
    return code;
}

/* The inputs and outputs of repro_easy_walk. */
struct easy_frame {
    double *times;           /* in: the snapshot's times */
    int64_t *levels;         /* in: the snapshot's levels */
    int64_t capacity;        /* in: room in times/levels */
    const int64_t *nodes;    /* in: the queue's widths */
    const double *estimates; /* in: the queue's estimates */
    int64_t count;           /* in: queue length */
    int64_t total;           /* in: machine size */
    int64_t head;            /* in: the blocked head (= the started prefix) */
    int64_t free_nodes;      /* in: free nodes after the started prefix */
    int64_t segments;        /* in and out: segments of the profile */
    int64_t *picks;          /* out: room for ``count`` backfilled positions */
    unsigned char *taken;    /* scratch: ``count`` bytes */
    int64_t n_picks;         /* out: jobs backfilled */
    int64_t at;              /* out: on an error, the job at fault */
};

/* EasyBackfill.select_indexed once the head blocks, over the whole queue
 * (``f->count`` jobs) at the decision instant ``now``.
 * ``queue[0 .. head)`` started greedily and ``queue[head]`` does not fit
 * the free nodes.
 *
 * The times/levels buffers hold the snapshot's ``f->segments`` steps with
 * room for ``f->capacity``.  The walk reserves the started prefix from the
 * origin, then backfills the first job that fits the free nodes and either
 * ends by the head's shadow time or needs no more than the extra nodes,
 * reserves it and recomputes both, until no job qualifies or only the head
 * is left.  On return ``f->segments`` is the profile's segment count and
 * the backfilled positions are ``f->picks[0 .. f->n_picks)``, in the order
 * they were picked. */
static int64_t repro_easy_walk(struct easy_frame *f, double now)
{
    double *times = f->times;
    int64_t *levels = f->levels;
    const int64_t *nodes = f->nodes;
    const double *estimates = f->estimates;
    int64_t segments = f->segments;
    int64_t count = f->count;
    int64_t head = f->head;
    int64_t free_nodes = f->free_nodes;
    int64_t *picks = f->picks;
    unsigned char *taken = f->taken;
    int64_t i, from, width, head_nodes, extra, last_extra, remaining;
    int64_t n_picks = 0;
    double head_estimate, shadow, last_shadow;
    int code = WALK_OK;

    f->n_picks = 0;
    f->at = -1;
    /* One insert per reservation: the prefix and every pick, fewer than
     * ``count`` in all. */
    if (segments < 1 || segments > f->capacity || head < 0 || head >= count
        || f->capacity - segments < count)
        return WALK_NO_ROOM;
    remaining = count - head;
    if (remaining == 1)
        return WALK_OK; /* only the head is left: nothing to backfill */
    memset(taken, 0, (size_t)count);

    for (i = 0; i < head; ++i) {
        code = reserve_from_now(times, levels, &segments, nodes[i], estimates[i]);
        if (code != WALK_OK)
            goto fail;
    }
    head_nodes = nodes[head];
    head_estimate = estimates[head];
    i = head;
    if (head_nodes > f->total) {
        code = WALK_WIDER_THAN_MACHINE;
        goto fail;
    }
    code = shadow_of(times, levels, segments, head_nodes, head_estimate,
                     &shadow, &extra);
    if (code != WALK_OK)
        goto fail;

    from = head + 1;
    for (;;) {
        for (i = from; i < count; ++i) {
            width = nodes[i];
            if (taken[i] || width > free_nodes)
                continue;
            if (now + estimates[i] <= shadow || width <= extra)
                break;
        }
        if (i == count)
            break;
        taken[i] = 1;
        picks[n_picks++] = i;
        free_nodes -= width;
        --remaining;
        code = reserve_from_now(times, levels, &segments, width, estimates[i]);
        if (code != WALK_OK)
            goto fail;
        if (remaining == 1)
            break;
        last_shadow = shadow;
        last_extra = extra;
        code = shadow_of(times, levels, segments, head_nodes, head_estimate,
                         &shadow, &extra);
        if (code != WALK_OK) {
            i = head;
            goto fail;
        }
        /* With the same shadow and extra count, every job the scan passed
         * is still refused (free nodes only shrink): resume past the pick.
         * A moved shadow may admit any of them: scan from the head. */
        from = shadow == last_shadow && extra == last_extra ? i + 1 : head + 1;
    }
    f->segments = segments;
    f->n_picks = n_picks;
    return WALK_OK;
fail:
    f->segments = segments;
    f->n_picks = n_picks;
    f->at = i;
    return code;
}

/* -- the CPython entry points -------------------------------------------- */

/* What the walks run in: the profile's steps with room for every insert
 * (``steps`` entries in ``times`` and ``levels``), and per-job scratch
 * (``jobs`` entries in ``ints`` and ``floats``).  One set is kept between
 * calls.  A walk entered while it is lent out (from a finalizer or another
 * thread, run while the lending walk allocates its result) gets its own. */
struct scratch {
    double *times;
    int64_t *levels;
    Py_ssize_t steps;
    int64_t *ints;
    double *floats;
    Py_ssize_t jobs;
};

static struct scratch kept;
static int kept_lent;

static PyObject *str_times, *str_free, *str_total_nodes, *str_walk_error;

/* ``*buffer`` resized to ``count`` items of ``size`` bytes; -1 (and the
 * buffer left as it was) when out of memory. */
static int resize(void **buffer, Py_ssize_t count, size_t size)
{
    void *grown = NULL;

    if ((size_t)count <= (size_t)PY_SSIZE_T_MAX / size)
        grown = PyMem_Realloc(*buffer, (size_t)count * size);
    if (grown == NULL)
        return -1;
    *buffer = grown;
    return 0;
}

/* Scratch with room for ``steps`` steps and ``jobs`` jobs: the kept set,
 * or ``own`` (zeroed by the caller) while the kept one is lent out.  NULL,
 * with MemoryError set and nothing lent, when out of memory. */
static struct scratch *lend(struct scratch *own, Py_ssize_t steps,
                            Py_ssize_t jobs)
{
    struct scratch *s = kept_lent ? own : &kept;

    if (steps > s->steps) {
        if (resize((void **)&s->times, 2 * steps, sizeof *s->times)
            || resize((void **)&s->levels, 2 * steps, sizeof *s->levels))
            goto no_memory;
        s->steps = 2 * steps;
    }
    if (jobs > s->jobs) {
        if (resize((void **)&s->ints, 2 * jobs, sizeof *s->ints)
            || resize((void **)&s->floats, 2 * jobs, sizeof *s->floats))
            goto no_memory;
        s->jobs = 2 * jobs;
    }
    if (s == &kept)
        kept_lent = 1;
    return s;
no_memory:
    if (s == own) {
        PyMem_Free(own->times);
        PyMem_Free(own->levels);
        PyMem_Free(own->ints);
        PyMem_Free(own->floats);
    }
    PyErr_NoMemory();
    return NULL;
}

static void give_back(struct scratch *s)
{
    if (s == &kept) {
        kept_lent = 0;
        return;
    }
    PyMem_Free(s->times);
    PyMem_Free(s->levels);
    PyMem_Free(s->ints);
    PyMem_Free(s->floats);
}

/* Lend scratch and copy ``profile._times``/``profile._free`` into it, with
 * room for ``inserts`` more steps and ``jobs`` jobs; ``*segments`` and
 * ``*total`` are the segment count and ``profile.total_nodes``.  NULL, with
 * an exception set and nothing lent, on a profile whose lists are not two
 * non-empty lists of one length holding floats (or ints) and ints.  Nothing
 * but the copy runs while the lists are read, so they cannot change. */
static struct scratch *read_profile(PyObject *profile, Py_ssize_t inserts,
                                    Py_ssize_t jobs, struct scratch *own,
                                    Py_ssize_t *segments, int64_t *total)
{
    PyObject *times, *levels = NULL, *total_obj = NULL, *item;
    struct scratch *s = NULL;
    Py_ssize_t n = 0, i;

    times = PyObject_GetAttr(profile, str_times);
    if (times == NULL || (levels = PyObject_GetAttr(profile, str_free)) == NULL
        || (total_obj = PyObject_GetAttr(profile, str_total_nodes)) == NULL)
        goto done;
    *total = PyLong_AsLongLong(total_obj);
    if (*total == -1 && PyErr_Occurred())
        goto done;
    if (!PyList_Check(times) || !PyList_Check(levels)) {
        PyErr_SetString(PyExc_TypeError,
                        "the profile's segments must be lists");
        goto done;
    }
    n = PyList_GET_SIZE(times);
    if (n < 1 || PyList_GET_SIZE(levels) != n) {
        PyErr_SetString(PyExc_ValueError, "the profile must have segments, "
                                          "as many times as levels");
        goto done;
    }
    s = lend(own, n + inserts, jobs);
    if (s == NULL)
        goto done;
    for (i = 0; i < n; ++i) {
        item = PyList_GET_ITEM(times, i);
        if (PyFloat_Check(item))
            s->times[i] = PyFloat_AS_DOUBLE(item);
        else if (PyLong_Check(item))
            s->times[i] = PyLong_AsDouble(item);
        else
            goto bad;
        item = PyList_GET_ITEM(levels, i);
        if (!PyLong_Check(item))
            goto bad;
        s->levels[i] = PyLong_AsLongLong(item);
        if (PyErr_Occurred())
            goto bad;
    }
    *segments = n;
    goto done;
bad:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "the profile's times must be floats "
                                         "and its levels ints");
    give_back(s);
    s = NULL;
done:
    Py_XDECREF(times);
    Py_XDECREF(levels);
    Py_XDECREF(total_obj);
    return s;
}

/* Borrow ``obj``'s buffer if it is a contiguous run of 8-byte ``format``
 * items, as an ``array('q')`` or ``array('d')`` is; -1, with nothing held
 * and no exception, otherwise. */
static int column(PyObject *obj, const char *format, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        return -1;
    }
    if (view->itemsize != 8 || view->format == NULL
        || strcmp(view->format, format) != 0) {
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Raise the ValueError ``module.walk_error(code, width, total, free)``
 * makes of a kernel error: ``width`` is the job at the position the kernel
 * names, ``free`` the profile's level at its origin when the walk stopped.
 * ``repro.core.native`` sets ``walk_error`` when it loads the module. */
static PyObject *walk_failed(PyObject *module, int code, int64_t width,
                             int64_t total, int64_t free_nodes)
{
    PyObject *factory = PyObject_GetAttr(module, str_walk_error);
    PyObject *error;

    if (factory == NULL) {
        PyErr_Clear();
        return PyErr_Format(PyExc_ValueError,
                            "backfilling walk failed with code %d", code);
    }
    error = PyObject_CallFunction(factory, "iLLL", code, (long long)width,
                                  (long long)total, (long long)free_nodes);
    Py_DECREF(factory);
    if (error != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(error), error);
        Py_DECREF(error);
    }
    return NULL;
}

static PyObject *float_list(const double *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *item;
    Py_ssize_t i;

    for (i = 0; list != NULL && i < n; ++i) {
        item = PyFloat_FromDouble(values[i]);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *int_list(const int64_t *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *item;
    Py_ssize_t i;

    for (i = 0; list != NULL && i < n; ++i) {
        item = PyLong_FromLongLong(values[i]);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    return list;
}

PyDoc_STRVAR(conservative_doc,
"conservative_walk(profile, nodes, estimates, offset, count, now, free)\n\
--\n\
\n\
Place the ``count`` jobs whose widths and estimates start at ``offset``\n\
in the ``array('q')``/``array('d')`` columns on ``profile``, exactly as\n\
``_ReservationPlan.place`` would, and return ``(placed, started,\n\
planned)``: how many jobs the walk got through, the tail positions of\n\
those that start now, and the planned starts of the others in order.\n\
``profile`` is left edited as the Python walk leaves it, or, when the\n\
walk raises, as it was.");

static PyObject *conservative_walk(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Py_buffer nodes, estimates;
    struct scratch own = {0}, *s;
    Py_ssize_t offset, count, segments;
    int64_t total, free_nodes, out[4];
    int64_t code, width, level;
    double now;
    PyObject *times_list, *levels_list, *started, *planned, *result;

    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError,
                            "conservative_walk takes 7 arguments (%zd given)",
                            nargs);
    offset = PyLong_AsSsize_t(args[3]);
    if (offset == -1 && PyErr_Occurred())
        return NULL;
    count = PyLong_AsSsize_t(args[4]);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    now = PyFloat_AsDouble(args[5]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    free_nodes = PyLong_AsLongLong(args[6]);
    if (free_nodes == -1 && PyErr_Occurred())
        return NULL;
    if (column(args[1], "q", &nodes))
        goto bad_columns;
    if (column(args[2], "d", &estimates)) {
        PyBuffer_Release(&nodes);
        goto bad_columns;
    }
    if (offset < 0 || count < 0 || count > nodes.len / 8 - offset
        || count > estimates.len / 8 - offset) {
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        goto bad_columns;
    }
    /* Room for two inserts per placed job; scratch for the two outputs and
     * the two suffix arrays (2 * count + 1 each). */
    s = read_profile(args[0], 2 * count, 2 * count + 1, &own, &segments,
                     &total);
    if (s == NULL) {
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        return NULL;
    }
    code = repro_conservative_walk(
        s->times, s->levels, segments, s->steps, total,
        (const int64_t *)nodes.buf + offset,
        (const double *)estimates.buf + offset, count, now, free_nodes,
        s->ints, s->floats, out);
    width = out[3] >= 0 ? ((const int64_t *)nodes.buf)[offset + out[3]] : 0;
    PyBuffer_Release(&nodes);
    PyBuffer_Release(&estimates);
    if (code != WALK_OK) {
        level = s->levels[0];
        give_back(s);
        return walk_failed(module, (int)code, width, total, level);
    }
    times_list = float_list(s->times, out[0]);
    levels_list = int_list(s->levels, out[0]);
    started = int_list(s->ints, out[2]);
    planned = float_list(s->floats, out[1] - out[2]);
    give_back(s);
    result = NULL;
    if (times_list != NULL && levels_list != NULL && started != NULL
        && planned != NULL
        && PyObject_SetAttr(args[0], str_times, times_list) == 0
        && PyObject_SetAttr(args[0], str_free, levels_list) == 0)
        result = Py_BuildValue("(LOO)", (long long)out[1], started, planned);
    Py_XDECREF(times_list);
    Py_XDECREF(levels_list);
    Py_XDECREF(started);
    Py_XDECREF(planned);
    return result;
bad_columns:
    PyErr_SetString(PyExc_ValueError,
                    "queue columns must be array('q') and array('d') "
                    "covering the tail");
    return NULL;
}

PyDoc_STRVAR(easy_doc,
"easy_walk(profile, nodes, estimates, head, free, now)\n\
--\n\
\n\
Run the blocked-head phase of ``EasyBackfill.select_indexed`` on\n\
``profile``, a snapshot taken at ``now``: the queue's ``array('q')``/\n\
``array('d')`` columns are read in place, ``queue[:head]`` started\n\
greedily, and ``queue[head]`` does not fit the ``free`` nodes left.\n\
Return the positions of the backfilled jobs in the order the Python\n\
walk picks them.  ``profile`` is left as it was: the walk's reservations\n\
die with the decision, as the Python walk's snapshot does.");

static PyObject *easy_walk(PyObject *module, PyObject *const *args,
                           Py_ssize_t nargs)
{
    Py_buffer nodes, estimates;
    struct scratch own = {0}, *s;
    struct easy_frame frame;
    Py_ssize_t head, count, segments;
    int64_t total, free_nodes, code, width, level;
    double now;
    PyObject *picks;

    if (nargs != 6)
        return PyErr_Format(PyExc_TypeError,
                            "easy_walk takes 6 arguments (%zd given)", nargs);
    head = PyLong_AsSsize_t(args[3]);
    if (head == -1 && PyErr_Occurred())
        return NULL;
    free_nodes = PyLong_AsLongLong(args[4]);
    if (free_nodes == -1 && PyErr_Occurred())
        return NULL;
    now = PyFloat_AsDouble(args[5]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    if (column(args[1], "q", &nodes))
        goto bad_columns;
    if (column(args[2], "d", &estimates)) {
        PyBuffer_Release(&nodes);
        goto bad_columns;
    }
    count = nodes.len / 8;
    if (estimates.len / 8 != count || head < 0 || head >= count) {
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        goto bad_columns;
    }
    /* Room for one insert per reservation (the prefix and each pick); a
     * pick per job in the int scratch, a byte per job in the float one. */
    s = read_profile(args[0], count, count, &own, &segments, &total);
    if (s == NULL) {
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        return NULL;
    }
    frame.times = s->times;
    frame.levels = s->levels;
    frame.capacity = s->steps;
    frame.nodes = nodes.buf;
    frame.estimates = estimates.buf;
    frame.count = count;
    frame.total = total;
    frame.head = head;
    frame.free_nodes = free_nodes;
    frame.segments = segments;
    frame.picks = s->ints;
    frame.taken = (unsigned char *)s->floats;
    code = repro_easy_walk(&frame, now);
    width = frame.at >= 0 ? ((const int64_t *)nodes.buf)[frame.at] : 0;
    PyBuffer_Release(&nodes);
    PyBuffer_Release(&estimates);
    if (code != WALK_OK) {
        level = s->levels[0];
        give_back(s);
        return walk_failed(module, (int)code, width, total, level);
    }
    picks = int_list(frame.picks, frame.n_picks);
    give_back(s);
    return picks;
bad_columns:
    PyErr_SetString(PyExc_ValueError,
                    "queue columns must be array('q') and array('d') of the "
                    "queue's length, past the head");
    return NULL;
}

static PyMethodDef walk_methods[] = {
    {"conservative_walk", (PyCFunction)(void (*)(void))conservative_walk,
     METH_FASTCALL, conservative_doc},
    {"easy_walk", (PyCFunction)(void (*)(void))easy_walk, METH_FASTCALL,
     easy_doc},
    {NULL, NULL, 0, NULL},
};

static int walk_exec(PyObject *module)
{
    (void)module;
    if (str_walk_error != NULL)
        return 0; /* another module object from the same library */
    str_times = PyUnicode_InternFromString("_times");
    str_free = PyUnicode_InternFromString("_free");
    str_total_nodes = PyUnicode_InternFromString("total_nodes");
    str_walk_error = PyUnicode_InternFromString("walk_error");
    if (str_times && str_free && str_total_nodes && str_walk_error)
        return 0;
    Py_CLEAR(str_times);
    Py_CLEAR(str_free);
    Py_CLEAR(str_total_nodes);
    Py_CLEAR(str_walk_error);
    return -1;
}

static PyModuleDef_Slot walk_slots[] = {
    {Py_mod_exec, walk_exec},
#ifdef Py_mod_multiple_interpreters
    /* The kept scratch is one per process: one GIL must guard it. */
    {Py_mod_multiple_interpreters, Py_MOD_MULTIPLE_INTERPRETERS_SUPPORTED},
#endif
    {0, NULL},
};

static struct PyModuleDef walk_module = {
    PyModuleDef_HEAD_INIT,
    "_walk",
    "The compiled backfilling queue walks (see repro.core.native).",
    0,
    walk_methods,
    walk_slots,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__walk(void)
{
    return PyModuleDef_Init(&walk_module);
}
