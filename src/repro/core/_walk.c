/* The two backfilling queue walks, compiled as the CPython extension
 * ``_walk``.
 *
 * ``ConservativePlan`` keeps ``ConservativeBackfill``'s reservation plan
 * between decision points: the plan profile's steps and, per planned job,
 * the job itself, its planned start, the end its reservation holds the
 * nodes to and its width.  ``plan_keep_prefix`` ports
 * ``_ReservationPlan.keep_prefix`` and ``plan_place`` ports
 * ``_ReservationPlan.place`` in ``repro/schedulers/disciplines.py``;
 * ``repro_easy_walk`` ports the blocked-head phase of
 * ``EasyBackfill.select_indexed`` there.  They port the profile calls they
 * make (``AvailabilityProfile.fits_at_origin``, ``allocate``,
 * ``unreserve``, ``advance_origin``, ``reserve_from_origin``, ``free_at``
 * and ``_first_fit`` in ``repro/core/profile.py``) and the overrun clamps
 * of ``SchedulingState._clamped_clone`` in ``repro/core/state.py``.  The
 * Python walks are the reference: every comparison and every float
 * addition below is the one Python performs, in the same order, so the
 * started jobs, the planned starts and the plan profile are the same bits.
 * Build with ``-ffp-contract=off`` and without fast-math;
 * ``repro.core.native`` does.
 *
 * The walks are plain C99 on plain buffers; a planned job is a pointer,
 * compared by identity and held as a reference.  The entry points at the
 * end are all that knows Python: with the GIL held, they read the queue's
 * columns in place through the buffer protocol and check every input
 * before a pointer is read, and a plan (or EASY's scratch) copies the
 * profile it loads from ``profile._times``/``profile._free``.  Every loop
 * is bounded by the segment count or the queue length, every buffer has
 * room for every insert before the first, and a walk never reads or
 * writes past a buffer, even on a malformed profile.
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
/* Projected remainder of an overrunning job: the overrun clamp and EASY's
 * reservation clamp (profile.py ``_OVERRUN_EPSILON``). */
#define OVERRUN_EPSILON 1.0
/* Sentinel wider than any machine: the suffix minimum past the queue. */
#define NO_JOB ((int64_t)1 << 60)

/* Return codes; the walk names the position of the job at fault. */
#define WALK_OK 0
#define WALK_WIDER_THAN_MACHINE (-1)
#define WALK_PROFILE_TOO_LOW (-2)
#define WALK_NO_ROOM (-3)
#define WALK_OVERCOMMITTED (-4)
#define WALK_ABOVE_TOTAL (-5)

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

static void remove_at(double *times, int64_t *levels, int64_t *segments,
                      int64_t at)
{
    int64_t tail = *segments - at - 1;
    memmove(times + at, times + at + 1, (size_t)tail * sizeof *times);
    memmove(levels + at, levels + at + 1, (size_t)tail * sizeof *levels);
    --*segments;
}

/* bisect.bisect_left: the first index whose time is at or above ``x``. */
static int64_t bisect_left(const double *times, int64_t segments, double x)
{
    int64_t lo = 0, hi = segments, mid;
    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        if (times[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* AvailabilityProfile._ensure_breakpoint for a ``time`` at or past the
 * origin.  The caller guarantees room for one insert. */
static void ensure_breakpoint(double *times, int64_t *levels,
                              int64_t *segments, double time)
{
    int64_t idx = bisect_right(times, *segments, time) - 1;
    if (times[idx] != time)
        insert(times, levels, segments, idx + 1, time, levels[idx]);
}

/* AvailabilityProfile.advance_origin */
static void advance_origin(double *times, int64_t *levels, int64_t *segments,
                           double now)
{
    int64_t idx;

    if (!(now > times[0]))
        return;
    idx = bisect_right(times, *segments, now) - 1;
    if (idx > 0) {
        *segments -= idx;
        memmove(times, times + idx, (size_t)*segments * sizeof *times);
        memmove(levels, levels + idx, (size_t)*segments * sizeof *levels);
    }
    times[0] = now;
}

/* AvailabilityProfile.unreserve(start, end, nodes) on a ``total``-node
 * machine.  The caller guarantees room for two inserts.  WALK_ABOVE_TOTAL
 * when a segment would rise above ``total``. */
static int unreserve(double *times, int64_t *levels, int64_t *segments,
                     int64_t total, double start, double end, int64_t nodes)
{
    int64_t lo, hi, i;

    if (start < times[0])
        start = times[0];
    if (nodes <= 0 || end <= start)
        return WALK_OK;
    ensure_breakpoint(times, levels, segments, start);
    ensure_breakpoint(times, levels, segments, end);
    lo = bisect_left(times, *segments, start);
    hi = bisect_left(times, *segments, end);
    for (i = lo; i < hi; ++i) {
        if (levels[i] > total - nodes)
            return WALK_ABOVE_TOTAL;
    }
    for (i = lo; i < hi; ++i)
        levels[i] += nodes;
    /* The far edge first, so ``lo`` still names the near one. */
    if (levels[hi - 1] == levels[hi])
        remove_at(times, levels, segments, hi);
    if (lo && levels[lo - 1] == levels[lo])
        remove_at(times, levels, segments, lo);
    return WALK_OK;
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
 * clamped to the overrun epsilon.  With an estimate of 0 it is also an
 * overrun clamp, ``reserve(now, _OVERRUN_EPSILON, nodes)`` on a
 * prefix-anchored profile whose origin is ``now``.  The caller guarantees
 * room for one insert.  WALK_OVERCOMMITTED when the origin segment lacks
 * the nodes. */
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

/* -- the kept conservative plan ------------------------------------------- */

/* A ``ConservativePlan``: the plan profile, ``segments`` steps (0 while no
 * profile is loaded) with room for ``steps``, and the planned jobs in queue
 * order, ``planned`` of them with room for ``room``. */
typedef struct {
    PyObject_HEAD
    double *times;
    int64_t *levels;
    int64_t segments, steps;
    int64_t total;       /* the machine size (``profile.total_nodes``) */
    PyObject **jobs;     /* the planned jobs (references held) */
    double *starts;      /* their planned starts */
    double *ends;        /* the ends their reservations hold the nodes to */
    int64_t *widths;     /* their widths */
    int64_t planned, room;
    PyObject **dropped;  /* references a walk gave up, released at its end */
    int64_t n_dropped;
    int64_t *ints;       /* walk scratch: started positions, suffix minima */
    double *floats;      /* walk scratch: suffix least estimates */
    int64_t scratch;     /* jobs the walk scratch has room for */
    int busy;            /* a walk is under way */
} Plan;

/* Give up every planned job: the references move to ``dropped``. */
static void plan_drop(Plan *p, int64_t from)
{
    int64_t k;

    for (k = from; k < p->planned; ++k)
        p->dropped[p->n_dropped++] = p->jobs[k];
    p->planned = from;
}

/* _ReservationPlan.keep_prefix: bring the plan to ``now``, keep the longest
 * prefix of planned jobs that are ``items[0 .. count)`` themselves, and
 * withdraw the reservations of the others in order.  The caller guarantees
 * room for two inserts per planned job.  The kept length goes to ``*keep``;
 * on an error ``*at`` is the plan index of the job at fault. */
static int plan_keep_prefix(Plan *p, PyObject *const *items, int64_t count,
                            double now, int64_t *keep, int64_t *at)
{
    int64_t k = 0, limit = p->planned < count ? p->planned : count;
    int code;

    advance_origin(p->times, p->levels, &p->segments, now);
    while (k < limit && p->jobs[k] == items[k])
        ++k;
    *keep = k;
    for (; k < p->planned; ++k) {
        /* The end allocate() placed the reservation's far edge at. */
        code = unreserve(p->times, p->levels, &p->segments, p->total,
                         p->starts[k], p->ends[k], p->widths[k]);
        if (code != WALK_OK) {
            *at = k;
            return code;
        }
    }
    plan_drop(p, *keep);
    return WALK_OK;
}

/* _ReservationPlan.place: walk ``items[keep .. count)``, whose widths and
 * estimates are ``nodes``/``estimates`` at the same positions, in order on
 * the plan.  Each job is allocated and either starts now (its position goes
 * to ``p->ints``, ``*started`` of them) or joins the plan.  The caller
 * guarantees room for two inserts and one planned job per job, and walk
 * scratch for ``count`` jobs.  On an error ``*at`` is the position of the
 * job at fault. */
static int plan_place(Plan *p, PyObject *const *items, const int64_t *nodes,
                      const double *estimates, int64_t keep, int64_t count,
                      double now, int64_t free_nodes, int64_t *started,
                      int64_t *at)
{
    /* Suffix minima after the started positions: ints [count, 2 * count]. */
    int64_t *suffix_min = p->ints + count;
    double *shortest = p->floats;
    int64_t i, k, width, narrowest, n_started = 0;
    double start, est;
    int code;

    suffix_min[count] = NO_JOB;
    shortest[count] = INFINITY;
    for (i = count - 1; i >= keep; --i) {
        int64_t narrower = suffix_min[i + 1];
        double shorter = shortest[i + 1];
        width = nodes[i];
        suffix_min[i] = width < narrower ? width : narrower;
        if (width <= free_nodes) {
            est = estimates[i];
            if (est < ZERO_RUNTIME_EPSILON)
                est = ZERO_RUNTIME_EPSILON;
            if (est < shorter)
                shorter = est;
        }
        shortest[i] = shorter;
    }

    code = WALK_OK;
    for (i = keep; i < count; ++i) {
        /* The two exits: no job left can start now. */
        narrowest = suffix_min[i];
        if (free_nodes < narrowest
            || !fits_at_origin(p->times, p->levels, p->segments, narrowest,
                               shortest[i]))
            break;
        width = nodes[i];
        est = estimates[i];
        if (est < ZERO_RUNTIME_EPSILON)
            est = ZERO_RUNTIME_EPSILON;
        if (width > p->total) {
            code = WALK_WIDER_THAN_MACHINE;
            break;
        }
        if (p->steps - p->segments < 2 || p->planned == p->room) {
            code = WALK_NO_ROOM;
            break;
        }
        code = allocate(p->times, p->levels, &p->segments, width, est, &start);
        if (code != WALK_OK)
            break;
        if (start <= now) {
            p->ints[n_started++] = i;
            free_nodes -= width;
        } else {
            k = p->planned++;
            p->jobs[k] = items[i];
            Py_INCREF(items[i]);
            p->starts[k] = start;
            p->ends[k] = start + est; /* allocate()'s end breakpoint */
            p->widths[k] = width;
        }
    }
    *started = n_started;
    if (code != WALK_OK)
        *at = i;
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

/* EASY's scratch: the snapshot's steps with room for every insert
 * (``steps`` entries in ``times`` and ``levels``), and per-job scratch
 * (``jobs`` entries in ``ints`` and ``floats``).  One set is kept between
 * calls.  A walk entered while it is lent out (from a finalizer or another
 * thread, run while the lending walk reads its profile or allocates its
 * result) gets its own. */
struct scratch {
    double *times;
    int64_t *levels;
    int64_t steps;
    int64_t *ints;
    double *floats;
    int64_t jobs;
};

static struct scratch kept;
static int kept_lent;

static PyObject *str_times, *str_free, *str_total_nodes, *str_walk_error;

/* ``*buffer`` resized to ``count`` items of ``size`` bytes; -1 (and the
 * buffer left as it was) when out of memory. */
static int resize(void **buffer, int64_t count, size_t size)
{
    void *grown = NULL;

    if (count >= 0 && (uint64_t)count <= (uint64_t)PY_SSIZE_T_MAX / size)
        grown = PyMem_Realloc(*buffer, (size_t)count * size);
    if (grown == NULL)
        return -1;
    *buffer = grown;
    return 0;
}

/* Room for ``need`` steps in ``*times``/``*levels`` (``*room`` of them,
 * doubled past it); -1, with MemoryError set, when out of memory. */
static int grow_steps(double **times, int64_t **levels, int64_t *room,
                      int64_t need)
{
    if (need <= *room)
        return 0;
    if (resize((void **)times, 2 * need, sizeof **times)
        || resize((void **)levels, 2 * need, sizeof **levels)) {
        PyErr_NoMemory();
        return -1;
    }
    *room = 2 * need;
    return 0;
}

static void free_scratch(struct scratch *s)
{
    PyMem_Free(s->times);
    PyMem_Free(s->levels);
    PyMem_Free(s->ints);
    PyMem_Free(s->floats);
}

/* Scratch with room for ``jobs`` jobs: the kept set, or ``own`` (zeroed by
 * the caller) while the kept one is lent out.  NULL, with MemoryError set
 * and nothing lent, when out of memory. */
static struct scratch *lend(struct scratch *own, int64_t jobs)
{
    struct scratch *s = kept_lent ? own : &kept;

    if (jobs > s->jobs) {
        if (resize((void **)&s->ints, 2 * jobs, sizeof *s->ints)
            || resize((void **)&s->floats, 2 * jobs, sizeof *s->floats)) {
            if (s == own)
                free_scratch(own);
            PyErr_NoMemory();
            return NULL;
        }
        s->jobs = 2 * jobs;
    }
    if (s == &kept)
        kept_lent = 1;
    return s;
}

static void give_back(struct scratch *s)
{
    if (s == &kept)
        kept_lent = 0;
    else
        free_scratch(s);
}

/* Copy ``profile._times``/``profile._free`` into ``*times``/``*levels``,
 * grown to hold them and ``inserts`` more steps (``*room``);
 * ``*segments`` and ``*total`` become the segment count and
 * ``profile.total_nodes``.  -1, with an exception set and ``*segments``
 * left as it was, on a profile whose lists are not two non-empty lists of
 * one length holding floats (or ints) and ints, or out of memory.  Nothing
 * but the copy runs while the lists are read, so they cannot change. */
static int read_profile(PyObject *profile, int64_t inserts, double **times,
                        int64_t **levels, int64_t *room, int64_t *segments,
                        int64_t *total)
{
    PyObject *times_list, *levels_list = NULL, *total_obj = NULL, *item;
    Py_ssize_t n, i;
    int64_t machine;
    int ok = -1;

    times_list = PyObject_GetAttr(profile, str_times);
    if (times_list == NULL
        || (levels_list = PyObject_GetAttr(profile, str_free)) == NULL
        || (total_obj = PyObject_GetAttr(profile, str_total_nodes)) == NULL)
        goto done;
    machine = PyLong_AsLongLong(total_obj);
    if (machine == -1 && PyErr_Occurred())
        goto done;
    if (!PyList_Check(times_list) || !PyList_Check(levels_list)) {
        PyErr_SetString(PyExc_TypeError,
                        "the profile's segments must be lists");
        goto done;
    }
    n = PyList_GET_SIZE(times_list);
    if (n < 1 || PyList_GET_SIZE(levels_list) != n) {
        PyErr_SetString(PyExc_ValueError, "the profile must have segments, "
                                          "as many times as levels");
        goto done;
    }
    if (grow_steps(times, levels, room, (int64_t)n + inserts) < 0)
        goto done;
    for (i = 0; i < n; ++i) {
        item = PyList_GET_ITEM(times_list, i);
        if (PyFloat_Check(item))
            (*times)[i] = PyFloat_AS_DOUBLE(item);
        else if (PyLong_Check(item))
            (*times)[i] = PyLong_AsDouble(item);
        else
            goto bad;
        item = PyList_GET_ITEM(levels_list, i);
        if (!PyLong_Check(item))
            goto bad;
        (*levels)[i] = PyLong_AsLongLong(item);
        if (PyErr_Occurred())
            goto bad;
    }
    *segments = n;
    *total = machine;
    ok = 0;
    goto done;
bad:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "the profile's times must be floats "
                                         "and its levels ints");
done:
    Py_XDECREF(times_list);
    Py_XDECREF(levels_list);
    Py_XDECREF(total_obj);
    return ok;
}

/* How many overrun clamps ``clamps`` names: a tuple of ints that fit 64
 * bits.  -1, with an exception set, otherwise. */
static Py_ssize_t clamp_count(PyObject *clamps)
{
    Py_ssize_t n, i;
    PyObject *item;

    if (!PyTuple_Check(clamps)) {
        PyErr_SetString(PyExc_TypeError,
                        "the overrun clamps must be a tuple of widths");
        return -1;
    }
    n = PyTuple_GET_SIZE(clamps);
    for (i = 0; i < n; ++i) {
        item = PyTuple_GET_ITEM(clamps, i);
        if (!PyLong_Check(item)) {
            PyErr_SetString(PyExc_TypeError,
                            "the overrun clamps must be a tuple of widths");
            return -1;
        }
        if (PyLong_AsLongLong(item) == -1 && PyErr_Occurred())
            return -1;
    }
    return n;
}

/* SchedulingState._clamped_clone's overrun clamps on a profile loaded at
 * their instant: each width of ``clamps`` (checked by clamp_count)
 * reserved from the origin for the overrun epsilon, in order.  The caller
 * guarantees room for one insert per clamp.  On an error ``*width`` is the
 * clamp at fault. */
static int add_clamps(PyObject *clamps, double *times, int64_t *levels,
                      int64_t *segments, int64_t *width)
{
    Py_ssize_t i;
    int code;

    for (i = 0; i < PyTuple_GET_SIZE(clamps); ++i) {
        *width = PyLong_AsLongLong(PyTuple_GET_ITEM(clamps, i));
        code = reserve_from_now(times, levels, segments, *width, 0.0);
        if (code != WALK_OK)
            return code;
    }
    return WALK_OK;
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

/* ``ConservativePlan`` ------------------------------------------------------ */

/* Room for ``need`` planned jobs and for ``need`` references given up in
 * one walk, and walk scratch for ``count`` jobs; -1, with MemoryError set,
 * when out of memory. */
static int plan_room(Plan *p, int64_t need, int64_t count)
{
    int64_t room = 2 * need, scratch = 2 * count + 1;

    if (need > p->room) {
        if (resize((void **)&p->jobs, room, sizeof *p->jobs)
            || resize((void **)&p->dropped, room, sizeof *p->dropped)
            || resize((void **)&p->starts, room, sizeof *p->starts)
            || resize((void **)&p->ends, room, sizeof *p->ends)
            || resize((void **)&p->widths, room, sizeof *p->widths))
            goto no_memory;
        p->room = room;
    }
    /* Started positions and suffix minima (2 * count + 1), suffix least
     * estimates (count + 1). */
    if (scratch > p->scratch) {
        if (resize((void **)&p->ints, 2 * scratch, sizeof *p->ints)
            || resize((void **)&p->floats, 2 * scratch, sizeof *p->floats))
            goto no_memory;
        p->scratch = 2 * scratch;
    }
    return 0;
no_memory:
    PyErr_NoMemory();
    return -1;
}

/* Release the references the walk gave up.  A job's finalizer may run
 * here; the plan is whole and still marked busy. */
static void release_dropped(Plan *p)
{
    PyObject *job;

    while (p->n_dropped > 0) {
        job = p->dropped[--p->n_dropped];
        Py_DECREF(job);
    }
}

static PyObject *plan_in_use(void)
{
    PyErr_SetString(PyExc_RuntimeError,
                    "the conservative plan is in use by another call");
    return NULL;
}

PyDoc_STRVAR(plan_walk_doc,
"walk(queue, nodes, estimates, now, free[, profile, clamps])\n\
--\n\
\n\
One conservative-backfilling decision on the plan, as\n\
``_ReservationPlan.keep_prefix`` and ``_ReservationPlan.place`` make it.\n\
``queue`` is the list of queued jobs in service order and ``nodes``/\n\
``estimates`` its ``array('q')``/``array('d')`` columns; ``free`` nodes\n\
are free at ``now``.  Given ``profile``, the plan is loaded from it (a\n\
copy: ``profile`` is never edited) with one overrun clamp per width in\n\
the tuple ``clamps``, reserved from the origin for one second, and the\n\
whole queue is placed.  Without it the kept plan is brought to ``now``\n\
and cut to its longest common prefix with the queue by identity, the\n\
reservations past the prefix are withdrawn, and the rest of the queue is\n\
placed.  Returns the positions of the jobs that start now.  A walk that\n\
raises leaves the plan empty until the next load.");

static PyObject *plan_walk(PyObject *op, PyObject *const *args,
                           Py_ssize_t nargs)
{
    Plan *p = (Plan *)op;
    Py_buffer nodes, estimates;
    PyObject *queue, *profile = Py_None, *clamps = NULL;
    PyObject *result = NULL;
    PyObject *const *items;
    Py_ssize_t count;
    int64_t free_nodes, keep = 0, n_started = 0, at = -1, width = 0;
    int64_t level, need;
    double now;
    int code;

    if (nargs < 5 || nargs > 7)
        return PyErr_Format(PyExc_TypeError,
                            "walk takes 5 to 7 arguments (%zd given)", nargs);
    if (p->busy)
        return plan_in_use();
    queue = args[0];
    now = PyFloat_AsDouble(args[3]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    free_nodes = PyLong_AsLongLong(args[4]);
    if (free_nodes == -1 && PyErr_Occurred())
        return NULL;
    if (nargs > 5)
        profile = args[5];
    if (nargs > 6) {
        clamps = args[6];
        if (clamp_count(clamps) < 0)
            return NULL;
    }
    if (!PyList_Check(queue) || column(args[1], "q", &nodes))
        goto bad_columns;
    if (column(args[2], "d", &estimates)) {
        PyBuffer_Release(&nodes);
        goto bad_columns;
    }
    count = PyList_GET_SIZE(queue);
    if (nodes.len / 8 != count || estimates.len / 8 != count) {
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        goto bad_columns;
    }
    p->busy = 1;
    if (plan_room(p, p->planned + count, count) < 0)
        goto failed;
    if (profile != Py_None) {
        plan_drop(p, 0);
        p->segments = 0;
        need = 2 * (int64_t)count + (clamps ? PyTuple_GET_SIZE(clamps) : 0);
        if (read_profile(profile, need, &p->times, &p->levels, &p->steps,
                         &p->segments, &p->total) < 0)
            goto failed;
        if (clamps != NULL) {
            code = add_clamps(clamps, p->times, p->levels, &p->segments,
                              &width);
            if (code != WALK_OK)
                goto walk_error;
        }
    } else if (p->segments == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "the conservative plan holds no profile to reuse");
        goto failed;
    } else if (grow_steps(&p->times, &p->levels, &p->steps,
                          p->segments + 2 * (p->planned + count)) < 0) {
        goto failed;
    }
    /* Reading the profile may have run Python code. */
    if (PyList_GET_SIZE(queue) != count) {
        PyErr_SetString(PyExc_ValueError,
                        "the queue changed while the profile was read");
        goto failed;
    }
    items = PySequence_Fast_ITEMS(queue);
    if (profile == Py_None) {
        code = plan_keep_prefix(p, items, count, now, &keep, &at);
        if (code != WALK_OK) {
            width = p->widths[at];
            goto walk_error;
        }
    }
    code = plan_place(p, items, nodes.buf, estimates.buf, keep, count, now,
                      free_nodes, &n_started, &at);
    if (code != WALK_OK) {
        width = ((const int64_t *)nodes.buf)[at];
        goto walk_error;
    }
    result = int_list(p->ints, n_started);
    goto done;
walk_error:
    level = p->levels[0];
    plan_drop(p, 0);
    p->segments = 0;
    PyBuffer_Release(&nodes);
    PyBuffer_Release(&estimates);
    release_dropped(p);
    p->busy = 0;
    return walk_failed(PyType_GetModule(Py_TYPE(op)), code, width, p->total,
                       level);
failed:
    plan_drop(p, 0);
    p->segments = 0;
done:
    PyBuffer_Release(&nodes);
    PyBuffer_Release(&estimates);
    release_dropped(p);
    p->busy = 0;
    return result;
bad_columns:
    PyErr_SetString(PyExc_ValueError,
                    "queue columns must be array('q') and array('d') of the "
                    "queue's length");
    return NULL;
}

static PyObject *plan_get_jobs(PyObject *op, void *closure)
{
    Plan *p = (Plan *)op;
    PyObject *list;
    int64_t k;

    (void)closure;
    if (p->busy)
        return plan_in_use();
    p->busy = 1;
    list = PyList_New(p->planned);
    for (k = 0; list != NULL && k < p->planned; ++k) {
        Py_INCREF(p->jobs[k]);
        PyList_SET_ITEM(list, k, p->jobs[k]);
    }
    p->busy = 0;
    return list;
}

static PyObject *plan_get_starts(PyObject *op, void *closure)
{
    Plan *p = (Plan *)op;
    PyObject *list;

    (void)closure;
    if (p->busy)
        return plan_in_use();
    p->busy = 1;
    list = float_list(p->starts, p->planned);
    p->busy = 0;
    return list;
}

PyDoc_STRVAR(plan_steps_doc,
"steps()\n\
--\n\
\n\
The plan profile as ``(time, free_nodes_from_time)`` pairs, as\n\
``AvailabilityProfile.steps`` gives them (empty while no profile is\n\
loaded).");

static PyObject *plan_steps(PyObject *op, PyObject *unused)
{
    Plan *p = (Plan *)op;
    PyObject *list, *step;
    int64_t i;

    (void)unused;
    if (p->busy)
        return plan_in_use();
    p->busy = 1;
    list = PyList_New(p->segments);
    for (i = 0; list != NULL && i < p->segments; ++i) {
        step = Py_BuildValue("(dL)", p->times[i], (long long)p->levels[i]);
        if (step == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, step);
    }
    p->busy = 0;
    return list;
}

static int plan_traverse(PyObject *op, visitproc visit, void *arg)
{
    Plan *p = (Plan *)op;
    int64_t k;

    Py_VISIT(Py_TYPE(op));
    for (k = 0; k < p->planned; ++k)
        Py_VISIT(p->jobs[k]);
    for (k = 0; k < p->n_dropped; ++k)
        Py_VISIT(p->dropped[k]);
    return 0;
}

static int plan_clear(PyObject *op)
{
    Plan *p = (Plan *)op;

    plan_drop(p, 0);
    p->segments = 0;
    release_dropped(p);
    return 0;
}

static void plan_dealloc(PyObject *op)
{
    Plan *p = (Plan *)op;
    PyTypeObject *type = Py_TYPE(op);

    PyObject_GC_UnTrack(op);
    plan_clear(op);
    PyMem_Free(p->times);
    PyMem_Free(p->levels);
    PyMem_Free(p->jobs);
    PyMem_Free(p->dropped);
    PyMem_Free(p->starts);
    PyMem_Free(p->ends);
    PyMem_Free(p->widths);
    PyMem_Free(p->ints);
    PyMem_Free(p->floats);
    type->tp_free(op);
    Py_DECREF(type);
}

static PyMethodDef plan_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))plan_walk, METH_FASTCALL,
     plan_walk_doc},
    {"steps", plan_steps, METH_NOARGS, plan_steps_doc},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef plan_getset[] = {
    {"jobs", plan_get_jobs, NULL,
     "The planned jobs, in queue order (a new list).", NULL},
    {"starts", plan_get_starts, NULL,
     "The planned jobs' starts, in queue order (a new list).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

PyDoc_STRVAR(plan_doc,
"ConservativePlan()\n\
--\n\
\n\
A conservative-backfilling reservation plan kept between decision\n\
points: the plan profile and the planned jobs with their starts, owned\n\
by the extension.  Empty until a walk loads a profile into it.");

static PyType_Slot plan_slots[] = {
    {Py_tp_doc, (void *)plan_doc},
    {Py_tp_new, PyType_GenericNew},
    {Py_tp_dealloc, plan_dealloc},
    {Py_tp_traverse, plan_traverse},
    {Py_tp_clear, plan_clear},
    {Py_tp_methods, plan_methods},
    {Py_tp_getset, plan_getset},
    {0, NULL},
};

static PyType_Spec plan_spec = {
    "_walk.ConservativePlan",
    sizeof(Plan),
    0,
    Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    plan_slots,
};

/* ``easy_walk`` -------------------------------------------------------------- */

PyDoc_STRVAR(easy_doc,
"easy_walk(profile, clamps, nodes, estimates, head, free, now)\n\
--\n\
\n\
Run the blocked-head phase of ``EasyBackfill.select_indexed`` at ``now``\n\
on a copy of ``profile`` with one overrun clamp per width in the tuple\n\
``clamps``, reserved from the origin for one second: the decision\n\
snapshot.  The queue's ``array('q')``/``array('d')`` columns are read\n\
in place, ``queue[:head]`` started greedily, and ``queue[head]`` does\n\
not fit the ``free`` nodes left.  Return the positions of the\n\
backfilled jobs in the order the Python walk picks them.  ``profile``\n\
is never edited: the walk's reservations die with the decision, as the\n\
Python walk's snapshot does.");

static PyObject *easy_walk(PyObject *module, PyObject *const *args,
                           Py_ssize_t nargs)
{
    Py_buffer nodes, estimates;
    struct scratch own = {0}, *s;
    struct easy_frame frame;
    Py_ssize_t head, count, n_clamps;
    int64_t total, free_nodes, code, width = 0, level, segments;
    double now;
    PyObject *picks;

    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError,
                            "easy_walk takes 7 arguments (%zd given)", nargs);
    n_clamps = clamp_count(args[1]);
    if (n_clamps < 0)
        return NULL;
    head = PyLong_AsSsize_t(args[4]);
    if (head == -1 && PyErr_Occurred())
        return NULL;
    free_nodes = PyLong_AsLongLong(args[5]);
    if (free_nodes == -1 && PyErr_Occurred())
        return NULL;
    now = PyFloat_AsDouble(args[6]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    if (column(args[2], "q", &nodes))
        goto bad_columns;
    if (column(args[3], "d", &estimates)) {
        PyBuffer_Release(&nodes);
        goto bad_columns;
    }
    count = nodes.len / 8;
    if (estimates.len / 8 != count || head < 0 || head >= count) {
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        goto bad_columns;
    }
    /* Room for one insert per clamp and per reservation (the prefix and
     * each pick); a pick per job in the int scratch, a byte per job in the
     * float one. */
    s = lend(&own, count);
    if (s == NULL || read_profile(args[0], n_clamps + count, &s->times,
                                  &s->levels, &s->steps, &segments,
                                  &total) < 0) {
        if (s != NULL)
            give_back(s);
        PyBuffer_Release(&nodes);
        PyBuffer_Release(&estimates);
        return NULL;
    }
    frame.at = -1;
    code = add_clamps(args[1], s->times, s->levels, &segments, &width);
    if (code == WALK_OK) {
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
    }
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
    {"easy_walk", (PyCFunction)(void (*)(void))easy_walk, METH_FASTCALL,
     easy_doc},
    {NULL, NULL, 0, NULL},
};

static int walk_exec(PyObject *module)
{
    PyObject *plan_type;

    if (str_walk_error == NULL) {
        /* The first module object from this library. */
        str_times = PyUnicode_InternFromString("_times");
        str_free = PyUnicode_InternFromString("_free");
        str_total_nodes = PyUnicode_InternFromString("total_nodes");
        str_walk_error = PyUnicode_InternFromString("walk_error");
        if (!str_times || !str_free || !str_total_nodes || !str_walk_error) {
            Py_CLEAR(str_times);
            Py_CLEAR(str_free);
            Py_CLEAR(str_total_nodes);
            Py_CLEAR(str_walk_error);
            return -1;
        }
    }
    plan_type = PyType_FromModuleAndSpec(module, &plan_spec, NULL);
    if (plan_type == NULL)
        return -1;
    if (PyModule_AddObject(module, "ConservativePlan", plan_type) < 0) {
        Py_DECREF(plan_type);
        return -1;
    }
    return 0;
}

static PyModuleDef_Slot walk_slots[] = {
    {Py_mod_exec, walk_exec},
#ifdef Py_mod_multiple_interpreters
    /* EASY's kept scratch is one per process: one GIL must guard it. */
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
