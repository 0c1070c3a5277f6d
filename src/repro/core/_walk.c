/* The two backfilling queue walks, compiled.
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
 * Plain C99, no Python headers: the loader calls it through ctypes on
 * buffers it owns.  Every loop is bounded by the segment count or the
 * queue length, capacity is checked before the first insert, and a walk
 * never reads or writes past a buffer, even on a malformed profile.
 */

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
 * conservative walk in ``out[3]``, the EASY walk in ``io[IO_AT]``). */
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
int64_t repro_conservative_walk(double *times, int64_t *levels,
                                int64_t segments, int64_t capacity,
                                int64_t total_nodes, const int64_t *nodes,
                                const double *estimates, int64_t count,
                                double now, int64_t free_nodes, int64_t *ints,
                                double *floats, int64_t *out)
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

/* Slots of ``io``, the frame of repro_easy_walk: pointers travel as
 * integers, so one call passes the whole walk. */
#define IO_TIMES 0     /* in: address of the profile's times */
#define IO_LEVELS 1    /* in: address of the profile's levels */
#define IO_CAPACITY 2  /* in: room in times/levels */
#define IO_ROOM 3      /* in: jobs ``io`` has picks and scratch for */
#define IO_NODES 4     /* in: address of the queue's widths */
#define IO_ESTIMATES 5 /* in: address of the queue's estimates */
#define IO_COUNT 6     /* in: queue length */
#define IO_TOTAL 7     /* in: machine size */
#define IO_HEAD 8      /* in: the blocked head's position (= started prefix) */
#define IO_FREE 9      /* in: free nodes after the started prefix */
#define IO_SEGMENTS 10 /* in and out: segments of the profile */
#define IO_PICKS 11    /* out: jobs backfilled */
#define IO_AT 12       /* out: on an error, the position of the job at fault */
#define IO_HEADER 13

/* EasyBackfill.select_indexed once the head blocks, over the whole queue
 * (``io[IO_COUNT]`` jobs) at the decision instant ``now``.
 * ``queue[0 .. head)`` started greedily and ``queue[head]`` does not fit
 * the free nodes.
 *
 * The times/levels buffers hold the snapshot's ``io[IO_SEGMENTS]`` steps
 * with room for ``io[IO_CAPACITY]``; after its IO_HEADER slots ``io`` has
 * room for ``io[IO_ROOM]`` picks and as many bytes of scratch.  The walk
 * reserves the started prefix from the origin, then backfills the first
 * job that fits the free nodes and either ends by the head's shadow time
 * or needs no more than the extra nodes, reserves it and recomputes both,
 * until no job qualifies or only the head is left.  On return
 * ``io[IO_SEGMENTS]`` is the profile's segment count and the backfilled
 * positions are ``io[IO_HEADER .. IO_HEADER + io[IO_PICKS])``, in the
 * order they were picked. */
int64_t repro_easy_walk(int64_t *io, double now)
{
    double *times = (double *)(intptr_t)io[IO_TIMES];
    int64_t *levels = (int64_t *)(intptr_t)io[IO_LEVELS];
    const int64_t *nodes = (const int64_t *)(intptr_t)io[IO_NODES];
    const double *estimates = (const double *)(intptr_t)io[IO_ESTIMATES];
    int64_t segments = io[IO_SEGMENTS];
    int64_t count = io[IO_COUNT];
    int64_t head = io[IO_HEAD];
    int64_t free_nodes = io[IO_FREE];
    int64_t *picks = io + IO_HEADER;
    unsigned char *taken;
    int64_t i, from, width, head_nodes, extra, last_extra, remaining;
    int64_t n_picks = 0;
    double head_estimate, shadow, last_shadow;
    int code = WALK_OK;

    io[IO_PICKS] = 0;
    io[IO_AT] = -1;
    /* One insert per reservation: the prefix and every pick, fewer than
     * ``count`` in all. */
    if (segments < 1 || segments > io[IO_CAPACITY] || head < 0
        || head >= count || count > io[IO_ROOM]
        || io[IO_CAPACITY] - segments < count)
        return WALK_NO_ROOM;
    remaining = count - head;
    if (remaining == 1)
        return WALK_OK; /* only the head is left: nothing to backfill */
    taken = (unsigned char *)(picks + io[IO_ROOM]);
    memset(taken, 0, (size_t)count);

    for (i = 0; i < head; ++i) {
        code = reserve_from_now(times, levels, &segments, nodes[i], estimates[i]);
        if (code != WALK_OK)
            goto fail;
    }
    head_nodes = nodes[head];
    head_estimate = estimates[head];
    i = head;
    if (head_nodes > io[IO_TOTAL]) {
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
    io[IO_SEGMENTS] = segments;
    io[IO_PICKS] = n_picks;
    return WALK_OK;
fail:
    io[IO_SEGMENTS] = segments;
    io[IO_PICKS] = n_picks;
    io[IO_AT] = i;
    return code;
}
