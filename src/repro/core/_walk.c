/* The conservative-backfilling queue walk, compiled.
 *
 * A line-for-line port of ``_ReservationPlan.place`` in
 * ``repro/schedulers/disciplines.py`` and of the profile queries it calls
 * (``AvailabilityProfile.fits_at_origin``, ``allocate`` and ``_first_fit``
 * in ``repro/core/profile.py``).  The Python walk is the reference: every
 * comparison and every float addition below is the one Python performs, in
 * the same order, so the started jobs, the planned starts and the profile
 * left behind are the same bits.  Build with ``-ffp-contract=off`` and
 * without fast-math; ``repro.core.native`` does.
 *
 * Plain C99, no Python headers: the loader calls it through ctypes on
 * buffers it owns.  Every loop is bounded by the segment count or the
 * queue length, and the walk never writes past ``capacity``.
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
/* Sentinel wider than any machine: the suffix minimum past the queue. */
#define NO_JOB ((int64_t)1 << 60)

/* Return codes; ``out[3]`` names the tail position of the failing job. */
#define WALK_OK 0
#define WALK_WIDER_THAN_MACHINE (-1)
#define WALK_PROFILE_TOO_LOW (-2)
#define WALK_NO_ROOM (-3)

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

/* AvailabilityProfile.allocate(nodes, duration) with ``after=None``: the
 * fused first fit and reservation.  The caller guarantees room for two
 * inserts.  Returns 0 and the start in ``*start``, or WALK_PROFILE_TOO_LOW
 * when no segment is wide enough (impossible on a well-formed profile,
 * whose last level is the whole machine). */
static int allocate(double *times, int64_t *levels, int64_t *segments,
                    int64_t nodes, double duration, double *start)
{
    int64_t n = *segments;
    double start_at = times[0];
    double candidate, end;
    int64_t lo = 0, hi, i;

    /* _first_fit from the origin segment. */
    for (;;) {
        while (levels[lo] < nodes) {
            if (++lo == n)
                return WALK_PROFILE_TOO_LOW;
        }
        candidate = times[lo] > start_at ? times[lo] : start_at;
        end = candidate + duration;
        for (hi = lo + 1; hi < n; ++hi) {
            if (times[hi] >= end || levels[hi] < nodes)
                break;
        }
        if (hi == n || times[hi] >= end)
            break;
        lo = hi;
    }

    *start = candidate;
    if (end == candidate) {
        /* A duration the float sum absorbs reserves nothing; reserve()
         * leaves the start breakpoint behind (_ensure_breakpoint). */
        if (times[lo] != candidate)
            insert(times, levels, segments, lo + 1, candidate, levels[lo]);
        return WALK_OK;
    }
    /* Split the far edge first, so ``lo`` still names the start segment. */
    if (hi == n || times[hi] != end)
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
