/* Compiled SABRE routing kernel.
 *
 * One C pass over the whole SABRE swap loop: executable-gate sweeps, front
 * and extended-set upkeep, exact delta scoring against maintained base
 * sums, the reference tie-break scan and the swap application.  The caller
 * hands over per-topology tables (distance matrix, adjacency mask,
 * lexicographic edge list, per-qubit incidence CSR) and per-circuit tables
 * (gate endpoints, dependence-DAG CSR, indegrees).
 *
 * A swap iteration costs what the swap touched, not the size of the front
 * or of the extended set:
 *
 * - the front is kept in ascending gate order: a sweep pass keeps the gates
 *   it did not execute in place and merges in the successors it readied
 *   (usually 0-2, insertion-sorted), and the front rebuild reads the
 *   two-qubit gates straight off it;
 * - candidate SWAPs are set in a bitset over edge ids and read back word
 *   by word, so they come out in ascending edge id without a sort;
 * - a candidate's front delta is O(1): front gates are vertex-disjoint, so
 *   each site holds at most one front endpoint;
 * - each site keeps the list of extended-set endpoint slots on it, so a
 *   candidate's extended-set delta sums only the gates with an endpoint on
 *   its two sites.  The lists are rebuilt lazily, after a swap that moved
 *   an endpoint.
 *
 * Bit-identical to the reference loop ``SabreMapper._route_reference`` by
 * construction:
 *
 * - gates are executed in the same ascending-front sweep order, candidate
 *   SWAPs are scored in the same ascending-edge-id order, and the
 *   tie-break is the literal reference scan (running best, 1e-12 window);
 * - every distance is an integer-valued float64, so every sum and delta is
 *   exact regardless of summation order (``base + delta`` equals the
 *   reference's in-order sum over the swapped layout exactly), and the
 *   score is composed with the same IEEE-754 double operations in the same
 *   order as the reference's expressions;
 * - the tie-break RNG reproduces CPython's ``random.Random`` exactly: the
 *   MT19937 generator below is the one from CPython's ``_randommodule.c``,
 *   ``getrandbits``/``_randbelow``/``choice`` consume 32-bit words the way
 *   the stdlib does, and the caller imports/exports the ``Random`` state
 *   around the call, so Python-side RNG use before and after a routing
 *   pass sees exactly the stream it would have seen with the reference
 *   loop.
 *
 * The kernel returns the routing decisions as an *event stream* of int32
 * triples ``(code, p0, p1)`` in execution order: ``code >= 0`` executes gate
 * ``code`` on physical sites ``p0``/``p1`` (``p1 == -1`` for a one-qubit
 * gate), and ``code == -1`` is a SWAP of the coupled sites ``p0 < p1``.  The
 * Python wrapper replays it through ``MappingBuilder.layer``, so emitted ops
 * are stamped and checked by the same code as every other mapper's.
 *
 * Every POLL_ITERS swap iterations the kernel runs the main thread's
 * signal handlers (``PyErr_CheckSignals``, so Ctrl-C works) and then calls
 * the ``poll`` callable the caller passed (the cell budget's check).  An
 * exception either raises ends the pass through the cleanup path.  The
 * kernel keeps no clock of its own.
 *
 * No numpy C API: inputs arrive through the buffer protocol as
 * C-contiguous arrays of fixed dtypes (lengths validated here; the Python
 * wrapper owns the dtype discipline).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* MT19937, exactly as in CPython's Modules/_randommodule.c            */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfUL
#define MT_UPPER_MASK 0x80000000UL
#define MT_LOWER_MASK 0x7fffffffUL

typedef struct {
    uint32_t *mt;   /* borrowed: the caller's 625-word state buffer */
    uint32_t index; /* stored back into mt[624] on exit */
} mt_state;

static uint32_t
mt_genrand(mt_state *st)
{
    uint32_t y;
    static const uint32_t mag01[2] = {0x0UL, MT_MATRIX_A};
    uint32_t *mt = st->mt;

    if (st->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1UL];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1UL];
        }
        y = (mt[MT_N - 1] & MT_UPPER_MASK) | (mt[0] & MT_LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1UL];
        st->index = 0;
    }

    y = mt[st->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680UL;
    y ^= (y << 15) & 0xefc60000UL;
    y ^= (y >> 18);
    return y;
}

/* random.getrandbits(k) for 0 < k <= 32 (the only range choice() needs). */
static uint32_t
mt_getrandbits(mt_state *st, uint32_t k)
{
    return mt_genrand(st) >> (32 - k);
}

/* random.Random._randbelow_with_getrandbits(n), n >= 1: draw k = n.bit_length()
 * bits, redrawing while the value lands at or above n.  choice(seq) is
 * seq[_randbelow(len(seq))] -- note CPython consumes words even for a
 * single-element sequence, which is why the kernel must run this dance for
 * every iteration, tie or no tie. */
static uint32_t
mt_randbelow(mt_state *st, uint32_t n)
{
    uint32_t k = 0, m = n, r;
    while (m) {
        k++;
        m >>= 1;
    }
    r = mt_getrandbits(st, k);
    while (r >= n)
        r = mt_getrandbits(st, k);
    return r;
}

/* ------------------------------------------------------------------ */
/* Helpers                                                             */
/* ------------------------------------------------------------------ */

/* Swap iterations between two polls (signal handlers, then the caller's
 * ``poll``), so a budget or Ctrl-C stops a long pass within milliseconds. */
#define POLL_ITERS 1024

/* Index of the lowest set bit of a nonzero word. */
static int
lowest_bit(uint64_t w)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(w);
#else
    int k = 0;
    while (!(w & 1)) {
        w >>= 1;
        k++;
    }
    return k;
#endif
}

/* dist(after) - dist(before) of extended-set gate j when the swap (ca, cb)
 * relabels its endpoints; exact, since every distance is integer-valued. */
static double
ext_move(const double *dist, int N, const int32_t *ext_pos, int32_t n_ext,
         int32_t j, int32_t ca, int32_t cb)
{
    int32_t a = ext_pos[j], b = ext_pos[j + n_ext];
    int32_t a2 = a == ca ? cb : a == cb ? ca : a;
    int32_t b2 = b == ca ? cb : b == cb ? ca : b;
    return dist[(size_t)a2 * N + b2] - dist[(size_t)a * N + b];
}

typedef struct {
    int32_t *data; /* (code, p0, p1) triples */
    Py_ssize_t len;
    Py_ssize_t cap;
} event_buf;

static int
events_push(event_buf *ev, int32_t code, int32_t p0, int32_t p1)
{
    if (ev->len + 3 > ev->cap) {
        Py_ssize_t cap = ev->cap ? ev->cap * 2 : 3 * 4096;
        int32_t *data =
            (int32_t *)realloc(ev->data, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        ev->data = data;
        ev->cap = cap;
    }
    ev->data[ev->len++] = code;
    ev->data[ev->len++] = p0;
    ev->data[ev->len++] = p1;
    return 0;
}

static int
check_len(const Py_buffer *buf, Py_ssize_t expect_bytes, const char *name)
{
    if (buf->len != expect_bytes) {
        PyErr_Format(PyExc_ValueError,
                     "_sabre_kernel.route: buffer %s has %zd bytes, "
                     "expected %zd",
                     name, buf->len, expect_bytes);
        return -1;
    }
    return 0;
}

#define ALLOC(var, type, count)                                             \
    do {                                                                    \
        var = (type *)malloc(sizeof(type) * (size_t)((count) > 0 ? (count) : 1)); \
        if (var == NULL) {                                                  \
            PyErr_NoMemory();                                               \
            goto cleanup;                                                   \
        }                                                                   \
    } while (0)

#define CALLOC(var, type, count)                                            \
    do {                                                                    \
        var = (type *)calloc((size_t)((count) > 0 ? (count) : 1), sizeof(type)); \
        if (var == NULL) {                                                  \
            PyErr_NoMemory();                                               \
            goto cleanup;                                                   \
        }                                                                   \
    } while (0)

/* ------------------------------------------------------------------ */
/* route(): the whole routing pass                                     */
/* ------------------------------------------------------------------ */

static PyObject *
route(PyObject *self, PyObject *args)
{
    /* scalars */
    int N, n_log, n_gates, num_edges, ext_size, decay_reset, want_events;
    double ext_weight, decay_delta;
    /* buffers */
    Py_buffer b_state = {0}, b_dist = {0}, b_adj = {0}, b_eu = {0}, b_ev = {0};
    Py_buffer b_inc_off = {0}, b_inc_eid = {0}, b_gq0 = {0}, b_gq1 = {0};
    Py_buffer b_is2q = {0}, b_succ_off = {0}, b_succ = {0}, b_indeg = {0};
    Py_buffer b_layout = {0};
    PyObject *poll;

    PyObject *result = NULL;
    event_buf events = {NULL, 0, 0};

    (void)self;

    /* working storage */
    int32_t *indeg = NULL, *front = NULL, *ready = NULL, *front_2q = NULL;
    int32_t *frontier = NULL, *next_frontier = NULL, *seen_stamp = NULL;
    int32_t *ext_gates = NULL, *eids = NULL, *best = NULL, *pos_other = NULL;
    int32_t *ext_pos = NULL, *ext_head = NULL, *ext_next = NULL;
    int64_t *ltp = NULL, *ptl = NULL;
    uint64_t *cand_bits = NULL;
    uint8_t *pos_in_front = NULL;
    double *decay = NULL;

    if (!PyArg_ParseTuple(
            args, "w*iiiiy*y*y*y*y*y*y*y*y*y*y*y*w*iddipO",
            &b_state, &N, &n_log, &n_gates, &num_edges, &b_dist, &b_adj,
            &b_eu, &b_ev, &b_inc_off, &b_inc_eid, &b_gq0, &b_gq1, &b_is2q,
            &b_succ_off, &b_succ, &b_indeg, &b_layout, &ext_size,
            &ext_weight, &decay_delta, &decay_reset, &want_events, &poll))
        return NULL;

    {
        const double *dist = (const double *)b_dist.buf;
        const uint8_t *adj = (const uint8_t *)b_adj.buf;
        const int32_t *eu = (const int32_t *)b_eu.buf;
        const int32_t *ev = (const int32_t *)b_ev.buf;
        const int32_t *inc_off = (const int32_t *)b_inc_off.buf;
        const int32_t *inc_eid = (const int32_t *)b_inc_eid.buf;
        const int32_t *gq0 = (const int32_t *)b_gq0.buf;
        const int32_t *gq1 = (const int32_t *)b_gq1.buf;
        const uint8_t *is2q = (const uint8_t *)b_is2q.buf;
        const int32_t *succ_off = (const int32_t *)b_succ_off.buf;
        const int32_t *succ = (const int32_t *)b_succ.buf;
        const int32_t *indeg_in = (const int32_t *)b_indeg.buf;
        int64_t *layout = (int64_t *)b_layout.buf;
        mt_state rng;

        int32_t front_n = 0, n_front = 0, n_ext = 0, n_cand = 0;
        int32_t ext_pos_n = 0; /* live ext_head entries (2 * previous n_ext) */
        int32_t seen_gen = 0;
        double base_front = 0.0, base_ext = 0.0;
        int front_dirty = 1, cand_dirty = 1, ext_stale = 0, need_sweep = 1;
        int swaps_since_reset = 0;
        int64_t guard = 0, n_iterations = 0, n_rebuilds = 0, cand_total = 0;
        int64_t max_iterations = 50 * ((int64_t)n_gates + 1) + 10000;
        int32_t i;

        if (check_len(&b_state, 625 * (Py_ssize_t)sizeof(uint32_t), "state") ||
            check_len(&b_dist, (Py_ssize_t)N * N * (Py_ssize_t)sizeof(double), "dist") ||
            check_len(&b_adj, (Py_ssize_t)N * N, "adj") ||
            check_len(&b_eu, (Py_ssize_t)num_edges * (Py_ssize_t)sizeof(int32_t), "eu") ||
            check_len(&b_ev, (Py_ssize_t)num_edges * (Py_ssize_t)sizeof(int32_t), "ev") ||
            check_len(&b_inc_off, ((Py_ssize_t)N + 1) * (Py_ssize_t)sizeof(int32_t), "inc_off") ||
            check_len(&b_inc_eid, 2 * (Py_ssize_t)num_edges * (Py_ssize_t)sizeof(int32_t), "inc_eid") ||
            check_len(&b_gq0, (Py_ssize_t)n_gates * (Py_ssize_t)sizeof(int32_t), "gq0") ||
            check_len(&b_gq1, (Py_ssize_t)n_gates * (Py_ssize_t)sizeof(int32_t), "gq1") ||
            check_len(&b_is2q, (Py_ssize_t)n_gates, "is2q") ||
            check_len(&b_succ_off, ((Py_ssize_t)n_gates + 1) * (Py_ssize_t)sizeof(int32_t), "succ_off") ||
            check_len(&b_indeg, (Py_ssize_t)n_gates * (Py_ssize_t)sizeof(int32_t), "indeg") ||
            check_len(&b_layout, (Py_ssize_t)n_log * (Py_ssize_t)sizeof(int64_t), "layout"))
            goto cleanup;
        if (n_gates > 0 &&
            check_len(&b_succ, (Py_ssize_t)succ_off[n_gates] * (Py_ssize_t)sizeof(int32_t), "succ"))
            goto cleanup;

        rng.mt = (uint32_t *)b_state.buf;
        rng.index = rng.mt[624];

        ALLOC(indeg, int32_t, n_gates);
        ALLOC(front, int32_t, n_gates);
        ALLOC(ready, int32_t, n_gates);
        ALLOC(front_2q, int32_t, n_gates);
        ALLOC(frontier, int32_t, n_gates);
        ALLOC(next_frontier, int32_t, n_gates);
        CALLOC(seen_stamp, int32_t, n_gates);
        ALLOC(ext_gates, int32_t, ext_size);
        CALLOC(cand_bits, uint64_t, ((Py_ssize_t)num_edges + 63) / 64);
        ALLOC(eids, int32_t, num_edges);
        ALLOC(best, int32_t, num_edges);
        ALLOC(pos_other, int32_t, N);
        CALLOC(pos_in_front, uint8_t, N);
        ALLOC(ext_pos, int32_t, 2 * (Py_ssize_t)ext_size);
        ALLOC(ext_next, int32_t, 2 * (Py_ssize_t)ext_size);
        ALLOC(ext_head, int32_t, N);
        ALLOC(ltp, int64_t, n_log);
        ALLOC(ptl, int64_t, N);
        ALLOC(decay, double, N);

        memcpy(indeg, indeg_in, sizeof(int32_t) * (size_t)n_gates);
        for (i = 0; i < N; i++) {
            ptl[i] = -1;
            decay[i] = 1.0;
            ext_head[i] = -1;
        }
        for (i = 0; i < n_log; i++) {
            ltp[i] = layout[i];
            ptl[layout[i]] = i;
        }
        /* the front is kept in ascending gate order from here on */
        for (i = 0; i < n_gates; i++)
            if (indeg[i] == 0)
                front[front_n++] = i;

        /* Main routing loop (SabreMapper._route_reference's order) ----- */
        while (front_n > 0) {
            guard++;
            if (guard > max_iterations) {
                PyErr_SetString(PyExc_RuntimeError,
                                "SABRE routing did not converge");
                goto cleanup;
            }

            if (need_sweep) {
                /* Execute everything executable, in ascending-front sweeps.
                 * The layout cannot change mid-sweep (no logical SWAPs in
                 * the compiled path), so a pass decides every gate against
                 * the layout it started with, as the reference loop's
                 * per-gate checks do, and the successors it readies wait
                 * for the next pass, as they wait for the reference's next
                 * sorted snapshot of the front.  A pass keeps the blocked
                 * gates in place (still ascending) and merges the newly
                 * ready ones in behind them. */
                for (;;) {
                    int32_t k, j, keep = 0, new_n = 0;
                    for (k = 0; k < front_n; k++) {
                        int32_t g = front[k], e;
                        int64_t p0 = ltp[gq0[g]], p1 = ltp[gq1[g]];
                        if (is2q[g] && !adj[(size_t)p0 * N + p1]) {
                            front[keep++] = g;
                            continue;
                        }
                        if (want_events &&
                            events_push(&events, g, (int32_t)p0,
                                        is2q[g] ? (int32_t)p1 : -1) < 0) {
                            PyErr_NoMemory();
                            goto cleanup;
                        }
                        for (e = succ_off[g]; e < succ_off[g + 1]; e++) {
                            int32_t s = succ[e];
                            if (--indeg[s] == 0)
                                ready[new_n++] = s;
                        }
                    }
                    if (keep == front_n)
                        break; /* nothing executed: the front is unchanged */
                    /* usually 0-2 newly ready gates: insertion-sort them,
                     * then merge from the back into the kept ones */
                    for (k = 1; k < new_n; k++) {
                        int32_t g = ready[k];
                        for (j = k; j > 0 && ready[j - 1] > g; j--)
                            ready[j] = ready[j - 1];
                        ready[j] = g;
                    }
                    front_n = keep + new_n;
                    k = front_n;
                    j = keep;
                    while (new_n > 0) {
                        if (j > 0 && front[j - 1] > ready[new_n - 1])
                            front[--k] = front[--j];
                        else
                            front[--k] = ready[--new_n];
                    }
                    front_dirty = 1;
                }
                if (front_n == 0)
                    break;
            }

            if (front_dirty) {
                int32_t k, fn = 0;
                for (k = 0; k < front_n; k++)
                    if (is2q[front[k]])
                        front_2q[fn++] = front[k];
                if (fn == 0) {
                    /* only blocked single-qubit gates cannot happen (they
                     * are always executable); defensive guard */
                    PyErr_SetString(
                        PyExc_RuntimeError,
                        "SABRE front layer contains no 2-qubit gate");
                    goto cleanup;
                }
                n_front = fn;
                n_rebuilds++;

                /* extended set: BFS over DAG successors, collecting up to
                 * ext_size two-qubit gates (mirrors _extended_set_of). */
                {
                    int32_t out_n = 0, fr_n = 0, nx_n;
                    seen_gen++;
                    for (k = 0; k < fn; k++) {
                        frontier[fr_n++] = front_2q[k];
                        seen_stamp[front_2q[k]] = seen_gen;
                    }
                    while (fr_n > 0 && out_n < ext_size) {
                        nx_n = 0;
                        for (k = 0; k < fr_n; k++) {
                            int32_t g = frontier[k], e;
                            for (e = succ_off[g]; e < succ_off[g + 1]; e++) {
                                int32_t s = succ[e];
                                if (seen_stamp[s] == seen_gen)
                                    continue;
                                seen_stamp[s] = seen_gen;
                                if (is2q[s]) {
                                    ext_gates[out_n++] = s;
                                    if (out_n >= ext_size)
                                        break;
                                }
                                next_frontier[nx_n++] = s;
                            }
                            if (out_n >= ext_size)
                                break;
                        }
                        memcpy(frontier, next_frontier,
                               sizeof(int32_t) * (size_t)nx_n);
                        fr_n = nx_n;
                    }
                    n_ext = out_n;
                }

                /* base front sum + per-position tables (front gates are
                 * vertex-disjoint: at most one endpoint per position). */
                base_front = 0.0;
                memset(pos_in_front, 0, (size_t)N);
                for (k = 0; k < fn; k++) {
                    int64_t fa = ltp[gq0[front_2q[k]]];
                    int64_t fb = ltp[gq1[front_2q[k]]];
                    base_front += dist[(size_t)fa * N + fb];
                    pos_in_front[fa] = 1;
                    pos_in_front[fb] = 1;
                    pos_other[fa] = (int32_t)fb;
                    pos_other[fb] = (int32_t)fa;
                }
                if (n_ext > 0) {
                    ext_stale = 1;
                } else {
                    for (k = 0; k < ext_pos_n; k++)
                        ext_head[ext_pos[k]] = -1;
                    ext_pos_n = 0;
                    base_ext = 0.0;
                    ext_stale = 0;
                }
                cand_dirty = 1;
                front_dirty = 0;
            }

            if (cand_dirty) {
                /* candidate SWAPs = unique edges incident to a front-gate
                 * position, in ascending edge id (== lexicographic (a, b)):
                 * set their bits, then read the touched words back in
                 * order, clearing them for the next recompute.  Each
                 * incidence list ascends, so its ends bound the words. */
                int32_t k, e, w, lo = INT32_MAX, hi = -1;
                n_cand = 0;
                for (k = 0; k < n_front; k++) {
                    int64_t ps[2];
                    int s;
                    ps[0] = ltp[gq0[front_2q[k]]];
                    ps[1] = ltp[gq1[front_2q[k]]];
                    for (s = 0; s < 2; s++) {
                        int32_t e0 = inc_off[ps[s]], e1 = inc_off[ps[s] + 1];
                        if (e0 == e1)
                            continue;
                        if (inc_eid[e0] >> 6 < lo)
                            lo = inc_eid[e0] >> 6;
                        if (inc_eid[e1 - 1] >> 6 > hi)
                            hi = inc_eid[e1 - 1] >> 6;
                        for (e = e0; e < e1; e++)
                            cand_bits[inc_eid[e] >> 6] |=
                                (uint64_t)1 << (inc_eid[e] & 63);
                    }
                }
                for (w = lo; w <= hi; w++) {
                    uint64_t word = cand_bits[w];
                    cand_bits[w] = 0;
                    while (word) {
                        eids[n_cand++] = w * 64 + lowest_bit(word);
                        word &= word - 1;
                    }
                }
                cand_dirty = 0;
            }

            if (ext_stale) {
                /* lazy rebuild of the per-site extended-set lists: slot k
                 * is gate k's first endpoint and slot k + n_ext its second;
                 * ext_head[p] starts site p's list, ext_next chains it */
                int32_t k;
                for (k = 0; k < ext_pos_n; k++)
                    ext_head[ext_pos[k]] = -1;
                base_ext = 0.0;
                for (k = 0; k < n_ext; k++) {
                    int32_t a = (int32_t)ltp[gq0[ext_gates[k]]];
                    int32_t b = (int32_t)ltp[gq1[ext_gates[k]]];
                    ext_pos[k] = a;
                    ext_pos[k + n_ext] = b;
                    base_ext += dist[(size_t)a * N + b];
                }
                ext_pos_n = 2 * n_ext;
                for (k = 0; k < ext_pos_n; k++) {
                    ext_next[k] = ext_head[ext_pos[k]];
                    ext_head[ext_pos[k]] = k;
                }
                ext_stale = 0;
            }

            n_iterations++;
            cand_total += n_cand;
            if (n_iterations % POLL_ITERS == 0) {
                PyObject *polled;
                if (PyErr_CheckSignals() < 0)
                    goto cleanup;
                polled = PyObject_CallNoArgs(poll);
                if (polled == NULL)
                    goto cleanup;
                Py_DECREF(polled);
            }

            /* Score every candidate and tie-break exactly like the
             * reference loop (ascending edge id, running best, 1e-12
             * window), then draw with CPython's choice(). */
            {
                double best_score = 0.0;
                int have_best = 0;
                int32_t best_n = 0, k;
                int32_t pa, pb;
                double inv_front = (double)(n_front > 1 ? n_front : 1);

                for (k = 0; k < n_cand; k++) {
                    int32_t eid = eids[k];
                    int32_t ca = eu[eid], cb = ev[eid], s;
                    double fdel = 0.0, edel = 0.0, s_front, s_ext, dmax, score;
                    if (pos_in_front[ca]) {
                        int32_t o = pos_other[ca];
                        if (o != cb)
                            fdel += dist[(size_t)cb * N + o] -
                                    dist[(size_t)ca * N + o];
                    }
                    if (pos_in_front[cb]) {
                        int32_t o = pos_other[cb];
                        if (o != ca)
                            fdel += dist[(size_t)ca * N + o] -
                                    dist[(size_t)cb * N + o];
                    }
                    /* extended-set delta: only the gates with an endpoint
                     * on ca or cb move; a gate on both lists counts once */
                    for (s = ext_head[ca]; s >= 0; s = ext_next[s])
                        edel += ext_move(dist, N, ext_pos, n_ext,
                                         s < n_ext ? s : s - n_ext, ca, cb);
                    for (s = ext_head[cb]; s >= 0; s = ext_next[s]) {
                        int32_t j = s < n_ext ? s : s - n_ext;
                        if (ext_pos[j] != ca && ext_pos[j + n_ext] != ca)
                            edel += ext_move(dist, N, ext_pos, n_ext, j, ca, cb);
                    }
                    s_front = (base_front + fdel) / inv_front;
                    if (n_ext > 0)
                        s_ext = ext_weight * (base_ext + edel) / (double)n_ext;
                    else
                        s_ext = 0.0;
                    dmax = decay[ca] > decay[cb] ? decay[ca] : decay[cb];
                    score = dmax * (s_front + s_ext);

                    if (!have_best || score < best_score - 1e-12) {
                        have_best = 1;
                        best_score = score;
                        best[0] = eid;
                        best_n = 1;
                    }
                    else if (fabs(score - best_score) <= 1e-12) {
                        best[best_n++] = eid;
                    }
                }
                if (best_n == 0) {
                    /* no candidates: disconnected or edgeless topology with
                     * a blocked 2q gate -- the reference loop would raise an
                     * IndexError out of rng.choice([]); fail typed here */
                    PyErr_SetString(PyExc_RuntimeError,
                                    "SABRE found no candidate SWAPs");
                    goto cleanup;
                }

                {
                    int32_t eid = best[mt_randbelow(&rng, (uint32_t)best_n)];
                    int64_t la, lb;
                    int in_a, in_b;
                    pa = eu[eid];
                    pb = ev[eid];
                    if (want_events && events_push(&events, -1, pa, pb) < 0) {
                        PyErr_NoMemory();
                        goto cleanup;
                    }

                    /* apply the swap to the layout tables */
                    la = ptl[pa];
                    lb = ptl[pb];
                    if (la >= 0)
                        ltp[la] = pb;
                    if (lb >= 0)
                        ltp[lb] = pa;
                    ptl[pb] = la;
                    ptl[pa] = lb;

                    need_sweep = 0;

                    /* a swap that moved an extended-set endpoint marks the
                     * per-site lists stale for a lazy rebuild */
                    if (ext_head[pa] >= 0 || ext_head[pb] >= 0)
                        ext_stale = 1;

                    /* front-position maintenance: O(1) base-sum updates for
                     * the (at most two) front gates the swap moved */
                    in_a = pos_in_front[pa];
                    in_b = pos_in_front[pb];
                    if (in_a != in_b)
                        cand_dirty = 1; /* the set of front positions changed */
                    if (in_a || in_b) {
                        int32_t oa = in_a ? pos_other[pa] : -1;
                        int32_t ob = in_b ? pos_other[pb] : -1;
                        pos_in_front[pa] = (uint8_t)in_b;
                        pos_in_front[pb] = (uint8_t)in_a;
                        if (in_a && oa != pb) {
                            base_front += dist[(size_t)pb * N + oa] -
                                          dist[(size_t)pa * N + oa];
                            pos_other[pb] = oa;
                            pos_other[oa] = pb;
                            if (adj[(size_t)pb * N + oa])
                                need_sweep = 1;
                        }
                        if (in_b && ob != pa) {
                            base_front += dist[(size_t)pa * N + ob] -
                                          dist[(size_t)pb * N + ob];
                            pos_other[pa] = ob;
                            pos_other[ob] = pa;
                            if (adj[(size_t)pa * N + ob])
                                need_sweep = 1;
                        }
                    }

                    swaps_since_reset++;
                    decay[pa] += decay_delta;
                    decay[pb] += decay_delta;
                    if (swaps_since_reset >= decay_reset) {
                        for (i = 0; i < N; i++)
                            decay[i] = 1.0;
                        swaps_since_reset = 0;
                    }
                }
            }
        }

        /* write results back ------------------------------------------ */
        rng.mt[624] = rng.index;
        for (i = 0; i < n_log; i++)
            layout[i] = ltp[i];

        {
            PyObject *ev_obj;
            if (want_events)
                ev_obj = PyBytes_FromStringAndSize(
                    (const char *)events.data,
                    events.len * (Py_ssize_t)sizeof(int32_t));
            else {
                ev_obj = Py_None;
                Py_INCREF(ev_obj);
            }
            if (ev_obj == NULL)
                goto cleanup;
            result = Py_BuildValue("(NLLL)", ev_obj, (long long)n_iterations,
                                   (long long)n_rebuilds,
                                   (long long)cand_total);
        }
    }

cleanup:
    free(indeg);
    free(front);
    free(ready);
    free(front_2q);
    free(frontier);
    free(next_frontier);
    free(seen_stamp);
    free(ext_gates);
    free(cand_bits);
    free(eids);
    free(best);
    free(pos_other);
    free(pos_in_front);
    free(ext_pos);
    free(ext_next);
    free(ext_head);
    free(ltp);
    free(ptl);
    free(decay);
    free(events.data);
    PyBuffer_Release(&b_state);
    PyBuffer_Release(&b_dist);
    PyBuffer_Release(&b_adj);
    PyBuffer_Release(&b_eu);
    PyBuffer_Release(&b_ev);
    PyBuffer_Release(&b_inc_off);
    PyBuffer_Release(&b_inc_eid);
    PyBuffer_Release(&b_gq0);
    PyBuffer_Release(&b_gq1);
    PyBuffer_Release(&b_is2q);
    PyBuffer_Release(&b_succ_off);
    PyBuffer_Release(&b_succ);
    PyBuffer_Release(&b_indeg);
    PyBuffer_Release(&b_layout);
    return result;
}

/* ------------------------------------------------------------------ */
/* Module boilerplate                                                  */
/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"route", route, METH_VARARGS,
     "Run one SABRE routing pass over flat tables, calling poll() every "
     "1,024 swap iterations; returns (events|None, iterations, "
     "front_rebuilds, candidates_total), where events holds int32 "
     "(code, p0, p1) triples, and updates the MT state and layout buffers "
     "in place."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.baselines._sabre_kernel",
    "Compiled SABRE routing kernel (bit-identical to the reference loop).",
    -1,
    kernel_methods,
    NULL, /* m_slots */
    NULL, /* m_traverse */
    NULL, /* m_clear */
    NULL, /* m_free */
};

PyMODINIT_FUNC
PyInit__sabre_kernel(void)
{
    return PyModule_Create(&kernel_module);
}
