/* ThreadSanitizer harness for the threaded kernel tier.
 *
 * Compiles the kernel source into one fully-instrumented executable (no
 * Python in the loop — TSan cannot be preloaded into an arbitrary
 * interpreter build, but an instrumented binary needs nothing), builds a
 * synthetic combinational program, and drives every threaded entry
 * point against its serial twin:
 *
 *   1. concurrent repro_thread_pool_init from racing caller threads;
 *   2. repro_eval with pin + stem patches, serial vs 4 spans,
 *      byte-compared, hammered back-to-back to churn the dispatch
 *      mutex/condvar;
 *   3. repro_detect_step, serial vs 4 spans, byte-compared;
 *   4. repro_eval from 4 concurrent caller threads (the serving-lane
 *      shape: the pool trylock serves one, the rest run serially),
 *      each result compared against the serial reference;
 *   5. fault-axis repro_scan with per-slot alive windows that drain at
 *      different steps per span, serial vs threaded — detect times,
 *      pending mask and the early-exit return combined through the
 *      finished_spans atomic must match bit-for-bit;
 *   6. paired-candidate repro_scan (good + faulty machines, flop state,
 *      a flop patch) with the state-divergence out-array, serial vs
 *      threaded — divergence rows, detect times, pending mask, latched
 *      states and the return value must match bit-for-bit.
 *
 * Build and run (the CI TSan lane):
 *
 *   cc -fsanitize=thread -g -O1 -pthread \
 *      -o tsan_driver src/repro/sim/_native/tsan_driver.c && ./tsan_driver
 *
 * Exit 0 means no parity mismatch and no TSan report (TSan aborts the
 * process on a race when halt_on_error=1; without it the runtime exits
 * non-zero at the end).
 */

#include "repro_kernel.c"

#include <stdio.h>
#include <stdlib.h>

#define WORDS 64 /* 4096 slots: enough for 4 uneven spans */
#define PIS 4
#define GATES 40
#define SIGNALS (PIS + GATES)
#define STEPS 24
#define LANES 4
#define MAX_ARITY 2

static uint64_t splitmix(uint64_t *state)
{
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* The synthetic program: gate g reads two earlier signals (one for NOT)
 * and writes signal PIS + g, op codes cycling through the full set. */
static int32_t g_codes[GATES];
static int32_t g_outs[GATES];
static int64_t g_in_off[GATES + 1];
static int32_t g_ins[2 * GATES];

static void build_program(void)
{
    static const int32_t cycle[6] = {OP_AND, OP_OR,  OP_XOR,
                                     OP_NAND, OP_NOR, OP_XNOR};
    uint64_t rng = 0x9027;
    int64_t g, off = 0;
    for (g = 0; g < GATES; g++) {
        const int64_t avail = PIS + g;
        g_outs[g] = (int32_t)(PIS + g);
        g_in_off[g] = off;
        if (g % 7 == 6) {
            g_codes[g] = OP_NOT;
            g_ins[off++] = (int32_t)(splitmix(&rng) % avail);
        } else {
            g_codes[g] = cycle[g % 6];
            g_ins[off++] = (int32_t)(splitmix(&rng) % avail);
            g_ins[off++] = (int32_t)(splitmix(&rng) % avail);
        }
    }
    g_in_off[GATES] = off;
}

/* Complementary pseudo-random H/L rails for every signal. */
static void fill_rails(uint64_t *V, uint64_t seed)
{
    uint64_t rng = seed;
    int64_t s, w;
    for (s = 0; s < SIGNALS; s++) {
        for (w = 0; w < WORDS; w++) {
            const uint64_t h = splitmix(&rng);
            V[(uint64_t)(2 * s) * WORDS + w] = h;
            V[(uint64_t)(2 * s + 1) * WORDS + w] = ~h;
        }
    }
}

/* One pin patch on gate 5 and one stem patch on gate 20. */
static int32_t g_pin_ops[1] = {5};
static int32_t g_pin_pins[1] = {0};
static uint64_t g_pin_sa1[WORDS];
static uint64_t g_pin_sa0[WORDS];
static int32_t g_stem_ops[1] = {20};
static uint64_t g_stem_sa1[WORDS];
static uint64_t g_stem_sa0[WORDS];

static void run_eval(uint64_t *V, uint64_t *scratch, int64_t n_threads)
{
    repro_eval(V, WORDS, g_codes, g_outs, g_in_off, g_ins, GATES,
               g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0, 1,
               g_stem_ops, g_stem_sa1, g_stem_sa0, 1, scratch, n_threads);
}

static int check_eval_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *serial = malloc(rails * sizeof(uint64_t));
    uint64_t *threaded = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int failures = 0;
    int round;
    for (round = 0; round < 50; round++) {
        fill_rails(serial, 0x1000 + (uint64_t)round);
        memcpy(threaded, serial, rails * sizeof(uint64_t));
        run_eval(serial, scratch, 1);
        run_eval(threaded, scratch, LANES);
        if (memcmp(serial, threaded, rails * sizeof(uint64_t)) != 0) {
            fprintf(stderr, "FAIL eval parity, round %d\n", round);
            failures++;
            break;
        }
    }
    free(serial);
    free(threaded);
    free(scratch);
    return failures;
}

static int check_detect_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *GV = malloc(rails * sizeof(uint64_t));
    uint64_t *FV = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int32_t po_sig[8];
    static uint64_t sa_zero[8 * WORDS]; /* shared all-zero masks */
    uint64_t out_serial[WORDS], out_threaded[WORDS];
    int64_t i;
    int failures = 0;
    for (i = 0; i < 8; i++)
        po_sig[i] = (int32_t)(SIGNALS - 8 + i);
    fill_rails(GV, 0x2000);
    fill_rails(FV, 0x3000);
    run_eval(GV, scratch, 1);
    run_eval(FV, scratch, 1);
    memset(out_serial, 0, sizeof(out_serial));
    memset(out_threaded, 0, sizeof(out_threaded));
    repro_detect_step(GV, FV, WORDS, po_sig, 8, sa_zero, sa_zero, sa_zero,
                      sa_zero, out_serial, 1);
    repro_detect_step(GV, FV, WORDS, po_sig, 8, sa_zero, sa_zero, sa_zero,
                      sa_zero, out_threaded, LANES);
    if (memcmp(out_serial, out_threaded, sizeof(out_serial)) != 0) {
        fprintf(stderr, "FAIL detect_step parity\n");
        failures++;
    }
    free(GV);
    free(FV);
    free(scratch);
    return failures;
}

/* --- concurrent callers: the serving-lane shape ------------------- */

typedef struct {
    const uint64_t *reference;
    int failures;
} LaneArg;

static void *lane_main(void *ptr)
{
    LaneArg *arg = ptr;
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *V = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int round;
    for (round = 0; round < 25; round++) {
        fill_rails(V, 0x4000);
        run_eval(V, scratch, LANES);
        if (memcmp(V, arg->reference, rails * sizeof(uint64_t)) != 0) {
            arg->failures++;
            break;
        }
    }
    free(V);
    free(scratch);
    return 0;
}

static int check_concurrent_callers(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *reference = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    pthread_t lanes[LANES];
    LaneArg args[LANES];
    int i, failures = 0;
    fill_rails(reference, 0x4000);
    run_eval(reference, scratch, 1);
    for (i = 0; i < LANES; i++) {
        args[i].reference = reference;
        args[i].failures = 0;
        pthread_create(&lanes[i], 0, lane_main, &args[i]);
    }
    for (i = 0; i < LANES; i++) {
        pthread_join(lanes[i], 0);
        if (args[i].failures) {
            fprintf(stderr, "FAIL concurrent caller lane %d parity\n", i);
            failures += args[i].failures;
        }
    }
    free(reference);
    free(scratch);
    return failures;
}

/* --- pool-init race ------------------------------------------------ */

static void *init_main(void *ptr)
{
    (void)ptr;
    if (repro_thread_pool_init(LANES) < 1 || repro_thread_pool_size() < 1)
        return (void *)1;
    return 0;
}

static int check_pool_init_race(void)
{
    pthread_t racers[LANES];
    void *ret;
    int i, failures = 0;
    for (i = 0; i < LANES; i++)
        pthread_create(&racers[i], 0, init_main, 0);
    for (i = 0; i < LANES; i++) {
        pthread_join(racers[i], &ret);
        if (ret) {
            fprintf(stderr, "FAIL pool init from racer %d\n", i);
            failures++;
        }
    }
    return failures;
}

/* --- fault-axis scan parity ---------------------------------------- */

static int check_scan_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    const int64_t num_pos = 8;
    const int64_t obs_per_step = 4;
    int32_t po_sig[8];
    int32_t pi_sig[PIS];
    uint8_t stim_bits[STEPS * PIS];
    int64_t obs_off[STEPS + 1];
    int32_t obs_pos[STEPS * 4];
    uint8_t obs_vals[STEPS * 4];
    static uint64_t sa_zero[8 * WORDS];
    uint64_t *FV = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    uint64_t *alive = malloc((size_t)STEPS * WORDS * sizeof(uint64_t));
    uint64_t pending_s[WORDS], pending_t[WORDS], det[WORDS];
    int64_t *times_s = malloc((size_t)WORDS * 64 * sizeof(int64_t));
    int64_t *times_t = malloc((size_t)WORDS * 64 * sizeof(int64_t));
    uint64_t rng = 0x5000;
    int64_t s, w, b, i;
    int64_t ret_s, ret_t;
    int failures = 0;

    for (i = 0; i < num_pos; i++)
        po_sig[i] = (int32_t)(SIGNALS - num_pos + i);
    for (i = 0; i < PIS; i++)
        pi_sig[i] = (int32_t)i;
    for (s = 0; s < STEPS; s++)
        for (i = 0; i < PIS; i++)
            stim_bits[s * PIS + i] = (uint8_t)(splitmix(&rng) & 1);
    for (s = 0; s <= STEPS; s++)
        obs_off[s] = s * obs_per_step;
    for (s = 0; s < STEPS; s++)
        for (i = 0; i < obs_per_step; i++) {
            obs_pos[s * obs_per_step + i] =
                (int32_t)(splitmix(&rng) % num_pos);
            obs_vals[s * obs_per_step + i] = (uint8_t)(splitmix(&rng) & 1);
        }
    /* Monotone per-slot alive windows: slot (w, b) lives for the first
     * 4..STEPS steps, so spans drain at different steps — the
     * early-exit path the finished_spans atomic combines. */
    for (s = 0; s < STEPS; s++)
        for (w = 0; w < WORDS; w++) {
            uint64_t row = 0;
            for (b = 0; b < 64; b++) {
                const int64_t window = 4 + ((w * 64 + b) % (STEPS - 4));
                if (s < window)
                    row |= (uint64_t)1 << b;
            }
            alive[s * WORDS + w] = row;
        }

    fill_rails(FV, 0x6000);
    for (w = 0; w < WORDS; w++)
        pending_s[w] = pending_t[w] = ~(uint64_t)0;
    for (i = 0; i < WORDS * 64; i++)
        times_s[i] = times_t[i] = -1;

    ret_s = repro_scan(0, FV, WORDS, g_codes, g_outs, g_in_off, g_ins,
                       GATES, g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0,
                       1, g_stem_ops, g_stem_sa1, g_stem_sa0, 1, scratch,
                       0, 0, 0, 0, pi_sig, PIS, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                       0, 0, 0, 0, 0, 0, stim_bits, 0, STEPS, po_sig,
                       num_pos, 0, 0, sa_zero, sa_zero, obs_off, obs_pos,
                       obs_vals, alive, pending_s, times_s, det, 0, 0, 1);
    fill_rails(FV, 0x6000);
    ret_t = repro_scan(0, FV, WORDS, g_codes, g_outs, g_in_off, g_ins,
                       GATES, g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0,
                       1, g_stem_ops, g_stem_sa1, g_stem_sa0, 1, scratch,
                       0, 0, 0, 0, pi_sig, PIS, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                       0, 0, 0, 0, 0, 0, stim_bits, 0, STEPS, po_sig,
                       num_pos, 0, 0, sa_zero, sa_zero, obs_off, obs_pos,
                       obs_vals, alive, pending_t, times_t, det, 0, 0,
                       LANES);

    if (ret_s != ret_t) {
        fprintf(stderr, "FAIL scan return: serial %lld threaded %lld\n",
                (long long)ret_s, (long long)ret_t);
        failures++;
    }
    if (memcmp(pending_s, pending_t, sizeof(pending_s)) != 0) {
        fprintf(stderr, "FAIL scan pending parity\n");
        failures++;
    }
    if (memcmp(times_s, times_t, (size_t)WORDS * 64 * sizeof(int64_t))
        != 0) {
        fprintf(stderr, "FAIL scan detect-time parity\n");
        failures++;
    }
    free(FV);
    free(scratch);
    free(alive);
    free(times_s);
    free(times_t);
    return failures;
}

/* --- paired-candidate scan with the divergence reduction ---------- */

#define PAIRED_PIS 2 /* signals 0, 1 are inputs; 2, 3 are flop outputs */
#define FLOPS 2
#define SLOTS (WORDS * 64)

typedef struct {
    uint64_t *GV;
    uint64_t *FV;
    uint64_t g_sh[FLOPS * WORDS], g_sl[FLOPS * WORDS];
    uint64_t f_sh[FLOPS * WORDS], f_sl[FLOPS * WORDS];
    uint64_t pending[WORDS];
    int64_t times[SLOTS];
    int64_t div[3 * SLOTS];
    int64_t ret;
} PairedRun;

static void run_paired(PairedRun *r, const uint64_t *ones,
                       const uint64_t *zeros, const uint64_t *alive,
                       int64_t n_threads)
{
    static const int32_t pi_sig[PAIRED_PIS] = {0, 1};
    static const int32_t q_sig[FLOPS] = {2, 3};
    static const int32_t d_sig[FLOPS] = {SIGNALS - 1, SIGNALS - 5};
    static const int32_t dff_pos[1] = {0};
    static uint64_t sa_zero[8 * WORDS];
    uint64_t keep_h[WORDS], keep_l[WORDS], det[WORDS];
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int32_t po_sig[8];
    int64_t i;
    for (i = 0; i < 8; i++)
        po_sig[i] = (int32_t)(SIGNALS - 8 + i);
    /* The flop patch reuses the pin masks: force H where sa1, L where
     * sa0, clearing the opposite rail. */
    for (i = 0; i < WORDS; i++) {
        keep_h[i] = ~g_pin_sa0[i];
        keep_l[i] = ~g_pin_sa1[i];
        r->pending[i] = ~(uint64_t)0;
    }
    for (i = 0; i < SLOTS; i++)
        r->times[i] = -1;
    memset(r->div, 0, sizeof(r->div));
    memset(r->g_sh, 0, sizeof(r->g_sh)); /* all-X start */
    memset(r->g_sl, 0, sizeof(r->g_sl));
    memset(r->f_sh, 0, sizeof(r->f_sh));
    memset(r->f_sl, 0, sizeof(r->f_sl));
    fill_rails(r->GV, 0x8000);
    fill_rails(r->FV, 0x8000);
    r->ret = repro_scan(
        r->GV, r->FV, WORDS, g_codes, g_outs, g_in_off, g_ins, GATES,
        g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0, 1, g_stem_ops,
        g_stem_sa1, g_stem_sa0, 1, scratch, 0, 0, 0, 0, pi_sig, PAIRED_PIS,
        q_sig, d_sig, FLOPS, dff_pos, g_pin_sa1, keep_h, g_pin_sa0, keep_l,
        1, r->g_sh, r->g_sl, r->f_sh, r->f_sl, ones, zeros, 0, 0, STEPS,
        po_sig, 8, sa_zero, sa_zero, sa_zero, sa_zero, 0, 0, 0, alive,
        r->pending, r->times, det, r->div, 0, n_threads);
    free(scratch);
}

static int check_paired_divergence_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    const size_t stim = (size_t)STEPS * PAIRED_PIS * WORDS;
    uint64_t *ones = malloc(stim * sizeof(uint64_t));
    uint64_t *zeros = malloc(stim * sizeof(uint64_t));
    uint64_t *alive = malloc((size_t)STEPS * WORDS * sizeof(uint64_t));
    PairedRun *serial = malloc(sizeof(PairedRun));
    PairedRun *threaded = malloc(sizeof(PairedRun));
    uint64_t rng = 0x9000;
    int64_t s, w, b, area = 0;
    size_t i;
    int failures = 0;
    for (i = 0; i < stim; i++) {
        ones[i] = splitmix(&rng);
        zeros[i] = ~ones[i];
    }
    /* Candidates of different lengths (1..STEPS steps), so spans drain
     * at different steps. */
    for (s = 0; s < STEPS; s++)
        for (w = 0; w < WORDS; w++) {
            uint64_t row = 0;
            for (b = 0; b < 64; b++)
                if (s < 1 + (w * 64 + b) % STEPS)
                    row |= (uint64_t)1 << b;
            alive[s * WORDS + w] = row;
        }
    serial->GV = malloc(rails * sizeof(uint64_t));
    serial->FV = malloc(rails * sizeof(uint64_t));
    threaded->GV = malloc(rails * sizeof(uint64_t));
    threaded->FV = malloc(rails * sizeof(uint64_t));
    run_paired(serial, ones, zeros, alive, 1);
    run_paired(threaded, ones, zeros, alive, LANES);

    if (serial->ret != threaded->ret) {
        fprintf(stderr, "FAIL paired scan return: serial %lld threaded %lld\n",
                (long long)serial->ret, (long long)threaded->ret);
        failures++;
    }
    if (memcmp(serial->div, threaded->div, sizeof(serial->div)) != 0) {
        fprintf(stderr, "FAIL paired scan divergence parity\n");
        failures++;
    }
    if (memcmp(serial->times, threaded->times, sizeof(serial->times)) != 0
        || memcmp(serial->pending, threaded->pending,
                  sizeof(serial->pending)) != 0) {
        fprintf(stderr, "FAIL paired scan detect parity\n");
        failures++;
    }
    if (memcmp(serial->g_sh, threaded->g_sh, sizeof(serial->g_sh)) != 0
        || memcmp(serial->g_sl, threaded->g_sl, sizeof(serial->g_sl)) != 0
        || memcmp(serial->f_sh, threaded->f_sh, sizeof(serial->f_sh)) != 0
        || memcmp(serial->f_sl, threaded->f_sl, sizeof(serial->f_sl)) != 0) {
        fprintf(stderr, "FAIL paired scan latched-state parity\n");
        failures++;
    }
    for (i = 0; i < SLOTS; i++)
        area += serial->div[2 * SLOTS + i];
    if (area == 0) {
        fprintf(stderr, "FAIL paired scan never diverged (vacuous check)\n");
        failures++;
    }
    printf("paired scan: total divergence area %lld\n", (long long)area);
    free(serial->GV);
    free(serial->FV);
    free(threaded->GV);
    free(threaded->FV);
    free(serial);
    free(threaded);
    free(ones);
    free(zeros);
    free(alive);
    return failures;
}

int main(void)
{
    uint64_t rng = 0x7000;
    int64_t w;
    int failures = 0;
    build_program();
    /* Sparse, disjoint patch masks (sa1 & sa0 must never overlap). */
    for (w = 0; w < WORDS; w++) {
        const uint64_t mask = splitmix(&rng);
        g_pin_sa1[w] = mask & 0x5555555555555555ULL;
        g_pin_sa0[w] = ~mask & 0xaaaaaaaaaaaaaaaaULL;
        g_stem_sa1[w] = mask & 0x0f0f0f0f0f0f0f0fULL;
        g_stem_sa0[w] = ~mask & 0xf0f0f0f0f0f0f0f0ULL;
    }
    if (!repro_threads_available()) {
        printf("kernel built without threads; nothing to sanitize\n");
        return 0;
    }
    failures += check_pool_init_race();
    printf("pool size after racing inits: %lld\n",
           (long long)repro_thread_pool_size());
    failures += check_eval_parity();
    failures += check_detect_parity();
    failures += check_concurrent_callers();
    failures += check_scan_parity();
    failures += check_paired_divergence_parity();
    repro_thread_pool_shutdown();
    if (failures) {
        fprintf(stderr, "%d parity failure(s)\n", failures);
        return 1;
    }
    printf("tsan driver: all threaded parity checks passed\n");
    return 0;
}
