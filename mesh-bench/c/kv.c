/*
 * kv.c - the benchmark-owned C program behind the `preload_kv` workload.
 *
 * A Redis-shaped in-memory store: a chained hash table (calloc'd) of
 * malloc'd entries, keys and values, sampled-LRU eviction at a byte cap,
 * realloc on update, and one helper pthread that frees every fourth
 * evicted value (the lazy-free pattern, so some frees are cross-thread).
 *
 * The same binary runs on glibc and under LD_PRELOAD=libmesh.so; it never
 * calls into Mesh. One round is the paper's section 6.2.2 script scaled
 * down: N sets of ~240 B values, then M sets of ~492 B values against the
 * same cap (so the first generation is evicted from between the second),
 * then an idle tail (sleep, a few requests, malloc_trim(0)), the steady
 * point, and a teardown that empties the store. Rounds repeat until the
 * window given by --seconds closes.
 *
 * Every value is checked byte for byte on get; a mismatch exits non-zero.
 * The report on stdout uses the line format of src/report.rs.
 *
 *   kv --seed N --seconds S [--smoke] [--setup-repeats K]   measured rounds
 *   kv --ladder                           batched per-call costs (abi.* rows)
 */
#define _GNU_SOURCE
#include <malloc.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>
#include <fcntl.h>

/* Present only when libmesh.so is interposed. */
extern int mesh_ctl_active(void) __attribute__((weak));
extern void mesh_stats_print(void) __attribute__((weak));

/* ----- clock, rng ------------------------------------------------------ */

static uint64_t now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (uint64_t)ts.tv_sec * 1000000000ull + (uint64_t)ts.tv_nsec;
}

static uint64_t rng_state;

static uint64_t rng_next(void) {
    uint64_t z = (rng_state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

static uint64_t rng_below(uint64_t bound) {
    return (uint64_t)(((__uint128_t)rng_next() * bound) >> 64);
}

/* ----- metered allocator calls ------------------------------------------ */

/* Same layout as LatHist in src/stats.rs. */
#define LINEAR_NS 2048
#define LAT_BUCKETS (LINEAR_NS + 30 * 32)
static uint64_t hist[LAT_BUCKETS];
static uint64_t calls, failed, tick, reallocs;
static uint64_t live_req; /* bytes requested and not yet freed */

static void hist_record(uint64_t ns) {
    unsigned idx;
    if (ns < LINEAR_NS) {
        idx = (unsigned)ns;
    } else {
        unsigned p = 63 - (unsigned)__builtin_clzll(ns);
        if (p > 40) p = 40;
        unsigned sub = (ns >> p) > 1 ? 31 : (unsigned)((ns >> (p - 5)) & 31);
        idx = LINEAR_NS + (p - 11) * 32 + sub;
    }
    hist[idx]++;
}

#define SAMPLED() ((++tick & 63) == 0)

static void *kv_malloc(size_t n) {
    void *p;
    calls++;
    if (SAMPLED()) {
        uint64_t t0 = now_ns();
        p = malloc(n);
        hist_record(now_ns() - t0);
        if (p && malloc_usable_size(p) < n) failed++;
    } else {
        p = malloc(n);
    }
    if (!p) failed++;
    return p;
}

static void *kv_realloc(void *old, size_t n) {
    void *p;
    calls++;
    reallocs++;
    if (SAMPLED()) {
        uint64_t t0 = now_ns();
        p = realloc(old, n);
        hist_record(now_ns() - t0);
    } else {
        p = realloc(old, n);
    }
    if (!p) failed++;
    return p;
}

static void kv_free(void *p) {
    calls++;
    if (SAMPLED()) {
        uint64_t t0 = now_ns();
        free(p);
        hist_record(now_ns() - t0);
    } else {
        free(p);
    }
}

/* ----- helper thread: lazy frees ---------------------------------------- */

#define LAZY_SLOTS 1024
static void *lazy_ring[LAZY_SLOTS];
static unsigned lazy_head, lazy_tail;
static int lazy_quit;
static pthread_mutex_t lazy_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t lazy_nonempty = PTHREAD_COND_INITIALIZER;
static pthread_cond_t lazy_nonfull = PTHREAD_COND_INITIALIZER;

static void *lazy_main(void *arg) {
    (void)arg;
    pthread_mutex_lock(&lazy_mu);
    for (;;) {
        while (lazy_head == lazy_tail && !lazy_quit)
            pthread_cond_wait(&lazy_nonempty, &lazy_mu);
        if (lazy_head == lazy_tail) break;
        void *p = lazy_ring[lazy_tail++ % LAZY_SLOTS];
        pthread_cond_signal(&lazy_nonfull);
        pthread_mutex_unlock(&lazy_mu);
        free(p);
        pthread_mutex_lock(&lazy_mu);
    }
    pthread_mutex_unlock(&lazy_mu);
    return NULL;
}

static void lazy_free(void *p) {
    pthread_mutex_lock(&lazy_mu);
    while (lazy_head - lazy_tail == LAZY_SLOTS)
        pthread_cond_wait(&lazy_nonfull, &lazy_mu);
    lazy_ring[lazy_head++ % LAZY_SLOTS] = p;
    pthread_cond_signal(&lazy_nonempty);
    pthread_mutex_unlock(&lazy_mu);
}

/* Waits until the helper has freed everything handed to it. */
static void lazy_drain(void) {
    pthread_mutex_lock(&lazy_mu);
    while (lazy_head != lazy_tail) pthread_cond_wait(&lazy_nonfull, &lazy_mu);
    pthread_mutex_unlock(&lazy_mu);
}

/* ----- the store --------------------------------------------------------- */

struct entry {
    struct entry *next;
    char *key;
    unsigned char *val;
    uint64_t id;      /* key number; the value bytes derive from it */
    uint64_t gen;     /* bumped on update; part of the value pattern */
    uint64_t lru;
    uint32_t klen, vlen;
    uint32_t slot;    /* index in `dense` */
};

static struct entry **buckets;
static struct entry **dense; /* every entry, for uniform sampling */
static size_t nbuckets, ndense, dense_cap;
static uint64_t used_bytes, cap_bytes, lru_clock, evictions;
static uint64_t op_hash = 0xcbf29ce484222325ull; /* FNV-1a over the op stream */

static void hash_op(uint64_t id, uint32_t vlen) {
    op_hash = (op_hash ^ (id * 1024 + vlen)) * 0x100000001b3ull;
}

static uint64_t hash_id(uint64_t id) {
    id ^= id >> 33;
    id *= 0xff51afd7ed558ccdull;
    id ^= id >> 33;
    return id;
}

static unsigned char value_byte(uint64_t id, uint64_t gen, uint32_t off) {
    return (unsigned char)((id * 131 + gen * 31 + off) ^ (off >> 3));
}

static void value_fill(unsigned char *v, uint64_t id, uint64_t gen, uint32_t from, uint32_t len) {
    for (uint32_t i = from; i < len; i++) v[i] = value_byte(id, gen, i);
}

static struct entry *find(uint64_t id) {
    struct entry *e = buckets[hash_id(id) & (nbuckets - 1)];
    while (e && e->id != id) e = e->next;
    return e;
}

static void unlink_entry(struct entry *e) {
    struct entry **pp = &buckets[hash_id(e->id) & (nbuckets - 1)];
    while (*pp != e) pp = &(*pp)->next;
    *pp = e->next;
    dense[e->slot] = dense[--ndense];
    dense[e->slot]->slot = e->slot;
    used_bytes -= e->klen + e->vlen;
    live_req -= e->klen + e->vlen + sizeof *e;
}

static void destroy(struct entry *e, int lazy) {
    unlink_entry(e);
    kv_free(e->key);
    if (lazy) {
        calls++; /* the helper's free() */
        lazy_free(e->val);
    } else {
        kv_free(e->val);
    }
    kv_free(e);
}

/* Redis-style approximated LRU: evict the stalest of five random entries. */
static void evict_one(void) {
    struct entry *victim = NULL;
    for (int i = 0; i < 5; i++) {
        struct entry *e = dense[rng_below(ndense)];
        if (!victim || e->lru < victim->lru) victim = e;
    }
    destroy(victim, (++evictions & 3) == 0);
}

static void check_value(const struct entry *e) {
    for (uint32_t i = 0; i < e->vlen; i++) {
        if (e->val[i] != value_byte(e->id, e->gen, i)) {
            fprintf(stderr, "kv: value mismatch: key %llu byte %u\n",
                    (unsigned long long)e->id, i);
            exit(3);
        }
    }
}

static void kv_get(uint64_t id) {
    hash_op(id, 0);
    struct entry *e = find(id);
    if (!e) return;
    e->lru = ++lru_clock;
    check_value(e);
}

static void kv_set(uint64_t id, uint32_t vlen) {
    hash_op(id, vlen);
    struct entry *e = find(id);
    if (e) { /* update: realloc the value in place when the allocator can */
        e->gen++;
        used_bytes += vlen;
        used_bytes -= e->vlen;
        live_req += vlen;
        live_req -= e->vlen;
        e->val = kv_realloc(e->val, vlen);
        e->vlen = vlen;
        value_fill(e->val, e->id, e->gen, 0, vlen);
        e->lru = ++lru_clock;
    } else {
        char name[40];
        int klen = snprintf(name, sizeof name, "user:%llu:profile", (unsigned long long)id) + 1;
        e = kv_malloc(sizeof *e);
        e->key = kv_malloc((size_t)klen);
        e->val = kv_malloc(vlen);
        if (!e->key || !e->val) exit(4);
        memcpy(e->key, name, (size_t)klen);
        e->id = id;
        e->gen = 0;
        e->klen = (uint32_t)klen;
        e->vlen = vlen;
        value_fill(e->val, id, 0, 0, vlen);
        e->lru = ++lru_clock;
        struct entry **b = &buckets[hash_id(id) & (nbuckets - 1)];
        e->next = *b;
        *b = e;
        if (ndense == dense_cap) exit(5);
        e->slot = (uint32_t)ndense;
        dense[ndense++] = e;
        used_bytes += e->klen + e->vlen;
        live_req += e->klen + e->vlen + sizeof *e;
    }
    while (used_bytes > cap_bytes && ndense > 8) evict_one();
}

/* ----- /proc ------------------------------------------------------------- */

static uint64_t rss_kib(void) {
    char buf[128];
    int fd = open("/proc/self/statm", O_RDONLY);
    if (fd < 0) return 0;
    ssize_t n = read(fd, buf, sizeof buf - 1);
    close(fd);
    if (n <= 0) return 0;
    buf[n] = 0;
    unsigned long long size, resident;
    if (sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
    return resident * (uint64_t)(sysconf(_SC_PAGESIZE) / 1024);
}

static uint64_t hwm_kib(void) {
    char line[256];
    unsigned long long v = 0;
    FILE *f = fopen("/proc/self/status", "r");
    if (!f) return 0;
    while (fgets(line, sizeof line, f))
        if (sscanf(line, "VmHWM: %llu kB", &v) == 1) break;
    fclose(f);
    return v;
}

/* ----- rounds ------------------------------------------------------------ */

struct shape {
    uint64_t sets_a, sets_b; /* new keys per phase */
    uint64_t cap;
};

static uint64_t next_key;

/* One phase: `sets` new keys with values around `vlen`; between sets, a get
 * of a recent key, and every eighth step an update of an older one. */
static void phase(uint64_t sets, uint32_t vlo, uint32_t vhi) {
    for (uint64_t i = 0; i < sets; i++) {
        uint64_t id = next_key++;
        kv_set(id, vlo + (uint32_t)rng_below(vhi - vlo + 1));
        kv_get(id - rng_below(id < 4096 ? id + 1 : 4096));
        if ((i & 7) == 7 && ndense > 0) {
            struct entry *e = dense[rng_below(ndense)];
            kv_set(e->id, vlo + (uint32_t)rng_below(vhi - vlo + 1));
        }
    }
}

/* Read once three measured rounds are done, the count every run reaches,
 * so neither depends on how many rounds the window had room for. */
static uint64_t hash_at_three, hwm_at_three;
static int rounds_reported;
static useconds_t idle_us = 120 * 1000;

static void round_once(const struct shape *sh, int report) {
    uint64_t calls0 = calls;
    uint64_t t0 = now_ns();
    phase(sh->sets_a, 225, 256);
    phase(sh->sets_b, 449, 512);
    lazy_drain();
    uint64_t busy = now_ns() - t0;

    /* Idle tail: no load for longer than Mesh's 100 ms meshing period, then
     * the trickle of requests an idle server still sees, then a trim. */
    usleep(idle_us);
    uint64_t t1 = now_ns();
    for (int i = 0; i < 256 && ndense > 0; i++) {
        struct entry *e = dense[rng_below(ndense)];
        kv_get(e->id);
        kv_set(e->id, e->vlen);
    }
    busy += now_ns() - t1;
    malloc_trim(0);

    /* Steady point. */
    uint64_t steady_rss = rss_kib();
    uint64_t steady_live = live_req;

    uint64_t t2 = now_ns();
    while (ndense > 0) destroy(dense[ndense - 1], 0);
    malloc_trim(0);
    busy += now_ns() - t2;
    if (!report) return;
    if (++rounds_reported == 3) {
        hash_at_three = op_hash;
        hwm_at_three = hwm_kib();
    }
    printf("round %llu %.9f %llu 0 %llu\n", (unsigned long long)(calls - calls0),
           (double)busy / 1e9, (unsigned long long)steady_rss,
           (unsigned long long)steady_live);
}

static pthread_t helper;

/* Table, helper thread and one warm-up round: what a run pays before its
 * first measured round. Returns the seconds it took. */
static double set_up(const struct shape *sh, int smoke) {
    uint64_t t0 = now_ns();
    nbuckets = smoke ? 1 << 12 : 1 << 17;
    dense_cap = (size_t)(sh->sets_a + sh->sets_b) + 16;
    buckets = calloc(nbuckets, sizeof *buckets);
    dense = calloc(dense_cap, sizeof *dense);
    if (!buckets || !dense) exit(4);
    cap_bytes = sh->cap;
    lazy_quit = 0;
    if (pthread_create(&helper, NULL, lazy_main, NULL) != 0) exit(4);
    round_once(sh, 0);
    return (double)(now_ns() - t0) / 1e9;
}

static void tear_down(void) {
    pthread_mutex_lock(&lazy_mu);
    lazy_quit = 1;
    pthread_cond_signal(&lazy_nonempty);
    pthread_mutex_unlock(&lazy_mu);
    pthread_join(helper, NULL);
    free(buckets);
    free(dense);
}

static int run_rounds(uint64_t seed, double seconds, int smoke, int setup_repeats) {
    struct shape sh = smoke ? (struct shape){4000, 2000, 512 << 10}
                            : (struct shape){100000, 50000, 16 << 20};
    uint64_t baseline = rss_kib();
    if (smoke) idle_us = 5 * 1000;
    for (int i = 0; i < setup_repeats; i++) {
        if (i > 0) tear_down();
        /* Same inputs every time: the set-ups must be comparable. */
        rng_state = seed ^ 0x6b76u;
        next_key = 0;
        op_hash = 0xcbf29ce484222325ull;
        printf("setup_s %.9f\n", set_up(&sh, smoke));
    }
    memset(hist, 0, sizeof hist);
    calls = failed = tick = reallocs = 0;

    uint64_t t0 = now_ns();
    int rounds = 0;
    while (rounds < 3 || (double)(now_ns() - t0) / 1e9 < seconds) {
        round_once(&sh, 1);
        rounds++;
    }
    tear_down();

    printf("hist");
    for (int i = 0; i < LAT_BUCKETS; i++)
        if (hist[i]) printf(" %d:%llu", i, (unsigned long long)hist[i]);
    printf("\n");
    printf("attempted %llu\nfailed %llu\n", (unsigned long long)calls, (unsigned long long)failed);
    printf("stat kv.reallocs %llu\n", (unsigned long long)reallocs);
    printf("plan_hash %llu\n", (unsigned long long)hash_at_three);
    printf("threads 2\nbaseline_rss_kib %llu\nhwm_kib %llu\n", (unsigned long long)baseline,
           (unsigned long long)hwm_at_three);
    printf("interposed %d\n", mesh_ctl_active ? 1 : 0);
    fflush(stdout);
    if (mesh_stats_print) mesh_stats_print(); /* to stderr, for the per-layer rows */
    return 0;
}

/* ----- --ladder: batched per-call costs across the ABI ------------------- */

static int cmp_double(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static double median(double *v, int n) {
    qsort(v, (size_t)n, sizeof *v, cmp_double);
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

static void *spawn_body(void *arg) {
    void *p = malloc(64); /* forces the thread's heap into existence */
    *(volatile char *)p = 1;
    free(p);
    return arg;
}

#define BATCH 4096
#define REPS 15

static int run_ladder(void) {
    static void *ptrs[BATCH];
    double m[REPS], f[REPS], c[REPS], r[REPS], s[REPS];
    for (int rep = 0; rep < REPS + 2; rep++) { /* two warm-up reps */
        int k = rep < 2 ? 0 : rep - 2;
        uint64_t t0 = now_ns();
        for (int i = 0; i < BATCH; i++) ptrs[i] = malloc(64 + (size_t)(i & 63));
        uint64_t t1 = now_ns();
        for (int i = 0; i < BATCH; i++) ptrs[i] = realloc(ptrs[i], 200 + (size_t)(i & 63));
        uint64_t t2 = now_ns();
        for (int i = 0; i < BATCH; i++) free(ptrs[i]);
        uint64_t t3 = now_ns();
        for (int i = 0; i < BATCH; i++) ptrs[i] = calloc(1, 64 + (size_t)(i & 63));
        uint64_t t4 = now_ns();
        for (int i = 0; i < BATCH; i++) free(ptrs[i]);
        m[k] = (double)(t1 - t0) / BATCH;
        r[k] = (double)(t2 - t1) / BATCH;
        f[k] = (double)(t3 - t2) / BATCH;
        c[k] = (double)(t4 - t3) / BATCH;
        uint64_t t5 = now_ns();
        for (int i = 0; i < 16; i++) {
            pthread_t t;
            if (pthread_create(&t, NULL, spawn_body, NULL) != 0) return 4;
            pthread_join(t, NULL);
        }
        s[k] = (double)(now_ns() - t5) / 16 / 1e3;
    }
    printf("stat abi.malloc_ns %.3f\n", median(m, REPS));
    printf("stat abi.free_ns %.3f\n", median(f, REPS));
    printf("stat abi.calloc_ns %.3f\n", median(c, REPS));
    printf("stat abi.realloc_ns %.3f\n", median(r, REPS));
    printf("stat abi.thread_spawn_us %.3f\n", median(s, REPS));
    printf("interposed %d\n", mesh_ctl_active ? 1 : 0);
    return 0;
}

int main(int argc, char **argv) {
    uint64_t seed = 1;
    double seconds = 1.0;
    int smoke = 0, ladder = 0, setup_repeats = 1;
    for (int i = 1; i < argc; i++) {
        if (!strcmp(argv[i], "--seed") && i + 1 < argc) seed = strtoull(argv[++i], NULL, 10);
        else if (!strcmp(argv[i], "--seconds") && i + 1 < argc) seconds = atof(argv[++i]);
        else if (!strcmp(argv[i], "--setup-repeats") && i + 1 < argc) setup_repeats = atoi(argv[++i]);
        else if (!strcmp(argv[i], "--smoke")) smoke = 1;
        else if (!strcmp(argv[i], "--ladder")) ladder = 1;
        else {
            fprintf(stderr, "kv: unknown argument %s\n", argv[i]);
            return 2;
        }
    }
    if (setup_repeats < 1) setup_repeats = 1;
    return ladder ? run_ladder() : run_rounds(seed, seconds, smoke, setup_repeats);
}
