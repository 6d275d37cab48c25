/* What an allocator gives back, run under LD_PRELOAD=libmesh.so by
 * tests/c_abi.rs and tests/c_harden.rs (and also expected to pass on plain
 * glibc):
 *
 * 1. A large calloc costs no memory until it is written: calloc(256 MiB)
 *    with one page touched raises VmRSS by less than 2 MiB.
 * 2. calloc after free reads all zeros, large and small.
 * 3. malloc_trim(0) gives a fragmented heap back: 64 Ki objects of 256 B,
 *    7 in 8 freed at random, then a trim lowers RSS and every survivor
 *    keeps its stamp. (Under Mesh the trim meshes before it purges; the
 *    caller checks pairs_meshed > 0 in the exit stats.) */
#include <assert.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define PAGE 4096

/* This process's resident set in KiB (VmRSS). */
static long rss_kib(void) {
    FILE *f = fopen("/proc/self/status", "r");
    assert(f != NULL);
    char line[256];
    long kib = -1;
    while (fgets(line, sizeof line, f))
        if (sscanf(line, "VmRSS: %ld kB", &kib) == 1)
            break;
    fclose(f);
    assert(kib >= 0);
    return kib;
}

static double now_ms(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

static void assert_zero(const unsigned char *p, size_t len) {
    for (size_t i = 0; i < len; i++)
        assert(p[i] == 0);
}

static uint64_t rng_state = 0x9E3779B97F4A7C15ull;

static uint64_t rng_next(void) {
    rng_state ^= rng_state << 13;
    rng_state ^= rng_state >> 7;
    rng_state ^= rng_state << 17;
    return rng_state;
}

#define OBJECTS (64 * 1024)
#define OBJECT 256

int main(void) {
    /* 1. An untouched large calloc. */
    size_t big = (size_t)256 << 20;
    long before = rss_kib();
    double t0 = now_ms();
    unsigned char *z = calloc(1, big);
    double took = now_ms() - t0;
    assert(z != NULL);
    z[big / 2] = 1;
    long grown = rss_kib() - before;
    printf("calloc(256 MiB): +%ld KiB RSS, %.3f ms\n", grown, took);
    assert(grown < 2048);
    free(z);

    /* 2. calloc after free, large then small. */
    size_t len = (size_t)4 << 20;
    unsigned char *q = malloc(len);
    assert(q != NULL);
    memset(q, 0xAB, len);
    free(q);
    q = calloc(1, len);
    assert(q != NULL);
    assert_zero(q, len);
    free(q);
    for (int i = 0; i < 1000; i++) {
        unsigned char *s = malloc(100);
        memset(s, 0xCD, 100);
        free(s);
        s = calloc(1, 100);
        assert_zero(s, 100);
        free(s);
    }

    /* 3. Fragment, then trim. Everything is allocated before anything is
     * freed, so the spans are handed back full and the frees leave them
     * sparse. */
    unsigned char **objs = malloc(OBJECTS * sizeof *objs);
    assert(objs != NULL);
    for (int i = 0; i < OBJECTS; i++) {
        objs[i] = malloc(OBJECT);
        assert(objs[i] != NULL);
        memset(objs[i], (unsigned char)(i * 7 + 1), OBJECT);
    }
    for (int i = OBJECTS - 1; i > 0; i--) {
        int j = (int)(rng_next() % (uint64_t)(i + 1));
        unsigned char *t = objs[i];
        objs[i] = objs[j];
        objs[j] = t;
    }
    int kept = OBJECTS / 8;
    for (int i = kept; i < OBJECTS; i++)
        free(objs[i]);
    long fragmented = rss_kib();
    malloc_trim(0);
    long trimmed = rss_kib();
    printf("malloc_trim(0): %ld -> %ld KiB RSS\n", fragmented, trimmed);
    assert(trimmed < fragmented);
    for (int i = 0; i < kept; i++) {
        unsigned char stamp = objs[i][0];
        for (int b = 0; b < OBJECT; b++)
            assert(objs[i][b] == stamp);
        free(objs[i]);
    }
    free(objs);
    printf("trim_calloc OK\n");
    return 0;
}
