/* A daemon-style process, run under LD_PRELOAD=libmesh.so by
 * tests/c_abi.rs: it closes every descriptor from 3 up, as daemons and
 * posix_spawn file actions do, then opens a 64 MiB data file, which takes
 * the number the heap's memory file had. Churn, large frees and
 * malloc_trim(0) (a meshing pass and a purge) follow. The heap must not
 * reach the file through that number: afterwards every byte of the file
 * is as written, and every heap object keeps its stamp. A sense dump at
 * the end must not report the data file as the heap's.
 *
 * Reports through its exit status: 0 on success, or the number of the
 * check that failed. argv[1] names the data file to create. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

#define FILE_BYTES (64 << 20)
#define CHUNK (1 << 20)
#define OBJECTS 65536
#define OBJECT 256

/* Mesh's sense dump (one `mesh-sense:` line on stderr), when preloaded. */
int mesh_sense_dump(void) __attribute__((weak));

static unsigned char pattern(size_t i) { return (unsigned char)(i * 131 + (i >> 12)); }

static uint64_t rng_state = 0x2545F4914F6CDD1Dull;

static uint64_t rng_next(void) {
    rng_state ^= rng_state << 13;
    rng_state ^= rng_state >> 7;
    rng_state ^= rng_state << 17;
    return rng_state;
}

/* The lowest descriptor naming the heap's memory file, or -1. */
static int heap_fd(void) {
    for (int fd = 3; fd < 1024; fd++) {
        char path[64], target[256];
        snprintf(path, sizeof path, "/proc/self/fd/%d", fd);
        ssize_t n = readlink(path, target, sizeof target - 1);
        if (n <= 0)
            continue;
        target[n] = '\0';
        if (strstr(target, "mesh-arena") != NULL)
            return fd;
    }
    return -1;
}

int main(int argc, char **argv) {
    if (argc != 2)
        return 10;
    /* A fragmented heap before the descriptors go: 7 in 8 objects freed. */
    unsigned char **objs = malloc(OBJECTS * sizeof *objs);
    if (objs == NULL)
        return 11;
    for (int i = 0; i < OBJECTS; i++) {
        objs[i] = malloc(OBJECT);
        if (objs[i] == NULL)
            return 12;
        memset(objs[i], (unsigned char)(i * 7 + 1), OBJECT);
    }
    for (int i = 0; i < OBJECTS; i++)
        if (rng_next() % 8 != 0) {
            free(objs[i]);
            objs[i] = NULL;
        }

    int theirs = heap_fd();
    if (theirs < 0)
        return 13; /* not running on Mesh */
    if (syscall(SYS_close_range, 3u, ~0u, 0u) != 0)
        for (int fd = 3; fd < 1024; fd++)
            close(fd);

    int fd = open(argv[1], O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd != theirs)
        return 20; /* the file did not take the heap's number */
    unsigned char *buf = malloc(CHUNK);
    if (buf == NULL)
        return 21;
    for (size_t off = 0; off < FILE_BYTES; off += CHUNK) {
        for (size_t i = 0; i < CHUNK; i++)
            buf[i] = pattern(off + i);
        if (pwrite(fd, buf, CHUNK, (off_t)off) != CHUNK)
            return 22;
    }

    /* Churn: small objects freed sparse, large ones freed whole. */
    for (int round = 0; round < 4; round++) {
        unsigned char *large[8];
        for (int k = 0; k < 8; k++) {
            large[k] = malloc((size_t)(k + 1) << 20);
            if (large[k] == NULL)
                return 30;
            memset(large[k], 0x5C, (size_t)(k + 1) << 20);
        }
        unsigned char *more[4096];
        for (int k = 0; k < 4096; k++) {
            more[k] = malloc(OBJECT);
            if (more[k] == NULL)
                return 31;
            memset(more[k], 0x3A, OBJECT);
        }
        for (int k = 0; k < 8; k++)
            free(large[k]);
        for (int k = 0; k < 4096; k++)
            if (k % 16 != 0)
                free(more[k]);
        malloc_trim(0);
        for (int k = 0; k < 4096; k += 16)
            free(more[k]);
    }
    malloc_trim(0);

    for (int i = 0; i < OBJECTS; i++) {
        if (objs[i] == NULL)
            continue;
        for (int b = 0; b < OBJECT; b++)
            if (objs[i][b] != (unsigned char)(i * 7 + 1))
                return 40;
        free(objs[i]);
    }
    for (size_t off = 0; off < FILE_BYTES; off += CHUNK) {
        if (pread(fd, buf, CHUNK, (off_t)off) != CHUNK)
            return 50;
        for (size_t i = 0; i < CHUNK; i++)
            if (buf[i] != pattern(off + i))
                return 51;
    }
    free(buf);
    free(objs);
    if (mesh_sense_dump == NULL || mesh_sense_dump() != 0)
        return 60;
    return close(fd) == 0 ? 0 : 52;
}
