/* A daemon-style process that forks after losing the heap's descriptor,
 * run under LD_PRELOAD=libmesh.so by tests/c_abi.rs. It stamps small
 * objects (7 in 8 freed, then malloc_trim(0) meshes the rest) and large
 * ones, closes every descriptor from 3 up, opens a data file on the
 * number the heap's memory file had, and forks.
 *
 * The child must find every stamp: its heap was copied from the mapping,
 * not through the descriptor, which now names the data file. It then
 * rewrites every object, churns, trims and checks its own stamps again.
 * The parent waits, finds its own stamps (the child's writes went to the
 * child's file), and finds the data file as written.
 *
 * Reports through its exit status: 0 on success, or the number of the
 * check that failed (the child's, plus 100, when the child failed).
 * argv[1] names the data file to create. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#define FILE_BYTES (4 << 20)
#define OBJECTS 16384
#define OBJECT 256
#define LARGE 4
#define LARGE_BYTES (1 << 20)

static unsigned char pattern(size_t i) { return (unsigned char)(i * 131 + (i >> 12)); }

static unsigned char stamp(int i, int child) { return (unsigned char)(i * 7 + 1 + child * 101); }

static unsigned char *objs[OBJECTS];
static unsigned char *large[LARGE];

/* Whether every object holds its stamp; 0, or the failing check. */
static int check(int child) {
    for (int i = 0; i < OBJECTS; i++) {
        if (objs[i] == NULL)
            continue;
        for (int b = 0; b < OBJECT; b++)
            if (objs[i][b] != stamp(i, child))
                return 1;
    }
    for (int k = 0; k < LARGE; k++)
        for (size_t b = 0; b < LARGE_BYTES; b += 4096)
            if (large[k][b] != stamp(k, child) || large[k][LARGE_BYTES - 1] != stamp(k, child))
                return 2;
    return 0;
}

static void rewrite(int child) {
    for (int i = 0; i < OBJECTS; i++)
        if (objs[i] != NULL)
            memset(objs[i], stamp(i, child), OBJECT);
    for (int k = 0; k < LARGE; k++)
        memset(large[k], stamp(k, child), LARGE_BYTES);
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

static int child_main(void) {
    int bad = check(0);
    if (bad)
        return 10 + bad;
    rewrite(1);
    /* The child's heap is its own again: churn, mesh and purge in it. */
    for (int round = 0; round < 4; round++) {
        unsigned char *more[2048];
        for (int k = 0; k < 2048; k++) {
            more[k] = malloc(OBJECT);
            if (more[k] == NULL)
                return 20;
            memset(more[k], 0x3A, OBJECT);
        }
        for (int k = 0; k < 2048; k++)
            if (k % 16 != 0)
                free(more[k]);
        malloc_trim(0);
        for (int k = 0; k < 2048; k += 16)
            free(more[k]);
    }
    malloc_trim(0);
    bad = check(1);
    return bad ? 30 + bad : 0;
}

int main(int argc, char **argv) {
    if (argc != 2)
        return 1;
    for (int i = 0; i < OBJECTS; i++) {
        objs[i] = malloc(OBJECT);
        if (objs[i] == NULL)
            return 2;
    }
    for (int k = 0; k < LARGE; k++) {
        large[k] = malloc(LARGE_BYTES);
        if (large[k] == NULL)
            return 3;
    }
    for (int i = 0; i < OBJECTS; i++)
        if (i % 8 != 0) {
            free(objs[i]);
            objs[i] = NULL;
        }
    rewrite(0);
    malloc_trim(0); /* meshes the survivors: their spans become aliases */
    if (check(0) != 0)
        return 4;

    int theirs = heap_fd();
    if (theirs < 0)
        return 5; /* not running on Mesh */
    if (syscall(SYS_close_range, 3u, ~0u, 0u) != 0)
        for (int fd = 3; fd < 1024; fd++)
            close(fd);
    int fd = open(argv[1], O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd != theirs)
        return 6; /* the file did not take the heap's number */
    unsigned char *buf = malloc(FILE_BYTES);
    if (buf == NULL)
        return 7;
    for (size_t i = 0; i < FILE_BYTES; i++)
        buf[i] = pattern(i);
    if (pwrite(fd, buf, FILE_BYTES, 0) != FILE_BYTES)
        return 8;
    /* A trim after the loss: the heap finds its file gone. */
    malloc_trim(0);

    fflush(NULL);
    pid_t pid = fork();
    if (pid < 0)
        return 9;
    if (pid == 0)
        exit(child_main());
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return 40;
    if (!WIFEXITED(status))
        return 41;
    if (WEXITSTATUS(status) != 0)
        return 100 + WEXITSTATUS(status);

    if (check(0) != 0)
        return 50; /* the child wrote into the parent's heap */
    memset(buf, 0, FILE_BYTES);
    if (pread(fd, buf, FILE_BYTES, 0) != FILE_BYTES)
        return 51;
    for (size_t i = 0; i < FILE_BYTES; i++)
        if (buf[i] != pattern(i))
            return 52; /* the heap wrote into the data file */
    free(buf);
    for (int i = 0; i < OBJECTS; i++)
        free(objs[i]);
    for (int k = 0; k < LARGE; k++)
        free(large[k]);
    return close(fd) == 0 ? 0 : 53;
}
