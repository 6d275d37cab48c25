/* A process that lowers its file-size limit after its heap is built and
 * then forks, run under LD_PRELOAD=libmesh.so by tests/c_abi.rs, as a
 * shell does for `ulimit -f N; cmd` or a daemon by setrlimit. The heap's
 * memory file was sized within the limit of its time; a forked child
 * copies it into a file of its own, which must be sized within the
 * limit of the child's time, or the kernel ends the child with SIGXFSZ
 * before it can exec.
 *
 * 1. Under a limit above the heap's frontier, the child finds every
 *    stamp, rewrites every object, allocates more and exits normally.
 *    The parent then finds its own stamps.
 * 2. Under a limit below the frontier, the child cannot copy the heap
 *    (one `mesh:` line says so); it touches nothing and leaves at once.
 *
 * Reports through its exit status: 0 on success, or the number of the
 * check that failed (the child's, plus 100, when the child failed). */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#define OBJECTS 4096
#define LARGE_BYTES (1 << 20)

static unsigned char *objs[OBJECTS];
static unsigned char *large;

static size_t size_of(int i) { return 16 + (size_t)(i % 32) * 48; }

static unsigned char stamp(int i, int child) { return (unsigned char)(i * 7 + 1 + child * 101); }

/* Whether every object holds its stamp; 0, or the failing check. */
static int check(int child) {
    for (int i = 0; i < OBJECTS; i++)
        if (objs[i][0] != stamp(i, child) || objs[i][size_of(i) - 1] != stamp(i, child))
            return 1;
    if (large[0] != stamp(OBJECTS, child) || large[LARGE_BYTES - 1] != stamp(OBJECTS, child))
        return 2;
    return 0;
}

static void write_all(int child) {
    for (int i = 0; i < OBJECTS; i++)
        memset(objs[i], stamp(i, child), size_of(i));
    memset(large, stamp(OBJECTS, child), LARGE_BYTES);
}

static int lower_file_size_limit(rlim_t bytes) {
    struct rlimit limit;
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0)
        return -1;
    limit.rlim_cur = bytes;
    return setrlimit(RLIMIT_FSIZE, &limit);
}

/* Forks; the child runs `child` and exits with its result. Returns 0 when
 * the child exited 0, 100 plus its status otherwise, or 200 when it was
 * killed by a signal. */
static int fork_and_wait(int (*child)(void)) {
    fflush(NULL);
    pid_t pid = fork();
    if (pid < 0)
        return 99;
    if (pid == 0)
        exit(child());
    int status;
    if (waitpid(pid, &status, 0) != pid)
        return 98;
    if (!WIFEXITED(status))
        return 200 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    return WEXITSTATUS(status) == 0 ? 0 : 100 + WEXITSTATUS(status);
}

static int copies_its_heap(void) {
    int failed = check(0);
    if (failed)
        return failed;
    write_all(1);
    unsigned char *more[OBJECTS];
    for (int i = 0; i < OBJECTS; i++) {
        more[i] = malloc(size_of(i));
        if (more[i] == NULL)
            return 3;
        memset(more[i], 0x5A, size_of(i));
    }
    for (int i = 0; i < OBJECTS; i++)
        free(more[i]);
    failed = check(1);
    return failed ? 10 + failed : 0;
}

static int leaves_at_once(void) { _exit(0); }

int main(void) {
    for (int i = 0; i < OBJECTS; i++) {
        objs[i] = malloc(size_of(i));
        if (objs[i] == NULL)
            return 1;
    }
    large = malloc(LARGE_BYTES);
    if (large == NULL)
        return 2;
    write_all(0);

    if (lower_file_size_limit(64 << 20) != 0)
        return 3;
    int failed = fork_and_wait(copies_its_heap);
    if (failed)
        return failed;
    if (check(0))
        return 4;

    if (lower_file_size_limit(64 << 10) != 0)
        return 5;
    failed = fork_and_wait(leaves_at_once);
    if (failed)
        return failed;
    if (check(0))
        return 6;
    printf("fsize_fork OK\n");
    return 0;
}
