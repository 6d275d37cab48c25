/* Fork safety: the arena is a MAP_SHARED memory file, which fork does NOT
 * copy-on-write — without the atfork protocol (quiesce locks, child
 * privatizes its copy of the file while the parent waits) the child's heap
 * writes would corrupt the parent's memory. This test makes that failure
 * mode loud:
 *
 *   1. parent fills buffers with a pattern,
 *   2. child (after fork) verifies them, overwrites them with ITS pattern,
 *      churns thousands of fresh allocations, re-verifies, exits,
 *   3. parent waits, then verifies its buffers still hold the ORIGINAL
 *      pattern (under shared pages the child's writes would show through),
 *   4. a second fork happens while a sibling thread is allocating, so a
 *      prepare-phase lock hand-off mid-refill is exercised too.
 */
#include <assert.h>
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#define KEEP 256
#define KEEP_SIZE 2048
#define CHILD_CHURN 20000

static unsigned char parent_tag(int i) { return (unsigned char)(0x40 | (i & 0x3F)); }
static unsigned char child_tag(int i) { return (unsigned char)(0x80 | (i & 0x3F)); }

static void churn(int rounds) {
    unsigned rng = 0xF0F0;
    for (int i = 0; i < rounds; i++) {
        rng = rng * 1103515245 + 12345;
        size_t size = 1 + (rng >> 16) % 4000;
        unsigned char *p = malloc(size);
        assert(p != NULL);
        memset(p, 0xEE, size);
        free(p);
    }
}

static volatile int keep_allocating = 1;
static void *background_allocator(void *arg) {
    (void)arg;
    while (keep_allocating)
        churn(64);
    return NULL;
}

int main(void) {
    unsigned char *keep[KEEP];
    for (int i = 0; i < KEEP; i++) {
        keep[i] = malloc(KEEP_SIZE);
        assert(keep[i] != NULL);
        memset(keep[i], parent_tag(i), KEEP_SIZE);
    }

    /* ---- fork #1: single-threaded, full integrity check ---- */
    pid_t pid = fork();
    assert(pid >= 0);
    if (pid == 0) {
        /* Child: sees the parent's data... */
        for (int i = 0; i < KEEP; i++)
            for (int j = 0; j < KEEP_SIZE; j += 13)
                assert(keep[i][j] == parent_tag(i));
        /* ...overwrites it with its own pattern (must NOT leak into the
         * parent), and churns the allocator hard. */
        for (int i = 0; i < KEEP; i++)
            memset(keep[i], child_tag(i), KEEP_SIZE);
        churn(CHILD_CHURN);
        for (int i = 0; i < KEEP; i++)
            for (int j = 0; j < KEEP_SIZE; j += 13)
                assert(keep[i][j] == child_tag(i));
        for (int i = 0; i < KEEP; i++)
            free(keep[i]);
        exit(0); /* not _exit: the atexit stats dump must run */
    }
    int status = -1;
    assert(waitpid(pid, &status, 0) == pid);
    assert(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    /* Parent: its pattern must be untouched by everything the child did. */
    for (int i = 0; i < KEEP; i++)
        for (int j = 0; j < KEEP_SIZE; j += 13)
            assert(keep[i][j] == parent_tag(i));

    /* ---- fork #2: while another thread is allocating ---- */
    pthread_t bg;
    assert(pthread_create(&bg, NULL, background_allocator, NULL) == 0);
    for (int round = 0; round < 4; round++) {
        pid = fork();
        assert(pid >= 0);
        if (pid == 0) {
            /* The background thread does not exist here; the heap must
             * still be consistent and usable. */
            churn(2000);
            for (int i = 0; i < KEEP; i++)
                for (int j = 0; j < KEEP_SIZE; j += 29)
                    assert(keep[i][j] == parent_tag(i));
            exit(0); /* not _exit: the atexit stats dump must run */
        }
        assert(waitpid(pid, &status, 0) == pid);
        assert(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    keep_allocating = 0;
    assert(pthread_join(bg, NULL) == 0);

    for (int i = 0; i < KEEP; i++)
        for (int j = 0; j < KEEP_SIZE; j += 13)
            assert(keep[i][j] == parent_tag(i));
    for (int i = 0; i < KEEP; i++)
        free(keep[i]);

    puts("fork_alloc OK");
    return 0;
}
