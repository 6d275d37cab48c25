/* A process whose soft file-size limit is below the heap's default cap
 * but above what one size class takes, run under LD_PRELOAD=libmesh.so
 * by tests/c_abi.rs under `ulimit -f`: the heap's one memory file is
 * sized within the limit, so the limit caps the heap. Large blocks are
 * allocated, never touched, until malloc returns NULL; what they add up
 * to must lie below the limit and above 256 MiB.
 *
 * Prints the limit and the bytes served. Reports through its exit
 * status: 0 on success, or the number of the check that failed. */
#include <stdio.h>
#include <stdlib.h>
#include <sys/resource.h>

#define BLOCK ((size_t)32 << 20)
#define MAX_BLOCKS 512

int main(void) {
    struct rlimit limit;
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0 || limit.rlim_cur == RLIM_INFINITY)
        return 1;
    void *blocks[MAX_BLOCKS];
    int n = 0;
    while (n < MAX_BLOCKS && (blocks[n] = malloc(BLOCK)) != NULL)
        n++;
    size_t served = (size_t)n * BLOCK;
    if (n == MAX_BLOCKS)
        return 2;
    if (served <= (size_t)256 << 20)
        return 3;
    if (served > limit.rlim_cur)
        return 4;
    for (int i = 0; i < n; i++)
        free(blocks[i]);
    void *again = malloc(BLOCK);
    if (again == NULL)
        return 5;
    free(again);
    printf("fsize_cap OK limit=%llu served=%zu\n", (unsigned long long)limit.rlim_cur, served);
    return 0;
}
