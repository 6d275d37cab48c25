/* A modest C program for a process whose file-size limit is low, run
 * under LD_PRELOAD=libmesh.so by tests/c_abi.rs with `ulimit -f 1024`:
 * the heap's memory file is a file, so the soft RLIMIT_FSIZE caps it,
 * and sizing it past the limit would end the process with SIGXFSZ at its
 * first malloc. Everything here fits in a few hundred KiB.
 *
 * Reports through its exit status: 0 on success, or the number of the
 * check that failed. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define OBJECTS 512

int main(void) {
    unsigned char *objs[OBJECTS];
    for (int i = 0; i < OBJECTS; i++) {
        size_t size = 16 + (size_t)(i % 8) * 24;
        objs[i] = malloc(size);
        if (objs[i] == NULL)
            return 1;
        memset(objs[i], i & 0xFF, size);
    }
    unsigned char *block = calloc(1, 64 << 10);
    if (block == NULL)
        return 2;
    for (size_t b = 0; b < 64 << 10; b++)
        if (block[b] != 0)
            return 3;
    for (int i = 0; i < OBJECTS; i++) {
        if (objs[i][0] != (i & 0xFF))
            return 4;
        free(objs[i]);
    }
    free(block);
    printf("fsize_limit OK\n");
    return 0;
}
