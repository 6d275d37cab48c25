/* A process started with fds 0, 1 and 2 closed, run under
 * LD_PRELOAD=libmesh.so by tests/c_abi.rs. The allocator's own file must
 * not take any of those numbers: the program's first three opens get 0,
 * 1 and 2, a 4 MiB write to its "stdout" lands in its own file, and the
 * heap's objects keep their stamps through churn and a meshing pass.
 *
 * Reports through its exit status only (it has no stdout): 0 on success,
 * or the number of the check that failed. argv[1] names a directory to
 * create the three files in. */
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern unsigned long long mesh_mesh_now(void) __attribute__((weak));

#define OBJECTS 20000
#define OBJECT 192
#define WRITE_BYTES (4 << 20)

int main(int argc, char **argv) {
    if (argc != 2)
        return 10;
    /* The heap exists before the opens: this allocation builds it. */
    unsigned char **objs = malloc(OBJECTS * sizeof *objs);
    if (objs == NULL)
        return 11;
    for (int i = 0; i < OBJECTS; i++) {
        objs[i] = malloc(OBJECT);
        if (objs[i] == NULL)
            return 12;
        memset(objs[i], (unsigned char)(i * 13 + 5), OBJECT);
    }

    const char *names[3] = {"in", "out", "err"};
    for (int want = 0; want < 3; want++) {
        char path[4096];
        snprintf(path, sizeof path, "%s/%s", argv[1], names[want]);
        int fd = open(path, O_RDWR | O_CREAT | O_TRUNC, 0600);
        if (fd != want)
            return 20 + want;
    }

    /* 4 MiB through "stdout", from a buffer on the heap. */
    unsigned char *buf = malloc(WRITE_BYTES);
    if (buf == NULL)
        return 30;
    memset(buf, 0x6B, WRITE_BYTES);
    size_t done = 0;
    while (done < WRITE_BYTES) {
        ssize_t n = write(1, buf + done, WRITE_BYTES - done);
        if (n <= 0)
            return 31;
        done += (size_t)n;
    }
    free(buf);

    /* Churn: free most, allocate more, then mesh what is left sparse. */
    for (int i = 0; i < OBJECTS; i++)
        if (i % 4 != 0) {
            free(objs[i]);
            objs[i] = NULL;
        }
    for (int round = 0; round < 50; round++) {
        void *tmp[256];
        for (int k = 0; k < 256; k++)
            if ((tmp[k] = malloc(16 + (size_t)(k * 37 % 2000))) == NULL)
                return 40;
        for (int k = 0; k < 256; k++)
            free(tmp[k]);
    }
    if (mesh_mesh_now)
        mesh_mesh_now();

    for (int i = 0; i < OBJECTS; i += 4)
        for (int b = 0; b < OBJECT; b++)
            if (objs[i][b] != (unsigned char)(i * 13 + 5))
                return 50;
    for (int i = 0; i < OBJECTS; i += 4)
        free(objs[i]);
    free(objs);

    /* What went to "stdout" is all there, and only that. */
    if (lseek(1, 0, SEEK_END) != WRITE_BYTES)
        return 60;
    return 0;
}
