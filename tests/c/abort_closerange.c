/* Hardened mode's abort line after a daemon-style descriptor sweep, run
 * under LD_PRELOAD=libmesh.so with MESH_HARDEN=abort by
 * tests/c_harden.rs. The heap keeps a private dup of stderr at 3 or
 * more for its diagnostics. The program closes every descriptor from 3
 * up, puts a data file of its own on the dup's old number, then frees
 * one object twice. The heap must abort with its one-line diagnostic on
 * stderr and leave the data file as written.
 *
 * argv[1] names the data file to create. Exits 10+ when a step before
 * the double free fails, 0 if the double free did not abort. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

static const char DATA[] = "abort_closerange data: these bytes stay as written\n";

/* The lowest descriptor from 3 up that names the file fd 2 names, or -1. */
static int stderr_dup(void) {
    struct stat err, st;
    if (fstat(2, &err) != 0)
        return -1;
    for (int fd = 3; fd < 1024; fd++)
        if (fstat(fd, &st) == 0 && st.st_dev == err.st_dev && st.st_ino == err.st_ino)
            return fd;
    return -1;
}

int main(int argc, char **argv) {
    if (argc != 2)
        return 10;
    /* The heap, and its dup, exist from the first malloc on. */
    char *volatile first = malloc(16);
    free(first);
    int theirs = stderr_dup();
    if (theirs < 0)
        return 11; /* no dup: not running on Mesh under MESH_HARDEN=abort */
    if (syscall(SYS_close_range, 3u, ~0u, 0u) != 0)
        for (int fd = 3; fd < 1024; fd++)
            close(fd);

    int fd = open(argv[1], O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd < 0)
        return 12;
    if (fd != theirs) {
        if (dup2(fd, theirs) != theirs)
            return 13;
        close(fd);
    }
    if (write(theirs, DATA, sizeof DATA - 1) != (ssize_t)(sizeof DATA - 1))
        return 14;

    char *volatile p = malloc(64);
    if (p == NULL)
        return 15;
    memset(p, 0x5A, 64);
    free(p);
    free(p);
    printf("abort_closerange UNEXPECTED: the double free did not abort\n");
    return 0;
}
