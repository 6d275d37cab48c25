/* mesh-ctl over a live interposed heap: exercised by tests/c_ctl.rs.
 *
 * Runs under LD_PRELOAD=libmesh.so with MESH_CTL set, so this process
 * both OWNS the heap and connects to its own control socket (served by
 * the heap's background thread). It drives every envelope command plus
 * the mutating ones and prints each payload between `<<tag>>`/`<<end>>`
 * markers for the Rust side to validate.
 *
 * Reentrancy pin: between the profile-a and profile-b requests this
 * program performs NO allocation at all — the request plumbing uses
 * static buffers, and stdio is warmed before profile-a. The server
 * renders stats/prom/profile/sense/spectrum/ledger/trace in between;
 * if any of those exposition paths allocated outside the internal-alloc
 * guard, the allocation would be sampled by the profiler of this very
 * process and the `samples` counter would drift between a and b.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>

/* Mesh extensions exported by libmesh.so; weak so the binary links
 * without the preload (the test always supplies it). */
extern int mesh_ctl_active(void) __attribute__((weak));
extern int mesh_ctl_path(char *buf, size_t len) __attribute__((weak));

static char payload[1 << 20];

static int fail(const char *msg) {
  fprintf(stderr, "ctl.c: %s\n", msg);
  exit(1);
}

static int read_line(int fd, char *buf, size_t cap) {
  size_t n = 0;
  while (n + 1 < cap) {
    char c;
    if (read(fd, &c, 1) != 1)
      return -1;
    if (c == '\n') {
      buf[n] = 0;
      return (int)n;
    }
    buf[n++] = c;
  }
  return -1;
}

/* Sends one command and fills `payload` (NUL-terminated). Returns the
 * payload length for an `ok` reply, -1 with the error text in `payload`
 * for an `err` reply; any framing violation aborts the program. */
static long request(int fd, const char *cmd) {
  char header[128];
  if (write(fd, cmd, strlen(cmd)) < 0 || write(fd, "\n", 1) < 0)
    fail("request write");
  if (read_line(fd, header, sizeof header) < 0)
    fail("response header");
  if (!strncmp(header, "err ", 4)) {
    snprintf(payload, sizeof payload, "%s", header + 4);
    return -1;
  }
  if (strncmp(header, "ok ", 3))
    fail("response header is neither ok nor err");
  long len = atol(header + 3);
  if (len < 0 || (size_t)len + 1 > sizeof payload)
    fail("payload too large for the static buffer");
  size_t got = 0;
  while (got < (size_t)len + 1) { /* body + trailing newline */
    ssize_t r = read(fd, payload + got, (size_t)len + 1 - got);
    if (r <= 0)
      fail("payload read");
    got += (size_t)r;
  }
  if (payload[len] != '\n')
    fail("missing binary-safe frame terminator");
  payload[len] = 0;
  return len;
}

static void show(int fd, const char *tag, const char *cmd) {
  long n = request(fd, cmd);
  printf("<<%s rc=%s>>\n%s\n<<end>>\n", tag, n < 0 ? "err" : "ok", payload);
}

int main(void) {
  /* Fragmentation bait: small objects with 7/8 freed leave spans whose
   * live offsets are near-disjoint — mesh_now must find pairs. The
   * larger churn feeds the sampling profiler (64 KiB rate from the
   * test harness). Survivors stay live so profile envelopes are
   * non-empty. */
  static void *bait[4096];
  static void *survivors[1024];
  for (int i = 0; i < 4096; i++) {
    bait[i] = malloc(64);
    if (!bait[i])
      fail("malloc bait");
    memset(bait[i], 0x5A, 64);
  }
  for (int i = 0; i < 4096; i++)
    if (i % 8 != 0)
      free(bait[i]);
  for (int i = 0; i < 1024; i++) {
    survivors[i] = malloc(8192);
    if (!survivors[i])
      fail("malloc survivor");
    memset(survivors[i], 0xA5, 8192);
  }

  if (!mesh_ctl_active || !mesh_ctl_path)
    fail("mesh extensions missing (not running under libmesh.so?)");
  if (mesh_ctl_active() != 1)
    fail("mesh_ctl_active() != 1 under MESH_CTL");
  char path[108];
  if (mesh_ctl_path(path, sizeof path) <= 0)
    fail("mesh_ctl_path");
  const char *env_path = getenv("MESH_CTL");
  if (!env_path || strcmp(path, env_path))
    fail("mesh_ctl_path disagrees with MESH_CTL");
  printf("path=%s\n", path); /* also warms stdio's buffer allocation */

  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    fail("socket");
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path);
  if (connect(fd, (struct sockaddr *)&addr, sizeof addr) < 0)
    fail("connect");
  char greeting[64];
  if (read_line(fd, greeting, sizeof greeting) < 0 ||
      strcmp(greeting, "mesh-ctl 1"))
    fail("bad greeting");
  printf("greeting=%s\n", greeting);

  /* --- no allocation from here to profile-b (see header comment) --- */
  show(fd, "profile-a", "profile");
  show(fd, "stats", "stats");
  show(fd, "prom", "prom");
  show(fd, "sense", "sense");
  show(fd, "spectrum", "spectrum");
  show(fd, "ledger", "ledger");
  show(fd, "trace", "trace");
  show(fd, "profile-b", "profile");
  /* --- allocation allowed again --- */

  show(fd, "set-sample", "set prof_sample_bytes 131072");
  show(fd, "profile-c", "profile");
  show(fd, "set-period", "set mesh_period_ms 200");
  show(fd, "set-err", "set bogus 1");
  show(fd, "set-retired", "set transfer_batch 100000");
  /* Out of range is an err naming the range, never a clamped ack. */
  show(fd, "set-sample-zero", "set prof_sample_bytes 0");
  show(fd, "set-period-huge", "set mesh_period_ms 18446744073709551615");
  show(fd, "mesh-now", "mesh_now");
  show(fd, "stats-after-mesh", "stats");
  show(fd, "madvise-now", "madvise_now");
  show(fd, "help", "help");

  long n = request(fd, "pprof");
  if (n < 0)
    fail("pprof request failed");
  const char *out = getenv("MESH_PPROF_OUT");
  if (!out)
    fail("MESH_PPROF_OUT unset");
  int pf = open(out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (pf < 0)
    fail("open pprof out");
  if (write(pf, payload, (size_t)n) != n)
    fail("write pprof out");
  close(pf);
  printf("<<pprof rc=ok>>\nbytes=%ld\n<<end>>\n", n);

  close(fd);
  for (int i = 0; i < 1024; i++)
    free(survivors[i]);
  for (int i = 0; i < 4096; i += 8)
    free(bait[i]);
  printf("ctl-done\n");
  return 0;
}
