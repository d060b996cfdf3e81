/* SIGPROF stack sampler, loaded into a program with LD_PRELOAD by
 * tools/cpu_profile.py (which builds it with `cc -shared`).
 *
 * When CPU_PROFILE_OUT is set, the library arms setitimer(ITIMER_PROF) at
 * load, so the kernel sends SIGPROF for every millisecond of CPU time the
 * process burns (or every tick, if its tick is longer), on whichever
 * thread burned it.
 * The handler records that thread's stack with backtrace() into a buffer
 * mapped once at load; it neither allocates nor locks. At exit the
 * library stops the timer, waits for handlers still running, and writes
 *
 *   $CPU_PROFILE_OUT.<pid>.stacks  little-endian 64-bit words: magic,
 *                                  sampling interval in us, samples
 *                                  dropped for lack of room, then one
 *                                  record per sample: depth, the
 *                                  sampled thread's id, then the
 *                                  interrupted pc and the return
 *                                  addresses above it, innermost first
 *   $CPU_PROFILE_OUT.<pid>.maps    a copy of /proc/self/maps
 *
 * cpu_profile.py symbolizes the addresses against the maps copy with nm
 * and readelf. A forked child that exits without exec writes nothing.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAGIC 0x32666f7270757063ull /* "cpuprof2" */
#define INTERVAL_US 1000
#define MAX_DEPTH 128
#define BUF_WORDS (1u << 24) /* 128 MiB reserved, touched as filled */

static uint64_t* buf;
static uint64_t used;     /* words reserved in buf */
static uint64_t dropped;  /* samples that found no room */
static int stopping;
static int in_flight;
static pid_t owner;
static char out_prefix[4000];

static uintptr_t interrupted_pc(void* context) {
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

static void record(void* context) {
  void* frames[MAX_DEPTH];
  const int n = backtrace(frames, MAX_DEPTH);
  const uintptr_t pc = interrupted_pc(context);
  /* Drop the handler's own frames and the signal trampoline: the stack
   * starts at the interrupted pc. If the unwinder did not get through
   * the signal frame, keep the pc alone. */
  int first = -1;
  for (int i = 0; i < n; ++i) {
    if ((uintptr_t)frames[i] == pc) {
      first = i;
      break;
    }
  }
  const uint64_t depth = first < 0 ? (pc != 0 ? 1 : 0) : (uint64_t)(n - first);
  if (depth == 0) return;
  const uint64_t at = __atomic_fetch_add(&used, depth + 2, __ATOMIC_RELAXED);
  if (at + depth + 2 > BUF_WORDS) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  uint64_t* rec = buf + at;
  rec[0] = depth;
  rec[1] = (uint64_t)gettid(); /* async-signal-safe */
  if (first < 0) {
    rec[2] = pc;
  } else {
    for (uint64_t i = 0; i < depth; ++i) {
      rec[2 + i] = (uintptr_t)frames[first + (int)i];
    }
  }
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  __atomic_add_fetch(&in_flight, 1, __ATOMIC_SEQ_CST);
  if (!__atomic_load_n(&stopping, __ATOMIC_SEQ_CST)) record(context);
  __atomic_sub_fetch(&in_flight, 1, __ATOMIC_SEQ_CST);
  errno = saved_errno;
}

static int write_all(int fd, const void* data, size_t len) {
  const char* p = (const char*)data;
  while (len > 0) {
    const ssize_t w = write(fd, p, len);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return -1;
    p += w;
    len -= (size_t)w;
  }
  return 0;
}

static void write_file(const char* suffix, const void* head, size_t head_len,
                       const void* body, size_t body_len) {
  char path[sizeof(out_prefix) + 64];
  snprintf(path, sizeof(path), "%s.%ld.%s", out_prefix, (long)owner, suffix);
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    fprintf(stderr, "cpu_profile: cannot write %s: %s\n", path,
            strerror(errno));
    return;
  }
  if (write_all(fd, head, head_len) != 0 ||
      write_all(fd, body, body_len) != 0) {
    fprintf(stderr, "cpu_profile: short write to %s\n", path);
  }
  close(fd);
}

static void copy_maps(void) {
  const int in = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  if (in < 0) return;
  size_t cap = 1u << 20, len = 0;
  char* text = malloc(cap);
  while (text != NULL) {
    if (len == cap) {
      char* grown = realloc(text, cap * 2);
      if (grown == NULL) break;
      text = grown;
      cap *= 2;
    }
    const ssize_t r = read(in, text + len, cap - len);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    len += (size_t)r;
  }
  close(in);
  if (text != NULL) write_file("maps", "", 0, text, len);
  free(text);
}

__attribute__((constructor)) static void cpu_profile_start(void) {
  const char* out = getenv("CPU_PROFILE_OUT");
  if (out == NULL || *out == '\0') return;
  if (strlen(out) >= sizeof(out_prefix)) {
    fprintf(stderr, "cpu_profile: CPU_PROFILE_OUT too long\n");
    return;
  }
  strcpy(out_prefix, out);
  buf = mmap(NULL, (size_t)BUF_WORDS * sizeof(uint64_t),
             PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
             -1, 0);
  if (buf == MAP_FAILED) {
    buf = NULL;
    fprintf(stderr, "cpu_profile: cannot map the sample buffer\n");
    return;
  }
  /* The first backtrace() loads the unwinder; do it here, not in the
   * handler. */
  void* warm[4];
  (void)backtrace(warm, 4);
  owner = getpid();

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = INTERVAL_US;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void cpu_profile_stop(void) {
  if (buf == NULL || getpid() != owner) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  __atomic_store_n(&stopping, 1, __ATOMIC_SEQ_CST);
  while (__atomic_load_n(&in_flight, __ATOMIC_SEQ_CST) != 0) {
    /* Another thread is inside the handler; it finishes in microseconds. */
  }
  signal(SIGPROF, SIG_IGN);

  uint64_t words = __atomic_load_n(&used, __ATOMIC_SEQ_CST);
  if (words > BUF_WORDS) words = BUF_WORDS;
  const uint64_t head[3] = {MAGIC, INTERVAL_US,
                            __atomic_load_n(&dropped, __ATOMIC_SEQ_CST)};
  write_file("stacks", head, sizeof(head), buf, words * sizeof(uint64_t));
  copy_maps();
  buf = NULL;
}
