/*
 * In-process sampling profiler for hosts without `perf`, loaded with
 * LD_PRELOAD by scripts/profile.sh (which compiles it). A 1 ms
 * ITIMER_PROF timer raises SIGPROF on the process's own CPU time; the
 * handler stores the interrupted instruction pointer. At exit the samples
 * go to $MALS_SAMPLER_OUT (one hex address a line) and a copy of
 * /proc/self/maps to $MALS_SAMPLER_OUT.maps, for symbolization. Without
 * MALS_SAMPLER_OUT it does nothing; a process that leaves through _exit
 * (not exit, as Rust programs do) writes nothing.
 *
 * x86-64 Linux only. The kernel's tick bounds the real rate (often one
 * sample per ~4 ms of CPU).
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22)

static unsigned long samples[MAX_SAMPLES];
static unsigned long n_samples;
static char out_path[4096];

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sampler_start(void) {
    const char *out = getenv("MALS_SAMPLER_OUT");
    if (!out)
        return;
    snprintf(out_path, sizeof out_path, "%s", out);
    /* Only this process is sampled: its children start without the
     * sampler and cannot overwrite its output. */
    unsetenv("LD_PRELOAD");
    unsetenv("MALS_SAMPLER_OUT");
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (!out_path[0])
        return;
    FILE *f = fopen(out_path, "w");
    if (!f)
        return;
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(f, "%lx\n", samples[i]);
    fclose(f);
    char maps_path[sizeof out_path + sizeof ".maps"];
    snprintf(maps_path, sizeof maps_path, "%s.maps", out_path);
    FILE *src = fopen("/proc/self/maps", "r");
    FILE *dst = fopen(maps_path, "w");
    if (src && dst) {
        char buf[4096];
        size_t n;
        while ((n = fread(buf, 1, sizeof buf, src)) > 0)
            fwrite(buf, 1, n, dst);
    }
    if (src)
        fclose(src);
    if (dst)
        fclose(dst);
}
