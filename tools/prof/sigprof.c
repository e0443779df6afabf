/* LD_PRELOAD sampler: a SIGPROF every millisecond of process CPU time
 * records the interrupted instruction pointer; at exit the samples and
 * /proc/self/maps go to $PROF_OUT. No unwinding — prof.sh turns each
 * address into its inline chain with addr2line. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    if (taken < MAX_SAMPLES)
        samples[taken++] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void set_timer(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    set_timer(1000);
}

__attribute__((destructor)) static void dump(void) {
    set_timer(0);
    const char *path = getenv("PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (unsigned i = 0; i < taken; i++)
        fprintf(out, "%lx\n", samples[i]);
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(out);
}
