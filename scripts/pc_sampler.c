/*
 * SIGPROF program-counter sampler for scripts/sample.sh, loaded into
 * the profiled process with LD_PRELOAD.
 *
 * On load it arms ITIMER_PROF (one tick per millisecond of process
 * CPU time; the kernel rounds up to its own tick) and records the
 * interrupted PC of every SIGPROF. At exit it writes one line per
 * sample to pc_samples.<pid> in the working directory:
 *
 *     -        <hex address>   a PC in the main executable, as the
 *                              link-time address addr2line expects
 *     <path>   <hex address>   a PC in a shared object
 *     ?        <hex pc>        a PC in no executable segment
 *
 * Build: cc -O2 -shared -fPIC -o pc_sampler.so pc_sampler.c
 */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
#define MAX_SEGMENTS 256

static uintptr_t samples[MAX_SAMPLES];
static size_t taken;
static size_t dropped;

/* Executable segments of every loaded object, filled at exit. */
struct segment
{
    uintptr_t start, end, bias;
    const char *name; /* "" for the main executable */
};
static struct segment segments[MAX_SEGMENTS];
static size_t numSegments;

static void
onProf(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
#if defined(__x86_64__)
    const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sampler: unsupported architecture"
#endif
    const size_t slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        samples[slot] = pc;
    else
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
}

static int
collectSegments(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    (void)data;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        if (numSegments == MAX_SEGMENTS)
            return 1;
        struct segment *s = &segments[numSegments++];
        s->bias = info->dlpi_addr;
        s->start = info->dlpi_addr + ph->p_vaddr;
        s->end = s->start + ph->p_memsz;
        s->name = info->dlpi_name ? info->dlpi_name : "";
    }
    return 0;
}

__attribute__((constructor)) static void
startSampling(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval tv;
    tv.it_interval.tv_sec = 0;
    tv.it_interval.tv_usec = 1000;
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void
writeSamples(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    dl_iterate_phdr(collectSegments, NULL);

    char path[64];
    snprintf(path, sizeof(path), "pc_samples.%ld", (long)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror(path);
        return;
    }
    const size_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (size_t i = 0; i < n; ++i) {
        const uintptr_t pc = samples[i];
        const struct segment *hit = NULL;
        for (size_t s = 0; s < numSegments && !hit; ++s) {
            if (pc >= segments[s].start && pc < segments[s].end)
                hit = &segments[s];
        }
        if (!hit)
            fprintf(out, "?\t%#lx\n", (unsigned long)pc);
        else
            fprintf(out, "%s\t%#lx\n", hit->name[0] ? hit->name : "-",
                    (unsigned long)(pc - hit->bias));
    }
    fclose(out);
    if (dropped)
        fprintf(stderr, "pc_sampler: buffer full, %zu samples dropped\n",
                dropped);
}
