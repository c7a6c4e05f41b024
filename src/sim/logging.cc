#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace molecule::sim {

namespace {

LogPrefixFn g_prefix = nullptr;

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    char prefix[96];
    std::size_t n = 0;
    if (g_prefix != nullptr)
        n = g_prefix(prefix, sizeof(prefix));
    if (n > 0)
        std::fprintf(stderr, "%.*s", int(n), prefix);
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
}

} // namespace

void
setLogPrefixHook(LogPrefixFn fn)
{
    g_prefix = fn;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

} // namespace molecule::sim
