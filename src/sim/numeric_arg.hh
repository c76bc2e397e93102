/**
 * @file
 * Checked parsing of numeric command-line values, shared by every
 * binary (the examples and the benches). A value is accepted only
 * when the whole string is a number inside the stated range: no sign
 * on integers, no leading whitespace, no trailing text. On anything
 * else the helpers print one "bad value" line to stderr and return
 * false; callers then exit with status 2 instead of running on a
 * silently substituted value.
 */

#ifndef LATR_SIM_NUMERIC_ARG_HH_
#define LATR_SIM_NUMERIC_ARG_HH_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace latr
{

/**
 * Parse @p text, the value of option @p key, as a decimal integer in
 * [lo, hi]; on failure report it and return false.
 */
inline bool
parseUnsignedArg(const char *key, const char *text, std::uint64_t lo,
                 std::uint64_t hi, std::uint64_t *out)
{
    if (*text >= '0' && *text <= '9') {
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (errno == 0 && *end == '\0' && v >= lo && v <= hi) {
            *out = v;
            return true;
        }
    }
    std::fprintf(stderr,
                 "bad value '%s' for %s: want an integer in "
                 "[%llu, %llu]\n",
                 text, key, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
}

/**
 * Parse @p text, the value of option @p key, as a finite number in
 * [lo, hi]; on failure report it and return false.
 */
inline bool
parseRealArg(const char *key, const char *text, double lo, double hi,
             double *out)
{
    if (*text != '\0' &&
        !std::isspace(static_cast<unsigned char>(*text))) {
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(text, &end);
        if (errno == 0 && *end == '\0' && std::isfinite(v) && v >= lo &&
            v <= hi) {
            *out = v;
            return true;
        }
    }
    std::fprintf(stderr,
                 "bad value '%s' for %s: want a number in [%g, %g]\n",
                 text, key, lo, hi);
    return false;
}

} // namespace latr

#endif // LATR_SIM_NUMERIC_ARG_HH_
