/**
 * @file
 * Small string utilities shared across modules.
 */
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tacc {

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Splits on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Joins with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Strips leading/trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

/** True if s starts with prefix. */
bool starts_with(std::string_view s, std::string_view prefix);

/** Parses all of s as a base-10 integer into *out; false (and *out
 *  untouched) on an empty string, trailing junk, or overflow. */
template <class Int>
bool
parse_int(std::string_view s, Int *out)
{
    Int value{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    *out = value;
    return true;
}

/** Parses all of s as a finite decimal double into *out; false (and
 *  *out untouched) on an empty string, trailing junk, nan, inf or
 *  overflow. Locale-independent. */
bool parse_double(std::string_view s, double *out);

/** Parses exactly "true" or "false" into *out. */
bool parse_bool(std::string_view s, bool *out);

/** Human-readable byte count, e.g. "1.50 GiB". */
std::string format_bytes(uint64_t bytes);

/** Human-readable bandwidth from bytes/second, e.g. "12.5 Gbps". */
std::string format_gbps(double bytes_per_second);

} // namespace tacc
