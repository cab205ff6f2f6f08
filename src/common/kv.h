/**
 * @file
 * The one reader for the repo's `key: value` dialect.
 *
 * Task specs, deployment presets, sweep specs and tune specs are all
 * hand-written in this dialect: one `key: value` per line, blank lines
 * and `#` comments skipped, the key ending at the first ':'. Each
 * dialect keeps only its key handling; read_kv() owns the line loop and
 * KvEntry owns value conversion, so every dialect rejects the same
 * malformed input the same way and every error names its line.
 *
 * Numbers are strict: a value must be consumed whole, a double must be
 * finite, and an integer is parsed straight into its destination type
 * (parse_int), so a minus sign on an unsigned field or a value past the
 * type's range is an error instead of a wrap.
 */
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/strings.h"

namespace tacc {

/** One `key: value` line, both sides trimmed. */
struct KvEntry {
    std::string key;
    std::string value;

    /** "bad value for <key>: <what>" (what defaults to the value). */
    Status bad(std::string_view what) const;
    Status bad() const { return bad(value); }

    /** The value's comma-separated items, trimmed; empty if any item
     *  (or the whole value) is empty. */
    std::vector<std::string> items() const;

    /**
     * Converts the whole value into *out (true|false, finite double,
     * integer of T's range, or non-empty string) and, when given,
     * requires ok(*out). *out is untouched on failure.
     */
    template <class T>
    Status
    read(T *out, std::type_identity_t<bool (*)(T)> ok = nullptr) const
    {
        return convert(value, out, ok) ? Status::ok() : bad();
    }

    /** Converts every item of a non-empty comma list into *out the same
     *  way; the error names the first bad item. */
    template <class T>
    Status
    read_list(std::vector<T> *out,
              std::type_identity_t<bool (*)(T)> ok = nullptr) const
    {
        const auto parts = items();
        if (parts.empty())
            return bad();
        std::vector<T> list(parts.size());
        for (size_t i = 0; i < parts.size(); ++i) {
            if (!convert(parts[i], &list[i], ok))
                return bad(parts[i]);
        }
        *out = std::move(list);
        return Status::ok();
    }

  private:
    /** The shared strict conversion behind read() and read_list(). */
    template <class T>
    static bool
    convert(std::string_view s, T *out, bool (*ok)(T))
    {
        T v{};
        bool parsed;
        if constexpr (std::is_same_v<T, bool>)
            parsed = parse_bool(s, &v);
        else if constexpr (std::is_floating_point_v<T>)
            parsed = parse_double(s, &v);
        else if constexpr (std::is_integral_v<T>)
            parsed = parse_int(s, &v);
        else
            parsed = !(v = std::string(s)).empty(); // std::string
        if (!parsed || (ok && !ok(v)))
            return false;
        *out = std::move(v);
        return true;
    }
};

/** @name Bounds for KvEntry::read (non-capturing lambdas work too) */
///@{
template <class T> bool positive(T v) { return v > 0; }
template <class T> bool non_negative(T v) { return v >= 0; }
inline bool fraction(double v) { return v >= 0 && v <= 1; }
inline bool positive_fraction(double v) { return v > 0 && v <= 1; }
inline bool at_least_one(double v) { return v >= 1; }
///@}

/**
 * Feeds every entry of `text` to apply, in order. Blank lines and lines
 * starting with '#' are skipped; a line without ':' is malformed. The
 * first failure ends the read and comes back as "line N: <message>"
 * with apply's status code (N counts from 1, blank lines included).
 */
Status read_kv(std::string_view text,
               const std::function<Status(const KvEntry &)> &apply);

} // namespace tacc
