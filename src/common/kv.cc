#include "common/kv.h"

namespace tacc {

Status
KvEntry::bad(std::string_view what) const
{
    return Status::invalid_argument("bad value for " + key + ": " +
                                    std::string(what));
}

std::vector<std::string>
KvEntry::items() const
{
    std::vector<std::string> out;
    for (const auto &part : split(value, ',')) {
        out.emplace_back(trim(part));
        if (out.back().empty())
            return {};
    }
    return out;
}

Status
read_kv(std::string_view text,
        const std::function<Status(const KvEntry &)> &apply)
{
    int lineno = 0;
    for (const auto &raw : split(text, '\n')) {
        ++lineno;
        const std::string_view line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        const size_t colon = line.find(':');
        Status s;
        if (colon == std::string_view::npos) {
            s = Status::invalid_argument("malformed line: " +
                                         std::string(line));
        } else {
            s = apply({std::string(trim(line.substr(0, colon))),
                       std::string(trim(line.substr(colon + 1)))});
        }
        if (!s.is_ok())
            return Status(s.code(),
                          strfmt("line %d: ", lineno) + s.message());
    }
    return Status::ok();
}

} // namespace tacc
