#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::uint32_t
Tracer::name_id(const std::string& name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
        return it->second;
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

std::int32_t
Tracer::add(std::uint32_t name, std::int32_t parent, std::int64_t start_ns,
            std::int64_t end_ns, std::uint64_t request_id,
            std::uint32_t lane)
{
    spans_.push_back(Span{name, parent, start_ns, end_ns, request_id, lane});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t
Tracer::open(std::uint32_t name, std::int32_t parent,
             std::uint64_t request_id, std::uint32_t lane)
{
    const std::int64_t t = now_ns();
    return add(name, parent, t, t, request_id, lane);
}

void
Tracer::close(std::int32_t span)
{
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::vector<std::int64_t>
Tracer::self_times_ns() const
{
    std::vector<std::vector<std::int32_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0) {
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<std::int32_t>(i));
        }
    }
    std::vector<std::int64_t> self(spans_.size(), 0);
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        cover.clear();
        for (const std::int32_t c : children[i]) {
            const Span& k = spans_[static_cast<std::size_t>(c)];
            const std::int64_t a = std::max(k.start_ns, s.start_ns);
            const std::int64_t b = std::min(k.end_ns, s.end_ns);
            if (b > a) {
                cover.emplace_back(a, b);
            }
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (const auto& [a, b] : cover) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::map<std::string, std::vector<double>>
Tracer::self_us_by_name() const
{
    const std::vector<std::int64_t> self = self_times_ns();
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[names_[spans_[i].name]].push_back(
            static_cast<double>(self[i]) / 1e3);
    }
    return out;
}

bool
Tracer::write_chrome_json(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Span names are benchmark-chosen identifiers (no quotes or
        // backslashes), so they are written unescaped.
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"span\":%zu,\"parent\":%d,\"request_id\":%llu}}\n",
                     i == 0 ? "" : ",", names_[s.name].c_str(), s.lane,
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent,
                     static_cast<unsigned long long>(s.request_id));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
