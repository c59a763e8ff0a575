/**
 * @file
 * In-memory spans for the benchmark's traced pass.
 *
 * A span is (name, start, end, parent, request id). The traced pass
 * records spans around the public library calls it makes, keeps them
 * in memory, derives per-name self time from them (a span's duration
 * minus the part of it its children cover), and writes them as Chrome
 * trace-event JSON when the pass ends (load the file in
 * chrome://tracing or Perfetto).
 */
#ifndef SHREDDER_PERFBENCH_TRACE_H
#define SHREDDER_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady clock). */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded interval. `parent` is a span index or -1. */
struct Span
{
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request_id = 0;
    std::uint32_t lane = 0;  ///< Chrome `tid`: which loop recorded it.
};

/** Single-threaded span store (one per traced pass). */
class Tracer
{
  public:
    /** Intern `name`; the id stays valid for the tracer's lifetime. */
    std::uint32_t name_id(const std::string& name);

    /** Record a finished span; returns its index (usable as a parent). */
    std::int32_t add(std::uint32_t name, std::int32_t parent,
                     std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t request_id = 0, std::uint32_t lane = 0);

    /** Open a span ending at `close`; returns its index. */
    std::int32_t open(std::uint32_t name, std::int32_t parent,
                      std::uint64_t request_id = 0, std::uint32_t lane = 0);
    void close(std::int32_t span);

    /**
     * Self time of every span: its duration minus the union of its
     * children's intervals (clipped to the span).
     */
    std::vector<std::int64_t> self_times_ns() const;

    /** Self times grouped by span name (one entry per span). */
    std::map<std::string, std::vector<double>> self_us_by_name() const;

    /** Write every span as Chrome trace-event JSON. */
    bool write_chrome_json(const std::string& path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // SHREDDER_PERFBENCH_TRACE_H
