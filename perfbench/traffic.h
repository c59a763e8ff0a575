/**
 * @file
 * The outside of the server: spawning `shredder_serve`, reading its
 * `/proc` counters and `/metrics` scrape, and driving SHRQ traffic at
 * it over loopback (open loop on a seeded Poisson schedule, or closed
 * loop with a fixed window of outstanding requests).
 *
 * The generator is one process with two threads — a sender and a
 * receiver that polls every connection — and one connection per
 * endpoint, at most `nproc`. Requests are pre-encoded SHRQ frames whose request id
 * is patched per send, so the generator's own cost stays small and
 * constant; latency is timed from each request's due time.
 */
#ifndef SHREDDER_PERFBENCH_TRAFFIC_H
#define SHREDDER_PERFBENCH_TRAFFIC_H

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/workload.h"

namespace perfbench {

/** A `shredder_serve --listen` child process (stopped by the destructor). */
class ServerProcess
{
  public:
    /**
     * Spawn `binary` on `manifest` and wait until it has written its
     * port file. Throws std::runtime_error if it exits or times out.
     */
    ServerProcess(const std::string& binary, const std::string& manifest,
                  const WorkloadSpec& spec, const std::string& work_dir);
    ~ServerProcess();
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    std::uint16_t port() const { return port_; }
    /** Steady-clock time just before the spawn. */
    std::int64_t spawned_ns() const { return spawned_ns_; }

    /** utime + stime of the process so far, in seconds. */
    double cpu_seconds() const;
    /** Peak resident set (`VmHWM`), in MB. */
    double peak_rss_mb() const;

    /** SIGTERM, then wait (SIGKILL after a grace period). Idempotent. */
    void stop();

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    std::int64_t spawned_ns_ = 0;
};

/** One `/metrics` scrape: sample line (name + labels) → value. */
struct Scrape
{
    std::map<std::string, double> samples;

    /** Sum of every sample of `family` (all label sets). */
    double sum(const std::string& family) const;
    /**
     * Aggregate queue-wait histogram: cumulative count at each `le`
     * bound in seconds (+Inf last), summed over endpoints.
     */
    std::vector<std::pair<double, double>> queue_wait_buckets() const;
};

/** GET /metrics off the server's listener. Throws on a transport error. */
Scrape scrape_metrics(std::uint16_t port);

/** Per-request record of one traffic phase. */
struct Record
{
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
    std::int64_t done_ns = 0;
    std::int64_t written_ns = 0;  ///< When the send returned.
    // Traced open-loop phases only.
    std::int64_t encoded_ns = 0;
    std::int64_t decoded_ns = 0;
    std::uint16_t pool = 0;
    std::uint8_t ep = 0;
    std::uint8_t conn = 0;  ///< Connection the request travels on.
    /** 0 pending, 1 ok, 2 failed (non-OK status or no answer). */
    std::uint8_t status = 0;
};

/** What one phase sent and got back. */
struct Phase
{
    std::string name;
    std::uint64_t id_base = 0;
    std::vector<Record> records;  ///< Index i carries id `id_base + i`.
    std::vector<float> outputs;   ///< `stride` floats per record.
    std::int64_t stride = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;     ///< When sending stopped.
    std::int64_t bytes_sent = 0;
    std::int64_t bytes_received = 0;
    /** Responses that matched no outstanding request, or bad frames. */
    std::int64_t unexpected = 0;
    std::int64_t wrong = 0;  ///< Filled by `check_outputs`.
    /** OK responses that matched the batch-8 recipe, not batch 1. */
    std::int64_t batch_rounded = 0;

    std::int64_t attempted() const
    {
        return static_cast<std::int64_t>(records.size());
    }
    std::int64_t count(std::uint8_t status) const;
    /** Due-to-response latencies (ms) of OK requests. */
    std::vector<double> latencies_ms() const;
    /** Send lateness against the schedule (ms), every request. */
    std::vector<double> lateness_ms() const;
    /**
     * The generator's own share of the lateness (ms): how long after
     * both its due time and the previous send's return each request
     * left. Time blocked in a send by the server's backpressure is
     * excluded.
     */
    std::vector<double> own_lateness_ms() const;
};

/** A seeded Poisson arrival schedule over a workload's endpoints. */
struct Schedule
{
    std::vector<std::int64_t> offset_ns;  ///< Due time after the start.
    std::vector<std::uint8_t> ep;
    std::vector<std::uint16_t> pool;
};

Schedule poisson_schedule(const WorkloadSpec& spec, double seconds,
                          std::uint64_t seed);

/**
 * Open loop: send each scheduled request at its due time, whether or
 * not earlier ones were answered. `traced` encodes each frame with
 * `net::encode_request` and stamps the encode/write/decode steps.
 */
Phase run_open_loop(const Deployment& d, std::uint16_t port,
                    const Schedule& schedule, const std::string& name,
                    std::uint64_t id_base, bool traced);

/**
 * Closed loop: keep `spec.peak_window` requests outstanding (split
 * over endpoints by share) for `seconds`, from one thread.
 */
Phase run_closed_loop(const Deployment& d, const WorkloadSpec& spec,
                      std::uint16_t port, double seconds,
                      const std::string& name, std::uint64_t id_base,
                      std::uint64_t seed);

/**
 * Send one request to endpoint 0 and wait for its response; true when
 * it came back OK. Used to time cold start.
 */
bool first_ok_response(const Deployment& d, std::uint16_t port,
                       std::uint64_t id);

/** Connections a workload's traffic uses: one per endpoint, ≤ nproc. */
int connection_count(const Deployment& d);

/** Batch of the second reference recipe in `check_outputs`. */
constexpr int kCheckBatch = 8;

/**
 * Check every OK response of `phase` against the serial recipe
 * `policy.apply(a, id)` → `SplitModel::cloud_forward`, in parallel.
 *
 * fp32 results must be bit-exact with that recipe run at batch 1 or
 * at a full batch of 8. The server batches up to 8 requests per
 * forward, and `gemm` switches from its small path to its blocked
 * path at 6 rows, which rounds differently; within either path a
 * row's result does not depend on the other rows, so those two
 * recipes cover every batch the server can form. int8 direct-path
 * endpoints must be within their max-abs tolerance of the batch-1
 * recipe. Sets `phase.wrong` and `phase.batch_rounded`; returns wrong.
 */
std::int64_t check_outputs(const Deployment& d, Phase& phase);

/** Linear-interpolated percentile `p` ∈ [0,1] of `values` (sorted here). */
double percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // SHREDDER_PERFBENCH_TRAFFIC_H
