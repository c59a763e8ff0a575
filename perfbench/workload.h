/**
 * @file
 * The benchmark's traffic mixes, the deployment artifacts generated for
 * them, and the serial reference every served response is checked
 * against.
 */
#ifndef SHREDDER_PERFBENCH_WORKLOAD_H
#define SHREDDER_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/shredder/shredder.h"

namespace perfbench {

using shredder::Shape;
using shredder::Tensor;
using shredder::WireDtype;

/** One endpoint of a traffic mix (LeNet at its last conv cut). */
struct EndpointSpec
{
    std::string name;
    /** "replay", "sample" or "replay+shuffle" (a composed chain). */
    std::string policy;
    WireDtype wire = WireDtype::kF32;
    bool int8_compute = false;
    bool adaptive = false;
    double share = 1.0;             ///< Share of the mix's requests.
    std::int64_t max_in_flight = 0; ///< Admission cap; 0 = none.
};

/** One traffic mix (a benchmark workload). */
struct WorkloadSpec
{
    std::string name;
    std::vector<EndpointSpec> endpoints;
    double nominal_rps = 0.0;  ///< Aggregate Poisson rate, nominal phase.
    unsigned shards = 1;
    unsigned threads_per_shard = 0;  ///< 0 = shredder_serve's default.
    int peak_window = 1;  ///< Outstanding requests in the saturation phase.
};

/** The workload named `name`; throws std::invalid_argument if unknown. */
WorkloadSpec workload_by_name(const std::string& name);

/** Distinct activations each endpoint cycles through. */
constexpr int kPoolSize = 32;

/**
 * Runner-side view of one endpoint: the bundle the server loads, the
 * pre-encoded request frames, and the serial recipe outputs are
 * checked against.
 */
struct Endpoint
{
    EndpointSpec spec;
    std::string bundle_path;
    std::unique_ptr<shredder::deploy::Bundle> bundle;
    std::unique_ptr<shredder::split::SplitModel> model;
    std::shared_ptr<const shredder::runtime::NoisePolicy> policy;
    Shape act_shape;          ///< Per-sample activation shape (CHW).
    Shape batched_act_shape;  ///< With a leading batch of one.
    /** Activations as clients send them (before any wire codec). */
    std::vector<Tensor> pool;
    /** What the server decodes: `pool` after the wire codec. */
    std::vector<Tensor> served_pool;
    /** Complete SHRQ frames of `pool`, request id 0 (patched per send). */
    std::vector<std::string> frames;
    std::int64_t out_numel = 0;
    double int8_tolerance = 0.0;  ///< 0 = bit-exact.
};

/** Everything a run needs on disk plus the runner-side endpoints. */
struct Deployment
{
    std::string manifest_path;
    std::vector<Endpoint> endpoints;
};

/**
 * Write the workload's bundles and manifest under `dir` (weights,
 * noise and activations all derive from `seed`), then load them back
 * as the reference endpoints.
 */
Deployment make_deployment(const WorkloadSpec& spec, std::uint64_t seed,
                           const std::string& dir);

/** Byte offset of the u64 request id inside an SHRQ frame. */
constexpr std::size_t kFrameIdOffset = 12;

/** Overwrite the request id of an encoded SHRQ frame. */
void patch_request_id(std::string* frame, std::uint64_t id);

/** The reference noise step: `policy.apply` on the served activation. */
Tensor noised_activation(const Endpoint& ep, int pool_index,
                         std::uint64_t id);

}  // namespace perfbench

#endif  // SHREDDER_PERFBENCH_WORKLOAD_H
