#include "perfbench/workload.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

using namespace shredder;

WorkloadSpec
workload_by_name(const std::string& name)
{
    WorkloadSpec w;
    w.name = name;
    if (name == "edge-lenet") {
        // A forward costs microseconds: the front door, dispatch, the
        // 1 ms batching window and thread hand-offs own the latency.
        EndpointSpec ep;
        ep.name = "lenet";
        ep.policy = "replay";
        w.endpoints.push_back(ep);
        w.nominal_rps = 10000.0;
        w.peak_window = 64;
    } else if (name == "tenants-mixed") {
        // Four tenants on one deduplicated backbone, one shard each,
        // mixing policies, wire codecs and batchers under a skewed
        // load: one tenant takes half of it, the other three split the
        // rest evenly. Rate and saturation window are edge-lenet's, so
        // the two workloads differ only in how the load is spread. The
        // in-flight caps never bind at these rates.
        auto tenant = [](const char* n, const char* policy, WireDtype wire,
                         bool int8_compute, bool adaptive, double share) {
            EndpointSpec ep;
            ep.name = n;
            ep.policy = policy;
            ep.wire = wire;
            ep.int8_compute = int8_compute;
            ep.adaptive = adaptive;
            ep.share = share;
            ep.max_in_flight = 4096;
            return ep;
        };
        const double rest = 0.5 / 3.0;
        w.endpoints.push_back(tenant("t-replay", "replay", WireDtype::kF32,
                                     false, false, 0.5));
        w.endpoints.push_back(tenant("t-sample-i8", "sample",
                                     WireDtype::kI8, true, true, rest));
        w.endpoints.push_back(tenant("t-shuffle", "replay+shuffle",
                                     WireDtype::kF32, false, true, rest));
        w.endpoints.push_back(tenant("t-replay-i8", "replay",
                                     WireDtype::kI8, false, false, rest));
        w.nominal_rps = 10000.0;
        w.shards = 4;
        w.threads_per_shard = 1;
        w.peak_window = 64;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

namespace {

deploy::PolicySpec
policy_spec(const std::string& policy, std::uint64_t seed)
{
    deploy::PolicySpec spec;
    spec.seed = seed;
    if (policy == "replay") {
        spec.kind = deploy::PolicyKind::kReplay;
    } else if (policy == "sample") {
        spec.kind = deploy::PolicyKind::kSample;
    } else if (policy == "replay+shuffle") {
        spec.kind = deploy::PolicyKind::kComposed;
        deploy::PolicySpec replay;
        replay.kind = deploy::PolicyKind::kReplay;
        replay.seed = seed + 1;
        deploy::PolicySpec shuffle;
        shuffle.kind = deploy::PolicyKind::kShuffle;
        shuffle.seed = seed + 2;
        spec.stages = {replay, shuffle};
    } else {
        throw std::invalid_argument("unknown policy '" + policy + "'");
    }
    return spec;
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    return runtime::noise_seed(seed, salt);
}

}  // namespace

void
patch_request_id(std::string* frame, std::uint64_t id)
{
    for (int b = 0; b < 8; ++b) {
        (*frame)[kFrameIdOffset + static_cast<std::size_t>(b)] =
            static_cast<char>((id >> (8 * b)) & 0xFF);
    }
}

Deployment
make_deployment(const WorkloadSpec& spec, std::uint64_t seed,
                const std::string& dir)
{
    Deployment d;
    d.manifest_path = dir + "/manifest.txt";
    std::string manifest = "# generated by perfbench for workload " +
                           spec.name + "\n";

    // Every endpoint serves the same LeNet weights, split at its last
    // conv cut; the server's weight registry dedupes the copies.
    Rng net_rng(mix(seed, 1));
    const std::unique_ptr<nn::Sequential> net = models::make_lenet(net_rng);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    const Shape input = models::input_shape_for("lenet");
    const Shape act4 = split::SplitModel(*net, cut).activation_shape(input);
    const Shape act({act4[1], act4[2], act4[3]});

    for (std::size_t e = 0; e < spec.endpoints.size(); ++e) {
        const EndpointSpec& es = spec.endpoints[e];
        Rng rng(mix(seed, 100 + e));
        core::NoiseCollection collection;
        for (int i = 0; i < 8; ++i) {
            core::NoiseSample s;
            s.noise = Tensor::normal(act, rng, 0.0f, 0.5f);
            collection.add(std::move(s));
        }
        const core::NoiseDistribution dist =
            core::NoiseDistribution::fit(collection);

        deploy::BundleContents contents;
        contents.network = net.get();
        contents.cut = cut;
        contents.input_shape = input;
        contents.policy = policy_spec(es.policy, mix(seed, 200 + e));
        contents.collection = &collection;
        contents.distribution = &dist;
        contents.wire_dtype = es.wire;
        contents.int8_compute = es.int8_compute;

        Endpoint ep;
        ep.spec = es;
        ep.bundle_path = dir + "/" + es.name + ".shb";
        deploy::save_bundle(ep.bundle_path, contents);

        manifest += "endpoint " + es.name + " " + es.name +
                    ".shb max_batch=8 batch_timeout_ms=1";
        if (es.adaptive) {
            manifest += " adaptive_batching=true";
        }
        if (spec.shards > 1) {
            manifest += " shard=" + std::to_string(e % spec.shards);
        }
        if (es.max_in_flight > 0) {
            manifest += " max_in_flight=" + std::to_string(es.max_in_flight);
        }
        manifest += "\n";

        // The reference side loads the artifact exactly as the server
        // does, so it checks the served bundle, not the in-memory one.
        ep.bundle = std::make_unique<deploy::Bundle>(
            deploy::load_bundle(ep.bundle_path));
        ep.model = std::make_unique<split::SplitModel>(ep.bundle->network(),
                                                       ep.bundle->cut());
        ep.policy = ep.bundle->make_policy();
        ep.act_shape = ep.bundle->activation_shape();
        ep.batched_act_shape = Shape({1, act[0], act[1], act[2]});
        ep.int8_tolerance = es.int8_compute ? 0.5 : 0.0;

        for (int i = 0; i < kPoolSize; ++i) {
            Tensor a = Tensor::uniform(act, rng, 0.0f, 2.0f);
            net::Request req;
            req.request_id = 0;
            req.endpoint = es.name;
            if (es.wire == WireDtype::kF32) {
                req.activation = a;
                ep.served_pool.push_back(a);
            } else {
                req.quantized = quantize(a, es.wire);
                req.is_quantized = true;
                ep.served_pool.push_back(dequantize(req.quantized));
            }
            ep.frames.push_back(net::encode_request(req));
            ep.pool.push_back(std::move(a));
        }
        // The id patch relies on the SHRQ layout (envelope, then the
        // u64 request id); check it once against the real decoder.
        {
            std::string probe = ep.frames.front();
            patch_request_id(&probe, 0x0123456789ABCDEFULL);
            const net::Request back =
                net::decode_request_payload(probe.substr(kFrameIdOffset));
            if (back.request_id != 0x0123456789ABCDEFULL ||
                back.endpoint != es.name) {
                throw std::runtime_error("SHRQ request-id patch mismatch");
            }
        }
        nn::ExecutionContext ctx;
        const Tensor out = ep.model->cloud_forward(
            noised_activation(ep, 0, 0).reshaped(ep.batched_act_shape), ctx);
        ep.out_numel = out.size();
        d.endpoints.push_back(std::move(ep));
    }

    std::FILE* f = std::fopen(d.manifest_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(manifest.data(), 1, manifest.size(), f) !=
            manifest.size() ||
        std::fclose(f) != 0) {
        throw std::runtime_error("cannot write " + d.manifest_path);
    }
    return d;
}

Tensor
noised_activation(const Endpoint& ep, int pool_index, std::uint64_t id)
{
    return ep.policy->apply(
        ep.served_pool[static_cast<std::size_t>(pool_index)], id);
}

}  // namespace perfbench
