#include "perfbench/traffic.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench/trace.h"

extern char** environ;

namespace perfbench {

using namespace shredder;

namespace {

/** An owned socket descriptor. */
class Fd
{
  public:
    explicit Fd(int fd = -1) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }
    Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd& operator=(Fd&&) = delete;
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    int get() const { return fd_; }

  private:
    int fd_;
};

Fd
connect_loopback(std::uint16_t port)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (fd.get() < 0) {
        throw std::runtime_error("socket() failed");
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        throw std::runtime_error("connect to 127.0.0.1:" +
                                 std::to_string(port) + " failed");
    }
    return fd;
}

void
write_all(int fd, const char* data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) {
            continue;
        }
        if (w <= 0) {
            throw std::runtime_error("send() failed");
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
}

std::uint32_t
read_u32(const char* p)
{
    std::uint32_t v = 0;
    for (int b = 3; b >= 0; --b) {
        v = (v << 8) | static_cast<unsigned char>(p[b]);
    }
    return v;
}

constexpr std::size_t kEnvelope = 12;
constexpr int kPollMs = 20;
/** Longest a phase waits for outstanding responses after sending. */
constexpr std::int64_t kDrainNs = 20'000'000'000;

/**
 * The connections of one phase plus its response parser. `send` is
 * called by exactly one thread (the sender; in closed loop the
 * receiver) and `pump` by the receiver. A record counts as issued
 * from just before its frame is written, so its response can never
 * arrive before the receiver knows about it.
 */
class Wire
{
  public:
    Wire(const Deployment& d, std::uint16_t port, Phase& phase, bool traced,
         int connections)
        : d_(d), phase_(phase), traced_(traced)
    {
        for (int c = 0; c < connections; ++c) {
            conns_.push_back(Conn{connect_loopback(port), {}, 0, true});
        }
        scratch_.resize(d.endpoints.size());
        read_buf_.resize(1 << 18);
    }

    /** Put record `i` on the wire (its ep/pool/due are already set). */
    void send(std::size_t i)
    {
        Record& r = phase_.records[i];
        const Endpoint& ep = d_.endpoints[r.ep];
        const std::uint64_t id = phase_.id_base + i;
        std::string& frame = scratch_[r.ep];
        r.sent_ns = now_ns();
        if (traced_) {
            net::Request req;
            req.request_id = id;
            req.endpoint = ep.spec.name;
            if (ep.spec.wire == WireDtype::kF32) {
                req.activation = ep.pool[r.pool];
            } else {
                req.quantized = quantize(ep.pool[r.pool], ep.spec.wire);
                req.is_quantized = true;
            }
            frame = net::encode_request(req);
            r.encoded_ns = now_ns();
        } else {
            frame = ep.frames[r.pool];
            patch_request_id(&frame, id);
        }
        issued_.store(i + 1, std::memory_order_release);
        write_all(conns_[r.conn].fd.get(),
                  frame.data(), frame.size());
        r.written_ns = now_ns();
        phase_.bytes_sent += static_cast<std::int64_t>(frame.size());
    }

    /** Records put on the wire so far (indices below are outstanding). */
    std::size_t issued() const
    {
        return issued_.load(std::memory_order_acquire);
    }

    /**
     * Wait up to kPollMs for responses and settle every complete
     * frame; `on_done(i)` runs for each settled record.
     */
    template <class F>
    void pump(F&& on_done)
    {
        std::vector<pollfd> fds;
        std::vector<std::size_t> which;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            if (conns_[c].open) {
                fds.push_back(pollfd{conns_[c].fd.get(), POLLIN, 0});
                which.push_back(c);
            }
        }
        if (fds.empty()) {
            return;
        }
        if (::poll(fds.data(), fds.size(), kPollMs) <= 0) {
            return;
        }
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (fds[k].revents == 0) {
                continue;
            }
            Conn& conn = conns_[which[k]];
            const ssize_t n =
                ::recv(conn.fd.get(), read_buf_.data(), read_buf_.size(), 0);
            const std::int64_t t = now_ns();
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                conn.open = false;
                continue;
            }
            phase_.bytes_received += n;
            conn.buf.append(read_buf_.data(), static_cast<std::size_t>(n));
            parse(conn, static_cast<int>(which[k]), t, on_done);
        }
    }

    bool any_open() const
    {
        for (const Conn& c : conns_) {
            if (c.open) {
                return true;
            }
        }
        return false;
    }

  private:
    struct Conn
    {
        Fd fd;
        std::string buf;
        std::size_t head = 0;
        bool open = true;
    };

    template <class F>
    void parse(Conn& conn, int c, std::int64_t t, F&& on_done)
    {
        while (conn.buf.size() - conn.head >= kEnvelope) {
            const char* p = conn.buf.data() + conn.head;
            const std::uint32_t magic = read_u32(p);
            const std::uint32_t len = read_u32(p + 8);
            if (magic != net::kResponseMagic || len > net::kMaxFramePayload) {
                ++phase_.unexpected;
                conn.open = false;
                return;
            }
            if (conn.buf.size() - conn.head < kEnvelope + len) {
                break;
            }
            net::Response resp;
            try {
                resp = net::decode_response_payload(
                    conn.buf.substr(conn.head + kEnvelope, len));
            } catch (const runtime::ServingError&) {
                ++phase_.unexpected;
                conn.open = false;
                return;
            }
            conn.head += kEnvelope + len;
            settle(resp, c, t, on_done);
        }
        if (conn.head > (1u << 16) && conn.head * 2 > conn.buf.size()) {
            conn.buf.erase(0, conn.head);
            conn.head = 0;
        }
    }

    template <class F>
    void settle(const net::Response& resp, int c, std::int64_t t,
                F&& on_done)
    {
        const std::uint64_t idx = resp.request_id - phase_.id_base;
        if (resp.request_id < phase_.id_base || idx >= issued() ||
            phase_.records[idx].status != 0 ||
            phase_.records[idx].conn != c) {
            ++phase_.unexpected;
            return;
        }
        Record& r = phase_.records[idx];
        const Endpoint& ep = d_.endpoints[r.ep];
        r.done_ns = t;
        if (resp.status == net::WireStatus::kOk &&
            resp.output.size() == ep.out_numel) {
            std::copy(resp.output.data(),
                      resp.output.data() + ep.out_numel,
                      phase_.outputs.begin() +
                          static_cast<std::ptrdiff_t>(idx) * phase_.stride);
            r.status = 1;
        } else {
            r.status = 2;
        }
        if (traced_) {
            r.decoded_ns = now_ns();
        }
        on_done(static_cast<std::size_t>(idx));
    }

    const Deployment& d_;
    Phase& phase_;
    bool traced_;
    std::vector<Conn> conns_;
    std::vector<std::string> scratch_;
    std::string read_buf_;
    std::atomic<std::size_t> issued_{0};
};

std::int64_t
max_out_numel(const Deployment& d)
{
    std::int64_t m = 0;
    for (const Endpoint& ep : d.endpoints) {
        m = std::max(m, ep.out_numel);
    }
    return m;
}

/** Requests never answered count as failed. */
void
fail_pending(Phase& phase)
{
    for (Record& r : phase.records) {
        if (r.status == 0) {
            r.status = 2;
        }
    }
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

// ---------------------------------------------------------------------
// Server process
// ---------------------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& manifest,
                             const WorkloadSpec& spec,
                             const std::string& work_dir)
{
    const std::string port_file = work_dir + "/port";
    const std::string log = work_dir + "/serve.log";
    std::remove(port_file.c_str());
    std::vector<std::string> args = {binary,        manifest,
                                     "--listen",    "127.0.0.1:0",
                                     "--port-file", port_file,
                                     "--shards",    std::to_string(spec.shards)};
    if (spec.threads_per_shard > 0) {
        args.push_back("--threads-per-shard");
        args.push_back(std::to_string(spec.threads_per_shard));
    }
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    spawned_ns_ = now_ns();
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot spawn " + binary);
    }
    const std::int64_t deadline = spawned_ns_ + 120'000'000'000;
    for (;;) {
        const std::string text = slurp(port_file);
        if (!text.empty() && text.back() == '\n') {
            const long port = std::strtol(text.c_str(), nullptr, 10);
            if (port <= 0 || port > 65535) {
                throw std::runtime_error("bad port file: " + text);
            }
            port_ = static_cast<std::uint16_t>(port);
            return;
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("shredder_serve exited during start-up "
                                     "(see " + log + ")");
        }
        if (now_ns() > deadline) {
            stop();
            throw std::runtime_error("shredder_serve did not start in 120 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

ServerProcess::~ServerProcess() { stop(); }

void
ServerProcess::stop()
{
    if (pid_ <= 0) {
        return;
    }
    ::kill(pid_, SIGTERM);
    const std::int64_t grace = now_ns() + 10'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_ns() > grace) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
}

double
ServerProcess::cpu_seconds() const
{
    const std::string stat = slurp("/proc/" + std::to_string(pid_) + "/stat");
    const auto close = stat.rfind(')');
    if (close == std::string::npos) {
        throw std::runtime_error("cannot read server /proc stat");
    }
    std::istringstream in(stat.substr(close + 2));
    std::vector<std::string> fields;
    std::string f;
    while (in >> f) {
        fields.push_back(f);
    }
    // Fields 14 and 15 of stat(5); the list here starts at field 3.
    if (fields.size() < 13) {
        throw std::runtime_error("short server /proc stat");
    }
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

double
ServerProcess::peak_rss_mb() const
{
    std::istringstream in(
        slurp("/proc/" + std::to_string(pid_) + "/status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB → MB
        }
    }
    throw std::runtime_error("no VmHWM in server /proc status");
}

// ---------------------------------------------------------------------
// /metrics
// ---------------------------------------------------------------------

double
Scrape::sum(const std::string& family) const
{
    double total = 0.0;
    for (const auto& [key, value] : samples) {
        if (key == family || key.rfind(family + "{", 0) == 0) {
            total += value;
        }
    }
    return total;
}

std::vector<std::pair<double, double>>
Scrape::queue_wait_buckets() const
{
    const std::string prefix = "shredder_queue_wait_seconds_bucket{";
    std::map<double, double> by_le;
    for (const auto& [key, value] : samples) {
        if (key.rfind(prefix, 0) != 0) {
            continue;
        }
        const auto at = key.find("le=\"");
        if (at == std::string::npos) {
            continue;
        }
        const std::string le =
            key.substr(at + 4, key.find('"', at + 4) - (at + 4));
        const double bound = le == "+Inf"
                                 ? std::numeric_limits<double>::infinity()
                                 : std::strtod(le.c_str(), nullptr);
        by_le[bound] += value;
    }
    return {by_le.begin(), by_le.end()};
}

Scrape
scrape_metrics(std::uint16_t port)
{
    Fd fd = connect_loopback(port);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    write_all(fd.get(), request.data(), request.size());
    std::string body;
    char buf[1 << 14];
    for (;;) {
        pollfd p{fd.get(), POLLIN, 0};
        if (::poll(&p, 1, 10000) <= 0) {
            throw std::runtime_error("/metrics scrape timed out");
        }
        const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            break;
        }
        body.append(buf, static_cast<std::size_t>(n));
    }
    const auto split = body.find("\r\n\r\n");
    if (body.rfind("HTTP/1.0 200", 0) != 0 || split == std::string::npos) {
        throw std::runtime_error("bad /metrics response");
    }
    Scrape s;
    std::istringstream in(body.substr(split + 4));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const auto space = line.rfind(' ');
        if (space == std::string::npos) {
            continue;
        }
        s.samples[line.substr(0, space)] =
            std::strtod(line.c_str() + space + 1, nullptr);
    }
    return s;
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

std::int64_t
Phase::count(std::uint8_t status) const
{
    return std::count_if(records.begin(), records.end(),
                         [&](const Record& r) { return r.status == status; });
}

std::vector<double>
Phase::latencies_ms() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const Record& r : records) {
        if (r.status == 1) {
            out.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
        }
    }
    return out;
}

std::vector<double>
Phase::lateness_ms() const
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const Record& r : records) {
        out.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    }
    return out;
}

std::vector<double>
Phase::own_lateness_ms() const
{
    std::vector<double> out;
    out.reserve(records.size());
    std::int64_t free_at = 0;
    for (const Record& r : records) {
        out.push_back(
            static_cast<double>(r.sent_ns - std::max(r.due_ns, free_at)) /
            1e6);
        free_at = r.written_ns;
    }
    return out;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return std::nan("");
    }
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

int
connection_count(const Deployment& d)
{
    return static_cast<int>(std::min<std::size_t>(
        d.endpoints.size(), std::max(1u, std::thread::hardware_concurrency())));
}

Schedule
poisson_schedule(const WorkloadSpec& spec, double seconds, std::uint64_t seed)
{
    Schedule s;
    Rng rng(seed);
    auto& gen = rng.engine();
    auto uniform = [&] {
        return static_cast<double>(gen() >> 11) * 0x1.0p-53;  // [0, 1)
    };
    const double mean_gap_ns = 1e9 / spec.nominal_rps;
    double at = 0.0;
    for (;;) {
        at += -std::log1p(-uniform()) * mean_gap_ns;
        if (at >= seconds * 1e9) {
            break;
        }
        double pick = uniform();
        std::uint8_t ep = 0;
        while (ep + 1u < spec.endpoints.size() &&
               pick >= spec.endpoints[ep].share) {
            pick -= spec.endpoints[ep].share;
            ++ep;
        }
        s.offset_ns.push_back(static_cast<std::int64_t>(at));
        s.ep.push_back(ep);
        s.pool.push_back(static_cast<std::uint16_t>(gen() % kPoolSize));
    }
    return s;
}

Phase
run_open_loop(const Deployment& d, std::uint16_t port,
              const Schedule& schedule, const std::string& name,
              std::uint64_t id_base, bool traced)
{
    Phase phase;
    phase.name = name;
    phase.id_base = id_base;
    phase.stride = max_out_numel(d);
    const std::size_t n = schedule.offset_ns.size();
    phase.records.resize(n);
    phase.outputs.assign(n * static_cast<std::size_t>(phase.stride), 0.0f);
    const int connections = connection_count(d);
    for (std::size_t i = 0; i < n; ++i) {
        phase.records[i].ep = schedule.ep[i];
        phase.records[i].pool = schedule.pool[i];
        phase.records[i].conn =
            static_cast<std::uint8_t>(schedule.ep[i] % connections);
    }
    Wire wire(d, port, phase, traced, connections);

    std::atomic<bool> sending{true};
    phase.start_ns = now_ns() + 2'000'000;  // first due time ≥ 2 ms out
    for (std::size_t i = 0; i < n; ++i) {
        phase.records[i].due_ns = phase.start_ns + schedule.offset_ns[i];
    }
    std::thread receiver([&] {
        std::size_t done = 0;
        std::int64_t deadline = std::numeric_limits<std::int64_t>::max();
        for (;;) {
            wire.pump([&](std::size_t) { ++done; });
            if (!sending.load(std::memory_order_acquire)) {
                if (done >= wire.issued() ||
                    !wire.any_open()) {
                    return;
                }
                if (deadline == std::numeric_limits<std::int64_t>::max()) {
                    deadline = now_ns() + kDrainNs;
                } else if (now_ns() > deadline) {
                    return;
                }
            }
        }
    });
    try {
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t due = phase.records[i].due_ns;
            if (now_ns() < due) {
                std::this_thread::sleep_until(
                    std::chrono::steady_clock::time_point(
                        std::chrono::nanoseconds(due)));
            }
            wire.send(i);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "phase %s: sender stopped: %s\n", name.c_str(),
                     e.what());
    }
    phase.end_ns = now_ns();
    sending.store(false, std::memory_order_release);
    receiver.join();
    fail_pending(phase);
    return phase;
}

Phase
run_closed_loop(const Deployment& d, const WorkloadSpec& spec,
                std::uint16_t port, double seconds, const std::string& name,
                std::uint64_t id_base, std::uint64_t seed)
{
    Phase phase;
    phase.name = name;
    phase.id_base = id_base;
    phase.stride = max_out_numel(d);
    const int connections = connection_count(d);
    Wire wire(d, port, phase, false, connections);
    Rng rng(seed);
    auto& gen = rng.engine();

    // One thread runs the whole loop: every response frees a slot,
    // which immediately carries the next request of its endpoint.
    auto issue = [&](std::uint8_t ep, std::uint8_t conn) {
        Record r;
        r.ep = ep;
        r.conn = conn;
        r.pool = static_cast<std::uint16_t>(gen() % kPoolSize);
        r.due_ns = now_ns();
        phase.records.push_back(r);
        phase.outputs.resize(phase.outputs.size() +
                             static_cast<std::size_t>(phase.stride));
        wire.send(phase.records.size() - 1);
    };
    std::size_t done = 0;
    phase.start_ns = now_ns();
    const std::int64_t stop_at =
        phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    try {
        for (std::size_t e = 0; e < d.endpoints.size(); ++e) {
            const int slots = std::max(
                1, static_cast<int>(std::lround(spec.peak_window *
                                                spec.endpoints[e].share)));
            for (int k = 0; k < slots; ++k) {
                issue(static_cast<std::uint8_t>(e),
                      static_cast<std::uint8_t>(e % connections));
            }
        }
        while (wire.any_open()) {
            wire.pump([&](std::size_t i) {
                ++done;
                if (now_ns() < stop_at) {
                    issue(phase.records[i].ep, phase.records[i].conn);
                }
            });
            const std::int64_t t = now_ns();
            if (t >= stop_at && phase.end_ns == 0) {
                phase.end_ns = t;
            }
            if ((t >= stop_at && done >= phase.records.size()) ||
                t > stop_at + kDrainNs) {
                break;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "phase %s: stopped: %s\n", name.c_str(),
                     e.what());
    }
    if (phase.end_ns == 0) {
        phase.end_ns = now_ns();
    }
    fail_pending(phase);
    return phase;
}

bool
first_ok_response(const Deployment& d, std::uint16_t port, std::uint64_t id)
{
    Fd fd = connect_loopback(port);
    std::string frame = d.endpoints.front().frames.front();
    patch_request_id(&frame, id);
    write_all(fd.get(), frame.data(), frame.size());
    std::string buf;
    char chunk[1 << 14];
    for (;;) {
        if (buf.size() >= kEnvelope &&
            buf.size() >= kEnvelope + read_u32(buf.data() + 8)) {
            const net::Response resp = net::decode_response_payload(
                buf.substr(kEnvelope, read_u32(buf.data() + 8)));
            return resp.request_id == id &&
                   resp.status == net::WireStatus::kOk;
        }
        pollfd p{fd.get(), POLLIN, 0};
        if (::poll(&p, 1, 60000) <= 0) {
            return false;
        }
        const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

std::int64_t
check_outputs(const Deployment& d, Phase& phase)
{
    const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::int64_t> wrong(workers, 0);
    std::vector<std::int64_t> batched(workers, 0);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            nn::ExecutionContext ctx;
            ctx.set_retain_activations(false);
            auto output_of = [&](std::size_t i) {
                return phase.outputs.data() +
                       static_cast<std::ptrdiff_t>(i) * phase.stride;
            };
            // The batch-1 recipe; int8 direct-path endpoints compare
            // within their tolerance.
            auto check_alone = [&](std::size_t i, const Tensor& noisy) {
                const Endpoint& ep = d.endpoints[phase.records[i].ep];
                const Tensor ref = ep.model->cloud_forward(
                    noisy.reshaped(ep.batched_act_shape), ctx);
                const float* got = output_of(i);
                bool ok = ref.size() == ep.out_numel;
                for (std::int64_t k = 0; ok && k < ref.size(); ++k) {
                    ok = ep.int8_tolerance > 0.0
                             ? std::fabs(static_cast<double>(got[k]) -
                                         ref[k]) < ep.int8_tolerance
                             : got[k] == ref[k];
                }
                wrong[w] += ok ? 0 : 1;
            };
            // Most requests of a loaded server ride in full batches, so
            // fp32 rows are first checked 8 at a time against the
            // batch-8 recipe; rows that differ fall back to batch 1.
            std::vector<std::vector<std::pair<std::size_t, Tensor>>> group(
                d.endpoints.size());
            auto flush = [&](std::size_t e) {
                auto& g = group[e];
                if (g.empty()) {
                    return;
                }
                const Endpoint& ep = d.endpoints[e];
                const Shape& s = ep.act_shape;
                Tensor batch(Shape({kCheckBatch, s[0], s[1], s[2]}));
                for (int row = 0; row < kCheckBatch; ++row) {
                    batch.set_slice0(
                        row, g[static_cast<std::size_t>(row) % g.size()]
                                 .second);
                }
                const Tensor y = ep.model->cloud_forward(batch, ctx);
                for (std::size_t row = 0; row < g.size(); ++row) {
                    if (std::equal(y.data() + row * ep.out_numel,
                                   y.data() + (row + 1) * ep.out_numel,
                                   output_of(g[row].first))) {
                        ++batched[w];
                    } else {
                        check_alone(g[row].first, g[row].second);
                    }
                }
                g.clear();
            };
            for (std::size_t i = w; i < phase.records.size(); i += workers) {
                const Record& r = phase.records[i];
                if (r.status != 1) {
                    continue;
                }
                const Endpoint& ep = d.endpoints[r.ep];
                Tensor noisy = noised_activation(ep, r.pool, phase.id_base + i);
                if (ep.int8_tolerance > 0.0) {
                    check_alone(i, noisy);
                    continue;
                }
                auto& g = group[r.ep];
                g.emplace_back(i, noisy.reshaped(ep.act_shape));
                if (g.size() == kCheckBatch) {
                    flush(r.ep);
                }
            }
            for (std::size_t e = 0; e < group.size(); ++e) {
                flush(e);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    phase.wrong = 0;
    phase.batch_rounded = 0;
    for (unsigned w = 0; w < workers; ++w) {
        phase.wrong += wrong[w];
        phase.batch_rounded += batched[w];
    }
    return phase.wrong;
}

}  // namespace perfbench
