// The three workloads. Each one sets up the program several times (the median set-up is
// reported), then drives the last set-up in closed loops for the configured seconds,
// timing every operation and checking every answer.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/chaos/fuzz.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/engine.h"
#include "src/serve/framing.h"
#include "src/serve/server.h"
#include "src/serve/spec.h"
#include "src/serve/transport.h"

namespace perfbench {
namespace {

using probcon::Json;
using probcon::MetricsRegistry;
using probcon::ScopedThreadPool;
using probcon::ThreadPool;
namespace serve = probcon::serve;

constexpr size_t kMaxErrors = 5;

// Records a correctness problem; `failed_ops` of them count against the ops attempted.
void NoteError(EndToEnd* out, std::string message, uint64_t failed_ops = 1) {
  out->failed += failed_ops;
  ++out->problems;
  if (out->errors.size() < kMaxErrors) out->errors.push_back(std::move(message));
}

// Latency percentiles that a burst of interference from other tenants of the host cannot
// move: p50 and p99 are taken over each block of kLatencyBlock consecutive samples, and
// the run reports the median block's. Samples after the last full block join that block.
// Memory stays at one block however fast the program runs, so peak_rss_mb does not grow
// with throughput.
constexpr size_t kLatencyBlock = 100 * kMinTailSamples + 10;  // p99 leaves 10 beyond it.

class LatencyBlocks {
 public:
  void Add(double ms) {
    block_.push_back(ms);
    if (block_.size() == 2 * kLatencyBlock) CloseBlock(kLatencyBlock);
  }
  // Folds the leftover samples into a final block; call once, after the last Add.
  void Finish() {
    if (!block_.empty()) CloseBlock(block_.size());
  }
  bool Summarize(double* p50, double* p99) const {
    if (p99_.empty()) return false;
    *p50 = Median(p50_);
    *p99 = Median(p99_);
    return true;
  }

 private:
  // Closes a block of the first `size` samples; a short remainder stays for the next one,
  // so a block never has fewer than kLatencyBlock samples unless the run had fewer.
  void CloseBlock(size_t size) {
    std::vector<double> sorted(block_.begin(), block_.begin() + size);
    std::sort(sorted.begin(), sorted.end());
    double p50 = 0.0;
    double p99 = 0.0;
    if (PickPercentile(sorted, 0.5, kMinTailSamples, &p50) &&
        PickPercentile(sorted, 0.99, kMinTailSamples, &p99)) {
      p50_.push_back(p50);
      p99_.push_back(p99);
    }
    block_.erase(block_.begin(), block_.begin() + size);
  }

  std::vector<double> block_;
  std::vector<double> p50_;
  std::vector<double> p99_;
};

void FillLatency(const LatencyBlocks& latencies_ms, EndToEnd* out) {
  if (!latencies_ms.Summarize(&out->latency_p50_ms, &out->latency_p99_ms)) {
    NoteError(out,
              "too few latency samples for a p99 with " + std::to_string(kMinTailSamples) +
                  " samples beyond it",
              0);
  }
}

double PoolBusySeconds(const ThreadPool& pool) {
  double busy = 0.0;
  for (const double seconds : pool.GetStats().worker_busy_seconds) busy += seconds;
  return busy;
}

// A run measures in kSegments equal segments, each on a fresh set-up of the workload.
// A slow state that sticks to one set-up (on a shared host, threads that keep sharing a
// CPU) then spoils one segment instead of the whole run; the reported setup_s is the
// median of the segments' set-ups.
constexpr int kSegments = 4;

// Beyond its seconds, the last segment keeps measuring (up to kMaxStretch times the run
// length more) while the run has too few latency samples for a p99 with kMinTailSamples
// beyond it.
constexpr double kMaxStretch = 2.0;
constexpr uint64_t kMinLatencySamples = kLatencyBlock;

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// One measured segment: its deadlines, and the count of correct operations that the
// meter's sampler reads once a second.
struct Segment {
  Clock::time_point soft;  // The segment's share of the run.
  Clock::time_point hard;  // How far the last segment may stretch for samples.
  std::atomic<uint64_t> ops{0};

  bool KeepMeasuring(uint64_t samples) const {
    const auto now = Clock::now();
    return now < soft || (samples < kMinLatencySamples && now < hard);
  }
  void CountOps(uint64_t n) { ops.fetch_add(n, std::memory_order_relaxed); }
};

// Times each set-up of one workload.
template <typename State>
class SetupSampler {
 public:
  explicit SetupSampler(std::function<std::unique_ptr<State>()> make) : make_(std::move(make)) {}

  std::unique_ptr<State> Make() {
    const auto start = Clock::now();
    std::unique_ptr<State> state = make_();
    times_.push_back(SecondsBetween(start, Clock::now()));
    return state;
  }
  double Median() const { return perfbench::Median(times_); }

 private:
  std::function<std::unique_ptr<State>()> make_;
  std::vector<double> times_;
};

// Throughput and CPU per op, taken once a second: each complete one-second window of a
// segment gives an ops/s and a CPU ms/op, and the run reports the median window's, so a
// few seconds of interference from other tenants of the host do not move them. Pool busy
// time is summed over the segments.
constexpr double kWindowSeconds = 1.0;

class Meter {
 public:
  void Measure(const ThreadPool& pool, Segment& segment, const std::function<void()>& run) {
    const auto start = Clock::now();
    const double busy = PoolBusySeconds(pool);
    const double cpu_start = ProcessCpuSeconds();
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      auto window_start = start;
      double cpu = ProcessCpuSeconds();
      uint64_t ops = segment.ops.load();
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto now = Clock::now();
        const double wall = SecondsBetween(window_start, now);
        if (wall < kWindowSeconds) continue;
        const double cpu_now = ProcessCpuSeconds();
        const uint64_t ops_now = segment.ops.load();
        if (ops_now > ops) {
          rates_.push_back(static_cast<double>(ops_now - ops) / wall);
          cpu_per_op_.push_back(1e3 * (cpu_now - cpu) / static_cast<double>(ops_now - ops));
        }
        window_start = now;
        cpu = cpu_now;
        ops = ops_now;
      }
    });
    run();
    done.store(true);
    sampler.join();
    const double wall = SecondsBetween(start, Clock::now());
    wall_ += wall;
    cpu_ += ProcessCpuSeconds() - cpu_start;
    busy_ += PoolBusySeconds(pool) - busy;
    worker_seconds_ += wall * pool.worker_count();
    ops_ += segment.ops.load();
  }

  // Runs too short for a whole window fall back to the totals.
  void Finish(EndToEnd* out) const {
    const double ops = static_cast<double>(std::max<uint64_t>(ops_, 1));
    out->ops_per_s = rates_.empty() ? ops / wall_ : Median(rates_);
    out->cpu_ms_per_op = cpu_per_op_.empty() ? 1e3 * cpu_ / ops : Median(cpu_per_op_);
    if (worker_seconds_ > 0.0) out->pool_utilization = busy_ / worker_seconds_;
  }

 private:
  std::vector<double> rates_;
  std::vector<double> cpu_per_op_;
  double wall_ = 0.0;
  double cpu_ = 0.0;
  double busy_ = 0.0;
  double worker_seconds_ = 0.0;
  uint64_t ops_ = 0;
};

// Runs kSegments segments, each on a fresh set-up of `State`: `segment` measures on it,
// then `check` reads its books before it is torn down. Every State has an `error` (empty
// when its warm-up answers were right) and an `exec_pool()`.
template <typename State>
void MeasureInSegments(const RunConfig& config, EndToEnd* out,
                       std::function<std::unique_ptr<State>()> make,
                       const std::function<void(State&, Segment&)>& segment,
                       const std::function<void(State&)>& check) {
  SetupSampler<State> setups(std::move(make));
  Meter meter;
  const double share = config.seconds / kSegments;
  for (int i = 0; i < kSegments; ++i) {
    const std::unique_ptr<State> state = setups.Make();
    if (!state->error.empty()) {
      NoteError(out, state->error, 0);
      return;
    }
    const auto start = Clock::now();
    Segment part;
    part.soft = After(start, share);
    part.hard = After(start, i + 1 == kSegments ? share + kMaxStretch * config.seconds : share);
    meter.Measure(state->exec_pool(), part, [&] { segment(*state, part); });
    check(*state);
  }
  out->setup_s = setups.Median();
  meter.Finish(out);
  out->peak_rss_mb = PeakRssMb();
}

// Reads a counter out of a `stats` response (0 when absent).
uint64_t StatsCounter(const serve::ResponseEnvelope& stats, const std::string& name) {
  const Json* node = stats.result.Find("metrics");
  node = node == nullptr ? nullptr : node->Find("counters");
  node = node == nullptr ? nullptr : node->Find(name);
  return node == nullptr ? 0 : static_cast<uint64_t>(node->NumberValue());
}

std::optional<serve::ResponseEnvelope> QueryStats(serve::ServeClient& client) {
  auto stats = client.Query("stats", Json::Object());
  if (!stats.ok() || !stats->status.ok()) return std::nullopt;
  return *std::move(stats);
}

// Checks the server's request counter against the client's books: the delta between two
// stats snapshots is the client's requests plus the closing stats request itself.
void CheckServerBooks(serve::ServeClient& stats_client, uint64_t before, uint64_t sent,
                      EndToEnd* out) {
  const auto after = QueryStats(stats_client);
  if (!after.has_value()) {
    NoteError(out, "closing stats request failed", 0);
    return;
  }
  const uint64_t counted = StatsCounter(*after, "serve.requests") - before;
  if (counted != sent + 1) {
    NoteError(out, "server counted " + std::to_string(counted - 1) + " requests, client sent " +
                       std::to_string(sent),
              0);
  }
}

// ---------------------------------------------------------------------------
// serve_warm

// Wire ids encode (connection, sequence): id = conn * kIdStride + seq + 1.
constexpr uint64_t kIdStride = uint64_t{1} << 32;
constexpr size_t kRingSlots = 64;  // > kServeWarmWindow; ring of in-flight requests.

struct IdSpan {
  uint64_t id = 0;
  size_t begin = 0;
  size_t end = 0;
};

// Locates the envelope id digits. Responses are serialized deterministically
// ({"v": 1, "id": N, ...}), so a scan is exact and much cheaper than a parse.
bool ScanId(const std::string& text, IdSpan* span) {
  const size_t key = text.find("\"id\": ");
  if (key == std::string::npos) return false;
  span->begin = key + 6;
  size_t pos = span->begin;
  span->id = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    span->id = span->id * 10 + static_cast<uint64_t>(text[pos] - '0');
    ++pos;
  }
  span->end = pos;
  return span->end > span->begin;
}

// `text` with the id digits excised: two answers to one query differ only there.
std::string MaskId(const std::string& text, const IdSpan& span) {
  return text.substr(0, span.begin) + text.substr(span.end);
}

// A serialized request split around its id digits, so issuing one is two appends.
struct PayloadTemplate {
  std::string prefix;
  std::string suffix;

  static PayloadTemplate For(const Query& query) {
    const std::string text =
        serve::RequestEnvelope::Serialize(0, query.kind, query.params, 0.0, false);
    const size_t pos = text.find("\"id\": 0");
    CHECK(pos != std::string::npos);
    return {text.substr(0, pos + 6), text.substr(pos + 7)};
  }
  std::string Render(uint64_t id) const { return prefix + std::to_string(id) + suffix; }
};

int ConnectNonBlocking(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CHECK(fd >= 0) << "socket(): " << std::strerror(errno);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0)
      << "connect(): " << std::strerror(errno);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return fd;
}

// One serve_warm set-up: pool, server, transport, connections, and the warm-up passes
// that compute every query once and then record its cached answer as the reference.
struct WarmServer {
  std::unique_ptr<ScopedThreadPool> pool;
  MetricsRegistry metrics;
  std::unique_ptr<serve::QueryServer> server;
  std::unique_ptr<serve::TcpServer> transport;
  std::unique_ptr<serve::ServeClient> stats_client;
  std::vector<int> fds;
  std::vector<PayloadTemplate> templates;
  std::vector<std::string> references;  // Masked cached answer per query.
  std::string error;                    // Set when the warm-up found a wrong answer.

  WarmServer() = default;
  WarmServer(const WarmServer&) = delete;
  WarmServer& operator=(const WarmServer&) = delete;
  ~WarmServer() {
    for (const int fd : fds) ::close(fd);
    stats_client.reset();
    if (transport != nullptr) transport->Stop();
    if (server != nullptr) server->Drain();
  }
  ThreadPool& exec_pool() { return pool->pool(); }
};

std::unique_ptr<WarmServer> MakeWarmServer(const std::vector<Query>& queries) {
  auto warm = std::make_unique<WarmServer>();
  warm->pool = std::make_unique<ScopedThreadPool>(kServeWarmPool);
  warm->server = std::make_unique<serve::QueryServer>(serve::ServerOptions{}, &warm->metrics);
  serve::TcpServerOptions transport_options;
  transport_options.reactors = kServeWarmReactors;
  warm->transport =
      std::make_unique<serve::TcpServer>(*warm->server, &warm->metrics, transport_options);
  const probcon::Status started = warm->transport->Start(0);
  CHECK(started.ok()) << started.ToString();
  const uint16_t port = warm->transport->port();

  auto channel = serve::TcpChannel::Connect(port);
  CHECK(channel.ok()) << channel.status().ToString();
  warm->stats_client = std::make_unique<serve::ServeClient>(std::move(*channel));
  for (int c = 0; c < kServeWarmConnections; ++c) warm->fds.push_back(ConnectNonBlocking(port));

  auto warm_channel = serve::TcpChannel::Connect(port);
  CHECK(warm_channel.ok()) << warm_channel.status().ToString();
  std::vector<std::string> payloads;
  for (const Query& query : queries) {
    warm->templates.push_back(PayloadTemplate::For(query));
    payloads.push_back(warm->templates.back().Render(payloads.size() + 1));
  }
  // Pass 1 computes every answer; pass 2 must be served from the memo, and its bytes
  // become the reference every timed answer is compared with.
  for (int pass = 0; pass < 2; ++pass) {
    auto responses = (*warm_channel)->RoundTripBatch(payloads);
    CHECK(responses.ok()) << responses.status().ToString();
    for (size_t i = 0; i < responses->size(); ++i) {
      const std::string& text = (*responses)[i];
      auto envelope = serve::ResponseEnvelope::Parse(text);
      if (!envelope.ok() || !envelope->status.ok() || envelope->cached != (pass == 1)) {
        warm->error = "warm-up answer for " + queries[i].kind + " is wrong: " + text;
        return warm;
      }
      IdSpan span;
      CHECK(ScanId(text, &span));
      if (pass == 1) warm->references.push_back(MaskId(text, span));
    }
  }
  return warm;
}

// Per-connection state of the load generator.
struct WarmConn {
  int fd = -1;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint32_t interest = 0;
  serve::FrameDecoder decoder;
  std::string outbound;
  size_t offset = 0;
  probcon::Rng rng;  // Picks the next query.
  struct Slot {
    uint64_t id = 0;
    uint32_t query = 0;
    Clock::time_point sent;
  };
  Slot ring[kRingSlots];
};

// The serve_warm load generator: one thread, closed loops over the pipelined
// connections of a WarmServer, every answer compared with its warm-up reference.
class WarmLoad {
 public:
  WarmLoad(WarmServer& warm, uint64_t seed, LatencyBlocks& latencies)
      : warm_(warm), latencies_(latencies), conns_(warm.fds.size()) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    CHECK(epoll_fd_ >= 0);
    for (size_t i = 0; i < conns_.size(); ++i) {
      conns_[i].fd = warm.fds[i];
      conns_[i].rng.Seed(probcon::DeriveStreamSeed(seed, 0x51 + i));
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = i;
      CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &event) == 0);
      conns_[i].interest = EPOLLIN;
    }
  }
  WarmLoad(const WarmLoad&) = delete;
  WarmLoad& operator=(const WarmLoad&) = delete;
  ~WarmLoad() { ::close(epoll_fd_); }

  // Issues requests until the deadline, then waits for every answer.
  void Run(Segment& segment, SpanLog* spans, EndToEnd* out) {
    segment_ = &segment;
    spans_ = spans;
    out_ = out;
    issuing_ = true;
    for (size_t i = 0; i < conns_.size(); ++i) Pump(i);
    epoll_event events[16];
    while (issuing_ || completed_ < issued_) {
      if (issuing_ && !segment.KeepMeasuring(issued_)) issuing_ = false;
      const int ready = ::epoll_wait(epoll_fd_, events, 16, 100);
      if (ready < 0) {
        CHECK(errno == EINTR) << "epoll_wait(): " << std::strerror(errno);
        continue;
      }
      for (int e = 0; e < ready; ++e) {
        const size_t index = static_cast<size_t>(events[e].data.u64);
        if ((events[e].events & EPOLLOUT) != 0) Flush(index);
        if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) Receive(index);
        UpdateInterest(index);
      }
    }
  }

  uint64_t issued() const { return issued_; }

 private:
  void Pump(size_t index) {
    Refill(index);
    Flush(index);
    UpdateInterest(index);
  }

  void Refill(size_t index) {
    WarmConn& conn = conns_[index];
    while (issuing_ && conn.issued - conn.completed < static_cast<uint64_t>(kServeWarmWindow)) {
      WarmConn::Slot& slot = conn.ring[conn.issued % kRingSlots];
      slot.id = index * kIdStride + conn.issued + 1;
      slot.query = static_cast<uint32_t>(conn.rng.NextBelow(warm_.templates.size()));
      const std::string payload = warm_.templates[slot.query].Render(slot.id);
      const uint32_t length = static_cast<uint32_t>(payload.size());
      const char header[8] = {'P', 'C', 'S', 'V',
                              static_cast<char>((length >> 24) & 0xff),
                              static_cast<char>((length >> 16) & 0xff),
                              static_cast<char>((length >> 8) & 0xff),
                              static_cast<char>(length & 0xff)};
      conn.outbound.append(header, sizeof(header));
      conn.outbound += payload;
      slot.sent = Clock::now();
      ++conn.issued;
      ++issued_;
    }
  }

  void Flush(size_t index) {
    WarmConn& conn = conns_[index];
    while (conn.offset < conn.outbound.size()) {
      const ssize_t sent = ::send(conn.fd, conn.outbound.data() + conn.offset,
                                  conn.outbound.size() - conn.offset, MSG_NOSIGNAL);
      if (sent > 0) {
        conn.offset += static_cast<size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (sent < 0 && errno == EINTR) continue;
      CHECK(false) << "send(): " << std::strerror(errno);
    }
    if (conn.offset == conn.outbound.size()) {
      conn.outbound.clear();
      conn.offset = 0;
    }
  }

  void UpdateInterest(size_t index) {
    WarmConn& conn = conns_[index];
    uint32_t want = EPOLLIN;
    if (conn.offset < conn.outbound.size()) want |= EPOLLOUT;
    if (want != conn.interest) {
      epoll_event event{};
      event.events = want;
      event.data.u64 = index;
      CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event) == 0);
      conn.interest = want;
    }
  }

  void Receive(size_t index) {
    WarmConn& conn = conns_[index];
    char buffer[64 * 1024];
    while (true) {
      const ssize_t received = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (received < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CHECK(false) << "recv(): " << std::strerror(errno);
      }
      CHECK(received != 0) << "server closed a connection mid-run";
      conn.decoder.Feed(std::string_view(buffer, static_cast<size_t>(received)));
      const auto now = Clock::now();
      while (true) {
        auto next = conn.decoder.Next();
        CHECK(next.ok()) << next.status().ToString();
        if (!next->has_value()) break;
        Check(conn, **next, now);
        ++conn.completed;
        ++completed_;
      }
      Refill(index);
      Flush(index);
    }
  }

  // Every answer must equal, byte for byte, its query's warm-up reference, which itself
  // says "cached": true.
  void Check(WarmConn& conn, const std::string& text, Clock::time_point now) {
    IdSpan span;
    if (!ScanId(text, &span)) {
      NoteError(out_, "response without an id: " + text);
      return;
    }
    const WarmConn::Slot& slot = conn.ring[(span.id % kIdStride - 1) % kRingSlots];
    CHECK(slot.id == span.id) << "response " << span.id << " matches no in-flight request";
    latencies_.Add(std::chrono::duration<double, std::milli>(now - slot.sent).count());
    if (spans_ != nullptr) spans_->Record("serve_warm.request", span.id, slot.sent, now);
    if (MaskId(text, span) == warm_.references[slot.query]) {
      segment_->CountOps(1);
    } else {
      NoteError(out_, "warm answer differs from its warm-up reference: " + text);
    }
  }

  WarmServer& warm_;
  LatencyBlocks& latencies_;
  std::vector<WarmConn> conns_;
  int epoll_fd_ = -1;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  bool issuing_ = false;
  Segment* segment_ = nullptr;
  SpanLog* spans_ = nullptr;
  EndToEnd* out_ = nullptr;
};

}  // namespace

EndToEnd RunServeWarm(const RunConfig& config) {
  EndToEnd out;
  const std::vector<Query> queries = WarmWorkingSet(config.seed);
  LatencyBlocks latencies;
  std::unique_ptr<WarmLoad> load;
  uint64_t requests_before = 0;
  uint64_t segments = 0;
  MeasureInSegments<WarmServer>(
      config, &out, [&queries] { return MakeWarmServer(queries); },
      [&](WarmServer& warm, Segment& segment) {
        const auto before = QueryStats(*warm.stats_client);
        CHECK(before.has_value());
        requests_before = StatsCounter(*before, "serve.requests");
        load = std::make_unique<WarmLoad>(
            warm, probcon::DeriveStreamSeed(config.seed, ++segments), latencies);
        load->Run(segment, config.spans, &out);
      },
      [&](WarmServer& warm) {
        out.attempted += load->issued();
        CheckServerBooks(*warm.stats_client, requests_before, load->issued(), &out);
        out.cache_inserts += warm.server->cache().snapshot().misses;
        load.reset();
      });
  latencies.Finish();
  FillLatency(latencies, &out);
  return out;
}

// ---------------------------------------------------------------------------
// engine_cold

namespace {

// A small memo budget: distinct cold answers fill it within the first seconds and LRU
// eviction keeps it there, so peak_rss_mb does not grow with throughput.
constexpr size_t kColdCacheBytes = 2u << 20;

struct ColdServer {
  std::unique_ptr<ScopedThreadPool> pool;
  MetricsRegistry metrics;
  std::unique_ptr<serve::QueryServer> server;
  std::unique_ptr<serve::ServeClient> stats_client;
  std::vector<std::unique_ptr<serve::LoopbackChannel>> channels;
  std::string error;

  ColdServer() = default;
  ColdServer(const ColdServer&) = delete;
  ColdServer& operator=(const ColdServer&) = delete;
  ~ColdServer() {
    channels.clear();
    stats_client.reset();
    if (server != nullptr) server->Drain();
  }
  ThreadPool& exec_pool() { return pool->pool(); }
};

std::unique_ptr<ColdServer> MakeColdServer(uint64_t seed) {
  auto cold = std::make_unique<ColdServer>();
  cold->pool = std::make_unique<ScopedThreadPool>(kEngineColdPool);
  serve::ServerOptions options;
  options.cache_bytes = kColdCacheBytes;
  cold->server = std::make_unique<serve::QueryServer>(options, &cold->metrics);
  cold->stats_client = std::make_unique<serve::ServeClient>(
      std::make_unique<serve::LoopbackChannel>(*cold->server));
  for (int c = 0; c < kEngineColdClients; ++c) {
    cold->channels.push_back(std::make_unique<serve::LoopbackChannel>(*cold->server));
  }
  // Warm-up pass: one request of every shape per client, on streams the timed loop never
  // uses, so code and allocator paths are hot before the first timed request.
  for (int c = 0; c < kEngineColdClients; ++c) {
    for (int s = 0; s < kColdShapeCount; ++s) {
      const Query query = ColdRequestOfShape(seed ^ 0xC01D, c * kColdShapeCount + s,
                                             static_cast<ColdShape>(s));
      auto response = cold->channels[c]->RoundTrip(
          serve::RequestEnvelope::Serialize(1, query.kind, query.params, 0.0, false));
      if (!response.ok() || response->find("\"status\": \"OK\"") == std::string::npos) {
        cold->error = "warm-up " + query.kind + " failed: " +
                      (response.ok() ? *response : response.status().ToString());
      }
    }
  }
  return cold;
}

// A cold answer must equal, byte for byte, what a direct ExecuteRequest on the same
// parsed request serializes to.
bool MatchesDirectExecution(const std::string& payload, const std::string& response,
                            std::string* why) {
  auto envelope = serve::RequestEnvelope::Parse(payload);
  if (!envelope.ok()) {
    *why = "sample payload does not parse: " + envelope.status().ToString();
    return false;
  }
  auto direct = serve::ExecuteRequest(envelope->request, nullptr);
  if (!direct.ok()) {
    *why = "direct execution failed: " + direct.status().ToString();
    return false;
  }
  serve::ResponseEnvelope expected;
  expected.id = envelope->id;
  expected.cached = false;
  expected.result = *probcon::ParseJson(probcon::WriteJson(*direct), "direct result");
  if (expected.Serialize() != response) {
    *why = "served answer differs from direct execution: " + response;
    return false;
  }
  return true;
}

// One engine_cold client's books, kept across segments.
struct ColdClient {
  ColdClient(uint64_t seed, int client, const SpanLog* trace)
      : sampler(probcon::DeriveStreamSeed(seed, 0x5A + client)),
        spans(trace != nullptr, trace == nullptr ? Clock::now() : trace->origin()) {}

  uint64_t next_index = 0;
  uint64_t sent = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> samples;  // (payload, response)
  probcon::Rng sampler;  // Picks the 1 in 16 answers checked against direct execution.
  SpanLog spans;         // This client's spans of the current segment (traced runs).
};

// The clients' latencies, in completion order, as one stream of blocks.
struct SharedLatencies {
  std::mutex mutex;
  LatencyBlocks blocks PROBCON_GUARDED_BY(mutex);
  std::atomic<uint64_t> count{0};

  void Add(double ms) {
    std::lock_guard<std::mutex> lock(mutex);
    blocks.Add(ms);
    count.fetch_add(1);
  }
};

// One client's closed loop for one segment.
void ColdClientLoop(ColdServer& cold, uint64_t seed, int c, Segment& segment,
                    SharedLatencies& latencies, ColdClient& mine) {
  while (segment.KeepMeasuring(latencies.count.load())) {
    ColdShape shape;
    const uint64_t index = mine.next_index++;
    const Query query = ColdRequest(seed, c, index, &shape);
    const uint64_t id = (static_cast<uint64_t>(c) << 32) + index + 1;
    std::string payload =
        serve::RequestEnvelope::Serialize(id, query.kind, query.params, 0.0, false);
    const bool sampled = mine.sampler.NextBelow(16) == 0;
    const auto start = Clock::now();
    auto response = cold.channels[c]->RoundTrip(payload);
    const auto end = Clock::now();
    ++mine.sent;
    latencies.Add(std::chrono::duration<double, std::milli>(end - start).count());
    mine.spans.Record(ColdShapeName(shape), id, start, end);
    if (!response.ok() ||
        response->find("\"status\": \"OK\", \"cached\": false") == std::string::npos) {
      mine.failures.push_back(response.ok() ? *response : response.status().ToString());
      continue;
    }
    segment.CountOps(1);
    if (sampled) mine.samples.emplace_back(std::move(payload), std::move(*response));
  }
}

}  // namespace

EndToEnd RunEngineCold(const RunConfig& config) {
  EndToEnd out;
  std::vector<std::unique_ptr<ColdClient>> clients;
  for (int c = 0; c < kEngineColdClients; ++c) {
    clients.push_back(std::make_unique<ColdClient>(config.seed, c, config.spans));
  }
  SharedLatencies latencies;
  uint64_t requests_before = 0;
  uint64_t sent_before = 0;
  MeasureInSegments<ColdServer>(
      config, &out, [&config] { return MakeColdServer(config.seed); },
      [&](ColdServer& cold, Segment& segment) {
        const auto before = QueryStats(*cold.stats_client);
        CHECK(before.has_value());
        requests_before = StatsCounter(*before, "serve.requests");
        std::vector<std::thread> threads;
        for (int c = 0; c < kEngineColdClients; ++c) {
          threads.emplace_back(ColdClientLoop, std::ref(cold), config.seed, c,
                               std::ref(segment), std::ref(latencies), std::ref(*clients[c]));
        }
        for (std::thread& thread : threads) thread.join();
        if (config.spans != nullptr) {
          for (const auto& mine : clients) config.spans->Merge(std::move(mine->spans));
        }
      },
      [&](ColdServer& cold) {
        uint64_t sent = 0;
        for (const auto& mine : clients) sent += mine->sent;
        CheckServerBooks(*cold.stats_client, requests_before, sent - sent_before, &out);
        sent_before = sent;
        out.cache_inserts += cold.server->cache().snapshot().misses;
      });
  for (const auto& mine : clients) {
    out.attempted += mine->sent;
    for (const std::string& failure : mine->failures) {
      NoteError(&out, "cold answer is not a fresh OK: " + failure);
    }
  }
  {
    std::lock_guard<std::mutex> lock(latencies.mutex);
    latencies.blocks.Finish();
    FillLatency(latencies.blocks, &out);
  }
  // The seeded sample is verified after the run, so checking costs no throughput.
  for (const auto& mine : clients) {
    for (const auto& [payload, response] : mine->samples) {
      std::string why;
      if (!MatchesDirectExecution(payload, response, &why)) NoteError(&out, why);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// chaos_campaign

namespace {

struct ChaosPool {
  std::unique_ptr<ThreadPool> pool;
  std::string error;
  ThreadPool& exec_pool() { return *pool; }
};

// What a campaign reported; every repeat of one campaign must report the same.
struct CampaignOutcome {
  int plans_run = -1;
  int liveness_stalls = -1;
  bool operator==(const CampaignOutcome&) const = default;
};

// Runs the Raft or the PBFT campaign of `slot` of the seed's fixed plan set; returns the
// plans that ran clean.
int RunCampaign(ThreadPool* pool, uint64_t seed, uint64_t slot, bool pbft,
                std::vector<CampaignOutcome>* outcomes, EndToEnd* out) {
  auto report = probcon::RunFuzzCampaign(ChaosCampaignOptions(
      pbft, CampaignSeed(seed, slot, pbft), kChaosPlansPerCampaign, pool));
  out->attempted += kChaosPlansPerCampaign;
  const std::string name = std::string(pbft ? "pbft" : "raft") + " campaign " +
                           std::to_string(slot) + " of seed " + std::to_string(seed);
  if (!report.ok()) {
    NoteError(out, name + " failed: " + report.status().ToString(), kChaosPlansPerCampaign);
    return 0;
  }
  if (report->plans_run != kChaosPlansPerCampaign || report->safety_violations != 0) {
    NoteError(out, name + ": " + report->Describe(), kChaosPlansPerCampaign);
    return 0;
  }
  CampaignOutcome& first = (*outcomes)[2 * slot + (pbft ? 1 : 0)];
  const CampaignOutcome now{report->plans_run, report->liveness_stalls};
  if (first.plans_run < 0) {
    first = now;
  } else if (!(first == now)) {
    NoteError(out, name + " reported differently on a repeat", kChaosPlansPerCampaign);
    return 0;
  }
  return report->plans_run;
}

// The order the run visits the slots in: every slot once per cycle, each cycle in a fresh
// seeded order, so every run measures the same mix of plans.
class SlotOrder {
 public:
  explicit SlotOrder(uint64_t seed) : rng_(seed) {}
  uint64_t Next() {
    if (next_ == order_.size()) {
      order_.resize(kChaosCampaigns);
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (size_t i = order_.size() - 1; i > 0; --i) {  // Fisher-Yates, library-independent.
        std::swap(order_[i], order_[rng_.NextBelow(i + 1)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  probcon::Rng rng_;
  std::vector<uint64_t> order_;
  size_t next_ = 0;
};

std::unique_ptr<ChaosPool> MakeChaosPool(uint64_t seed) {
  auto chaos = std::make_unique<ChaosPool>();
  chaos->pool = std::make_unique<ThreadPool>(kChaosPool);
  // Warm-up: one batch of a plan set the timed loop never uses.
  EndToEnd warmup;
  std::vector<CampaignOutcome> outcomes(2 * kChaosCampaigns);
  for (const bool pbft : {false, true}) {
    RunCampaign(chaos->pool.get(), seed ^ 0xC4A0, 0, pbft, &outcomes, &warmup);
  }
  if (!warmup.errors.empty()) chaos->error = "warm-up " + warmup.errors.front();
  return chaos;
}

}  // namespace

EndToEnd RunChaosCampaign(const RunConfig& config) {
  EndToEnd out;
  LatencyBlocks latencies;
  std::vector<CampaignOutcome> outcomes(2 * kChaosCampaigns);
  SlotOrder order(probcon::DeriveStreamSeed(config.seed, 0xC5));
  uint64_t campaigns = 0;
  MeasureInSegments<ChaosPool>(
      config, &out, [&config] { return MakeChaosPool(config.seed); },
      [&](ChaosPool& chaos, Segment& segment) {
        while (segment.KeepMeasuring(campaigns)) {
          const uint64_t slot = order.Next();
          for (const bool pbft : {false, true}) {
            const auto start = Clock::now();
            const int clean =
                RunCampaign(chaos.pool.get(), config.seed, slot, pbft, &outcomes, &out);
            const auto end = Clock::now();
            segment.CountOps(clean);
            latencies.Add(std::chrono::duration<double, std::milli>(end - start).count());
            ++campaigns;
            if (config.spans != nullptr) {
              config.spans->Record(pbft ? "chaos_campaign.pbft" : "chaos_campaign.raft",
                                   campaigns, start, end);
            }
          }
        }
      },
      [](ChaosPool&) {});
  latencies.Finish();
  FillLatency(latencies, &out);
  return out;
}

}  // namespace perfbench
