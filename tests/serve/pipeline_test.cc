// Pipelining end to end: batched queries over one connection (TCP and loopback),
// out-of-order completion matched back by request id, slow-consumer disconnection,
// graceful drain with pipelined requests in flight, sharded single-flight, and the
// request-text memo's byte-identity guarantee.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/engine.h"
#include "src/serve/framing.h"
#include "src/serve/server.h"
#include "src/serve/spec.h"
#include "src/serve/transport.h"

namespace probcon::serve {
namespace {

Json Params(const std::string& text) {
  auto parsed = ParseJson(text, "test params");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

// A Monte Carlo query slow enough (tens of milliseconds) to still be running while later
// pipelined requests are decoded; `seed` keeps repetitions cache-cold.
Json SlowParams(uint64_t seed) {
  return Params(R"({"protocol": "raft", "fault": {"n": 7, "p": 0.02}, "trials": 2000000,
                    "seed": )" +
                std::to_string(seed) + "}");
}

// Raw framed-protocol connection, for tests that need to observe wire-level behavior
// (completion order, disconnects) that ServeClient abstracts away.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval timeout{};
    timeout.tv_sec = 10;  // A wedged server fails the test instead of hanging it.
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)),
              0)
        << std::strerror(errno);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  // Sends one framed payload; returns false once the server has disconnected us.
  bool Send(const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads the next response payload, or nullopt on EOF/reset.
  std::optional<std::string> ReadFrame() {
    char buffer[64 * 1024];
    while (true) {
      Result<std::optional<std::string>> next = decoder_.Next();
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (!next.ok() || next->has_value()) {
        return next.ok() ? *next : std::nullopt;
      }
      const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (received <= 0) return std::nullopt;
      decoder_.Feed(std::string_view(buffer, static_cast<size_t>(received)));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

class PipelineTest : public ::testing::Test {
 protected:
  void StartTransport(TcpServerOptions options = {}) {
    metrics_ = std::make_unique<MetricsRegistry>();
    server_ = std::make_unique<QueryServer>(ServerOptions{}, metrics_.get());
    transport_ = std::make_unique<TcpServer>(*server_, metrics_.get(), options);
    const Status started = transport_->Start(/*port=*/0);
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    if (transport_ != nullptr) transport_->Stop();
    server_.reset();
  }

  ServeClient Connect() {
    auto channel = TcpChannel::Connect(transport_->port());
    EXPECT_TRUE(channel.ok()) << channel.status().ToString();
    return ServeClient(std::move(*channel));
  }

  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<TcpServer> transport_;
};

TEST_F(PipelineTest, BatchOverTcpMatchesSequentialAnswers) {
  StartTransport();
  std::vector<ServeClient::BatchItem> items;
  items.push_back({"table1", Params(R"({"n": 4})"), 0.0, false});
  items.push_back({"table2", Params(R"({"fault": {"n": 5, "p": 0.01}})"), 0.0, false});
  items.push_back({"table1", Params(R"({"n": 7})"), 0.0, false});
  items.push_back({"ping", Json::Object(), 0.0, false});

  ServeClient batched = Connect();
  auto responses = batched.QueryBatch(items);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), items.size());

  ServeClient sequential = Connect();
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE((*responses)[i].status.ok()) << (*responses)[i].status.ToString();
    auto expected = sequential.Query(items[i].kind, items[i].params);
    ASSERT_TRUE(expected.ok());
    // Batched answers are the same bytes a sequential client gets — order restored by id.
    EXPECT_EQ(WriteJson((*responses)[i].result), WriteJson(expected->result))
        << "batch slot " << i;
  }
}

TEST_F(PipelineTest, LoopbackBatchMatchesTcpBatch) {
  StartTransport();
  std::vector<ServeClient::BatchItem> items;
  for (int n = 4; n <= 8; ++n) {
    items.push_back(
        {"table1", Params("{\"n\": " + std::to_string(n) + "}"), 0.0, false});
  }
  ServeClient tcp = Connect();
  auto over_tcp = tcp.QueryBatch(items);
  ASSERT_TRUE(over_tcp.ok()) << over_tcp.status().ToString();

  ServeClient loopback(std::make_unique<LoopbackChannel>(*server_));
  auto inproc = loopback.QueryBatch(items);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();

  ASSERT_EQ(over_tcp->size(), inproc->size());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE((*over_tcp)[i].status.ok());
    EXPECT_EQ(WriteJson((*over_tcp)[i].result), WriteJson((*inproc)[i].result));
    EXPECT_TRUE((*inproc)[i].cached);  // same canonical keys, same shared cache
  }
}

TEST_F(PipelineTest, OutOfOrderCompletionIsMatchedById) {
  // A real pool so the Monte Carlo request runs off the reactor thread while the ping is
  // decoded and answered inline.
  ScopedThreadPool pool(2);
  StartTransport();
  RawConn conn(transport_->port());

  ASSERT_TRUE(conn.Send(RequestEnvelope::Serialize(1, "montecarlo", SlowParams(1), 0.0)));
  ASSERT_TRUE(conn.Send(RequestEnvelope::Serialize(2, "ping", Json::Object(), 0.0)));

  auto first = conn.ReadFrame();
  ASSERT_TRUE(first.has_value());
  auto second = conn.ReadFrame();
  ASSERT_TRUE(second.has_value());

  auto first_envelope = ResponseEnvelope::Parse(*first);
  auto second_envelope = ResponseEnvelope::Parse(*second);
  ASSERT_TRUE(first_envelope.ok());
  ASSERT_TRUE(second_envelope.ok());
  // The ping (id 2) answers inline on the reactor while the Monte Carlo run (id 1) is
  // still on the pool: responses come back out of order, correlated only by id.
  EXPECT_EQ(first_envelope->id, 2u);
  EXPECT_TRUE(first_envelope->status.ok());
  EXPECT_EQ(second_envelope->id, 1u);
  EXPECT_TRUE(second_envelope->status.ok()) << second_envelope->status.ToString();
}

TEST_F(PipelineTest, SlowConsumerIsDisconnected) {
  TcpServerOptions options;
  options.max_conn_outbound_bytes = 32 * 1024;
  StartTransport(options);
  RawConn conn(transport_->port());

  // Pump pings without ever reading a response. The responses fill this client's kernel
  // receive buffer, then the connection's outbound buffer on the server, which crosses the
  // 32 KiB cap and gets the connection killed — observable here as a failed send (RST) or,
  // if every send got buffered, EOF on the next read.
  bool disconnected = false;
  for (int i = 0; i < 200000; ++i) {
    if (!conn.Send(RequestEnvelope::Serialize(static_cast<uint64_t>(i + 1), "ping",
                                              Json::Object(), 0.0))) {
      disconnected = true;
      break;
    }
  }
  if (!disconnected) {
    disconnected = !conn.ReadFrame().has_value();
  }
  EXPECT_TRUE(disconnected);

  // The reactor reaps the killed connection; the slot is freed for new clients.
  for (int i = 0; i < 1000 && transport_->connection_count() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(transport_->connection_count(), 0u);

  // A well-behaved client on a fresh connection is unaffected.
  ServeClient client = Connect();
  auto response = client.Query("ping", Json::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
}

TEST_F(PipelineTest, DrainAnswersEveryPipelinedRequest) {
  ScopedThreadPool pool(2);
  StartTransport();

  // 12 slow, distinct (cache-cold) requests pipelined on one connection, then Drain()
  // while they are in flight: every request must still get exactly one response — the
  // ones already admitted answer OK, the ones decoded after the drain flag answer
  // UNAVAILABLE. None may vanish.
  std::vector<ServeClient::BatchItem> items;
  for (uint64_t seed = 100; seed < 112; ++seed) {
    items.push_back({"montecarlo", SlowParams(seed), 0.0, false});
  }
  ServeClient client = Connect();
  Result<std::vector<ResponseEnvelope>> responses = InternalError("unset");
  std::thread batch_thread(
      [&client, &items, &responses] { responses = client.QueryBatch(items); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->Drain();
  batch_thread.join();

  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), items.size());
  int ok = 0;
  for (size_t i = 0; i < responses->size(); ++i) {
    const Status& status = (*responses)[i].status;
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kUnavailable)
        << "slot " << i << ": " << status.ToString();
    if (status.ok()) ++ok;
  }
  // The batch straddled the drain: the requests in flight when Drain() began completed.
  EXPECT_GT(ok, 0);
}

TEST_F(PipelineTest, ConcurrentDistinctKeysSingleFlightAcrossShards) {
  ScopedThreadPool pool(4);
  StartTransport();

  // 6 distinct keys spread across cache shards, each requested concurrently by 4 clients:
  // single-flight must hold per key — one engine run each, everyone else coalesces or
  // hits — even though the keys land in different shards.
  constexpr int kKeys = 6;
  constexpr int kClientsPerKey = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClientsPerKey; ++c) {
    threads.emplace_back([this, &failures] {
      auto channel = TcpChannel::Connect(transport_->port());
      if (!channel.ok()) {
        ++failures;
        return;
      }
      ServeClient client(std::move(*channel));
      std::vector<ServeClient::BatchItem> items;
      for (uint64_t key = 0; key < kKeys; ++key) {
        items.push_back({"montecarlo", SlowParams(500 + key), 0.0, false});
      }
      auto responses = client.QueryBatch(items);
      if (!responses.ok()) {
        ++failures;
        return;
      }
      for (const ResponseEnvelope& response : *responses) {
        if (!response.status.ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto cache = server_->cache().snapshot();
  EXPECT_EQ(cache.misses, static_cast<uint64_t>(kKeys));  // one engine run per key
  EXPECT_EQ(cache.entry_count, static_cast<size_t>(kKeys));
  EXPECT_EQ(cache.hits + cache.misses,
            static_cast<uint64_t>(kKeys * kClientsPerKey));
}

TEST_F(PipelineTest, TextMemoFastPathIsByteIdenticalToFullSerialization) {
  StartTransport();

  // Identical payload text, different ids: the first request parses and populates the
  // request-text memo, the second skips parse/canonicalize entirely and splices the
  // cached result. The splice must be byte-identical to a full ResponseEnvelope
  // round-trip, and the memo hit must be recorded.
  const Json params = Params(R"({"n": 4})");
  const std::string cold = server_->Handle(RequestEnvelope::Serialize(7, "table1", params, 0.0));
  const std::string warm = server_->Handle(RequestEnvelope::Serialize(8, "table1", params, 0.0));

  auto cold_envelope = ResponseEnvelope::Parse(cold);
  auto warm_envelope = ResponseEnvelope::Parse(warm);
  ASSERT_TRUE(cold_envelope.ok());
  ASSERT_TRUE(warm_envelope.ok());
  EXPECT_EQ(cold_envelope->id, 7u);
  EXPECT_EQ(warm_envelope->id, 8u);
  EXPECT_FALSE(cold_envelope->cached);
  EXPECT_TRUE(warm_envelope->cached);
  EXPECT_EQ(WriteJson(cold_envelope->result), WriteJson(warm_envelope->result));
  // The spliced fast-path response re-serializes to exactly the same bytes.
  EXPECT_EQ(warm, warm_envelope->Serialize());
  EXPECT_GE(metrics_->GetCounter("serve.text_memo.hits").value(), 1u);

  // Trace requests never take the splice path: the trace echo must be present both times.
  const std::string traced_text =
      server_->Handle(RequestEnvelope::Serialize(9, "table1", params, 0.0, true));
  auto traced = ResponseEnvelope::Parse(traced_text);
  ASSERT_TRUE(traced.ok());
  EXPECT_NE(traced->trace.type, Json::Type::kNull);
}

TEST_F(PipelineTest, TextMemoStaysWithinItsByteBound) {
  StartTransport();

  // Distinct 60-node payloads of over a KiB each: enough of them to overflow the memo's
  // byte bound twice over. The bytes gauge must never exceed the bound, and a payload
  // memoized after the last wholesale clear must still hit byte-identically.
  const auto payload = [](int variant) {
    Json probabilities = Json::Array();
    for (int i = 0; i < 60; ++i) {
      probabilities.Append(Json::Number(1e-3 + 1e-9 * (variant * 60 + i)));
    }
    Json fault = Json::Object();
    fault.Set("probabilities", std::move(probabilities));
    Json params = Json::Object();
    params.Set("fault", std::move(fault));
    return params;
  };
  const Gauge& memo_bytes = metrics_->GetGauge("serve.text_memo.bytes");
  constexpr int kPayloads = 2400;
  size_t payload_bytes = 0;
  for (int v = 0; v < kPayloads; ++v) {
    const std::string request = RequestEnvelope::Serialize(v, "table2", payload(v), 0.0);
    payload_bytes += request.size();
    auto response = ResponseEnvelope::Parse(server_->Handle(request));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
    EXPECT_LE(memo_bytes.value(), static_cast<double>(kRequestMemoBytes));
  }
  ASSERT_GT(payload_bytes, 2 * kRequestMemoBytes);  // The bound was really exercised.
  EXPECT_GT(memo_bytes.value(), 0.0);

  const uint64_t hits_before = metrics_->GetCounter("serve.text_memo.hits").value();
  const std::string repeat = server_->Handle(
      RequestEnvelope::Serialize(kPayloads + 1, "table2", payload(kPayloads - 1), 0.0));
  EXPECT_EQ(metrics_->GetCounter("serve.text_memo.hits").value(), hits_before + 1);
  auto repeated = ResponseEnvelope::Parse(repeat);
  ASSERT_TRUE(repeated.ok());
  EXPECT_TRUE(repeated->cached);
  EXPECT_EQ(repeat, repeated->Serialize());
  const ServeRequest fresh =
      *ServeRequest::FromParams(RequestKind::kTable2, payload(kPayloads - 1));
  EXPECT_EQ(WriteJson(repeated->result), WriteJson(*ExecuteRequest(fresh, nullptr)));
}

TEST_F(PipelineTest, StopWhileClientsAreMidBatchDoesNotRace) {
  StartTransport();

  // Hammer Stop() against live pipelined traffic: clients batching pings while the
  // transport tears down mid-flight. Every outcome is acceptable except a crash, a hang,
  // or a torn response (QueryBatch validates ids and counts).
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([this, &stop] {
      while (!stop.load()) {
        auto channel = TcpChannel::Connect(transport_->port());
        if (!channel.ok()) return;  // listener already down
        ServeClient client(std::move(*channel));
        std::vector<ServeClient::BatchItem> items(
            16, ServeClient::BatchItem{"ping", Json::Object(), 0.0, false});
        auto responses = client.QueryBatch(items);
        if (!responses.ok()) return;  // disconnected mid-batch during Stop — fine
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  transport_->Stop();
  stop.store(true);
  for (std::thread& client : clients) client.join();
  // Stop() is idempotent and leaves no connections behind.
  transport_->Stop();
  EXPECT_EQ(transport_->connection_count(), 0u);
}

TEST_F(PipelineTest, PerShardConnectionGaugesSumToActive) {
  TcpServerOptions options;
  options.reactors = 2;
  StartTransport(options);
  ASSERT_EQ(transport_->reactor_count(), 2);

  std::vector<ServeClient> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(Connect());
    auto response = clients.back().Query("ping", Json::Object());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  // Connections are registered by the reactor thread; pings above guarantee each one has
  // been adopted by its shard before we read the gauges.
  double shard_sum = 0.0;
  for (int shard = 0; shard < transport_->reactor_count(); ++shard) {
    shard_sum += metrics_->GetGauge("serve.connections.active.shard" +
                                    std::to_string(shard))
                     .value();
  }
  EXPECT_EQ(shard_sum, metrics_->GetGauge("serve.connections.active").value());
  EXPECT_EQ(shard_sum, static_cast<double>(clients.size()));
  // Round-robin accept: 5 connections over 2 shards can't all land on one.
  for (int shard = 0; shard < transport_->reactor_count(); ++shard) {
    EXPECT_GT(metrics_->GetGauge("serve.connections.active.shard" +
                                 std::to_string(shard))
                  .value(),
              0.0);
  }
}

}  // namespace
}  // namespace probcon::serve
