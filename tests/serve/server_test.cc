// QueryServer behavior through the loopback transport: memoized answers with the cached
// flag, load shedding at the admission limit, drain semantics, deadline enforcement, and
// the inline ping path.

#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

Json Params(const std::string& text) {
  auto parsed = ParseJson(text, "test params");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

const Json* FindPath(const Json& object, const std::string& outer, const std::string& inner) {
  const Json* level = object.Find(outer);
  return level == nullptr ? nullptr : level->Find(inner);
}

TEST(QueryServerTest, AnswersTable1AndMemoizesTheRepeat) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto first = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->status.ok()) << first->status.ToString();
  EXPECT_FALSE(first->cached);
  const Json* safe_and_live = FindPath(first->result, "report", "safe_and_live");
  ASSERT_NE(safe_and_live, nullptr);
  EXPECT_EQ(safe_and_live->text, "99.94%");  // the regression-locked Table 1 cell

  auto second = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->status.ok());
  EXPECT_TRUE(second->cached);
  // The memoized answer is byte-identical to the computed one.
  EXPECT_EQ(WriteJson(first->result), WriteJson(second->result));

  // A canonically equal spelling hits the same entry.
  auto respelled = client.Query("table1", Params(R"({"fault": {"p": 1e-2, "n": 4}, "n": 4})"));
  ASSERT_TRUE(respelled.ok());
  ASSERT_TRUE(respelled->status.ok());
  EXPECT_TRUE(respelled->cached);

  EXPECT_EQ(server.cache().snapshot().misses, 1u);
}

TEST(QueryServerTest, PlacementSearchOverItsCostBudgetIsRefusedAtParse) {
  // 10 nodes on 5 racks: 5^10 assignments, each a 2^10 x 2^5 enumeration — minutes of CPU.
  // The edge refuses it before any engine runs; the engine_cold shape (7 on 2) and the
  // largest admissible search (8 on 5) pass the same check.
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  const std::string nodes10 = "[0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01]";
  const std::string racks5 = "[0.001, 0.002, 0.003, 0.004, 0.005]";
  auto refused = client.Query("placement", Params(R"({"node_probabilities": )" + nodes10 +
                                                  R"(, "rack_probabilities": )" + racks5 + "}"));
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument) << refused->status.ToString();
  EXPECT_EQ(server.cache().snapshot().misses, 0u);

  auto small = client.Query("placement", Params(R"({"node_probabilities": [0.01, 0.02, 0.01,
      0.03, 0.01, 0.02, 0.04], "rack_probabilities": [0.001, 0.002]})"));
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->status.ok()) << small->status.ToString();
  EXPECT_TRUE(ServeRequest::FromParams(
                  RequestKind::kPlacement,
                  Params(R"({"node_probabilities": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01,
                             0.01], "rack_probabilities": )" + racks5 + "}"))
                  .ok());
}

TEST(QueryServerTest, PingAnswersInlineAndReportsDraining) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto ping = client.Query("ping", Json::Object());
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(ping->status.ok());
  const Json* draining = ping->result.Find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_FALSE(draining->boolean);

  server.Drain();
  ping = client.Query("ping", Json::Object());
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(ping->status.ok()) << "pings must succeed while draining";
  draining = ping->result.Find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_TRUE(draining->boolean);
}

TEST(QueryServerTest, ShedsWorkAboveTheAdmissionLimit) {
  ServerOptions options;
  options.max_inflight = 0;  // every non-ping request is over the limit
  MetricsRegistry metrics;
  QueryServer server(options, &metrics);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto shed = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status.code(), StatusCode::kResourceExhausted);

  // Shedding is a reject, not a queue: nothing in flight, and the probe still answers.
  EXPECT_EQ(server.inflight(), 0);
  auto ping = client.Query("ping", Json::Object());
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->status.ok());
  EXPECT_EQ(metrics.GetCounter("serve.shed").value(), 1u);
}

TEST(QueryServerTest, DrainingServerAnswersUnavailable) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  server.Drain();

  auto rejected = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnavailable);
}

TEST(QueryServerTest, ExpiredDeadlineReturnsDeadlineExceededPromptly) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  // A Monte Carlo run sized to take far longer than the 1 ms deadline; the watchdog fires
  // the token and the sampling loop bails at the next poll instead of wedging the server.
  auto response = client.Query(
      "montecarlo",
      Params(R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824})"),
      /*deadline_ms=*/1.0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);

  // The server is healthy afterwards: a fresh cheap request still answers.
  auto after = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST(QueryServerTest, CancelledComputationIsNotCached) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  const std::string params =
      R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824, "seed": 7})";

  auto expired = client.Query("montecarlo", Params(params), /*deadline_ms=*/1.0);
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired->status.code(), StatusCode::kDeadlineExceeded);

  // Same canonical key without a deadline: the error was not memoized, so this retries the
  // computation — observable as a second cache miss (a smaller run would be a lie here, so
  // keep the key identical and only drop the deadline... but 2^30 trials would take
  // minutes, so instead verify via cache stats that the failed attempt stayed out).
  EXPECT_EQ(server.cache().snapshot().entry_count, 0u);
  EXPECT_EQ(server.cache().snapshot().misses, 1u);
}

TEST(QueryServerTest, MalformedPayloadAnswersInvalidArgumentWithRecoveredId) {
  QueryServer server(ServerOptions{});
  const std::string response_text =
      server.Handle(R"({"v": 9, "id": 31, "kind": "table1", "params": {"n": 4}})");
  auto response = ResponseEnvelope::Parse(response_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response->id, 31u);  // recovered from the rejected payload
}

TEST(QueryServerTest, DeeplyNestedPayloadAnswersInvalidArgumentNotCrash) {
  // A nesting bomb ("[[[[...") up to the frame limit must degrade to INVALID_ARGUMENT like
  // any other malformed input — one local client must not be able to crash the daemon.
  QueryServer server(ServerOptions{});
  const std::string response_text = server.Handle(std::string(100000, '['));
  auto response = ResponseEnvelope::Parse(response_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);

  // The server still answers real queries afterwards.
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto after = client.Query("table1", Params(R"({"n": 4})"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST(QueryServerTest, ValidationErrorsSurfaceAsInvalidArgument) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto response = client.Query("table1", Params(R"({"n": 3})"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryServerTest, DefaultDeadlineFromOptionsApplies) {
  ServerOptions options;
  options.default_deadline_ms = 1.0;
  QueryServer server(options);
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  // No client deadline, but the server-wide default catches the oversized run.
  auto response = client.Query(
      "montecarlo",
      Params(R"({"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824})"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace probcon::serve
