// End-to-end daemon tests over a real unix-domain socket: byte-identical
// analyze responses against the frozen goldens, sweep_decode responses
// against the in-process library, concurrent clients sharing the
// process-wide caches, typed 400s for bad params, every admitted heavy
// request running at once, admission control, cooperative deadlines,
// graceful drain (also with an unwritable PROOF_METRICS_OUT), and the stats
// ledger.  Each gtest case runs in its own process (gtest_discover_tests), so
// servers never share global singleton state with other cases.  Runs under
// TSan via scripts/check_tsan.sh.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <chrono>
#include <thread>
#include <vector>

#include "core/decode_sweep.hpp"
#include "core/profiler.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

#ifndef PROOF_TEST_SOURCE_DIR
#error "tests/CMakeLists.txt must define PROOF_TEST_SOURCE_DIR"
#endif

namespace proof {
namespace {

std::string unique_socket_path() {
  static int counter = 0;
  std::ostringstream out;
  out << "/tmp/proof_e2e_" << ::getpid() << "_" << counter++ << ".sock";
  return out.str();
}

/// One request over a fresh connection; progress frames are collected, the
/// final result/error frame is returned last in the list.
std::vector<serve::Response> roundtrip(const net::Endpoint& endpoint,
                                       const std::string& payload) {
  net::Socket socket = net::connect(endpoint);
  serve::write_frame(socket, payload);
  std::vector<serve::Response> frames;
  while (true) {
    const std::optional<std::string> frame = serve::read_frame(socket);
    if (!frame.has_value()) {
      ADD_FAILURE() << "connection closed before a result frame";
      return frames;
    }
    frames.push_back(serve::parse_response(*frame));
    if (!frames.back().is_progress()) {
      return frames;
    }
  }
}

serve::Response call(const net::Endpoint& endpoint, const std::string& payload) {
  const std::vector<serve::Response> frames = roundtrip(endpoint, payload);
  EXPECT_FALSE(frames.empty());
  return frames.empty() ? serve::Response{} : frames.back();
}

serve::Server make_server(serve::ServerOptions options = {}) {
  options.listen = "unix:" + unique_socket_path();
  return serve::Server(std::move(options));
}

std::string analyze_request(const std::string& model_id, int64_t batch) {
  std::ostringstream out;
  out << R"({"id":3,"method":"analyze","params":{"model":)"
      << json::quote(model_id)
      << R"(,"platform":"a100","backend":"trt_sim","dtype":"fp16","mode":"predicted","batch":)"
      << batch << "}}";
  return out.str();
}

// --- byte identity against the frozen goldens --------------------------------

class ServeGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ServeGolden, AnalyzeIsByteIdenticalToSingleShotCli) {
  const std::string model_id = GetParam();
  const std::string golden = testing::read_file(std::string(PROOF_TEST_SOURCE_DIR) +
                                       "/golden/" + model_id + ".json");
  ASSERT_FALSE(golden.empty()) << "missing golden for " << model_id;

  serve::Server server = make_server();
  server.start();
  const serve::Response response = call(
      server.endpoint(),
      analyze_request(model_id, model_id == std::string("sd_unet") ? 2 : 4));
  ASSERT_TRUE(response.is_result())
      << response.error_code << ": " << response.error_message;
  // The report travelled request -> profiler -> JSON -> frame -> raw splice;
  // after zeroing wall-clock fields it must equal the frozen golden byte for
  // byte — the daemon introduces no serialization drift.
  EXPECT_EQ(testing::normalize_wall_clock(response.payload), golden);
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(FourZooModels, ServeGolden,
                         ::testing::Values("resnet50", "bert_base",
                                           "shufflenetv2_10", "sd_unet"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- basic methods -----------------------------------------------------------

TEST(ServeE2e, PingStatsAndUnknownMethod) {
  serve::Server server = make_server();
  server.start();

  const serve::Response pong =
      call(server.endpoint(), R"({"id":1,"method":"ping"})");
  ASSERT_TRUE(pong.is_result());
  EXPECT_EQ(json::parse(pong.payload).get_int("version"), 1);

  const serve::Response stats =
      call(server.endpoint(), R"({"id":2,"method":"stats"})");
  ASSERT_TRUE(stats.is_result());
  const json::Value doc = json::parse(stats.payload);
  ASSERT_NE(doc.find("server"), nullptr);
  ASSERT_NE(doc.find("prep_cache"), nullptr);
  EXPECT_NE(doc.find("prep_cache")->find("in_flight_waits"), nullptr);
  ASSERT_NE(doc.find("model_pool"), nullptr);

  const serve::Response missing =
      call(server.endpoint(), R"({"id":3,"method":"frobnicate"})");
  ASSERT_TRUE(missing.is_error());
  EXPECT_EQ(missing.error_code, 404);
  EXPECT_EQ(missing.error_kind, "not_found");
  server.stop();
}

TEST(ServeE2e, BadRequestsGetTypedErrorsAndConnectionSurvives) {
  serve::Server server = make_server();
  server.start();

  net::Socket socket = net::connect(server.endpoint());
  // Well-framed garbage: typed 400, connection stays usable.
  serve::write_frame(socket, "this is not json");
  std::optional<std::string> frame = serve::read_frame(socket);
  ASSERT_TRUE(frame.has_value());
  serve::Response response = serve::parse_response(*frame);
  ASSERT_TRUE(response.is_error());
  EXPECT_EQ(response.error_code, 400);

  // Unknown model and unknown platform map to 400 as well.
  serve::write_frame(
      socket,
      R"({"id":2,"method":"profile","params":{"model":"no_such_model","platform":"a100"}})");
  frame = serve::read_frame(socket);
  ASSERT_TRUE(frame.has_value());
  response = serve::parse_response(*frame);
  ASSERT_TRUE(response.is_error());
  EXPECT_EQ(response.error_code, 400);

  // Same connection still answers pings afterwards.
  serve::write_frame(socket, R"({"id":3,"method":"ping"})");
  frame = serve::read_frame(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(serve::parse_response(*frame).is_result());
  server.stop();
}

// --- shared caches under concurrency -----------------------------------------

TEST(ServeE2e, ConcurrentClientsShareCachesAndAllSucceed) {
  serve::ServerOptions options;
  options.max_inflight = 16;
  serve::Server server = make_server(std::move(options));
  server.start();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int> ok(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      // Half profile (heavy, cache-sharing), half stats (light, never gated).
      const std::string payload =
          i % 2 == 0
              ? R"({"id":1,"method":"profile","params":{"model":"resnet50","platform":"a100","batch":4}})"
              : R"({"id":1,"method":"stats"})";
      const serve::Response response = call(server.endpoint(), payload);
      ok[i] = response.is_result() ? 1 : 0;
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(ok[i], 1) << "client " << i;
  }

  // All four profile clients shared one prepared engine: 1 miss, 3 hits.
  const serve::Response stats =
      call(server.endpoint(), R"({"id":2,"method":"stats"})");
  ASSERT_TRUE(stats.is_result());
  const json::Value doc = json::parse(stats.payload);
  const json::Value* cache = doc.find("prep_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->get_int("engine_misses"), 1);
  EXPECT_EQ(cache->get_int("engine_hits"), 3);
  EXPECT_EQ(cache->get_int("engine_lookups"),
            cache->get_int("engine_hits") + cache->get_int("engine_misses"));
  server.stop();
}

TEST(ServeE2e, BadParamsGetA400WithoutASourceLocation) {
  serve::Server server = make_server();
  server.start();
  for (const char* payload : {
           R"({"id":1,"method":"profile","params":{"model":"resnet18","platform":"a100","batch":0}})",
           R"({"id":2,"method":"sweep","params":{"model":"resnet18","platform":"a100","batches":3}})",
           R"({"id":3,"method":"profile","params":{"model":"resnet18","platform":"a100","dtype":"f16"}})",
           R"({"id":4,"method":"sweep_decode","params":{"model":"gpt2","platform":"a100","dtype":"f16"}})",
       }) {
    const serve::Response response = call(server.endpoint(), payload);
    ASSERT_TRUE(response.is_error()) << payload;
    EXPECT_EQ(response.error_code, 400) << response.error_message;
    EXPECT_EQ(response.error_message.find("check failed at"), std::string::npos)
        << response.error_message;
  }
  server.stop();
}

// --- admission control --------------------------------------------------------

TEST(ServeE2e, OverloadedRequestsAreRejectedWithTyped429) {
  serve::ServerOptions options;
  options.max_inflight = 1;
  serve::Server server = make_server(std::move(options));
  server.start();

  // Client A occupies the single admission slot (debug_sleep_ms stretches the
  // request deterministically).
  net::Socket slow = net::connect(server.endpoint());
  serve::write_frame(
      slow,
      R"({"id":1,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100","debug_sleep_ms":800}})");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Client B is rejected immediately — admission control fails fast instead
  // of queueing behind A.
  const serve::Response rejected = call(
      server.endpoint(),
      R"({"id":2,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100"}})");
  ASSERT_TRUE(rejected.is_error());
  EXPECT_EQ(rejected.error_code, 429);
  EXPECT_EQ(rejected.error_kind, "overloaded");
  EXPECT_NE(rejected.error_message.find("max_inflight"), std::string::npos);

  // Light methods are never admission-gated: observability works while the
  // server is saturated.
  const serve::Response stats =
      call(server.endpoint(), R"({"id":3,"method":"stats"})");
  ASSERT_TRUE(stats.is_result());
  EXPECT_EQ(json::parse(stats.payload).find("server")->get_int("inflight"), 1);

  // A finishes fine; its slot frees and B's retry succeeds.
  const std::optional<std::string> frame = serve::read_frame(slow);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(serve::parse_response(*frame).is_result());
  const serve::Response retry = call(
      server.endpoint(),
      R"({"id":4,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100"}})");
  EXPECT_TRUE(retry.is_result());

  const serve::Response after =
      call(server.endpoint(), R"({"id":5,"method":"stats"})");
  EXPECT_EQ(json::parse(after.payload)
                .find("server")
                ->get_int("rejected_overloaded"),
            1);
  server.stop();
}

// --- deadlines ----------------------------------------------------------------

TEST(ServeE2e, DeadlineCancelsSweepBetweenPointsWithoutPoisoningCaches) {
  serve::Server server = make_server();
  server.start();

  // 4 points x 100 ms of injected sleep against a 150 ms deadline: the sweep
  // must die between points with a 408 after streaming at least some progress.
  const std::vector<serve::Response> frames = roundtrip(
      server.endpoint(),
      R"({"id":1,"method":"sweep","params":{"model":"shufflenetv2_10","platform":"a100","batches":[1,2,4,8],"debug_sleep_ms":100,"deadline_ms":150}})");
  ASSERT_FALSE(frames.empty());
  const serve::Response& last = frames.back();
  ASSERT_TRUE(last.is_error());
  EXPECT_EQ(last.error_code, 408);
  EXPECT_EQ(last.error_kind, "deadline_exceeded");
  EXPECT_LT(frames.size() - 1, 4u);  // progress frames: fewer than all points

  // The caches only ever publish fully built entries, so the identical sweep
  // without a deadline succeeds and reuses whatever the cancelled run built.
  const serve::Response ok = call(
      server.endpoint(),
      R"({"id":2,"method":"sweep","params":{"model":"shufflenetv2_10","platform":"a100","batches":[1,2,4,8]}})");
  ASSERT_TRUE(ok.is_result())
      << ok.error_code << ": " << ok.error_message;
  const json::Value doc = json::parse(ok.payload);
  EXPECT_EQ(doc.find("points")->array.size(), 4u);
  EXPECT_GT(doc.get_int("optimal_batch"), 0);

  const serve::Response stats =
      call(server.endpoint(), R"({"id":3,"method":"stats"})");
  EXPECT_EQ(json::parse(stats.payload)
                .find("server")
                ->get_int("deadline_exceeded"),
            1);
  server.stop();
}

// --- graceful shutdown --------------------------------------------------------

TEST(ServeE2e, ShutdownDrainsAndRejectsNewHeavyWork) {
  serve::ServerOptions options;
  options.drain_timeout_s = 5.0;
  serve::Server server = make_server(std::move(options));
  server.start();

  // Park a slow request, then ask for shutdown while it is in flight.
  net::Socket slow = net::connect(server.endpoint());
  serve::write_frame(
      slow,
      R"({"id":1,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100","debug_sleep_ms":400}})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  net::Socket admin = net::connect(server.endpoint());
  serve::write_frame(admin, R"({"id":2,"method":"shutdown"})");
  std::optional<std::string> frame = serve::read_frame(admin);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(serve::parse_response(*frame).is_result());

  // New heavy work on the draining server gets a typed 503 on an already
  // established connection.
  serve::write_frame(
      admin,
      R"({"id":3,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100"}})");
  frame = serve::read_frame(admin);
  ASSERT_TRUE(frame.has_value());
  const serve::Response rejected = serve::parse_response(*frame);
  ASSERT_TRUE(rejected.is_error());
  EXPECT_EQ(rejected.error_code, 503);
  EXPECT_EQ(rejected.error_kind, "shutting_down");

  // The in-flight request still completes: drain means finish, not abort.
  frame = serve::read_frame(slow);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(serve::parse_response(*frame).is_result());

  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(ServeE2e, StopIsIdempotentAndDestructorIsSafe) {
  serve::Server server = make_server();
  server.start();
  server.stop();
  server.stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
}  // destructor runs on a stopped server

// --- stats ledger -------------------------------------------------------------

TEST(ServeE2e, RequestCountersReconcile) {
  serve::Server server = make_server();
  server.start();

  (void)call(server.endpoint(), R"({"id":1,"method":"ping"})");
  (void)call(server.endpoint(), R"({"id":2,"method":"nope"})");
  (void)call(
      server.endpoint(),
      R"({"id":3,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100"}})");

  // A session writes the terminal frame first and bumps the ok/error tallies
  // just after, so a client can observe its reply before the accounting
  // lands; wait for the ledger of the three finished requests to settle.
  for (int i = 0; i < 400; ++i) {
    const serve::ServerStats s = server.stats();
    if (s.requests_ok + s.requests_error >= 3) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const serve::Response stats =
      call(server.endpoint(), R"({"id":4,"method":"stats"})");
  ASSERT_TRUE(stats.is_result());
  const json::Value doc = json::parse(stats.payload);
  const json::Value* s = doc.find("server");
  ASSERT_NE(s, nullptr);
  // The stats request itself is number 4 and counts as in-progress total.
  EXPECT_EQ(s->get_int("requests_total"), 4);
  EXPECT_EQ(s->get_int("requests_ok"), 2);     // ping + profile
  EXPECT_EQ(s->get_int("requests_error"), 1);  // unknown method
  EXPECT_EQ(s->get_int("connections"), 4);
  EXPECT_EQ(s->get_int("inflight"), 0);
  server.stop();
}

// The remaining cases come after ConcurrentClientsShareCachesAndAllSucceed:
// cases share one process under scripts/check_tsan.sh, and that case expects
// the PrepCache ledger of its own requests only.

// --- the daemon's own documents ----------------------------------------------

std::string g12(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// A profile summary and a sweep's progress frames and result, rebuilt from
/// in-process Profiler::run results with printf's %.12g: the daemon's bytes.
TEST(ServeE2e, ProfileSummaryAndSweepFramesMatchInProcessBytes) {
  serve::Server server = make_server();
  server.start();
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.backend_id = "trt_sim";
  opt.dtype = DType::kF16;
  opt.batch = 2;

  const serve::Response profile = call(
      server.endpoint(),
      R"({"id":1,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100","backend":"trt_sim","dtype":"fp16","batch":2}})");
  ASSERT_TRUE(profile.is_result()) << profile.error_code << ": " << profile.error_message;
  // An engine-cache hit: analysis_time_s is the daemon's build time too.
  const ProfileReport r = Profiler(opt).run_zoo("shufflenetv2_10");
  EXPECT_EQ(profile.payload,
            "{\"model\":\"" + r.model_name + "\",\"platform\":\"" + r.platform_name +
                "\",\"backend\":\"" + r.backend_name + "\",\"batch\":2,\"dtype\":\"fp16\"" +
                ",\"total_latency_s\":" + g12(r.total_latency_s) +
                ",\"throughput_per_s\":" + g12(r.throughput_per_s()) +
                ",\"power_w\":" + g12(r.power_w) +
                ",\"mapping_coverage\":" + g12(r.mapping_coverage) +
                ",\"layers\":" + std::to_string(r.layers.size()) +
                ",\"analysis_time_s\":" + g12(r.analysis_time_s) + "}");

  const std::vector<serve::Response> frames = roundtrip(
      server.endpoint(),
      R"({"id":2,"method":"sweep","params":{"model":"shufflenetv2_10","platform":"a100","batches":[1,2]}})");
  ASSERT_EQ(frames.size(), 3u);
  ASSERT_TRUE(frames.back().is_result())
      << frames.back().error_code << ": " << frames.back().error_message;
  std::vector<BatchPoint> points;
  std::string points_json;
  for (const int64_t batch : {1, 2}) {
    opt.backend_id.clear();  // the platform's default runtime, as the daemon
    opt.batch = batch;
    const ProfileReport p = Profiler(opt).run_zoo("shufflenetv2_10");
    points.push_back({batch, p.total_latency_s, p.throughput_per_s(),
                      p.roofline.end_to_end.attained_flops()});
    const std::string point = "{\"batch\":" + std::to_string(batch) +
                              ",\"latency_s\":" + g12(points.back().latency_s) +
                              ",\"throughput_per_s\":" +
                              g12(points.back().throughput_per_s) +
                              ",\"attained_flops\":" +
                              g12(points.back().attained_flops) + "}";
    const serve::Response& progress = frames[static_cast<size_t>(batch - 1)];
    ASSERT_TRUE(progress.is_progress());
    EXPECT_EQ(progress.payload, point);
    points_json += (points_json.empty() ? "" : ",") + point;
  }
  EXPECT_EQ(frames.back().payload,
            "{\"model\":\"shufflenetv2_10\",\"points\":[" + points_json +
                "],\"optimal_batch\":" +
                std::to_string(select_optimal_batch(points)) +
                ",\"completed\":2}");
  server.stop();
}

// --- sweep_decode ------------------------------------------------------------

TEST(ServeE2e, SweepDecodeMatchesInProcess) {
  serve::Server server = make_server();
  server.start();
  const std::string grid = R"("model":"gpt2","batches":[1,4],"positions":[64,256])";
  DecodeSweepOptions options;
  options.batches = {1, 4};
  options.positions = {64, 256};

  // The cross-platform summary (npu3720 as an error row) and one platform
  // in depth: the daemon splices the very bytes the library serializes.
  const serve::Response all = call(
      server.endpoint(), R"({"id":1,"method":"sweep_decode","params":{"platform":"all",)" + grid + "}}");
  ASSERT_TRUE(all.is_result()) << all.error_code << ": " << all.error_message;
  EXPECT_EQ(all.payload, decode_platforms_json(sweep_decode_platforms(options)));

  const serve::Response a100 = call(
      server.endpoint(), R"({"id":2,"method":"sweep_decode","params":{"platform":"a100",)" + grid + "}}");
  ASSERT_TRUE(a100.is_result()) << a100.error_code << ": " << a100.error_message;
  options.platform_id = "a100";
  EXPECT_EQ(a100.payload, decode_sweep_json(sweep_decode(options)));

  // A bad grid is the client's fault on every platform, "all" included.
  const serve::Response bad = call(
      server.endpoint(),
      R"({"id":3,"method":"sweep_decode","params":{"platform":"all","positions":[0,64]}})");
  ASSERT_TRUE(bad.is_error());
  EXPECT_EQ(bad.error_code, 400);
  EXPECT_EQ(bad.error_kind, "bad_request");
  EXPECT_NE(bad.error_message.find("decode positions must be positive"), std::string::npos)
      << bad.error_message;
  server.stop();
}

// --- the method list and request concurrency ----------------------------------

TEST(ServeE2e, StatsTimesEveryHeavyMethod) {
  serve::Server server = make_server();
  server.start();
  const serve::Response decode = call(
      server.endpoint(),
      R"({"id":1,"method":"sweep_decode","params":{"model":"gpt2","platform":"a100","batches":[1],"positions":[64]}})");
  ASSERT_TRUE(decode.is_result()) << decode.error_code << ": " << decode.error_message;
  const serve::Response optimize = call(
      server.endpoint(),
      R"({"id":2,"method":"optimize","params":{"model":"shufflenetv2_10","platform":"a100","max_rounds":1}})");
  ASSERT_TRUE(optimize.is_result()) << optimize.error_code << ": " << optimize.error_message;

  // The daemon's sweep drops non-positive batches as sweep_batches does.
  const serve::Response bad = call(
      server.endpoint(),
      R"({"id":3,"method":"sweep","params":{"model":"shufflenetv2_10","platform":"a100","batches":[0,-4]}})");
  ASSERT_TRUE(bad.is_error());
  EXPECT_EQ(bad.error_code, 400);
  EXPECT_NE(bad.error_message.find("no valid batch candidates"), std::string::npos)
      << bad.error_message;

#ifdef PROOF_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (PROOF_OBS=OFF)";
#endif
  if (!obs::enabled()) {
    GTEST_SKIP() << "observability disabled in this environment";
  }
  const serve::Response stats = call(server.endpoint(), R"({"id":4,"method":"stats"})");
  ASSERT_TRUE(stats.is_result());
  const json::Value doc = json::parse(stats.payload);
  const json::Value* endpoints = doc.find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  for (const char* method : {"sweep_decode", "optimize", "sweep"}) {
    const json::Value* row = endpoints->find(method);
    ASSERT_NE(row, nullptr) << "stats endpoints lack " << method;
    EXPECT_GE(row->get_int("count"), 1) << method;  // the registry is per process
  }
  server.stop();
}

TEST(ServeE2e, EveryAdmittedRequestRunsAtOnce) {
  // At 2 jobs the default max_inflight is 4, and each admitted request runs
  // on its own session thread, not on the pool's single worker.
  struct RestoreJobs {
    unsigned jobs = ThreadPool::global().jobs();
    ~RestoreJobs() { ThreadPool::set_global_jobs(jobs); }
  } restore;
  ThreadPool::set_global_jobs(2);
  serve::Server server = make_server();
  server.start();
  ASSERT_EQ(server.max_inflight(), 4u);
  // Untimed warm-up: the model load and the engine build stay out of the window.
  ASSERT_TRUE(call(server.endpoint(),
                   R"({"id":1,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100"}})")
                  .is_result());

  std::vector<net::Socket> sockets;
  for (int i = 0; i < 4; ++i) {
    sockets.push_back(net::connect(server.endpoint()));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (net::Socket& socket : sockets) {
    serve::write_frame(
        socket,
        R"({"id":2,"method":"profile","params":{"model":"shufflenetv2_10","platform":"a100","debug_sleep_ms":300}})");
  }
  for (net::Socket& socket : sockets) {
    const std::optional<std::string> frame = serve::read_frame(socket);
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(serve::parse_response(*frame).is_result());
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  // Run one at a time, the four sleeps alone take 1200 ms; two at a time, 600.
  EXPECT_LT(elapsed_ms, 600.0);
  server.stop();
}

TEST(ServeE2e, StopSurvivesAnUnwritableMetricsOut) {
  const char* saved = std::getenv("PROOF_METRICS_OUT");
  const std::string saved_value = saved != nullptr ? saved : "";
  const std::string path =
      "/tmp/proof_no_such_dir_" + std::to_string(::getpid()) + "/metrics.json";
  ::setenv("PROOF_METRICS_OUT", path.c_str(), 1);

  serve::Server server = make_server();
  server.start();
  ::testing::internal::CaptureStderr();
  EXPECT_NO_THROW(server.stop());
  const std::string err = ::testing::internal::GetCapturedStderr();
  const bool running = server.running();
  if (saved != nullptr) {
    ::setenv("PROOF_METRICS_OUT", saved_value.c_str(), 1);
  } else {
    ::unsetenv("PROOF_METRICS_OUT");
  }
  EXPECT_FALSE(running);
  EXPECT_NE(err.find(path), std::string::npos) << err;
}

}  // namespace
}  // namespace proof
