// serve_mix: an in-process serve::Server on a unix socket with a pool of 2
// jobs, driven by this process over at most 4 connections.
//
// Set-up starts the daemon, preloads 10 zoo models and sends one warm-up
// request per distinct key, so every later request hits the engine cache
// except the 2% of profile requests at a batch size the daemon has not seen
// (and the warmed engines the PrepCache evicts to make room for them).
// Phase A is an open loop at a fixed rate, timed from each request's due
// time; phase B is a closed loop of 4 connections sending back to back until
// a fixed request count; the two alternate in slices.
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "hw/latency_model.hpp"
#include "hw/platform.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

using proof::ProfileOptions;

constexpr unsigned kJobs = 2;
constexpr size_t kConnections = 4;
constexpr int kSetupReps = 7;
/// Phase A's fixed arrival rate, about a fifth of the daemon's closed-loop
/// capacity on the reference host (~1 100 req/s), so its latency reflects
/// service time rather than queueing.
constexpr double kPhaseARate = 220.0;
/// Request counts are fixed by --seconds: phase A covers 10% of it at the
/// fixed rate (550 requests at 25 s), phase B the rest at the reference
/// host's capacity.  The median latency is gated; spreading phase A over
/// more of the run averages out the host's speed from slice to slice.
constexpr double kPhaseAShare = 0.10;
constexpr double kNominalCapacity = 1100.0;

const std::vector<std::string> kModels = {
    "resnet50",  "bert_base",       "mobilenetv2_10", "efficientnet_b0", "shufflenetv2_10",
    "vit_tiny",  "distilbert",      "resnet18",       "swin_tiny",       "vit_small"};
const std::vector<std::string> kPlatforms = {"a100", "xeon6330", "orin_nx16"};
const std::vector<int64_t> kBatches = {1, 8};
const std::vector<int64_t> kSweepBatches = {1, 2, 4, 8, 16, 32, 64, 128};
/// Share of profile requests at a batch size the daemon has not seen: each
/// builds one engine from a cached plan.  Over a run they outnumber the
/// PrepCache's free engine slots, so they also evict warmed engines, which
/// later requests rebuild.
constexpr double kUnseenShare = 0.02;
/// Unseen batch sizes start above every swept batch and never repeat.
constexpr int64_t kFirstUnseenBatch = 129;

enum class Method { kProfile, kAnalyze, kSweep };
const char* method_name(Method m) {
  return m == Method::kProfile ? "profile" : m == Method::kAnalyze ? "analyze" : "sweep";
}

struct Request {
  Method method = Method::kProfile;
  std::string model;
  std::string platform;
  int64_t batch = 1;  ///< unused for sweeps
  bool unseen = false;

  [[nodiscard]] std::tuple<int, std::string, std::string, int64_t> key() const {
    return {static_cast<int>(method), model, platform, method == Method::kSweep ? 0 : batch};
  }
  [[nodiscard]] std::string json(int64_t id) const {
    std::string params = "{\"model\":" + quote(model) + ",\"platform\":" + quote(platform);
    if (method == Method::kSweep) {
      params += ",\"batches\":[";
      for (size_t i = 0; i < kSweepBatches.size(); ++i) {
        params += (i == 0 ? "" : ",") + std::to_string(kSweepBatches[i]);
      }
      params += "]";
    } else {
      params += ",\"batch\":" + std::to_string(batch);
    }
    return "{\"id\":" + std::to_string(id) + ",\"method\":\"" + method_name(method) +
           "\",\"params\":" + params + "}}";
  }
  [[nodiscard]] std::string describe() const {
    return std::string(method_name(method)) + " " + model + " " + platform + " " +
           std::to_string(method == Method::kSweep ? 0 : batch);
  }
};

struct Mix {
  std::vector<Request> phase_a;
  std::vector<Request> phase_b;
};

/// Exact shares per phase (70% profile, 25% analyze, 5% sweep), each method
/// cycling through every (model, platform, batch) combination, and the
/// unseen profiles cycling through every (model, platform), so every seed
/// sends the same multiset of requests; the seed draws the order.  Unseen
/// batch sizes are numbered in sending order.
std::vector<Request> draw_phase(Rng& rng, size_t n, int64_t* next_unseen) {
  const auto n_sweep = static_cast<size_t>(std::lround(0.05 * static_cast<double>(n)));
  const auto n_analyze = static_cast<size_t>(std::lround(0.25 * static_cast<double>(n)));
  const size_t n_profile = n - n_sweep - n_analyze;
  const auto n_unseen =
      static_cast<size_t>(std::lround(kUnseenShare * static_cast<double>(n_profile)));
  std::vector<Request> out;
  const auto cycle = [&](Method method, size_t count) {
    for (size_t j = 0; j < count; ++j) {
      Request r;
      r.method = method;
      r.model = kModels[j % kModels.size()];
      r.platform = kPlatforms[(j / kModels.size()) % kPlatforms.size()];
      r.batch = kBatches[(j / (kModels.size() * kPlatforms.size())) % kBatches.size()];
      out.push_back(r);
    }
  };
  cycle(Method::kProfile, n_profile - n_unseen);
  cycle(Method::kAnalyze, n_analyze);
  cycle(Method::kSweep, n_sweep);
  const size_t first_unseen = out.size();
  cycle(Method::kProfile, n_unseen);
  for (size_t i = first_unseen; i < out.size(); ++i) {
    out[i].unseen = true;
  }
  rng.shuffle(out);
  for (Request& r : out) {
    if (r.unseen) {
      r.batch = (*next_unseen)++;
    }
  }
  return out;
}

Mix make_mix(uint64_t seed, int seconds) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 3);
  int64_t next_unseen = kFirstUnseenBatch;
  Mix mix;
  mix.phase_a = draw_phase(
      rng, static_cast<size_t>(std::lround(seconds * kPhaseAShare * kPhaseARate)), &next_unseen);
  mix.phase_b = draw_phase(
      rng, static_cast<size_t>(std::lround(seconds * (1 - kPhaseAShare) * kNominalCapacity)),
      &next_unseen);
  return mix;
}

ProfileOptions in_process_options(const Request& r) {
  // Mirrors the daemon's parameter defaults: platform-default backend,
  // fp16 where the platform supports it, predicted metrics.
  ProfileOptions o;
  o.platform_id = r.platform;
  const proof::hw::PlatformDesc& desc = proof::hw::PlatformRegistry::instance().get(r.platform);
  o.dtype = desc.supports(proof::DType::kF16) ? proof::DType::kF16 : proof::DType::kF32;
  o.batch = r.batch;
  o.mode = proof::MetricMode::kPredicted;
  return o;
}

// --- client ------------------------------------------------------------------

struct Reply {
  bool ok = false;
  int progress = 0;
  std::string payload;  ///< result JSON, verbatim
};

/// Splits a response frame {"id":..,"type":"<t>","<t>":<raw>}, the one
/// shape the daemon writes (serve::make_result, make_progress, make_error),
/// without parsing the result JSON, so the client's own parse stays out of
/// the latency it measures.  A frame of any other shape yields type "",
/// which fails its request.
std::pair<std::string, std::string> split_frame(const std::string& frame) {
  const size_t type_at = frame.find(",\"type\":\"");
  if (type_at == std::string::npos || type_at >= 32) {
    return {};
  }
  const size_t t0 = type_at + 9;
  const size_t t1 = frame.find('"', t0);
  if (t1 == std::string::npos) {
    return {};
  }
  std::string type = frame.substr(t0, t1 - t0);
  const std::string member = ",\"" + type + "\":";
  if (frame.compare(t1 + 1, member.size(), member) != 0 || frame.back() != '}') {
    return {};
  }
  const size_t body = t1 + 1 + member.size();
  return {std::move(type), frame.substr(body, frame.size() - 1 - body)};
}

bool reply_ok(const Request& r, const Reply& reply) {
  if (!reply.ok) {
    return false;
  }
  if (r.method == Method::kSweep) {
    return reply.progress == static_cast<int>(kSweepBatches.size()) &&
           reply.payload.find("\"completed\":" + std::to_string(kSweepBatches.size())) !=
               std::string::npos;
  }
  return r.method == Method::kAnalyze ||
         reply.payload.find("\"batch\":" + std::to_string(r.batch) + ",") != std::string::npos;
}

/// Hash of a report JSON with its wall-clock fields zeroed: a rebuilt
/// engine carries its own analysis_time_s, and nothing else may differ.
uint64_t report_digest(std::string json) {
  return std::hash<std::string>{}(normalize_report(std::move(json)));
}

/// What the correctness check needs of one request, kept outside its
/// timed interval: whether it succeeded, and for analyze the report digest.
struct Answer {
  bool ok = false;
  uint64_t digest = 0;
};

/// One client connection of the load generator.
struct Conn {
  proof::net::Socket socket;
  proof::serve::FrameDecoder decoder;
  Reply reply;
};

/// One non-blocking read on a busy connection; returns true once the
/// request's terminal frame (or the end of the connection) has arrived.
/// Sets *read_any when bytes came in.
bool poll_reply(Conn& c, std::vector<char>& buf, bool* read_any) {
  const ssize_t n = ::recv(c.socket.fd(), buf.data(), buf.size(), MSG_DONTWAIT);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    c.reply.ok = false;
    return true;  // connection gone: a failed op
  }
  if (n > 0) {
    *read_any = true;
    c.decoder.feed(std::string_view(buf.data(), static_cast<size_t>(n)));
  }
  try {
    while (std::optional<std::string> frame = c.decoder.next()) {
      auto [type, payload] = split_frame(*frame);
      if (type == "progress") {
        ++c.reply.progress;
        continue;
      }
      c.reply.ok = type == "result";
      c.reply.payload = std::move(payload);
      return true;
    }
  } catch (const std::exception&) {
    c.reply.ok = false;
    return true;
  }
  return false;
}

/// One request on `c`, waiting for its reply by polling (no sleep).
Reply call(Conn& c, const std::string& request) {
  std::vector<char> buf(1 << 16);
  c.reply = Reply{};
  proof::serve::write_frame(c.socket, request);
  bool read_any = false;
  while (!poll_reply(c, buf, &read_any)) {
    if (!read_any) {
      sched_yield();
    }
    read_any = false;
  }
  return std::move(c.reply);
}

/// drive()'s link to the daemon: one thread drives every connection with
/// non-blocking reads and never sleeps, so the client adds no thread
/// wake-ups of its own to the latencies it measures.  Each answered request
/// is checked into `answers`.
class SocketLink final : public Link {
 public:
  SocketLink(std::vector<Conn>& conns, const std::vector<Request>& reqs,
             std::vector<Answer>& answers)
      : conns_(conns), reqs_(reqs), answers_(answers), request_(conns.size()), buf_(1 << 16) {}

  [[nodiscard]] size_t connections() const override { return conns_.size(); }
  [[nodiscard]] int64_t now() override { return now_ns(); }
  bool send(size_t c, size_t i) override {
    request_[c] = i;
    conns_[c].reply = Reply{};
    try {
      proof::serve::write_frame(conns_[c].socket, reqs_[i].json(static_cast<int64_t>(i)));
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
  bool poll(size_t c, bool* progress) override {
    if (!poll_reply(conns_[c], buf_, progress)) {
      return false;
    }
    const Request& r = reqs_[request_[c]];
    Reply& reply = conns_[c].reply;
    Answer& a = answers_[request_[c]];
    a.ok = reply_ok(r, reply);
    if (a.ok && r.method == Method::kAnalyze) {
      a.digest = report_digest(std::move(reply.payload));
    }
    return true;
  }
  void idle() override { sched_yield(); }  // let a server thread that shares this CPU run

 private:
  std::vector<Conn>& conns_;
  const std::vector<Request>& reqs_;
  std::vector<Answer>& answers_;
  std::vector<size_t> request_;  ///< request in flight per connection
  std::vector<char> buf_;
};

/// The same work as one request, done in-process after it (cache hits):
/// ModelPool::get, Profiler::run per cell, report_to_json for analyze, and
/// Engine::profile on each cell's cached engine.
void replay_in_process(const Request& r, proof::serve::Server& server) {
  ScopedSpan span("replay");
  const auto graph = traced("models.pool_get", [&] { return server.models().get(r.model); });
  std::vector<int64_t> batches = {r.batch};
  if (r.method == Method::kSweep) {
    batches = kSweepBatches;
  }
  for (const int64_t b : batches) {
    Request cell = r;
    cell.batch = b;
    const ProfileOptions o = in_process_options(cell);
    const proof::ProfileReport report =
        traced("core.profiler_run", [&] { return proof::Profiler(o).run(*graph); });
    if (r.method == Method::kAnalyze) {
      const std::string json = traced("core.report_json", [&] { return proof::report_to_json(report); });
      (void)json;
    }
    // Decomposition only: Engine::profile already ran inside Profiler::run.
    Tracer::instance().set_enabled(false);
    const proof::hw::PlatformDesc& platform =
        proof::hw::PlatformRegistry::instance().get(o.platform_id);
    proof::backends::BuildConfig config;
    config.dtype = o.dtype;
    config.batch = o.batch;
    const auto prep = proof::PrepCache::instance().get_or_prepare(
        *graph, proof::backends::BackendRegistry::instance().get(platform.runtime), platform,
        config);
    Tracer::instance().set_enabled(true);
    const proof::backends::EngineProfile profile = traced("hw.engine_profile", [&] {
      return prep->engine.profile(proof::hw::PlatformState(platform, o.clocks), o.iterations);
    });
    (void)profile;
  }
}

}  // namespace

std::vector<std::string> serve_mix_ops(uint64_t seed, int seconds) {
  const Mix mix = make_mix(seed, seconds);
  std::vector<std::string> ops;
  for (const Request& r : mix.phase_a) {
    ops.push_back("A " + r.describe());
  }
  for (const Request& r : mix.phase_b) {
    ops.push_back("B " + r.describe());
  }
  return ops;
}

Result run_serve_mix(const Args& args) {
  Result r;
  proof::ThreadPool::set_global_jobs(kJobs);
  r.note("jobs", std::to_string(kJobs));
  r.note("connections", std::to_string(kConnections));
  proof::PrepCache& cache = proof::PrepCache::instance();
  const Mix mix = make_mix(args.seed, args.seconds);

  // Distinct keys of the mix (unseen batches excluded), in a fixed order.
  std::map<std::tuple<int, std::string, std::string, int64_t>, Request> keys;
  for (const auto* phase : {&mix.phase_a, &mix.phase_b}) {
    for (const Request& req : *phase) {
      if (!req.unseen) {
        keys.emplace(req.key(), req);
      }
    }
  }

  proof::serve::ServerOptions options;
  options.listen = "unix:.bench_build/serve-" + std::to_string(getpid()) + ".sock";
  options.max_inflight = kConnections;
  options.preload = kModels;
  options.verbose = false;

  const KeepAwake keep_awake;

  // Set-up, several times from a cold PrepCache: start, preload, warm up.
  std::vector<double> setup_s;
  std::vector<double> preload_ms_per_model;
  std::unique_ptr<proof::serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) {
      server->stop();
      server.reset();
    }
    cache.clear();
    const int64_t t0 = now_ns();
    server = std::make_unique<proof::serve::Server>(options);
    server->start();
    const int64_t t_started = now_ns();
    Conn conn;
    conn.socket = proof::net::connect(server->endpoint());
    int64_t id = 1000000;
    for (const auto& [key, req] : keys) {
      if (!reply_ok(req, call(conn, req.json(++id)))) {
        r.fail("warm-up request failed: " + req.describe());
      }
    }
    setup_s.push_back(ns_to_s(now_ns() - t0));
    preload_ms_per_model.push_back(ns_to_ms(t_started - t0) / static_cast<double>(kModels.size()));
  }
  const proof::net::Endpoint endpoint = server->endpoint();
  r.note("warm_keys", std::to_string(keys.size()));

  // Phases A and B run in alternating slices (A1 B1 A2 B2 ...), so both
  // sample the whole run's stretch of host time rather than one half each.
  proof::obs::Counter& rebuilds =
      proof::obs::MetricsRegistry::instance().counter("graph.index.rebuilds");
  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    c.socket = proof::net::connect(endpoint);
  }
  std::vector<Timed> a(mix.phase_a.size());
  std::vector<Timed> b(mix.phase_b.size());
  std::vector<Answer> answers_a(a.size());
  std::vector<Answer> answers_b(b.size());
  SocketLink link_a(conns, mix.phase_a, answers_a);
  SocketLink link_b(conns, mix.phase_b, answers_b);
  const proof::PrepCacheStats stats_start = cache.stats();
  CacheLedger stats_a;
  uint64_t rebuilds_a = 0;
  std::vector<double> slice_wall_b;
  std::vector<double> slice_requests_b;
  std::vector<double> slice_cells_b;
  double cpu_b = 0.0;  // the daemon's: spinners and the load generator excluded
  for (size_t k = 0; k < kRateSlices; ++k) {
    const proof::PrepCacheStats stats0 = cache.stats();
    const uint64_t rebuilds0 = rebuilds.value();
    drive(link_a, k * a.size() / kRateSlices, (k + 1) * a.size() / kRateSlices, kPhaseARate, a);
    stats_a.add(stats0, cache.stats());
    rebuilds_a += rebuilds.value() - rebuilds0;

    const size_t lo = k * b.size() / kRateSlices;
    const size_t hi = (k + 1) * b.size() / kRateSlices;
    const int64_t cpu0 = process_cpu_ns() - keep_awake.cpu_ns() - thread_cpu_ns();
    slice_wall_b.push_back(drive(link_b, lo, hi, 0.0, b));
    cpu_b += ns_to_s(process_cpu_ns() - keep_awake.cpu_ns() - thread_cpu_ns() - cpu0);
    slice_requests_b.push_back(static_cast<double>(hi - lo));
    slice_cells_b.push_back(0.0);
    for (size_t i = lo; i < hi; ++i) {
      slice_cells_b.back() += mix.phase_b[i].method == Method::kSweep ? kSweepBatches.size() : 1;
    }
  }

  const proof::PrepCacheStats stats_end = cache.stats();
  r.note("engine_cache", "{\"misses\":" +
                             std::to_string(stats_end.engine_misses - stats_start.engine_misses) +
                             ",\"evictions\":" +
                             std::to_string(stats_end.evictions - stats_start.evictions) + "}");

  // Correctness, outside the timed phases: every response ok, and every
  // analyze report equal to the same report built in-process, both with
  // their wall-clock fields zeroed.
  Tally tally;
  std::map<std::tuple<int, std::string, std::string, int64_t>, uint64_t> expected;
  const auto check = [&](const std::vector<Request>& reqs, const std::vector<Answer>& answers) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      bool ok = answers[i].ok;
      if (ok && reqs[i].method == Method::kAnalyze) {
        auto it = expected.find(reqs[i].key());
        if (it == expected.end()) {
          it = expected
                   .emplace(reqs[i].key(),
                            report_digest(proof::report_to_json(
                                proof::Profiler(in_process_options(reqs[i]))
                                    .run(*server->models().get(reqs[i].model)))))
                   .first;
        }
        ok = it->second == answers[i].digest;
        if (!ok) {
          r.fail("analyze response differs from the in-process report: " + reqs[i].describe());
        }
      } else if (!ok) {
        r.fail("request failed: " + reqs[i].describe());
      }
      tally.record(ok);
    }
  };
  check(mix.phase_a, answers_a);
  check(mix.phase_b, answers_b);
  r.attempted = tally.attempted;
  r.failed = tally.failed;
  r.note("analyze_keys_checked", std::to_string(expected.size()));
  if (r.problems.size() > 5) {
    r.problems.resize(5);
  }

  std::vector<double> latency_a;
  std::vector<double> late_a;
  for (const Timed& t : a) {
    latency_a.push_back(t.latency_ms());
    late_a.push_back(t.late_ms());
  }
  const Tail tail = tail_with_beyond(latency_a);
  if (!tail.valid) {
    r.fail("too few phase-A requests for a tail percentile");
  }
  const double late_p99 = quantile(late_a, 0.99);
  std::map<Method, std::vector<double>> by_method;
  for (size_t i = 0; i < a.size(); ++i) {
    by_method[mix.phase_a[i].method].push_back(a[i].latency_ms());
  }
  const double drift = last_over_first_tenth(latency_a);
  const double wall_b = std::accumulate(slice_wall_b.begin(), slice_wall_b.end(), 0.0);
  r.note("phase_a", "{\"requests\":" + std::to_string(a.size()) + ",\"rate_rps\":" +
                        num(kPhaseARate) + ",\"latency_tail\":" + tail_json(tail) +
                        ",\"generator_late_p99_ms\":" + num(late_p99) +
                        ",\"p50_ms_profile\":" + num(median(by_method[Method::kProfile])) +
                        ",\"p50_ms_analyze\":" + num(median(by_method[Method::kAnalyze])) +
                        ",\"p50_ms_sweep\":" + num(median(by_method[Method::kSweep])) +
                        ",\"last_over_first_tenth\":" + num(drift) + "}");
  r.note("phase_b", "{\"requests\":" + std::to_string(b.size()) + ",\"wall_s\":" + num(wall_b) +
                        ",\"cells\":" +
                        num(std::accumulate(slice_cells_b.begin(), slice_cells_b.end(), 0.0)) + "}");
  r.note("latency_tail", tail_json(tail));

  if (!args.trace) {
    server->stop();
    r.metric("setup_s", median(setup_s), "s");
    r.metric("cells_per_s", median_rate(slice_cells_b, slice_wall_b), "1/s");
    r.metric("capacity_rps", median_rate(slice_requests_b, slice_wall_b), "1/s");
    r.metric("latency_p50_ms", median(latency_a), "ms");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return r;
  }

  // Traced run: phase A's requests again, one at a time on one unloaded
  // connection, first untraced, then traced with an in-process replay of
  // each request's work after it.
  Tracer& tracer = Tracer::instance();
  Conn& conn = conns.front();
  const auto sequential = [&](bool traced_pass) {
    std::vector<double> op_ms;
    for (size_t i = 0; i < mix.phase_a.size(); ++i) {
      const Request& req = mix.phase_a[i];
      const std::string payload = req.json(static_cast<int64_t>(i));
      tracer.set_op(static_cast<uint32_t>(i));
      tracer.set_enabled(traced_pass);
      const int64_t t0 = now_ns();
      Reply reply;
      {
        ScopedSpan op("op");
        const char* name = req.method == Method::kProfile   ? "serve.request_ms.profile"
                           : req.method == Method::kAnalyze ? "serve.request_ms.analyze"
                                                            : "serve.request_ms.sweep";
        reply = traced(name, [&] { return call(conn, payload); });
      }
      op_ms.push_back(ns_to_ms(now_ns() - t0));
      if (!reply_ok(req, reply)) {
        r.fail("traced replay request failed: " + req.describe());
      }
      if (traced_pass) {
        replay_in_process(req, *server);
      }
      tracer.set_enabled(false);
    }
    return op_ms;
  };
  const std::vector<double> untraced_ms = sequential(false);
  const std::vector<double> traced_ms = sequential(true);
  server->stop();

  const double n = static_cast<double>(mix.phase_a.size());
  const std::map<std::string, int64_t> self = tracer.self_ns_by_name();
  const auto total = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : ns_to_ms(it->second);
  };
  std::map<Method, size_t> count;
  for (const Request& req : mix.phase_a) {
    ++count[req.method];
  }
  const auto per_request = [&](const char* name, Method m) {
    return count[m] == 0 ? 0.0 : total(name) / static_cast<double>(count[m]);
  };
  const double request_ms = (total("serve.request_ms.profile") + total("serve.request_ms.analyze") +
                             total("serve.request_ms.sweep")) /
                            n;
  const double get_ms = total("models.pool_get") / n;
  const double run_ms = total("core.profiler_run") / n;
  const double json_ms = total("core.report_json") / n;
  const double overhead_ms = request_ms - get_ms - run_ms - json_ms;
  // The op is one request's round trip.  The in-process replay of its work
  // (cache hits, as in the daemon) is part of what the daemon did for it,
  // so it may not exceed the round trip by more than the run-to-run noise.
  Reconciliation rec;
  rec.op_ms = ns_to_ms(tracer.total_ns_by_name().at("op")) / n;
  rec.residual_name = "serve.overhead_ms";
  rec.layer("models.pool_get_ms", get_ms);
  rec.layer("core.profiler_run_ms", run_ms);
  rec.layer("core.report_json_ms", json_ms);
  rec.bound("in-process work / request round trip", (get_ms + run_ms + json_ms) / request_ms, 0.0,
            1.1);
  rec.report(r);

  const double untraced_mean =
      std::accumulate(untraced_ms.begin(), untraced_ms.end(), 0.0) / n;
  const double traced_mean = std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0) / n;
  r.metric("models.preload_ms", median(preload_ms_per_model), "ms");
  r.metric("models.pool_get_ms", get_ms, "ms");
  r.metric("core.profiler_run_ms", run_ms, "ms");
  r.metric("core.report_json_ms", json_ms, "ms");
  r.metric("hw.engine_profile_ms", total("hw.engine_profile") / n, "ms");
  r.metric("serve.request_ms.profile", per_request("serve.request_ms.profile", Method::kProfile), "ms");
  r.metric("serve.request_ms.analyze", per_request("serve.request_ms.analyze", Method::kAnalyze), "ms");
  r.metric("serve.request_ms.sweep", per_request("serve.request_ms.sweep", Method::kSweep), "ms");
  r.metric("serve.overhead_ms", overhead_ms, "ms");
  r.metric("serve.generator_late_p99_ms", late_p99, "ms");
  r.metric("serve.latency_drift_ratio", drift, "ratio");
  r.metric("graph.index_rebuilds_per_op", static_cast<double>(rebuilds_a) / n, "count");
  r.metric("core.plan_build_ms", ns_to_ms(static_cast<int64_t>(stats_a.plan_build_ns)) / n, "ms");
  r.metric("core.plan_hit_ratio", stats_a.plan_hit_ratio(), "ratio");
  r.metric("core.engine_hit_ratio", stats_a.engine_hit_ratio(), "ratio");
  r.metric("support.pool_busy_ratio", cpu_b / (wall_b * kJobs), "ratio");
  r.metric("bench.traced_op_ms", rec.op_ms, "ms");
  r.metric("bench.residual_ms", rec.residual_ms(), "ms");
  r.metric("bench.trace_overhead_ms", traced_mean - untraced_mean, "ms");
  return r;
}

}  // namespace perfbench
