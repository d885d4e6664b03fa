#include "serve/session.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "core/decode_sweep.hpp"
#include "core/json_writer.hpp"
#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "core/sweep.hpp"
#include "hw/platform.hpp"
#include "opt/optimizer.hpp"
#include "obs/span.hpp"
#include "serve/server.hpp"
#include "tensor/dtype.hpp"

namespace proof::serve {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The kMethods entry for `name`, or nullptr.  Only listed methods get
/// per-method metrics, so a misbehaving client cannot grow the registry.
const Method* find_method(std::string_view name) {
  for (const Method& method : kMethods) {
    if (method.name == name) {
      return &method;
    }
  }
  return nullptr;
}

void count_metric(const std::string& name, uint64_t n = 1) {
#ifndef PROOF_OBS_DISABLED
  if (obs::enabled()) {
    obs::MetricsRegistry::instance().counter(name).add(n);
  }
#else
  (void)name;
  (void)n;
#endif
}

void observe_latency(const Method& method, uint64_t ns) {
#ifndef PROOF_OBS_DISABLED
  if (obs::enabled()) {
    obs::MetricsRegistry::instance()
        .histogram("serve.latency." + std::string(method.name))
        .observe_ns(ns);
  }
#else
  (void)method;
  (void)ns;
#endif
}

void set_inflight_gauge(uint64_t value) {
  PROOF_GAUGE_SET("serve.inflight", static_cast<double>(value));
}

/// Test/bench aid: `"debug_sleep_ms": N` stretches a request (per sweep
/// point) so admission-control and deadline behaviour can be exercised
/// deterministically with fast models.  Documented in docs/SERVE.md.
void debug_sleep(const json::Value& params) {
  const int64_t ms = params.get_int("debug_sleep_ms", 0);
  if (ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

std::string require_string(const json::Value& params, const char* key) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_string() || v->string_value.empty()) {
    throw ConfigError(std::string("request params need a non-empty string \"") +
                      key + "\"");
  }
  return v->string_value;
}

/// One sweep point: a progress frame's result, and an element of the final
/// result's "points".
void write_point(JsonWriter& w, const BatchPoint& point) {
  w.begin_object();
  w.field("batch", point.batch);
  w.field("latency_s", point.latency_s);
  w.field("throughput_per_s", point.throughput_per_s);
  w.field("attained_flops", point.attained_flops);
  w.end_object();
}

/// Mirrors the CLI's options_from(): platform-defaulted dtype, predicted
/// metric mode unless requested otherwise.
ProfileOptions options_from_params(const json::Value& p) {
  ProfileOptions opt;
  opt.platform_id = require_string(p, "platform");
  const hw::PlatformDesc& desc =
      hw::PlatformRegistry::instance().get(opt.platform_id);
  const std::string dtype = p.get_string("dtype");
  if (!dtype.empty()) {
    opt.dtype = dtype_from_name(dtype);
  } else {
    opt.dtype = desc.supports(DType::kF16) ? DType::kF16 : DType::kF32;
  }
  opt.backend_id = p.get_string("backend");
  opt.batch = p.get_int("batch", 1);
  if (opt.batch <= 0) {
    throw ConfigError("batch must be positive, got " + std::to_string(opt.batch));
  }
  // The service default is the analytical path ("negligible cost", §4.2);
  // counter replay is opt-in per request.
  const std::string mode = p.get_string("mode", "predicted");
  if (mode == "predicted") {
    opt.mode = MetricMode::kPredicted;
  } else if (mode == "measured") {
    opt.mode = MetricMode::kMeasured;
  } else if (mode == "auto") {
    opt.mode = MetricMode::kAuto;
  } else {
    throw ConfigError("unknown mode '" + mode +
                      "' (expected predicted | measured | auto)");
  }
  if (const json::Value* gpu = p.find("gpu_mhz")) {
    opt.clocks.gpu_mhz = gpu->as_double();
  }
  if (const json::Value* mem = p.find("mem_mhz")) {
    opt.clocks.mem_mhz = mem->as_double();
  }
  if (const json::Value* iters = p.find("iterations")) {
    opt.iterations = static_cast<int>(iters->as_int(50));
    if (opt.iterations <= 0) {
      throw ConfigError("iterations must be positive");
    }
  }
  return opt;
}

}  // namespace

// --- Deadline ----------------------------------------------------------------

Deadline::Deadline(double budget_s) {
  if (budget_s > 0.0) {
    armed_ = true;
    end_s_ = steady_now_s() + budget_s;
  }
}

bool Deadline::expired() const { return armed_ && steady_now_s() > end_s_; }

void Deadline::check(const char* stage) const {
  if (expired()) {
    throw DeadlineExceeded(std::string("deadline exceeded at ") + stage);
  }
}

// --- Session lifecycle -------------------------------------------------------

Session::Session(Server& server, net::Socket socket, uint64_t id)
    : server_(server), socket_(std::move(socket)), id_(id) {}

Session::~Session() { join(); }

void Session::start() {
  thread_ = std::thread([this] { run(); });
}

void Session::shutdown_socket() { socket_.shutdown_both(); }

void Session::join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Session::run() {
  try {
    while (true) {
      const std::optional<std::string> payload = read_frame(socket_);
      if (!payload.has_value()) {
        break;  // client closed cleanly between frames
      }
      Request request;
      try {
        request = parse_request(*payload);
      } catch (const ProtocolError& e) {
        // The frame itself was well-formed, so the stream is still in sync:
        // answer with a typed error and keep serving this connection.
        send_payload(make_error(0, ErrorCode::kBadRequest, e.what()));
        server_.requests_error_.fetch_add(1);
        count_metric("serve.responses.error");
        continue;
      }
      handle(request);
      if (broken_.load()) {
        break;  // responses are not reaching the client; stop reading
      }
    }
  } catch (const ProtocolError& e) {
    // Framing violation (oversized prefix, truncated frame): the byte stream
    // can not be re-synchronized — drop the connection.
    server_.log("session " + std::to_string(id_) + ": " + e.what());
  } catch (const net::IoError& e) {
    server_.log("session " + std::to_string(id_) + ": " + e.what());
  } catch (const std::exception& e) {
    server_.log("session " + std::to_string(id_) +
                ": unexpected error: " + e.what());
  }
  finished_.store(true);
}

void Session::send_payload(const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (broken_.load()) {
    return;
  }
  try {
    write_frame(socket_, payload);
  } catch (const Error&) {
    // Peer went away mid-response (includes EPIPE).  Swallow: the request
    // keeps executing to completion so the shared caches stay warm, but no
    // further bytes are written on this connection.
    broken_.store(true);
  }
}

// --- dispatch ----------------------------------------------------------------

void Session::handle(const Request& request) {
  const auto t0 = std::chrono::steady_clock::now();
  server_.requests_total_.fetch_add(1);
  count_metric("serve.requests");
  const Method* method = find_method(request.method);
  if (method != nullptr) {
    count_metric("serve.requests." + request.method);
  }

  bool ok = false;
  if (method == nullptr) {
    send_payload(make_error(request.id, ErrorCode::kNotFound,
                            "unknown method '" + request.method + "'"));
  } else if (method->heavy) {
    ok = execute_heavy(request);
  } else if (request.method == "ping") {
    send_payload(make_result(request.id,
                             "{\"ok\":true,\"version\":" +
                                 std::to_string(kProtocolVersion) + "}"));
    ok = true;
  } else if (request.method == "stats") {
    send_payload(make_result(request.id, server_.stats_json()));
    ok = true;
  } else if (request.method == "shutdown") {
    send_payload(make_result(request.id, "{\"ok\":true,\"draining\":true}"));
    ok = true;
    server_.log("session " + std::to_string(id_) + ": shutdown requested");
    server_.request_stop();
  }

  if (ok) {
    server_.requests_ok_.fetch_add(1);
    count_metric("serve.responses.ok");
  } else {
    server_.requests_error_.fetch_add(1);
    count_metric("serve.responses.error");
  }
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (method != nullptr) {
    observe_latency(*method, ns);
  }
}

bool Session::execute_heavy(const Request& request) {
  if (server_.draining()) {
    server_.rejected_shutdown_.fetch_add(1);
    count_metric("serve.rejected.shutdown");
    send_payload(make_error(request.id, ErrorCode::kShuttingDown,
                            "server is draining; request not admitted"));
    return false;
  }
  if (!server_.try_admit()) {
    server_.rejected_overloaded_.fetch_add(1);
    count_metric("serve.rejected.overloaded");
    send_payload(make_error(
        request.id, ErrorCode::kOverloaded,
        "admission control: " + std::to_string(server_.max_inflight()) +
            " requests already in flight (max_inflight); retry later"));
    return false;
  }
  set_inflight_gauge(server_.inflight_.load());

  // Deadline budget: the request's own deadline_ms beats the server default.
  const double deadline_ms =
      request.p().get_double("deadline_ms",
                             server_.options().default_deadline_s * 1e3);
  const Deadline deadline(deadline_ms / 1e3);

  // Admission is released before the response is sent, so a client that
  // reads its answer and sends again never finds its own slot still taken.
  std::string response;
  bool ok = false;
  try {
    // Runs on this session thread; the pool's lanes serve only the fan-out
    // inside the request (sweep_decode, optimize), so admission alone bounds
    // how many heavy requests execute at once.
    response = make_result(request.id, execute(request, deadline));
    ok = true;
  } catch (const DeadlineExceeded& e) {
    server_.deadline_exceeded_.fetch_add(1);
    count_metric("serve.deadline_exceeded");
    response = make_error(request.id, ErrorCode::kDeadlineExceeded, e.what());
  } catch (const ConfigError& e) {
    response = make_error(request.id, ErrorCode::kBadRequest, e.what());
  } catch (const ModelError& e) {
    response = make_error(request.id, ErrorCode::kBadRequest, e.what());
  } catch (const Error& e) {
    response = make_error(request.id, ErrorCode::kInternal, e.what());
  } catch (const std::exception& e) {
    response = make_error(request.id, ErrorCode::kInternal, e.what());
  }
  server_.release_admission();
  set_inflight_gauge(server_.inflight_.load());
  send_payload(response);
  return ok;
}

std::string Session::execute(const Request& request, const Deadline& deadline) {
  deadline.check("request start");
  if (request.method == "sweep") {
    return do_sweep(request, deadline);
  }
  if (request.method == "sweep_decode") {
    return do_sweep_decode(request, deadline);
  }
  if (request.method == "optimize") {
    return do_optimize(request, deadline);
  }
  return do_profile(request, deadline, request.method == "analyze");
}

// --- handlers ----------------------------------------------------------------

std::string Session::do_profile(const Request& request,
                                const Deadline& deadline, bool full_report) {
  const json::Value& p = request.p();
  const std::string model_id = require_string(p, "model");
  const ProfileOptions opt = options_from_params(p);
  debug_sleep(p);
  deadline.check("before profiling");

  const std::shared_ptr<const Graph> model = server_.models().get(model_id);
  const ProfileReport report = Profiler(opt).run(*model);

  if (full_report) {
    // Byte-identical to the single-shot CLI report serialization (the
    // self-profile section stays out: it is wall-clock-dependent and would
    // break the determinism contract the goldens freeze).
    return report_to_json(report);
  }
  JsonWriter w;
  w.begin_object();
  w.field("model", report.model_name);
  w.field("platform", report.platform_name);
  w.field("backend", report.backend_name);
  w.field("batch", report.options.batch);
  w.field("dtype", dtype_name(report.options.dtype));
  w.field("total_latency_s", report.total_latency_s);
  w.field("throughput_per_s", report.throughput_per_s());
  w.field("power_w", report.power_w);
  w.field("mapping_coverage", report.mapping_coverage);
  w.field("layers", static_cast<int64_t>(report.layers.size()));
  w.field("analysis_time_s", report.analysis_time_s);
  w.end_object();
  return w.take();
}

std::string Session::do_sweep(const Request& request, const Deadline& deadline) {
  const json::Value& p = request.p();
  const std::string model_id = require_string(p, "model");
  const ProfileOptions base = options_from_params(p);
  const double knee_tolerance = p.get_double("knee_tolerance", 0.05);
  if (!(knee_tolerance >= 0.0 && knee_tolerance < 1.0)) {
    throw ConfigError("knee_tolerance must be in [0, 1)");
  }

  std::vector<int64_t> requested;
  if (const json::Value* list = p.find("batches")) {
    if (!list->is_array()) {
      throw ConfigError("\"batches\" must be an array of integers");
    }
    for (const json::Value& v : list->array) {
      requested.push_back(v.as_int());
    }
  }
  const std::vector<int64_t> candidates = batch_candidates(std::move(requested));

  const std::shared_ptr<const Graph> model = server_.models().get(model_id);

  // Points run one at a time with a cancellation check between them — the
  // cooperative deadline contract.  Each completed point is streamed to the
  // client immediately as a progress frame.
  std::vector<BatchPoint> points;
  points.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    deadline.check("sweep point");
    debug_sleep(p);
    ProfileOptions opt = base;
    opt.batch = candidates[i];
    const ProfileReport r = Profiler(opt).run(*model);
    BatchPoint point;
    point.batch = candidates[i];
    point.latency_s = r.total_latency_s;
    point.throughput_per_s = r.throughput_per_s();
    point.attained_flops = r.roofline.end_to_end.attained_flops();
    points.push_back(point);

    JsonWriter progress;
    write_point(progress, point);
    send_payload(make_progress(request.id, progress.take()));
  }

  JsonWriter w;
  w.begin_object();
  w.field("model", model_id);
  w.begin_array("points");
  for (const BatchPoint& point : points) {
    write_point(w, point);
  }
  w.end_array();
  w.field("optimal_batch", select_optimal_batch(points, knee_tolerance));
  w.field("completed", static_cast<int64_t>(points.size()));
  w.end_object();
  return w.take();
}

std::string Session::do_sweep_decode(const Request& request,
                                     const Deadline& deadline) {
  const json::Value& p = request.p();
  DecodeSweepOptions options;
  options.config_id = p.get_string("model", "gpt2");
  options.platform_id = p.get_string("platform");
  options.backend_id = p.get_string("backend");
  const std::string dtype = p.get_string("dtype");
  if (!dtype.empty()) {
    options.dtype = dtype_from_name(dtype);
  }
  options.prefill_len = p.get_int("prefill_len", options.prefill_len);
  if (options.prefill_len <= 0) {
    throw ConfigError("prefill_len must be positive, got " +
                      std::to_string(options.prefill_len));
  }
  const auto int_array = [&p](const char* key, std::vector<int64_t>& out) {
    const json::Value* list = p.find(key);
    if (list == nullptr) {
      return;
    }
    if (!list->is_array()) {
      throw ConfigError(std::string("\"") + key +
                        "\" must be an array of integers");
    }
    out.clear();
    for (const json::Value& v : list->array) {
      out.push_back(v.as_int());
    }
  };
  int_array("batches", options.batches);
  int_array("positions", options.positions);
  debug_sleep(p);
  deadline.check("before decode sweep");

  // Empty or "all" platform: the cross-platform decode-bound-ness summary.
  // Both calls throw ConfigError for a bad grid or config (a typed 400) and
  // fan their cells out on the shared ThreadPool's lanes.
  if (options.platform_id.empty() || options.platform_id == "all") {
    options.platform_id.clear();
    return decode_platforms_json(sweep_decode_platforms(options));
  }
  return decode_sweep_json(sweep_decode(options));
}

std::string Session::do_optimize(const Request& request,
                                 const Deadline& deadline) {
  const json::Value& p = request.p();
  const std::string model_id = require_string(p, "model");

  opt::OptimizeOptions options;
  options.base = options_from_params(p);
  const std::string objective = p.get_string("objective");
  if (!objective.empty()) {
    options.objective = opt::objective_from_name(objective);
  }
  options.power_budget_w = p.get_double("power_budget_w", 0.0);
  if (!(options.power_budget_w >= 0.0)) {
    throw ConfigError("power_budget_w must be non-negative");
  }
  options.noise_threshold = p.get_double("noise_threshold", 0.02);
  if (!(options.noise_threshold >= 0.0 && options.noise_threshold < 1.0)) {
    throw ConfigError("noise_threshold must be in [0, 1)");
  }
  options.max_rounds = static_cast<int>(p.get_int("max_rounds", 4));
  if (options.max_rounds < 0) {
    throw ConfigError("max_rounds must be non-negative");
  }
  const std::string axes = p.get_string("axes");
  if (!axes.empty()) {
    options.axes = opt::axes_from_string(axes);
  }
  // Cooperative cancellation between rounds — a round profiles its variants
  // to completion (like a sweep point) before the deadline is re-checked.
  options.round_hook = [&deadline, &p](int) {
    deadline.check("optimize round");
    debug_sleep(p);
  };
  debug_sleep(p);
  deadline.check("before optimizing");

  // Validates the model id against the shared pool (typed 400 on a bad id)
  // and reuses its cached graph for the baseline-equivalent warm-up path.
  (void)server_.models().get(model_id);
  const opt::OptimizeResult result = opt::optimize(model_id, options);
  return report_to_json(result.final_report, false,
                        opt::optimization_section_json(result.log));
}

}  // namespace proof::serve
