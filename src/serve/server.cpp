#include "serve/server.hpp"

#include <csignal>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/prep_cache.hpp"
#include "obs/self_profile.hpp"
#include "obs/span.hpp"
#include "serve/session.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace proof::serve {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set by the SIGINT/SIGTERM handler.  A signal handler may only touch
/// lock-free atomics, so the flag is polled by the acceptor loop (which wakes
/// every 100 ms anyway to check for programmatic stops).
std::atomic<bool> g_signal_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

extern "C" void handle_stop_signal(int) { g_signal_stop.store(true); }

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  max_inflight_ = options_.max_inflight != 0
                      ? options_.max_inflight
                      : 2 * ThreadPool::global().jobs();
  if (max_inflight_ == 0) {
    max_inflight_ = 1;
  }
}

Server::~Server() {
  if (started_.load() && !stopped_.load()) {
    stop();
  }
}

void Server::start() {
  PROOF_CHECK(!started_.load(), "Server::start called twice");
  start_time_s_ = steady_now_s();
  listener_ = net::Listener::listen(net::Endpoint::parse(options_.listen));
  log("listening on " + listener_.endpoint().describe() +
      " (max_inflight=" + std::to_string(max_inflight_) +
      ", pool jobs=" + std::to_string(ThreadPool::global().jobs()) + ")");
  if (!options_.preload.empty()) {
    const size_t n = models_.preload(options_.preload);
    log("preloaded " + std::to_string(n) + " model(s)");
  }
  started_.store(true);
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

const net::Endpoint& Server::endpoint() const { return listener_.endpoint(); }

void Server::request_stop() {
  draining_.store(true);
  stop_requested_.store(true);
}

bool Server::running() const { return started_.load() && !stopped_.load(); }

bool Server::draining() const { return draining_.load(); }

void Server::install_signal_handlers() {
  handle_signals_.store(true);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

void Server::acceptor_loop() {
  while (!stop_requested_.load()) {
    if (handle_signals_.load() && g_signal_stop.load()) {
      log("caught stop signal; draining");
      request_stop();
      break;
    }
    bool ready = false;
    try {
      ready = listener_.poll_accept(100);
    } catch (const net::IoError& e) {
      log(std::string("acceptor: ") + e.what());
      break;
    }
    reap_finished_sessions();
    if (!ready) {
      continue;
    }
    net::Socket socket = listener_.accept();
    if (!socket.valid()) {
      break;  // listener torn down under us
    }
    const uint64_t id = connections_.fetch_add(1) + 1;
    PROOF_COUNT("serve.connections", 1);
    log("connection " + std::to_string(id) + " accepted");
    auto session = std::make_unique<Session>(*this, std::move(socket), id);
    Session* raw = session.get();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    raw->start();
  }
}

void Server::reap_finished_sessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished()) {
      (*it)->join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::wait() {
  std::lock_guard<std::mutex> lock(wait_mu_);
  if (stopped_.load()) {
    return;
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  drain_and_join();
  stopped_.store(true);
}

void Server::stop() {
  request_stop();
  wait();
}

void Server::drain_and_join() {
  // Phase 1: let in-flight heavy work finish.  New heavy requests have been
  // rejected with 503 since draining_ went true; light requests (stats, ping)
  // still answer, which is deliberate — observability should survive
  // shutdown pressure.
  const double deadline = steady_now_s() + options_.drain_timeout_s;
  while (inflight_.load() != 0 && steady_now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (inflight_.load() != 0) {
    log("drain timeout with " + std::to_string(inflight_.load()) +
        " request(s) still in flight");
  }

  // Phase 2: wake every session thread blocked in read_frame and join.  The
  // shutdown is a half-close, so responses already in flight still reach the
  // peer before the socket dies.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      session->shutdown_socket();
    }
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      session->join();
    }
    sessions_.clear();
  }
  listener_.close();

  // Final flush: a daemon killed by SIGTERM must still leave its metrics
  // record behind (the atexit hook also fires, but flushing here makes the
  // file complete the moment wait() returns).  A file that cannot be written
  // costs one stderr line; the drain still completes.
  if (const char* path = std::getenv("PROOF_METRICS_OUT")) {
    try {
      obs::dump_self_profile(path);
    } catch (const std::exception& e) {
      std::cerr << "[proof serve] PROOF_METRICS_OUT: " << e.what() << "\n";
    }
  }
  log("stopped (uptime " +
      std::to_string(steady_now_s() - start_time_s_) + "s, " +
      std::to_string(requests_total_.load()) + " request(s))");
}

bool Server::try_admit() {
  uint64_t current = inflight_.load();
  while (true) {
    if (current >= max_inflight_) {
      return false;
    }
    if (inflight_.compare_exchange_weak(current, current + 1)) {
      return true;
    }
  }
}

void Server::release_admission() { inflight_.fetch_sub(1); }

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.load();
  s.requests_total = requests_total_.load();
  s.requests_ok = requests_ok_.load();
  s.requests_error = requests_error_.load();
  s.rejected_overloaded = rejected_overloaded_.load();
  s.rejected_shutdown = rejected_shutdown_.load();
  s.deadline_exceeded = deadline_exceeded_.load();
  s.inflight = inflight_.load();
  s.uptime_s = started_.load() ? steady_now_s() - start_time_s_ : 0.0;
  return s;
}

std::string Server::stats_json() const {
  const ServerStats s = stats();
  std::ostringstream out;
  out.precision(12);
  out << "{\"server\":{"
      << "\"uptime_s\":" << s.uptime_s
      << ",\"connections\":" << s.connections
      << ",\"requests_total\":" << s.requests_total
      << ",\"requests_ok\":" << s.requests_ok
      << ",\"requests_error\":" << s.requests_error
      << ",\"rejected_overloaded\":" << s.rejected_overloaded
      << ",\"rejected_shutdown\":" << s.rejected_shutdown
      << ",\"deadline_exceeded\":" << s.deadline_exceeded
      << ",\"inflight\":" << s.inflight
      << ",\"max_inflight\":" << max_inflight_
      << ",\"draining\":" << (draining_.load() ? "true" : "false")
      << ",\"pool_jobs\":" << ThreadPool::global().jobs() << "}";

  // Per-endpoint latency distributions (empty when the obs layer is compiled
  // out or disabled at runtime — the native counters above always work).
  out << ",\"endpoints\":{";
#ifndef PROOF_OBS_DISABLED
  if (obs::enabled()) {
    bool first = true;
    for (const Method& method : kMethods) {
      const std::string name(method.name);
      const obs::HistogramSnapshot h = obs::MetricsRegistry::instance()
                                           .histogram("serve.latency." + name)
                                           .snapshot();
      if (h.count == 0) {
        continue;
      }
      if (!first) {
        out << ",";
      }
      first = false;
      out << json::quote(name) << ":{"
          << "\"count\":" << h.count
          << ",\"mean_s\":" << h.mean_s()
          << ",\"p50_s\":" << h.quantile_s(0.50)
          << ",\"p99_s\":" << h.quantile_s(0.99)
          << ",\"max_s\":" << static_cast<double>(h.max_ns) / 1e9 << "}";
    }
  }
#endif
  out << "}";

  // Shared-cache effectiveness: the reconciled ledger (lookups always equals
  // hits + misses; see docs/METRICS.md).
  const PrepCacheStats c = PrepCache::instance().stats();
  out << ",\"prep_cache\":{"
      << "\"enabled\":" << (PrepCache::instance().enabled() ? "true" : "false")
      << ",\"entries\":" << PrepCache::instance().size()
      << ",\"capacity\":" << PrepCache::instance().capacity()
      << ",\"engine_lookups\":" << (c.engine_hits + c.engine_misses)
      << ",\"engine_hits\":" << c.engine_hits
      << ",\"engine_misses\":" << c.engine_misses
      << ",\"engine_hit_rate\":" << c.engine_hit_rate()
      << ",\"evictions\":" << c.evictions
      << ",\"in_flight_waits\":" << c.in_flight_waits << "}";

  // Shape-polymorphic AnalysisPlan level (structural-fingerprint keyed);
  // entries are shared by every batch size / decode position of a model, so
  // hits here are whole prepare pipelines replaced by cheap instantiations.
  out << ",\"plan_cache\":{"
      << "\"entries\":" << PrepCache::instance().plan_cache_size()
      << ",\"capacity\":" << PrepCache::instance().plan_cache_capacity()
      << ",\"hits\":" << c.plan_cache_hits
      << ",\"misses\":" << c.plan_cache_misses
      << ",\"evictions\":" << c.plan_cache_evictions
      << ",\"collisions\":" << c.plan_cache_collisions
      << ",\"build_ns\":" << c.plan_cache_build_ns << "}";

  out << ",\"model_pool\":{\"models\":" << models_.size() << "}";

  // The full observability snapshot (already a JSON object; spliced raw).
  out << ",\"self_profile\":" << obs::self_profile_json();
  out << "}";
  return out.str();
}

void Server::log(const std::string& line) const {
  if (options_.verbose) {
    std::cerr << "[proof serve] " << line << "\n";
  }
}

}  // namespace proof::serve
