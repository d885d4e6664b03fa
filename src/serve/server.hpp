// Profiling-as-a-service: the long-running `proof serve` daemon.
//
// A Server owns one listening endpoint (TCP loopback or unix-domain socket)
// and turns each accepted connection into a Session speaking the
// length-prefixed JSON protocol (serve/protocol.hpp).  Request execution
// rides the existing machinery instead of duplicating it:
//
//  * heavy requests (profile / analyze / sweep / sweep_decode / optimize) run
//    on the session thread that read them, so every admitted request
//    executes at once; the fan-out inside one request (sweep_decode,
//    optimize) runs on the global work-stealing ThreadPool's lanes;
//  * all requests share the process-wide PrepCache and one interned-graph
//    ModelPool, so the expensive artifacts (prepared engines, fusion plans,
//    mappings, warmed graph indices) are paid once per process and amortized
//    across all traffic — the daemon-shaped answer to per-invocation CLI
//    startup cost;
//  * admission control bounds the work in the building: at most
//    `max_inflight` heavy requests are admitted, and all of them execute;
//    the excess is rejected immediately with a typed 429-style error instead
//    of queueing unboundedly or hanging;
//  * per-request deadlines cancel cooperatively between sweep points — never
//    mid-build, so a cancelled request can not poison the shared caches;
//  * graceful shutdown (SIGINT/SIGTERM or the `shutdown` method) stops
//    accepting, fails new requests with 503, drains in-flight work up to
//    `drain_timeout_s`, flushes PROOF_METRICS_OUT (a failed write is one
//    stderr line), and joins every thread.
//
// See DESIGN.md §11 for the architecture and docs/SERVE.md for the wire
// protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_pool.hpp"
#include "support/socket.hpp"

namespace proof::serve {

class Session;

struct ServerOptions {
  /// "unix:/path/to.sock" or "host:port" (port 0 = ephemeral, reported by
  /// Server::endpoint() after start()).
  std::string listen = "127.0.0.1:0";
  /// Max heavy requests admitted, and so executing, at once; 0 = 2x the
  /// global thread pool's parallelism.
  unsigned max_inflight = 0;
  /// Applied when a request carries no deadline_ms of its own; 0 = none.
  double default_deadline_s = 0.0;
  /// How long graceful shutdown waits for in-flight requests.
  double drain_timeout_s = 10.0;
  /// Zoo models to load + warm at startup ("all" = the whole Table-3 zoo).
  std::vector<std::string> preload;
  /// Log connection/request lines to stderr.
  bool verbose = false;
};

/// Native-atomic counters (valid even when the obs layer is compiled out;
/// the per-endpoint latency histograms additionally live in obs).
struct ServerStats {
  uint64_t connections = 0;
  uint64_t requests_total = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t inflight = 0;
  double uptime_s = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the endpoint, preloads models and spawns the acceptor thread.
  void start();

  /// The bound endpoint (with the real port for ephemeral TCP binds).
  [[nodiscard]] const net::Endpoint& endpoint() const;

  /// Requests a graceful stop; returns immediately.  Safe from any thread
  /// and from the `shutdown` request handler.
  void request_stop();

  /// Blocks until the server has stopped and fully drained (acceptor and
  /// every session joined, metrics flushed).
  void wait();

  /// request_stop() + wait().
  void stop();

  [[nodiscard]] bool running() const;
  [[nodiscard]] bool draining() const;

  [[nodiscard]] ServerStats stats() const;

  /// The JSON document the `stats` endpoint returns: server counters,
  /// per-endpoint latency (from obs), reconciled PrepCache stats, model-pool
  /// occupancy and the full self-profile snapshot.
  [[nodiscard]] std::string stats_json() const;

  [[nodiscard]] ModelPool& models() { return models_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// Effective admission bound after defaulting (>= 1).
  [[nodiscard]] unsigned max_inflight() const { return max_inflight_; }

  /// Routes SIGINT/SIGTERM to request_stop() of this server (one server per
  /// process may install handlers; the CLI daemon does).
  void install_signal_handlers();

 private:
  friend class Session;

  void acceptor_loop();
  void reap_finished_sessions();
  void drain_and_join();
  void log(const std::string& line) const;

  // Admission ledger for heavy requests.
  [[nodiscard]] bool try_admit();
  void release_admission();

  ServerOptions options_;
  unsigned max_inflight_ = 1;
  net::Listener listener_;
  ModelPool models_;
  std::thread acceptor_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> handle_signals_{false};

  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> requests_ok_{0};
  std::atomic<uint64_t> requests_error_{0};
  std::atomic<uint64_t> rejected_overloaded_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  double start_time_s_ = 0.0;

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::mutex wait_mu_;  ///< serializes wait()/stop() callers
};

}  // namespace proof::serve
