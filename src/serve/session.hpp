// One accepted connection of the serve daemon.
//
// A Session owns its socket and a dedicated thread running run(): read
// frame -> parse request -> dispatch -> execute -> write response frame(s).
// The connection handles one request at a time (no pipelining), and a heavy
// request executes on the session thread that read it, streaming progress
// frames (sweep points as they complete) as it goes.  So every admitted heavy
// request runs at once, at any --jobs; the global ThreadPool's lanes serve
// the fan-out inside a request (sweep_decode, optimize).
//
// Error discipline: malformed payloads produce a typed error response and
// the connection stays usable; framing violations (oversized prefix,
// truncated stream) and transport failures end the session.  A session never
// takes the daemon down — every exception is contained here.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "serve/protocol.hpp"
#include "support/socket.hpp"

namespace proof::serve {

class Server;

/// One serve-protocol method.  Every method runs on its session thread;
/// heavy ones are admission-gated and carry a deadline.
struct Method {
  std::string_view name;
  bool heavy;
};

/// Every method the daemon answers; any other name is a 404.  Dispatch, the
/// per-method counters (`serve.requests.<name>`, `serve.latency.<name>`) and
/// the `stats` endpoint latencies all read this one list.
inline constexpr Method kMethods[] = {
    {"ping", false},    {"stats", false}, {"shutdown", false},
    {"profile", true},  {"analyze", true}, {"sweep", true},
    {"sweep_decode", true}, {"optimize", true},
};

/// Cooperative per-request deadline.  Handlers call check() at cancellation
/// points (request start, between sweep points); an expired deadline throws
/// DeadlineExceeded, which the session maps to a typed 408 response.
/// Cancellation never happens inside backend preparation, so the shared
/// PrepCache only ever publishes fully built entries.
class Deadline {
 public:
  /// `budget_s <= 0` means no deadline.
  explicit Deadline(double budget_s);

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] bool expired() const;
  void check(const char* stage) const;  ///< throws DeadlineExceeded

 private:
  bool armed_ = false;
  double end_s_ = 0.0;  ///< steady-clock seconds
};

/// Thrown by Deadline::check; carries the stage that observed expiry.
class DeadlineExceeded : public Error {
 public:
  using Error::Error;
};

class Session {
 public:
  Session(Server& server, net::Socket socket, uint64_t id);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawns the reader thread.
  void start();

  /// True once run() returned and the thread is joinable without blocking.
  [[nodiscard]] bool finished() const { return finished_.load(); }

  /// Wakes a blocked read so run() can exit (server shutdown).
  void shutdown_socket();

  /// Joins the reader thread (idempotent).
  void join();

  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  void run();
  void handle(const Request& request);

  /// Admission control + execution + typed error mapping for the heavy
  /// methods.  Returns true when a result was sent.
  bool execute_heavy(const Request& request);

  /// Returns the raw result JSON to splice into the envelope.  Streams sweep
  /// progress frames via send_payload.
  [[nodiscard]] std::string execute(const Request& request,
                                    const Deadline& deadline);

  // Method handlers.
  [[nodiscard]] std::string do_profile(const Request& request,
                                       const Deadline& deadline,
                                       bool full_report);
  [[nodiscard]] std::string do_sweep(const Request& request,
                                     const Deadline& deadline);
  [[nodiscard]] std::string do_sweep_decode(const Request& request,
                                            const Deadline& deadline);
  [[nodiscard]] std::string do_optimize(const Request& request,
                                        const Deadline& deadline);

  void send_payload(const std::string& payload);

  Server& server_;
  net::Socket socket_;
  uint64_t id_ = 0;
  std::thread thread_;
  std::atomic<bool> finished_{false};
  std::atomic<bool> broken_{false};  ///< transport failed; stop writing
  std::mutex write_mu_;
};

}  // namespace proof::serve
