// The front door shared by buffyd and buffyd-router (DESIGN.md §10, §17).
//
// A Frontend owns everything between a client socket and a backend: the
// Unix-domain and TCP listeners with their accept threads, one reader
// thread per connection (the request-line overflow answer included),
// request parsing with id recovery on bad requests, the inline `status`
// and `shutdown` requests, admission, the drain barrier, and the
// request/response/connection counters both status endpoints report.
//
// A Backend supplies what differs between the two daemons: where an
// admitted analysis request runs (buffyd's thread pool, the router's
// shards), `cancel`, what a client disconnect releases, the `status`
// body, and the step that runs once a drain has reached zero jobs.
//
// Job lifecycle. Admission happens on the reader thread under one lock:
// a draining frontend answers `shutting_down`, a full one `overloaded`,
// otherwise the job counts in the system and on its connection before the
// lock is released — so a drain that saw zero jobs can never be followed
// by an admission. The backend then owns the job until it calls
// finish(conn), which must be its last touch of the connection: once the
// count reaches zero, wait() may tear every connection down.
//
// Thread-safety: start() once; shutdown() from any thread (a reader
// handling a `shutdown` request included); wait() from the owning thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/checked_math.hpp"
#include "exec/cancellation.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace buffy::service {

/// Listener and admission settings of a Frontend.
struct FrontendOptions {
  /// Unix-domain listener path; empty = none. An existing file is replaced.
  std::string unix_socket_path;
  /// TCP listener port on loopback; nullopt = none, 0 = ephemeral.
  std::optional<int> tcp_port;
  /// Upper bound on one request line.
  u64 max_request_bytes = 8u << 20;
  /// Bound on jobs in the system; 0 = none (the backend bounds its work).
  u64 queue_capacity = 0;
  /// Names the process in drain rejections ("daemon", "router").
  std::string role;
};

/// One accepted client. The reader thread owns the receive side; the send
/// side is shared by everything answering on the connection, under
/// write_mu. `jobs` counts admitted jobs still holding the connection: it
/// is reclaimed only once its reader exited and no job references it.
struct Connection {
  /// One in-flight request, keyed by its client id: local work is
  /// cancelled through `token`; a request forwarded to a worker records
  /// the shard and the id it travels under there.
  struct Inflight {
    exec::CancellationToken token;
    std::optional<unsigned> shard;
    i64 remote_id = 0;
  };

  int fd = -1;
  std::thread reader;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  std::atomic<bool> done{false};
  std::atomic<u64> jobs{0};
  std::mutex inflight_mu;
  std::unordered_map<i64, Inflight> inflight;  ///< guarded by inflight_mu
};

/// What a daemon plugs into its Frontend; see file comment.
class Backend {
 public:
  virtual ~Backend() = default;
  /// Runs one admitted analysis request (`line` is its raw text). Must
  /// answer it and then call Frontend::finish(conn) exactly once.
  virtual void dispatch(Connection& conn, Request&& req,
                        const std::string& line) = 0;
  /// Answers a `cancel` request.
  virtual void cancel(Connection& conn, const Request& req) = 0;
  /// The client disconnected: release what its in-flight requests hold.
  virtual void on_disconnect(Connection& conn) = 0;
  /// The `status` result object.
  [[nodiscard]] virtual JsonValue status_json() const = 0;
  /// Runs once in wait(), after the drain reached zero jobs and the
  /// listeners closed, before the connections are torn down.
  virtual void after_drain() {}
};

/// Request, response and connection counters (relaxed; metrics only).
struct FrontendCounters {
  std::atomic<u64> requests{0};
  std::atomic<u64> analyze{0};
  std::atomic<u64> explore{0};
  std::atomic<u64> slice{0};
  std::atomic<u64> status{0};
  std::atomic<u64> cancel{0};
  std::atomic<u64> shutdown{0};
  std::atomic<u64> ok{0};
  std::atomic<u64> error{0};
  std::atomic<u64> overloaded{0};
  std::atomic<u64> shutting_down{0};
  std::atomic<u64> connections_accepted{0};
  std::atomic<u64> connections_open{0};
};

/// The shared front door; see file comment.
class Frontend {
 public:
  /// The backend must outlive the frontend.
  Frontend(FrontendOptions options, Backend& backend);

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds the listeners and starts accepting. Throws Error when no
  /// listener is configured or a bind fails.
  void start();

  /// Begins the drain (idempotent, any thread): the listeners stop
  /// accepting and new analysis requests answer `shutting_down`.
  void shutdown();

  /// Blocks until a drain reached zero jobs, then closes the listeners,
  /// runs Backend::after_drain and tears every connection down.
  void wait();

  /// Port the TCP listener bound (0 when TCP is off).
  [[nodiscard]] int tcp_port() const { return tcp_port_; }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double uptime_seconds() const;
  [[nodiscard]] FrontendCounters& counters() { return counters_; }
  [[nodiscard]] const FrontendCounters& counters() const { return counters_; }

  /// Writes one response line to the client (dropped once the connection
  /// closed) and counts it as ok or error.
  void respond(Connection& conn, std::string line, bool ok);

  /// Retires an admitted job; its caller's last touch of `conn`.
  void finish(Connection& conn);

 private:
  void accept_loop(int listen_fd);
  void reader_loop(Connection& conn);
  void handle_line(Connection& conn, const std::string& line);
  void drain_inline(Connection& conn, const Request& req);

  FrontendOptions options_;
  Backend& backend_;
  FrontendCounters counters_;
  std::chrono::steady_clock::time_point started_at_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = 0;
  std::vector<std::thread> accept_threads_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> reaped_{false};

  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  u64 jobs_in_system_ = 0;    // guarded by jobs_mu_
  u64 inline_shutdowns_ = 0;  // shutdown requests awaiting their response,
                              // guarded by jobs_mu_ (see drain_inline)
};

}  // namespace buffy::service
