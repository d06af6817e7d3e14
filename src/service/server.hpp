// buffyd — the resident analysis daemon (DESIGN.md §10).
//
// A Server is a Backend of the shared service::Frontend (frontend.hpp),
// which owns the listeners, the per-connection reader threads, the inline
// status / shutdown requests, admission against `queue_capacity` and the
// drain barrier. The Server adds what runs behind that door: a
// work-stealing exec::ThreadPool the analysis requests run on, each with a
// per-request CancellationToken (deadline_ms composes with explicit cancel
// and client disconnect), and a CacheRegistry of warm per-graph
// throughput caches shared by every request.
//
// Shutdown drains: the listeners close, requests already running complete
// and deliver their responses, submitted-but-not-started jobs answer
// `shutting_down`, then the pool stops and the reader threads are joined.
// wait() returns only after that point, so `buffyd` can simply
// start(); wait(); return.
//
// Thread-safety: start() must be called once; shutdown() may be called
// from any thread (including a reader thread handling a shutdown
// request); wait() must be called from the owning thread (it joins).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "base/checked_math.hpp"
#include "exec/cancellation.hpp"
#include "exec/progress.hpp"
#include "exec/thread_pool.hpp"
#include "service/cache_registry.hpp"
#include "service/frontend.hpp"
#include "service/protocol.hpp"

namespace buffy::service {

/// Everything a Server can be configured with.
struct ServerOptions {
  /// Path for the Unix-domain listener; empty = no Unix socket. An
  /// existing socket file at the path is replaced.
  std::string unix_socket_path;
  /// TCP listener port on the loopback interface; nullopt = no TCP
  /// socket, 0 = ephemeral (read the bound port back via
  /// Server::tcp_port()).
  std::optional<int> tcp_port;
  /// Worker threads of the analysis pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// Bound on jobs in the system (queued + running); beyond it new
  /// analysis requests are answered `overloaded`.
  u64 queue_capacity = 64;
  /// Max resident per-graph caches (LRU by graph fingerprint).
  std::size_t cache_graphs = 64;
  /// Exact-entry bound per graph cache (0 = unbounded).
  u64 cache_entries_per_graph = 1u << 18;
  /// Deadline applied to requests that do not carry their own (0 = none).
  i64 default_deadline_ms = 0;
  /// Upper bound on one request line (graph payloads included).
  u64 max_request_bytes = 8u << 20;
  /// Worker threads granted to a single exploration: requests asking for
  /// "threads" are clamped to this, and requests that don't ask get it as
  /// their default grant (the engines spawn workers lazily and keep cheap
  /// slices sequential, so an unused grant costs nothing). 1 = explorations
  /// are sequential and concurrency comes from serving many requests at
  /// once.
  unsigned max_threads_per_request = 1;
};

/// Point-in-time copy of the daemon's counters (the status endpoint).
struct ServerStatus {
  bool draining = false;
  double uptime_seconds = 0.0;
  u64 requests_total = 0;
  u64 analyze_requests = 0;
  u64 explore_requests = 0;
  u64 slice_requests = 0;
  u64 status_requests = 0;
  u64 cancel_requests = 0;
  u64 shutdown_requests = 0;
  u64 responses_ok = 0;
  u64 responses_error = 0;
  u64 overloaded = 0;
  u64 shutting_down_rejections = 0;
  u64 jobs_queued = 0;
  u64 jobs_running = 0;
  u64 queue_capacity = 0;
  u64 connections_accepted = 0;
  u64 connections_open = 0;
  u64 cache_graphs_resident = 0;
  u64 cache_graph_capacity = 0;
  u64 cache_warm_hits = 0;
  u64 cache_graph_evictions = 0;
  CacheRegistry::Totals cache_totals;
  exec::ProgressSnapshot progress;

  /// The status endpoint's "result" object.
  [[nodiscard]] JsonValue json() const;
};

/// The daemon; see file comment.
class Server : private Backend {
 public:
  explicit Server(ServerOptions options);
  /// Initiates shutdown and waits for the drain if still running.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts accepting. Throws Error
  /// when no listener is configured or a bind fails.
  void start();

  /// Begins the graceful drain (idempotent, any thread): listeners
  /// close, running jobs finish, queued jobs answer shutting_down.
  void shutdown();

  /// Blocks until a drain completes (shutdown() here or via a request),
  /// then stops the pool and reaps reader threads.
  void wait();

  /// Port the TCP listener actually bound (0 when TCP is off); useful
  /// with an ephemeral `tcp_port = 0`.
  [[nodiscard]] int tcp_port() const { return frontend_.tcp_port(); }

  [[nodiscard]] ServerStatus status() const;

 private:
  // Backend
  void dispatch(Connection& conn, Request&& req,
                const std::string& line) override;
  void cancel(Connection& conn, const Request& req) override;
  void on_disconnect(Connection& conn) override;
  [[nodiscard]] JsonValue status_json() const override;
  void after_drain() override;

  void run_job(Connection& conn, const Request& req,
               const exec::CancellationToken& parent);

  // Request handlers (worker threads). Each returns the "result" object
  // or throws; run_job maps the exception to the error response.
  [[nodiscard]] JsonValue handle_analyze(const Request& req,
                                         const exec::CancellationToken& tok);
  [[nodiscard]] JsonValue handle_explore(const Request& req,
                                         const exec::CancellationToken& tok);
  [[nodiscard]] JsonValue handle_explore_slice(
      const Request& req, const exec::CancellationToken& tok);

  ServerOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
  CacheRegistry registry_;
  exec::Progress progress_;
  Frontend frontend_;

  // Pool gauges (relaxed; metrics only).
  std::atomic<u64> jobs_queued_{0};
  std::atomic<u64> jobs_running_{0};
};

}  // namespace buffy::service
