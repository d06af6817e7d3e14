// buffyd-router: the sharded multi-process front-end of the buffy
// analysis fleet (DESIGN.md §17).
//
// A Router is a Backend of the shared service::Frontend — the same
// listeners, connection lifecycle, admission and drain barrier as a
// single buffyd, so clients need no fleet awareness. Behind that door it
// only routes and transports. It supervises a pool of worker `buffyd`
// processes — fork/exec'd, health-checked, and restarted with exponential
// backoff when they crash or stall — and:
//
//  * routes analyze_throughput / explore_pareto / explore_slice by graph
//    fingerprint to the graph's home shard (fingerprint mod workers), so
//    repeated queries on one graph keep hitting the same worker's warm
//    ThroughputCache;
//  * runs explore_pareto with `"scatter":true` and the exhaustive engine
//    through buffer::explore_scattered, whose wave callback it supplies:
//    each slice of a wave goes out as an `explore_slice` request across
//    the fleet, slices lost to a worker crash are re-dispatched, and the
//    merged front is byte-identical to a single-process exploration (the
//    purity contract of buffer::explore_size_slice);
//  * bounds per-shard admission: beyond `shard_queue_capacity`
//    outstanding requests a shard answers `overloaded` with a
//    `retry_after_ms` hint instead of queueing unboundedly;
//  * reports router counters with per-shard supervision state (pid,
//    restarts, queue depth) and each worker's own status (refreshed by the
//    health pings) in `status`, so affinity and backpressure are
//    observable from the outside.
//
// Worker connections ride the same paged wire path as client connections
// (service::read_lines / write_line).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/checked_math.hpp"
#include "exec/cancellation.hpp"
#include "service/frontend.hpp"
#include "service/json.hpp"

namespace buffy::fleet {

/// Everything a Router can be configured with.
struct RouterOptions {
  /// Client-facing Unix-domain listener; empty = none.
  std::string unix_socket_path;
  /// Client-facing TCP listener on loopback; nullopt = none, 0 =
  /// ephemeral (read back via Router::tcp_port()).
  std::optional<int> tcp_port;
  /// Path of the worker `buffyd` binary to spawn.
  std::string worker_binary;
  /// Worker processes in the fleet (>= 1).
  unsigned workers = 4;
  /// Directory for the per-worker Unix sockets (worker-N.sock); created
  /// when missing.
  std::string runtime_dir;
  /// Outstanding requests a shard accepts before answering `overloaded`.
  u64 shard_queue_capacity = 32;
  /// Deadline applied to requests that carry none (0 = none).
  i64 default_deadline_ms = 0;
  /// Upper bound on one request or response line.
  u64 max_request_bytes = 8u << 20;
  /// Supervision cadence: health pings per shard at this interval.
  i64 health_interval_ms = 100;
  /// A worker that has not answered a health ping for this long is
  /// declared stalled and SIGKILLed (the supervisor then respawns it).
  i64 health_timeout_ms = 2000;
  /// Respawn backoff after a worker death: first wait, doubling per
  /// consecutive failure up to the cap.
  i64 backoff_base_ms = 50;
  i64 backoff_max_ms = 2000;
  /// `--threads` handed to each worker.
  unsigned worker_threads = 2;
  /// `--queue` handed to each worker.
  u64 worker_queue_capacity = 64;
  /// Test hook: invoked after every scatter wave's slice requests have
  /// been written to the workers and before the router waits for their
  /// outcomes — the deterministic point to kill a worker mid-wave.
  /// Arguments: wave index (0 = the lo/hi endpoint wave) and the number
  /// of slices the wave dispatched.
  std::function<void(unsigned wave, std::size_t slices)> after_wave_dispatch;
};

/// Routing decision for one client request forwarded to a worker.
struct ForwardPlan {
  /// Preferred (home) shard; failover walks the fleet from here.
  unsigned home = 0;
  /// The client's request id (absent = fire-and-forget semantics).
  std::optional<i64> client_id;
  /// Absolute router-side deadline (backstop against stalled workers).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Remaining re-dispatch budget when a worker dies mid-request.
  int attempts = 3;
};

/// The fleet front-end; see file comment.
class Router : private service::Backend {
 public:
  explicit Router(RouterOptions options);
  /// Initiates shutdown and waits for the drain if still running.
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the client listeners, spawns the worker fleet, and starts the
  /// supervisor. Throws Error when no listener is configured or a bind
  /// fails. Workers come up asynchronously: requests arriving before a
  /// shard connected are answered `overloaded` (retry) rather than held.
  void start();

  /// Begins the drain (idempotent, any thread): client listeners close,
  /// in-flight work completes, then the workers are shut down.
  void shutdown();

  /// Blocks until a drain completes, then reaps every thread and worker.
  void wait();

  /// Port the TCP listener actually bound (0 when TCP is off).
  [[nodiscard]] int tcp_port() const { return frontend_.tcp_port(); }

  [[nodiscard]] unsigned num_workers() const;

  /// Home shard of a graph fingerprint (affinity routing).
  [[nodiscard]] unsigned shard_of(u64 fingerprint) const;

  /// Pid of shard `index`'s current worker process (-1 when down).
  /// Test hook for fault injection: the pid to SIGKILL or SIGSTOP.
  [[nodiscard]] i64 worker_pid(unsigned index) const;

  /// Completed respawns of shard `index` (0 until its first crash).
  [[nodiscard]] u64 worker_restarts(unsigned index) const;

  /// The status endpoint's "result" object (also reachable over the
  /// protocol via a `status` request).
  [[nodiscard]] service::JsonValue status_json() const override;

 private:
  struct Shard;
  struct Reply;
  struct ScatterJob;

  // Backend
  void dispatch(service::Connection& conn, service::Request&& req,
                const std::string& line) override;
  void cancel(service::Connection& conn,
              const service::Request& req) override;
  void on_disconnect(service::Connection& conn) override;
  void after_drain() override;

  void supervisor_loop();
  void shard_tick(Shard& s);
  void spawn_worker(Shard& s);
  void teardown_worker(Shard& s, bool kill);
  void worker_reader_loop(Shard* s, int fd, u64 epoch);
  void handle_worker_line(Shard* s, u64 epoch, const std::string& line);
  std::optional<i64> send_to_shard_locked(
      Shard& s, service::JsonValue request, bool counts_as_job,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      std::function<void(Reply)> on_reply);
  bool send_cancel(unsigned shard, i64 remote_id,
                   std::function<void(Reply)> on_reply);
  void drain_workers();

  void dispatch_forward(service::Connection& conn,
                        std::shared_ptr<service::JsonValue> doc,
                        ForwardPlan plan);
  void scatter_explore(service::Connection& conn, const ScatterJob& job);

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  service::Frontend frontend_;
  std::thread supervisor_;

  std::atomic<i64> next_internal_id_{1};
  std::atomic<unsigned> round_robin_{0};

  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;  // guarded by sup_mu_; set by after_drain

  // Counters beyond the frontend's (relaxed; metrics only).
  std::atomic<u64> scatter_requests_{0};
  std::atomic<u64> forwarded_{0};
  std::atomic<u64> redispatches_{0};
  std::atomic<u64> worker_restarts_total_{0};
};

}  // namespace buffy::fleet
