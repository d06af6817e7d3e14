#include "fleet/router.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <utility>

#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "exec/subprocess.hpp"
#include "service/cache_registry.hpp"
#include "service/codec.hpp"
#include "service/paged_buffer.hpp"
#include "service/protocol.hpp"

namespace buffy::fleet {

using service::Connection;
using service::ErrorCode;
using service::JsonValue;
using service::ProtocolError;
using service::Request;

using Clock = std::chrono::steady_clock;

namespace {

/// An `overloaded` error response carrying the backpressure hint.
std::string overloaded_response(std::optional<i64> id,
                                const std::string& message,
                                i64 retry_after_ms) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::string(service::error_code_name(
                      ErrorCode::Overloaded)));
  err.set("message", JsonValue::string(message));
  err.set("retry_after_ms", JsonValue::integer(retry_after_ms));
  JsonValue resp = JsonValue::object();
  if (id.has_value()) resp.set("id", JsonValue::integer(*id));
  resp.set("ok", JsonValue::boolean(false));
  resp.set("error", err);
  return resp.dump();
}

/// Rebuilds a worker response under the client's id (or without one),
/// preserving the id/ok/result|error member order the worker emits.
std::string rewrite_response_id(const JsonValue& doc,
                                std::optional<i64> client_id, bool* ok_out) {
  JsonValue out = JsonValue::object();
  if (client_id.has_value()) {
    out.set("id", JsonValue::integer(*client_id));
  }
  bool ok = false;
  if (const JsonValue* okv = doc.find("ok"); okv != nullptr && okv->is_bool()) {
    ok = okv->as_bool();
    out.set("ok", *okv);
  } else {
    out.set("ok", JsonValue::boolean(false));
  }
  if (const JsonValue* res = doc.find("result")) out.set("result", *res);
  if (const JsonValue* err = doc.find("error")) out.set("error", *err);
  if (ok_out != nullptr) *ok_out = ok;
  return out.dump();
}

}  // namespace

/// Worker replies as the router's dispatch layer sees them: a protocol
/// response line, the worker died with the request in flight, or the
/// router-side deadline backstop fired (stalled worker).
struct Router::Reply {
  enum class Kind { Response, Lost, Deadline };
  Kind kind = Kind::Lost;
  JsonValue doc;  ///< The parsed response object when kind == Response.
};

/// One worker process slot of the fleet. All mutable state is guarded by
/// `mu`; reply callbacks are always invoked with `mu` released.
struct Router::Shard {
  enum class State { Down, Starting, Up };

  unsigned index = 0;
  std::string socket_path;

  mutable std::mutex mu;
  exec::Subprocess proc;
  int fd = -1;
  State state = State::Down;
  /// Bumped on every teardown; late replies and the previous reader
  /// epoch's exit report are matched against it and dropped when stale.
  u64 epoch = 0;
  bool conn_broken = false;
  bool spawned_before = false;
  u64 restarts = 0;
  exec::ExponentialBackoff backoff;
  Clock::time_point respawn_at{};
  Clock::time_point spawn_started{};
  bool ping_inflight = false;
  Clock::time_point last_ping{};
  /// Reset the backoff on the first health pong of this epoch: the worker
  /// demonstrably serves requests, so the next crash is a fresh incident.
  bool backoff_reset_pending = false;
  /// Outstanding client work on this shard (the bounded "queue": past
  /// shard_queue_capacity new requests are answered `overloaded`).
  u64 inflight_jobs = 0;

  struct Pending {
    std::function<void(Reply)> fn;
    std::optional<Clock::time_point> deadline;
    bool job = false;
  };
  std::map<i64, Pending> pending;
  std::thread reader;

  JsonValue last_status;
  bool has_status = false;

  Shard(i64 backoff_base_ms, i64 backoff_max_ms)
      : backoff(backoff_base_ms, backoff_max_ms) {}
};

/// Everything a scatter exploration needs off the reader thread.
struct Router::ScatterJob {
  Request req;
  sdf::Graph graph;
  sdf::ActorId target;
  /// The client's request document: every explore_slice request is a copy
  /// of it with the slice members set.
  JsonValue slice_base;
  /// The client-cancellable parent (cancel requests fire this) and the
  /// deadline-composed token the waves poll.
  exec::CancellationToken parent;
  exec::CancellationToken token;
  std::optional<Clock::time_point> deadline;
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      frontend_(service::FrontendOptions{
                    .unix_socket_path = options_.unix_socket_path,
                    .tcp_port = options_.tcp_port,
                    .max_request_bytes = options_.max_request_bytes,
                    .role = "router"},
                *this) {
  BUFFY_REQUIRE(options_.workers >= 1, "RouterOptions::workers must be >= 1");
  BUFFY_REQUIRE(!options_.worker_binary.empty(),
                "RouterOptions::worker_binary must name the buffyd binary");
  BUFFY_REQUIRE(!options_.runtime_dir.empty(),
                "RouterOptions::runtime_dir must be set");
  BUFFY_REQUIRE(options_.shard_queue_capacity >= 1,
                "RouterOptions::shard_queue_capacity must be >= 1");
  for (unsigned i = 0; i < options_.workers; ++i) {
    auto shard = std::make_unique<Shard>(options_.backoff_base_ms,
                                         options_.backoff_max_ms);
    shard->index = i;
    shard->socket_path =
        options_.runtime_dir + "/worker-" + std::to_string(i) + ".sock";
    BUFFY_REQUIRE(shard->socket_path.size() < sizeof(sockaddr_un{}.sun_path),
                  "runtime_dir produces worker socket paths longer than "
                  "sockaddr_un allows");
    shards_.push_back(std::move(shard));
  }
}

Router::~Router() {
  shutdown();
  wait();
}

unsigned Router::num_workers() const {
  return static_cast<unsigned>(shards_.size());
}

unsigned Router::shard_of(u64 fingerprint) const {
  return static_cast<unsigned>(fingerprint % shards_.size());
}

i64 Router::worker_pid(unsigned index) const {
  BUFFY_REQUIRE(index < shards_.size(), "worker_pid: shard out of range");
  const Shard& s = *shards_[index];
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.proc.valid() ? static_cast<i64>(s.proc.pid()) : -1;
}

u64 Router::worker_restarts(unsigned index) const {
  BUFFY_REQUIRE(index < shards_.size(), "worker_restarts: shard out of range");
  const Shard& s = *shards_[index];
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.restarts;
}

void Router::start() {
  ::mkdir(options_.runtime_dir.c_str(), 0700);  // may already exist
  frontend_.start();
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

void Router::shutdown() { frontend_.shutdown(); }

void Router::wait() { frontend_.wait(); }

void Router::after_drain() {
  // Every job delivered its response: stop the supervisor, then take the
  // fleet down.
  {
    const std::lock_guard<std::mutex> lock(sup_mu_);
    sup_stop_ = true;
  }
  sup_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  drain_workers();
}

// ---------------------------------------------------------------------------
// Worker supervision

void Router::spawn_worker(Shard& s) {  // requires s.mu held
  const std::vector<std::string> argv = {
      options_.worker_binary,
      "--socket",
      s.socket_path,
      "--threads",
      std::to_string(options_.worker_threads),
      "--queue",
      std::to_string(options_.worker_queue_capacity),
  };
  ::unlink(s.socket_path.c_str());  // never connect to a dead worker's socket
  try {
    s.proc = exec::Subprocess::spawn(argv);
  } catch (const Error&) {
    s.state = Shard::State::Down;
    s.respawn_at = Clock::now() +
                   std::chrono::milliseconds(s.backoff.next_ms());
    return;
  }
  if (s.spawned_before) {
    ++s.restarts;
    worker_restarts_total_.fetch_add(1, std::memory_order_relaxed);
  }
  s.spawned_before = true;
  s.backoff_reset_pending = true;
  s.state = Shard::State::Starting;
  s.spawn_started = Clock::now();
}

void Router::teardown_worker(Shard& s, bool kill) {
  std::thread reader;
  int fd = -1;
  std::vector<std::function<void(Reply)>> lost;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    if (kill && s.proc.valid()) {
      s.proc.kill(SIGKILL);
      s.proc.wait();
    }
    fd = s.fd;
    s.fd = -1;
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // wakes the blocked reader
    ++s.epoch;
    s.conn_broken = false;
    s.ping_inflight = false;
    s.has_status = false;
    s.state = Shard::State::Down;
    s.respawn_at = Clock::now() +
                   std::chrono::milliseconds(s.backoff.next_ms());
    for (auto& [id, pending] : s.pending) {
      lost.push_back(std::move(pending.fn));
      if (pending.job) --s.inflight_jobs;
    }
    s.pending.clear();
    reader = std::move(s.reader);
  }
  if (reader.joinable()) reader.join();
  if (fd >= 0) ::close(fd);
  for (auto& fn : lost) fn(Reply{Reply::Kind::Lost, {}});
}

void Router::shard_tick(Shard& s) {
  const auto now = Clock::now();
  bool dead = false;
  bool stalled = false;
  bool broken = false;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.proc.valid() && s.proc.try_wait().has_value()) dead = true;
    broken = s.conn_broken;
    if (s.state == Shard::State::Up && s.ping_inflight &&
        now - s.last_ping >
            std::chrono::milliseconds(options_.health_timeout_ms)) {
      stalled = true;  // the worker stopped answering: SIGKILL + respawn
    }
    if (s.state == Shard::State::Starting &&
        now - s.spawn_started > std::chrono::seconds(10)) {
      stalled = true;  // spawned but never came up
    }
  }
  if (dead || broken || stalled) {
    teardown_worker(s, /*kill=*/!dead);
    return;
  }

  std::vector<std::function<void(Reply)>> expired;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    switch (s.state) {
      case Shard::State::Down:
        if (!frontend_.draining() &&
            now >= s.respawn_at) {
          spawn_worker(s);
        }
        break;
      case Shard::State::Starting: {
        // One connect attempt per tick until the worker has bound its
        // socket; ENOENT/ECONNREFUSED just mean "not yet". The path fits
        // sun_path (checked in the constructor).
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, s.socket_path.c_str(),
                    s.socket_path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) break;
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ::close(fd);
          break;
        }
        // A stalled worker must not wedge senders: bound every send by the
        // health timeout, after which the send fails and the shard is torn
        // down (the request is re-dispatched by its owner).
        timeval tv{};
        tv.tv_sec = options_.health_timeout_ms / 1000;
        tv.tv_usec = static_cast<suseconds_t>(
            (options_.health_timeout_ms % 1000) * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        s.fd = fd;
        s.state = Shard::State::Up;
        s.conn_broken = false;
        s.ping_inflight = false;
        s.last_ping = now - std::chrono::milliseconds(
                                options_.health_interval_ms);
        Shard* sp = &s;
        const u64 epoch = s.epoch;
        s.reader = std::thread(
            [this, sp, fd, epoch] { worker_reader_loop(sp, fd, epoch); });
        break;
      }
      case Shard::State::Up: {
        if (!s.ping_inflight &&
            now - s.last_ping >=
                std::chrono::milliseconds(options_.health_interval_ms)) {
          JsonValue ping = JsonValue::object();
          ping.set("method", JsonValue::string("status"));
          s.ping_inflight = true;
          s.last_ping = now;
          Shard* sp = &s;
          // No pending deadline on pings: stall detection is exactly
          // "ping_inflight for longer than the health timeout".
          send_to_shard_locked(
              s, std::move(ping), /*counts_as_job=*/false, std::nullopt,
              [sp](Reply reply) {
                const std::lock_guard<std::mutex> lock(sp->mu);
                sp->ping_inflight = false;
                if (reply.kind != Reply::Kind::Response) return;
                if (const JsonValue* res = reply.doc.find("result")) {
                  sp->last_status = *res;
                  sp->has_status = true;
                }
                if (sp->backoff_reset_pending) {
                  sp->backoff.reset();
                  sp->backoff_reset_pending = false;
                }
              });
        }
        // Deadline backstop: a request on a stalled worker answers
        // deadline_exceeded instead of hanging the client forever.
        for (auto it = s.pending.begin(); it != s.pending.end();) {
          if (it->second.deadline.has_value() &&
              now >= *it->second.deadline) {
            expired.push_back(std::move(it->second.fn));
            if (it->second.job) --s.inflight_jobs;
            it = s.pending.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
    }
  }
  for (auto& fn : expired) fn(Reply{Reply::Kind::Deadline, {}});
}

void Router::supervisor_loop() {
  // Ticks until after_drain: a drain keeps the fleet alive (and lost work
  // re-dispatched) until every in-flight job delivered its response.
  for (;;) {
    for (const std::unique_ptr<Shard>& shard : shards_) shard_tick(*shard);
    std::unique_lock<std::mutex> lock(sup_mu_);
    if (sup_cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return sup_stop_; })) {
      return;
    }
  }
}

void Router::drain_workers() {
  for (const std::unique_ptr<Shard>& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.state == Shard::State::Up) {
      JsonValue sd = JsonValue::object();
      sd.set("method", JsonValue::string("shutdown"));
      send_to_shard_locked(s, std::move(sd), /*counts_as_job=*/false,
                           std::nullopt, [](Reply) {});
    }
  }
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  for (const std::unique_ptr<Shard>& sp : shards_) {
    Shard& s = *sp;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(s.mu);
        if (!s.proc.valid() || s.proc.try_wait().has_value()) break;
      }
      if (Clock::now() >= deadline) {
        const std::lock_guard<std::mutex> lock(s.mu);
        if (s.proc.valid()) {
          s.proc.kill(SIGKILL);
          s.proc.wait();
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    teardown_worker(s, /*kill=*/false);
    ::unlink(s.socket_path.c_str());
  }
}

std::optional<i64> Router::send_to_shard_locked(
    Shard& s, JsonValue request, bool counts_as_job,
    std::optional<Clock::time_point> deadline,
    std::function<void(Reply)> on_reply) {
  if (s.state != Shard::State::Up || s.fd < 0) return std::nullopt;
  const i64 id = next_internal_id_.fetch_add(1, std::memory_order_relaxed);
  request.set("id", JsonValue::integer(id));
  s.pending.emplace(
      id, Shard::Pending{std::move(on_reply), deadline, counts_as_job});
  if (counts_as_job) ++s.inflight_jobs;
  if (!service::write_line(s.fd, request.dump())) {
    // Send failure (including a SNDTIMEO expiry against a stalled
    // worker): this connection epoch is done for.
    const auto it = s.pending.find(id);
    if (it != s.pending.end()) {
      if (it->second.job) --s.inflight_jobs;
      s.pending.erase(it);
    }
    s.conn_broken = true;
    sup_cv_.notify_all();
    return std::nullopt;
  }
  return id;
}

bool Router::send_cancel(unsigned shard, i64 remote_id,
                         std::function<void(Reply)> on_reply) {
  JsonValue cancel = JsonValue::object();
  cancel.set("method", JsonValue::string("cancel"));
  cancel.set("target_id", JsonValue::integer(remote_id));
  Shard& s = *shards_[shard];
  const std::lock_guard<std::mutex> lock(s.mu);
  return send_to_shard_locked(
             s, std::move(cancel), /*counts_as_job=*/false,
             Clock::now() +
                 std::chrono::milliseconds(options_.health_timeout_ms),
             std::move(on_reply))
      .has_value();
}

void Router::worker_reader_loop(Shard* s, int fd, u64 epoch) {
  // An over-long worker line ends the epoch just like EOF does.
  (void)service::read_lines(fd, options_.max_request_bytes,
                            [&](const std::string& line) {
                              handle_worker_line(s, epoch, line);
                            });
  {
    const std::lock_guard<std::mutex> lock(s->mu);
    if (s->epoch == epoch) s->conn_broken = true;
  }
  sup_cv_.notify_all();
}

void Router::handle_worker_line(Shard* s, u64 epoch, const std::string& line) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(s->mu);
    if (s->epoch == epoch) s->conn_broken = true;
    return;
  }
  const JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_int()) return;  // unsolicited; drop
  std::function<void(Reply)> fn;
  {
    const std::lock_guard<std::mutex> lock(s->mu);
    if (s->epoch != epoch) return;  // reply from a torn-down epoch
    const auto it = s->pending.find(id->as_int());
    if (it == s->pending.end()) return;  // already failed (lost/deadline)
    fn = std::move(it->second.fn);
    if (it->second.job) --s->inflight_jobs;
    s->pending.erase(it);
  }
  fn(Reply{Reply::Kind::Response, std::move(doc)});
}

// ---------------------------------------------------------------------------
// Client side

void Router::cancel(Connection& conn, const Request& req) {
  bool cancelled = false;
  std::optional<std::pair<unsigned, i64>> forwarded;
  {
    const std::lock_guard<std::mutex> lock(conn.inflight_mu);
    const auto it = conn.inflight.find(*req.cancel_id);
    if (it != conn.inflight.end()) {
      if (it->second.shard.has_value()) {
        forwarded = {*it->second.shard, it->second.remote_id};
      } else {
        it->second.token.cancel();
        cancelled = true;
      }
    }
  }
  if (forwarded.has_value()) {
    // Relay to the worker holding the request; its answer comes back under
    // the client's cancel id. The relay holds the connection like a job,
    // so a client hanging up meanwhile cannot have it reclaimed under the
    // reply.
    const std::optional<i64> client_id = req.id;
    conn.jobs.fetch_add(1, std::memory_order_relaxed);
    const bool sent = send_cancel(
        forwarded->first, forwarded->second,
        [this, &conn, client_id](Reply reply) {
          bool ok = true;
          std::string text =
              reply.kind == Reply::Kind::Response
                  ? rewrite_response_id(reply.doc, client_id, &ok)
                  : service::cancel_response(client_id, false);
          frontend_.respond(conn, std::move(text), ok);
          conn.jobs.fetch_sub(1, std::memory_order_release);
        });
    if (sent) return;
    conn.jobs.fetch_sub(1, std::memory_order_release);
  }
  frontend_.respond(conn, service::cancel_response(req.id, cancelled),
                    /*ok=*/true);
}

void Router::on_disconnect(Connection& conn) {
  // Cancel the client's scatter jobs and tell the workers to stop burning
  // time on its forwarded requests (best effort).
  std::vector<std::pair<unsigned, i64>> forwarded;
  {
    const std::lock_guard<std::mutex> lock(conn.inflight_mu);
    for (const auto& [id, entry] : conn.inflight) {
      if (entry.shard.has_value()) {
        forwarded.emplace_back(*entry.shard, entry.remote_id);
      } else {
        entry.token.cancel();
      }
    }
    conn.inflight.clear();
  }
  for (const auto& [shard, remote_id] : forwarded) {
    send_cancel(shard, remote_id, [](Reply) {});
  }
}

void Router::dispatch(Connection& conn, Request&& req,
                      const std::string& line) {
  // Affinity routing: the graph's fingerprint picks its home shard, so
  // repeated queries on one graph hit the same worker's warm caches. The
  // parse also surfaces payload diagnostics before any worker is bothered;
  // a scatter job plans the d&c here, so it is admitted here as well.
  const bool scatter = req.method == service::Method::ExplorePareto &&
                       req.scatter &&
                       req.engine == std::optional<std::string>("exh") &&
                       req.quality != std::optional<std::string>("fast");
  service::RequestGraph decoded;
  try {
    decoded = service::decode_graph(req, /*admit=*/scatter);
  } catch (...) {
    frontend_.respond(conn, service::current_error_response(req.id, false),
                      /*ok=*/false);
    frontend_.finish(conn);
    return;
  }
  std::optional<i64> deadline_ms = req.deadline_ms;
  if (!deadline_ms.has_value() && options_.default_deadline_ms > 0) {
    deadline_ms = options_.default_deadline_ms;
  }

  if (scatter) {
    scatter_requests_.fetch_add(1, std::memory_order_relaxed);
    ScatterJob job{.req = std::move(req),
                   .graph = std::move(decoded.graph),
                   .target = decoded.target,
                   .slice_base = JsonValue::parse(line),
                   .parent = exec::CancellationToken::cancellable()};
    job.token = job.parent;
    if (deadline_ms.has_value()) {
      job.token = job.parent.with_deadline(*deadline_ms);
      job.deadline = Clock::now() + std::chrono::milliseconds(*deadline_ms);
    }
    const std::optional<i64> client_id = job.req.id;
    if (client_id.has_value()) {
      const std::lock_guard<std::mutex> lock(conn.inflight_mu);
      conn.inflight[*client_id] = Connection::Inflight{.token = job.parent};
    }
    std::thread([this, &conn, job = std::move(job), client_id] {
      scatter_explore(conn, job);
      if (client_id.has_value()) {
        const std::lock_guard<std::mutex> lock(conn.inflight_mu);
        conn.inflight.erase(*client_id);
      }
      frontend_.finish(conn);
    }).detach();
    return;
  }

  forwarded_.fetch_add(1, std::memory_order_relaxed);
  ForwardPlan plan;
  plan.home = shard_of(service::graph_fingerprint(
      decoded.graph, decoded.graph.actor(decoded.target).name));
  plan.client_id = req.id;
  if (deadline_ms.has_value()) {
    // Small grace on top of the worker-enforced deadline so the worker's
    // own deadline_exceeded response normally wins the race.
    plan.deadline = Clock::now() +
                    std::chrono::milliseconds(*deadline_ms + 250);
  }
  dispatch_forward(conn, std::make_shared<JsonValue>(JsonValue::parse(line)),
                   plan);
}

void Router::dispatch_forward(Connection& conn,
                              std::shared_ptr<JsonValue> doc,
                              ForwardPlan plan) {
  const unsigned n = num_workers();
  bool saw_full_queue = false;
  for (unsigned k = 0; k < n; ++k) {
    Shard& s = *shards_[(plan.home + k) % n];
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.state != Shard::State::Up) continue;
    if (s.inflight_jobs >= options_.shard_queue_capacity) {
      saw_full_queue = true;
      continue;
    }
    const std::optional<i64> internal = send_to_shard_locked(
        s, *doc, /*counts_as_job=*/true, plan.deadline,
        [this, &conn, doc, plan](Reply reply) {
          if (reply.kind == Reply::Kind::Lost && plan.attempts > 0 &&
              conn.open.load(std::memory_order_relaxed)) {
            // The worker died with the request in flight; the analyses
            // are pure, so replaying on a live shard is safe and
            // invisible to the client.
            redispatches_.fetch_add(1, std::memory_order_relaxed);
            ForwardPlan retry = plan;
            --retry.attempts;
            dispatch_forward(conn, doc, retry);
            return;
          }
          if (plan.client_id.has_value()) {
            const std::lock_guard<std::mutex> routes(conn.inflight_mu);
            conn.inflight.erase(*plan.client_id);
          }
          bool ok = false;
          std::string text;
          switch (reply.kind) {
            case Reply::Kind::Response:
              text = rewrite_response_id(reply.doc, plan.client_id, &ok);
              break;
            case Reply::Kind::Lost:
              text = service::error_response(
                  plan.client_id, ErrorCode::InternalError,
                  "the worker serving this request died");
              break;
            case Reply::Kind::Deadline:
              text = service::error_response(plan.client_id,
                                             ErrorCode::DeadlineExceeded,
                                             "the request deadline expired");
              break;
          }
          frontend_.respond(conn, std::move(text), ok);
          frontend_.finish(conn);
        });
    if (!internal.has_value()) continue;
    if (plan.client_id.has_value()) {
      const std::lock_guard<std::mutex> routes(conn.inflight_mu);
      conn.inflight[*plan.client_id] = Connection::Inflight{
          .shard = s.index, .remote_id = *internal};
    }
    return;
  }
  // No shard accepted: structured backpressure with a retry hint.
  frontend_.counters().overloaded.fetch_add(1, std::memory_order_relaxed);
  if (plan.client_id.has_value()) {
    const std::lock_guard<std::mutex> lock(conn.inflight_mu);
    conn.inflight.erase(*plan.client_id);
  }
  frontend_.respond(
      conn,
      overloaded_response(plan.client_id,
                          saw_full_queue
                              ? "every shard queue is at capacity; retry"
                              : "no worker is available; retry",
                          saw_full_queue ? 100 : 250),
      /*ok=*/false);
  frontend_.finish(conn);
}

// ---------------------------------------------------------------------------
// Scatter: buffer::explore_scattered with the fleet as its wave evaluator

void Router::scatter_explore(Connection& conn, const ScatterJob& job) {
  // Rendezvous for one dispatched slice: the reply callback fills it, the
  // scatter thread waits on it.
  struct SliceCall {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Reply reply;

    void deliver(Reply r) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        reply = std::move(r);
        done = true;
      }
      cv.notify_all();
    }
  };
  bool cached_graph = false;

  // Sends one slice to some Up shard, round-robin; nullptr when no shard
  // currently accepts (the caller retries).
  const auto send_slice =
      [&](const buffer::SliceRequest& slice) -> std::shared_ptr<SliceCall> {
    JsonValue request = job.slice_base;
    request.set("method", JsonValue::string("explore_slice"));
    request.set("size", JsonValue::integer(slice.size));
    request.set("slice_goal", JsonValue::string(slice.slice_goal.str()));
    if (slice.seed.has_value()) {
      JsonValue seed = JsonValue::array();
      for (const i64 c : *slice.seed) seed.push_back(JsonValue::integer(c));
      request.set("seed", std::move(seed));
    }
    std::optional<Clock::time_point> backstop;
    if (job.deadline.has_value()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              *job.deadline - Clock::now())
              .count();
      request.set("deadline_ms",
                  JsonValue::integer(std::max<i64>(remaining, 1)));
      backstop = *job.deadline + std::chrono::milliseconds(250);
    }
    auto call = std::make_shared<SliceCall>();
    const unsigned n = num_workers();
    const unsigned start =
        round_robin_.fetch_add(1, std::memory_order_relaxed) % n;
    for (unsigned k = 0; k < n; ++k) {
      Shard& s = *shards_[(start + k) % n];
      const std::lock_guard<std::mutex> lock(s.mu);
      if (send_to_shard_locked(
              s, request, /*counts_as_job=*/true, backstop,
              [call](Reply reply) { call->deliver(std::move(reply)); })
              .has_value()) {
        return call;
      }
    }
    return nullptr;
  };

  // Dispatches a whole wave, invokes the fault-injection hook, then
  // collects outcomes — re-dispatching any slice its worker took to the
  // grave. Lost slices are safe to replay: a slice outcome is a pure
  // function of its request (buffer::explore_size_slice).
  const auto evaluate = [&](const buffer::SliceWave& wave) {
    std::vector<std::shared_ptr<SliceCall>> calls;
    for (const buffer::SliceRequest& slice : wave.slices) {
      calls.push_back(send_slice(slice));
    }
    if (options_.after_wave_dispatch) {
      options_.after_wave_dispatch(wave.index, wave.slices.size());
    }
    std::vector<buffer::SliceOutcome> outcomes;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      for (;;) {
        if (calls[i] == nullptr) {
          job.token.checkpoint();
          calls[i] = send_slice(wave.slices[i]);
          if (calls[i] == nullptr) {
            // No worker is up (crash storm): wait out a respawn.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            continue;
          }
        }
        Reply reply;
        {
          SliceCall& call = *calls[i];
          std::unique_lock<std::mutex> lock(call.mu);
          while (!call.done) {
            call.cv.wait_for(lock, std::chrono::milliseconds(50));
            if (!call.done) job.token.checkpoint();
          }
          reply = std::move(call.reply);
        }
        if (reply.kind == Reply::Kind::Lost) {
          redispatches_.fetch_add(1, std::memory_order_relaxed);
          calls[i] = nullptr;
          continue;
        }
        if (reply.kind == Reply::Kind::Deadline) {
          throw ProtocolError(ErrorCode::DeadlineExceeded,
                              "the request deadline expired");
        }
        outcomes.push_back(service::parse_slice_response(reply.doc,
                                                         &cached_graph));
        break;
      }
    }
    return outcomes;
  };

  std::string response;
  bool ok = false;
  try {
    buffer::DseOptions opts =
        service::exploration_options(job.req, job.target, 1);
    opts.cancel = job.token;
    const buffer::ScatteredResult scattered =
        buffer::explore_scattered(job.graph, opts, evaluate);
    // `front` matches a single-process buffyd byte-for-byte — the fleet
    // tests assert exactly that.
    JsonValue res = service::explore_result_json(
        job.graph.actor(job.target).name, scattered.result, cached_graph);
    res.set("scattered", JsonValue::boolean(true));
    res.set("waves", JsonValue::integer(scattered.waves));
    res.set("slices", JsonValue::integer(static_cast<i64>(scattered.slices)));
    response = service::ok_response(job.req.id, res);
    ok = true;
  } catch (...) {
    response = service::current_error_response(job.req.id,
                                               job.parent.cancelled());
  }
  frontend_.respond(conn, std::move(response), ok);
}

// ---------------------------------------------------------------------------
// Status

JsonValue Router::status_json() const {
  const auto u = [](u64 v) { return JsonValue::integer(static_cast<i64>(v)); };
  const auto get = [&u](const std::atomic<u64>& v) {
    return u(v.load(std::memory_order_relaxed));
  };
  const service::FrontendCounters& c = frontend_.counters();
  JsonValue o = JsonValue::object();
  o.set("role", JsonValue::string("router"));
  o.set("draining", JsonValue::boolean(frontend_.draining()));
  o.set("uptime_seconds", JsonValue::number(frontend_.uptime_seconds()));

  JsonValue requests = JsonValue::object();
  requests.set("total", get(c.requests));
  requests.set("analyze_throughput", get(c.analyze));
  requests.set("explore_pareto", get(c.explore));
  requests.set("explore_slice", get(c.slice));
  requests.set("scatter", get(scatter_requests_));
  requests.set("status", get(c.status));
  requests.set("cancel", get(c.cancel));
  requests.set("shutdown", get(c.shutdown));
  o.set("requests", requests);

  JsonValue responses = JsonValue::object();
  responses.set("ok", get(c.ok));
  responses.set("error", get(c.error));
  responses.set("overloaded", get(c.overloaded));
  o.set("responses", responses);

  JsonValue fleet = JsonValue::object();
  fleet.set("workers", u(shards_.size()));
  fleet.set("forwarded", get(forwarded_));
  fleet.set("redispatches", get(redispatches_));
  fleet.set("restarts_total", get(worker_restarts_total_));
  fleet.set("shard_queue_capacity", u(options_.shard_queue_capacity));

  unsigned up = 0;
  JsonValue shards = JsonValue::array();
  for (const std::unique_ptr<Shard>& sp : shards_) {
    const Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.state == Shard::State::Up) ++up;
    JsonValue shard = JsonValue::object();
    shard.set("index", u(s.index));
    shard.set("pid",
              JsonValue::integer(s.proc.valid()
                                     ? static_cast<i64>(s.proc.pid())
                                     : -1));
    const char* state = s.state == Shard::State::Up         ? "up"
                        : s.state == Shard::State::Starting ? "starting"
                                                            : "down";
    shard.set("state", JsonValue::string(state));
    shard.set("restarts", u(s.restarts));
    shard.set("queue_depth", u(s.inflight_jobs));
    shard.set("inflight", u(s.pending.size()));
    // The worker's own status result (cache occupancy, request counters),
    // as of its last health pong — the observability hook the fleet tests
    // use to assert cache affinity from the outside.
    shard.set("worker", s.has_status ? s.last_status : JsonValue());
    shards.push_back(std::move(shard));
  }
  fleet.set("up", u(up));
  o.set("fleet", fleet);
  o.set("shards", shards);
  return o;
}

}  // namespace buffy::fleet
