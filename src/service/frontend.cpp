#include "service/frontend.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "base/diagnostics.hpp"
#include "service/codec.hpp"
#include "service/paged_buffer.hpp"

namespace buffy::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

// Best-effort id recovery for a request line that failed validation, so
// a client that sent `{"id":7,...}` with a bad member can still correlate
// the error.
std::optional<i64> try_extract_id(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* id = doc.find("id");
    if (id != nullptr && id->is_int()) return id->as_int();
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

// A listening stream socket bound to `addr`; `what` names it in errors.
int listen_on(const sockaddr* addr, socklen_t len, const std::string& what) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(" + what + ")");
  const int one = 1;
  if (addr->sa_family == AF_INET) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, addr, len) != 0 || ::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("bind(" + what + ")");
  }
  return fd;
}

}  // namespace

Frontend::Frontend(FrontendOptions options, Backend& backend)
    : options_(std::move(options)),
      backend_(backend),
      started_at_(std::chrono::steady_clock::now()) {}

double Frontend::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

void Frontend::start() {
  BUFFY_REQUIRE(!started_.exchange(true), "start() called twice");
  BUFFY_REQUIRE(
      !options_.unix_socket_path.empty() || options_.tcp_port.has_value(),
      "no listener configured: set unix_socket_path and/or tcp_port");
  try {
    if (!options_.unix_socket_path.empty()) {
      const std::string& path = options_.unix_socket_path;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (path.size() >= sizeof(addr.sun_path)) {
        throw Error("unix socket path too long: '" + path + "'");
      }
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      ::unlink(path.c_str());
      unix_fd_ = listen_on(reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), "'" + path + "'");
    }
    if (options_.tcp_port.has_value()) {
      BUFFY_REQUIRE(*options_.tcp_port >= 0 && *options_.tcp_port <= 65535,
                    "tcp_port must be in [0, 65535]");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(*options_.tcp_port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      tcp_fd_ = listen_on(reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr),
                          "tcp port " + std::to_string(*options_.tcp_port));
      socklen_t len = sizeof(addr);
      if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
        throw_errno("getsockname(tcp)");
      }
      tcp_port_ = ntohs(addr.sin_port);
    }
  } catch (...) {
    if (unix_fd_ >= 0) ::close(unix_fd_);
    if (tcp_fd_ >= 0) ::close(tcp_fd_);
    unix_fd_ = tcp_fd_ = -1;
    throw;
  }
  for (const int fd : {unix_fd_, tcp_fd_}) {
    if (fd >= 0) accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void Frontend::shutdown() {
  if (!draining_.exchange(true)) {
    // SHUT_RDWR unblocks accept() in the listener threads; the fds are
    // closed in wait(), after those threads joined.
    if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
    if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  }
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  jobs_cv_.notify_all();
}

void Frontend::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] {
      return draining_.load(std::memory_order_relaxed) &&
             jobs_in_system_ == 0 && inline_shutdowns_ == 0;
    });
  }
  if (reaped_.exchange(true)) return;
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(options_.unix_socket_path.c_str());
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  backend_.after_drain();
  const std::lock_guard<std::mutex> lock(conns_mu_);
  // Every job has drained, so the readers are the only users left:
  // unblock them, join them, then the fds can close.
  for (const std::unique_ptr<Connection>& c : conns_) {
    c->open.store(false, std::memory_order_relaxed);
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (const std::unique_ptr<Connection>& c : conns_) {
    if (c->reader.joinable()) c->reader.join();
    ::close(c->fd);
  }
  conns_.clear();
}

void Frontend::accept_loop(int listen_fd) {
  for (;;) {
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or a hard error): stop accepting
    }
    if (draining()) {
      ::close(client_fd);
      continue;
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_open.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = client_fd;
    Connection* raw = conn.get();
    const std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap finished connections no job references any more.
    std::erase_if(conns_, [](const std::unique_ptr<Connection>& c) {
      if (!c->done.load(std::memory_order_acquire) ||
          c->jobs.load(std::memory_order_acquire) != 0) {
        return false;
      }
      c->reader.join();
      ::close(c->fd);
      return true;
    });
    conns_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw] { reader_loop(*raw); });
  }
}

void Frontend::reader_loop(Connection& conn) {
  if (!read_lines(conn.fd, options_.max_request_bytes,
                  [&](const std::string& line) { handle_line(conn, line); })) {
    respond(conn,
            error_response(std::nullopt, ErrorCode::BadRequest,
                           "request line exceeds " +
                               std::to_string(options_.max_request_bytes) +
                               " bytes"),
            /*ok=*/false);
  }
  conn.open.store(false, std::memory_order_relaxed);
  ::shutdown(conn.fd, SHUT_RDWR);
  // A disconnected client cannot receive results: the backend stops the
  // work it still has in flight.
  backend_.on_disconnect(conn);
  counters_.connections_open.fetch_sub(1, std::memory_order_relaxed);
  conn.done.store(true, std::memory_order_release);
}

void Frontend::respond(Connection& conn, std::string line, bool ok) {
  (ok ? counters_.ok : counters_.error).fetch_add(1, std::memory_order_relaxed);
  if (!conn.open.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!write_line(conn.fd, std::move(line))) {
    conn.open.store(false, std::memory_order_relaxed);
  }
}

void Frontend::finish(Connection& conn) {
  conn.jobs.fetch_sub(1, std::memory_order_release);
  // Notify while holding the mutex: a waiter in wait() may destroy the
  // frontend (and this cv) the moment the count reaches zero, but cannot
  // return before the broadcast released the lock.
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  --jobs_in_system_;
  jobs_cv_.notify_all();
}

void Frontend::handle_line(Connection& conn, const std::string& line) {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    respond(conn, error_response(try_extract_id(line), e.code(), e.what()),
            /*ok=*/false);
    return;
  }

  switch (req.method) {
    case Method::Status:
      counters_.status.fetch_add(1, std::memory_order_relaxed);
      respond(conn, ok_response(req.id, backend_.status_json()), /*ok=*/true);
      return;
    case Method::Cancel:
      counters_.cancel.fetch_add(1, std::memory_order_relaxed);
      backend_.cancel(conn, req);
      return;
    case Method::Shutdown:
      counters_.shutdown.fetch_add(1, std::memory_order_relaxed);
      drain_inline(conn, req);
      return;
    case Method::AnalyzeThroughput:
    case Method::ExplorePareto:
    case Method::ExploreSlice:
      break;
  }
  (req.method == Method::AnalyzeThroughput ? counters_.analyze
   : req.method == Method::ExploreSlice    ? counters_.slice
                                           : counters_.explore)
      .fetch_add(1, std::memory_order_relaxed);

  // Admission: the draining check and the job count change under one
  // lock, so wait() never sees zero jobs between them. Over the bound the
  // client hears `overloaded` at once — never a silent drop.
  bool draining = false;
  bool full = false;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    draining = draining_.load(std::memory_order_relaxed);
    full = !draining && options_.queue_capacity > 0 &&
           jobs_in_system_ >= options_.queue_capacity;
    if (!draining && !full) {
      ++jobs_in_system_;
      conn.jobs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (draining) {
    counters_.shutting_down.fetch_add(1, std::memory_order_relaxed);
    respond(conn,
            error_response(req.id, ErrorCode::ShuttingDown,
                           "the " + options_.role + " is draining"),
            /*ok=*/false);
  } else if (full) {
    counters_.overloaded.fetch_add(1, std::memory_order_relaxed);
    respond(conn,
            error_response(req.id, ErrorCode::Overloaded,
                           "job queue at capacity (" +
                               std::to_string(options_.queue_capacity) +
                               "); retry later"),
            /*ok=*/false);
  } else {
    backend_.dispatch(conn, std::move(req), line);
  }
}

void Frontend::drain_inline(Connection& conn, const Request& req) {
  {
    // Keeps wait() from tearing this connection down under the
    // confirmation below.
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    ++inline_shutdowns_;
  }
  shutdown();
  {
    // Drain barrier: every admitted job delivers its response before the
    // confirmation goes out.
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] { return jobs_in_system_ == 0; });
  }
  JsonValue result = JsonValue::object();
  result.set("drained", JsonValue::boolean(true));
  respond(conn, ok_response(req.id, result), /*ok=*/true);
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  --inline_shutdowns_;
  jobs_cv_.notify_all();
}

}  // namespace buffy::service
