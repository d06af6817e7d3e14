// service::Frontend against a scripted Backend (DESIGN.md §10): the
// connection lifecycle buffyd and buffyd-router share, without any
// analysis behind it — request-line overflow, id recovery on bad
// requests, inline status, admission against the queue bound, the
// shutdown drain barrier, and admission racing a drain over many rounds
// (run under ThreadSanitizer in CI).
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/codec.hpp"
#include "service/frontend.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace buffy {
namespace {

using service::JsonValue;

// Answers every analysis request `ok` from a thread of its own, once
// released (`hold` parks them).
class ScriptedBackend : public service::Backend {
 public:
  service::Frontend* frontend = nullptr;
  std::atomic<int> dispatched{0};
  std::atomic<bool> drained{false};

  void set_hold(bool hold) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      hold_ = hold;
    }
    cv_.notify_all();
  }

  void dispatch(service::Connection& conn, service::Request&& req,
                const std::string&) override {
    dispatched.fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu_);
    jobs_.emplace_back([this, &conn, id = req.id] {
      {
        std::unique_lock<std::mutex> held(mu_);
        cv_.wait(held, [this] { return !hold_; });
      }
      frontend->respond(conn, service::ok_response(id, JsonValue::object()),
                        /*ok=*/true);
      frontend->finish(conn);
    });
  }
  void cancel(service::Connection& conn,
              const service::Request& req) override {
    frontend->respond(conn, service::cancel_response(req.id, false), true);
  }
  void on_disconnect(service::Connection&) override {}
  JsonValue status_json() const override {
    JsonValue o = JsonValue::object();
    o.set("scripted", JsonValue::boolean(true));
    return o;
  }
  void after_drain() override {
    // Every job called finish(); their threads only have to return.
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::thread& t : jobs_) t.join();
    jobs_.clear();
    drained.store(true);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
  std::vector<std::thread> jobs_;
};

// Blocking line client; receive errors read as end of stream.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { ::close(fd_); }

  void send_line(const std::string& line) const {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  // nullopt at end of stream.
  std::optional<JsonValue> recv() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return JsonValue::parse(line);
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

std::string analyze(i64 id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"analyze_throughput\",\"graph\":\"g\"}";
}

std::string code_of(const JsonValue& resp) {
  const JsonValue* err = resp.find("error");
  return err == nullptr ? "ok" : err->find("code")->as_string();
}

// A started frontend on an ephemeral loopback port.
struct Fixture {
  explicit Fixture(u64 queue_capacity = 0, u64 max_request_bytes = 1 << 20)
      : frontend(service::FrontendOptions{.tcp_port = 0,
                                          .max_request_bytes =
                                              max_request_bytes,
                                          .queue_capacity = queue_capacity,
                                          .role = "test"},
                 backend) {
    backend.frontend = &frontend;
    frontend.start();
  }
  ~Fixture() {
    backend.set_hold(false);
    frontend.shutdown();
    frontend.wait();
  }
  ScriptedBackend backend;
  service::Frontend frontend;
};

TEST(Frontend, OverlongRequestLineIsAnsweredThenTheConnectionCloses) {
  Fixture f(/*queue_capacity=*/0, /*max_request_bytes=*/64);
  Client client(f.frontend.tcp_port());
  client.send_line(std::string(100, 'x'));
  const std::optional<JsonValue> resp = client.recv();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(code_of(*resp), "bad_request");
  EXPECT_EQ(resp->find("id"), nullptr);
  EXPECT_FALSE(client.recv().has_value());
}

TEST(Frontend, BadRequestsEchoTheirIdAndStatusIsInline) {
  Fixture f;
  Client client(f.frontend.tcp_port());
  client.send_line("{\"id\":7,\"method\":\"no_such_method\"}");
  const JsonValue bad = *client.recv();
  EXPECT_EQ(code_of(bad), "bad_request");
  EXPECT_EQ(bad.find("id")->as_int(), 7);

  f.backend.set_hold(true);  // status must not wait for the held job
  client.send_line(analyze(1));
  client.send_line("{\"id\":2,\"method\":\"status\"}");
  const JsonValue status = *client.recv();
  EXPECT_EQ(status.find("id")->as_int(), 2);
  EXPECT_TRUE(status.find("result")->find("scripted")->as_bool());
  f.backend.set_hold(false);
  EXPECT_EQ(code_of(*client.recv()), "ok");
  EXPECT_EQ(f.frontend.counters().requests.load(), 3u);
  EXPECT_EQ(f.frontend.counters().error.load(), 1u);
}

TEST(Frontend, QueueBoundAnswersOverloaded) {
  Fixture f(/*queue_capacity=*/1);
  Client client(f.frontend.tcp_port());
  f.backend.set_hold(true);
  client.send_line(analyze(1));
  client.send_line(analyze(2));
  const JsonValue second = *client.recv();
  EXPECT_EQ(second.find("id")->as_int(), 2);
  EXPECT_EQ(code_of(second), "overloaded");
  f.backend.set_hold(false);
  const JsonValue first = *client.recv();
  EXPECT_EQ(first.find("id")->as_int(), 1);
  EXPECT_EQ(code_of(first), "ok");
  EXPECT_EQ(f.frontend.counters().overloaded.load(), 1u);
}

TEST(Frontend, ShutdownRequestIsTheDrainBarrier) {
  ScriptedBackend backend;
  service::Frontend frontend(
      service::FrontendOptions{.tcp_port = 0, .role = "test"}, backend);
  backend.frontend = &frontend;
  frontend.start();
  Client worker(frontend.tcp_port());
  Client admin(frontend.tcp_port());
  backend.set_hold(true);
  worker.send_line(analyze(1));
  while (backend.dispatched.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  admin.send_line("{\"id\":9,\"method\":\"shutdown\"}");
  while (!frontend.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.send_line(analyze(2));
  const JsonValue rejected = *worker.recv();
  EXPECT_EQ(rejected.find("id")->as_int(), 2);
  EXPECT_EQ(code_of(rejected), "shutting_down");
  backend.set_hold(false);
  EXPECT_EQ(code_of(*worker.recv()), "ok");
  const JsonValue drained = *admin.recv();
  EXPECT_TRUE(drained.find("result")->find("drained")->as_bool());
  frontend.wait();
  EXPECT_TRUE(backend.drained.load());
  EXPECT_FALSE(worker.recv().has_value());
}

// Admission racing the drain: requests stream in on several connections
// while shutdown() lands at a different point each round. Every answer is
// `ok` (admitted before the drain, so it completes) or `shutting_down`;
// and since wait() tears connections down only after the last admitted
// job finished, a job never writes into a reclaimed connection — which
// ThreadSanitizer / AddressSanitizer builds check directly.
TEST(Frontend, DrainRacingAdmissionAnswersOkOrShuttingDown) {
  constexpr int kRounds = 25;
  constexpr int kClients = 3;
  constexpr int kRequests = 40;
  for (int round = 0; round < kRounds; ++round) {
    ScriptedBackend backend;
    service::Frontend frontend(
        service::FrontendOptions{.tcp_port = 0, .role = "test"}, backend);
    backend.frontend = &frontend;
    frontend.start();
    std::atomic<int> sent{0};
    std::atomic<int> answered{0};
    std::atomic<int> unexpected{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Client client(frontend.tcp_port());
        for (int i = 0; i < kRequests; ++i) {
          client.send_line(analyze(c * kRequests + i));
        }
        sent.fetch_add(1);
        while (const std::optional<JsonValue> resp = client.recv()) {
          const std::string code = code_of(*resp);
          if (code != "ok" && code != "shutting_down") unexpected.fetch_add(1);
          answered.fetch_add(1);
        }
      });
    }
    while (sent.load() < kClients) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 5)));
    frontend.shutdown();
    frontend.wait();
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(unexpected.load(), 0) << "round " << round;
    EXPECT_TRUE(backend.drained.load());
    EXPECT_LE(answered.load(), kClients * kRequests);
  }
}

}  // namespace
}  // namespace buffy
