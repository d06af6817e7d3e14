// perfbench: end-to-end benchmark of buffyd and buffyd-router.
//
// One invocation measures one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --out-dir DIR
//
// It computes a reference answer for every input in-process, spawns the
// real daemon (`buffyd`, or `buffyd_router` with its workers) on a Unix
// socket in a private runtime directory, drives it closed-loop from two
// connections for S seconds, verifies every response against the
// reference, and prints the metrics as one JSON object on the last line
// of stdout. With --trace 1 it shortens the daemon window to S/2 and then
// replays the same inputs in-process, timing its own calls into each
// module's public functions in the order the daemon makes them, with a
// trace::Collector attached; the engine spans and the benchmark's layer
// spans are written as one Chrome trace into --out-dir. README.md beside
// this file lists the workloads and how to read the output.
#include <dirent.h>
#include <sched.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/max_throughput.hpp"
#include "base/rng.hpp"
#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "models/models.hpp"
#include "service/cache_registry.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "state/simd_backend.hpp"
#include "state/throughput.hpp"
#include "trace/chrome.hpp"
#include "trace/trace.hpp"

using namespace buffy;
using service::JsonValue;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Small helpers

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean of the middle half (a quarter trimmed from each end): as robust to
// a stray value as the median, but smooth when values fall into two modes.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t trim = v.size() / 4;
  double sum = 0;
  for (std::size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Shortest decimal that round-trips: every digit as measured.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_str(const std::string& s) { return JsonValue::string(s).dump(); }

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// /proc readers for the daemon's process tree

struct ProcStat {
  pid_t ppid = 0;
  u64 cpu_ticks = 0;  // utime + stime
  u64 sys_ticks = 0;  // stime
};

std::optional<ProcStat> read_proc_stat(pid_t pid) {
  const std::string text = read_text("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) return std::nullopt;
  std::istringstream in(text.substr(paren + 1));
  std::vector<std::string> f;
  for (std::string tok; in >> tok;) f.push_back(tok);
  // Fields after the command name start at stat field 3 (state).
  if (f.size() < 13 || f[0] == "Z") return std::nullopt;
  ProcStat s;
  s.ppid = static_cast<pid_t>(std::stol(f[1]));
  s.cpu_ticks = std::stoull(f[11]) + std::stoull(f[12]);
  s.sys_ticks = std::stoull(f[12]);
  return s;
}

std::vector<pid_t> all_pids() {
  std::vector<pid_t> pids;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return pids;
  while (const dirent* e = ::readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(e->d_name, &end, 10);
    if (end != e->d_name && *end == '\0') pids.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(dir);
  return pids;
}

// `root` and every live process below it.
std::vector<pid_t> process_tree(pid_t root) {
  std::vector<std::pair<pid_t, pid_t>> parent_of;
  for (const pid_t pid : all_pids()) {
    if (const auto st = read_proc_stat(pid)) parent_of.emplace_back(pid, st->ppid);
  }
  std::vector<pid_t> tree{root};
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (const auto& [pid, ppid] : parent_of) {
      if (ppid == tree[i]) tree.push_back(pid);
    }
  }
  return tree;
}

// CPU time of the tree in clock ticks: {user + system, system}.
std::pair<u64, u64> tree_cpu_ticks(const std::vector<pid_t>& tree) {
  std::pair<u64, u64> ticks{0, 0};
  for (const pid_t pid : tree) {
    if (const auto st = read_proc_stat(pid)) {
      ticks.first += st->cpu_ticks;
      ticks.second += st->sys_ticks;
    }
  }
  return ticks;
}

double tree_peak_rss_mb(const std::vector<pid_t>& tree) {
  double kb = 0;
  for (const pid_t pid : tree) {
    std::istringstream in(read_text("/proc/" + std::to_string(pid) + "/status"));
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) kb += std::stod(line.substr(6));
    }
  }
  return kb / 1024.0;
}

// Kills every process this benchmark spawned — the daemon, its workers,
// and workers orphaned by a dead router (the benchmark is their
// subreaper) — and reaps them all. Safe to call on any exit path.
void kill_and_reap_children() {
  const auto give_up = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    for (const pid_t pid : process_tree(::getpid())) {
      if (pid != ::getpid()) ::kill(pid, SIGKILL);
    }
    int status = 0;
    const pid_t r = ::waitpid(-1, &status, WNOHANG);
    if (r < 0 && errno == ECHILD) return;
    if (r == 0) {
      if (Clock::now() > give_up) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

// ---------------------------------------------------------------------------
// Client side of the wire protocol

class Conn {
 public:
  // Connects to a Unix socket; nullptr while nothing listens there yet.
  static std::unique_ptr<Conn> try_connect(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<Conn>(new Conn(fd));
  }

  static std::unique_ptr<Conn> connect(const std::string& path) {
    auto c = try_connect(path);
    if (c == nullptr) throw std::runtime_error("cannot connect to " + path);
    return c;
  }

  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_line(const std::string& line) {
    std::string out = line;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send(): " + std::string(std::strerror(errno)));
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  // One response line (without the newline); throws on timeout or EOF.
  std::string read_line(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(timeout_s));
    for (;;) {
      const std::size_t nl = buf_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buf_.size();
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now()).count();
      if (left <= 0) throw std::runtime_error("response timeout");
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, static_cast<int>(std::min<long long>(left, INT_MAX)));
      if (pr < 0 && errno != EINTR) throw std::runtime_error("poll() failed");
      if (pr <= 0) continue;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) throw std::runtime_error("connection closed by the daemon");
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("recv(): " + std::string(std::strerror(errno)));
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_;
  std::string buf_;
  std::size_t scanned_ = 0;
};

JsonValue call(const std::string& socket, const std::string& line, double timeout_s = 60) {
  auto c = Conn::connect(socket);
  c->send_line(line);
  const JsonValue doc = JsonValue::parse(c->read_line(timeout_s));
  const JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    throw std::runtime_error("daemon answered an error: " + doc.dump());
  }
  return *doc.find("result");
}

JsonValue status_of(const std::string& socket) {
  return call(socket, R"({"id":0,"method":"status"})");
}

i64 field(const JsonValue& v, std::initializer_list<const char*> path) {
  const JsonValue* cur = &v;
  for (const char* key : path) {
    cur = cur->find(key);
    if (cur == nullptr) return 0;
  }
  return cur->is_int() ? cur->as_int() : 0;
}

// ---------------------------------------------------------------------------
// Inputs and their in-process references

std::string rename_actor(sdf::Graph graph, std::size_t actor, const std::string& suffix,
                         bool xml) {
  graph.actor(sdf::ActorId(actor)).name += suffix;
  return xml ? io::write_sdf_xml(graph) : io::write_dsl(graph);
}

JsonValue points_json(const buffer::ParetoSet& pareto) {
  JsonValue points = JsonValue::array();
  for (const buffer::ParetoPoint& p : pareto.points()) {
    JsonValue point = JsonValue::object();
    point.set("size", JsonValue::integer(p.size()));
    point.set("throughput", JsonValue::string(p.throughput.str()));
    JsonValue caps = JsonValue::array();
    for (const i64 c : p.distribution.capacities()) caps.push_back(JsonValue::integer(c));
    point.set("capacities", caps);
    points.push_back(point);
  }
  return points;
}

struct FrontRef {
  std::string front;
  std::string points;  // points_json(...).dump()
};

FrontRef front_ref(const sdf::Graph& graph, buffer::DseEngine engine, bool cache) {
  buffer::DseOptions opts;
  opts.target = models::reported_actor(graph);
  opts.engine = engine;
  opts.use_throughput_cache = cache;
  const buffer::DseResult r = buffer::explore(graph, opts);
  return {r.pareto.str(), points_json(r.pareto).dump()};
}

// Every workload is a closed loop over this many connections, against a
// daemon tree with this many analysis threads (`buffyd --threads 2`, or
// 2 router workers with 1 thread each).
constexpr unsigned kConnections = 2;
constexpr unsigned kAnalysisThreads = 2;

// One workload: how to start the daemon, what to send, how to check it.
struct Workload {
  std::string name;
  bool router = false;
  unsigned daemon_cpus = 2;  // CPUs of the daemon tree, apart from the client's
  std::vector<std::string> flags;  // daemon flags besides the socket
  // Request line k of the timed window (k >= 0) or of setup repetition r
  // (k = -1 - r).
  std::function<std::string(i64 k)> line;
  // Checks a parsed response to line k; returns "" when it matches the
  // reference, otherwise what differs.
  std::function<std::string(i64 k, const JsonValue& result)> check;
};

std::string request(i64 k, const std::string& method, const std::string& graph,
                    const std::function<void(JsonValue&)>& extra = nullptr) {
  JsonValue r = JsonValue::object();
  r.set("id", JsonValue::integer(k));
  r.set("method", JsonValue::string(method));
  r.set("graph", JsonValue::string(graph));
  if (extra) extra(r);
  return r.dump();
}

std::string check_front(const FrontRef& ref, const JsonValue& result) {
  const JsonValue* front = result.find("front");
  const JsonValue* points = result.find("points");
  if (front == nullptr || !front->is_string() || front->as_string() != ref.front) {
    return "front differs from the in-process reference";
  }
  if (points == nullptr || points->dump() != ref.points) {
    return "points differ from the in-process reference";
  }
  return "";
}

// Probe payloads: the DSL of four bundled models, capacities drawn per
// channel from [lb, ub] of that model's design space.
struct Probe {
  std::string payload;
  std::string target;
  std::vector<i64> caps;
  std::string throughput;  // reference: state::compute_throughput
  bool deadlock = false;
};

std::vector<Probe> make_probes(u64 seed, std::size_t count) {
  std::vector<sdf::Graph> graphs;
  graphs.push_back(models::samplerate_converter());
  graphs.push_back(models::modem());
  graphs.push_back(models::satellite_receiver());
  graphs.push_back(models::mp3_decoder());
  std::vector<buffer::DesignSpaceBounds> bounds;
  std::vector<std::string> payloads;
  for (const sdf::Graph& g : graphs) {
    bounds.push_back(buffer::design_space_bounds(g, models::reported_actor(g)));
    payloads.push_back(io::write_dsl(g));
  }
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Probe> probes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t gi = i % graphs.size();
    // The reference runs on the graph parsed back from the payload, so it
    // answers exactly what the daemon is asked.
    const sdf::Graph g = io::read_dsl(payloads[gi]);
    const sdf::ActorId target = models::reported_actor(g);
    Probe p;
    p.payload = payloads[gi];
    p.target = g.actor(target).name;
    const std::vector<i64>& lb = bounds[gi].per_channel_lb.capacities();
    const std::vector<i64>& ub = bounds[gi].max_throughput_distribution.capacities();
    for (std::size_t c = 0; c < lb.size(); ++c) {
      p.caps.push_back(rng.uniform(lb[c], std::max(lb[c], ub[c])));
    }
    const state::ThroughputResult r = state::compute_throughput(g, p.caps, target);
    p.throughput = r.throughput.str();
    p.deadlock = r.deadlocked;
    probes.push_back(std::move(p));
  }
  return probes;
}

std::string probe_line(i64 k, const Probe& p) {
  return request(k, "analyze_throughput", p.payload, [&](JsonValue& r) {
    r.set("target", JsonValue::string(p.target));
    JsonValue caps = JsonValue::array();
    for (const i64 c : p.caps) caps.push_back(JsonValue::integer(c));
    r.set("capacities", caps);
  });
}

// Everything a workload needs, built before any daemon starts.
struct Inputs {
  Workload w;
  FrontRef ref;                 // explore workloads
  std::vector<Probe> probes;    // whatif_probe
  sdf::Graph base;              // the model the requests vary
};

constexpr std::size_t kProbePool = 1024;

std::string suffix_for(u64 seed, i64 k) {
  // Distinct per (seed, k): every cold request is a new fingerprint.
  return "_s" + std::to_string(seed) + (k < 0 ? "w" + std::to_string(-1 - k)
                                              : "r" + std::to_string(k));
}

std::unique_ptr<Inputs> make_inputs(const std::string& name, u64 seed) {
  auto in = std::make_unique<Inputs>();
  Workload& w = in->w;
  w.name = name;
  Inputs* self = in.get();
  if (name == "cold_explore" || name == "warm_repeat") {
    in->base = models::h263_decoder();
    w.flags = {"--threads", "2"};
    // Renaming the first actor (never the target) changes the fingerprint
    // and nothing the exploration computes.
    in->ref = front_ref(in->base, buffer::DseEngine::Incremental, true);
    const bool cold = name == "cold_explore";
    const std::string warm_payload = rename_actor(in->base, 0, suffix_for(seed, 0), true);
    w.line = [self, seed, cold, warm_payload](i64 k) {
      return request(k, "explore_pareto",
                     cold ? rename_actor(self->base, 0, suffix_for(seed, k), true)
                          : warm_payload);
    };
    w.check = [self](i64, const JsonValue& r) { return check_front(self->ref, r); };
  } else if (name == "whatif_probe") {
    in->probes = make_probes(seed, kProbePool);
    w.router = true;
    w.daemon_cpus = 1;
    w.flags = {"--workers", "2", "--worker-threads", "1"};
    w.line = [self](i64 k) {
      const std::size_t i = static_cast<std::size_t>(k < 0 ? -k : k) % kProbePool;
      return probe_line(k, self->probes[i]);
    };
    w.check = [self](i64 k, const JsonValue& r) -> std::string {
      const Probe& p = self->probes[static_cast<std::size_t>(k < 0 ? -k : k) % kProbePool];
      const JsonValue* tp = r.find("throughput");
      const JsonValue* dl = r.find("deadlock");
      if (tp == nullptr || !tp->is_string() || tp->as_string() != p.throughput ||
          dl == nullptr || !dl->is_bool() || dl->as_bool() != p.deadlock) {
        return "throughput differs from state::compute_throughput";
      }
      return "";
    };
  } else if (name == "fleet_scatter") {
    in->base = models::mp3_decoder();
    w.router = true;
    w.flags = {"--workers", "2", "--worker-threads", "1"};
    in->ref = front_ref(in->base, buffer::DseEngine::Exhaustive, false);
    w.line = [self, seed](i64 k) {
      return request(k, "explore_pareto",
                     rename_actor(self->base, 0, suffix_for(seed, k), false),
                     [](JsonValue& r) {
                       r.set("engine", JsonValue::string("exh"));
                       r.set("scatter", JsonValue::boolean(true));
                       r.set("cache", JsonValue::boolean(false));
                     });
    };
    w.check = [self](i64, const JsonValue& r) { return check_front(self->ref, r); };
  } else {
    return nullptr;
  }
  return in;
}

// ---------------------------------------------------------------------------
// The daemon under test

class Daemon {
 public:
  // The daemon and everything it spawns run on `cpus`.
  Daemon(const Workload& w, const std::string& bin_dir, const cpu_set_t& cpus) : w_(w) {
    socket_ = w.router ? "router.sock" : "buffyd.sock";
    std::vector<std::string> argv;
    if (w.router) {
      argv = {bin_dir + "/buffyd_router", "--socket", socket_, "--worker-bin",
              bin_dir + "/buffyd", "--runtime-dir", "fleet"};
    } else {
      argv = {bin_dir + "/buffyd", "--socket", socket_};
    }
    argv.insert(argv.end(), w.flags.begin(), w.flags.end());
    ::unlink(socket_.c_str());
    std::vector<char*> args;
    for (std::string& a : argv) args.push_back(a.data());
    args.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0) ::_exit(126);
      const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0600);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      ::execv(args[0], args.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) kill_and_reap_children();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  // Blocks until the daemon accepts connections (and, for the router,
  // every worker is up).
  void wait_ready(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(timeout_s));
    for (;;) {
      if (Clock::now() > deadline) throw std::runtime_error("daemon did not become ready");
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up: " + read_text("daemon.log"));
      }
      if (auto c = Conn::try_connect(socket_)) {
        if (!w_.router) return;
        c->send_line(R"({"id":0,"method":"status"})");
        const JsonValue doc = JsonValue::parse(c->read_line(10));
        const JsonValue* res = doc.find("result");
        if (res != nullptr && field(*res, {"fleet", "up"}) == field(*res, {"fleet", "workers"})) {
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  // Every status the tree can report: the daemon's own and, for the
  // router, each worker's (asked directly on its socket, so the counters
  // are current rather than as of the last health ping).
  std::vector<JsonValue> statuses() const {
    std::vector<JsonValue> out{status_of(socket_)};
    if (w_.router) {
      const i64 workers = field(out[0], {"fleet", "workers"});
      for (i64 i = 0; i < workers; ++i) {
        out.push_back(status_of("fleet/worker-" + std::to_string(i) + ".sock"));
      }
    }
    return out;
  }

  std::vector<pid_t> tree() const { return process_tree(pid_); }

  // Graceful drain; falls back to SIGKILL. Reaps everything either way.
  void shutdown() {
    if (pid_ <= 0) return;
    try {
      call(socket_, R"({"id":0,"method":"shutdown"})", 20);
      const auto give_up = Clock::now() + std::chrono::seconds(10);
      int st = 0;
      while (::waitpid(pid_, &st, WNOHANG) == 0 && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::exception&) {
    }
    kill_and_reap_children();
    pid_ = -1;
  }

 private:
  const Workload& w_;
  std::string socket_;
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// Closed-loop window

struct Sample {
  i64 k = 0;
  double latency_ms = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  std::string response;
  std::string error;  // transport failure (timeout, closed connection)
};

struct Window {
  std::vector<Sample> samples;
  double wall_s = 0;
};

// Drives the daemon closed-loop for `seconds`, sending requests first_k,
// first_k + 1, ...
Window run_window(const Workload& w, const Daemon& d, double seconds, i64 first_k) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (unsigned i = 0; i < kConnections; ++i) conns.push_back(Conn::connect(d.socket()));
  std::atomic<i64> next{first_k};
  std::vector<std::vector<Sample>> per(conns.size());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> finished(conns.size(), start);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      while (Clock::now() < end) {
        Sample s;
        s.k = next.fetch_add(1);
        const std::string line = w.line(s.k);
        s.request_bytes = line.size() + 1;
        const auto t0 = Clock::now();
        try {
          conns[i]->send_line(line);
          s.response = conns[i]->read_line(60);
        } catch (const std::exception& e) {
          s.error = e.what();
        }
        s.latency_ms = seconds_between(t0, Clock::now()) * 1e3;
        s.response_bytes = s.response.size() + 1;
        const bool broken = !s.error.empty();
        per[i].push_back(std::move(s));
        if (broken) break;  // the connection is unusable now
      }
      finished[i] = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  Window win;
  win.wall_s = seconds_between(start, *std::max_element(finished.begin(), finished.end()));
  for (auto& v : per) {
    for (Sample& s : v) win.samples.push_back(std::move(s));
  }
  std::sort(win.samples.begin(), win.samples.end(),
            [](const Sample& a, const Sample& b) { return a.k < b.k; });
  return win;
}

// Parses and verifies one response; returns the result object or throws
// with the reason the request counts as failed.
JsonValue verify(const Workload& w, i64 k, const std::string& response) {
  const JsonValue doc = JsonValue::parse(response);
  const JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_int() || id->as_int() != k) {
    throw std::runtime_error("response id does not match the request");
  }
  const JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    const JsonValue* err = doc.find("error");
    throw std::runtime_error("error response: " + (err ? err->dump() : doc.dump()));
  }
  const JsonValue* result = doc.find("result");
  if (result == nullptr) throw std::runtime_error("response carries no result");
  const std::string mismatch = w.check(k, *result);
  if (!mismatch.empty()) throw std::runtime_error(mismatch);
  return *result;
}

// ---------------------------------------------------------------------------
// In-process replay with the benchmark's own layer spans

struct LayerSpan {
  std::string name;
  i64 request = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

class Replay {
 public:
  explicit Replay(trace::Collector* collector) : collector_(collector) {}

  // Times one call into a module; `metric` names the per-layer metric the
  // time is charged to ("" = span only), `times` times over.
  template <typename F>
  auto timed(const char* span, const char* metric, double times, F&& f) {
    const std::int64_t t0 = now_ns();
    auto result = f();
    const std::int64_t dur = now_ns() - t0;
    spans.push_back({span, request_, t0, dur});
    if (metric[0] != '\0') sums_[metric] += times * static_cast<double>(dur) / 1e6;
    return result;
  }
  template <typename F>
  auto timed(const char* span, const char* metric, F&& f) {
    return timed(span, metric, 1.0, std::forward<F>(f));
  }

  void begin_request(i64 k) {
    request_ = k;
    sums_.clear();
    request_start_ = now_ns();
  }

  void end_request() {
    for (const auto& [name, ms] : sums_) per_request[name].push_back(ms);
    spans.push_back({"request", request_, request_start_, now_ns() - request_start_});
    total_ms += static_cast<double>(now_ns() - request_start_) / 1e6;
    ++requests;
  }

  std::int64_t now_ns() const {
    if (collector_ != nullptr) return collector_->now_ns();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch()).count();
  }

  std::vector<LayerSpan> spans;
  std::map<std::string, std::vector<double>> per_request;  // ms per request
  std::vector<double> simulations;
  double total_ms = 0;
  i64 requests = 0;
  std::string mismatch;  // a replayed answer that differs from the reference

 private:
  trace::Collector* collector_;
  i64 request_ = 0;
  std::int64_t request_start_ = 0;
  std::map<std::string, double> sums_;
};

sdf::Graph parse_payload(const service::Request& req) {
  const std::size_t first = req.graph_text.find_first_not_of(" \t\r\n");
  return first != std::string::npos && req.graph_text[first] == '<'
             ? io::read_sdf_xml(req.graph_text)
             : io::read_dsl(req.graph_text);
}

sdf::ActorId target_of(const sdf::Graph& g, const service::Request& req) {
  if (req.target.empty()) return sdf::ActorId(g.num_actors() - 1);
  return *g.find_actor(req.target);
}

// Server::handle_explore, step by step (exact quality, the daemon's
// one-thread-per-request grant).
void replay_explore(Replay& rp, const Inputs& in, service::CacheRegistry& registry,
                    const std::string& line) {
  const service::Request req =
      rp.timed("service::parse_request", "service.parse_request_us",
               [&] { return service::parse_request(line); });
  const sdf::Graph graph = rp.timed("io::read_sdf_xml", "io.parse_ms",
                                    [&] { return parse_payload(req); });
  const sdf::ActorId target = target_of(graph, req);
  const analysis::BoundsCertificate cert =
      rp.timed("analysis::derive_bounds", "analysis.certificate_ms",
               [&] { return analysis::derive_bounds(graph); });
  if (!cert.fits_i64) rp.mismatch = "admission rejected the graph";
  buffer::DseOptions opts;
  opts.target = target;
  opts.threads = 1;
  opts.use_throughput_cache = req.use_cache;
  const analysis::MaxThroughput mt =
      rp.timed("analysis::max_throughput", "analysis.max_throughput_ms",
               [&] { return analysis::max_throughput(graph); });
  const service::CacheRegistry::Lease lease =
      rp.timed("service::CacheRegistry::get_or_create", "", [&] {
        return registry.get_or_create(
            service::graph_fingerprint(graph, graph.actor(target).name),
            mt.actor_throughput(target));
      });
  opts.shared_cache = lease.cache.get();
  // buffer::explore computes these bounds first; timed here on their own.
  rp.timed("buffer::design_space_bounds", "buffer.bounds_ms", [&] {
    state::ThroughputSolver solver(graph);
    return buffer::design_space_bounds(graph, target, opts.max_steps_per_run, &solver);
  });
  const buffer::DseResult result = rp.timed("buffer::explore", "buffer.explore_ms",
                                            [&] { return buffer::explore(graph, opts); });
  rp.simulations.push_back(static_cast<double>(result.simulations_run));
  rp.timed("service::ok_response", "service.encode_us", [&] {
    JsonValue res = JsonValue::object();
    res.set("front", JsonValue::string(result.pareto.str()));
    res.set("points", points_json(result.pareto));
    return service::ok_response(req.id, res);
  });
  if (result.pareto.str() != in.ref.front) rp.mismatch = "replayed front differs";
}

// Server::handle_analyze with capacities.
void replay_probe(Replay& rp, const Probe& p, const std::string& line) {
  const service::Request req =
      rp.timed("service::parse_request", "service.parse_request_us",
               [&] { return service::parse_request(line); });
  const sdf::Graph graph =
      rp.timed("io::read_dsl", "io.parse_ms", [&] { return parse_payload(req); });
  const sdf::ActorId target = target_of(graph, req);
  rp.timed("analysis::derive_bounds", "analysis.certificate_ms",
           [&] { return analysis::derive_bounds(graph); });
  state::ThroughputOptions opts;
  opts.target = target;
  const state::ThroughputResult run =
      rp.timed("state::compute_throughput", "state.compute_throughput_us", [&] {
        return state::compute_throughput(graph, state::Capacities::bounded(req.capacities),
                                         opts);
      });
  rp.timed("service::ok_response", "service.encode_us", [&] {
    JsonValue res = JsonValue::object();
    res.set("deadlock", JsonValue::boolean(run.deadlocked));
    res.set("throughput", JsonValue::string(run.throughput.str()));
    return service::ok_response(req.id, res);
  });
  if (run.throughput.str() != p.throughput) rp.mismatch = "replayed throughput differs";
}

// The router's side of a scattered explore (parse, admission, bounds and
// the slice plan), then the same exploration in one buffer::explore call:
// its size_eval spans give the per-slice engine time. Each of the
// response's `slices` requests makes a worker re-parse, re-admit and
// re-bound the graph (handle_explore_slice); that prologue is timed once
// and charged `slices` times.
void replay_scatter(Replay& rp, const Inputs& in, const std::string& line, double slices) {
  const service::Request req =
      rp.timed("service::parse_request", "service.parse_request_us",
               [&] { return service::parse_request(line); });
  const sdf::Graph graph =
      rp.timed("io::read_dsl", "io.parse_ms", [&] { return parse_payload(req); });
  const sdf::ActorId target = target_of(graph, req);
  rp.timed("analysis::derive_bounds", "analysis.certificate_ms",
           [&] { return analysis::derive_bounds(graph); });
  buffer::DseOptions opts;
  opts.target = target;
  opts.engine = buffer::DseEngine::Exhaustive;
  opts.use_throughput_cache = req.use_cache;
  const buffer::DesignSpaceBounds bounds =
      rp.timed("buffer::design_space_bounds", "buffer.bounds_ms", [&] {
        return buffer::design_space_bounds(graph, target, opts.max_steps_per_run, nullptr);
      });
  buffer::DseOptions planned = opts;
  buffer::apply_quantization_levels(planned, bounds);
  rp.timed("buffer::exhaustive_slice_plan", "", [&] {
    return buffer::exhaustive_slice_plan(graph, planned, bounds);
  });

  // Worker side, once, charged per slice.
  const sdf::Graph wg = rp.timed("io::read_dsl", "io.parse_ms", slices,
                                 [&] { return parse_payload(req); });
  rp.timed("analysis::derive_bounds", "analysis.certificate_ms", slices,
           [&] { return analysis::derive_bounds(wg); });
  rp.timed("buffer::design_space_bounds", "buffer.bounds_ms", slices, [&] {
    state::ThroughputSolver solver(wg);
    return buffer::design_space_bounds(wg, target, opts.max_steps_per_run, &solver);
  });

  const buffer::DseResult r = rp.timed("buffer::explore", "buffer.explore_ms",
                                       [&] { return buffer::explore(graph, opts); });
  rp.simulations.push_back(static_cast<double>(r.simulations_run));
  rp.timed("service::ok_response", "service.encode_us", [&] {
    JsonValue res = JsonValue::object();
    res.set("front", JsonValue::string(r.pareto.str()));
    res.set("points", points_json(r.pareto));
    return service::ok_response(req.id, res);
  });
  if (r.pareto.str() != in.ref.front) rp.mismatch = "replayed explore front differs";
}

void replay_one(Replay& rp, const Inputs& in, service::CacheRegistry& registry, i64 k,
                double slices) {
  const std::string line = in.w.line(k);
  rp.begin_request(k);
  if (in.w.name == "whatif_probe") {
    replay_probe(rp, in.probes[static_cast<std::size_t>(k) % kProbePool], line);
  } else if (in.w.name == "fleet_scatter") {
    replay_scatter(rp, in, line, slices);
  } else {
    replay_explore(rp, in, registry, line);
  }
  rp.end_request();
}

// Replays requests 0, 1, 2, ... twice each, once into `traced` with the
// collector attached and once into `plain` without it (alternating which
// goes first, each with its own cache registry), until `budget_s` has
// passed or the trace holds `max_events` events; at least 3 requests.
// `slices` is the median `slices` of the daemon's scatter responses.
void run_replay(Replay& traced, Replay& plain, trace::Collector& collector,
                const Inputs& in, double budget_s, std::uint64_t max_events,
                double slices) {
  service::CacheRegistry traced_registry(64, 1u << 18);
  service::CacheRegistry plain_registry(64, 1u << 18);
  if (in.w.name == "warm_repeat") {
    Replay priming(nullptr);
    replay_explore(priming, in, traced_registry, in.w.line(0));
    replay_explore(priming, in, plain_registry, in.w.line(0));
  }
  const auto start = Clock::now();
  for (i64 k = 0;; ++k) {
    if (k >= 3 && (seconds_between(start, Clock::now()) > budget_s ||
                   collector.event_count() + traced.spans.size() > max_events)) {
      break;
    }
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (k % 2 == 0)) {
        trace::attach(&collector);
        replay_one(traced, in, traced_registry, k, slices);
        trace::attach(nullptr);
      } else {
        replay_one(plain, in, plain_registry, k, slices);
      }
    }
  }
}

void write_chrome_trace(const std::string& path, const std::vector<trace::Event>& events,
                        const std::vector<LayerSpan>& spans) {
  std::string engine = trace::chrome_trace_json(events);
  // Splice the benchmark's layer spans into the engine's event array;
  // they run on the replay thread, tid 0, so they nest around its spans.
  const std::size_t close = engine.rfind(']');
  std::string out = engine.substr(0, close);
  bool first = out.find("{\"name\"") == std::string::npos;
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
  for (const LayerSpan& s : spans) {
    char ts[64];
    char dur[64];
    std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(s.start_ns) / 1e3);
    std::snprintf(dur, sizeof dur, "%.3f", static_cast<double>(s.dur_ns) / 1e3);
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\": " + json_str(s.name) +
           ", \"cat\": \"perfbench\", \"pid\": 1, \"tid\": 0, \"ts\": " + ts +
           ", \"ph\": \"X\", \"dur\": " + dur +
           ", \"args\": {\"request\": " + std::to_string(s.request) + "}}";
  }
  out += "\n]}\n";
  std::ofstream f(path);
  f << out;
  if (!f) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// CPU placement

struct Placement {
  cpu_set_t client;
  cpu_set_t daemon;
  std::string client_list;
  std::string daemon_list;
  unsigned daemon_cpus = 0;
};

// A fixed choice among the CPUs this process may use: the `daemon_cpus`
// below the highest-numbered one for the daemon tree, and the highest one
// for the client (this process and its connection threads), so a latency
// holds no client work. On a host with too few CPUs the daemon shares the
// client's. Pins this process; the daemon pins itself in Daemon's child.
// Thread wake-ups that cross CPUs of a virtual machine cost a varying
// amount; unpinned, the same request mix swung by a factor of two from
// run to run.
Placement pin_cpus(unsigned daemon_cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;  // highest first
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) throw std::runtime_error("no CPU to run on");
  Placement p;
  CPU_ZERO(&p.client);
  CPU_ZERO(&p.daemon);
  const auto add = [](cpu_set_t& set, std::string& list, int cpu) {
    CPU_SET(cpu, &set);
    list.insert(0, std::to_string(cpu) + (list.empty() ? "" : ","));
  };
  const std::size_t first = cpus.size() > daemon_cpus ? 1 : 0;
  for (std::size_t i = first; i < cpus.size() && i < first + daemon_cpus; ++i) {
    add(p.daemon, p.daemon_list, cpus[i]);
    ++p.daemon_cpus;
  }
  add(p.client, p.client_list, cpus[0]);
  if (::sched_setaffinity(0, sizeof p.client, &p.client) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return p;
}

// ---------------------------------------------------------------------------
// Host record

std::string cpu_model() {
  std::istringstream in(read_text("/proc/cpuinfo"));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bin-dir") a.bin_dir = v;
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.bin_dir.empty() || a.out_dir.empty() || !(a.seconds > 0)) {
    throw std::runtime_error("--bin-dir, --out-dir and --seconds > 0 are required");
  }
  return a;
}

std::string absolute(const std::string& path) {
  char buf[PATH_MAX];
  if (::realpath(path.c_str(), buf) == nullptr) {
    throw std::runtime_error("no such directory: " + path);
  }
  return buf;
}

// ---------------------------------------------------------------------------
// One run

// A private (mode 0700) directory under `parent` that is the working
// directory while it lives; removed with everything in it on any exit.
// Declared before the daemon, so the daemon is gone by then.
class RuntimeDir {
 public:
  explicit RuntimeDir(const std::string& parent) : parent_(parent) {
    std::string path = parent + "/rt.XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = path;
    if (::chdir(path_.c_str()) != 0) throw std::runtime_error("cannot enter " + path_);
  }
  ~RuntimeDir() {
    if (::chdir(parent_.c_str()) != 0) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RuntimeDir(const RuntimeDir&) = delete;
  RuntimeDir& operator=(const RuntimeDir&) = delete;

 private:
  std::string parent_;
  std::string path_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  const std::unique_ptr<Inputs> inputs = make_inputs(args.workload, args.seed);
  if (inputs == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  const Workload& w = inputs->w;
  const std::string bin_dir = absolute(args.bin_dir);
  const std::string out_dir = absolute(args.out_dir);

  const Placement cpus = pin_cpus(w.daemon_cpus);

  // Private runtime directory for the sockets and the daemon log; every
  // path the daemons see is relative to it (socket paths stay short).
  const RuntimeDir rt(out_dir);

  std::string flags = w.router ? "buffyd_router" : "buffyd";
  for (const std::string& f : w.flags) flags += " " + f;
  const std::string host =
      "{\"workload\": " + json_str(w.name) + ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + num(args.seconds) + ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"cpu_model\": " + json_str(cpu_model()) +
      ", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd_backend\": " +
      json_str(state::backend_name(state::resolve_backend(state::SimdBackend::Auto))) +
      ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
      ", \"daemon\": " + json_str(flags) + ", \"connections\": " +
      std::to_string(kConnections) + ", \"client_cpus\": " + json_str(cpus.client_list) +
      ", \"daemon_cpus\": " + json_str(cpus.daemon_list) + "}";
  std::printf("host: %s\n", host.c_str());
  std::fflush(stdout);

  // Set-up, several times: spawn, ready, warm-up answered and verified.
  // The last daemon stays up for the timed window. buffyd-router connects
  // to a new worker only on its 20 ms supervisor tick, so a router set-up
  // lands anywhere within one tick of the workers' start; many set-ups
  // average that out. They stop at kMaxSetups, or once kSetupBudget
  // seconds went into them (the warm_repeat priming alone takes ~0.3 s).
  constexpr int kMinSetups = 7;
  constexpr int kMaxSetups = 25;
  constexpr double kSetupBudget = 2;
  constexpr double kWarmupSeconds = 2;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const auto setups_start = Clock::now();
  for (int r = 0; r < kMaxSetups; ++r) {
    if (r >= kMinSetups && seconds_between(setups_start, Clock::now()) > kSetupBudget) break;
    if (daemon) daemon->shutdown();
    daemon.reset();
    const i64 k = w.name == "warm_repeat" ? 0 : -1 - r;
    const std::string line = w.line(k);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(w, bin_dir, cpus.daemon);
    daemon->wait_ready(30);
    {
      auto c = Conn::connect(daemon->socket());
      c->send_line(line);
      verify(w, k, c->read_line(60));
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // An untimed warm-up of the same traffic first: a fresh daemon's first
  // requests run up to twice as slow (its heap is still growing), a cost
  // paid once per daemon, not per request.
  const Window warmup = run_window(w, *daemon, kWarmupSeconds, 1'000'000);
  for (const Sample& s : warmup.samples) {
    if (!s.error.empty()) throw std::runtime_error("warm-up request failed: " + s.error);
    verify(w, s.k, s.response);
  }

  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<JsonValue> before = daemon->statuses();
  const std::vector<pid_t> tree = daemon->tree();
  const std::pair<u64, u64> ticks0 = tree_cpu_ticks(tree);
  const Window win = run_window(w, *daemon, window_s, 0);
  const std::pair<u64, u64> ticks1 = tree_cpu_ticks(tree);
  const double rss_mb = tree_peak_rss_mb(tree);
  const std::vector<JsonValue> after = daemon->statuses();
  daemon->shutdown();
  daemon.reset();

  // Verify every response.
  std::vector<double> latency_ms, engine_ms, outside_ms, req_bytes, resp_bytes;
  std::map<std::string, std::vector<double>> counters;
  i64 failed = 0;
  std::string first_failure;
  for (const Sample& s : win.samples) {
    req_bytes.push_back(static_cast<double>(s.request_bytes));
    try {
      if (!s.error.empty()) throw std::runtime_error(s.error);
      const JsonValue result = verify(w, s.k, s.response);
      latency_ms.push_back(s.latency_ms);
      resp_bytes.push_back(static_cast<double>(s.response_bytes));
      for (const char* key : {"distributions_explored", "simulations_run", "cache_hits",
                              "dominance_skips", "lp_prunes", "lp_cuts",
                              "max_states_stored", "states_stored", "slices"}) {
        if (const JsonValue* v = result.find(key); v != nullptr && v->is_int()) {
          counters[key].push_back(static_cast<double>(v->as_int()));
        }
      }
      if (const JsonValue* sec = result.find("seconds"); sec != nullptr && sec->is_number()) {
        engine_ms.push_back(sec->as_double() * 1e3);
        outside_ms.push_back(s.latency_ms - sec->as_double() * 1e3);
      }
    } catch (const std::exception& e) {
      ++failed;
      if (first_failure.empty()) first_failure = "request " + std::to_string(s.k) + ": " + e.what();
    }
  }
  const i64 attempted = static_cast<i64>(win.samples.size());
  const i64 succeeded = attempted - failed;

  // Status deltas over the window, summed over the tree.
  const auto delta = [&](std::initializer_list<const char*> path, bool workers_only) {
    i64 d = 0;
    for (std::size_t i = workers_only && w.router ? 1 : 0; i < after.size(); ++i) {
      d += field(after[i], path) - field(before[i], path);
    }
    return static_cast<double>(d);
  };
  const double overloaded = delta({"responses", "overloaded"}, false);
  const double errors = delta({"responses", "error"}, false);
  const double restarts = w.router ? delta({"fleet", "restarts_total"}, false) : 0;
  const double redispatches = w.router ? delta({"fleet", "redispatches"}, false) : 0;
  std::vector<std::string> problems;
  if (failed > 0) problems.push_back(std::to_string(failed) + " failed requests (" + first_failure + ")");
  if (overloaded != 0) problems.push_back("service.overloaded != 0 in the window");
  if (errors != 0) problems.push_back("service.errors != 0 in the window");
  if (restarts != 0) problems.push_back("fleet.restarts != 0 in the window");
  if (redispatches != 0) problems.push_back("fleet.redispatches != 0 in the window");
  if (succeeded == 0) problems.push_back("no request completed");

  const double tick_s = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double cpu_s = static_cast<double>(ticks1.first - ticks0.first) * tick_s;
  const double sys_s = static_cast<double>(ticks1.second - ticks0.second) * tick_s;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", interquartile_mean(setup_s), "s"},
        {"req_mean_ms", mean(latency_ms), "ms"},
        {"req_p90_ms", percentile(latency_ms, 0.90), "ms"},
        {"req_per_s", static_cast<double>(succeeded) / win.wall_s, "1/s"},
        {"cpu_ms_per_req", cpu_s * 1e3 / static_cast<double>(std::max<i64>(succeeded, 1)), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // In-process replay, each request once traced and once untraced.
    const double budget = args.seconds / 2;
    // The event cap keeps a Chrome trace near 20 MB.
    constexpr std::uint64_t kMaxEvents = 150'000;
    trace::Collector collector;
    Replay traced(&collector);
    Replay plain(nullptr);
    run_replay(traced, plain, collector, *inputs, budget, kMaxEvents,
               median(counters["slices"]));
    for (const Replay* rp : {&traced, &plain}) {
      if (!rp->mismatch.empty()) problems.push_back(rp->mismatch);
    }
    const std::string trace_path = out_dir + "/" + w.name + ".trace.json";
    const std::vector<trace::Event> events = collector.merged();
    write_chrome_trace(trace_path, events, traced.spans);
    // Per-size scans of the exhaustive engine (fleet_scatter only).
    std::vector<double> slice_ms;
    for (const trace::Event& e : events) {
      if (e.kind == trace::EventKind::SizeEval) {
        slice_ms.push_back(static_cast<double>(e.dur_ns) / 1e6);
      }
    }

    const auto layer = [&](const char* name) { return median(traced.per_request[name]); };
    const auto med = [&](const char* key) { return median(counters[key]); };
    const bool explore = w.name != "whatif_probe";
    const double sims = med("simulations_run");  // probes carry no counters
    const double prunes = med("lp_prunes");
    // Candidates answered without a simulation, of all answered ones
    // (`distributions_explored` counts differently and can be smaller).
    const double answered = med("cache_hits") + med("dominance_skips");
    const double scatters = delta({"requests", "scatter"}, false);
    double imbalance = 0;
    if (w.name == "fleet_scatter") {
      double mx = 0, sum = 0;
      for (std::size_t i = 1; i < after.size(); ++i) {
        const double d = static_cast<double>(field(after[i], {"requests", "explore_slice"}) -
                                             field(before[i], {"requests", "explore_slice"}));
        mx = std::max(mx, d);
        sum += d;
      }
      imbalance = sum > 0 ? mx / (sum / static_cast<double>(after.size() - 1)) : 0;
    }
    const double explore_ms = layer("buffer.explore_ms");
    const double p50 = percentile(latency_ms, 0.50);
    i64 resident = 0;
    for (std::size_t i = w.router ? 1 : 0; i < after.size(); ++i) {
      resident += field(after[i], {"cache", "entries_resident"});
    }
    metrics = {
        {"io.parse_ms", layer("io.parse_ms"), "ms"},
        {"analysis.certificate_ms", layer("analysis.certificate_ms"), "ms"},
        {"analysis.max_throughput_ms", layer("analysis.max_throughput_ms"), "ms"},
        {"buffer.bounds_ms", layer("buffer.bounds_ms"), "ms"},
        {"buffer.explore_ms", explore_ms, "ms"},
        {"buffer.engine_ms", median(engine_ms), "ms"},
        {"buffer.distributions", med("distributions_explored"), "count"},
        {"buffer.cache_hits", med("cache_hits"), "count"},
        {"buffer.dominance_skips", med("dominance_skips"), "count"},
        {"buffer.cache_hit_ratio", answered / std::max(answered + sims, 1.0), "ratio"},
        {"buffer.slice_ms", median(slice_ms), "ms"},
        {"buffer.slices_per_request",
         scatters > 0 ? delta({"requests", "explore_slice"}, true) / scatters : 0, "count"},
        {"lp.prunes", prunes, "count"},
        {"lp.cuts", med("lp_cuts"), "count"},
        {"lp.prune_ratio", prunes > 0 ? prunes / (prunes + sims) : 0, "ratio"},
        {"state.simulations", sims, "count"},
        {"state.max_states", explore ? med("max_states_stored") : med("states_stored"), "count"},
        {"state.us_per_sim",
         median(traced.simulations) > 0 ? explore_ms * 1e3 / median(traced.simulations) : 0,
         "us"},
        {"state.compute_throughput_us", layer("state.compute_throughput_us") * 1e3, "us"},
        {"service.outside_engine_ms", median(outside_ms), "ms"},
        {"service.parse_request_us", layer("service.parse_request_us") * 1e3, "us"},
        {"service.encode_us", layer("service.encode_us") * 1e3, "us"},
        {"service.request_bytes", median(req_bytes), "B"},
        {"service.response_bytes", median(resp_bytes), "B"},
        {"service.cache_warm_hits", delta({"cache", "warm_hits"}, false), "count"},
        {"service.cache_entries_resident", static_cast<double>(resident), "count"},
        {"service.overloaded", overloaded, "count"},
        {"service.errors", errors, "count"},
        {"fleet.forwarded", w.router ? delta({"fleet", "forwarded"}, false) : 0, "count"},
        {"fleet.scatter", scatters, "count"},
        {"fleet.overhead_ms", w.name == "fleet_scatter" ? p50 - explore_ms : 0, "ms"},
        {"fleet.shard_imbalance", imbalance, "ratio"},
        {"fleet.restarts", restarts, "count"},
        {"fleet.redispatches", redispatches, "count"},
        {"exec.pool_util",
         cpu_s / (win.wall_s * std::min(kAnalysisThreads, cpus.daemon_cpus)), "ratio"},
        {"trace.overhead_pct",
         plain.total_ms > 0 ? (traced.total_ms / plain.total_ms - 1) * 100 : 0, "%"},
        {"trace.events", static_cast<double>(collector.event_count()), "count"},
        {"trace.replayed_requests", static_cast<double>(traced.requests), "count"},
    };
    std::fprintf(stderr, "perfbench: chrome trace written to %s\n", trace_path.c_str());
  }

  std::fprintf(stderr, "perfbench: %s seed %llu: sent %lld, succeeded %lld, failed %lld in %.3f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(attempted), static_cast<long long>(succeeded),
               static_cast<long long>(failed), win.wall_s);
  std::fprintf(stderr, "perfbench: daemon tree CPU %.2f s (system %.2f s) over %.2f s\n",
               cpu_s, sys_s, win.wall_s);
  std::string setups;
  for (const double v : setup_s) setups += " " + num(v);
  std::fprintf(stderr, "perfbench: set-ups (s):%s\n", setups.c_str());
  std::string deciles;
  for (int d = 1; d <= 10; ++d) deciles += " " + num(percentile(latency_ms, d / 10.0));
  std::fprintf(stderr, "perfbench: latency deciles (ms):%s\n", deciles.c_str());
  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: FAIL: %s\n", p.c_str());
  std::printf("requests: {\"sent\": %lld, \"succeeded\": %lld, \"failed\": %lld}\n",
              static_cast<long long>(attempted), static_cast<long long>(succeeded),
              static_cast<long long>(failed));

  std::string out = "{\"correct\": " + std::string(problems.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_str(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  out += "}}";

  // Keep the record of the run beside the trace.
  std::ofstream(out_dir + "/" + w.name + ".seed" + std::to_string(args.seed) +
                (args.trace ? ".trace1" : ".trace0") + ".result.json")
      << "{\"host\": " << host << ", \"result\": " << out << "}\n";

  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Orphaned workers of a dead router are re-parented here, so every
  // exit path can reap them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  ::signal(SIGPIPE, SIG_IGN);
  int rc = 1;
  try {
    rc = run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    rc = 1;
  }
  kill_and_reap_children();
  return rc;
}
