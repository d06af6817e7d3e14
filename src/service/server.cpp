#include "service/server.hpp"

#include <algorithm>
#include <utility>

#include "analysis/max_throughput.hpp"
#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "buffer/fast_front.hpp"
#include "service/codec.hpp"
#include "state/throughput.hpp"

namespace buffy::service {

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<exec::ThreadPool>(
          options_.threads == 0 ? exec::ThreadPool::default_concurrency()
                                : options_.threads)),
      registry_(options_.cache_graphs, options_.cache_entries_per_graph),
      frontend_(FrontendOptions{.unix_socket_path = options_.unix_socket_path,
                                .tcp_port = options_.tcp_port,
                                .max_request_bytes = options_.max_request_bytes,
                                .queue_capacity = options_.queue_capacity,
                                .role = "daemon"},
                *this) {
  BUFFY_REQUIRE(options_.queue_capacity > 0,
                "ServerOptions::queue_capacity must be >= 1");
}

Server::~Server() {
  shutdown();
  wait();
}

void Server::start() { frontend_.start(); }

void Server::shutdown() { frontend_.shutdown(); }

void Server::wait() { frontend_.wait(); }

void Server::after_drain() { pool_->stop(); }

void Server::dispatch(Connection& conn, Request&& req, const std::string&) {
  jobs_queued_.fetch_add(1, std::memory_order_relaxed);
  // `parent` is the explicit-cancellation root: a `cancel` request or a
  // client disconnect fires it. Deadlines are layered on top inside
  // run_job, so run_job can tell the two apart afterwards.
  const exec::CancellationToken parent = exec::CancellationToken::cancellable();
  if (req.id.has_value()) {
    const std::lock_guard<std::mutex> lock(conn.inflight_mu);
    conn.inflight[*req.id] = Connection::Inflight{.token = parent};
  }
  pool_->submit([this, &conn, req = std::move(req), parent] {
    run_job(conn, req, parent);
  });
}

void Server::cancel(Connection& conn, const Request& req) {
  bool found = false;
  {
    const std::lock_guard<std::mutex> lock(conn.inflight_mu);
    const auto it = conn.inflight.find(*req.cancel_id);
    if (it != conn.inflight.end()) {
      it->second.token.cancel();
      found = true;
    }
  }
  frontend_.respond(conn, cancel_response(req.id, found), /*ok=*/true);
}

void Server::on_disconnect(Connection& conn) {
  // Workers stop burning time on results nobody can receive.
  const std::lock_guard<std::mutex> lock(conn.inflight_mu);
  for (const auto& [id, entry] : conn.inflight) entry.token.cancel();
}

void Server::run_job(Connection& conn, const Request& req,
                     const exec::CancellationToken& parent) {
  jobs_queued_.fetch_sub(1, std::memory_order_relaxed);
  jobs_running_.fetch_add(1, std::memory_order_relaxed);

  std::string response;
  bool ok = false;
  if (frontend_.draining()) {
    // Start gate: the job was queued before the drain began but never
    // started — the protocol's promise is shutting_down, not a result.
    frontend_.counters().shutting_down.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id, ErrorCode::ShuttingDown,
                              "the daemon began draining before this "
                              "request started");
  } else {
    exec::CancellationToken token = parent;
    if (req.deadline_ms.has_value() || options_.default_deadline_ms > 0) {
      token = parent.with_deadline(
          req.deadline_ms.value_or(options_.default_deadline_ms));
    }
    try {
      response = ok_response(
          req.id, req.method == Method::AnalyzeThroughput
                      ? handle_analyze(req, token)
                      : req.method == Method::ExploreSlice
                            ? handle_explore_slice(req, token)
                            : handle_explore(req, token));
      ok = true;
    } catch (...) {
      // The parent only ever fires on an explicit cancel / disconnect;
      // anything else on the chain is the deadline.
      response = current_error_response(req.id, parent.cancelled());
    }
  }
  frontend_.respond(conn, std::move(response), ok);

  if (req.id.has_value()) {
    const std::lock_guard<std::mutex> lock(conn.inflight_mu);
    conn.inflight.erase(*req.id);
  }
  jobs_running_.fetch_sub(1, std::memory_order_relaxed);
  frontend_.finish(conn);  // last touch of conn
}

JsonValue Server::handle_analyze(const Request& req,
                                 const exec::CancellationToken& token) {
  token.checkpoint();
  const auto [graph, target] = decode_graph(req, /*admit=*/true);
  token.checkpoint();

  JsonValue result = JsonValue::object();
  result.set("target", JsonValue::string(graph.actor(target).name));
  if (req.capacities.empty()) {
    // Maximal achievable throughput: the MCM route (HSDF expansion), the
    // reference the state-space engines are differentially tested against.
    const analysis::MaxThroughput mt = analysis::max_throughput(graph);
    result.set("deadlock", JsonValue::boolean(mt.deadlock));
    result.set("throughput",
               JsonValue::string(mt.actor_throughput(target).str()));
    if (!mt.deadlock) {
      result.set("iteration_period",
                 JsonValue::string(mt.iteration_period.str()));
    }
  } else {
    if (req.capacities.size() != graph.num_channels()) {
      throw ProtocolError(
          ErrorCode::GraphInvalid,
          "'capacities' has " + std::to_string(req.capacities.size()) +
              " entries but the graph has " +
              std::to_string(graph.num_channels()) + " channels");
    }
    state::ThroughputOptions opts;
    opts.target = target;
    opts.cancel = token;
    opts.progress = &progress_;
    const state::ThroughputResult run = state::compute_throughput(
        graph, state::Capacities::bounded(req.capacities), opts);
    result.set("deadlock", JsonValue::boolean(run.deadlocked));
    result.set("throughput", JsonValue::string(run.throughput.str()));
    result.set("states_stored",
               JsonValue::integer(static_cast<i64>(run.states_stored)));
    result.set("period", JsonValue::integer(run.period));
  }
  return result;
}

JsonValue Server::handle_explore(const Request& req,
                                 const exec::CancellationToken& token) {
  token.checkpoint();
  const auto [graph, target] = decode_graph(req, /*admit=*/true);
  const std::string& target_name = graph.actor(target).name;

  // quality=fast: the LP-only front (buffer/fast_front) — sound but
  // approximate, answered without per-candidate simulation, and without
  // touching the warm cache registry (fast answers must never displace or
  // seed exact warm state; a later quality=exact query builds it).
  //
  // The fast tier rides on the LP models, whose exact rational arithmetic
  // the simplex pre-sizes from the stamped coefficient bound (DESIGN.md
  // §16): a graph whose coefficients exceed the safe pivot envelope gets
  // numeric_overflow back per solve instead of a grid point. When *every*
  // grid solve overflows, the fast front has degenerated to the bare
  // max-throughput anchor — sound but useless — so the request is
  // downgraded to the exact (simulation) engine, which only needs the i64
  // envelopes admission already verified, and the response is marked.
  // The daemon judges the outcome rather than the certificate's
  // lp_coeff_bound: the envelope covers every LP the budget box could
  // build and routinely exceeds the stamped bound of the problems the
  // grid actually solves (h263 clears the pivot gate by 300x under it).
  bool downgraded = false;
  if (req.quality == std::optional<std::string>("fast")) {
    token.checkpoint();
    const buffer::FastFrontResult fast = buffer::fast_front(
        graph, target, req.levels.value_or(8));
    token.checkpoint();
    downgraded = fast.lp_solves > 0 && fast.lp_overflows == fast.lp_solves;
    if (!downgraded) {
      JsonValue res = front_json(target_name, "fast", fast.bounds, fast.pareto);
      res.set("lp_solves",
              JsonValue::integer(static_cast<i64>(fast.lp_solves)));
      res.set("lp_pivots",
              JsonValue::integer(static_cast<i64>(fast.lp_pivots)));
      res.set("lp_cuts", JsonValue::integer(static_cast<i64>(fast.lp_cuts)));
      res.set("seconds", JsonValue::number(fast.seconds));
      return res;
    }
  }

  buffer::DseOptions opts = exploration_options(
      req, target, std::max(1u, options_.max_threads_per_request));
  opts.cancel = token;
  opts.progress = &progress_;

  // The warm-state machinery: repeated queries on the same (graph, target)
  // share one ThroughputCache through the registry. Soundness rests on
  // throughput being a pure function of (graph, target, capacities) — see
  // cache_registry.hpp — and the front is byte-identical warm or cold.
  CacheRegistry::Lease lease;  // keeps an evicted cache alive while used
  if (req.use_cache) {
    token.checkpoint();
    const analysis::MaxThroughput mt = analysis::max_throughput(graph);
    if (!mt.deadlock) {
      lease = registry_.get_or_create(graph_fingerprint(graph, target_name),
                                      mt.actor_throughput(target));
      opts.shared_cache = lease.cache.get();
    }
  }

  const buffer::DseResult result = buffer::explore(graph, opts);
  if (result.cancelled) {
    // The engines return a verified partial front on a deadline; the
    // protocol's contract is an error code, so the partial result is
    // dropped and the cause reported (run_job picks the code).
    throw exec::Cancelled();
  }
  return explore_result_json(target_name, result, lease.warm, downgraded);
}

JsonValue Server::handle_explore_slice(const Request& req,
                                       const exec::CancellationToken& token) {
  token.checkpoint();
  const auto [graph, target] = decode_graph(req, /*admit=*/true);
  token.checkpoint();

  buffer::DseOptions opts = exploration_options(
      req, target, std::max(1u, options_.max_threads_per_request));
  opts.engine = buffer::DseEngine::Exhaustive;
  opts.cancel = token;
  opts.progress = &progress_;

  std::optional<state::ThroughputSolver> setup_solver;
  if (opts.reuse_engines) setup_solver.emplace(graph);
  const buffer::DesignSpaceBounds bounds = buffer::design_space_bounds(
      graph, target, opts.max_steps_per_run,
      setup_solver.has_value() ? &*setup_solver : nullptr);
  if (bounds.deadlock) {
    throw ProtocolError(ErrorCode::GraphInvalid,
                        "the graph deadlocks for every storage "
                        "distribution; there is no slice to evaluate");
  }
  // buffer::explore_scattered applies this exact preprocessing before
  // planning the d&c, so both sides evaluate the slice under identical
  // engine-effective options — the byte-identity contract of the
  // scattered front.
  buffer::apply_quantization_levels(opts, bounds);

  // Fingerprint-affine warm state: the router routes every slice of a
  // graph to its home shard, so repeated waves hit this lease warm.
  const std::string& target_name = graph.actor(target).name;
  CacheRegistry::Lease lease;
  if (req.use_cache) {
    token.checkpoint();
    lease = registry_.get_or_create(graph_fingerprint(graph, target_name),
                                    bounds.max_throughput);
    opts.shared_cache = lease.cache.get();
  }

  buffer::SliceRequest slice;
  slice.size = *req.slice_size;
  if (!req.slice_seed.empty()) slice.seed = req.slice_seed;
  slice.slice_goal = *req.slice_goal;
  return slice_outcome_json(
      target_name, slice.size,
      buffer::explore_size_slice(graph, opts, bounds, slice), lease.warm);
}

ServerStatus Server::status() const {
  const FrontendCounters& c = frontend_.counters();
  const auto get = [](const std::atomic<u64>& v) {
    return v.load(std::memory_order_relaxed);
  };
  ServerStatus s;
  s.draining = frontend_.draining();
  s.uptime_seconds = frontend_.uptime_seconds();
  s.requests_total = get(c.requests);
  s.analyze_requests = get(c.analyze);
  s.explore_requests = get(c.explore);
  s.slice_requests = get(c.slice);
  s.status_requests = get(c.status);
  s.cancel_requests = get(c.cancel);
  s.shutdown_requests = get(c.shutdown);
  s.responses_ok = get(c.ok);
  s.responses_error = get(c.error);
  s.overloaded = get(c.overloaded);
  s.shutting_down_rejections = get(c.shutting_down);
  s.jobs_queued = get(jobs_queued_);
  s.jobs_running = get(jobs_running_);
  s.queue_capacity = options_.queue_capacity;
  s.connections_accepted = get(c.connections_accepted);
  s.connections_open = get(c.connections_open);
  s.cache_graphs_resident = registry_.resident();
  s.cache_graph_capacity = registry_.max_graphs();
  s.cache_warm_hits = registry_.warm_hits();
  s.cache_graph_evictions = registry_.evictions();
  s.cache_totals = registry_.totals();
  s.progress = progress_.snapshot();
  return s;
}

JsonValue Server::status_json() const { return status().json(); }

JsonValue ServerStatus::json() const {
  const auto u = [](u64 v) { return JsonValue::integer(static_cast<i64>(v)); };
  JsonValue o = JsonValue::object();
  o.set("draining", JsonValue::boolean(draining));
  o.set("uptime_seconds", JsonValue::number(uptime_seconds));

  JsonValue requests = JsonValue::object();
  requests.set("total", u(requests_total));
  requests.set("analyze_throughput", u(analyze_requests));
  requests.set("explore_pareto", u(explore_requests));
  requests.set("explore_slice", u(slice_requests));
  requests.set("status", u(status_requests));
  requests.set("cancel", u(cancel_requests));
  requests.set("shutdown", u(shutdown_requests));
  o.set("requests", requests);

  JsonValue responses = JsonValue::object();
  responses.set("ok", u(responses_ok));
  responses.set("error", u(responses_error));
  responses.set("overloaded", u(overloaded));
  responses.set("shutting_down", u(shutting_down_rejections));
  o.set("responses", responses);

  JsonValue jobs = JsonValue::object();
  jobs.set("queued", u(jobs_queued));
  jobs.set("running", u(jobs_running));
  jobs.set("capacity", u(queue_capacity));
  o.set("jobs", jobs);

  JsonValue connections = JsonValue::object();
  connections.set("accepted", u(connections_accepted));
  connections.set("open", u(connections_open));
  o.set("connections", connections);

  JsonValue cache = JsonValue::object();
  cache.set("graphs_resident", u(cache_graphs_resident));
  cache.set("graph_capacity", u(cache_graph_capacity));
  cache.set("warm_hits", u(cache_warm_hits));
  cache.set("graph_evictions", u(cache_graph_evictions));
  cache.set("exact_hits", u(cache_totals.exact_hits));
  cache.set("dominance_hits", u(cache_totals.dominance_hits));
  cache.set("entries_stored", u(cache_totals.entries_stored));
  cache.set("entries_resident", u(cache_totals.entries_resident));
  cache.set("entries_evicted", u(cache_totals.entries_evicted));
  o.set("cache", cache);

  o.set("progress", JsonValue::parse(progress.json()));
  return o;
}

}  // namespace buffy::service
