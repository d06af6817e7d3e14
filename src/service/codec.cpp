#include "service/codec.hpp"

#include <algorithm>

#include "analysis/bounds.hpp"
#include "base/diagnostics.hpp"
#include "exec/cancellation.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"

namespace buffy::service {

namespace {

JsonValue u64_json(u64 v) { return JsonValue::integer(static_cast<i64>(v)); }

u64 result_u64(const JsonValue& result, const char* key) {
  const JsonValue* v = result.find(key);
  return v != nullptr && v->is_int() ? static_cast<u64>(v->as_int()) : 0;
}

bool result_flag(const JsonValue& result, const char* key) {
  const JsonValue* v = result.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

// Wire name back to the code; names this build does not know map to
// internal_error.
ErrorCode error_code_named(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::InternalError); ++c) {
    if (name == error_code_name(static_cast<ErrorCode>(c))) {
      return static_cast<ErrorCode>(c);
    }
  }
  return ErrorCode::InternalError;
}

// The exploration counters DseResult and SliceOutcome share.
template <class Counters>
void set_counters(JsonValue& res, const Counters& c) {
  res.set("distributions_explored", u64_json(c.distributions_explored));
  res.set("simulations_run", u64_json(c.simulations_run));
  res.set("cache_hits", u64_json(c.cache_hits));
  res.set("dominance_skips", u64_json(c.dominance_skips));
  res.set("lp_prunes", u64_json(c.lp_prunes));
  res.set("lp_cuts", u64_json(c.lp_cuts));
  res.set("static_narrow", JsonValue::boolean(c.static_narrow));
  res.set("max_states_stored", u64_json(c.max_states_stored));
}

JsonValue capacities_json(const buffer::StorageDistribution& d) {
  JsonValue caps = JsonValue::array();
  for (const i64 c : d.capacities()) caps.push_back(JsonValue::integer(c));
  return caps;
}

}  // namespace

RequestGraph decode_graph(const Request& req, bool admit) {
  GraphFormat format = req.format;
  if (format == GraphFormat::Auto) {
    format = GraphFormat::Dsl;
    for (const char c : req.graph_text) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
      if (c == '<') format = GraphFormat::Xml;
      break;
    }
  }
  RequestGraph out{format == GraphFormat::Xml ? io::read_sdf_xml(req.graph_text)
                                              : io::read_dsl(req.graph_text),
                   sdf::ActorId()};
  const sdf::Graph& graph = out.graph;
  if (graph.num_actors() == 0) {
    throw ProtocolError(ErrorCode::GraphInvalid, "the graph has no actors");
  }
  if (req.target.empty()) {
    out.target = sdf::ActorId(graph.num_actors() - 1);
  } else if (const std::optional<sdf::ActorId> id =
                 graph.find_actor(req.target)) {
    out.target = *id;
  } else {
    throw ProtocolError(ErrorCode::GraphInvalid,
                        "no actor named '" + req.target + "'");
  }
  if (admit) {
    const analysis::BoundsCertificate cert = analysis::derive_bounds(graph);
    if (cert.consistent && !cert.fits_i64) {
      throw ProtocolError(ErrorCode::MagnitudeOverflow,
                          "graph '" + graph.name() +
                              "' rejected at admission: " +
                              cert.overflow_detail);
    }
  }
  return out;
}

std::string current_error_response(std::optional<i64> id, bool cancelled) {
  try {
    throw;
  } catch (const exec::Cancelled&) {
    return cancelled
               ? error_response(id, ErrorCode::Cancelled,
                                "the request was cancelled")
               : error_response(id, ErrorCode::DeadlineExceeded,
                                "the deadline expired before the analysis "
                                "finished");
  } catch (const ProtocolError& e) {
    return error_response(id, e.code(), e.what());
  } catch (const ParseError& e) {
    return error_response(id, ErrorCode::GraphParseError, e.what());
  } catch (const InternalError& e) {
    return error_response(id, ErrorCode::InternalError, e.what());
  } catch (const Error& e) {
    // Remaining library preconditions are request-induced (capacities
    // below initial tokens, safety bounds exceeded): the graph/request
    // combination is invalid, the daemon is fine.
    return error_response(id, ErrorCode::GraphInvalid, e.what());
  } catch (const std::exception& e) {
    return error_response(id, ErrorCode::InternalError, e.what());
  } catch (...) {
    return error_response(id, ErrorCode::InternalError, "unknown exception");
  }
}

std::string cancel_response(std::optional<i64> id, bool cancelled) {
  JsonValue result = JsonValue::object();
  result.set("cancelled", JsonValue::boolean(cancelled));
  return ok_response(id, result);
}

buffer::DseOptions exploration_options(const Request& req,
                                       sdf::ActorId target,
                                       unsigned max_threads) {
  buffer::DseOptions opts;
  opts.target = target;
  opts.engine = req.engine == std::optional<std::string>("exh")
                    ? buffer::DseEngine::Exhaustive
                    : buffer::DseEngine::Incremental;
  opts.quantization_levels = req.levels;
  opts.max_distribution_size = req.max_size;
  opts.throughput_goal = req.goal;
  opts.min_throughput = req.min_throughput;
  // Requests that don't ask for threads get the full grant: the engines
  // spawn workers lazily and keep cheap slices sequential (adaptive
  // granularity), so the grant costs nothing on small explorations, and
  // the front is byte-identical at any thread count.
  opts.threads = req.threads.has_value()
                     ? static_cast<unsigned>(std::min<i64>(
                           *req.threads, static_cast<i64>(max_threads)))
                     : max_threads;
  opts.use_throughput_cache = req.use_cache;
  return opts;
}

JsonValue front_json(const std::string& target, const char* quality,
                     const buffer::DesignSpaceBounds& bounds,
                     const buffer::ParetoSet& pareto, bool downgraded) {
  JsonValue res = JsonValue::object();
  res.set("target", JsonValue::string(target));
  res.set("quality", JsonValue::string(quality));
  if (downgraded) res.set("downgraded", JsonValue::boolean(true));
  res.set("deadlock", JsonValue::boolean(bounds.deadlock));
  if (!bounds.deadlock) {
    JsonValue b = JsonValue::object();
    b.set("lb_size", JsonValue::integer(bounds.lb_size));
    b.set("ub_size", JsonValue::integer(bounds.ub_size));
    b.set("max_throughput", JsonValue::string(bounds.max_throughput.str()));
    res.set("bounds", b);
  }
  res.set("front", JsonValue::string(pareto.str()));
  JsonValue points = JsonValue::array();
  for (const buffer::ParetoPoint& p : pareto.points()) {
    JsonValue point = JsonValue::object();
    point.set("size", JsonValue::integer(p.size()));
    point.set("throughput", JsonValue::string(p.throughput.str()));
    point.set("capacities", capacities_json(p.distribution));
    points.push_back(point);
  }
  res.set("points", points);
  return res;
}

JsonValue explore_result_json(const std::string& target,
                              const buffer::DseResult& result,
                              bool cached_graph, bool downgraded) {
  JsonValue res = front_json(target, "exact", result.bounds, result.pareto,
                             downgraded);
  set_counters(res, result);
  res.set("seconds", JsonValue::number(result.seconds));
  res.set("cached_graph", JsonValue::boolean(cached_graph));
  return res;
}

JsonValue slice_outcome_json(const std::string& target, i64 size,
                             const buffer::SliceOutcome& outcome,
                             bool cached_graph) {
  JsonValue res = JsonValue::object();
  res.set("target", JsonValue::string(target));
  res.set("size", JsonValue::integer(size));
  res.set("throughput", JsonValue::string(outcome.throughput.str()));
  res.set("capacities", capacities_json(outcome.witness));
  set_counters(res, outcome);
  res.set("cached_graph", JsonValue::boolean(cached_graph));
  return res;
}

buffer::SliceOutcome parse_slice_response(const JsonValue& response,
                                          bool* cached_graph) {
  if (!result_flag(response, "ok")) {
    const JsonValue* err = response.find("error");
    const JsonValue* code = err != nullptr ? err->find("code") : nullptr;
    const JsonValue* message = err != nullptr ? err->find("message") : nullptr;
    if (code == nullptr || !code->is_string() || message == nullptr ||
        !message->is_string()) {
      throw ProtocolError(ErrorCode::InternalError,
                          "worker returned a malformed response");
    }
    throw ProtocolError(error_code_named(code->as_string()),
                        message->as_string());
  }
  const JsonValue* result = response.find("result");
  const JsonValue* tput = result != nullptr ? result->find("throughput")
                                            : nullptr;
  const JsonValue* caps = result != nullptr ? result->find("capacities")
                                            : nullptr;
  if (tput == nullptr || !tput->is_string() || caps == nullptr ||
      !caps->is_array()) {
    throw ProtocolError(ErrorCode::InternalError,
                        "worker returned a malformed slice result");
  }
  std::vector<i64> capacities;
  for (const JsonValue& c : caps->as_array()) {
    if (!c.is_int()) {
      throw ProtocolError(ErrorCode::InternalError,
                          "worker returned non-integer slice capacities");
    }
    capacities.push_back(c.as_int());
  }
  buffer::SliceOutcome out;
  out.throughput = parse_rational(tput->as_string());
  out.witness = buffer::StorageDistribution(std::move(capacities));
  out.distributions_explored = result_u64(*result, "distributions_explored");
  out.max_states_stored = result_u64(*result, "max_states_stored");
  out.simulations_run = result_u64(*result, "simulations_run");
  out.cache_hits = result_u64(*result, "cache_hits");
  out.dominance_skips = result_u64(*result, "dominance_skips");
  out.lp_prunes = result_u64(*result, "lp_prunes");
  out.lp_cuts = result_u64(*result, "lp_cuts");
  out.static_narrow = result_flag(*result, "static_narrow");
  *cached_graph = *cached_graph || result_flag(*result, "cached_graph");
  return out;
}

}  // namespace buffy::service
