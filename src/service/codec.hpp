// Request decoding and result encoding shared by buffyd and buffyd-router
// (DESIGN.md §10, §17): the graph payload reader, target resolution,
// magnitude admission, the exception-to-error mapping, the explore_pareto
// result encoder, and the explore_slice outcome encoder with its decoder
// beside it — so a scattered front reaches the client in exactly the bytes
// a single daemon would send.
#pragma once

#include <optional>
#include <string>

#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "sdf/graph.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace buffy::service {

/// A request's graph payload, decoded, with its target actor resolved.
struct RequestGraph {
  sdf::Graph graph;
  sdf::ActorId target;
};

/// Decodes the graph payload with the io/ readers (Auto sniffs: XML
/// starts with '<' after whitespace, everything else is the DSL; reader
/// diagnostics surface as ParseError) and resolves the target — the named
/// actor, or the last one when unnamed; ProtocolError(GraphInvalid)
/// otherwise. With `admit`, also runs magnitude admission (DESIGN.md §16):
/// a consistent graph whose static magnitude certificate leaves i64 is
/// rejected with ProtocolError(MagnitudeOverflow), since every engine
/// downstream would only reach an OverflowError mid-analysis.
/// Inconsistent graphs pass: the analyses diagnose them with richer
/// messages.
[[nodiscard]] RequestGraph decode_graph(const Request& req, bool admit);

/// The error response for the exception being handled; call only inside
/// a catch block. `cancelled` tells an explicit cancel or disconnect from
/// an expired deadline when the exception is exec::Cancelled.
[[nodiscard]] std::string current_error_response(std::optional<i64> id,
                                                 bool cancelled);

/// The answer to a `cancel` request: whether a request was found to cancel.
[[nodiscard]] std::string cancel_response(std::optional<i64> id,
                                          bool cancelled);

/// The exploration options an explore_pareto / explore_slice request asks
/// for, with `threads` clamped to `max_threads` (and defaulting to it).
[[nodiscard]] buffer::DseOptions exploration_options(const Request& req,
                                                     sdf::ActorId target,
                                                     unsigned max_threads);

/// The members every explore_pareto result starts with: target, quality,
/// deadlock, bounds (unless deadlocked), `front` — the exact text
/// explore_cli prints — and the structured `points`.
[[nodiscard]] JsonValue front_json(const std::string& target,
                                   const char* quality,
                                   const buffer::DesignSpaceBounds& bounds,
                                   const buffer::ParetoSet& pareto,
                                   bool downgraded = false);

/// The exact-tier explore_pareto result: front_json plus the exploration
/// counters, `seconds` and `cached_graph`.
[[nodiscard]] JsonValue explore_result_json(const std::string& target,
                                            const buffer::DseResult& result,
                                            bool cached_graph,
                                            bool downgraded = false);

/// The explore_slice result for one evaluated size.
[[nodiscard]] JsonValue slice_outcome_json(const std::string& target,
                                           i64 size,
                                           const buffer::SliceOutcome& outcome,
                                           bool cached_graph);

/// Inverse of slice_outcome_json, applied to a whole worker response: an
/// error response rethrows the worker's code and message as a
/// ProtocolError, a malformed one throws ProtocolError(InternalError).
/// ORs the result's `cached_graph` into `*cached_graph`.
[[nodiscard]] buffer::SliceOutcome parse_slice_response(
    const JsonValue& response, bool* cached_graph);

}  // namespace buffy::service
