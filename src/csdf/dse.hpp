// Storage/throughput design-space exploration for CSDF graphs.
//
// The incremental strategy of the SDF case carries over unchanged: start
// from per-channel capacity floors, bump only the channels whose lack of
// space delays a firing, pop candidates in size order, and record every
// throughput improvement as a Pareto point. The maximal throughput is
// established by growing all capacities geometrically until the state-space
// throughput stops improving (CSDF lacks the simple HSDF/MCM route used for
// SDF).
#pragma once

#include <optional>

#include "base/rational.hpp"
#include "buffer/pareto.hpp"
#include "sdf/csdf_graph.hpp"

namespace buffy::csdf {

/// Options for a CSDF design-space exploration.
struct DseOptions {
  ActorId target;
  std::optional<Rational> quantization;
  std::optional<i64> max_distribution_size;
  u64 max_distributions = 1'000'000;
  u64 max_steps_per_run = 100'000'000;
};

/// Result of a CSDF design-space exploration.
struct DseResult {
  buffer::ParetoSet pareto;
  /// Maximal throughput of the target actor over all finite distributions.
  Rational max_throughput;
  /// Per-channel capacity floors the search started from.
  buffer::StorageDistribution floors;
  /// True when the graph deadlocks under every distribution.
  bool deadlock = false;
  u64 distributions_explored = 0;
  u64 max_states_stored = 0;
};

/// Necessary capacity floor of a channel: it must hold the initial tokens
/// and admit the largest single-phase production claim.
[[nodiscard]] i64 channel_floor(const Channel& channel);

/// Explores the design space. Throws ConsistencyError when inconsistent.
[[nodiscard]] DseResult explore(const Graph& graph, const DseOptions& options);

}  // namespace buffy::csdf
