// Consistency and repetition vectors for CSDF graphs.
//
// The balance equations operate on whole phase cycles: with r(a) complete
// cycles of actor a per iteration, every channel must satisfy
// total_production * r(src) == total_consumption * r(dst). The firing-level
// repetition vector is then q(a) = r(a) * phases(a).
#pragma once

#include <vector>

#include "sdf/csdf_graph.hpp"

namespace buffy::csdf {

/// Repetition counts of a consistent CSDF graph.
struct RepetitionVector {
  /// Complete phase cycles per iteration, per actor.
  std::vector<i64> cycles;
  /// Firings per iteration, per actor (cycles * phases).
  std::vector<i64> firings;

  [[nodiscard]] i64 cycles_of(ActorId a) const { return cycles[a.index()]; }
  [[nodiscard]] i64 firings_of(ActorId a) const { return firings[a.index()]; }
};

/// Computes the repetition vector; throws ConsistencyError when none exists.
[[nodiscard]] RepetitionVector repetition_vector(const Graph& graph);

/// True when a repetition vector exists.
[[nodiscard]] bool is_consistent(const Graph& graph);

}  // namespace buffy::csdf
