#include "csdf/dse.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "csdf/analysis.hpp"
#include "state/throughput.hpp"

namespace buffy::csdf {

namespace {

// Self-loops keep their consumed tokens while firing, like in the SDF case.
i64 self_loop_extra(const Channel& ch) {
  return ch.is_self_loop() ? ch.max_production() : 0;
}

// One simulation per candidate: the storage dependencies (the union over
// the periodic phase, or over the whole run on deadlock) are collected by
// the same run that measures the throughput.
state::ThroughputResult run(state::ThroughputSolver& solver,
                            const std::vector<i64>& caps, ActorId target,
                            u64 max_steps) {
  return solver.compute(state::Capacities::bounded(caps),
                        state::ThroughputOptions{
                            .target = target,
                            .max_steps = max_steps,
                            .collect_storage_deps = true,
                        });
}

// Maximal throughput over all finite distributions: grow every capacity
// geometrically from the floors until the throughput stops improving twice
// in a row (monotonicity makes a plateau final once the execution no longer
// ever blocks on space).
struct MaxTputOutcome {
  bool deadlock = false;
  Rational value;
};

MaxTputOutcome maximal_throughput(state::ThroughputSolver& solver,
                                  const std::vector<i64>& floors,
                                  ActorId target, u64 max_steps) {
  std::vector<i64> caps = floors;
  for (i64& c : caps) c = std::max(checked_mul(c, 2), checked_add(c, 4));
  MaxTputOutcome out;
  int plateau = 0;
  for (int round = 0; round < 24; ++round) {
    const auto r = run(solver, caps, target, max_steps);
    if (r.deadlocked && r.storage_deps.empty()) {
      // Stuck with no firing waiting for space: the deadlock is structural
      // and no finite (or infinite) buffering can resolve it.
      out.deadlock = true;
      return out;
    }
    if (!r.deadlocked && r.storage_deps.empty()) {
      // No firing is ever delayed by space: larger buffers change nothing.
      out.value = r.throughput;
      return out;
    }
    if (!r.deadlocked) {
      // Sources that outpace their consumers stay space-blocked at every
      // finite capacity, so the dependency test above never fires; detect
      // convergence through the (monotone) throughput plateauing instead.
      if (r.throughput == out.value) {
        if (++plateau >= 2) return out;
      } else {
        out.value = r.throughput;
        plateau = 0;
      }
    }
    for (i64& c : caps) c = checked_mul(c, 2);
  }
  throw Error("CSDF maximal-throughput search did not stabilise");
}

}  // namespace

i64 channel_floor(const Channel& channel) {
  return std::max(checked_add(channel.initial_tokens, self_loop_extra(channel)),
                  channel.max_production());
}

DseResult explore(const Graph& graph, const DseOptions& options) {
  BUFFY_REQUIRE(options.target.valid() &&
                    options.target.index() < graph.num_actors(),
                "DSE target actor is not part of the graph");
  validate(graph);
  (void)repetition_vector(graph);  // throws when inconsistent

  DseResult result;
  std::vector<i64> floors;
  for (const ChannelId c : graph.channel_ids()) {
    floors.push_back(channel_floor(graph.channel(c)));
  }
  result.floors = buffer::StorageDistribution(floors);

  // One solver (engine + visited arena) serves every run of the search.
  state::ThroughputSolver solver(graph);

  // Establish the maximal throughput; a deadlock that survives arbitrarily
  // large buffers is structural.
  const MaxTputOutcome max = maximal_throughput(
      solver, floors, options.target, options.max_steps_per_run);
  if (max.deadlock) {
    result.deadlock = true;
    return result;
  }
  result.max_throughput = max.value;

  std::set<std::pair<i64, std::vector<i64>>> frontier;
  std::unordered_set<buffer::StorageDistribution,
                     buffer::StorageDistributionHash>
      visited;
  const buffer::StorageDistribution start(floors);
  if (!options.max_distribution_size.has_value() ||
      start.size() <= *options.max_distribution_size) {
    frontier.emplace(start.size(), start.capacities());
    visited.insert(start);
  }

  Rational best_seen(0);
  while (!frontier.empty()) {
    const auto [size, caps] = *frontier.begin();
    frontier.erase(frontier.begin());
    if (++result.distributions_explored > options.max_distributions) {
      throw Error("CSDF DSE exceeded max_distributions");
    }
    const auto r =
        run(solver, caps, options.target, options.max_steps_per_run);
    result.max_states_stored =
        std::max(result.max_states_stored, r.states_stored);
    const Rational quantized =
        buffer::quantize_down(r.throughput, options.quantization);
    if (quantized > best_seen) {
      result.pareto.add(
          buffer::ParetoPoint{buffer::StorageDistribution(caps), quantized});
      best_seen = quantized;
    }
    if (!r.throughput.is_zero() && r.throughput >= result.max_throughput) {
      break;  // size-ordered pop: the front is complete
    }
    // An empty set means larger buffers change nothing: branch exhausted.
    for (const ChannelId c : r.storage_deps) {
      buffer::StorageDistribution child =
          buffer::StorageDistribution(caps).with(c.index(),
                                                 caps[c.index()] + 1);
      if (options.max_distribution_size.has_value() &&
          child.size() > *options.max_distribution_size) {
        continue;
      }
      if (visited.insert(child).second) {
        frontier.emplace(child.size(), child.capacities());
      }
    }
  }
  return result;
}

}  // namespace buffy::csdf
