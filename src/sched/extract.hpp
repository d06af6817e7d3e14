// Extraction of the throughput-optimal schedule realised by a storage
// distribution (paper Sec. 7: "it is straightforward to ... construct the
// schedule that yields the computed throughput").
#pragma once

#include "base/rational.hpp"
#include "sched/schedule.hpp"
#include "sdf/graph.hpp"
#include "state/state.hpp"
#include "state/trace.hpp"

namespace buffy::state {
struct ThroughputResult;
}  // namespace buffy::state

namespace buffy::sched {

/// A schedule together with the throughput it realises.
struct ExtractedSchedule {
  Schedule schedule;
  /// Throughput of the target actor under this schedule (0 = deadlock; the
  /// schedule is then finite).
  Rational throughput;
  bool deadlocked = false;
};

/// Runs self-timed execution under the given capacities until the periodic
/// phase closes (or deadlock) and returns the schedule sigma. Every firing
/// of the transient phase plus one full period is recorded.
[[nodiscard]] ExtractedSchedule extract_schedule(const sdf::Graph& graph,
                                                 const state::Capacities& caps,
                                                 sdf::ActorId target,
                                                 u64 max_steps = 100'000'000);

/// The schedule of a run whose firing starts were recorded (through
/// ThroughputOptions::recorder): starts before the cycle are transient,
/// starts within one period from the cycle start are periodic, later ones
/// are dropped; a deadlocked run yields a finite schedule of all starts.
[[nodiscard]] ExtractedSchedule schedule_of_run(
    std::size_t num_actors, const state::FiringRecorder& recorder,
    const state::ThroughputResult& run);

}  // namespace buffy::sched
