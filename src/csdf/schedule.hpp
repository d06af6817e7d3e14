// Schedule extraction and rendering for CSDF graphs.
//
// The extracted object is the same sched::ExtractedSchedule used for SDF
// (actor ids plus start times with a transient/periodic split); only the
// rendering differs, because a CSDF firing's duration depends on its phase.
#pragma once

#include <string>

#include "sched/extract.hpp"
#include "sched/schedule.hpp"
#include "sdf/csdf_graph.hpp"
#include "state/state.hpp"

namespace buffy::csdf {

using ExtractedSchedule = sched::ExtractedSchedule;

/// Runs self-timed execution under the capacities until the periodic phase
/// closes (or deadlock) and returns sigma.
[[nodiscard]] ExtractedSchedule extract_schedule(
    const Graph& graph, const state::Capacities& capacities, ActorId target,
    u64 max_steps = 100'000'000);

/// Gantt chart with per-phase firing durations; the digit after each firing
/// start marks the phase ('a' then '*' continuations as in the SDF
/// renderer).
[[nodiscard]] std::string render_gantt(const Graph& graph,
                                       const sched::Schedule& schedule,
                                       i64 until);

}  // namespace buffy::csdf
