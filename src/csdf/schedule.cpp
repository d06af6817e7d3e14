#include "csdf/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "base/diagnostics.hpp"
#include "base/string_util.hpp"
#include "state/throughput.hpp"

namespace buffy::csdf {

ExtractedSchedule extract_schedule(const Graph& graph,
                                   const state::Capacities& capacities,
                                   ActorId target, u64 max_steps) {
  state::FiringRecorder recorder;
  const auto run = state::compute_throughput(
      graph, capacities,
      state::ThroughputOptions{
          .target = target, .max_steps = max_steps, .recorder = &recorder});
  return sched::schedule_of_run(graph.num_actors(), recorder, run);
}

std::string render_gantt(const Graph& graph, const sched::Schedule& schedule,
                         i64 until) {
  BUFFY_REQUIRE(until >= 0, "negative rendering horizon");
  std::size_t width = 0;
  for (const ActorId a : graph.actor_ids()) {
    width = std::max(width, graph.actor(a).name.size());
  }
  width += 2;

  std::ostringstream os;
  std::string header(width, ' ');
  for (i64 t = 0; t < until; ++t) {
    if (!schedule.finite() && t == schedule.cycle_start()) {
      header += '|';
    } else {
      header += (t % 10 == 0) ? ('0' + static_cast<char>((t / 10) % 10)) : ' ';
    }
  }
  os << header << '\n';

  for (const ActorId a : graph.actor_ids()) {
    const Actor& actor = graph.actor(a);
    std::string row(static_cast<std::size_t>(until), '.');
    const char initial = actor.name.empty() ? '?' : actor.name[0];
    const std::size_t phases = actor.num_phases();
    for (i64 i = 0;; ++i) {
      i64 start = 0;
      try {
        start = schedule.start_time(a, i);
      } catch (const Error&) {
        break;
      }
      if (start >= until) break;
      // The i-th firing runs phase i mod P.
      const i64 exec = actor.execution_times[static_cast<std::size_t>(i) %
                                             phases];
      for (i64 t = start; t < std::min(start + exec, until); ++t) {
        row[static_cast<std::size_t>(t)] = (t == start) ? initial : '*';
      }
    }
    os << pad_right(actor.name, width) << row << '\n';
  }
  return os.str();
}

}  // namespace buffy::csdf
