#include "sched/extract.hpp"

#include "state/throughput.hpp"

namespace buffy::sched {

ExtractedSchedule extract_schedule(const sdf::Graph& graph,
                                   const state::Capacities& caps,
                                   sdf::ActorId target, u64 max_steps) {
  state::FiringRecorder recorder;
  const auto run = state::compute_throughput(
      graph, caps,
      state::ThroughputOptions{
          .target = target, .max_steps = max_steps, .recorder = &recorder});
  return schedule_of_run(graph.num_actors(), recorder, run);
}

ExtractedSchedule schedule_of_run(std::size_t num_actors,
                                  const state::FiringRecorder& recorder,
                                  const state::ThroughputResult& run) {
  std::vector<Schedule::ActorStarts> starts(num_actors);
  const i64 cycle_start = run.deadlocked ? 0 : run.cycle_start_time;
  const i64 cycle_end = cycle_start + run.period;
  for (const state::Firing& f : recorder.firings()) {
    Schedule::ActorStarts& a = starts[f.actor.index()];
    if (run.deadlocked || f.start < cycle_start) {
      a.transient.push_back(f.start);
    } else if (f.start < cycle_end) {
      a.periodic.push_back(f.start);
    }
    // Firings recorded past cycle_end (the run stops at the completion that
    // closes the cycle, which can lie after later starts) are duplicates of
    // periodic behaviour and are dropped.
  }
  return ExtractedSchedule{
      .schedule = Schedule(std::move(starts), cycle_start,
                           run.deadlocked ? 0 : run.period),
      .throughput = run.throughput,
      .deadlocked = run.deadlocked,
  };
}

}  // namespace buffy::sched
