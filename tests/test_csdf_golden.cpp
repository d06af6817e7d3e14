// Pinned CSDF behaviour: DSE fronts, throughput results and extracted
// schedules of a fixed set of multi-phase graphs, dumped as text and
// compared byte for byte against tests/golden/csdf/<name>.txt. The SDF
// differential (CsdfSdfEquivalence) cannot see multi-phase semantics, so
// these files are the oracle for phase tables, zero-rate phases and the
// phase words of the reduced state.
//
// On a mismatch the actual dump is written to the gtest temp directory
// and its path printed, so a deliberate behaviour change can be reviewed
// with diff before the golden is replaced.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "csdf/dse.hpp"
#include "csdf/schedule.hpp"
#include "models/models.hpp"
#include "state/throughput.hpp"

// The CSDF throughput entry point: csdf::compute_throughput while CSDF
// had its own executor, the csdf::Graph overload of
// state::compute_throughput once it runs on state::Engine. The dump below
// only reads fields both result types share.
#if __has_include("csdf/throughput.hpp")
#include "csdf/throughput.hpp"
#define BUFFY_CSDF_THROUGHPUT(g, caps, target) \
  ::buffy::csdf::compute_throughput(g, caps, target)
#else
#define BUFFY_CSDF_THROUGHPUT(g, caps, target) \
  ::buffy::state::compute_throughput(          \
      g, caps, ::buffy::state::ThroughputOptions{.target = target})
#endif

namespace buffy::csdf {
namespace {

// A alternates between feeding b (phase 0) and c (phase 1).
Graph distributor() {
  Graph g("distributor");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 2}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {2}});
  const auto c = g.add_actor(Actor{.name = "c", .execution_times = {3}});
  g.add_channel(Channel{.name = "ab", .src = a, .dst = b,
                        .production = {1, 0}, .consumption = {1}});
  g.add_channel(Channel{.name = "ac", .src = a, .dst = c,
                        .production = {0, 1}, .consumption = {1}});
  return g;
}

// examples/graphs/distcol.csdf.sdf: a distributor/collector pair around a
// slow and a fast worker.
Graph distcol() {
  Graph g("distcol");
  const auto src =
      g.add_actor(Actor{.name = "src", .execution_times = {1, 1}});
  const auto slow = g.add_actor(Actor{.name = "slow", .execution_times = {5}});
  const auto fast = g.add_actor(Actor{.name = "fast", .execution_times = {2}});
  const auto col =
      g.add_actor(Actor{.name = "col", .execution_times = {1, 1}});
  g.add_channel(Channel{.name = "s_slow", .src = src, .dst = slow,
                        .production = {1, 0}, .consumption = {1}});
  g.add_channel(Channel{.name = "s_fast", .src = src, .dst = fast,
                        .production = {0, 1}, .consumption = {1}});
  g.add_channel(Channel{.name = "slow_c", .src = slow, .dst = col,
                        .production = {1}, .consumption = {1, 0}});
  g.add_channel(Channel{.name = "fast_c", .src = fast, .dst = col,
                        .production = {1}, .consumption = {0, 1}});
  return g;
}

// bench_csdf_extension's per-phase refinement of a bulk producer.
Graph perphase() {
  Graph g("perphase");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {2}});
  const auto c = g.add_actor(Actor{.name = "c", .execution_times = {2}});
  g.add_channel(Channel{.name = "alpha", .src = a, .dst = b,
                        .production = {1, 1}, .consumption = {3}});
  g.add_channel(Channel{.name = "beta", .src = b, .dst = c,
                        .production = {1}, .consumption = {2}});
  return g;
}

// bench_csdf_extension's odd/even distributor.
Graph oddeven() {
  Graph g("oddeven");
  const auto src =
      g.add_actor(Actor{.name = "src", .execution_times = {1, 1}});
  const auto odd = g.add_actor(Actor{.name = "odd", .execution_times = {3}});
  const auto even = g.add_actor(Actor{.name = "even", .execution_times = {2}});
  const auto col =
      g.add_actor(Actor{.name = "col", .execution_times = {1, 1}});
  g.add_channel(Channel{.name = "s_o", .src = src, .dst = odd,
                        .production = {1, 0}, .consumption = {1}});
  g.add_channel(Channel{.name = "s_e", .src = src, .dst = even,
                        .production = {0, 1}, .consumption = {1}});
  g.add_channel(Channel{.name = "o_c", .src = odd, .dst = col,
                        .production = {1}, .consumption = {1, 0}});
  g.add_channel(Channel{.name = "e_c", .src = even, .dst = col,
                        .production = {1}, .consumption = {0, 1}});
  return g;
}

// Phases with zero rates on both sides of a channel, plus a three-phase
// actor with unequal execution times and a self-loop carrying state.
Graph zero_rate() {
  Graph g("zerorate");
  const auto a =
      g.add_actor(Actor{.name = "a", .execution_times = {1, 3, 2}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {2, 1}});
  const auto c = g.add_actor(Actor{.name = "c", .execution_times = {4}});
  g.add_channel(Channel{.name = "ab", .src = a, .dst = b,
                        .production = {2, 0, 1}, .consumption = {0, 3}});
  g.add_channel(Channel{.name = "bc", .src = b, .dst = c,
                        .production = {1, 0}, .consumption = {1}});
  g.add_channel(Channel{.name = "aa", .src = a, .dst = a,
                        .production = {1, 1, 1}, .consumption = {1, 1, 1},
                        .initial_tokens = 1});
  g.add_channel(Channel{.name = "ca", .src = c, .dst = a,
                        .production = {3}, .consumption = {1, 0, 2},
                        .initial_tokens = 3});
  return g;
}

// A two-phase ring that stalls after a few firings: a's phase 1 waits
// for a token from b, whose phase 0 waits for two tokens from a. Every
// distribution deadlocks, so the DSE reports a structural deadlock.
Graph deadlocking() {
  Graph g("deadring");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 2}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1, 1}});
  g.add_channel(Channel{.name = "ab", .src = a, .dst = b,
                        .production = {1, 0}, .consumption = {2, 0}});
  g.add_channel(Channel{.name = "ba", .src = b, .dst = a,
                        .production = {1, 1}, .consumption = {0, 1}});
  return g;
}

// Two phases that differ in nothing the other words of the reduced state
// show: at every completion of t, a has the same clock and the channel
// the same tokens, and only a's phase tells the states apart. Without the
// phase words the cycle would close after one firing of t, not two.
Graph phase_only() {
  Graph g("phaseonly");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {2, 2}});
  const auto t = g.add_actor(Actor{.name = "t", .execution_times = {1}});
  g.add_channel(Channel{.name = "at", .src = a, .dst = t,
                        .production = {1, 1}, .consumption = {1}});
  return g;
}

struct Case {
  std::string name;
  std::function<Graph()> make;
};

std::vector<Case> cases() {
  return {
      {"distributor", distributor},
      {"distcol", distcol},
      {"perphase", perphase},
      {"oddeven", oddeven},
      {"zerorate", zero_rate},
      {"deadring", deadlocking},
      {"phaseonly", phase_only},
      {"samplerate", [] { return from_sdf(models::samplerate_converter()); }},
      {"modem", [] { return from_sdf(models::modem()); }},
  };
}

std::string join(const std::vector<i64>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(v[i]);
  }
  return out;
}

template <typename Result>
void dump_throughput(std::ostream& os, const std::string& label,
                     const Result& r) {
  os << "throughput " << label << ": deadlocked=" << r.deadlocked
     << " throughput=" << r.throughput.str()
     << " states_stored=" << r.states_stored
     << " cycle_start_time=" << r.cycle_start_time << " period=" << r.period
     << " firings_on_cycle=" << r.firings_on_cycle
     << " time_steps=" << r.time_steps << "\n";
}

void dump_schedule(std::ostream& os, const Graph& g, const std::string& label,
                   const std::vector<i64>& caps, ActorId target) {
  const ExtractedSchedule ex =
      extract_schedule(g, state::Capacities::bounded(caps), target);
  const sched::Schedule& s = ex.schedule;
  os << "schedule " << label << ": deadlocked=" << ex.deadlocked
     << " throughput=" << ex.throughput.str()
     << " cycle_start=" << s.cycle_start() << " period=" << s.period()
     << "\n";
  for (const ActorId a : g.actor_ids()) {
    os << "  " << g.actor(a).name << " transient [" << join(s.of(a).transient)
       << "] periodic [" << join(s.of(a).periodic) << "]\n";
  }
  const i64 horizon =
      std::min<i64>(s.finite() ? 40 : s.cycle_start() + 2 * s.period(), 60);
  os << render_gantt(g, s, horizon);
}

std::string dump(const Graph& g) {
  std::ostringstream os;
  const ActorId target(g.num_actors() - 1);
  os << "graph " << g.name() << " target " << g.actor(target).name << "\n";

  const DseResult dse = explore(g, DseOptions{.target = target});
  os << "explore: deadlock=" << dse.deadlock
     << " max_throughput=" << dse.max_throughput.str()
     << " floors=" << dse.floors.str()
     << " distributions_explored=" << dse.distributions_explored
     << " max_states_stored=" << dse.max_states_stored << "\n";
  for (const buffer::ParetoPoint& p : dse.pareto.points()) {
    os << "  point size=" << p.size() << " throughput=" << p.throughput.str()
       << " caps=[" << join(p.distribution.capacities()) << "]\n";
  }

  const std::vector<i64> floors = dse.floors.capacities();
  dump_throughput(os, "floors [" + join(floors) + "]",
                  BUFFY_CSDF_THROUGHPUT(g, state::Capacities::bounded(floors),
                                        target));
  std::vector<i64> wide = floors;
  for (i64& c : wide) c = c * 3 + 2;
  dump_throughput(os, "wide [" + join(wide) + "]",
                  BUFFY_CSDF_THROUGHPUT(g, state::Capacities::bounded(wide),
                                        target));
  for (const buffer::ParetoPoint& p : dse.pareto.points()) {
    const std::vector<i64>& caps = p.distribution.capacities();
    dump_throughput(os, "point [" + join(caps) + "]",
                    BUFFY_CSDF_THROUGHPUT(
                        g, state::Capacities::bounded(caps), target));
  }

  dump_schedule(os, g, "floors", floors, target);
  if (!dse.pareto.empty()) {
    dump_schedule(os, g, "max",
                  dse.pareto.points().back().distribution.capacities(),
                  target);
  }
  return os.str();
}

class CsdfGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CsdfGolden, MatchesPinnedDump) {
  const Case c = cases()[GetParam()];
  const Graph g = c.make();
  validate(g);
  const std::string actual = dump(g);

  const std::string path =
      std::string(GOLDEN_DIR) + "/csdf/" + c.name + ".txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) {
    const std::string out = ::testing::TempDir() + "csdf_" + c.name + ".txt";
    std::ofstream(out) << actual;
    ADD_FAILURE() << "dump of '" << c.name << "' differs from " << path
                  << "; actual written to " << out;
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, CsdfGolden,
                         ::testing::Range<std::size_t>(0, 9),
                         [](const auto& info) {
                           return cases()[info.param].name;
                         });

}  // namespace
}  // namespace buffy::csdf
