#include "csdf/schedule.hpp"

#include <gtest/gtest.h>

#include "sdf/csdf_graph.hpp"
#include "models/models.hpp"

namespace buffy::csdf {
namespace {

Graph distributor() {
  Graph g("distributor");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 2}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {2}});
  const auto c = g.add_actor(Actor{.name = "c", .execution_times = {3}});
  g.add_channel(Channel{.name = "ab", .src = a, .dst = b,
                        .production = {1, 0}, .consumption = {1}});
  g.add_channel(Channel{.name = "ac", .src = a, .dst = c,
                        .production = {0, 1}, .consumption = {1}});
  validate(g);
  return g;
}

TEST(CsdfSchedule, ExtractMatchesThroughput) {
  const Graph g = distributor();
  const auto ex = extract_schedule(g, state::Capacities::unbounded(2),
                                   *g.find_actor("c"));
  EXPECT_FALSE(ex.deadlocked);
  EXPECT_EQ(ex.throughput, Rational(1, 3));
  EXPECT_EQ(ex.schedule.throughput(*g.find_actor("c")), Rational(1, 3));
  // a completes two firings per period (both phases).
  EXPECT_EQ(ex.schedule.firings_per_period(*g.find_actor("a")), 2);
}

TEST(CsdfSchedule, StartTimesFollowThePhases) {
  // a's phase 0 takes 1 step, phase 1 takes 2: the first firings start at
  // t = 0, 1, 3, 4, 6, ... (1+2 per cycle, unthrottled).
  const Graph g = distributor();
  const auto ex = extract_schedule(g, state::Capacities::unbounded(2),
                                   *g.find_actor("c"));
  const auto a = *g.find_actor("a");
  EXPECT_EQ(ex.schedule.start_time(a, 0), 0);
  EXPECT_EQ(ex.schedule.start_time(a, 1), 1);
  EXPECT_EQ(ex.schedule.start_time(a, 2), 3);
  EXPECT_EQ(ex.schedule.start_time(a, 3), 4);
}

TEST(CsdfSchedule, DeadlockedScheduleIsFinite) {
  Graph g("tight");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1}});
  g.add_channel(Channel{.name = "ab", .src = a, .dst = b,
                        .production = {2}, .consumption = {3}});
  validate(g);
  const auto ex =
      extract_schedule(g, state::Capacities::bounded({3}), b);
  EXPECT_TRUE(ex.deadlocked);
  EXPECT_TRUE(ex.schedule.finite());
  EXPECT_EQ(ex.throughput, Rational(0));
}

TEST(CsdfSchedule, GanttUsesPerPhaseDurations) {
  const Graph g = distributor();
  const auto ex = extract_schedule(g, state::Capacities::unbounded(2),
                                   *g.find_actor("c"));
  const std::string gantt = render_gantt(g, ex.schedule, 12);
  // a: phase 0 (1 step) then phase 1 (2 steps): "aa*aa*..." pattern.
  EXPECT_NE(gantt.find("aa*aa*"), std::string::npos) << gantt;
  // c runs 3 steps per firing.
  EXPECT_NE(gantt.find("c**"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find('|'), std::string::npos);
}

}  // namespace
}  // namespace buffy::csdf
