// Tests for the CSDF extension (the paper's future-work direction): graph
// validation, repetition vectors, the phase-aware engine, throughput, DSE,
// and the differential oracle between the engine's SDF and CSDF
// flattenings (SDF is one-phase CSDF, so both must agree exactly).
#include <gtest/gtest.h>

#include "analysis/repetition_vector.hpp"
#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "csdf/analysis.hpp"
#include "csdf/dse.hpp"
#include "gen/random_graph.hpp"
#include "io/csdf_io.hpp"
#include "models/models.hpp"
#include "sdf/builder.hpp"
#include "sdf/csdf_graph.hpp"
#include "state/engine.hpp"
#include "state/throughput.hpp"

namespace buffy::csdf {
namespace {

// A distributor: a alternates between feeding b (phase 0) and c (phase 1).
Graph distributor() {
  Graph g("distributor");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 2}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {2}});
  const auto c = g.add_actor(Actor{.name = "c", .execution_times = {3}});
  g.add_channel(Channel{.name = "ab",
                        .src = a,
                        .dst = b,
                        .production = {1, 0},
                        .consumption = {1}});
  g.add_channel(Channel{.name = "ac",
                        .src = a,
                        .dst = c,
                        .production = {0, 1},
                        .consumption = {1}});
  validate(g);
  return g;
}

TEST(CsdfGraph, ValidationAcceptsDistributor) {
  EXPECT_NO_THROW(validate(distributor()));
}

TEST(CsdfGraph, ValidationRejectsPhaseMismatch) {
  Graph g("bad");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1}});
  g.add_channel(Channel{.name = "ab",
                        .src = a,
                        .dst = b,
                        .production = {1},  // a has two phases
                        .consumption = {1}});
  EXPECT_THROW(validate(g), GraphError);
}

TEST(CsdfGraph, ValidationRejectsAllZeroRates) {
  Graph g("zero");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1}});
  g.add_channel(Channel{.name = "ab",
                        .src = a,
                        .dst = b,
                        .production = {0, 0},
                        .consumption = {1}});
  EXPECT_THROW(validate(g), GraphError);
}

TEST(CsdfGraph, ValidationRejectsZeroPhaseExecution) {
  Graph g("zeroexec");
  g.add_actor(Actor{.name = "a", .execution_times = {1, 0}});
  EXPECT_THROW(validate(g), GraphError);
}

TEST(CsdfGraph, ValidationRejectsEmptyPhases) {
  Graph g("nophase");
  g.add_actor(Actor{.name = "a", .execution_times = {}});
  EXPECT_THROW(validate(g), GraphError);
}

TEST(CsdfAnalysis, DistributorRepetitionVector) {
  const Graph g = distributor();
  const RepetitionVector q = repetition_vector(g);
  // One cycle of a (two firings) produces one token for each consumer.
  EXPECT_EQ(q.cycles_of(*g.find_actor("a")), 1);
  EXPECT_EQ(q.firings_of(*g.find_actor("a")), 2);
  EXPECT_EQ(q.firings_of(*g.find_actor("b")), 1);
  EXPECT_EQ(q.firings_of(*g.find_actor("c")), 1);
}

TEST(CsdfAnalysis, InconsistentGraphDetected) {
  Graph g("bad");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1}});
  g.add_channel(Channel{
      .name = "c1", .src = a, .dst = b, .production = {1},
      .consumption = {2}});
  g.add_channel(Channel{
      .name = "c2", .src = a, .dst = b, .production = {1},
      .consumption = {1}});
  EXPECT_FALSE(is_consistent(g));
  EXPECT_THROW((void)repetition_vector(g), ConsistencyError);
}

TEST(CsdfAnalysis, FromSdfMatchesSdfRepetitionVector) {
  const sdf::Graph s = models::samplerate_converter();
  const Graph g = from_sdf(s);
  const RepetitionVector q = repetition_vector(g);
  const auto sq = analysis::repetition_vector(s);
  for (const auto a : s.actor_ids()) {
    EXPECT_EQ(q.firings_of(a), sq[a]) << s.actor(a).name;
  }
}

TEST(CsdfEngine, PhasesAdvanceCyclically) {
  const Graph g = distributor();
  state::Engine e(g, state::Capacities::unbounded(2));
  e.reset();
  const auto a = *g.find_actor("a");
  EXPECT_EQ(e.phase(a), 0);
  e.advance();  // a's phase-0 firing (1 step) completes
  EXPECT_EQ(e.phase(a), 1);
  EXPECT_EQ(e.tokens(ChannelId(0)), 1);  // token for b
  EXPECT_EQ(e.tokens(ChannelId(1)), 0);
}

TEST(CsdfEngine, ZeroRatePhaseClaimsNothing) {
  // With channel ab capped at 1 and b slow, a's phase-1 firing (which
  // produces nothing on ab) must not be blocked by ab being full.
  Graph g("zrate");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1, 1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {50}});
  g.add_channel(Channel{.name = "ab",
                        .src = a,
                        .dst = b,
                        .production = {1, 0},
                        .consumption = {1}});
  validate(g);
  state::Engine e(g, state::Capacities::bounded({1}));
  e.reset();
  e.advance();  // a fires phase 0, fills ab; b starts
  EXPECT_EQ(e.phase(*g.find_actor("a")), 1);
  // a can fire phase 1 (produces 0 on the full channel).
  EXPECT_GT(e.clock(*g.find_actor("a")), 0);
}

TEST(CsdfThroughput, DistributorUnbounded) {
  const Graph g = distributor();
  // a cycles every 3 steps unthrottled; c gets one token per cycle but
  // takes 3 steps, so everything settles at one firing per 3 steps.
  const auto r = state::compute_throughput(
      g, state::Capacities::unbounded(2),
      state::ThroughputOptions{.target = *g.find_actor("c"),
                               .max_steps = 100000});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.throughput, Rational(1, 3));
}

TEST(CsdfThroughput, DeadlockOnTightBuffers) {
  Graph g("tight");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1}});
  g.add_channel(Channel{.name = "ab",
                        .src = a,
                        .dst = b,
                        .production = {2},
                        .consumption = {3}});
  validate(g);
  const auto r = state::compute_throughput(
      g, state::Capacities::bounded({3}),
      state::ThroughputOptions{.target = b, .max_steps = 100000});
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.throughput, Rational(0));
}

TEST(CsdfDse, DistributorParetoReachesMax) {
  const Graph g = distributor();
  const auto r = explore(g, DseOptions{.target = *g.find_actor("c")});
  ASSERT_FALSE(r.deadlock);
  ASSERT_FALSE(r.pareto.empty());
  EXPECT_EQ(r.pareto.points().back().throughput, r.max_throughput);
  EXPECT_EQ(r.max_throughput, Rational(1, 3));
}

TEST(CsdfDse, StructuralDeadlockReported) {
  Graph g("ring");
  const auto a = g.add_actor(Actor{.name = "a", .execution_times = {1}});
  const auto b = g.add_actor(Actor{.name = "b", .execution_times = {1}});
  g.add_channel(Channel{
      .name = "ab", .src = a, .dst = b, .production = {1},
      .consumption = {1}});
  g.add_channel(Channel{
      .name = "ba", .src = b, .dst = a, .production = {1},
      .consumption = {1}});
  validate(g);
  const auto r = explore(g, DseOptions{.target = a});
  EXPECT_TRUE(r.deadlock);
  EXPECT_TRUE(r.pareto.empty());
}

TEST(CsdfDse, CyclostaticRefinementNeedsSmallerBuffers) {
  // The classic CSDF payoff: an actor that produces its two tokens spread
  // over two phases (one each) needs less downstream buffering than the
  // SDF abstraction that emits both at once.
  sdf::GraphBuilder sb("coarse");
  const auto sa = sb.actor("a", 2);
  const auto sc = sb.actor("b", 1);
  sb.channel("ab", sa, 2, sc, 1);
  const sdf::Graph coarse = sb.build();
  const auto coarse_dse = buffer::explore(
      coarse, buffer::DseOptions{.target = sc,
                                 .engine = buffer::DseEngine::Incremental});

  Graph fine("fine");
  const auto fa =
      fine.add_actor(Actor{.name = "a", .execution_times = {1, 1}});
  const auto fb = fine.add_actor(Actor{.name = "b", .execution_times = {1}});
  fine.add_channel(Channel{.name = "ab",
                           .src = fa,
                           .dst = fb,
                           .production = {1, 1},
                           .consumption = {1}});
  validate(fine);
  const auto fine_dse = explore(fine, DseOptions{.target = fb});

  ASSERT_FALSE(coarse_dse.pareto.empty());
  ASSERT_FALSE(fine_dse.pareto.empty());
  // Both reach one b-firing per step at best; the refinement does it with
  // a strictly smaller buffer.
  EXPECT_EQ(coarse_dse.pareto.points().back().throughput,
            fine_dse.pareto.points().back().throughput);
  EXPECT_LT(fine_dse.pareto.points().back().size(),
            coarse_dse.pareto.points().back().size());
}

TEST(CsdfDse, SelfLoopFloorOverflowIsReported) {
  // initial_tokens + the self-loop's claim does not fit in i64; the floor
  // must say so instead of wrapping into a negative capacity.
  const Graph g = io::read_csdf_dsl(
      "graph selfloop\n"
      "actor a 1\n"
      "channel aa a 1 a 1 tokens 9223372036854775807\n");
  EXPECT_THROW((void)channel_floor(g.channel(ChannelId(0))), OverflowError);
  EXPECT_THROW((void)explore(g, DseOptions{.target = ActorId(0)}),
               OverflowError);
}

TEST(CsdfDse, MaxThroughputSearchOverflowIsReported) {
  // The back edge's floor is 2^62: doubling it for the maximal-throughput
  // search leaves i64.
  const Graph g = io::read_csdf_dsl(
      "graph backedge\n"
      "actor a 1\n"
      "actor b 1\n"
      "channel ab a 1 b 1\n"
      "channel ba b 1 a 1 tokens 4611686018427387904\n");
  EXPECT_THROW((void)explore(g, DseOptions{.target = ActorId(1)}),
               OverflowError);
}

// Differential oracle: on random SDF graphs, the engine built from the
// from_sdf embedding must reproduce the throughput of the engine built
// from the SDF graph for the same capacities.
class CsdfSdfEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(CsdfSdfEquivalence, ThroughputsAgree) {
  const sdf::Graph s = gen::random_graph(gen::RandomGraphOptions{
      .num_actors = 4, .max_repetition = 3, .seed = GetParam()});
  const Graph g = from_sdf(s);
  std::vector<i64> caps;
  for (const sdf::ChannelId c : s.channel_ids()) {
    const sdf::Channel& ch = s.channel(c);
    caps.push_back(ch.initial_tokens + ch.production + ch.consumption);
  }
  const sdf::ActorId target(s.num_actors() - 1);
  for (int round = 0; round < 3; ++round) {
    const auto sdf_run = state::compute_throughput(s, caps, target);
    const auto csdf_run = state::compute_throughput(
        g, state::Capacities::bounded(caps),
        state::ThroughputOptions{.target = target, .max_steps = 100'000'000});
    EXPECT_EQ(sdf_run.deadlocked, csdf_run.deadlocked)
        << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(sdf_run.throughput, csdf_run.throughput)
        << "seed " << GetParam() << " round " << round;
    for (i64& c : caps) c += 2;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfSdfEquivalence,
                         ::testing::Range<u64>(1, 33));

}  // namespace
}  // namespace buffy::csdf
