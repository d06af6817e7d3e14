// In-process differential test of the scattered divide and conquer
// (buffer::explore_scattered, DESIGN.md §17): with a wave evaluator that
// calls buffer::explore_size_slice directly — no processes, no wire — the
// front and its points must be byte-identical to explore() with the
// exhaustive engine. test_fleet pins the same contract through forked
// workers; this suite pins the exploration alone, so a fold or wave-planning
// regression shows up without the transport in the way.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "buffer/dse_exact.hpp"
#include "exec/cancellation.hpp"
#include "gen/random_graph.hpp"
#include "io/dsl.hpp"
#include "models/models.hpp"

namespace buffy {
namespace {

// Evaluates every slice of a wave in this process, in slice order.
buffer::WaveEvaluator in_process(const sdf::Graph& graph) {
  return [&graph](const buffer::SliceWave& wave) {
    std::vector<buffer::SliceOutcome> outcomes;
    for (const buffer::SliceRequest& slice : wave.slices) {
      outcomes.push_back(buffer::explore_size_slice(graph, wave.options,
                                                    wave.bounds, slice));
    }
    return outcomes;
  };
}

buffer::DseOptions exhaustive(const sdf::Graph& graph,
                              std::optional<i64> levels) {
  buffer::DseOptions opts;
  opts.target = sdf::ActorId(graph.num_actors() - 1);
  opts.engine = buffer::DseEngine::Exhaustive;
  opts.quantization_levels = levels;
  return opts;
}

// Runs both explorations and compares the fronts byte for byte, point by point.
buffer::ScatteredResult expect_identical(const sdf::Graph& graph,
                                         const buffer::DseOptions& opts,
                                         const std::string& what) {
  const buffer::DseResult reference = buffer::explore(graph, opts);
  buffer::ScatteredResult scattered =
      buffer::explore_scattered(graph, opts, in_process(graph));
  const buffer::DseResult& result = scattered.result;
  EXPECT_EQ(result.bounds.deadlock, reference.bounds.deadlock) << what;
  EXPECT_EQ(result.pareto.str(), reference.pareto.str()) << what;
  EXPECT_EQ(result.pareto.size(), reference.pareto.size()) << what;
  for (std::size_t i = 0;
       i < std::min(result.pareto.size(), reference.pareto.size()); ++i) {
    const buffer::ParetoPoint& got = result.pareto.points()[i];
    const buffer::ParetoPoint& want = reference.pareto.points()[i];
    EXPECT_EQ(got.distribution.capacities(), want.distribution.capacities())
        << what << " point " << i;
    EXPECT_EQ(got.throughput, want.throughput) << what << " point " << i;
  }
  return scattered;
}

std::vector<u64> load_seeds() {
  std::ifstream in(std::string(GOLDEN_DIR) + "/property_seeds.txt");
  EXPECT_TRUE(in.good());
  std::vector<u64> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    seeds.push_back(static_cast<u64>(std::stoull(line)));
  }
  return seeds;
}

TEST(ScatteredDse, EveryBundledModelMatchesTheExhaustiveEngine) {
  std::vector<models::NamedModel> all = models::table2_models();
  for (models::NamedModel& m : models::extended_models()) {
    all.push_back(std::move(m));
  }
  all.push_back({"paper example", models::paper_example()});
  all.push_back({"fig6 diamond", models::fig6_diamond()});
  for (const models::NamedModel& m : all) {
    const buffer::ScatteredResult scattered =
        expect_identical(m.graph, exhaustive(m.graph, 6), m.display_name);
    EXPECT_GE(scattered.waves, 1u) << m.display_name;
    EXPECT_GE(scattered.slices, scattered.waves) << m.display_name;
  }
  // Unquantised on the small ones: every exact Pareto point.
  for (const sdf::Graph& g :
       {models::paper_example(), models::fig6_diamond(),
        models::samplerate_converter()}) {
    expect_identical(g, exhaustive(g, std::nullopt), g.name());
  }
}

TEST(ScatteredDse, PinnedSeedRandomGraphsMatchTheExhaustiveEngine) {
  for (const u64 seed : load_seeds()) {
    gen::RandomGraphOptions gopts;
    gopts.num_actors = 3 + static_cast<std::size_t>(seed % 4);
    gopts.max_repetition = 3;
    gopts.max_execution_time = 4;
    gopts.seed = seed;
    const sdf::Graph graph = gen::random_graph(gopts);
    expect_identical(graph, exhaustive(graph, std::nullopt),
                     "seed " + std::to_string(seed) + ":\n" +
                         io::write_dsl(graph));
  }
}

TEST(ScatteredDse, DeadlockingGraphYieldsAnEmptyFrontAndNoWaves) {
  const sdf::Graph graph = io::read_dsl(
      "graph deadlock\nactor a 1\nactor b 1\n"
      "channel ab a 1 b 1\nchannel ba b 1 a 1\n");
  const buffer::ScatteredResult scattered =
      expect_identical(graph, exhaustive(graph, std::nullopt), "deadlock");
  EXPECT_TRUE(scattered.result.bounds.deadlock);
  EXPECT_TRUE(scattered.result.pareto.empty());
  EXPECT_EQ(scattered.waves, 0u);
  EXPECT_EQ(scattered.slices, 0u);
}

TEST(ScatteredDse, DegenerateIntervalIsOneWaveOfOneSlice) {
  const sdf::Graph graph = models::paper_example();
  buffer::DseOptions opts = exhaustive(graph, std::nullopt);
  opts.max_distribution_size =
      buffer::design_space_bounds(graph, opts.target).lb_size;
  const buffer::ScatteredResult scattered =
      expect_identical(graph, opts, "lo == hi");
  EXPECT_EQ(scattered.waves, 1u);
  EXPECT_EQ(scattered.slices, 1u);
  EXPECT_EQ(scattered.result.pareto.size(), 1u);
}

TEST(ScatteredDse, MinThroughputFilterMatches) {
  for (const sdf::Graph& g :
       {models::paper_example(), models::samplerate_converter()}) {
    buffer::DseOptions opts = exhaustive(g, std::nullopt);
    const Rational max =
        buffer::design_space_bounds(g, opts.target).max_throughput;
    opts.min_throughput = max * Rational(1, 2);
    const buffer::ScatteredResult scattered =
        expect_identical(g, opts, g.name() + " min_throughput");
    for (const buffer::ParetoPoint& p : scattered.result.pareto.points()) {
      EXPECT_GE(p.throughput, *opts.min_throughput) << g.name();
    }
  }
}

TEST(ScatteredDse, CancelledTokenStopsBeforeTheFirstWave) {
  const sdf::Graph graph = models::paper_example();
  buffer::DseOptions opts = exhaustive(graph, std::nullopt);
  opts.cancel = exec::CancellationToken::cancellable();
  opts.cancel.cancel();
  unsigned evaluated = 0;
  EXPECT_THROW((void)buffer::explore_scattered(
                   graph, opts,
                   [&](const buffer::SliceWave& wave) {
                     ++evaluated;
                     return in_process(graph)(wave);
                   }),
               exec::Cancelled);
  EXPECT_EQ(evaluated, 0u);
}

TEST(ScatteredDse, EvaluatorMustAnswerEverySlice) {
  const sdf::Graph graph = models::paper_example();
  EXPECT_THROW((void)buffer::explore_scattered(
                   graph, exhaustive(graph, std::nullopt),
                   [](const buffer::SliceWave&) {
                     return std::vector<buffer::SliceOutcome>{};
                   }),
               Error);
}

}  // namespace
}  // namespace buffy
