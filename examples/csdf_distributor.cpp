// csdf_distributor: buffering an inherently cyclo-static application — a
// round-robin distributor/collector pair around two unequal workers — and
// what the SDF abstraction of the same application would cost.
//
// The distributor alternates tokens to a slow and a fast worker; the
// collector merges results in the same order. SDF cannot express the
// alternation directly: its closest abstraction makes the distributor emit
// to both workers every firing (doubling token granularity), which
// overestimates the buffers. The CSDF exploration prices the application
// exactly (paper Sec. 12's motivation for richer models).
#include <cstdio>
#include <fstream>

#include "buffer/dse.hpp"
#include "csdf/analysis.hpp"
#include "csdf/dse.hpp"
#include "sdf/csdf_graph.hpp"
#include "io/csdf_io.hpp"
#include "sdf/builder.hpp"

using namespace buffy;

namespace {

csdf::Graph make_csdf() {
  csdf::Graph g("distcol");
  const auto src =
      g.add_actor(csdf::Actor{.name = "src", .execution_times = {1, 1}});
  const auto slow =
      g.add_actor(csdf::Actor{.name = "slow", .execution_times = {5}});
  const auto fast =
      g.add_actor(csdf::Actor{.name = "fast", .execution_times = {2}});
  const auto col =
      g.add_actor(csdf::Actor{.name = "col", .execution_times = {1, 1}});
  g.add_channel(csdf::Channel{.name = "s_slow", .src = src, .dst = slow,
                              .production = {1, 0}, .consumption = {1}});
  g.add_channel(csdf::Channel{.name = "s_fast", .src = src, .dst = fast,
                              .production = {0, 1}, .consumption = {1}});
  g.add_channel(csdf::Channel{.name = "slow_c", .src = slow, .dst = col,
                              .production = {1}, .consumption = {1, 0}});
  g.add_channel(csdf::Channel{.name = "fast_c", .src = fast, .dst = col,
                              .production = {1}, .consumption = {0, 1}});
  csdf::validate(g);
  return g;
}

sdf::Graph make_sdf_abstraction() {
  // One src firing = one full distribution round (both workers fed);
  // execution times aggregate the phases.
  sdf::GraphBuilder b("distcol_sdf");
  const auto src = b.actor("src", 2);
  const auto slow = b.actor("slow", 5);
  const auto fast = b.actor("fast", 2);
  const auto col = b.actor("col", 2);
  b.channel("s_slow", src, 1, slow, 1);
  b.channel("s_fast", src, 1, fast, 1);
  b.channel("slow_c", slow, 1, col, 1);
  b.channel("fast_c", fast, 1, col, 1);
  return b.build();
}

}  // namespace

int main() {
  const csdf::Graph g = make_csdf();
  const auto q = csdf::repetition_vector(g);
  std::printf("CSDF distributor/collector; firings per iteration:");
  for (const auto a : g.actor_ids()) {
    std::printf(" %s=%lld", g.actor(a).name.c_str(),
                static_cast<long long>(q.firings_of(a)));
  }
  std::printf("\n\n");

  const auto fine =
      csdf::explore(g, csdf::DseOptions{.target = *g.find_actor("col")});
  std::printf("CSDF Pareto front (col firings per time step):\n%s\n",
              fine.pareto.str().c_str());

  const sdf::Graph s = make_sdf_abstraction();
  const auto coarse = buffer::explore(
      s, buffer::DseOptions{.target = *s.find_actor("col"),
                            .engine = buffer::DseEngine::Incremental});
  std::printf("SDF abstraction Pareto front (col fires once per round, i.e. "
              "per two CSDF firings):\n%s\n",
              coarse.pareto.str().c_str());

  // Compare at equal application rates: one SDF col firing delivers the
  // work of two CSDF col firings.
  const Rational fine_rate = fine.max_throughput / Rational(2);
  const Rational coarse_rate = coarse.bounds.max_throughput;
  std::printf("max application rate: CSDF %s rounds/step vs SDF %s "
              "rounds/step\n",
              fine_rate.str().c_str(), coarse_rate.str().c_str());
  std::printf("storage for the max: CSDF %lld tokens vs SDF %lld tokens\n",
              static_cast<long long>(fine.pareto.points().back().size()),
              static_cast<long long>(coarse.pareto.points().back().size()));

  // Persist the CSDF model for the CLI (`explore_cli <file> --csdf`).
  std::ofstream out("distcol.csdf.sdf");
  out << io::write_csdf_dsl(g);
  std::printf("\nwrote distcol.csdf.sdf (explore with: explore_cli "
              "distcol.csdf.sdf --csdf --target col)\n");
  return 0;
}
