// Extension bench (paper Sec. 12 future work): the exploration generalised
// to cyclo-static dataflow. Two demonstrations:
//  1. the classic CSDF payoff — refining an SDF actor's bulk production
//     into per-phase production shrinks the buffers needed for the same
//     throughput;
//  2. a cyclo-static distributor's Pareto space, which no SDF abstraction
//     of the same application could resolve.
#include <cstdio>

#include "bench_util.hpp"
#include "buffer/dse.hpp"
#include "csdf/analysis.hpp"
#include "csdf/dse.hpp"
#include "sdf/csdf_graph.hpp"
#include "models/models.hpp"
#include "report_util.hpp"
#include "sdf/builder.hpp"

using namespace buffy;

int main(int argc, char** argv) {
  const auto report_dir = bench::report_dir_arg(argc, argv);
  std::printf("=== CSDF extension: buffer sizing beyond SDF ===\n\n");

  // 1. Refinement: a producer that needs 2 time steps to compute 2 tokens
  //    either emits them as one bulk at the end (SDF) or one per phase
  //    (CSDF) — identical rates, finer-grained timing.
  std::printf("--- bulk producer (SDF) vs per-phase producer (CSDF) ---\n\n");
  sdf::GraphBuilder sb("bulk");
  const auto sa = sb.actor("a", 2);
  const auto sb_actor = sb.actor("b", 2);
  const auto sc = sb.actor("c", 2);
  sb.channel("alpha", sa, 2, sb_actor, 3);
  sb.channel("beta", sb_actor, 1, sc, 2);
  const sdf::Graph coarse = sb.build();
  const auto coarse_dse = buffer::explore(
      coarse, buffer::DseOptions{.target = sc,
                                 .engine = buffer::DseEngine::Incremental});

  csdf::Graph fine("perphase");
  const auto fa =
      fine.add_actor(csdf::Actor{.name = "a", .execution_times = {1, 1}});
  const auto fb = fine.add_actor(csdf::Actor{.name = "b",
                                             .execution_times = {2}});
  const auto fc = fine.add_actor(csdf::Actor{.name = "c",
                                             .execution_times = {2}});
  fine.add_channel(csdf::Channel{.name = "alpha",
                                 .src = fa,
                                 .dst = fb,
                                 .production = {1, 1},
                                 .consumption = {3}});
  fine.add_channel(csdf::Channel{.name = "beta",
                                 .src = fb,
                                 .dst = fc,
                                 .production = {1},
                                 .consumption = {2}});
  csdf::validate(fine);
  const auto fine_dse = csdf::explore(fine, csdf::DseOptions{.target = fc});

  std::printf("SDF  (a emits 2 at once):    max tput %s at size %lld\n",
              coarse_dse.bounds.max_throughput.str().c_str(),
              static_cast<long long>(coarse_dse.pareto.points().back().size()));
  std::printf("CSDF (a emits 1 per phase):  max tput %s at size %lld\n\n",
              fine_dse.max_throughput.str().c_str(),
              static_cast<long long>(fine_dse.pareto.points().back().size()));
  std::printf("SDF Pareto front:\n%s\n", coarse_dse.pareto.str().c_str());
  std::printf("CSDF Pareto front:\n%s\n", fine_dse.pareto.str().c_str());

  const bool refinement_ok =
      !fine_dse.pareto.empty() && !coarse_dse.pareto.empty() &&
      fine_dse.pareto.points().back().size() <=
          coarse_dse.pareto.points().back().size();

  // 2. A distributor/collector pipeline, inherently cyclo-static.
  std::printf("--- cyclo-static distributor/collector ---\n\n");
  csdf::Graph dist("distcol");
  const auto src =
      dist.add_actor(csdf::Actor{.name = "src", .execution_times = {1, 1}});
  const auto odd = dist.add_actor(csdf::Actor{.name = "odd",
                                              .execution_times = {3}});
  const auto even = dist.add_actor(csdf::Actor{.name = "even",
                                               .execution_times = {2}});
  const auto col = dist.add_actor(
      csdf::Actor{.name = "col", .execution_times = {1, 1}});
  dist.add_channel(csdf::Channel{.name = "s_o",
                                 .src = src,
                                 .dst = odd,
                                 .production = {1, 0},
                                 .consumption = {1}});
  dist.add_channel(csdf::Channel{.name = "s_e",
                                 .src = src,
                                 .dst = even,
                                 .production = {0, 1},
                                 .consumption = {1}});
  dist.add_channel(csdf::Channel{.name = "o_c",
                                 .src = odd,
                                 .dst = col,
                                 .production = {1},
                                 .consumption = {1, 0}});
  dist.add_channel(csdf::Channel{.name = "e_c",
                                 .src = even,
                                 .dst = col,
                                 .production = {1},
                                 .consumption = {0, 1}});
  csdf::validate(dist);
  const auto q = csdf::repetition_vector(dist);
  std::printf("repetition vector (firings/iteration):");
  for (const auto a : dist.actor_ids()) {
    std::printf(" %s=%lld", dist.actor(a).name.c_str(),
                static_cast<long long>(q.firings_of(a)));
  }
  std::printf("\n\n");
  const auto dist_dse = csdf::explore(dist, csdf::DseOptions{.target = col});
  bench::print_pareto_table(dist_dse.pareto);
  std::printf("\nmax throughput(col): %s; %llu distributions explored\n",
              dist_dse.max_throughput.str().c_str(),
              static_cast<unsigned long long>(dist_dse.distributions_explored));

  const bool dist_ok =
      !dist_dse.deadlock && !dist_dse.pareto.empty() &&
      dist_dse.pareto.points().back().throughput == dist_dse.max_throughput;

  std::printf("\nchecks (refinement never needs bigger buffers; distributor "
              "front reaches its max): %s\n",
              refinement_ok && dist_ok ? "OK" : "MISMATCH");

  if (report_dir.has_value()) {
    trace::ReportFragment f("CSDF extension: buffer sizing beyond SDF",
                            "bench_csdf_extension");
    f.paragraph("Refining an SDF actor's bulk production into per-phase "
                "production (CSDF) never needs bigger buffers for the same "
                "throughput:");
    f.bullet("SDF (a emits 2 at once): max tput " +
             coarse_dse.bounds.max_throughput.str() + " at size " +
             std::to_string(coarse_dse.pareto.points().back().size()));
    f.bullet("CSDF (a emits 1 per phase): max tput " +
             fine_dse.max_throughput.str() + " at size " +
             std::to_string(fine_dse.pareto.points().back().size()));
    f.paragraph("The cyclo-static distributor/collector pipeline — a Pareto "
                "space no SDF abstraction of the same application could "
                "resolve:");
    bench::pareto_markdown(f, dist_dse.pareto);
    f.bullet("max throughput(col): " + dist_dse.max_throughput.str() + "; " +
             std::to_string(dist_dse.distributions_explored) +
             " distributions explored");
    f.bullet(std::string("checks (refinement never needs bigger buffers; "
                         "distributor front reaches its max): ") +
             (refinement_ok && dist_ok ? "OK" : "MISMATCH"));
    f.write(*report_dir, "csdf_extension");
  }
  return refinement_ok && dist_ok ? 0 : 1;
}
