// Generation of the specialised exploration program (paper Sec. 10, Fig. 8).
//
// The buffy tool of the paper does not interpret the graph at exploration
// time: it emits a C++ program whose execSDFgraph() has the firing rules of
// each actor unrolled into straight-line checks (CHECK_TOKENS / CHECK_SPACE
// / CONSUME / PRODUCE directives). This module reproduces that program
// generator; the emitted source is self-contained C++17 and computes the
// throughput of the target actor for a storage distribution given on the
// command line (defaulting to the per-channel lower bounds), or with
// `--dse` the whole Pareto front. `explore_cli --codegen` writes it.
#pragma once

#include <string>

#include "sdf/graph.hpp"

namespace buffy::codegen {

/// \brief Returns the full source text of the specialised exploration
/// program (paper Fig. 8 style).
///
/// \param graph  The SDF graph to specialise the program for.
/// \param target The actor whose firing rate the program measures.
/// \return Self-contained C++17 source; build with `c++ -std=c++17`.
/// \throws Error when \p target is not an actor of \p graph.
[[nodiscard]] std::string generate_explorer_source(const sdf::Graph& graph,
                                                   sdf::ActorId target);

/// \brief Writes the explorer source to a file.
/// \throws Error on IO failure or an invalid \p target.
void write_explorer_source(const sdf::Graph& graph, sdf::ActorId target,
                           const std::string& path);

}  // namespace buffy::codegen
