// Serialisation for CSDF graphs.
//
// Two formats, mirroring the SDF ones:
//  * SDF3-style XML with type="csdf": rates and execution times are
//    comma-separated per-phase lists ("1,0,2");
//  * the compact text DSL with per-phase lists:
//        graph distributor
//        actor a 1,2
//        channel ab a 1,0 b 1
#pragma once

#include <string>

#include "sdf/csdf_graph.hpp"

namespace buffy::io {

/// Parses a csdf3 XML document; throws ParseError / GraphError.
[[nodiscard]] csdf::Graph read_csdf_xml(const std::string& xml_text);

/// Serialises; read_csdf_xml(write_csdf_xml(g)) round-trips.
[[nodiscard]] std::string write_csdf_xml(const csdf::Graph& graph);

/// Parses the text DSL; throws ParseError with line numbers.
[[nodiscard]] csdf::Graph read_csdf_dsl(const std::string& text);

/// Serialises; read_csdf_dsl(write_csdf_dsl(g)) round-trips.
[[nodiscard]] std::string write_csdf_dsl(const csdf::Graph& graph);

/// Reads a file from disk, dispatching on the ".xml" extension.
[[nodiscard]] csdf::Graph load_csdf_file(const std::string& path);

}  // namespace buffy::io
