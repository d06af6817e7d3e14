#include "codegen/codegen.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/diagnostics.hpp"
#include "models/models.hpp"

namespace buffy::codegen {
namespace {

std::string example_source() {
  const sdf::Graph g = models::paper_example();
  return generate_explorer_source(g, *g.find_actor("c"));
}

TEST(Codegen, ContainsThePaperDirectives) {
  const std::string src = example_source();
  for (const char* directive :
       {"CHECK_TOKENS", "CHECK_SPACE", "CONSUME", "PRODUCE", "ACT_CLK",
        "execSDFgraph"}) {
    EXPECT_NE(src.find(directive), std::string::npos) << directive;
  }
}

TEST(Codegen, UnrollsTheExampleRates) {
  const std::string src = example_source();
  // Actor b: consumes 3 from channel 0, produces 1 on channel 1.
  EXPECT_NE(src.find("CHECK_TOKENS(0, 3)"), std::string::npos);
  EXPECT_NE(src.find("CONSUME(0, 3)"), std::string::npos);
  EXPECT_NE(src.find("PRODUCE(1, 1)"), std::string::npos);
  // Actor a: claims 2 on channel 0 at start.
  EXPECT_NE(src.find("CHECK_SPACE(0, 2)"), std::string::npos);
}

TEST(Codegen, EmbedsLowerBoundsAsDefaults) {
  const std::string src = example_source();
  EXPECT_NE(src.find("{4, 2}"), std::string::npos);
}

TEST(Codegen, TargetActorRecorded) {
  const std::string src = example_source();
  EXPECT_NE(src.find("kTarget = 2"), std::string::npos);
}

TEST(Codegen, EmitsInitialTokens) {
  const sdf::Graph g = models::modem();
  const std::string src =
      generate_explorer_source(g, *g.find_actor("out"));
  EXPECT_NE(src.find("sdfState.ch["), std::string::npos);
}

TEST(Codegen, WritesFile) {
  const std::string path = ::testing::TempDir() + "/buffy_gen.cpp";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), example_source());
}

TEST(Codegen, InvalidTargetThrows) {
  EXPECT_THROW(
      (void)generate_explorer_source(models::paper_example(), sdf::ActorId(9)),
      Error);
}

// Integration: compile the generated program with the system compiler and
// check that it reproduces the paper's throughput numbers. Skipped when no
// compiler is available.
class CodegenCompile : public ::testing::Test {
 protected:
  static bool have_compiler() {
    return std::system("c++ --version > /dev/null 2>&1") == 0;
  }

  static std::string run(const std::string& binary, const std::string& args) {
    const std::string cmd = binary + " " + args + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    char buf[256];
    std::string out;
    while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
    return out;
  }
};

TEST_F(CodegenCompile, GeneratedProgramReproducesPaperThroughputs) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/buffy_explore.cpp";
  const std::string bin = dir + "/buffy_explore";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), src);
  const std::string compile =
      "c++ -std=c++17 -O1 -o " + bin + " " + src + " 2>&1";
  ASSERT_EQ(std::system(compile.c_str()), 0);

  EXPECT_EQ(run(bin, "4 2"), "throughput 1/7\n");
  EXPECT_EQ(run(bin, "6 2"), "throughput 1/6\n");
  EXPECT_EQ(run(bin, "7 3"), "throughput 1/4\n");
  EXPECT_EQ(run(bin, "3 2"), "throughput 0\n");
  EXPECT_EQ(run(bin, ""), "throughput 1/7\n");  // defaults to lb = (4, 2)
}

TEST_F(CodegenCompile, GeneratedDseReproducesFig5Staircase) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/buffy_dse.cpp";
  const std::string bin = dir + "/buffy_dse";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), src);
  const std::string compile =
      "c++ -std=c++17 -O1 -o " + bin + " " + src + " 2>&1";
  ASSERT_EQ(std::system(compile.c_str()), 0);

  // The generated explorer's --dse mode prints one line per Pareto point:
  // "pareto <size> <num>/<den> <caps...>" — the Fig. 5 staircase.
  const std::string out = run(bin, "--dse");
  std::istringstream lines(out);
  std::string line;
  std::vector<std::pair<long long, std::string>> points;
  while (std::getline(lines, line)) {
    long long size = 0;
    char tput[64] = {};
    if (std::sscanf(line.c_str(), "pareto %lld %63s", &size, tput) == 2) {
      points.emplace_back(size, tput);
    }
  }
  ASSERT_EQ(points.size(), 4u) << out;
  EXPECT_EQ(points[0], (std::pair<long long, std::string>{6, "1/7"}));
  EXPECT_EQ(points[1], (std::pair<long long, std::string>{8, "1/6"}));
  EXPECT_EQ(points[2], (std::pair<long long, std::string>{9, "1/5"}));
  EXPECT_EQ(points[3], (std::pair<long long, std::string>{10, "1/4"}));
}

}  // namespace
}  // namespace buffy::codegen
