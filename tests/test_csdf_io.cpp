#include "io/csdf_io.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "base/diagnostics.hpp"
#include "csdf/analysis.hpp"
#include "sdf/csdf_graph.hpp"
#include "gen/random_graph.hpp"
#include "models/models.hpp"

namespace buffy::io {
namespace {

csdf::Graph distributor() {
  csdf::Graph g("distributor");
  const auto a = g.add_actor(
      csdf::Actor{.name = "a", .execution_times = {1, 2}});
  const auto b = g.add_actor(csdf::Actor{.name = "b", .execution_times = {2}});
  const auto c = g.add_actor(csdf::Actor{.name = "c", .execution_times = {3}});
  g.add_channel(csdf::Channel{.name = "ab",
                              .src = a,
                              .dst = b,
                              .production = {1, 0},
                              .consumption = {1},
                              .initial_tokens = 2});
  g.add_channel(csdf::Channel{.name = "ac",
                              .src = a,
                              .dst = c,
                              .production = {0, 1},
                              .consumption = {1}});
  csdf::validate(g);
  return g;
}

void expect_same_csdf(const csdf::Graph& a, const csdf::Graph& b) {
  ASSERT_EQ(a.num_actors(), b.num_actors());
  ASSERT_EQ(a.num_channels(), b.num_channels());
  EXPECT_EQ(a.name(), b.name());
  for (const csdf::ActorId id : a.actor_ids()) {
    const auto other = b.find_actor(a.actor(id).name);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(a.actor(id).execution_times, b.actor(*other).execution_times);
  }
  for (const csdf::ChannelId id : a.channel_ids()) {
    const csdf::Channel& ca = a.channel(id);
    bool found = false;
    for (const csdf::ChannelId oid : b.channel_ids()) {
      const csdf::Channel& cb = b.channel(oid);
      if (cb.name != ca.name) continue;
      found = true;
      EXPECT_EQ(a.actor(ca.src).name, b.actor(cb.src).name);
      EXPECT_EQ(a.actor(ca.dst).name, b.actor(cb.dst).name);
      EXPECT_EQ(ca.production, cb.production);
      EXPECT_EQ(ca.consumption, cb.consumption);
      EXPECT_EQ(ca.initial_tokens, cb.initial_tokens);
    }
    EXPECT_TRUE(found) << ca.name;
  }
}

TEST(CsdfIo, XmlRoundTrip) {
  const csdf::Graph g = distributor();
  expect_same_csdf(g, read_csdf_xml(write_csdf_xml(g)));
}

TEST(CsdfIo, DslRoundTrip) {
  const csdf::Graph g = distributor();
  expect_same_csdf(g, read_csdf_dsl(write_csdf_dsl(g)));
}

TEST(CsdfIo, DslParsesHandwrittenText) {
  const csdf::Graph g = read_csdf_dsl(R"(
# cyclo-static distributor
graph dist
actor a 1,2
actor b 2
channel ab a 1,0 b 1 tokens 3
)");
  EXPECT_EQ(g.name(), "dist");
  EXPECT_EQ(g.actor(*g.find_actor("a")).execution_times,
            (std::vector<i64>{1, 2}));
  EXPECT_EQ(g.channel(csdf::ChannelId(0)).production,
            (std::vector<i64>{1, 0}));
  EXPECT_EQ(g.channel(csdf::ChannelId(0)).initial_tokens, 3);
}

TEST(CsdfIo, XmlRatesAreCommaSeparatedLists) {
  const std::string xml = write_csdf_xml(distributor());
  EXPECT_NE(xml.find("rate=\"1,0\""), std::string::npos);
  EXPECT_NE(xml.find("time=\"1,2\""), std::string::npos);
  EXPECT_NE(xml.find("type=\"csdf\""), std::string::npos);
}

TEST(CsdfIo, RejectsPhaseMismatchOnLoad) {
  EXPECT_THROW((void)read_csdf_dsl(R"(
graph bad
actor a 1,1
actor b 1
channel ab a 1 b 1
)"),
               GraphError);
}

TEST(CsdfIo, RejectsMalformedPhaseList) {
  EXPECT_THROW((void)read_csdf_dsl("graph g\nactor a 1,,2\n"), ParseError);
  EXPECT_THROW((void)read_csdf_dsl("graph g\nactor a 1,x\n"), ParseError);
}

TEST(CsdfIo, SdfEmbeddingSurvivesBothFormats) {
  // SDF models embedded as single-phase CSDF keep their repetition vectors
  // through a serialisation round trip.
  const csdf::Graph g = csdf::from_sdf(models::samplerate_converter());
  const csdf::Graph via_xml = read_csdf_xml(write_csdf_xml(g));
  const csdf::Graph via_dsl = read_csdf_dsl(write_csdf_dsl(g));
  const auto q = csdf::repetition_vector(g);
  const auto qx = csdf::repetition_vector(via_xml);
  const auto qd = csdf::repetition_vector(via_dsl);
  for (const csdf::ActorId a : g.actor_ids()) {
    EXPECT_EQ(q.firings_of(a), qx.firings_of(a));
    EXPECT_EQ(q.firings_of(a), qd.firings_of(a));
  }
}

TEST(CsdfIo, LoadDispatchesOnExtension) {
  const std::string dir = ::testing::TempDir();
  const csdf::Graph g = distributor();
  {
    std::ofstream out(dir + "/buffy_csdf.xml");
    out << write_csdf_xml(g);
  }
  {
    std::ofstream out(dir + "/buffy_csdf.sdf");
    out << write_csdf_dsl(g);
  }
  expect_same_csdf(g, load_csdf_file(dir + "/buffy_csdf.xml"));
  expect_same_csdf(g, load_csdf_file(dir + "/buffy_csdf.sdf"));
  EXPECT_THROW((void)load_csdf_file("/nonexistent.sdf"), Error);
}

}  // namespace
}  // namespace buffy::io
