#include "sdf/csdf_graph.hpp"

#include <algorithm>
#include <unordered_set>

#include "base/diagnostics.hpp"

namespace buffy::csdf {

namespace {

i64 sum_of(const std::vector<i64>& v) {
  i64 total = 0;
  for (const i64 x : v) total = checked_add(total, x);
  return total;
}

i64 max_of(const std::vector<i64>& v) {
  i64 best = 0;
  for (const i64 x : v) best = std::max(best, x);
  return best;
}

}  // namespace

i64 Channel::total_production() const { return sum_of(production); }
i64 Channel::total_consumption() const { return sum_of(consumption); }
i64 Channel::max_production() const { return max_of(production); }
i64 Channel::max_consumption() const { return max_of(consumption); }

Graph::Graph(std::string name) : name_(std::move(name)) {}

ActorId Graph::add_actor(Actor actor) {
  const ActorId id(actors_.size());
  actors_.push_back(std::move(actor));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

ChannelId Graph::add_channel(Channel channel) {
  BUFFY_REQUIRE(channel.src.valid() && channel.src.index() < actors_.size(),
                "channel '" + channel.name + "' has an invalid source actor");
  BUFFY_REQUIRE(channel.dst.valid() && channel.dst.index() < actors_.size(),
                "channel '" + channel.name +
                    "' has an invalid destination actor");
  const ChannelId id(channels_.size());
  out_[channel.src.index()].push_back(id);
  in_[channel.dst.index()].push_back(id);
  channels_.push_back(std::move(channel));
  return id;
}

const Actor& Graph::actor(ActorId id) const {
  BUFFY_REQUIRE(id.valid() && id.index() < actors_.size(), "invalid actor id");
  return actors_[id.index()];
}

Actor& Graph::actor_mutable(ActorId id) {
  BUFFY_REQUIRE(id.valid() && id.index() < actors_.size(), "invalid actor id");
  return actors_[id.index()];
}

const Channel& Graph::channel(ChannelId id) const {
  BUFFY_REQUIRE(id.valid() && id.index() < channels_.size(),
                "invalid channel id");
  return channels_[id.index()];
}

std::span<const ChannelId> Graph::out_channels(ActorId id) const {
  BUFFY_REQUIRE(id.valid() && id.index() < actors_.size(), "invalid actor id");
  return out_[id.index()];
}

std::span<const ChannelId> Graph::in_channels(ActorId id) const {
  BUFFY_REQUIRE(id.valid() && id.index() < actors_.size(), "invalid actor id");
  return in_[id.index()];
}

std::optional<ActorId> Graph::find_actor(const std::string& name) const {
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i].name == name) return ActorId(i);
  }
  return std::nullopt;
}

std::vector<ActorId> Graph::actor_ids() const {
  std::vector<ActorId> ids;
  ids.reserve(actors_.size());
  for (std::size_t i = 0; i < actors_.size(); ++i) ids.emplace_back(i);
  return ids;
}

std::vector<ChannelId> Graph::channel_ids() const {
  std::vector<ChannelId> ids;
  ids.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) ids.emplace_back(i);
  return ids;
}

void validate(const Graph& graph) {
  std::unordered_set<std::string> actor_names;
  for (const ActorId id : graph.actor_ids()) {
    const Actor& a = graph.actor(id);
    if (a.name.empty()) throw GraphError("actor with empty name");
    if (!actor_names.insert(a.name).second) {
      throw GraphError("duplicate actor name '" + a.name + "'");
    }
    if (a.execution_times.empty()) {
      throw GraphError("actor '" + a.name + "' has no phases");
    }
    for (const i64 e : a.execution_times) {
      if (e < 1) {
        throw GraphError("actor '" + a.name +
                         "': every phase execution time must be >= 1");
      }
    }
  }
  std::unordered_set<std::string> channel_names;
  for (const ChannelId id : graph.channel_ids()) {
    const Channel& c = graph.channel(id);
    if (c.name.empty()) throw GraphError("channel with empty name");
    if (!channel_names.insert(c.name).second) {
      throw GraphError("duplicate channel name '" + c.name + "'");
    }
    if (c.production.size() != graph.actor(c.src).num_phases()) {
      throw GraphError("channel '" + c.name +
                       "': production vector length differs from the "
                       "source actor's phase count");
    }
    if (c.consumption.size() != graph.actor(c.dst).num_phases()) {
      throw GraphError("channel '" + c.name +
                       "': consumption vector length differs from the "
                       "destination actor's phase count");
    }
    for (const i64 r : c.production) {
      if (r < 0) throw GraphError("channel '" + c.name + "': negative rate");
    }
    for (const i64 r : c.consumption) {
      if (r < 0) throw GraphError("channel '" + c.name + "': negative rate");
    }
    if (c.total_production() < 1 || c.total_consumption() < 1) {
      throw GraphError("channel '" + c.name +
                       "': rates must be positive over a full phase cycle");
    }
    if (c.initial_tokens < 0) {
      throw GraphError("channel '" + c.name + "': initial tokens must be >= 0");
    }
  }
}

Graph from_sdf(const sdf::Graph& graph) {
  Graph out(graph.name() + "_csdf");
  for (const sdf::ActorId a : graph.actor_ids()) {
    out.add_actor(Actor{.name = graph.actor(a).name,
                        .execution_times = {graph.actor(a).execution_time}});
  }
  for (const sdf::ChannelId c : graph.channel_ids()) {
    const sdf::Channel& ch = graph.channel(c);
    out.add_channel(Channel{
        .name = ch.name,
        .src = ch.src,
        .dst = ch.dst,
        .production = {ch.production},
        .consumption = {ch.consumption},
        .initial_tokens = ch.initial_tokens,
    });
  }
  return out;
}

}  // namespace buffy::csdf
