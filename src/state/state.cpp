#include "state/state.hpp"

#include "base/diagnostics.hpp"

namespace buffy::state {

Capacities Capacities::unbounded(std::size_t num_channels) {
  return Capacities(std::vector<i64>(num_channels, kUnbounded));
}

Capacities Capacities::bounded(std::vector<i64> caps) {
  for (const i64 c : caps) {
    BUFFY_REQUIRE(c >= 0, "channel capacities must be >= 0");
  }
  return Capacities(std::move(caps));
}

bool Capacities::is_bounded(std::size_t channel) const {
  BUFFY_REQUIRE(channel < caps_.size(), "channel index out of range");
  return caps_[channel] != kUnbounded;
}

i64 Capacities::capacity(std::size_t channel) const {
  BUFFY_REQUIRE(channel < caps_.size(), "channel index out of range");
  BUFFY_REQUIRE(caps_[channel] != kUnbounded,
                "capacity() called on an unbounded channel");
  return caps_[channel];
}

TimedState::TimedState(std::span<const i64> clocks, std::span<const i64> tokens)
    : num_actors_(clocks.size()) {
  words_.reserve(clocks.size() + tokens.size());
  words_.insert(words_.end(), clocks.begin(), clocks.end());
  words_.insert(words_.end(), tokens.begin(), tokens.end());
}

}  // namespace buffy::state
