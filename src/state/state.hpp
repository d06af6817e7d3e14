// Timed SDF states and channel capacities (paper Def. 5).
//
// The state of a timed SDF graph is the tuple (t_1..t_n, s_1..s_m): the
// remaining execution time of every actor (0 when idle) and the number of
// tokens stored in every channel. States are the keys of the reduced
// state-space hash table used for cycle detection (Sec. 7).
#pragma once

#include <span>
#include <vector>

#include "base/checked_math.hpp"
#include "base/hash.hpp"

namespace buffy::state {

/// Per-channel storage capacities; a channel is either bounded by a
/// non-negative token capacity or unbounded.
class Capacities {
 public:
  /// All channels unbounded.
  [[nodiscard]] static Capacities unbounded(std::size_t num_channels);

  /// All channels bounded by the given capacities (>= 0 each).
  [[nodiscard]] static Capacities bounded(std::vector<i64> caps);

  [[nodiscard]] std::size_t size() const { return caps_.size(); }
  [[nodiscard]] bool is_bounded(std::size_t channel) const;
  /// Capacity of a bounded channel.
  [[nodiscard]] i64 capacity(std::size_t channel) const;

 private:
  static constexpr i64 kUnbounded = -1;
  explicit Capacities(std::vector<i64> caps) : caps_(std::move(caps)) {}

  std::vector<i64> caps_;
};

/// A timed SDF state: actor clocks followed by channel token counts, stored
/// contiguously for cheap hashing and equality.
class TimedState {
 public:
  TimedState() = default;
  TimedState(std::span<const i64> clocks, std::span<const i64> tokens);

  [[nodiscard]] std::size_t num_actors() const { return num_actors_; }
  [[nodiscard]] std::size_t num_channels() const {
    return words_.size() - num_actors_;
  }

  /// Remaining firing time of actor i (0 = idle).
  [[nodiscard]] i64 clock(std::size_t i) const { return words_[i]; }
  /// Tokens stored in channel i.
  [[nodiscard]] i64 tokens(std::size_t i) const {
    return words_[num_actors_ + i];
  }

  [[nodiscard]] std::span<const i64> words() const { return words_; }

  [[nodiscard]] u64 hash() const { return hash_words(words_); }

  friend bool operator==(const TimedState&, const TimedState&) = default;

 private:
  std::vector<i64> words_;
  std::size_t num_actors_ = 0;
};

}  // namespace buffy::state
