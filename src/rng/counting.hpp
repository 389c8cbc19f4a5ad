// rng/counting.hpp
//
// A transparent adaptor that counts how many 64-bit words an algorithm draws
// from its engine.  "Random numbers" is one of the four resources Theorem 1
// budgets at O(m) per processor, and Section 3 reports the measured budget of
// the hypergeometric sampler (< 1.5 average, 10 worst case per sample);
// experiment E3 and several property tests reproduce those numbers with this
// adaptor.
#pragma once

#include <cstdint>
#include <utility>

#include "rng/engine.hpp"

namespace cgp::rng {

template <random_engine64 Engine>
class counting_engine {
 public:
  using result_type = std::uint64_t;

  counting_engine() = default;
  explicit counting_engine(const Engine& engine) noexcept : engine_(engine) {}

  result_type operator()() noexcept(noexcept(std::declval<Engine&>()())) {
    ++count_;
    return engine_();
  }

  static constexpr result_type min() noexcept { return Engine::min(); }
  static constexpr result_type max() noexcept { return Engine::max(); }

  /// Number of 64-bit words drawn since construction / last reset.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  void reset_count() noexcept { count_ = 0; }

  [[nodiscard]] Engine& base() noexcept { return engine_; }
  [[nodiscard]] const Engine& base() const noexcept { return engine_; }

 private:
  Engine engine_{};
  std::uint64_t count_ = 0;
};

}  // namespace cgp::rng
