// tests/support/sattolo.hpp
//
// Sattolo's algorithm: the one-line sibling of Fisher-Yates that samples
// uniformly from the (n-1)! cyclic permutations (single n-cycles) instead
// of all n! permutations.  A test-suite *negative* control: a correct
// uniformity test must reject Sattolo output as a sample of all
// permutations, and accept it as a sample of cyclic ones.
#pragma once

#include <span>
#include <utility>

#include "rng/engine.hpp"
#include "rng/uniform.hpp"

namespace cgp::seq {

/// In-place uniform random *cyclic* permutation of `data` (single n-cycle
/// for n >= 2; identity for n <= 1).  Exactly n-1 bounded-uniform draws.
template <typename T, rng::random_engine64 Engine>
void sattolo(Engine& engine, std::span<T> data) {
  for (std::size_t i = data.size(); i > 1; --i) {
    // The only difference from Fisher-Yates: j < i-1, never i-1 itself.
    const auto j = static_cast<std::size_t>(rng::uniform_below(engine, i - 1));
    using std::swap;
    swap(data[i - 1], data[j]);
  }
}

/// Sample a uniform cyclic permutation of {0..n-1} into `out`.
template <rng::random_engine64 Engine>
void random_cyclic_permutation(Engine& engine, std::span<std::uint64_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  sattolo(engine, out);
}

}  // namespace cgp::seq
