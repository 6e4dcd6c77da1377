// tests/support/smp_reference.hpp
//
// The shared-memory recursion in its plainest form, kept as a
// differential oracle for smp::engine and the distributed cgm engine:
// every split node runs the in-place smp::parallel_split (scatter, then
// copy back), every leaf Fisher-Yates draws from the scalar
// smp::detail::node_engine.  The engines instead alternate the data and
// scratch buffers per level and draw leaves from rng::batched_philox;
// since items move by position and the batched engine replays the scalar
// words, both must produce this oracle's permutation bit for bit.
// Sequential and unoptimized on purpose.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "rng/philox.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/engine.hpp"
#include "smp/parallel_split.hpp"

namespace cgp::test_support {

/// In-place recursion below `node`: split while above the cache cutoff,
/// scalar-engine Fisher-Yates once a bucket fits.
template <typename T>
void reference_subtree(std::span<T> data, std::span<T> scratch, std::uint64_t seed,
                       std::uint64_t node, const smp::engine_options& opt) {
  if (data.size() <= opt.cache_items || data.size() < 2) {
    auto e = smp::detail::node_engine(seed, node, smp::detail::kLeafSalt);
    seq::fisher_yates(e, data);
    return;
  }
  smp::split_options sopt;
  sopt.fan_out = opt.fan_out;
  sopt.sampling = opt.sampling;
  const std::vector<std::uint64_t> off =
      smp::parallel_split(nullptr, data, scratch, seed, node, sopt);
  for (std::size_t j = 0; j + 1 < off.size(); ++j) {
    const auto lo = static_cast<std::size_t>(off[j]);
    const auto len = static_cast<std::size_t>(off[j + 1] - off[j]);
    reference_subtree(data.subspan(lo, len), scratch.subspan(lo, len), seed,
                      smp::split_child_node(node, j, opt.fan_out), opt);
  }
}

/// What smp::engine(opt).random_permutation(n, seed) must return.
[[nodiscard]] inline std::vector<std::uint64_t> reference_smp_permutation(
    std::uint64_t n, std::uint64_t seed, const smp::engine_options& opt) {
  std::vector<std::uint64_t> pi(static_cast<std::size_t>(n));
  std::iota(pi.begin(), pi.end(), std::uint64_t{0});
  std::vector<std::uint64_t> scratch(pi.size());
  reference_subtree(std::span<std::uint64_t>(pi), std::span<std::uint64_t>(scratch), seed,
                    smp::kShuffleRoot, opt);
  return pi;
}

/// What backend::cgm with engine options `opt` must return, for any rank
/// count: the smp oracle above the cache cutoff; at or below it, one
/// Fisher-Yates on philox(seed, 0), the sequential backend's stream.
[[nodiscard]] inline std::vector<std::uint64_t> reference_cgm_permutation(
    std::uint64_t n, std::uint64_t seed, const smp::engine_options& opt) {
  if (n > opt.cache_items) return reference_smp_permutation(n, seed, opt);
  std::vector<std::uint64_t> pi(static_cast<std::size_t>(n));
  rng::philox4x64 e(seed, 0);
  seq::random_permutation(e, std::span<std::uint64_t>(pi));
  return pi;
}

}  // namespace cgp::test_support
