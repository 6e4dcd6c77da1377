// em/shuffle.hpp
//
// The external-memory baseline the paper's Section 6 outlook warns about,
// in the Aggarwal-Vitter I/O model (n items, M items of memory, B items
// per block): `naive_em_fisher_yates` runs the textbook shuffle through an
// LRU buffer pool.  Once n >> M almost every swap touches a cold block:
// Theta(n) transfers.  The coarse-grained out-of-core engine that needs
// only O((n/B) log_K (n/M)) transfers is em::async_em_shuffle
// (em/async_shuffle.hpp); bench e12 tabulates the two across (n, M, B).
#pragma once

#include <cstdint>

#include "em/block_device.hpp"
#include "rng/engine.hpp"
#include "rng/uniform.hpp"
#include "util/assert.hpp"

namespace cgp::em {

/// Outcome of an external shuffle.
struct em_report {
  std::uint64_t block_transfers = 0;  ///< total device reads + writes
  std::uint32_t levels = 0;           ///< deepest distribution level used
  std::uint64_t rng_words = 0;        ///< random words consumed (if counted)
};

/// The baseline: textbook Fisher-Yates through an LRU buffer pool of
/// `frames` blocks.  Theta(n) transfers once n >> frames * B.
template <rng::random_engine64 Engine>
[[nodiscard]] em_report naive_em_fisher_yates(Engine& engine, block_device& dev, std::uint64_t n,
                                              std::uint32_t frames) {
  CGP_EXPECTS(n <= dev.item_capacity());
  em_report report;
  const std::uint64_t before = dev.stats().transfers();
  {
    buffer_pool pool(dev, frames);
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = rng::uniform_below(engine, i);
      ++report.rng_words;
      const std::uint64_t a = pool.read_item(i - 1);
      const std::uint64_t bv = pool.read_item(j);
      pool.write_item(i - 1, bv);
      pool.write_item(j, a);
    }
    // pool flushes on destruction
  }
  report.block_transfers = dev.stats().transfers() - before;
  return report;
}

}  // namespace cgp::em
