// Tests for the native shared-memory execution engine (src/smp/): the
// thread pool substrate, the parallel hypergeometric split, exhaustive
// uniformity of the engine over S4/S5, bit-reproducibility across thread
// counts, and each backend's whole-vector path through cgp::context.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/context.hpp"
#include "core/driver.hpp"
#include "rng/philox.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/engine.hpp"
#include "smp/parallel_split.hpp"
#include "smp/thread_pool.hpp"
#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"
#include "support/perm_check.hpp"
#include "support/smp_reference.hpp"

namespace {

using namespace cgp;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsFutureValue) {
  smp::thread_pool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  smp::thread_pool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  smp::thread_pool pool(4);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  smp::thread_pool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  smp::thread_pool pool(1);  // a single worker: waiting inside it would hang
  auto f = pool.submit([&]() {
    std::atomic<std::size_t> covered{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) { covered += hi - lo; });
    return covered.load();
  });
  EXPECT_EQ(f.get(), 100u);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  smp::thread_pool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10, [](std::size_t, std::size_t) { throw std::invalid_argument("x"); }),
      std::invalid_argument);
}

// --- parallel split ----------------------------------------------------------

TEST(ParallelSplit, PreservesContentAndReturnsConsistentOffsets) {
  smp::thread_pool pool(3);
  constexpr std::size_t n = 10'000;
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  std::vector<std::uint64_t> scratch(n);
  smp::split_options opt;
  opt.fan_out = 16;
  const auto off = smp::parallel_split(&pool, std::span<std::uint64_t>(v),
                                       std::span<std::uint64_t>(scratch), /*seed=*/7,
                                       /*node=*/1, opt);
  ASSERT_EQ(off.size(), 17u);
  EXPECT_EQ(off.front(), 0u);
  EXPECT_EQ(off.back(), n);
  for (std::size_t j = 0; j + 1 < off.size(); ++j) EXPECT_LE(off[j], off[j + 1]);
  EXPECT_TRUE(stats::is_permutation_of_iota(v));  // multiset preserved
}

TEST(ParallelSplit, SequentialAndPooledExecutionsAreBitIdentical) {
  constexpr std::size_t n = 4'096;
  std::vector<std::uint64_t> a(n);
  std::iota(a.begin(), a.end(), 0);
  std::vector<std::uint64_t> b = a;
  std::vector<std::uint64_t> scratch(n);
  smp::split_options opt;
  opt.fan_out = 8;
  const auto off_seq = smp::parallel_split<std::uint64_t>(nullptr, a, scratch, 11, 1, opt);
  smp::thread_pool pool(4);
  const auto off_par = smp::parallel_split<std::uint64_t>(&pool, b, scratch, 11, 1, opt);
  EXPECT_EQ(off_seq, off_par);
  EXPECT_EQ(a, b);
}

// --- engine: correctness and uniformity --------------------------------------

TEST(SmpEngine, PermutesContentWithDeepRecursion) {
  smp::engine_options opt;
  opt.threads = 4;
  opt.fan_out = 4;
  opt.cache_items = 64;  // force several recursion levels at n = 200k
  smp::engine eng(opt);
  auto pi = eng.random_permutation(200'000, /*seed=*/1);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

TEST(SmpEngine, SmallInputFallsBackToLeafShuffle) {
  smp::engine eng;  // default cache_items far above n
  auto pi = eng.random_permutation(100, 3);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
  std::vector<int> one{9};
  eng.shuffle(std::span<int>(one), 4);
  EXPECT_EQ(one[0], 9);
  std::vector<int> empty;
  eng.shuffle(std::span<int>(empty), 5);
}

// Shared exhaustive-uniformity harness (tests/support/perm_check.hpp) with
// every rep on a distinct seed: independent runs of the whole parallel
// pipeline.
stats::gof_result engine_uniformity_gof(const smp::engine_options& opt, unsigned k, int reps,
                                        std::uint64_t seed0) {
  smp::engine eng(opt);
  return test_support::uniformity_gof(
      [&](std::span<std::uint64_t> v, int rep) {
        eng.shuffle(v, seed0 + static_cast<std::uint64_t>(rep));
      },
      k, reps);
}

TEST(SmpEngine, UniformOverS5WithBinaryRecursion) {
  smp::engine_options opt;
  opt.threads = 2;
  opt.fan_out = 2;     // binary splits
  opt.cache_items = 2; // recursion all the way down even for k = 5
  const auto res = engine_uniformity_gof(opt, 5, 120 * 100, 1000);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(SmpEngine, UniformOverS4WideFanOut) {
  smp::engine_options opt;
  opt.threads = 2;
  opt.fan_out = 8;  // clamped to n = 4 buckets of one item each
  opt.cache_items = 2;
  const auto res = engine_uniformity_gof(opt, 4, 24 * 400, 2000);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(SmpEngine, SingleItemPositionUniformInLargeShuffle) {
  smp::engine_options opt;
  opt.threads = 2;
  opt.fan_out = 4;
  opt.cache_items = 8;
  smp::engine eng(opt);
  const auto res = test_support::position_uniformity_gof(
      [&](std::span<std::uint64_t> v, int rep) {
        eng.shuffle(v, 3000 + static_cast<std::uint64_t>(rep));
      },
      64, 16'000);
  EXPECT_GT(res.p_value, 1e-9);
}

// --- engine: reproducibility -------------------------------------------------

TEST(SmpEngine, BitReproducibleAcrossThreadCounts) {
  constexpr std::uint64_t n = 50'000;
  constexpr std::uint64_t seed = 0xDEC0DEull;
  const unsigned threads[] = {1u, 2u, 4u, 8u};
  test_support::expect_bit_identical(
      std::size(threads),
      [&](std::size_t i) {
        smp::engine_options opt;
        opt.fan_out = 8;
        opt.cache_items = 64;  // deep recursion so every code path is exercised
        opt.threads = threads[i];
        smp::engine eng(opt);
        return eng.random_permutation(n, seed);
      },
      "smp thread count");
}

TEST(SmpEngine, RepeatedCallsWithSameSeedAgree) {
  smp::engine_options opt;
  opt.threads = 4;
  opt.fan_out = 4;
  opt.cache_items = 256;
  smp::engine eng(opt);
  EXPECT_EQ(eng.random_permutation(10'000, 5), eng.random_permutation(10'000, 5));
}

TEST(SmpEngine, DifferentSeedsProduceDifferentPermutations) {
  smp::engine eng;
  EXPECT_NE(eng.random_permutation(1'000, 1), eng.random_permutation(1'000, 2));
}

// --- engine vs the in-place, scalar-leaf reference recursion ------------------

// The engines alternate data and scratch per level and draw leaves from the
// batched keystream; tests/support/smp_reference.hpp is the plain in-place
// recursion on scalar engines.  The grid puts leaves at odd and even depth
// (so both the in-place and the copy-home leaf run), ragged bucket sizes
// (odd n, fan_out 3), the root-leaf case (n <= cache_items), and the
// one-item cutoff that recurses all the way down.
TEST(SmpEngine, MatchesInPlaceScalarReferenceBitForBit) {
  constexpr std::uint64_t seed = 0x5EF0;
  for (const std::uint32_t fan_out : {2u, 3u, 16u}) {
    for (const std::size_t cache_items : {std::size_t{2}, std::size_t{7}, std::size_t{4096}}) {
      smp::engine_options opt;
      opt.fan_out = fan_out;
      opt.cache_items = cache_items;
      opt.threads = 1;
      smp::engine one_thread(opt);
      opt.threads = 4;
      smp::engine four_threads(opt);
      for (const std::uint64_t n : {2ull, 17ull, 1000ull, 65537ull, (1ull << 18) + 5}) {
        const auto want = test_support::reference_smp_permutation(n, seed + n, opt);
        for (smp::engine* eng : {&one_thread, &four_threads}) {
          EXPECT_EQ(eng->random_permutation(n, seed + n), want)
              << "smp n=" << n << " fan_out=" << fan_out << " cache_items=" << cache_items
              << " threads=" << eng->threads();
        }
        const auto want_cgm = test_support::reference_cgm_permutation(n, seed + n, opt);
        for (const std::uint32_t ranks : {1u, 3u}) {
          context_options copt;
          copt.which = core::backend::cgm;
          copt.parallelism = ranks;
          copt.engine.cgm_engine.engine = opt;
          const context ctx(copt);
          EXPECT_EQ(ctx.random_permutation(n, seed + n), want_cgm)
              << "cgm n=" << n << " fan_out=" << fan_out << " cache_items=" << cache_items
              << " ranks=" << ranks;
        }
      }
    }
  }
}

// --- backends through the context --------------------------------------------

TEST(Backend, SmpDispatchMatchesDirectEngineOnSameSeed) {
  context_options copt;
  copt.which = core::backend::smp;
  copt.parallelism = 2;
  copt.engine.smp_engine.fan_out = 8;
  copt.engine.smp_engine.cache_items = 128;
  const context ctx(copt);
  const auto via_dispatch = ctx.random_permutation(20'000, 77);

  smp::engine_options eopt = copt.engine.smp_engine;
  eopt.threads = 2;
  smp::engine eng(eopt);
  EXPECT_EQ(via_dispatch, eng.random_permutation(20'000, 77));
}

TEST(Backend, SmpDispatchReusesProvidedEngine) {
  smp::engine_options eopt;
  eopt.threads = 2;
  eopt.cache_items = 64;
  smp::engine eng(eopt);
  context_options copt;
  copt.which = core::backend::smp;
  copt.engine.engine = &eng;
  const context ctx(copt);
  EXPECT_EQ(ctx.random_permutation(5'000, 123), eng.random_permutation(5'000, 123));
}

TEST(Backend, CgmDispatchMatchesPermuteGlobalOnSameSeed) {
  context_options copt;
  copt.which = core::backend::cgm_simulator;
  copt.parallelism = 4;
  const context ctx(copt);
  const auto via_dispatch = ctx.random_permutation(4'000, 99);

  cgm::machine mach(4, 99);
  const auto direct = core::random_permutation_global(mach, 4'000);
  EXPECT_EQ(via_dispatch, direct);
}

TEST(Backend, SequentialDispatchMatchesFisherYates) {
  context_options copt;
  copt.which = core::backend::sequential;
  const context ctx(copt);
  const auto via_dispatch = ctx.random_permutation(1'000, 1234);

  rng::philox4x64 e(1234, 0);
  std::vector<std::uint64_t> direct(1'000);
  seq::random_permutation(e, direct);
  EXPECT_EQ(via_dispatch, direct);
}

TEST(Backend, AllBackendsProduceValidPermutations) {
  for (const auto b : {core::backend::cgm_simulator, core::backend::smp, core::backend::em,
                       core::backend::cgm, core::backend::sequential}) {
    context_options copt;
    copt.which = b;
    copt.parallelism = 2;
    copt.engine.em_block_items = 64;  // keep the device tiny for n = 997
    copt.engine.em_engine.memory_items = 256;  // force the out-of-core path
    const context ctx(copt);
    const auto pi = ctx.random_permutation(997, copt.seed);  // prime: general-margins CGM path
    EXPECT_TRUE(stats::is_permutation_of_iota(pi)) << core::backend_name(b);
  }
}

TEST(Backend, NamesAreStable) {
  EXPECT_STREQ(core::backend_name(core::backend::cgm_simulator), "cgm_sim");
  EXPECT_STREQ(core::backend_name(core::backend::cgm), "cgm");
  EXPECT_STREQ(core::backend_name(core::backend::smp), "smp");
  EXPECT_STREQ(core::backend_name(core::backend::em), "em");
  EXPECT_STREQ(core::backend_name(core::backend::sequential), "seq");
}

}  // namespace
