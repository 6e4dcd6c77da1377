// Tests for the auxiliary modules: exact 128-bit hypergeometric
// probabilities (the float oracle's oracle), Sattolo's cyclic shuffle, and
// the run-structure randomness tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "hyp/pmf.hpp"
#include "rng/philox.hpp"
#include "seq/baselines.hpp"
#include "seq/fisher_yates.hpp"
#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"
#include "stats/runs.hpp"
#include "support/exact.hpp"
#include "support/sattolo.hpp"

namespace {

using namespace cgp;

// --- exact binomials / pmf -----------------------------------------------------

TEST(Exact, ChooseKnownValues) {
  EXPECT_EQ(static_cast<std::uint64_t>(hyp::choose_exact(5, 2)), 10u);
  EXPECT_EQ(static_cast<std::uint64_t>(hyp::choose_exact(52, 5)), 2598960u);
  EXPECT_EQ(static_cast<std::uint64_t>(hyp::choose_exact(10, 0)), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(hyp::choose_exact(10, 10)), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(hyp::choose_exact(3, 7)), 0u);
}

TEST(Exact, ChoosePascalIdentity) {
  for (std::uint64_t n = 1; n <= 40; ++n)
    for (std::uint64_t k = 1; k <= n; ++k)
      EXPECT_EQ(hyp::choose_exact(n, k),
                hyp::choose_exact(n - 1, k - 1) + hyp::choose_exact(n - 1, k));
}

TEST(Exact, Choose128FitsAndIsSymmetric) {
  // C(128, 64) ~ 2.4e37 < 2^128 ~ 3.4e38.
  const auto big = hyp::choose_exact(128, 64);
  EXPECT_GT(static_cast<double>(big), 2e37);
  EXPECT_EQ(hyp::choose_exact(128, 64), hyp::choose_exact(128, 64));
  EXPECT_EQ(hyp::choose_exact(100, 30), hyp::choose_exact(100, 70));
}

TEST(Exact, PmfSumsToExactlyOne) {
  const hyp::params p{20, 30, 40};
  hyp::u128 num = 0;
  const hyp::u128 den = hyp::choose_exact(70, 20);
  for (std::uint64_t k = hyp::support_min(p); k <= hyp::support_max(p); ++k)
    num += hyp::ways_exact(p, k);
  EXPECT_TRUE(num == den) << "sum of ways must equal C(n, t) exactly";
}

TEST(Exact, FloatPmfAgreesWithExactOracle) {
  // The lgamma-based pmf must match the exact rational to ~1e-12 relative
  // across full supports of several parameter sets.
  for (const auto& p : {hyp::params{10, 20, 30}, hyp::params{25, 60, 60},
                        hyp::params{64, 64, 64}, hyp::params{7, 3, 100}}) {
    for (std::uint64_t k = hyp::support_min(p); k <= hyp::support_max(p); ++k) {
      const double exact = hyp::pmf_exact(p, k).to_double();
      const double approx = hyp::pmf(p, k);
      EXPECT_NEAR(approx, exact, 1e-11 * exact + 1e-300)
          << "t=" << p.t << " w=" << p.w << " b=" << p.b << " k=" << k;
    }
  }
}

TEST(Exact, CdfAgreesWithExactPartialSums) {
  const hyp::params p{30, 50, 40};
  double exact_acc = 0.0;
  for (std::uint64_t k = hyp::support_min(p); k <= hyp::support_max(p); ++k) {
    exact_acc += hyp::pmf_exact(p, k).to_double();
    EXPECT_NEAR(hyp::cdf(p, k), exact_acc, 1e-11);
  }
}

// --- Sattolo ----------------------------------------------------------------------

TEST(Sattolo, AlwaysSingleCycle) {
  rng::philox4x64 e(1, 0);
  for (const std::size_t n : {2u, 3u, 5u, 17u, 100u}) {
    std::vector<std::uint64_t> v(n);
    seq::random_cyclic_permutation(e, v);
    EXPECT_TRUE(stats::is_permutation_of_iota(v));
    EXPECT_EQ(stats::count_cycles(v), 1u) << "n=" << n;
    EXPECT_EQ(stats::count_fixed_points(v), 0u);
  }
}

TEST(Sattolo, UniformOverCyclicS4) {
  // 4 items: (4-1)! = 6 cyclic permutations; chi-square over them.
  rng::philox4x64 e(2, 0);
  std::map<std::uint64_t, std::uint64_t> hist;
  std::vector<std::uint64_t> v(4);
  for (int rep = 0; rep < 6000; ++rep) {
    seq::random_cyclic_permutation(e, v);
    ++hist[stats::permutation_rank(v)];
  }
  ASSERT_EQ(hist.size(), 6u) << "exactly the 6 4-cycles must appear";
  std::vector<std::uint64_t> counts;
  for (const auto& [rank, c] : hist) counts.push_back(c);
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

TEST(Sattolo, IsNotUniformOverAllPermutations) {
  // Negative control: as a sample of ALL 4! permutations, Sattolo output
  // must fail chi-square catastrophically (18 of 24 cells are empty).
  rng::philox4x64 e(3, 0);
  std::vector<std::uint64_t> counts(24, 0);
  std::vector<std::uint64_t> v(4);
  for (int rep = 0; rep < 6000; ++rep) {
    seq::random_cyclic_permutation(e, v);
    ++counts[stats::permutation_rank(v)];
  }
  EXPECT_LT(stats::chi_square_uniform(counts).p_value, 1e-12);
}

TEST(Sattolo, TrivialSizes) {
  rng::philox4x64 e(4, 0);
  std::vector<std::uint64_t> empty;
  seq::sattolo(e, std::span<std::uint64_t>(empty));
  std::vector<std::uint64_t> one{0};
  seq::sattolo(e, std::span<std::uint64_t>(one));
  EXPECT_EQ(one[0], 0u);
}

// --- runs tests -----------------------------------------------------------------

TEST(Runs, AscendingRunsHandCases) {
  EXPECT_EQ(stats::ascending_runs(std::vector<std::uint64_t>{}), 0u);
  EXPECT_EQ(stats::ascending_runs(std::vector<std::uint64_t>{5}), 1u);
  EXPECT_EQ(stats::ascending_runs(std::vector<std::uint64_t>{1, 2, 3}), 1u);
  EXPECT_EQ(stats::ascending_runs(std::vector<std::uint64_t>{3, 2, 1}), 3u);
  EXPECT_EQ(stats::ascending_runs(std::vector<std::uint64_t>{1, 3, 2, 4}), 2u);
}

TEST(Runs, UniformShuffleHasExpectedRunCount) {
  rng::philox4x64 e(5, 0);
  const std::size_t n = 4096;
  std::vector<std::uint64_t> v(n);
  double zsum = 0.0;
  const int reps = 200;
  for (int rep = 0; rep < reps; ++rep) {
    std::iota(v.begin(), v.end(), 0);
    seq::fisher_yates(e, std::span<std::uint64_t>(v));
    zsum += stats::ascending_runs_z(v);
  }
  // Mean of reps z-scores ~ N(0, 1/reps).
  EXPECT_LT(std::fabs(zsum / reps), 6.0 / std::sqrt(static_cast<double>(reps)));
}

TEST(Runs, SortedInputFailsEverything) {
  std::vector<std::uint64_t> v(1024);
  std::iota(v.begin(), v.end(), 0);
  EXPECT_EQ(stats::ascending_runs(v), 1u);
  EXPECT_LT(stats::ascending_runs_z(v), -30.0);
  const auto rt = stats::runs_test_median(v);
  EXPECT_LT(rt.p_value, 1e-12);
  EXPECT_GT(stats::serial_correlation(v), 0.9);
}

TEST(Runs, UnderIteratedRifflePassesChiSquareCellsButFailsRunsTest) {
  // The complementary-instrument argument: bin a 2-round riffle's values
  // into 16 coarse position buckets for one tracked item and chi-square it
  // -- often unremarkable -- but the run structure gives it away
  // immediately.
  rng::philox4x64 e(6, 0);
  const std::size_t n = 4096;
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  seq::riffle_shuffle(e, std::span<std::uint64_t>(v), 2);
  const double z = stats::ascending_runs_z(v);
  EXPECT_LT(z, -20.0) << "2 riffle rounds leave ~4x fewer runs than uniform";
}

TEST(Runs, MedianRunsTestAcceptsUniform) {
  rng::philox4x64 e(7, 0);
  std::vector<std::uint64_t> v(4096);
  std::iota(v.begin(), v.end(), 0);
  seq::fisher_yates(e, std::span<std::uint64_t>(v));
  EXPECT_GT(stats::runs_test_median(v).p_value, 1e-6);
}

TEST(Runs, SerialCorrelationNearZeroForUniform) {
  rng::philox4x64 e(8, 0);
  std::vector<std::uint64_t> v(8192);
  std::iota(v.begin(), v.end(), 0);
  seq::fisher_yates(e, std::span<std::uint64_t>(v));
  EXPECT_LT(std::fabs(stats::serial_correlation(v)), 6.0 / std::sqrt(8192.0));
}

TEST(Runs, ExtremeSequencesHitBothTails) {
  // Strictly descending: every adjacent pair is a descent -> n runs, the
  // maximum; z must be far in the upper tail (and serial correlation is
  // +1: descending is still perfectly linearly dependent).
  std::vector<std::uint64_t> desc(512);
  for (std::size_t i = 0; i < desc.size(); ++i) desc[i] = desc.size() - i;
  EXPECT_EQ(stats::ascending_runs(desc), desc.size());
  EXPECT_GT(stats::ascending_runs_z(desc), 30.0);
  EXPECT_GT(stats::serial_correlation(desc), 0.9);

  // High-low interleave (n/2, 0, n/2+1, 1, ...): run count is ~n/2 (null-
  // like!) but the lag-1 correlation is strongly negative -- the reason
  // the suite carries several complementary instruments.
  std::vector<std::uint64_t> zigzag;
  for (std::uint64_t i = 0; i < 256; ++i) {
    zigzag.push_back(256 + i);
    zigzag.push_back(i);
  }
  EXPECT_LT(stats::serial_correlation(zigzag), -0.5);
  EXPECT_LT(stats::runs_test_median(zigzag).p_value, 1e-12);
}

}  // namespace
