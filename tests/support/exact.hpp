// tests/support/exact.hpp
//
// Exact rational hypergeometric probabilities for small parameters, in
// 128-bit integer arithmetic.  The floating-point pmf (hyp/pmf.hpp) runs
// through lgamma and accumulates ~1e-13 relative error; for the statistical
// machinery that is ample, but the *test-suite* wants an independent,
// error-free oracle to validate the float path against.  C(n, k) fits in
// unsigned __int128 up to n = 128, which covers every exhaustively tested
// configuration.
#pragma once

#include <cstdint>
#include <numeric>

#include "hyp/pmf.hpp"
#include "util/assert.hpp"

namespace cgp::hyp {

using u128 = unsigned __int128;

/// Exact binomial coefficient C(n, k); requires the result to fit in 128
/// bits (guaranteed for n <= 128).  Each step divides out gcd factors
/// BEFORE multiplying so the intermediate never exceeds ~128x the final
/// value's reduced form -- without this, C(128, 64)'s last step would
/// overflow even though the result fits.
[[nodiscard]] constexpr u128 choose_exact(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  u128 result = 1;
  // Invariant: after step i, result == C(n - k + i, i) exactly.
  for (std::uint64_t i = 1; i <= k; ++i) {
    std::uint64_t mult = n - k + i;
    std::uint64_t divisor = i;
    const std::uint64_t g = std::gcd(mult, divisor);
    mult /= g;
    divisor /= g;
    // divisor is now coprime to mult, so it must divide the accumulated
    // result (C(n-k+i, i) is integral).
    CGP_ASSERT_DBG(divisor == 0 || result % divisor == 0);
    result /= divisor;
    result *= mult;
  }
  return result;
}

/// Exact probability of h(t,w,b) at k, as a reduced-by-construction pair
/// (numerator, denominator): C(w,k) * C(b,t-k) / C(w+b,t).
struct exact_prob {
  u128 num;
  u128 den;

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(num) / static_cast<double>(den);
  }
};

/// Exact pmf value.  Requires w + b <= 128 so all binomials fit.
[[nodiscard]] constexpr exact_prob pmf_exact(const params& p, std::uint64_t k) noexcept {
  CGP_ASSERT_DBG(p.w + p.b <= 128);
  if (k < support_min(p) || k > support_max(p)) return {0, 1};
  return {choose_exact(p.w, k) * choose_exact(p.b, p.t - k), choose_exact(p.w + p.b, p.t)};
}

/// Exact number of permutations of n items whose communication matrix has
/// entry pattern... exposed piece: the count C(w,k)C(b,t-k) itself, used by
/// the matrix-law tests to cross-check comm_matrix::log_probability.
[[nodiscard]] constexpr u128 ways_exact(const params& p, std::uint64_t k) noexcept {
  if (k < support_min(p) || k > support_max(p)) return 0;
  return choose_exact(p.w, k) * choose_exact(p.b, p.t - k);
}

}  // namespace cgp::hyp
