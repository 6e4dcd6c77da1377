// perfbench/src/common.hpp
//
// Pieces every workload shares: the clock, seed-derived input records and
// their permutation check, the in-memory span recorder of the traced run,
// the per-run result record, and the machine fingerprint.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "rng/splitmix64.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// A workload seed split into independent named streams (context seed,
/// server seed, record key, ...).
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed, std::uint64_t role) noexcept {
  return cgp::rng::mix64(cgp::rng::mix64(seed) ^ cgp::rng::mix64(role + 0x9E3779B97F4A7C15ull));
}

/// Input records of a workload: record i is key + i * mult (mod 2^64) with
/// an odd multiplier, a bijection of the index -- so any output can be
/// checked to be a permutation of the input in O(n) by inverting it.
class record_set {
 public:
  explicit record_set(std::uint64_t seed)
      : key_(derive(seed, 1)), mult_(derive(seed, 2) | 1), inv_(inverse(mult_)) {}

  [[nodiscard]] std::uint64_t at(std::uint64_t i) const noexcept { return key_ + i * mult_; }
  [[nodiscard]] std::uint64_t index_of(std::uint64_t v) const noexcept {
    return (v - key_) * inv_;
  }

  void fill(std::span<std::uint64_t> out) const noexcept {
    for (std::uint64_t i = 0; i < out.size(); ++i) out[i] = at(i);
  }

  /// True iff `out` holds every record 0..out.size()-1 exactly once.
  [[nodiscard]] bool is_permutation(std::span<const std::uint64_t> out) const {
    return check_indices(out, [this](std::uint64_t v) { return index_of(v); });
  }

  template <typename F>
  [[nodiscard]] static bool check_indices(std::span<const std::uint64_t> out, F&& index) {
    const std::uint64_t n = out.size();
    std::vector<std::uint64_t> seen((n + 63) / 64, 0);
    for (const std::uint64_t v : out) {
      const std::uint64_t i = index(v);
      if (i >= n) return false;
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if ((seen[i / 64] & bit) != 0) return false;
      seen[i / 64] |= bit;
    }
    return true;
  }

 private:
  /// Inverse of an odd number mod 2^64 (Newton: each step doubles the
  /// correct low bits, starting from 3 correct bits).
  [[nodiscard]] static std::uint64_t inverse(std::uint64_t a) noexcept {
    std::uint64_t x = a;
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  }

  std::uint64_t key_, mult_, inv_;
};

/// True iff `pi` is a permutation of {0..pi.size()-1}.
[[nodiscard]] inline bool is_identity_permutation(std::span<const std::uint64_t> pi) {
  return record_set::check_indices(pi, [](std::uint64_t v) { return v; });
}

/// Median of a sample (0 for an empty one).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Mean of a sample (0 for an empty one).
[[nodiscard]] inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// FNV-1a over the words of an output: the digest the seed tests compare.
[[nodiscard]] inline std::uint64_t digest(std::span<const std::uint64_t> v) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint64_t w : v) h = (h ^ w) * 0x100000001B3ull;
  return h;
}

/// One recorded span of the traced run.  Spans of one traced call share
/// `call`; `parent` names the span that caused it ("" for a root).
/// `weight` converts its duration into wall-clock-equivalent time: 1 on
/// the calling thread, 1/p inside a region where p pool workers run
/// concurrently.
struct span_record {
  std::string name;
  std::string parent;
  std::uint64_t call = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  double weight = 1.0;
};

/// In-memory span sink shared by the traced replays; written out once,
/// when the benchmark ends.
class tracer {
 public:
  /// Start a new traced call: later spans carry its id.
  void begin_call() { call_.fetch_add(1, std::memory_order_relaxed); }

  void add(std::string name, std::uint64_t start, std::uint64_t end, double weight = 1.0,
           std::string parent = "call") {
    const std::uint32_t tid = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF);
    const std::uint64_t call = call_.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({std::move(name), std::move(parent), call, start, end, tid, weight});
  }

  /// Write every span as a JSON array; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> call_{0};
  std::mutex m_;
  std::vector<span_record> spans_;
};

/// A request class: the clients that send it, their request size, and
/// the wall time the class was measured over.  Requests are logged flat
/// (result::request_client / request_latency_ns); perfbench/run.py splits
/// them into classes by client id.
struct request_class {
  std::string name;
  std::uint64_t n = 0;  ///< items per request
  std::vector<std::uint32_t> clients;
  double window_s = 0.0;
};

/// One named per-layer number with its unit.
struct layer_metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run of one workload reports; rendered as one JSON
/// object by to_json() for perfbench/run.py to aggregate.
struct result {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::vector<double> setup_s;
  std::vector<request_class> classes;
  std::vector<std::uint32_t> request_client;
  std::vector<std::uint64_t> request_latency_ns;
  std::vector<std::pair<std::string, cgp::core::permutation_plan>> plans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< threw (failed or rejected)
  std::uint64_t wrong = 0;       ///< returned an output that is not correct
  std::vector<std::string> checks;  ///< what was verified, in words
  std::vector<layer_metric> layers;
  /// Peak RSS once the first set-up is done: stable from run to run,
  /// unlike the whole-run peak, which also holds whatever freed blocks the
  /// allocator kept cached per thread at the worst moment.
  std::uint64_t setup_peak_rss_kib = 0;
  std::uint64_t peak_rss_kib = 0;  ///< whole-run peak (reported, not gated)
  std::uint64_t digest = 0;

  void log_request(std::uint32_t client, std::uint64_t latency_ns) {
    request_client.push_back(client);
    request_latency_ns.push_back(latency_ns);
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string to_json() const;
};

/// Options every workload receives.
struct run_options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrink every input by 2^scale_shift (the seed tests run tiny inputs).
  unsigned scale_shift = 0;
  /// Only run one call and report its output digest.
  bool digest_only = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Set-ups per untraced run, each followed by an equal share of the
/// measuring; setup_s is their median.  The traced and digest runs set up
/// once.
inline constexpr std::uint32_t kSetups = 5;

[[nodiscard]] std::uint64_t peak_rss_kib();
[[nodiscard]] std::string fingerprint_json();

// The workloads (one translation unit each).
result run_shuffle_ram(const run_options& opt, tracer& tr);
result run_shuffle_out_of_core(const run_options& opt, tracer& tr);
result run_shuffle_distributed(const run_options& opt, tracer& tr);
result run_service_mixed(const run_options& opt, tracer& tr);

}  // namespace perfbench
