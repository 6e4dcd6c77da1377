// perfbench/src/smp_replay.hpp
//
// The traced replay of the smp engine: smp::engine::shuffle's recursion
// (smp/engine.hpp, shuffle_subtree) re-driven from outside the library
// through the same public calls -- smp::parallel_split for every split
// node, seq::fisher_yates on every leaf under its node engine -- with a
// span around each call.  The output is bit-identical to the engine's
// (the workloads check it against ctx.shuffle under the same seed), which
// is what proves the spans timed the same work.
//
// Wall-clock-equivalent accounting: a span on the calling thread counts
// its full duration; a span inside the top-level parallel_for, where p
// pool workers run at once, counts duration / p.  Summed over layers the
// weighted times add up to the call's wall time minus idle workers and
// untimed glue -- which is what core.unattributed_share reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common.hpp"
#include "core/sample_matrix.hpp"
#include "rng/counting.hpp"
#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/engine.hpp"
#include "smp/parallel_split.hpp"
#include "smp/thread_pool.hpp"

namespace perfbench {

/// One split node the replay visited (for the matrix / label probes).
struct split_node {
  std::uint64_t node = 0;
  std::uint64_t n = 0;
  std::uint32_t level = 0;
  bool top = false;
  bool timed = true;  ///< false for a root the replay does not time
};

/// What one traced smp call measured.
struct smp_layers {
  std::uint64_t n = 0;
  std::uint32_t threads = 1;
  std::uint32_t levels = 0;         ///< timed split levels
  std::vector<split_node> nodes;
  double split_wall_ns = 0.0;       ///< weighted parallel_split time
  double leaf_wall_ns = 0.0;        ///< weighted leaf Fisher-Yates time
  std::uint64_t leaf_busy_ns = 0;   ///< thread-ns in leaf Fisher-Yates
  std::uint64_t leaves = 0;
  std::uint64_t leaf_items = 0;
  std::uint64_t leaf_words = 0;     ///< philox4x64 words the leaves drew
  std::vector<std::uint64_t> task_ns;  ///< top-level pool tasks

  // Filled by probe_split_nodes():
  double matrix_wall_ns = 0.0;
  double labels_wall_ns = 0.0;
  std::uint64_t matrix_words = 0;   ///< philox4x64 words of matrix sampling
  std::uint64_t label_words = 0;    ///< batched_philox words of label shuffles
  bool labels_match = true;         ///< counted label replay == library labels
};

template <typename T>
class smp_replay {
 public:
  smp_replay(const cgp::smp::engine_options& opt, cgp::smp::thread_pool& pool, tracer* tr)
      : opt_(opt), pool_(pool), tr_(tr) {
    sopt_.fan_out = opt.fan_out;
    sopt_.sampling = opt.sampling;
  }

  /// Replay engine::shuffle(data, seed) with spans.  With `skip_root`,
  /// the root split runs untimed and counts as no split level: the
  /// distributed engine runs that level over its transport and only the
  /// subtrees below it on each rank (cgm/distributed.hpp), so the replay
  /// times just the subtrees -- still the same tree and the same output.
  smp_layers shuffle(std::span<T> data, std::uint64_t seed, bool skip_root = false) {
    out_ = smp_layers{};
    skip_root_ = skip_root;
    out_.n = data.size();
    out_.threads = pool_.size();
    if (data.size() < 2) return out_;
    if (data.size() <= opt_.cache_items) {
      leaf(data, seed, cgp::smp::kShuffleRoot, 1.0, "call");
      return out_;
    }
    std::unique_ptr<T[]> scratch(new T[data.size()]);
    subtree(data, std::span<T>(scratch.get(), data.size()), seed, cgp::smp::kShuffleRoot, 0,
            true);
    return out_;
  }

 private:
  void leaf(std::span<T> data, std::uint64_t seed, std::uint64_t node, double weight,
            const char* parent) {
    cgp::rng::counting_engine<cgp::rng::philox4x64> e(
        cgp::smp::detail::node_engine(seed, node, cgp::smp::detail::kLeafSalt));
    const std::uint64_t t0 = now_ns();
    cgp::seq::fisher_yates(e, data);
    const std::uint64_t t1 = now_ns();
    if (tr_ != nullptr) tr_->add("smp.leaf", t0, t1, weight, parent);
    const std::lock_guard<std::mutex> lock(m_);
    out_.leaf_wall_ns += static_cast<double>(t1 - t0) * weight;
    out_.leaf_busy_ns += t1 - t0;
    ++out_.leaves;
    out_.leaf_items += data.size();
    out_.leaf_words += e.count();
  }

  void subtree(std::span<T> data, std::span<T> scratch, std::uint64_t seed, std::uint64_t node,
               std::uint32_t level, bool top) {
    const double weight = top ? 1.0 : 1.0 / static_cast<double>(pool_.size());
    const char* parent = top ? "call" : "smp.pool.task";
    if (data.size() <= opt_.cache_items || data.size() < 2) {
      leaf(data, seed, node, weight, parent);
      return;
    }
    const std::uint64_t t0 = now_ns();
    const std::vector<std::uint64_t> off =
        cgp::smp::parallel_split(top ? &pool_ : nullptr, data, scratch, seed, node, sopt_);
    const std::uint64_t t1 = now_ns();
    const bool timed = !(top && skip_root_);
    if (tr_ != nullptr && timed) tr_->add("smp.split", t0, t1, weight, parent);
    {
      const std::lock_guard<std::mutex> lock(m_);
      out_.nodes.push_back({node, data.size(), level, top, timed});
      if (timed) {
        out_.split_wall_ns += static_cast<double>(t1 - t0) * weight;
        out_.levels = std::max(out_.levels, level + (skip_root_ ? 0u : 1u));
      }
    }
    const auto buckets = static_cast<std::size_t>(off.size() - 1);
    const auto recurse_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        const auto b_lo = static_cast<std::size_t>(off[j]);
        const auto b_len = static_cast<std::size_t>(off[j + 1] - off[j]);
        subtree(data.subspan(b_lo, b_len), scratch.subspan(b_lo, b_len), seed,
                cgp::smp::split_child_node(node, j, opt_.fan_out), level + 1, false);
      }
    };
    if (!top) {
      recurse_range(0, buckets);
      return;
    }
    pool_.parallel_for(0, buckets, [&](std::size_t lo, std::size_t hi) {
      const std::uint64_t s0 = now_ns();
      recurse_range(lo, hi);
      const std::uint64_t s1 = now_ns();
      if (tr_ != nullptr) {
        tr_->add("smp.pool.task", s0, s1, 1.0 / static_cast<double>(pool_.size()));
      }
      const std::lock_guard<std::mutex> lock(m_);
      out_.task_ns.push_back(s1 - s0);
    });
  }

  cgp::smp::engine_options opt_;
  cgp::smp::split_options sopt_;
  cgp::smp::thread_pool& pool_;
  tracer* tr_;
  bool skip_root_ = false;
  std::mutex m_;
  smp_layers out_;
};

/// Time phase 1 (make_split_plan: the matrix) and phase 2's label shuffles
/// (split_chunk_labels_into) of every split node the replay visited, and
/// count the words both drew.  parallel_split runs these inside itself, so
/// they are re-run here, after the replay, and the scatter is derived as
/// parallel_split - matrix - labels.  Labels run chunk-parallel inside the
/// top split and inside pool tasks below it, so they weigh 1/p everywhere;
/// the matrix weighs 1 at the top node (sequential on the caller).  An
/// untimed node (a skipped root) still counts its words.
inline void probe_split_nodes(smp_layers& L, std::uint64_t seed,
                              const cgp::smp::engine_options& opt) {
  cgp::smp::split_options sopt;
  sopt.fan_out = opt.fan_out;
  sopt.sampling = opt.sampling;
  const double inv_p = 1.0 / static_cast<double>(L.threads);
  std::vector<std::uint8_t> label;
  std::vector<std::uint8_t> counted;
  for (const split_node& s : L.nodes) {
    const std::uint64_t t0 = now_ns();
    const cgp::smp::split_plan plan = cgp::smp::make_split_plan(s.n, seed, s.node, sopt);
    const std::uint64_t t1 = now_ns();
    if (s.timed) L.matrix_wall_ns += static_cast<double>(t1 - t0) * (s.top ? 1.0 : inv_p);

    cgp::rng::counting_engine<cgp::rng::philox4x64> me(cgp::smp::detail::node_engine(
        seed, s.node, cgp::smp::detail::kMatrixSalt));
    (void)cgp::core::sample_matrix_rowwise(me, plan.margins, plan.margins, sopt.sampling);
    L.matrix_words += me.count();

    for (std::uint32_t c = 0; c < plan.k; ++c) {
      const std::uint64_t l0 = now_ns();
      cgp::smp::split_chunk_labels_into(plan, seed, s.node, c, label);
      const std::uint64_t l1 = now_ns();
      if (s.timed) L.labels_wall_ns += static_cast<double>(l1 - l0) * inv_p;
      // The same label shuffle through a counting engine: counts its words
      // and cross-checks the labels the library produced.
      counted.clear();
      for (std::uint32_t j = 0; j < plan.k; ++j) {
        counted.insert(counted.end(), static_cast<std::size_t>(plan.a(c, j)),
                       static_cast<std::uint8_t>(j));
      }
      cgp::rng::counting_engine<cgp::rng::batched_philox> le(cgp::rng::batched_philox(
          seed, cgp::smp::detail::node_stream(s.node, cgp::smp::detail::kChunkSalt, c)));
      cgp::seq::fisher_yates(le, std::span<std::uint8_t>(counted));
      L.label_words += le.count();
      if (counted != label) L.labels_match = false;
    }
  }
}

/// ns per word of the two keystream engines, timed over `scalar_words`
/// philox4x64 draws and `batched_words` batched_philox draws.
inline double keystream_ns_per_word(std::uint64_t scalar_words, std::uint64_t batched_words,
                                    std::uint64_t seed) {
  if (scalar_words + batched_words == 0) return 0.0;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  cgp::rng::philox4x64 s(seed, 1);
  for (std::uint64_t i = 0; i < scalar_words; ++i) sink ^= s();
  cgp::rng::batched_philox b(seed, 2);
  for (std::uint64_t i = 0; i < batched_words; ++i) sink ^= b();
  const std::uint64_t t1 = now_ns();
  // Keep the draws observable so they cannot be optimized away.
  if (sink == 0x5EED) std::fputs("", stderr);
  return static_cast<double>(t1 - t0) / static_cast<double>(scalar_words + batched_words);
}

/// Emit the smp.* and rng.* layer metrics of one (median) traced call.
inline void smp_layer_metrics(result& res, const smp_layers& L, double keystream_ns) {
  const double n = static_cast<double>(std::max<std::uint64_t>(L.n, 1));
  const double scatter = L.split_wall_ns - L.matrix_wall_ns - L.labels_wall_ns;
  const double split_thread_ns = L.split_wall_ns * static_cast<double>(L.threads);
  double imbalance = 0.0;
  if (!L.task_ns.empty()) {
    double sum = 0.0, mx = 0.0;
    for (const std::uint64_t t : L.task_ns) {
      sum += static_cast<double>(t);
      mx = std::max(mx, static_cast<double>(t));
    }
    imbalance = mx / (sum / static_cast<double>(L.task_ns.size()));
  }
  const std::uint64_t words = L.matrix_words + L.label_words + L.leaf_words;
  res.layer("rng.keystream_ns_per_word", keystream_ns, "ns");
  res.layer("rng.words_per_item", static_cast<double>(words) / n, "words");
  res.layer("smp.split.levels", L.levels, "count");
  res.layer("smp.split.matrix_ns", L.matrix_wall_ns, "ns");
  res.layer("smp.split.labels_ns", L.labels_wall_ns, "ns");
  res.layer("smp.split.scatter_ns", scatter, "ns");
  res.layer("smp.split.ns_per_item_level",
            L.levels == 0 ? 0.0 : split_thread_ns / (n * L.levels), "ns");
  res.layer("smp.leaf.count", static_cast<double>(L.leaves), "count");
  res.layer("smp.leaf.fy_ns", L.leaf_wall_ns, "ns");
  res.layer("smp.leaf.ns_per_item",
            L.leaf_items == 0 ? 0.0
                              : static_cast<double>(L.leaf_busy_ns) /
                                    static_cast<double>(L.leaf_items),
            "ns");
  res.layer("smp.pool.imbalance", imbalance, "ratio");
}

}  // namespace perfbench
