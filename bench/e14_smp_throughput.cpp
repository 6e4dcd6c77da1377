// E14 -- native shared-memory throughput: SMP engine vs. CGM simulator vs.
// sequential baselines.
//
// The ROADMAP's north star is "as fast as the hardware allows"; this bench
// tracks how close the native engine (src/smp/) gets.  Expectations:
//
//   * seq/fisher_yates is memory-bound at large n (the paper's intro:
//     60..100 cycles/item, 33..80% stalled on memory) -- the number to beat;
//   * smp at p threads splits in parallel and finishes each bucket in
//     cache, so it should beat Fisher-Yates even at p = 1 on RAM-resident
//     inputs and scale with physical cores beyond that;
//   * the CGM simulator pays for exact resource accounting and simulated
//     message buffers -- it is the model-faithful yardstick, not a
//     contender.
//
// Output: a table on stdout plus machine-readable BENCH_smp.json records
// (bench, n, p, backend, seconds, ns_per_item, speedup_vs_seq) so the perf
// trajectory is trackable across commits.
//
// Usage: e14_smp_throughput [n] [json_path]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cgm/machine.hpp"
#include "core/driver.hpp"
#include "rng/philox.hpp"
#include "seq/fisher_yates.hpp"
#include "seq/rao_sandelius.hpp"
#include "smp/engine.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

struct row {
  std::string backend;
  std::uint32_t p;
  double seconds;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cgp;
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10'000'000ull;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_smp.json";
  const int reps = 3;

  std::cout << "E14: permutation throughput, n = " << fmt_count(n) << " uint64 items ("
            << fmt(static_cast<double>(n) * 8 / (1 << 20), 0) << " MiB); "
            << std::thread::hardware_concurrency() << " hardware threads\n\n";

  std::vector<std::uint64_t> data(n);
  for (std::uint64_t i = 0; i < n; ++i) data[i] = i;
  std::vector<row> rows;

  // Sequential reference: Fisher-Yates (the PRO model's yardstick).
  rows.push_back({"seq/fisher_yates", 1, best_of(reps, [&](int r) {
                    rng::philox4x64 e(0xE14, static_cast<std::uint64_t>(r));
                    seq::fisher_yates(e, std::span<std::uint64_t>(data));
                  })});

  // Sequential Rao-Sandelius: the cache-aware Section 6 outlook, i.e. what
  // the SMP engine degenerates to at p = 1 (modulo the exact-split law).
  rows.push_back({"seq/rao_sandelius", 1, best_of(reps, [&](int r) {
                    rng::philox4x64 e(0xE14, 100 + static_cast<std::uint64_t>(r));
                    seq::rs_shuffle(e, std::span<std::uint64_t>(data));
                  })});

  // The native engine at increasing thread counts.
  for (const std::uint32_t p : {1u, 2u, 4u, 8u}) {
    smp::engine_options opt;
    opt.threads = p;
    smp::engine eng(opt);
    rows.push_back({"smp", p, best_of(reps, [&](int r) {
                      eng.shuffle(std::span<std::uint64_t>(data),
                                  0x5E14 + static_cast<std::uint64_t>(r));
                    })});
  }

  // The model-faithful simulator (one rep: it simulates message buffers and
  // superstep barriers, so it is expected to be far off the pace).
  {
    cgm::machine mach(4, 0xE14);
    stopwatch sw;
    data = core::permute_global(mach, data);
    rows.push_back({"cgm_simulator", 4, sw.seconds()});
  }

  const double seq_s = rows.front().seconds;
  table t({"backend", "p", "T [s]", "ns/item", "Mitems/s", "speedup vs seq"});
  std::vector<json_record> out;
  for (const auto& r : rows) {
    const double ns_item = r.seconds * 1e9 / static_cast<double>(n);
    t.add_row({r.backend, std::to_string(r.p), fmt(r.seconds, 3), fmt(ns_item, 2),
               fmt(static_cast<double>(n) / r.seconds / 1e6, 1), fmt(seq_s / r.seconds, 2)});
    json_record rec;
    rec.add("bench", "e14_smp_throughput")
        .add("n", n)
        .add("p", r.p)
        .add("backend", r.backend)
        .add("seconds", r.seconds)
        .add("ns_per_item", ns_item)
        .add("speedup_vs_seq", seq_s / r.seconds);
    out.push_back(std::move(rec));
  }
  t.print(std::cout);
  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return 0;
}
