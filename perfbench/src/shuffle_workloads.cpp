// perfbench/src/shuffle_workloads.cpp
//
// The three context workloads: cgp::context::shuffle from call to return
// on seed-derived uint64 records.
//
//   shuffle_ram          2^25 records, backend automatic (smp, split-heavy)
//   shuffle_out_of_core  2^24 records, automatic under a 16 MiB budget (em)
//   shuffle_distributed  2^23 records, backend cgm over a 4-rank
//                        comm::socket_transport on loopback
//
// Every workload has two request classes on one closed-loop caller, run
// in two phases after each of the run's set-ups: first the "large" class,
// back-to-back calls of the workload's own shape above; then the "small"
// class, context::shuffle of 4096 records on the same context -- the
// service's small shape, which takes the leaf-only path where planning and
// dispatch dominate.  Each output is verified as a permutation of its
// input outside the timed region.
//
// The traced run (--trace 1) alternates an untimed-by-spans engine call
// ctx.shuffle(data, s) with a replay of the same call from the layers'
// public functions under the same seed s, checks the two outputs are
// bit-identical, and reports the per-layer split of the replay.
#include <sched.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "comm/socket_transport.hpp"
#include "comm/transport.hpp"
#include "common.hpp"
#include "core/apply.hpp"
#include "core/context.hpp"
#include "core/executor.hpp"
#include "core/registry.hpp"
#include "em/async_shuffle.hpp"
#include "em/block_device.hpp"
#include "smp_replay.hpp"
#include "timed_transport.hpp"

namespace perfbench {

namespace {

namespace core = cgp::core;
namespace em = cgp::em;

/// The small class's request size: the service workload's small shape.
constexpr std::uint64_t kSmallN = 4096;
/// Share of each segment's measuring time given to the small phase.
/// Half: a small call's latency follows the speed of the one CPU it runs
/// on, so the class needs as long a sample as the large calls, which
/// spread over every CPU at once.
constexpr double kSmallShare = 0.5;
/// Small calls made on one CPU before the caller moves to the next.
constexpr std::uint64_t kCallsPerCpu = 256;
constexpr std::size_t kMinTracedCalls = 3;

/// What one set-up builds: the transport (distributed only), the context,
/// and the input records.
struct context_setup {
  std::unique_ptr<cgp::comm::socket_transport> transport;
  std::unique_ptr<em::async_report> em_report;  // em_report_out target
  std::unique_ptr<cgp::context> ctx;
  std::vector<std::uint64_t> data;
};

struct shuffle_spec {
  const char* name;
  std::uint64_t n;
  /// Build the transport and the context of one set-up.
  std::function<void(context_setup&, std::uint64_t ctx_seed)> build;
  /// The traced run: replays and per-layer metrics.
  std::function<void(context_setup&, const run_options&, tracer&, result&)> traced;
};

/// Per-call layer values -> one value per layer (the median over calls).
class layer_series {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto& e = series_[name];
    e.first.push_back(value);
    e.second = unit;
    if (std::find(order_.begin(), order_.end(), name) == order_.end()) order_.push_back(name);
  }
  void add_all(const result& one) {
    for (const layer_metric& m : one.layers) add(m.name, m.value, m.unit);
  }
  void emit(result& res) const {
    for (const std::string& name : order_) {
      const auto& e = series_.at(name);
      res.layer(name, median(e.first), e.second);
    }
  }

 private:
  std::map<std::string, std::pair<std::vector<double>, std::string>> series_;
  std::vector<std::string> order_;
};

/// Moves the calling thread from CPU to CPU over the CPUs of its affinity
/// mask, and restores the mask when destroyed.
class cpu_cycler {
 public:
  cpu_cycler() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  cpu_cycler(const cpu_cycler&) = delete;
  cpu_cycler& operator=(const cpu_cycler&) = delete;
  ~cpu_cycler() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof mask_, &mask_);
  }

  /// Pin the calling thread to the i-th CPU (mod their count).
  void move(std::uint64_t i) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
};

/// One closed-loop call of `cls` on `data`, timed, its output verified
/// as a permutation of its input outside the timed region.  The class's
/// window is the time spent inside its calls, so requests per second is
/// the caller's rate without the untimed check.
void one_call(cgp::context& ctx, std::span<std::uint64_t> data, const record_set& recs,
              request_class& cls, result& res) {
  ++res.attempted;
  try {
    const std::uint64_t t0 = now_ns();
    ctx.shuffle(data);
    const std::uint64_t ns = now_ns() - t0;
    res.log_request(cls.clients.front(), ns);
    cls.window_s += static_cast<double>(ns) * 1e-9;
  } catch (const std::exception&) {
    ++res.failed;
    return;
  }
  if (!recs.is_permutation(data)) ++res.wrong;
}

result run_context_workload(const shuffle_spec& spec, const run_options& opt, tracer& tr) {
  result res;
  res.workload = spec.name;
  res.seed = opt.seed;
  res.trace = opt.trace;
  const std::uint64_t n = spec.n >> opt.scale_shift;
  const std::uint64_t small_n = std::max<std::uint64_t>(kSmallN >> opt.scale_shift, 16);
  const record_set recs(opt.seed);
  const std::uint64_t ctx_seed = derive(opt.seed, 3);

  // The run is kSetups segments.  Each builds a fresh set-up (timed:
  // construction of transport + context, input allocation, one warm-up
  // call), then measures a large phase and a small phase.  Fresh set-ups
  // and alternating phases spread both classes over the whole run, so
  // neither rests on one set-up's memory placement or one stretch of the
  // host's speed.
  const std::uint32_t segments = opt.trace || opt.digest_only ? 1 : kSetups;
  const double segment_ns = opt.seconds * 1e9 / segments;
  const auto large_ns = static_cast<std::uint64_t>((1.0 - kSmallShare) * segment_ns);
  const auto small_ns = static_cast<std::uint64_t>(kSmallShare * segment_ns);
  request_class large{"large", n, {1}, 0.0};
  request_class small{"small", small_n, {0}, 0.0};
  std::vector<std::uint64_t> small_data(small_n);
  recs.fill(small_data);
  std::uint64_t small_calls = 0;
  context_setup cur;
  for (std::uint32_t seg = 0; seg < segments; ++seg) {
    cur.ctx.reset();  // before the transport it may point at
    cur = context_setup{};
    const std::uint64_t t0 = now_ns();
    spec.build(cur, ctx_seed);
    cur.data.resize(n);
    recs.fill(cur.data);
    cur.ctx->shuffle(std::span<std::uint64_t>(cur.data));
    res.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!recs.is_permutation(cur.data)) ++res.wrong;
    if (seg == 0) {
      res.setup_peak_rss_kib = peak_rss_kib();
      res.plans.emplace_back("large", cur.ctx->plan_for(n, sizeof(std::uint64_t)));
      res.plans.emplace_back("small", cur.ctx->plan_for(small_n, sizeof(std::uint64_t)));
      res.checks.push_back("every output verified as a permutation of its input");
      if (opt.digest_only) {
        res.attempted = 1;
        res.digest = digest(cur.data);
        return res;
      }
      if (opt.trace) {
        spec.traced(cur, opt, tr, res);
        return res;
      }
    }

    // Large phase, then small phase, each a closed loop of back-to-back
    // calls.  Shuffling a permutation of the records gives another one,
    // so each buffer is filled once and every output is checked as it
    // stands.
    const std::uint64_t large_from = now_ns();
    for (std::size_t calls = 0; now_ns() < large_from + large_ns || calls == 0; ++calls) {
      one_call(*cur.ctx, std::span<std::uint64_t>(cur.data), recs, large, res);
    }

    // A small call runs on one thread (the caller, or the lead rank it
    // wakes), and each CPU of a shared host runs at one of two speeds, up
    // to 1.5x apart, switching every second or so independently of the
    // others.  The caller therefore cycles over every CPU it may use,
    // kCallsPerCpu calls at a time, so the class samples the whole
    // machine, as the large calls do, rather than whichever CPU the
    // scheduler left it on.
    const cpu_cycler cycler;
    const std::uint64_t small_until = now_ns() + small_ns;
    for (; now_ns() < small_until; ++small_calls) {
      if (small_calls % kCallsPerCpu == 0) cycler.move(small_calls / kCallsPerCpu);
      one_call(*cur.ctx, std::span<std::uint64_t>(small_data), recs, small, res);
    }
  }
  res.classes.push_back(std::move(small));
  res.classes.push_back(std::move(large));
  return res;
}

/// The traced-run loop shared by the three workloads: per iteration, one
/// engine call ctx.shuffle(data, s) (the untraced end-to-end sample) and
/// one traced replay of it on a copy; `replay` returns the traced
/// end-to-end ns and adds the iteration's layer values to `one`.
void traced_loop(context_setup& cur, const run_options& opt, tracer& tr, result& res,
                 const std::function<std::uint64_t(std::span<std::uint64_t>, std::uint64_t,
                                                   result&)>& replay,
                 const std::function<void(result&)>& after = {}) {
  layer_series series;
  const std::uint64_t until = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<std::uint64_t> copy;
  std::size_t mismatches = 0;
  for (std::uint64_t k = 0; now_ns() < until || k < kMinTracedCalls; ++k) {
    const std::uint64_t s = derive(opt.seed, 1000 + k);
    tr.begin_call();
    copy = cur.data;
    ++res.attempted;
    // Alternate which side runs first, so neither always inherits the
    // other's cache and page state.
    result one;
    std::uint64_t traced = 0;
    if (k % 2 == 1) traced = replay(std::span<std::uint64_t>(copy), s, one);
    const std::uint64_t t0 = now_ns();
    cur.ctx->shuffle(std::span<std::uint64_t>(cur.data), s);
    const std::uint64_t untraced = now_ns() - t0;
    if (k % 2 == 0) traced = replay(std::span<std::uint64_t>(copy), s, one);
    if (copy != cur.data) {
      ++mismatches;
      ++res.wrong;
    }
    if (after) after(one);
    series.add_all(one);
    series.add("obs.trace_overhead_ratio",
               static_cast<double>(traced) / static_cast<double>(untraced), "ratio");
  }
  series.emit(res);
  res.checks.push_back("traced replay bit-identical to ctx.shuffle(data, s) on " +
                       std::to_string(res.attempted - mismatches) + " of " +
                       std::to_string(res.attempted) + " calls");
}

// --- shuffle_ram: the smp decomposition --------------------------------------

void traced_ram(context_setup& cur, const run_options& opt, tracer& tr, result& res) {
  traced_loop(cur, opt, tr, res, [&](std::span<std::uint64_t> data, std::uint64_t s, result& one) {
    const std::uint64_t t0 = now_ns();
    const core::backend_options o = cur.ctx->execution_options(s);
    const core::permutation_plan plan = core::resolve_plan(data.size(), sizeof(std::uint64_t), o);
    const std::uint64_t t1 = now_ns();
    tr.add("core.plan", t0, t1);
    if (plan.chosen != core::backend::smp) {
      throw std::runtime_error("shuffle_ram planned " +
                               std::string(core::backend_name(plan.chosen)) + ", not smp");
    }
    cgp::smp::engine_options eopt = o.smp_engine;
    eopt.threads = plan.threads;
    cgp::smp::engine& eng = core::shared_engine(eopt);
    smp_replay<std::uint64_t> replay(eng.options(), eng.pool(), &tr);
    smp_layers L = replay.shuffle(data, s);
    const std::uint64_t t2 = now_ns();
    tr.add("call", t0, t2, 1.0, "");
    probe_split_nodes(L, s, eng.options());
    if (!L.labels_match) ++res.wrong;
    const double ks = keystream_ns_per_word(L.matrix_words + L.leaf_words, L.label_words, s);
    smp_layer_metrics(one, L, ks);
    const auto plan_ns = static_cast<double>(t1 - t0);
    const auto e2e = static_cast<double>(t2 - t0);
    one.layer("core.plan_ns", plan_ns, "ns");
    one.layer("core.unattributed_share",
              (e2e - plan_ns - L.split_wall_ns - L.leaf_wall_ns) / e2e, "ratio");
    return t2 - t0;
  });
}

// --- shuffle_out_of_core: em staging + async shuffle -------------------------

void traced_ooc(context_setup& cur, const run_options& opt, tracer& tr, result& res) {
  std::uint64_t n = 0, block_items = 1, replay_transfers = 0;
  std::uint32_t replay_levels = 0;
  std::uint64_t seed = 0;
  const auto replay = [&](std::span<std::uint64_t> data, std::uint64_t s, result& one) {
    n = data.size();
    seed = s;
    const std::uint64_t t0 = now_ns();
    const core::backend_options o = cur.ctx->execution_options(s);
    const core::permutation_plan plan = core::resolve_plan(n, sizeof(std::uint64_t), o);
    const std::uint64_t t1 = now_ns();
    if (plan.chosen != core::backend::em) {
      throw std::runtime_error("shuffle_out_of_core planned " +
                               std::string(core::backend_name(plan.chosen)) + ", not em");
    }
    const core::em_exec_config cfg = core::resolve_em_config(plan, o);
    block_items = cfg.block_items;
    std::uint64_t t1b = 0, t2 = 0, t3 = 0, t3b = 0;
    {
      em::block_device dev(n, cfg.block_items);
      t1b = now_ns();
      core::write_packed_streamed(dev, std::span<const std::uint64_t>(data),
                                  cfg.aopt.memory_items);
      t2 = now_ns();
      const std::uint64_t staged_in = dev.stats().transfers();
      const em::async_report rep = em::async_em_shuffle(dev, n, s, *cfg.pool, cfg.aopt);
      t3 = now_ns();
      const std::uint64_t before_out = dev.stats().transfers();
      core::read_packed_streamed(dev, data, cfg.aopt.memory_items);
      t3b = now_ns();
      replay_transfers = rep.block_transfers + staged_in + (dev.stats().transfers() - before_out);
      replay_levels = rep.levels;
    }
    const std::uint64_t t4 = now_ns();
    tr.add("core.plan", t0, t1);
    tr.add("em.stage_in", t1b, t2);
    tr.add("em.shuffle", t2, t3);
    tr.add("em.stage_out", t3, t3b);
    tr.add("call", t0, t4, 1.0, "");
    const auto e2e = static_cast<double>(t4 - t0);
    const auto plan_ns = static_cast<double>(t1 - t0);
    one.layer("core.plan_ns", plan_ns, "ns");
    one.layer("em.stage_in_ns", static_cast<double>(t2 - t1b), "ns");
    one.layer("em.shuffle_ns", static_cast<double>(t3 - t2), "ns");
    one.layer("em.stage_out_ns", static_cast<double>(t3b - t3), "ns");
    // Unattributed: device allocation and release around the staged calls.
    one.layer("core.unattributed_share",
              (e2e - plan_ns - static_cast<double>(t3b - t1b)) / e2e, "ratio");
    return t4 - t0;
  };
  // The engine's own report of the same call (backend_options::
  // em_report_out), read once both sides have run.
  const auto after = [&](result& one) {
    const em::async_report& rep = *cur.em_report;
    if (replay_transfers != rep.block_transfers || replay_levels != rep.levels) ++res.wrong;
    const double blocks = static_cast<double>(n) / static_cast<double>(block_items);
    // The I/O model's count: a read and a write of every block per
    // distribution level and for the leaf pass, plus staging on and off.
    const double bound = blocks * (2.0 * (rep.levels + 1) + 2.0);
    one.layer("em.block_transfers", static_cast<double>(rep.block_transfers), "count");
    one.layer("em.transfers_over_bound", static_cast<double>(rep.block_transfers) / bound,
              "ratio");
    one.layer("em.levels", rep.levels, "count");
    one.layer("em.max_in_flight", rep.max_in_flight, "count");
    one.layer("rng.words_per_item",
              static_cast<double>(rep.rng_words) / static_cast<double>(n), "words");
    // Labels and leaves draw from the engine's batched streams; all words
    // are timed on batched_philox.
    one.layer("rng.keystream_ns_per_word", keystream_ns_per_word(0, rep.rng_words, seed), "ns");
  };
  traced_loop(cur, opt, tr, res, replay, after);
}

// --- shuffle_distributed: the transport exchange -----------------------------

void traced_distributed(context_setup& cur, const run_options& opt, tracer& tr, result& res) {
  timed_transport timed(*cur.transport);
  cgp::context_options copt;
  copt.which = core::backend::cgm;
  copt.seed = derive(opt.seed, 3);
  copt.engine.transport = &timed;
  cgp::context traced_ctx(copt);
  // The ranks' subtrees, replayed: the distributed engine walks the smp
  // engine's tree under the same engine options, so an smp replay of the
  // call that skips the root split (the level the ranks run over the
  // transport) times the split and leaf work each rank does locally, on a
  // pool of one worker per rank.
  const cgp::cgm::distributed_options dopt = traced_ctx.execution_options(0).cgm_engine;
  cgp::smp::engine_options eopt = dopt.engine;
  eopt.threads = cur.transport->size();
  cgp::smp::engine& eng = core::shared_engine(eopt);
  std::vector<std::uint64_t> input;
  traced_loop(cur, opt, tr, res, [&](std::span<std::uint64_t> data, std::uint64_t s, result& one) {
    input.assign(data.begin(), data.end());
    const std::uint64_t t0 = now_ns();
    const core::permutation_plan plan =
        core::resolve_plan(data.size(), sizeof(std::uint64_t), traced_ctx.execution_options(s));
    const std::uint64_t t1 = now_ns();
    (void)plan;
    timed.reset();
    const cgp::comm::wire_counters w0 = cur.transport->wire();
    const std::uint64_t t2 = now_ns();
    traced_ctx.shuffle(data, s);
    const std::uint64_t t3 = now_ns();
    cgp::comm::wire_counters w = cur.transport->wire();
    w -= w0;
    tr.add("core.plan", t0, t1);
    tr.add("call", t0, t3, 1.0, "");
    const transport_totals T = timed.totals();
    for (const rank_span& r : timed.spans()) tr.add(r.name, r.start_ns, r.end_ns, r.weight, r.parent);
    const auto e2e = static_cast<double>(t3 - t0 - (t2 - t1));
    const auto plan_ns = static_cast<double>(t1 - t0);
    one.layer("core.plan_ns", plan_ns, "ns");
    one.layer("comm.supersteps", T.supersteps_per_rank, "count");
    one.layer("comm.bytes", static_cast<double>(T.bytes), "bytes");
    one.layer("comm.messages_per_frame",
              w.frames == 0 ? 0.0
                            : static_cast<double>(w.messages) / static_cast<double>(w.frames),
              "ratio");
    one.layer("comm.exchange_ns", T.exchange_ns, "ns");
    one.layer("comm.compute_ns", T.compute_ns, "ns");
    one.layer("core.unattributed_share",
              (e2e - plan_ns - T.exchange_ns - T.compute_ns) / e2e, "ratio");

    smp_replay<std::uint64_t> replay(dopt.engine, eng.pool(), &tr);
    smp_layers L = replay.shuffle(std::span<std::uint64_t>(input), s, /*skip_root=*/true);
    probe_split_nodes(L, s, dopt.engine);
    if (!L.labels_match || !std::equal(input.begin(), input.end(), data.begin())) ++res.wrong;
    smp_layer_metrics(one, L,
                      keystream_ns_per_word(L.matrix_words + L.leaf_words, L.label_words, s));
    return static_cast<std::uint64_t>(e2e);
  });
  res.checks.push_back("smp replay of the ranks' subtrees (root split untimed) bit-identical "
                       "to the cgm output on every traced call");
}

const shuffle_spec kRam{
    "shuffle_ram", std::uint64_t{1} << 25,
    [](context_setup& c, std::uint64_t seed) {
      cgp::context_options copt;
      copt.seed = seed;
      c.ctx = std::make_unique<cgp::context>(copt);
    },
    traced_ram};

const shuffle_spec kOutOfCore{
    "shuffle_out_of_core", std::uint64_t{1} << 24,
    [](context_setup& c, std::uint64_t seed) {
      c.em_report = std::make_unique<em::async_report>();
      cgp::context_options copt;
      copt.seed = seed;
      copt.memory_budget_bytes = std::uint64_t{16} << 20;
      copt.engine.em_report_out = c.em_report.get();
      c.ctx = std::make_unique<cgp::context>(copt);
    },
    traced_ooc};

const shuffle_spec kDistributed{
    "shuffle_distributed", std::uint64_t{1} << 23,
    [](context_setup& c, std::uint64_t seed) {
      c.transport = std::make_unique<cgp::comm::socket_transport>(4);
      cgp::context_options copt;
      copt.which = core::backend::cgm;
      copt.seed = seed;
      copt.engine.transport = c.transport.get();
      c.ctx = std::make_unique<cgp::context>(copt);
    },
    traced_distributed};

}  // namespace

result run_shuffle_ram(const run_options& opt, tracer& tr) {
  return run_context_workload(kRam, opt, tr);
}
result run_shuffle_out_of_core(const run_options& opt, tracer& tr) {
  return run_context_workload(kOutOfCore, opt, tr);
}
result run_shuffle_distributed(const run_options& opt, tracer& tr) {
  return run_context_workload(kDistributed, opt, tr);
}

}  // namespace perfbench
