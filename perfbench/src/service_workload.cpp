// perfbench/src/service_workload.cpp
//
// service_mixed: an in-process svc::wire_server on 127.0.0.1 (default
// options, scheduler_workers = 2) serving four closed-loop wire_clients,
// one connection and one thread each.  Clients 0-2 fetch permutations of
// 4096 items (small class: batched, leaf-only jobs), client 3 fetches
// permutations of 2^20 items (large class: a single split job with an
// 8 MiB reply).  Latency runs from send to the last reply byte; every
// reply is verified as a permutation outside the timed region, and the
// first reply of clients 0 and 3 is replayed bit for bit on a bare
// context under svc::job_seed.
//
// The traced run makes one pass of the same load on client ids 0-3 (the
// set-up's warm-up requests use other ids, so the server's per-tenant
// histograms cover exactly this pass).  Each client records a span for
// every other request, so traced and untraced requests share the pass and
// the tenants.  Execution time is the service's own per-job measurement:
// the plan-feedback log, emptied before the pass and drained all through
// it, so it covers the same jobs as the histograms.  Each tenant's first
// job is then replayed through ctx().random_permutation and checked bit
// for bit, and one large job is decomposed with the smp replay.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/context.hpp"
#include "core/registry.hpp"
#include "obs/plan_feedback.hpp"
#include "smp_replay.hpp"
#include "svc/job.hpp"
#include "svc/wire.hpp"

namespace perfbench {

namespace {

namespace core = cgp::core;
namespace svc = cgp::svc;

constexpr std::uint64_t kSmallN = 4096;
constexpr std::uint64_t kLargeN = std::uint64_t{1} << 20;
constexpr std::uint32_t kClients = 4;  // 0..2 small, 3 large

struct service_setup {
  std::unique_ptr<svc::wire_server> server;
  std::vector<std::unique_ptr<svc::wire_client>> clients;
};

svc::wire_server_options server_options(std::uint64_t server_seed) {
  svc::wire_server_options o;
  o.svc.seed = server_seed;
  o.svc.scheduler_workers = 2;
  return o;
}

/// What one client thread observed in one phase.
struct client_log {
  std::uint32_t client = 0;
  std::uint64_t n = 0;
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> ordinals;
  std::vector<bool> traced;  ///< did the request record a span
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  svc::permutation first;  ///< the first reply, kept for the bit-for-bit replay
  std::uint64_t first_ordinal = 0;
};

/// Run the closed loop on every client until `until_ns`; client i sends
/// requests as client id `id_base + i`.  With a tracer, every other
/// request records a span, and its latency includes the recording.
std::vector<client_log> run_load(service_setup& s, std::uint32_t id_base, std::uint64_t until_ns,
                                 tracer* tr, std::uint64_t small_n, std::uint64_t large_n) {
  std::vector<client_log> logs(kClients);
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    logs[i].client = id_base + i;
    logs[i].n = i + 1 == kClients ? large_n : small_n;
    threads.emplace_back([&, i] {
      client_log& L = logs[i];
      svc::wire_client& c = *s.clients[i];
      while (now_ns() < until_ns || L.latency_ns.empty()) {
        ++L.attempted;
        std::uint64_t ordinal = 0;
        svc::permutation pi;
        const std::uint64_t t0 = now_ns();
        try {
          pi = c.fetch_permutation(L.client, L.n, &ordinal);
        } catch (const std::exception&) {
          ++L.failed;
          if (L.failed > 1000) return;  // a dead server: stop, the run fails
          continue;
        }
        const bool traced = tr != nullptr && L.attempted % 2 == 0;
        if (traced) {
          tr->begin_call();
          tr->add(L.n == large_n ? "wire.request.large" : "wire.request.small", t0, now_ns(),
                  1.0, "");
        }
        L.latency_ns.push_back(now_ns() - t0);
        L.ordinals.push_back(ordinal);
        L.traced.push_back(traced);
        if (pi.size() != L.n || !is_identity_permutation(pi)) ++L.wrong;
        if (L.first.empty()) {
          L.first = std::move(pi);
          L.first_ordinal = ordinal;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

void account(result& res, const std::vector<client_log>& logs) {
  for (const client_log& L : logs) {
    res.attempted += L.attempted;
    res.failed += L.failed;
    res.wrong += L.wrong;
  }
}

/// Nearest-rank percentile of a sample (q in (0, 1]).
double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

/// Latencies of a class; with `traced` set, only the requests that did
/// (or did not) record a span.
std::vector<std::uint64_t> class_latencies(const std::vector<client_log>& logs, bool large,
                                           std::optional<bool> traced = std::nullopt) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t i = 0; i < logs.size(); ++i) {
    if ((i + 1 == kClients) != large) continue;
    const client_log& L = logs[i];
    for (std::size_t k = 0; k < L.latency_ns.size(); ++k) {
      if (!traced || L.traced[k] == *traced) out.push_back(L.latency_ns[k]);
    }
  }
  return out;
}

/// Drains the plan-feedback log on a background thread while a pass
/// runs, so no record falls off the bounded log: the per-job execution
/// times of every job in the pass, by job size.
class feedback_drain {
 public:
  feedback_drain() {
    cgp::obs::clear_plan_feedback();
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        drain();
      }
    });
  }
  feedback_drain(const feedback_drain&) = delete;
  feedback_drain& operator=(const feedback_drain&) = delete;
  ~feedback_drain() { stop(); }

  /// Stop draining; returns exec ns of every drained job of size n.
  std::vector<double> stop_and_take(std::uint64_t n) {
    stop();
    std::vector<double> out;
    for (const auto& [size, ns] : exec_) {
      if (size == n) out.push_back(ns);
    }
    return out;
  }

 private:
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    drain();
  }
  // A record filed between the copy and the clear is lost; at 10 ms
  // drains that is a small share of the jobs, and the sample counts are
  // reported next to the job counts.
  void drain() {
    const std::vector<cgp::obs::plan_feedback_record> log = cgp::obs::plan_feedback_log();
    cgp::obs::clear_plan_feedback();
    for (const cgp::obs::plan_feedback_record& r : log) {
      exec_.emplace_back(r.n, r.measured_seconds * 1e9);
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::pair<std::uint64_t, double>> exec_;
  std::thread thread_;
};

/// Replay job (client, ordinal) on a bare context configured like the
/// server's, and compare with the reply bit for bit.
bool replay_matches(std::uint64_t server_seed, const client_log& L) {
  cgp::context_options co;
  co.seed = server_seed;
  const cgp::context bare(co);
  return bare.random_permutation(L.n, svc::job_seed(server_seed, L.client, L.first_ordinal)) ==
         L.first;
}

/// Time core::cached_plan for one shape (every lookup after the first is
/// a cache hit, as on the service path).
double plan_ns(const core::machine_profile& prof, std::uint64_t n) {
  core::workload w;
  w.n = n;
  w.element_bytes = sizeof(std::uint64_t);
  std::vector<double> t;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t t0 = now_ns();
    const core::permutation_plan p = core::cached_plan(w, prof);
    t.push_back(static_cast<double>(now_ns() - t0));
    if (p.threads == 0) throw std::runtime_error("empty plan");
  }
  return median(t);
}

/// Mean over a class's tenants of one server-side latency quantile
/// (histogram bucket lower bounds: within 12.5% below the true value).
double tenant_quantile(const svc::server& srv, const std::vector<std::uint64_t>& tenants,
                       double q) {
  double sum = 0.0;
  std::size_t k = 0;
  for (const auto& [label, h] : srv.tenant_latency_histograms().entries()) {
    if (std::find(tenants.begin(), tenants.end(), label) == tenants.end()) continue;
    sum += static_cast<double>(h->quantile(q));
    ++k;
  }
  return k == 0 ? 0.0 : sum / static_cast<double>(k);
}

/// Exact mean server-side latency over a class's tenants (histogram sums
/// are exact, unlike its quantiles), the base of the derived layers.
double tenant_mean(const svc::server& srv, const std::vector<std::uint64_t>& tenants) {
  double sum = 0.0, count = 0.0;
  for (const auto& [label, h] : srv.tenant_latency_histograms().entries()) {
    if (std::find(tenants.begin(), tenants.end(), label) == tenants.end()) continue;
    sum += static_cast<double>(h->sum());
    count += static_cast<double>(h->count());
  }
  return count == 0.0 ? 0.0 : sum / count;
}

void traced_service(service_setup& s, const run_options& opt, tracer& tr, result& res,
                    std::uint64_t server_seed, std::uint64_t small_n, std::uint64_t large_n) {
  const std::size_t lookups0 = core::plan_cache_lookups();
  const std::size_t hits0 = core::plan_cache_hits();
  feedback_drain drain;
  const std::vector<client_log> traced = run_load(
      s, 0, now_ns() + static_cast<std::uint64_t>(opt.seconds * 0.8e9), &tr, small_n, large_n);
  const std::vector<double> exec_small = drain.stop_and_take(small_n);
  const std::vector<double> exec_large = drain.stop_and_take(large_n);
  account(res, traced);
  const double lookups = static_cast<double>(core::plan_cache_lookups() - lookups0);
  const double hit_rate = lookups == 0.0
                              ? 0.0
                              : static_cast<double>(core::plan_cache_hits() - hits0) / lookups;
  const std::size_t jobs_small = class_latencies(traced, false).size();
  const std::size_t jobs_large = class_latencies(traced, true).size();
  if (exec_small.empty() || exec_large.empty()) {
    throw std::runtime_error("plan-feedback log holds no job of a class");
  }
  res.checks.push_back("exec from the plan-feedback log: " + std::to_string(exec_small.size()) +
                       " of " + std::to_string(jobs_small) + " small and " +
                       std::to_string(exec_large.size()) + " of " +
                       std::to_string(jobs_large) + " large jobs");

  svc::server& srv = s.server->service();
  const cgp::context& ctx = srv.ctx();
  const core::machine_profile prof = ctx.profile();

  // Replay each tenant's first job of the traced pass under its job seed:
  // it must match the reply bit for bit.
  for (const client_log& L : traced) {
    const std::uint64_t t0 = now_ns();
    const svc::permutation pi =
        ctx.random_permutation(L.n, svc::job_seed(server_seed, L.client, L.first_ordinal));
    tr.begin_call();
    tr.add(L.n == large_n ? "svc.replay.large" : "svc.replay.small", t0, now_ns(), 1.0, "");
    if (pi != L.first) ++res.wrong;
  }

  // The large job decomposed: the smp replay of its first reply.
  const client_log& big = traced.back();
  const std::uint64_t big_seed = svc::job_seed(server_seed, big.client, big.first_ordinal);
  const core::backend_options o = ctx.execution_options(big_seed);
  const core::permutation_plan big_plan = core::resolve_plan(large_n, sizeof(std::uint64_t), o);
  if (big_plan.chosen == core::backend::smp) {
    cgp::smp::engine_options eopt = o.smp_engine;
    eopt.threads = big_plan.threads;
    cgp::smp::engine& eng = core::shared_engine(eopt);
    std::vector<std::uint64_t> pi(large_n);
    for (std::uint64_t i = 0; i < large_n; ++i) pi[i] = i;
    smp_replay<std::uint64_t> replay(eng.options(), eng.pool(), &tr);
    smp_layers L = replay.shuffle(std::span<std::uint64_t>(pi), big_seed);
    if (pi != big.first) ++res.wrong;
    probe_split_nodes(L, big_seed, eng.options());
    if (!L.labels_match) ++res.wrong;
    smp_layer_metrics(res, L,
                      keystream_ns_per_word(L.matrix_words + L.leaf_words, L.label_words,
                                            big_seed));
  }

  std::vector<std::uint64_t> small_tenants, large_tenants;
  for (const client_log& L : traced) (L.n == large_n ? large_tenants : small_tenants).push_back(L.client);
  const double plan_small = plan_ns(prof, small_n);
  const double plan_large = plan_ns(prof, large_n);
  const double lat_small_p50 = tenant_quantile(srv, small_tenants, 0.50);
  const double lat_small_p99 = tenant_quantile(srv, small_tenants, 0.99);
  const double lat_large_p50 = tenant_quantile(srv, large_tenants, 0.50);
  const double lat_large_p90 = tenant_quantile(srv, large_tenants, 0.90);
  // Derived layers are differences of exact means: means add up, bucketed
  // quantiles do not.
  const double mean_small = tenant_mean(srv, small_tenants);
  const double mean_large = tenant_mean(srv, large_tenants);
  const double exec_s = mean(exec_small);
  const double exec_l = mean(exec_large);
  const auto mean_rt = [&](bool large) {
    const std::vector<std::uint64_t> v = class_latencies(traced, large);
    return mean(std::vector<double>(v.begin(), v.end()));
  };
  const double rt_small = mean_rt(false);
  const double rt_large = mean_rt(true);
  const double p50_traced = percentile(class_latencies(traced, false, true), 0.50);
  const double p50_plain = percentile(class_latencies(traced, false, false), 0.50);

  res.layer("core.plan_ns", plan_small, "ns");
  res.layer("core.plan_cache_hit_rate", hit_rate, "ratio");
  res.layer("svc.small.job_latency_p50_ns", lat_small_p50, "ns");
  res.layer("svc.small.job_latency_p99_ns", lat_small_p99, "ns");
  res.layer("svc.large.job_latency_p50_ns", lat_large_p50, "ns");
  res.layer("svc.large.job_latency_p90_ns", lat_large_p90, "ns");
  res.layer("svc.small.exec_ns", exec_s, "ns");
  res.layer("svc.large.exec_ns", exec_l, "ns");
  res.layer("svc.small.queue_wait_ns", mean_small - plan_small - exec_s, "ns");
  res.layer("svc.large.queue_wait_ns", mean_large - plan_large - exec_l, "ns");
  res.layer("svc.batch_size_mean", srv.batch_size_histogram().mean(), "jobs");
  res.layer("wire.small.transfer_ns", rt_small - mean_small, "ns");
  res.layer("wire.large.transfer_ns", rt_large - mean_large, "ns");
  // What no directly timed layer (wire, plan, exec) covers of the mean
  // small round trip: the scheduler's queue wait and dispatch.
  res.layer("core.unattributed_share", (mean_small - plan_small - exec_s) / rt_small, "ratio");
  res.layer("obs.trace_overhead_ratio", p50_traced / p50_plain, "ratio");
  res.checks.push_back("first traced job of every tenant replayed through "
                       "ctx().random_permutation, and one large job through the smp replay: "
                       "bit-identical to the replies");
}

}  // namespace

result run_service_mixed(const run_options& opt, tracer& tr) {
  result res;
  res.workload = "service_mixed";
  res.seed = opt.seed;
  res.trace = opt.trace;
  const std::uint64_t small_n = std::max<std::uint64_t>(kSmallN >> opt.scale_shift, 16);
  const std::uint64_t large_n = std::max<std::uint64_t>(kLargeN >> opt.scale_shift, 16);
  const std::uint64_t server_seed = derive(opt.seed, 4);

  // The run is kSetups segments.  Each starts a fresh server and its
  // clients (timed set-up: server start, client connections, one warm-up
  // request per client), then runs the load for its share of the run, so
  // the classes do not rest on one server's thread placement.
  const std::uint32_t segments = opt.trace || opt.digest_only ? 1 : kSetups;
  const auto segment_ns = static_cast<std::uint64_t>(opt.seconds * 1e9 / segments);
  request_class small{"small", small_n, {0, 1, 2}, 0.0};
  request_class large{"large", large_n, {3}, 0.0};
  service_setup cur;
  for (std::uint32_t seg = 0; seg < segments; ++seg) {
    cur.clients.clear();
    cur.server.reset();
    const std::uint64_t t0 = now_ns();
    cur.server = std::make_unique<svc::wire_server>(server_options(server_seed));
    for (std::uint32_t i = 0; i < kClients; ++i) {
      cur.clients.push_back(
          std::make_unique<svc::wire_client>("127.0.0.1", cur.server->port()));
    }
    for (std::uint32_t i = 0; i < kClients; ++i) {
      const std::uint64_t n = i + 1 == kClients ? large_n : small_n;
      const svc::permutation pi = cur.clients[i]->fetch_permutation(1000 + i, n);
      if (!is_identity_permutation(pi)) ++res.wrong;
      if (opt.digest_only && i + 1 == kClients) res.digest = digest(pi);
    }
    res.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (seg == 0) {
      res.setup_peak_rss_kib = peak_rss_kib();
      const cgp::context& ctx = cur.server->service().ctx();
      res.plans.emplace_back("small", ctx.plan_for(small_n, sizeof(std::uint64_t)));
      res.plans.emplace_back("large", ctx.plan_for(large_n, sizeof(std::uint64_t)));
      res.checks.push_back("every reply verified as a permutation of 0..n-1");
      if (opt.digest_only) {
        res.attempted = 1;
        return res;
      }
      if (opt.trace) {
        traced_service(cur, opt, tr, res, server_seed, small_n, large_n);
        return res;
      }
    }

    const std::uint64_t w0 = now_ns();
    const std::vector<client_log> logs =
        run_load(cur, 0, w0 + segment_ns, nullptr, small_n, large_n);
    const double window = static_cast<double>(now_ns() - w0) * 1e-9;
    small.window_s += window;
    large.window_s += window;
    account(res, logs);
    for (const client_log& L : logs) {
      for (const std::uint64_t t : L.latency_ns) res.log_request(L.client, t);
    }
    for (const std::uint32_t i : {0u, 3u}) {
      if (!replay_matches(server_seed, logs[i])) ++res.wrong;
    }
  }
  res.classes.push_back(std::move(small));
  res.classes.push_back(std::move(large));
  res.checks.push_back("first reply of clients 0 and 3 of every server replayed bit for bit "
                       "on a bare context");
  return res;
}

}  // namespace perfbench
