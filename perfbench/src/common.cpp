// perfbench/src/common.cpp -- result rendering, RSS, fingerprint, span dump.
#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/registry.hpp"
#include "rng/philox_batch.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

template <typename T>
std::string json_array(const std::vector<T>& v) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i != 0 ? "," : "") << v[i];
  os << ']';
  return os.str();
}

std::string json_string_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i != 0 ? "," : "") + cgp::json_escape_quoted(v[i]);
  }
  return out + "]";
}

std::string render_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string plan_json(const cgp::core::permutation_plan& p) {
  cgp::json_record r;
  r.add("backend", cgp::core::backend_name(p.chosen))
      .add("threads", p.threads)
      .add("split_levels", p.split_levels)
      .add("em_M", p.em_memory_items)
      .add("em_B", p.em_block_items)
      .add("em_K", p.em_fan_out)
      .add("em_levels", p.em_levels);
  return r.to_string();
}

unsigned numa_nodes() {
  unsigned nodes = 0;
  while (std::filesystem::exists("/sys/devices/system/node/node" + std::to_string(nodes))) {
    ++nodes;
  }
  return nodes == 0 ? 1 : nodes;
}

}  // namespace

std::string result::to_json() const {
  cgp::json_record r;
  r.add("workload", workload).add("seed", seed).add("trace", trace);
  r.add_raw_json("setup_s", json_array(setup_s));
  std::string cls = "[";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const request_class& c = classes[i];
    cgp::json_record cr;
    cr.add("name", c.name)
        .add("n", c.n)
        .add_raw_json("window_s", render_double(c.window_s))
        .add_raw_json("clients", json_array(c.clients));
    cls += (i != 0 ? "," : "") + cr.to_string();
  }
  r.add_raw_json("classes", cls + "]");
  r.add_raw_json("request_client", json_array(request_client));
  r.add_raw_json("request_latency_ns", json_array(request_latency_ns));
  std::string pl = "{";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    pl += (i != 0 ? "," : "") + cgp::json_escape_quoted(plans[i].first) + ":" +
          plan_json(plans[i].second);
  }
  r.add_raw_json("plans", pl + "}");
  r.add("attempted", attempted).add("failed", failed).add("wrong", wrong);
  r.add_raw_json("checks", json_string_array(checks));
  std::string ly = "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    cgp::json_record m;
    m.add_raw_json("value", render_double(layers[i].value)).add("unit", layers[i].unit);
    ly += (i != 0 ? "," : "") + cgp::json_escape_quoted(layers[i].name) + ":" + m.to_string();
  }
  r.add_raw_json("layers", ly + "}");
  r.add("setup_peak_rss_kib", setup_peak_rss_kib).add("peak_rss_kib", peak_rss_kib);
  char dg[24];
  std::snprintf(dg, sizeof dg, "%016llx", static_cast<unsigned long long>(digest));
  r.add("digest", std::string(dg));
  r.add_raw_json("fingerprint", fingerprint_json());
  return r.to_string();
}

std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

std::string fingerprint_json() {
  const char* simd_env = std::getenv("CGP_SIMD");
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(cgp::core::shared_profile().fingerprint()));
  cgp::json_record r;
  r.add("nproc", std::thread::hardware_concurrency())
      .add("numa_nodes", numa_nodes())
      .add("simd_path", cgp::rng::simd_path_name(cgp::rng::active_simd_path()))
      .add("simd_detected", cgp::rng::simd_path_name(cgp::rng::detected_simd_path()))
      .add("cgp_simd_env", simd_env != nullptr ? simd_env : "")
      .add("profile_fingerprint", std::string(fp))
      .add("build_type", PERFBENCH_BUILD_TYPE);
  return r.to_string();
}

bool tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span_record& s = spans_[i];
    cgp::json_record r;
    r.add("name", s.name)
        .add("parent", s.parent)
        .add("call", s.call)
        .add("start_ns", s.start_ns)
        .add("end_ns", s.end_ns)
        .add("thread", s.thread)
        .add_raw_json("weight", render_double(s.weight));
    f << r.to_string() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
