// perfbench/src/main.cpp
//
// The benchmark binary: runs ONE workload for a fixed time and
// prints one JSON result record (raw samples, plans, checks, per-layer
// numbers, fingerprint) on stdout.  perfbench/run.py builds this binary,
// runs it and turns the record into the benchmark's metrics.
//
//   perfbench --workload shuffle_ram --seed 7 --seconds 10 --trace 0
//             [--scale-shift K] [--digest] [--trace-out PATH]
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale-shift K] [--digest] [--trace-out PATH]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--digest") {
      opt.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed" && parse_u64(v, u)) {
      opt.seed = u;
    } else if (a == "--seconds" && parse_u64(v, u) && u >= 1 && u <= 600) {
      opt.seconds = static_cast<double>(u);
    } else if (a == "--trace" && parse_u64(v, u) && u <= 1) {
      opt.trace = u == 1;
    } else if (a == "--scale-shift" && parse_u64(v, u) && u <= 16) {
      opt.scale_shift = static_cast<unsigned>(u);
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }

  perfbench::tracer tr;
  perfbench::result res;
  try {
    if (workload == "shuffle_ram") {
      res = perfbench::run_shuffle_ram(opt, tr);
    } else if (workload == "shuffle_out_of_core") {
      res = perfbench::run_shuffle_out_of_core(opt, tr);
    } else if (workload == "shuffle_distributed") {
      res = perfbench::run_shuffle_distributed(opt, tr);
    } else if (workload == "service_mixed") {
      res = perfbench::run_service_mixed(opt, tr);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  res.peak_rss_kib = perfbench::peak_rss_kib();
  if (opt.trace && !opt.trace_out.empty() && !tr.write(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  std::fputs((res.to_json() + "\n").c_str(), stdout);
  return 0;
}
