// perfbench/src/timed_transport.hpp
//
// A timing decorator comm::transport: forwards every rank program to an
// inner transport (the socket transport) and wraps each rank's endpoint so
// that send() counts payload bytes and exchange() -- the BSP
// superstep barrier -- is timed.  Injected through
// backend_options::transport, it measures the distributed engine's
// exchange and compute time per rank without touching the library.
// alltoallv is not overridden: the endpoint's default implementation
// posts through send() and exchange(), so it is counted there.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "common.hpp"

namespace perfbench {

/// One rank's counters for the current call.
struct rank_counters {
  std::uint64_t program_ns = 0;
  std::uint64_t exchange_ns = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t bytes = 0;
};

/// A span recorded on a rank thread (written to the tracer afterwards).
struct rank_span {
  std::string name;
  std::string parent;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double weight = 1.0;
};

/// Per-call totals, rank-averaged where ranks run concurrently.
struct transport_totals {
  double exchange_ns = 0.0;          ///< mean over ranks of time in exchange()
  double compute_ns = 0.0;           ///< mean over ranks of program - exchange
  double supersteps_per_rank = 0.0;  ///< exchange() calls per rank
  std::uint64_t bytes = 0;           ///< payload bytes sent, all ranks
};

class timed_transport final : public cgp::comm::transport {
 public:
  explicit timed_transport(cgp::comm::transport& inner)
      : inner_(inner), ranks_(inner.size()) {}

  [[nodiscard]] std::uint32_t size() const noexcept override { return inner_.size(); }
  [[nodiscard]] const char* name() const noexcept override { return "timed"; }
  [[nodiscard]] cgp::comm::wire_counters wire() const noexcept override { return inner_.wire(); }

  void run(const std::function<void(cgp::comm::endpoint&)>& program) override {
    inner_.run([&](cgp::comm::endpoint& ep) {
      timed_endpoint tep(ep, ranks_[ep.rank()], *this);
      const std::uint64_t t0 = now_ns();
      program(tep);
      const std::uint64_t t1 = now_ns();
      ranks_[ep.rank()].program_ns += t1 - t0;
      note("comm.rank_program", "call", t0, t1);
    });
  }

  /// Zero the per-call counters and spans.
  void reset() {
    ranks_.assign(inner_.size(), rank_counters{});
    spans_.clear();
  }

  [[nodiscard]] transport_totals totals() const {
    transport_totals t;
    const auto p = static_cast<double>(ranks_.size());
    for (const rank_counters& r : ranks_) {
      t.exchange_ns += static_cast<double>(r.exchange_ns) / p;
      t.compute_ns += static_cast<double>(r.program_ns - r.exchange_ns) / p;
      t.supersteps_per_rank += static_cast<double>(r.supersteps) / p;
      t.bytes += r.bytes;
    }
    return t;
  }

  [[nodiscard]] const std::vector<rank_span>& spans() const noexcept { return spans_; }

 private:
  class timed_endpoint final : public cgp::comm::endpoint {
   public:
    timed_endpoint(cgp::comm::endpoint& inner, rank_counters& c, timed_transport& owner)
        : inner_(inner), c_(c), owner_(owner) {}

    [[nodiscard]] std::uint32_t rank() const noexcept override { return inner_.rank(); }
    [[nodiscard]] std::uint32_t size() const noexcept override { return inner_.size(); }

    void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) override {
      c_.bytes += bytes.size();
      inner_.send(dest, tag, bytes);
    }

    [[nodiscard]] std::vector<cgp::comm::message> exchange() override {
      const std::uint64_t t0 = now_ns();
      std::vector<cgp::comm::message> got = inner_.exchange();
      const std::uint64_t t1 = now_ns();
      c_.exchange_ns += t1 - t0;
      ++c_.supersteps;
      owner_.note("comm.exchange", "comm.rank_program", t0, t1);
      return got;
    }

   private:
    cgp::comm::endpoint& inner_;
    rank_counters& c_;
    timed_transport& owner_;
  };

  void note(const char* name, const char* parent, std::uint64_t t0, std::uint64_t t1) {
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({name, parent, t0, t1, 1.0 / static_cast<double>(ranks_.size())});
  }

  cgp::comm::transport& inner_;
  std::vector<rank_counters> ranks_;  // one slot per rank: no sharing
  std::mutex m_;                      // guards spans_
  std::vector<rank_span> spans_;
};

}  // namespace perfbench
