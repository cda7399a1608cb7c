// Shared vocabulary of the end-to-end benchmark binary. README.md explains
// the workloads, the metrics and the noise sources each design choice
// removes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scan_service.hpp"
#include "support/bytes.hpp"

namespace e2ebench {

namespace ps = pdfshield;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One generated document and its ground truth under the workload's mode.
struct Input {
  std::string name;
  ps::support::Bytes data;
  std::string family;
  /// Expected detonation verdict: Sample::expect_detectable, and
  /// Sample::expect_forced_only unless the workload forces execution.
  bool expect_malicious = false;
};

enum class Kind { kScanOffice, kDetonateMix, kServeGateway };

struct Workload {
  Kind kind = Kind::kScanOffice;
  std::string name;
  ps::core::ServeOptions options;
  /// Closed loop: callers that each wait for their reply. 0 = open loop.
  std::size_t callers = 0;
  /// Open loop: the fixed offered rate in documents per second.
  double rate = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const std::string& name);

/// How much a run measures; everything is derived from --seconds so the
/// same (seed, seconds) always yields the same inputs.
struct Plan {
  double seconds = 10;   ///< measured window
  double warmup_s = 1;   ///< unmeasured lead-in of every service run
  bool smoke = false;    ///< short configuration for the smoke test
};

struct Inputs {
  std::vector<Input> docs;       ///< submission order
  std::vector<double> arrivals;  ///< open loop: scheduled offsets (s)
  std::uint64_t docs_digest = 0;
  std::uint64_t schedule_digest = 0;
  std::uint64_t total_bytes = 0;
};

/// Generates the workload's documents (and, for the open loop, its arrival
/// schedule) from `seed`. Closed loops get enough distinct documents for
/// the window at well above today's throughput; scan-office gets a fixed
/// corpus it cycles.
Inputs make_inputs(const Workload& w, std::uint64_t seed, const Plan& plan);

/// A tiny well-formed document (the set-up probe's request).
ps::support::Bytes probe_document();

// --- small statistics helpers ----------------------------------------------

/// Percentile (p in [0, 100]) interpolated between order statistics; 0 for
/// an empty sample, +inf once it reaches an infinite sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// One named metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Process CPU (user + sys) consumed so far, in seconds.
double process_cpu_s();
/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace e2ebench
