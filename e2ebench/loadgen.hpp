// Load generation through core::ScanService: the closed loops
// (scan-office, detonate-mix) and the open loop (serve-gateway), all from
// one client thread, plus the set-up probe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2ebench {

/// What the client recorded for one answered request.
struct Reply {
  Clock::time_point done;
  bool accepted = false;
  bool ok = false;
  bool detonated = false;
  bool static_skipped = false;
  bool malicious = false;
  bool suspicious = false;
  std::uint32_t crc = 0;
  std::string error;  ///< scan error or admission reject reason
};

struct Submission {
  std::size_t doc = 0;     ///< index into Inputs::docs
  std::size_t caller = 0;  ///< closed loop caller
  /// Open loop: the scheduled send time. Closed loop: when the caller got
  /// its previous reply (its first request: the send time).
  Clock::time_point due;
  Clock::time_point sent;
  std::size_t inflight = 0;  ///< requests in flight when this one was sent
  bool measured = false;     ///< sent inside the measured window
  bool answered = false;
  Reply reply;
};

struct ServiceRun {
  std::vector<Submission> subs;  ///< submission order
  Clock::time_point window_start;
  Clock::time_point window_end;  ///< last completion
  double cpu_s = 0;              ///< process CPU over the window
  std::size_t window_completions = 0;
  std::size_t passes = 0;        ///< scan-office: corpus passes started
  bool exhausted = false;        ///< ran out of fresh documents early
  ps::core::ServeStats stats;
};

/// Drives one fresh ScanService built from `options` through the
/// workload's loop over `in`, then drains it.
ServiceRun run_service(const Workload& w,
                       const ps::core::ServeOptions& options,
                       const Inputs& in, const Plan& plan);

/// Set-up time of a ScanService: cold constructions until it has admitted
/// one request, `reps_per_cpu` of them started on each CPU the process may
/// use, so that one contended core cannot decide the median. Returns every
/// construction's time (seconds) and the service's detector id.
std::vector<double> setup_samples(const ps::core::ServeOptions& options,
                                  int reps_per_cpu, std::string* detector_id);

/// The ground-truth check every answered request goes through. The
/// verdict is the detonation verdict, or the static screen when the
/// workload does not detonate; `reference_crc` (scan-office) also pins the
/// instrumented bytes to the sequential pass.
bool verdict_ok(const Workload& w, const Input& doc, const Reply& reply,
                const std::vector<std::uint32_t>& reference_crc,
                std::size_t doc_index);

}  // namespace e2ebench
