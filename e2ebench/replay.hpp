// The traced replay: documents one at a time through each layer's public
// entry point, with the benchmark's own spans around every call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2ebench {

struct ReplayResult {
  Metrics metrics;          ///< per-layer metrics (empty without spans)
  std::size_t attempted = 0;
  std::size_t failed = 0;   ///< errors and verdicts off ground truth
  double wall_s = 0;        ///< the whole replay loop
};

/// Replays the first `count` documents of `in` (scan-office cycles its
/// corpus) through the workload's path. With `spans` on, every layer call
/// is timed and the spans are written to `spans_path` at the end; with it
/// off the same calls run untimed (the span-overhead baseline).
ReplayResult replay(const Workload& w, const Inputs& in, std::size_t count,
                    const std::string& detector_id,
                    const std::vector<std::uint32_t>& reference_crc,
                    bool spans, const std::string& spans_path);

/// Median construction time of a standalone js::Interpreter plus
/// jsapi::AcrobatApi (the per-document JS world), in microseconds.
double world_build_us(int reps);

}  // namespace e2ebench
