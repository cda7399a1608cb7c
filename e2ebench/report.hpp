// Output of a benchmark run: the host block, the drift canary, and the
// final one-line JSON result meant for machines.
#pragma once

#include <cstddef>

#include "common.hpp"

namespace e2ebench {

/// nproc, CPU model, compiler, build type and SIMD level, one line each.
void print_host_block();

/// A fixed reference computation (sorting a fixed pseudo-random array),
/// in milliseconds. Timed at the start and end of every run so host drift
/// shows next to the numbers; it is a diagnostic, not a metric.
double canary_ms();

/// The last line of standard output: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.
void print_result(std::size_t attempted, std::size_t failed,
                  const Metrics& metrics);

}  // namespace e2ebench
