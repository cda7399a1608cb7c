#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

namespace e2ebench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_host_block() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  __builtin_cpu_init();
  std::string simd = __builtin_cpu_supports("avx2")    ? "avx2"
                     : __builtin_cpu_supports("ssse3") ? "ssse3"
                                                       : "scalar";
  if (const char* pin = std::getenv("PDFSHIELD_DISABLE_SIMD");
      pin && std::string(pin) == "1") {
    simd = "scalar (PDFSHIELD_DISABLE_SIMD=1 on a " + simd + " cpu)";
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  std::cout << "host: nproc " << sysconf(_SC_NPROCESSORS_ONLN) << "\n"
            << "host: cpu " << model << "\n"
            << "host: compiler " << compiler << "\n"
            << "host: build " << E2EBENCH_BUILD_TYPE << "\n"
            << "host: simd " << simd << "\n";
}

double canary_ms() {
  constexpr std::size_t kValues = 1u << 19;
  std::vector<std::uint64_t> values(kValues);
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t z = 0x2545f4914f6cdd1dULL;
    for (std::uint64_t& v : values) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      v = x ^ (x >> 27);
    }
    const Clock::time_point t0 = Clock::now();
    std::sort(values.begin(), values.end());
    samples.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(samples);
}

void print_result(std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    // JSON has no infinity; a latency past every sample (failed requests)
    // prints as an obviously out-of-range value.
    const double value = std::isfinite(metric.value) ? metric.value : 1e12;
    char number[64];
    std::snprintf(number, sizeof number, "%.10g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace e2ebench
