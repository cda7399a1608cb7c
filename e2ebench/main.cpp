// End-to-end + per-layer benchmark for the scan service.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--workdir DIR] [--smoke] [--plant-wrong-verdict]
//
// --trace 0 is a timed run: it prints every end-to-end metric of one
// workload. --trace 1 is the separate traced run: it prints the per-layer
// metrics. Both check every verdict against corpus ground truth and end
// with one JSON line on standard output. README.md has the details.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/batch_scanner.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "report.hpp"

using namespace e2ebench;

namespace {

// Set-up constructions per CPU, in one block before the timed service run
// and one after it.
constexpr int kSetupRepsPerCpu = 25;
// The traced run splits its --seconds: the service run gets this share,
// each of the trace-sink pairs' runs kTracePairShare, the replays the rest.
constexpr double kTracedServiceShare = 0.2;
constexpr int kTracePairs = 3;
constexpr double kTracePairShare = 0.08;
constexpr int kWorldBuildReps = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir = ".";
  bool smoke = false;
  bool plant_wrong_verdict = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = std::stoi(value());
    else if (flag == "--workdir") a.workdir = value();
    else if (flag == "--smoke") a.smoke = true;
    else if (flag == "--plant-wrong-verdict") a.plant_wrong_verdict = true;
    else throw std::invalid_argument("unknown argument " + flag);
  }
  if (a.workload.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

/// Instrumented-output CRCs of a single-threaded pass (scan-office only):
/// the service must reproduce them byte for byte.
std::vector<std::uint32_t> sequential_crcs(const Workload& w,
                                           const Inputs& in,
                                           const std::string& detector_id) {
  if (w.kind != Kind::kScanOffice) return {};
  const ps::core::FrontEnd frontend(detector_id, w.options.frontend);
  ps::core::BatchRunContext ctx;
  ctx.session = detector_id;
  std::vector<std::uint32_t> crcs;
  crcs.reserve(in.docs.size());
  for (const Input& d : in.docs) {
    const ps::core::BatchDocResult doc = ps::core::run_document(
        frontend, d.name, ps::support::BytesView(d.data.data(), d.data.size()),
        ctx);
    crcs.push_back(doc.output_crc32);
  }
  return crcs;
}

Inputs prepare_inputs(const Workload& w, const Args& args, const Plan& plan) {
  const Clock::time_point t0 = Clock::now();
  Inputs in = make_inputs(w, args.seed, plan);
  std::size_t malicious = 0;
  for (const Input& d : in.docs) malicious += d.expect_malicious ? 1 : 0;
  std::printf("inputs: %s seed %llu, %zu documents (%zu expected malicious), "
              "%.1f MB, digest %016llx, schedule %zu arrivals digest %016llx "
              "(generated in %.2f s)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              in.docs.size(), malicious,
              static_cast<double>(in.total_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(in.docs_digest),
              in.arrivals.size(),
              static_cast<unsigned long long>(in.schedule_digest),
              seconds_between(t0, Clock::now()));
  if (args.plant_wrong_verdict) {
    in.docs[0].expect_malicious = !in.docs[0].expect_malicious;
    std::printf("planted: expected verdict of %s flipped\n",
                in.docs[0].name.c_str());
  }
  return in;
}

/// Ground-truth failures among every request of a service run.
std::size_t count_failures(const Workload& w, const Inputs& in,
                           const ServiceRun& run,
                           const std::vector<std::uint32_t>& reference) {
  std::size_t failed = 0;
  for (const Submission& s : run.subs) {
    if (s.answered &&
        verdict_ok(w, in.docs[s.doc], s.reply, reference, s.doc)) {
      continue;
    }
    if (++failed <= 10) {
      const Input& d = in.docs[s.doc];
      std::fprintf(stderr,
                   "failed: %s (%s) expected %s, got accepted=%d ok=%d "
                   "detonated=%d skipped=%d malicious=%d suspicious=%d "
                   "error='%s'\n",
                   d.name.c_str(), d.family.c_str(),
                   d.expect_malicious ? "malicious" : "benign",
                   s.reply.accepted, s.reply.ok, s.reply.detonated,
                   s.reply.static_skipped, s.reply.malicious,
                   s.reply.suspicious, s.reply.error.c_str());
    }
  }
  return failed;
}

double window_s(const ServiceRun& run) {
  return seconds_between(run.window_start, run.window_end);
}

void print_run(const char* label, const ServiceRun& run) {
  std::size_t measured = 0;
  for (const Submission& s : run.subs) measured += s.measured ? 1 : 0;
  std::printf("%s: %zu requests (%zu measured) over a %.3f s window, "
              "%zu passes%s; accepted %llu, rejected %llu, errors %llu, "
              "static-skipped %llu, degraded %llu\n",
              label, run.subs.size(), measured, window_s(run), run.passes,
              run.exhausted ? ", RAN OUT OF DOCUMENTS" : "",
              static_cast<unsigned long long>(run.stats.accepted),
              static_cast<unsigned long long>(run.stats.rejected),
              static_cast<unsigned long long>(run.stats.errors),
              static_cast<unsigned long long>(run.stats.static_skipped),
              static_cast<unsigned long long>(run.stats.degraded_docs));
}

void timed_run(const Workload& w, const Args& args, const Plan& plan,
               Metrics& metrics, std::size_t& attempted, std::size_t& failed) {
  const Inputs in = prepare_inputs(w, args, plan);
  std::string detector_id;
  std::vector<double> setup =
      setup_samples(w.options, kSetupRepsPerCpu, &detector_id);
  const std::vector<std::uint32_t> reference =
      sequential_crcs(w, in, detector_id);

  const ServiceRun run = run_service(w, w.options, in, plan);
  print_run("run", run);
  const std::vector<double> setup_after =
      setup_samples(w.options, kSetupRepsPerCpu, nullptr);
  setup.insert(setup.end(), setup_after.begin(), setup_after.end());
  const double setup_s = median(setup);
  attempted = run.subs.size();
  failed = count_failures(w, in, run, reference);

  // A failed request counts as over any latency limit.
  std::vector<double> latency_ms;
  for (const Submission& s : run.subs) {
    if (!s.measured) continue;
    const bool good = s.answered && verdict_ok(w, in.docs[s.doc], s.reply,
                                               reference, s.doc);
    const Clock::time_point from = w.callers > 0 ? s.sent : s.due;
    latency_ms.push_back(good ? seconds_between(from, s.reply.done) * 1e3
                              : std::numeric_limits<double>::infinity());
  }
  const double completions = static_cast<double>(run.window_completions);
  metrics["docs_per_s"] = {completions / window_s(run), "1/s"};
  metrics["latency_p50_ms"] = {percentile(latency_ms, 50), "ms"};
  metrics["latency_p99_ms"] = {percentile(latency_ms, 99), "ms"};
  metrics["cpu_ms_per_doc"] = {run.cpu_s * 1e3 / completions, "ms"};
  metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  metrics["setup_s"] = {setup_s, "s"};
  std::printf("latency samples: %zu (p99 has %zu beyond it)\n",
              latency_ms.size(), latency_ms.size() / 100);
}

std::uint64_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t lines = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) lines += buf[i] == '\n';
  }
  return lines;
}

std::size_t replay_count(const Workload& w, const Inputs& in,
                         const Plan& plan) {
  // Documents per second of --seconds: sized so the three replay passes
  // take about a fifth of the traced run at today's speed.
  double per_second = 20;
  if (w.kind == Kind::kDetonateMix) per_second = 10;
  auto count = static_cast<std::size_t>(plan.seconds * per_second);
  if (w.kind != Kind::kScanOffice) count = std::min(count, in.docs.size());
  return std::max<std::size_t>(count, 3);
}

void traced_run(const Workload& w, const Args& args, const Plan& plan,
                Metrics& metrics, std::size_t& attempted,
                std::size_t& failed) {
  Plan service_plan = plan;
  service_plan.seconds = plan.seconds * kTracedServiceShare;
  const Inputs in = prepare_inputs(w, args, service_plan);
  std::string detector_id;
  setup_samples(w.options, 1, &detector_id);
  const std::vector<std::uint32_t> reference =
      sequential_crcs(w, in, detector_id);

  const ServiceRun plain = run_service(w, w.options, in, service_plan);
  print_run("service", plain);
  attempted += plain.subs.size();
  failed += count_failures(w, in, plain, reference);

  // The product's JSONL trace sink, off vs on, in alternating pairs of
  // short runs: the two runs of a pair share the host's state, so drift
  // cancels in the pair's ratio; the median ratio is reported.
  Plan pair_plan = plan;
  pair_plan.seconds = plan.seconds * kTracePairShare;
  pair_plan.warmup_s = plan.warmup_s / 2;
  const Inputs pair_in = prepare_inputs(w, args, pair_plan);
  const std::vector<std::uint32_t> pair_reference =
      sequential_crcs(w, pair_in, detector_id);
  ps::core::ServeOptions traced_options = w.options;
  const std::string trace_path = args.workdir + "/trace-" +
                                 std::to_string(getpid()) + ".jsonl";
  traced_options.trace_path = trace_path;
  auto cpu_per_doc = [](const ServiceRun& run) {
    return run.cpu_s / static_cast<double>(run.window_completions);
  };
  std::vector<double> ratios;
  std::uint64_t trace_lines = 0;
  std::size_t traced_requests = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    const ServiceRun off = run_service(w, w.options, pair_in, pair_plan);
    const ServiceRun on = run_service(w, traced_options, pair_in, pair_plan);
    trace_lines += count_lines(trace_path);
    std::remove(trace_path.c_str());
    traced_requests += on.subs.size();
    attempted += off.subs.size() + on.subs.size();
    failed += count_failures(w, pair_in, off, pair_reference) +
              count_failures(w, pair_in, on, pair_reference);
    ratios.push_back(cpu_per_doc(on) / cpu_per_doc(off));
  }
  metrics["trace.overhead_pct"] = {(median(ratios) - 1) * 100, "%"};
  metrics["trace.events_per_doc"] = {static_cast<double>(trace_lines) /
                                         static_cast<double>(traced_requests),
                                     "count"};

  std::vector<double> inflight;
  std::vector<double> late_ms;
  double queued = 0;
  for (const Submission& s : plain.subs) {
    if (!s.measured) continue;
    inflight.push_back(static_cast<double>(s.inflight));
    late_ms.push_back(seconds_between(s.due, s.sent) * 1e3);
    if (s.inflight >= w.options.jobs) ++queued;
  }
  const double arrivals = static_cast<double>(inflight.size());
  const double accepted = static_cast<double>(plain.stats.accepted);
  metrics["scan_service.queued_share"] = {arrivals > 0 ? queued / arrivals : 0,
                                          "share"};
  metrics["scan_service.inflight_on_arrival_p99"] = {percentile(inflight, 99),
                                                     "count"};
  metrics["scan_service.skipped_share"] = {
      static_cast<double>(plain.stats.static_skipped) / accepted, "share"};
  metrics["scan_service.degraded_share"] = {
      static_cast<double>(plain.stats.degraded_docs) / accepted, "share"};
  metrics["loadgen.late_p99_ms"] = {percentile(late_ms, 99), "ms"};

  // The replay with spans, between two passes without them (baseline):
  // the sandwich cancels drift that is linear over the three passes.
  const std::size_t count = replay_count(w, in, plan);
  replay(w, in, std::min<std::size_t>(count, 10), detector_id, reference,
         false, "");  // warm-up
  const std::string spans_path = args.workdir + "/spans-" + w.name + ".jsonl";
  const ReplayResult before =
      replay(w, in, count, detector_id, reference, false, "");
  const ReplayResult spanned =
      replay(w, in, count, detector_id, reference, true, spans_path);
  const ReplayResult after =
      replay(w, in, count, detector_id, reference, false, "");
  for (const ReplayResult* r : {&before, &spanned, &after}) {
    attempted += r->attempted;
    failed += r->failed;
  }
  for (const auto& [name, metric] : spanned.metrics) metrics[name] = metric;
  metrics["bench.span_overhead_pct"] = {
      (2 * spanned.wall_s / (before.wall_s + after.wall_s) - 1) * 100, "%"};
  metrics["reader.world_build_us"] = {world_build_us(kWorldBuildReps), "us"};
  std::printf("replay: %zu documents, %.4f ms per document = layer self "
              "times + %.4f ms remainder; spans in %s\n",
              count, spanned.metrics.at("replay.doc_ms").value,
              spanned.metrics.at("replay.remainder_ms").value,
              spans_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
  try {
    print_host_block();
    const double canary_start = canary_ms();
    const Workload w = make_workload(args.workload);
    Plan plan;
    plan.seconds = args.seconds;
    plan.smoke = args.smoke;
    plan.warmup_s = args.smoke ? 0.2 : 1.0;

    Metrics metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    if (args.trace == 0) {
      timed_run(w, args, plan, metrics, attempted, failed);
    } else {
      traced_run(w, args, plan, metrics, attempted, failed);
    }
    const double canary_end = canary_ms();
    std::printf("canary: %.3f ms at start, %.3f ms at end (%+.1f%%)\n",
                canary_start, canary_end,
                (canary_end / canary_start - 1) * 100);
    std::printf("checked: %zu attempted, %zu failed\n", attempted, failed);
    std::fflush(stdout);
    print_result(attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
