#include "loadgen.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace e2ebench {

namespace {

using ps::core::ScanResponse;
using ps::core::ScanService;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Replies handed from worker callbacks to the client thread. notify runs
/// under the lock, so once the client has seen the last reply no worker
/// touches the queue again.
class ReplyQueue {
 public:
  void push(std::size_t slot, Reply reply) {
    std::lock_guard<std::mutex> lock(mutex_);
    ready_.emplace_back(slot, std::move(reply));
    cv_.notify_one();
  }

  std::vector<std::pair<std::size_t, Reply>> wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !ready_.empty(); });
    std::vector<std::pair<std::size_t, Reply>> out;
    out.swap(ready_);
    return out;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::pair<std::size_t, Reply>> ready_;
};

/// The CPUs this process may run on, as sched_getaffinity reports them.
std::vector<int> allowed_cpus(cpu_set_t* mask) {
  CPU_ZERO(mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof *mask, mask) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, mask)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread to one CPU; the kernel moves it there now.
bool pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

/// Moves each worker thread over every CPU the process may use, in fixed
/// time slots, after each document it finishes. The workers' lanes are
/// offset so that no two share a CPU. On a shared host every core has its
/// own neighbour load, which changes over tens of seconds; an unpinned
/// thread stays on the core it started on, so without rotation a run
/// measures the luck of the two cores its workers landed on.
class CoreRotation {
 public:
  explicit CoreRotation(std::size_t workers) : start_(Clock::now()) {
    cpu_set_t mask;
    cpus_ = allowed_cpus(&mask);
    stride_ = workers > 0 ? cpus_.size() / workers : 0;
  }

  /// Called on a worker thread: pin it to its lane's CPU for this slot.
  void hop() {
    if (stride_ == 0) return;
    thread_local const CoreRotation* owner = nullptr;
    thread_local std::size_t lane = 0;
    thread_local int pinned = -1;
    if (owner != this) {
      owner = this;
      lane = next_lane_.fetch_add(1, std::memory_order_relaxed);
      pinned = -1;
    }
    const auto slot = static_cast<std::size_t>(
        seconds_between(start_, Clock::now()) / kSlotSeconds);
    const int cpu = cpus_[(slot + lane * stride_) % cpus_.size()];
    if (cpu != pinned && pin_to(cpu)) pinned = cpu;
  }

 private:
  static constexpr double kSlotSeconds = 0.25;
  Clock::time_point start_;
  std::vector<int> cpus_;
  std::size_t stride_ = 0;
  std::atomic<std::size_t> next_lane_{0};
};

Reply make_reply(const ScanResponse& r) {
  Reply rep;
  rep.done = Clock::now();
  rep.accepted = r.accepted;
  rep.ok = r.doc.ok;
  rep.detonated = r.doc.detonated;
  rep.static_skipped = r.doc.static_skipped;
  rep.malicious = r.doc.malicious;
  rep.suspicious = r.doc.suspicious;
  rep.crc = r.doc.output_crc32;
  rep.error = r.accepted ? r.doc.error : "rejected: " + r.reject_reason;
  return rep;
}

}  // namespace

ServiceRun run_service(const Workload& w,
                       const ps::core::ServeOptions& options,
                       const Inputs& in, const Plan& plan) {
  ServiceRun run;
  CoreRotation rotation(options.jobs);
  ScanService service(options);
  ReplyQueue queue;
  std::atomic<std::size_t> inflight{0};
  double cpu0 = 0;

  auto send = [&](std::size_t doc, Clock::time_point due, bool measured,
                  std::size_t caller) {
    const std::size_t slot = run.subs.size();
    Submission s;
    s.doc = doc;
    s.caller = caller;
    s.due = due;
    s.measured = measured;
    s.inflight = inflight.fetch_add(1, std::memory_order_relaxed);
    s.sent = Clock::now();
    run.subs.push_back(s);
    const Input& d = in.docs[doc];
    service.submit(d.name, ps::support::BytesView(d.data.data(), d.data.size()),
                   nullptr,
                   [&queue, &inflight, &rotation,
                    slot](const ScanResponse& response) {
                     Reply reply = make_reply(response);
                     inflight.fetch_sub(1, std::memory_order_relaxed);
                     queue.push(slot, std::move(reply));
                     // A rejected request answers on the client thread.
                     if (response.accepted) rotation.hop();
                   });
  };
  std::size_t answered = 0;
  auto take = [&run, &answered](std::size_t slot, Reply reply) {
    run.subs[slot].reply = std::move(reply);
    run.subs[slot].answered = true;
    ++answered;
  };

  if (w.callers > 0) {
    // Closed loop: each caller sends its next document when its reply
    // arrives. scan-office cycles its corpus; the other workloads never
    // repeat a document and end the window early if they run out.
    const bool cycle = w.kind == Kind::kScanOffice;
    std::size_t cursor = 0;
    auto next_doc = [&](std::size_t* doc) {
      if (!cycle && cursor >= in.docs.size()) {
        run.exhausted = true;
        return false;
      }
      *doc = cursor % in.docs.size();
      ++cursor;
      return true;
    };
    const Clock::time_point warm_end =
        Clock::now() + to_duration(plan.warmup_s);
    Clock::time_point window_close = Clock::time_point::max();
    bool in_window = false;
    for (std::size_t c = 0; c < w.callers; ++c) {
      std::size_t doc = 0;
      if (next_doc(&doc)) send(doc, Clock::now(), false, c);
    }
    while (answered < run.subs.size()) {
      for (auto& [slot, reply] : queue.wait()) {
        const Clock::time_point got = reply.done;
        const std::size_t caller = run.subs[slot].caller;
        take(slot, std::move(reply));
        const Clock::time_point now = Clock::now();
        if (!in_window && now >= warm_end) {
          in_window = true;
          run.window_start = now;
          window_close = now + to_duration(plan.seconds);
          cpu0 = process_cpu_s();
        }
        std::size_t doc = 0;
        if (now < window_close && next_doc(&doc)) {
          send(doc, got, in_window, caller);
        }
      }
    }
    run.passes = cycle ? (cursor + in.docs.size() - 1) / in.docs.size() : 1;
  } else {
    // Open loop: send on the seeded schedule whatever the replies do, and
    // time each request from when it was due.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    run.window_start = start + to_duration(plan.warmup_s);
    bool in_window = false;
    for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
      const Clock::time_point due = start + to_duration(in.arrivals[i]);
      std::this_thread::sleep_until(due);
      const bool measured = due >= run.window_start;
      if (measured && !in_window) {
        in_window = true;
        cpu0 = process_cpu_s();
      }
      send(i, due, measured, 0);
    }
    while (answered < run.subs.size()) {
      for (auto& [slot, reply] : queue.wait()) take(slot, std::move(reply));
    }
    run.passes = 1;
  }
  service.drain();
  run.cpu_s = process_cpu_s() - cpu0;
  run.stats = service.stats();

  run.window_end = run.window_start;
  for (const Submission& s : run.subs) {
    run.window_end = std::max(run.window_end, s.reply.done);
    if (s.reply.done >= run.window_start) ++run.window_completions;
  }
  return run;
}

std::vector<double> setup_samples(const ps::core::ServeOptions& options,
                                  int reps_per_cpu,
                                  std::string* detector_id) {
  const ps::support::Bytes probe = probe_document();
  cpu_set_t mask;
  const std::vector<int> cpus = allowed_cpus(&mask);
  std::vector<double> samples;
  for (const int cpu : cpus) {
    // Start the block on this CPU, then allow every CPU again: the kernel
    // leaves a running thread where it is, and the service's workers
    // inherit the full mask, as they would without this placement.
    pin_to(cpu);
    sched_setaffinity(0, sizeof mask, &mask);
    for (int i = 0; i < reps_per_cpu; ++i) {
      const Clock::time_point t0 = Clock::now();
      ScanService service(options);
      const bool accepted = service.submit(
          "setup-probe", ps::support::BytesView(probe.data(), probe.size()),
          nullptr, [](const ScanResponse&) {});
      const Clock::time_point t1 = Clock::now();
      service.drain();
      if (!accepted) throw std::runtime_error("set-up probe was not admitted");
      samples.push_back(seconds_between(t0, t1));
      if (detector_id) *detector_id = service.detector_id();
    }
  }
  return samples;
}

bool verdict_ok(const Workload& w, const Input& doc, const Reply& reply,
                const std::vector<std::uint32_t>& reference_crc,
                std::size_t doc_index) {
  if (!reply.accepted || !reply.ok || !reply.error.empty()) return false;
  if (!reference_crc.empty() && reply.crc != reference_crc[doc_index]) {
    return false;
  }
  bool verdict = false;
  if (!w.options.detonate) {
    verdict = reply.suspicious;
  } else if (reply.detonated) {
    verdict = reply.malicious;
  } else if (!reply.static_skipped) {
    return false;  // neither detonated nor statically proven clean
  }
  return verdict == doc.expect_malicious;
}

}  // namespace e2ebench
